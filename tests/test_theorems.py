"""The paper's |t|-free ratios on single-collar models, each against the
limit its rows of the target table give.

    -R_{00}/tau_{00}^2 of the Ricci metric  -> -g1-sum / ricci-diag^2 = -2/3
    -u R_{00}/h_{00}^2 of the WP metric     -> -wp-curv-diag / wp-metric-diag^2
                                             = -3/(2 pi^2)
    (mcmullen - 1/3) / u                    -> wp-metric-diag / ricci-diag
                                             = 2 pi^2/3

The first is the holomorphic sectional curvature of the Ricci metric, so
it does not move when tau alone is scaled; the other two do.
"""

import pytest

from collarlab import CurvatureWorkspace, equivalence_ratios, target


def _c(check_id: str) -> float:
    return target(check_id).constant


# Each bound is twice |ratio - limit| measured at that u (default cut and
# n_tau), rounded up; the measured deviations are in the comments.
BOUNDS = {
    # 2.27e-3, 2.85e-4, 3.57e-5
    "ricci": {0.1: 4.6e-3, 0.05: 5.8e-4, 0.025: 7.2e-5},
    # 2.15e-5, 2.69e-6, 3.36e-7
    "wp": {0.1: 4.4e-5, 0.05: 5.4e-6, 0.025: 6.8e-7},
    # 1.88e-3, 3.52e-4, 7.34e-5
    "mcmullen-slope": {0.1: 3.8e-3, 0.05: 7.1e-4, 0.025: 1.5e-4},
}
US = (0.1, 0.05, 0.025)


@pytest.mark.parametrize("u", US)
def test_ricci_holomorphic_curvature_ratio(u):
    ws = CurvatureWorkspace.single_collar(u)
    tau = ws.tau().values[0, 0].real
    ratio = -ws.ricci_curvature(0, 0, 0, 0).real / tau**2
    limit = -_c("g1-sum") / _c("ricci-diag") ** 2
    assert abs(ratio - limit) <= BOUNDS["ricci"][u]


@pytest.mark.parametrize("u", US)
def test_wp_holomorphic_curvature_ratio(u):
    ws = CurvatureWorkspace.single_collar(u)
    ratio = -u * ws.R(0, 0, 0, 0).real / ws.h().values[0, 0].real ** 2
    limit = -_c("wp-curv-diag") / _c("wp-metric-diag") ** 2
    assert abs(ratio - limit) <= BOUNDS["wp"][u]


@pytest.mark.parametrize("u", US)
def test_mcmullen_slope(u):
    slope = (equivalence_ratios(u)["mcmullen"] - 1.0 / 3.0) / u
    limit = _c("wp-metric-diag") / _c("ricci-diag")
    assert abs(slope - limit) <= BOUNDS["mcmullen-slope"][u]
