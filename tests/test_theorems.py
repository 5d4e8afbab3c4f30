"""The paper's |t|-free ratios on single-collar models, each against the
limit its rows of the target table give.

    -R_{00}/tau_{00}^2 of the Ricci metric  -> -g1-sum / ricci-diag^2 = -2/3
    -u R_{00}/h_{00}^2 of the WP metric     -> -wp-curv-diag / wp-metric-diag^2
                                             = -3/(2 pi^2)
    (mcmullen - 1/3) / u                    -> wp-metric-diag / ricci-diag
                                             = 2 pi^2/3

The first is the holomorphic sectional curvature of the Ricci metric, so
it does not move when tau alone is scaled; the other two do.

The comparison theorem, on the coupled model of two collars at equal u
(kappa = 1), with eig(a, b) the eigenvalues of the pencil (a, b):

    eig(tau, P), P = diag(u^2/4 pi^2)  -> 4 pi^2 ricci-diag = 3, their
                                          split of order u^3
    max eig(h, tau) / u                -> wp-metric-diag / ricci-diag
                                        = 2 pi^2/3
    eig(tau + C h, tau)                 = 1 + C eig(h, tau)
    tau_01 / sqrt(tau_00 tau_11)        = h's, with leading term
                                          -2 pi kappa u^3
"""

import math

import numpy as np
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


# The comparison theorem's bounds, twice the deviation measured at the
# default cut and n_tau, rounded up; the measured values are in the
# comments.  The identities hold to round-off, bounded at a few ulps.
COMPARISON = {
    # mean of eig(tau, P) - 3: -8.19e-4, -1.06e-4, -1.32e-5
    "ricci-p": {0.1: 1.7e-3, 0.05: 2.2e-4, 0.025: 2.7e-5},
    # max eig(h, tau) / (2 pi^2 u/3) - 1: 1.42e-4, 1.77e-5, 2.21e-6
    "wp-ricci": {0.1: 2.9e-4, 0.05: 3.6e-5, 0.025: 4.5e-6},
    # tau_01 / sqrt(tau_00 tau_11) / (-2 pi kappa u^3) - 1:
    # -9.87e-6, -1.54e-7, -2.41e-9
    "off-diagonal": {0.1: 2.0e-5, 0.05: 3.1e-7, 0.025: 4.9e-9},
    # log2 of the split's fall from u to u/2, less 3: -3.57e-4, -4.46e-5
    "split-order": {0.1: 7.2e-4, 0.05: 9.0e-5},
}
ROUND_OFF = 8 * np.finfo(float).eps
KAPPA = 1.0


def _pair(u):
    ws = CurvatureWorkspace.from_u_values([u, u], kappa=KAPPA)
    return ws, ws.tau().values, ws.h().values


def _eig(a, b):
    """Eigenvalues of the pencil (a, b), b Hermitian positive definite,
    ascending."""
    l_inv = np.linalg.inv(np.linalg.cholesky(b))
    return np.linalg.eigvalsh(l_inv @ a @ l_inv.conj().T)


def _ricci_p(u):
    _, tau, _ = _pair(u)
    return _eig(tau, np.eye(2) * u**2 / (4 * math.pi**2))


@pytest.mark.parametrize("u", US)
def test_ricci_against_the_p_metric(u):
    limit = 4 * math.pi**2 * _c("ricci-diag")
    assert abs(_ricci_p(u).mean() - limit) <= COMPARISON["ricci-p"][u]


@pytest.mark.parametrize("u", US[:2])
def test_ricci_p_split_is_of_order_three(u):
    (lo, hi), (lo2, hi2) = _ricci_p(u), _ricci_p(u / 2)
    order = math.log2((hi - lo) / (hi2 - lo2))
    assert abs(order - 3) <= COMPARISON["split-order"][u]


@pytest.mark.parametrize("u", US)
def test_wp_against_ricci(u):
    _, tau, h = _pair(u)
    limit = _c("wp-metric-diag") / _c("ricci-diag") * u
    assert abs(_eig(h, tau).max() / limit - 1) <= COMPARISON["wp-ricci"][u]


@pytest.mark.parametrize("u", US)
@pytest.mark.parametrize("C", (1.0, 10.0))
def test_perturbed_ricci_lies_between_ricci_and_its_bound(u, C):
    ws, tau, h = _pair(u)
    wp = _eig(h, tau)
    pert = _eig(ws.perturbed_metric(C).values, tau)
    # exactly 1 + C eig(h, tau): to leading order only is the top one
    # 1 + C 2 pi^2 u/3 (1.658067 against 1.657974 at u = 0.1, C = 1)
    assert np.abs(pert - (1 + C * wp)).max() <= ROUND_OFF * (1 + C * wp.max())
    limit = _c("wp-metric-diag") / _c("ricci-diag") * u
    assert pert.min() > 1
    assert pert.max() <= 1 + C * limit * (1 + COMPARISON["wp-ricci"][u])


@pytest.mark.parametrize("u", US)
def test_equal_u_off_diagonals_agree(u):
    _, tau, h = _pair(u)
    ratio = [m[0, 1] / math.sqrt((m[0, 0] * m[1, 1]).real) for m in (tau, h)]
    assert abs(ratio[0] - ratio[1]) <= ROUND_OFF
    leading = -2 * math.pi * KAPPA * u**3
    assert abs(ratio[0] / leading - 1) <= COMPARISON["off-diagonal"][u]
