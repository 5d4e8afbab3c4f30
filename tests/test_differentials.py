"""Beltrami/quadratic-differential families, metrics, and duality."""

import math

import numpy as np
import pytest

from collarlab import (BeltramiSpec, CollarSystem, QuadDiffSpec,
                       beltrami_field, ck_norm, collar_from_u, coupled_family, diagonal_family,
                       duality_check, make_grid, qdiff_field, wirtinger,
                       wp_cometric, wp_metric)
from collarlab.curvature import upper_index
from collarlab.differentials import MetricMatrix
from collarlab.operators import mul_radial

PI = math.pi


def one_collar(u, n_tau=1024):
    col = collar_from_u(u)
    return CollarSystem([col], [make_grid(col, n_tau)])


def test_diagonal_family_coefficients():
    sys1 = one_collar(0.1)
    bspec, qspec = diagonal_family(sys1)
    assert bspec.entries[(0, 0)] == pytest.approx(-0.1 / PI, rel=1e-15)
    # prefactor_hat times beta = 1
    assert qspec.entries[(0, 0)] == pytest.approx(-1.0 / PI, rel=1e-15)


def test_beltrami_field_shape_and_sup():
    sys1 = one_collar(0.1)
    bspec, _ = diagonal_family(sys1)
    A = beltrami_field(bspec, 0, 0, sys1)
    assert set(A.modes) == {2}
    grid = sys1.grids[0]
    np.testing.assert_allclose(A.profile(2),
                               grid.sin_tau**2 * np.conj(bspec.entries[(0, 0)]))
    # sup |A| = u/pi, attained where sin^2 peaks inside the interval
    assert ck_norm(A, 0) == pytest.approx(0.1 / PI, rel=1e-5)


def test_qdiff_field_is_pure_lowest_mode():
    sys1 = one_collar(0.1)
    _, qspec = diagonal_family(sys1)
    phi = qdiff_field(qspec, 0, 0, sys1)
    assert set(phi.modes) == {-2}
    assert beltrami_field(BeltramiSpec(1, {}), 0, 0, sys1).modes == {}


def test_entry_validation():
    with pytest.raises(ValueError):
        CollarSystem([collar_from_u(0.1)], [])


def test_wp_metric_leading_order():
    for u in (0.1, 0.05):
        sys1 = one_collar(u)
        bspec, _ = diagonal_family(sys1)
        h = wp_metric(bspec, sys1).values[0, 0].real
        assert abs(h / (u**3 / 2) - 1) < 1e-3  # well inside the 3u band


def test_wp_cometric_frozen_spot():
    sys1 = one_collar(0.1)
    _, qspec = diagonal_family(sys1)
    hup = wp_cometric(qspec, sys1).values[0, 0].real
    assert hup == pytest.approx(1999.7175914005688, rel=1e-8)
    assert abs(hup / (2 / 0.1**3) - 1) < 3 * 0.1


def test_wp_metric_compact_part_added():
    sys1 = one_collar(0.1)
    bspec, _ = diagonal_family(sys1)
    base = wp_metric(bspec, sys1).values
    extra = np.array([[0.25]])
    shifted = wp_metric(bspec, sys1, compact_part=extra).values
    assert shifted[0, 0] == pytest.approx(base[0, 0] + 0.25, rel=1e-14)


def test_duality_on_diagonal_entries():
    sys1 = one_collar(0.1)
    bspec, qspec = diagonal_family(sys1)
    rep = duality_check(bspec, qspec, sys1)
    assert rep[(0, 0)]["rel_err"] < 5e-4
    cols = [collar_from_u(u) for u in (0.09, 0.06)]
    sys2 = CollarSystem(cols, [make_grid(c, 1024) for c in cols])
    b2, q2 = coupled_family(sys2, 1.0)
    rep2 = duality_check(b2, q2, sys2)
    for i in range(2):
        assert rep2[(i, i)]["rel_err"] < 5e-4


def test_metric_matrix_validation_and_inverse():
    with pytest.raises(ValueError):
        MetricMatrix(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), "WP")
    neg = MetricMatrix(np.array([[-1.0 + 0j]]), "WP")
    with pytest.raises(ValueError):
        neg.require_positive()
    # NaN fails both tests, and is reported as NaN
    with pytest.raises(ValueError, match="not Hermitian"):
        MetricMatrix(np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex), "WP")
    nan_entry = MetricMatrix(np.eye(2, dtype=complex), "WP")
    nan_entry.values[0, 0] = np.nan
    with pytest.raises(ValueError, match="min eigenvalue nan"):
        nan_entry.require_positive()
    m = MetricMatrix(np.array([[2.0 + 0j, 0.3], [0.3, 1.0]]), "WP")
    # the code inverts through upper_index: conj(h^-1)
    inv = np.conj(upper_index(m.values))
    np.testing.assert_allclose(inv @ m.values, np.eye(2), atol=1e-14)


def test_diagonal_beltrami_is_harmonic_pointwise():
    # lambda A has a single exponential mode profile killed by d/dz exactly;
    # compare the derivative against the local size of each contribution
    sys1 = one_collar(0.1)
    bspec, _ = diagonal_family(sys1)
    grid = sys1.grids[0]
    A = beltrami_field(bspec, 0, 0, sys1)
    lamA = mul_radial(A, grid.lam)
    dz = wirtinger(lamA, "dz")
    local = 2 * np.abs(lamA.profile(2)) / grid.r
    assert np.all(np.abs(dz.profile(1)) <= 1e-9 * local)


def test_coupled_family_reduces_to_diagonal_at_zero():
    cols = [collar_from_u(u) for u in (0.09, 0.06)]
    sys2 = CollarSystem(cols, [make_grid(c, 512) for c in cols])
    assert coupled_family(sys2, 0.0) == diagonal_family(sys2)
    b2, _ = coupled_family(sys2, 1.0)
    cross = beltrami_field(b2, 0, 1, sys2)
    assert set(cross.modes) == {2}
    assert cross.sup_norm() > 0.0
