"""Collar geometry, the tau grid, and its calculus."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collarlab import (CollarError, CollarParams, TauGrid, cache_scope,
                       collar_from_t, collar_from_u, geodesic_length,
                       make_grid)
from collarlab.collar import STENCIL, U_MAX, U_MIN, stencil_weights

PI = math.pi


def strict_floats():
    """Overflow, invalid operations and division by zero raise inside."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def test_u_and_rho_derived_from_t():
    col = collar_from_t(math.exp(-10.0))
    assert col.u == pytest.approx(PI / 10.0, rel=1e-15)
    assert col.rho == pytest.approx(math.exp(-10.0), rel=1e-15)


def test_tau_interval_frozen_values():
    # u = pi/10, c = 0.5: interval (-pi + (pi/10) log 2, -(pi/10) log 2)
    col = collar_from_t(math.exp(-10.0), c=0.5)
    assert col.tau_min == pytest.approx(-2.92383, abs=5e-6)
    assert col.tau_max == pytest.approx(-0.21776, abs=5e-6)
    assert -PI < col.tau_min < col.tau_max < 0.0


def test_r_tau_roundtrip():
    col = collar_from_u(0.1)
    tau = np.linspace(col.tau_min, col.tau_max, 17)
    np.testing.assert_allclose(col.tau_of_r(col.r_of_tau(tau)), tau, rtol=1e-14)
    r = np.geomspace(col.rho / col.c, col.c, 17)
    np.testing.assert_allclose(col.r_of_tau(col.tau_of_r(r)), r, rtol=1e-14)


def test_collar_validation_errors():
    with pytest.raises(CollarError):
        collar_from_t(1.5)
    with pytest.raises(CollarError):
        collar_from_t(0.0)
    with pytest.raises(CollarError):
        collar_from_t(math.exp(-10.0), c=1.5)
    with pytest.raises(CollarError):
        collar_from_u(U_MAX * 2)
    with pytest.raises(CollarError):
        collar_from_u(U_MIN / 2)
    # the same range, checked on a collar made from t: u = 0.0045 here
    with pytest.raises(CollarError, match="outside supported range"):
        collar_from_t(1e-300)
    # u = 0.5 is allowed but c = 0.04 < e^{-pi} empties the interval
    with pytest.raises(CollarError, match="cut c too small"):
        CollarParams(t=complex(math.exp(-2 * PI)), c=0.04)


def test_geodesic_circle():
    # the core geodesic of a collar has length 2 pi u
    col = collar_from_u(0.1)
    assert geodesic_length(col.rho) == pytest.approx(2 * PI * 0.1, rel=1e-14)


def test_metric_density_matches_grid_lam():
    col = collar_from_u(0.1)
    grid = make_grid(col, 256)
    # lambda = u^2 / (2 r^2 sin^2 tau), so u^2 / (2 rho) at tau = -pi/2
    r = col.r_of_tau(grid.nodes)
    np.testing.assert_allclose(
        grid.lam, 0.5 * 0.1**2 / (r**2 * np.sin(grid.nodes) ** 2), rtol=1e-13)
    core = TauGrid(col, np.array([-PI / 2]), np.ones(1), grid.panel_edges)
    assert core.lam[0] == pytest.approx(0.5 * 0.1**2 / col.rho, rel=1e-14)


def test_make_grid_shares_one_grid_per_distinct_arguments():
    col = collar_from_u(0.1)
    grid = make_grid(col, 512)
    assert make_grid(col, n_tau=512) is grid
    assert make_grid(collar=col, n_tau=512, nodes_per_panel=10) is grid
    assert make_grid(collar_from_u(0.1), 512, 10) is grid  # equal collar
    assert make_grid(col, 1024) is not grid
    assert make_grid(col, 512, 8) is not grid
    assert make_grid(collar_from_u(0.1, c=0.45), 512) is not grid


def test_grid_edges_are_sorted_and_distinct_on_a_sweep():
    # the cascade and interior edges join where linspace pins its ends, so
    # the edges need no np.unique
    with cache_scope():  # keep the shared grid memo at its size
        for u, c, n_tau, p in itertools.product(
                (0.01, 0.013, 0.05, 0.1, 0.3, 0.5), (0.3, 0.5, 0.9),
                (64, 100, 512, 1024, 4096), (4, 10, 16)):
            col = collar_from_u(u, c)
            edges = make_grid(col, n_tau, p).panel_edges
            assert np.array_equal(np.unique(edges), edges)
            assert (edges[0], edges[-1]) == (col.tau_min, col.tau_max)


def test_make_grid_leaves_numpy_ma_unimported(fresh_python):
    proc = fresh_python("-c", "import sys; from collarlab import "
                        "collar_from_u, make_grid; "
                        "make_grid(collar_from_u(0.05), 1024); "
                        "print('numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_make_grid_rejects_coarse_grids():
    col = collar_from_u(0.1)
    with pytest.raises(ValueError):
        make_grid(col, 32)


def test_grid_covers_interval():
    # Gauss nodes live strictly inside (tau_min, tau_max)
    col = collar_from_u(0.05)
    grid = make_grid(col, 512)
    assert col.tau_min < grid.nodes[0] < grid.nodes[-1] < col.tau_max
    assert grid.nodes[0] - col.tau_min < 0.02 * col.u
    assert col.tau_max - grid.nodes[-1] < 0.02 * col.u
    assert np.all(np.diff(grid.nodes) > 0)


def test_quadrature_closed_forms():
    col = collar_from_u(0.1)
    grid = make_grid(col, 512)
    a, b = col.tau_min, col.tau_max
    # polynomial: panels of 10 Gauss nodes are exact far beyond degree 3
    assert grid.integrate(grid.nodes**3) == pytest.approx((b**4 - a**4) / 4,
                                                          rel=1e-13)
    closed = (b - a) / 2 - (math.sin(2 * b) - math.sin(2 * a)) / 4
    assert grid.integrate(grid.sin_tau**2) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("n_tau", [512, 1024])
def test_integrate_is_the_weights_dot_bitwise(n_tau):
    # complex profiles use a cached complex copy of the weights: the same
    # dot numpy makes when it casts the real weights itself
    grid = make_grid(collar_from_u(0.05), n_tau)
    rng = np.random.default_rng(n_tau)
    real = rng.normal(size=grid.n)
    prof = real + 1j * rng.normal(size=grid.n)
    for values in (real, prof, prof * grid.csc2, np.conj(prof)):
        got = grid.integrate(values)
        assert got == np.dot(grid.weights, values)
        assert type(got) is type(np.dot(grid.weights, values))


def test_dtau_accuracy_on_trig():
    col = collar_from_u(0.1)
    grid = make_grid(col, 1024)
    f = np.sin(3 * grid.nodes)
    d1 = grid.dtau(f)
    d2 = grid.dtau(f, 2)
    assert np.abs(d1 - 3 * np.cos(3 * grid.nodes)).max() < 1e-8
    assert np.abs(d2 + 9 * np.sin(3 * grid.nodes)).max() < 1e-6
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        grid.dtau(f, 3)
    # one sample per node: a longer, shorter or two-column profile is
    # rejected, not read in part
    for shape in ((grid.n + 1,), (grid.n - 1,), (grid.n, 2)):
        with pytest.raises(ValueError, match=rf"shape \({grid.n},\)"):
            grid.dtau(np.ones(shape))


@pytest.mark.parametrize("n_tau", [64, 100, 1024, 4096, 16384])
def test_dtau_windows_match_an_explicit_gather_bitwise(n_tau):
    # node i's stencil is its STENCIL consecutive nodes clipped to the
    # grid; dtau reads them as windows of the profile, with the bits of
    # the same einsum over the gathered (n, STENCIL) matrix
    rng = np.random.default_rng(n_tau)
    for u, nodes_per_panel in itertools.product((0.15, 0.05, 0.01),
                                                (9, 10, 20)):
        with cache_scope():  # keep the shared grid memo at its size
            grid = make_grid(collar_from_u(u), n_tau, nodes_per_panel)
            n = grid.n
            starts = np.clip(np.arange(n) - STENCIL // 2, 0, n - STENCIL)
            idx = starts[:, None] + np.arange(STENCIL)
            real = rng.normal(size=n)
            prof = real + 1j * rng.normal(size=n)
            strided = np.repeat(prof, 2)[::2]
            for v in (real, prof, strided, np.sin(grid.nodes) ** 2):
                for order, w in ((1, grid._stencils[0]),
                                 (2, grid._stencils[1])):
                    want = np.einsum("ij,ij->i", w, v[idx])
                    got = grid.dtau(v, order)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (u, order)


def test_dtau_polynomial_exactness():
    # 9-point stencils reproduce degree-8 polynomials up to roundoff
    col = collar_from_u(0.1)
    grid = make_grid(col, 256)
    f = grid.nodes**8
    scale = np.abs(f).max()
    assert np.abs(grid.dtau(f) - 8 * grid.nodes**7).max() < 1e-7 * scale
    assert np.abs(grid.dtau(f, 2) - 56 * grid.nodes**6).max() < 1e-4 * scale


def _manufactured_errors(profiles, grid) -> dict:
    """{name: (dtau, dtau order 2, integrate) errors} of the manufactured
    profiles on grid: relative sup errors of the derivatives, relative
    error of the integral."""
    sup = lambda got, want: np.abs(got - want).max() / np.abs(want).max()
    return {name: (sup(grid.dtau(f), f1), sup(grid.dtau(f, 2), f2),
                   abs(grid.integrate(f) - total) / total)
            for name, (f, f1, f2, total) in profiles.items()}


# Bounds on the errors above at every u of (0.1, 0.05, 0.025), per profile
# and (n_tau, nodes per panel): twice the largest error measured over the
# three u (one BLAS thread), rounded up.  The sin³ integral sits at
# round-off (at most 3.4e-16) and is bounded by 1e-15.  On the default
# grid sin³'s derivatives are near round-off too, and the taper's errors
# are set by the end panels, which n_tau does not refine; the coarse rung
# (n_tau 128, 180 nodes) is where sin³ measures the stencil's order: a
# 7-node stencil reads 2.7e-5 there, not 8.6e-7.
MANUFACTURED_BOUNDS = {
    # measured: 1.35e-12, 3.57e-10, 1.7e-16
    ("sin3", 1024, 10): (3e-12, 8e-10, 1e-15),
    # measured: 1.70e-12, 9.07e-10, 0
    ("sin3", 1024, 20): (3.5e-12, 2e-9, 1e-15),
    # measured: 8.56e-7, 1.27e-6, 3.4e-16
    ("sin3", 128, 10): (1.8e-6, 2.6e-6, 1e-15),
    # measured: 7.75e-3, 3.16e-2, 1.61e-8 (u = 0.1; 3.1e-9 at u = 0.025)
    ("taper", 1024, 10): (1.6e-2, 6.4e-2, 3.3e-8),
    # measured: 5.78e-4, 4.18e-3, 1.40e-10
    ("taper", 1024, 20): (1.2e-3, 8.4e-3, 2.8e-10),
    # measured: 7.75e-3, 3.16e-2, 1.31e-8
    ("taper", 128, 10): (1.6e-2, 6.4e-2, 2.7e-8),
}


@pytest.mark.parametrize("n_tau,nodes_per_panel", [(1024, 10), (1024, 20),
                                                   (128, 10)])
@pytest.mark.parametrize("u", [0.1, 0.05, 0.025])
def test_calculus_on_manufactured_profiles(u, n_tau, nodes_per_panel,
                                           manufactured):
    col = collar_from_u(u)
    grid = make_grid(col, n_tau, nodes_per_panel)
    errors = _manufactured_errors(manufactured(col, grid), grid)
    for name, errs in errors.items():
        bounds = MANUFACTURED_BOUNDS[(name, n_tau, nodes_per_panel)]
        assert all(e <= bound for e, bound in zip(errs, bounds)), (name, errs)


@pytest.mark.parametrize("u", [0.1, 0.05, 0.025])
def test_taper_second_derivative_converges_with_panel_nodes(u,
                                                            manufactured):
    # the taper's w'' is the least resolved: 3.16e-2 relative sup on the
    # default grid, 4.18e-3 at 20 nodes per panel (7.6 times smaller)
    col = collar_from_u(u)
    grids = (make_grid(col, 1024, m) for m in (10, 20))
    coarse, fine = (_manufactured_errors(manufactured(col, grid), grid)
                    ["taper"][1] for grid in grids)
    assert fine < coarse / 5


def test_grid_geometry_arrays():
    col = collar_from_u(0.1)
    grid = make_grid(col, 256)
    np.testing.assert_allclose(grid.r, col.r_of_tau(grid.nodes), rtol=1e-14)
    np.testing.assert_allclose(grid.sin_tau, np.sin(grid.nodes), rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(grid.csc2, 1.0 / grid.sin_tau**2, rtol=1e-14)
    np.testing.assert_allclose(grid.lam * grid.inv_lam, 1.0, rtol=1e-14)


def fornberg_scalar(x, x0, m):
    """Reference: the scalar Fornberg recursion on one stencil."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


@pytest.mark.parametrize("u", [0.1, 0.01])
def test_stencil_weights_match_scalar_recursion(u):
    # the vectorised recursion keeps every statement's order: equal bits
    x = make_grid(collar_from_u(u), 512).nodes
    starts = np.clip(np.arange(len(x)) - STENCIL // 2, 0, len(x) - STENCIL)
    got = stencil_weights(x, starts, STENCIL, x, 2)
    want = np.array([fornberg_scalar(x[s : s + STENCIL], x0, 2)
                     for s, x0 in zip(starts, x)])
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(2, STENCIL),
       gaps=st.lists(st.floats(0.1, 1.0), min_size=15, max_size=15),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=STENCIL,
                     max_size=STENCIL),
       frac=st.floats(0.0, 1.0))
def test_stencil_weights_exact_on_polynomials(width, gaps, coef, frac):
    # sorted non-uniform nodes; every stencil expanded inside its own span
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    starts = np.arange(len(x) - width + 1)
    x0 = x[starts] + frac * (x[starts + width - 1] - x[starts])
    p = np.polynomial.Polynomial(coef[:width])
    vals = p(x)[starts[:, None] + np.arange(width)]
    with strict_floats():
        c = stencil_weights(x, starts, width, x0, 2)
    for k in range(3):
        got = np.einsum("sj,sj->s", c[:, :, k], vals)
        scale = 1.0 + np.abs(c[:, :, k]).sum(axis=1) * np.abs(vals).max()
        assert np.all(np.abs(got - p.deriv(k)(x0)) <= 1e-10 * scale)


@pytest.mark.parametrize("u", [0.1, 0.05])
def test_d2_dirichlet_exact_on_vanishing_polynomials(u, clear_models):
    # p = (tau - tau_min)(tau_max - tau) q with deg p <= 8: the ghost
    # endpoints are exact zeros of p, so every stencil reproduces p''
    clear_models()  # a fresh grid, so D2 is built under strict_floats
    col = collar_from_u(u)
    grid = make_grid(col, 1024)
    rng = np.random.default_rng(7)
    a, b = col.tau_min, col.tau_max
    s = (2 * grid.nodes - a - b) / (b - a)   # maps (a, b) onto (-1, 1)
    with strict_floats():
        ab, (bl, bu) = grid.d2_banded_dirichlet()
        for deg_q in range(7):
            p = (np.polynomial.Polynomial([1.0, 0.0, -1.0])
                 * np.polynomial.Polynomial(rng.uniform(-1, 1, deg_q + 1)))
            v = p(s)
            d2 = np.zeros(grid.n)
            for d in range(-bl, bu + 1):   # ab[bu + i - j, j] = D2[i, j]
                j = np.arange(max(0, -d), grid.n - max(0, d))
                d2[j + d] += ab[bu + d, j] * v[j]
            want = p.deriv(2)(s) * (2 / (b - a)) ** 2
            assert np.abs(d2 - want).max() <= 1e-5 * np.abs(want).max()


def _d2_dirichlet_all_fornberg(grid):
    """The Dirichlet D2 band with every row's weights from its own Fornberg
    recursion on the nodes extended by both ends."""
    n = grid.n
    xe = np.concatenate(([grid.collar.tau_min], grid.nodes,
                         [grid.collar.tau_max]))
    bw = STENCIL - 1
    i = np.arange(n)
    starts = np.clip(i + 1 - STENCIL // 2, 0, n + 2 - STENCIL)
    c = stencil_weights(xe, starts, STENCIL, xe[i + 1], 2)[:, :, 2]
    j = starts[:, None] + np.arange(STENCIL) - 1
    keep = (j >= 0) & (j < n)
    ab = np.zeros((2 * bw + 1, n))
    ab[(bw + i[:, None] - j)[keep], j[keep]] = c[keep]
    return ab


@pytest.mark.parametrize("nodes_per_panel", [10, 20])
@pytest.mark.parametrize("n_tau", [512, 1024, 2048, 16384])
def test_d2_dirichlet_reuses_the_stencils_bitwise(n_tau, nodes_per_panel):
    for u in (0.15, 0.1, 0.05, 0.025, 0.012, 0.01):
        with cache_scope():  # keep the shared grid memo at its size
            grid = make_grid(collar_from_u(u), n_tau, nodes_per_panel)
            ab, (bl, bu) = grid.d2_banded_dirichlet()
            assert (bl, bu) == (STENCIL - 1, STENCIL - 1)
            assert ab.tobytes() == _d2_dirichlet_all_fornberg(grid).tobytes()
