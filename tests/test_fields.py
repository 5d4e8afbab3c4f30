"""Mode-wise fields: algebra, pairings, and Wirtinger derivatives."""

import math
import warnings

import numpy as np
import pytest

from collarlab import (BandwidthWarning, CollarField, UnderResolvedError,
                       collar_from_u, constant_field, integral_product,
                       make_grid, pairing_l2, volume_integral, wirtinger)

PI = math.pi


@pytest.fixture(scope="module")
def cg():
    col = collar_from_u(0.1)
    return col, make_grid(col, 512)


def test_volume_of_constant_is_collar_area(cg):
    col, grid = cg
    one = constant_field(col, grid)
    area = 2 * PI * col.u / math.tan(col.u * math.log(1.0 / col.c))
    assert volume_integral(one).real == pytest.approx(area, rel=1e-10)
    assert volume_integral(one).imag == pytest.approx(0.0, abs=1e-12)


def test_mode_accessors_and_linear_algebra(cg):
    col, grid = cg
    f = CollarField(col, grid, {1: np.cos(grid.nodes).astype(complex)})
    assert np.all(f.profile(7) == 0.0)  # absent modes read as zero
    g = f.copy().set_mode(0, np.ones(grid.n, dtype=complex))
    s = f + g
    np.testing.assert_allclose(s.profile(1), 2 * np.cos(grid.nodes))
    np.testing.assert_allclose((s - g).profile(1), np.cos(grid.nodes))
    np.testing.assert_allclose(f.scale(2j).profile(1),
                               2j * np.cos(grid.nodes))


def test_conj_flips_modes(cg):
    col, grid = cg
    prof = (np.cos(grid.nodes) + 1j * np.sin(grid.nodes)).astype(complex)
    f = CollarField(col, grid, {2: prof})
    fc = f.conj()
    assert set(fc.modes) == {-2}
    np.testing.assert_allclose(fc.profile(-2), np.conj(prof))
    # pointwise consistency with evaluation
    r = float(grid.r[grid.n // 2])
    assert fc.at(r, 0.7) == pytest.approx(np.conj(f.at(r, 0.7)), rel=1e-10)


def test_product_convolves_modes(cg):
    col, grid = cg
    a = np.cos(grid.nodes).astype(complex)
    b = np.sin(grid.nodes).astype(complex)
    f = CollarField(col, grid, {1: a})
    g = CollarField(col, grid, {2: b})
    h = f * g
    assert set(h.modes) == {3}
    np.testing.assert_allclose(h.profile(3), a * b)
    # modes 1 - 1 and -1 + 1 collide in mode 0, summed in iteration order
    c, d = a + 1j * b, b - 2j * a
    h = CollarField(col, grid, {1: a, -1: b}) * CollarField(col, grid,
                                                           {1: c, -1: d})
    assert set(h.modes) == {2, 0, -2}
    assert np.array_equal(h.profile(0), a * d + b * c)


def test_product_bandwidth_truncation(cg):
    col, grid = cg
    prof = np.ones(grid.n, dtype=complex)
    f = CollarField(col, grid, {20: prof})
    with pytest.warns(BandwidthWarning):
        h = f * f  # mode 40 exceeds the bandwidth
    assert h.truncated
    assert 40 not in h.modes


def test_pairing_is_mode_orthogonal(cg):
    col, grid = cg
    f = CollarField(col, grid, {1: np.cos(grid.nodes).astype(complex)})
    g = CollarField(col, grid, {2: np.cos(grid.nodes).astype(complex)})
    assert pairing_l2(f, g) == 0.0
    assert integral_product(f, g.conj().conj()) == 0.0


def test_integral_product_vs_pairing(cg):
    col, grid = cg
    rng = np.random.default_rng(5)
    modes_f = {n: rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
               for n in (-1, 0, 2)}
    modes_g = {n: rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
               for n in (0, 2, 3)}
    f = CollarField(col, grid, modes_f)
    g = CollarField(col, grid, modes_g)
    assert integral_product(f, g.conj()) == pytest.approx(pairing_l2(f, g),
                                                          rel=1e-14)


def mode_sum(f, g, partner):
    """pi u * sum_n of grid.integrate(F_n * partner(g, n) * csc^2)."""
    grid = f.grid
    acc = 0.0 + 0.0j
    for n, v in f.modes.items():
        w = partner(g, n)
        if w is not None:
            acc += grid.integrate(v * w * grid.csc2)
    return PI * f.collar.u * acc


def conj_same(g, n):
    w = g.modes.get(n)
    return None if w is None else np.conj(w)


def opposite(g, n):
    return g.modes.get(-n)


@pytest.mark.parametrize("modes_f, modes_g", [
    ((0,), (0,)), ((2,), (-2,)), ((1,), (3,)),
    ((-1, 0, 2), (0, 1, -2)), ((-1, 0, 1), (2, 3, -3)),
    ((-2, -1, 0, 1, 2), (-4, -1, 0, 2, 4)), ((0, 1, 2, 3, 4), (-4, 5, 6, 7, 8)),
])
def test_pairings_match_the_per_mode_integrals_bitwise(cg, modes_f, modes_g):
    col, grid = cg
    rng = np.random.default_rng([abs(n) for n in modes_f + modes_g])
    draw = lambda: rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    f = CollarField(col, grid, {n: draw() for n in modes_f})
    g = CollarField(col, grid, {n: draw() for n in modes_g})
    csc2 = grid._complex_csc2
    assert csc2.tobytes() == grid.csc2.astype(complex).tobytes()
    assert pairing_l2(f, g) == mode_sum(f, g, conj_same)
    assert integral_product(f, g) == mode_sum(f, g, opposite)
    want = (PI * col.u * grid.integrate(f.modes[0] * grid.csc2)
            if 0 in f.modes else 0.0)
    assert volume_integral(f) == want
    assert grid._complex_csc2 is csc2  # built once per grid


def test_volume_integral_quadrature(cg):
    col, grid = cg
    prof = np.sin(grid.nodes).astype(complex) ** 2
    f = CollarField(col, grid, {0: prof, 3: np.ones(grid.n, complex)})
    # only the zero mode carries volume; weight is pi u csc^2
    want = PI * col.u * grid.integrate(prof * grid.csc2)
    assert volume_integral(f) == pytest.approx(want, rel=1e-14)


def test_real_modes_are_cast_to_complex(cg):
    col, grid = cg
    prof = np.sin(grid.nodes) ** 2
    real = CollarField(col, grid, {0: prof, 2: prof})
    modes = {0: prof.astype(complex), 2: prof.astype(complex)}
    cast = CollarField(col, grid, modes)
    assert cast.modes is modes  # complex input is kept as passed
    assert all(v.dtype == np.complex128 for v in real.modes.values())
    for integral in (volume_integral, lambda f: pairing_l2(f, f)):
        got, want = np.asarray(integral(real)), np.asarray(integral(cast))
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


def test_wirtinger_on_coordinate_monomials(cg):
    col, grid = cg
    # f = z: mode 1 with profile r; dz f = 1, dzbar f = 0
    z = CollarField(col, grid, {1: grid.r.astype(complex)})
    dz = wirtinger(z, "dz")
    assert set(dz.modes) == {0}
    np.testing.assert_allclose(dz.profile(0).real, 1.0, atol=1e-9)
    np.testing.assert_allclose(dz.profile(0).imag, 0.0, atol=1e-12)
    dzb = wirtinger(z, "dzbar")
    assert dzb.sup_norm() < 1e-9


def test_wirtinger_on_log_r(cg):
    col, grid = cg
    # f = log r: dz f = 1/(2z), a mode -1 field with profile 1/(2r)
    f = CollarField(col, grid, {0: (grid.nodes / col.u).astype(complex)})
    dz = wirtinger(f, "dz")
    assert set(dz.modes) == {-1}
    np.testing.assert_allclose(dz.profile(-1), 0.5 / grid.r, rtol=1e-8)


def test_wirtinger_rejects_truncated_fields(cg):
    col, grid = cg
    f = CollarField(col, grid, {20: np.ones(grid.n, complex)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthWarning)
        h = f * f
    with pytest.raises(UnderResolvedError):
        wirtinger(h, "dz")
    # and a derivative it does not know, before any other check
    with pytest.raises(ValueError, match="which must be 'dz' or 'dzbar'"):
        wirtinger(f, "dx")


def test_at_interpolates_single_mode(cg):
    col, grid = cg
    f = CollarField(col, grid, {2: np.cos(grid.nodes).astype(complex)})
    tau = 0.5 * (col.tau_min + col.tau_max)
    r = float(col.r_of_tau(tau))
    theta = 0.3
    want = math.cos(tau) * np.exp(2j * theta)
    assert f.at(r, theta) == pytest.approx(want, rel=1e-9)


def test_mismatched_grids_rejected():
    col = collar_from_u(0.1)
    f = constant_field(col, make_grid(col, 512))
    g = constant_field(col, make_grid(col, 1024))
    with pytest.raises(ValueError):
        _ = f + g
    # the same node count on another collar: equal n, different nodes
    col2 = collar_from_u(0.05)
    g2 = constant_field(col2, make_grid(col2, 512))
    assert g2.grid.n == f.grid.n
    with pytest.raises(ValueError):
        _ = f + g2
