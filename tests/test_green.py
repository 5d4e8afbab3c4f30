"""Mode-wise (box + 1) solves: accuracy, spectral bounds, adjointness."""

import importlib.machinery
import itertools
import math
import os
import warnings

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import collarlab.green
from collarlab.collar import STENCIL
from collarlab.green import (_BW, _CORE, _N_END, _band_matvec, _box_band,
                             _mode_factor, _scaled_band)
from numpy.linalg import _umath_linalg

from collarlab import (CollarField, SolverConfig, SolverError, SupportWarning,
                       apply_box1, cache_scope, collar_from_u, constant_field,
                       make_grid, pairing_l2, relative_change, solve_T)
from collarlab.asymptotics import bc_sensitivity_check

PI = math.pi

QUIET = SolverConfig(warn_support=False)


@pytest.fixture(scope="module")
def cg():
    col = collar_from_u(0.05)
    return col, make_grid(col, 1024)


def compact_window(col, grid):
    a, b = col.tau_min, col.tau_max
    lo, hi = a + 0.15 * (b - a), b - 0.15 * (b - a)
    x = np.clip((grid.nodes - lo) / (hi - lo), 0.0, 1.0)
    return np.where((x > 0) & (x < 1), np.sin(PI * x) ** 4, 0.0)


def random_compact(col, grid, rng, n_extra=2):
    window = compact_window(col, grid)
    x = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
    modes = {0: (window * (rng.standard_normal() * np.cos(
        rng.uniform(1, 4) * PI * x) + rng.standard_normal())).astype(complex)}
    for _ in range(n_extra):
        n = int(rng.integers(1, 5))
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / 2
        prof = window * np.cos(rng.uniform(1, 3) * PI * x + rng.uniform(0, PI))
        modes[n] = modes.get(n, 0) + z * prof
        modes[-n] = modes.get(-n, 0) + np.conj(z) * prof
    return CollarField(col, grid, modes)


def test_manufactured_solution(cg):
    col, grid = cg
    a, b = col.tau_min, col.tau_max
    x = (grid.nodes - a) / (b - a)
    F = CollarField(col, grid, {3: (np.sin(PI * x) ** 3).astype(complex)})
    back = solve_T(apply_box1(F), QUIET)
    assert (back - F).sup_norm() <= 1e-10 * F.sup_norm()


def manufactured_solve_error(col, grid, profile, n_mode):
    """Relative sup error of solve_T against a continuum solution F, from
    the right-hand side -(sin^2 tau / 2)(F'' - (n/u)^2 F) + F built with
    the exact F''; profile is (F, F', F'', integral of F)."""
    f, _, f2, _ = profile
    rhs = -0.5 * grid.sin_tau**2 * (f2 - (n_mode / col.u) ** 2 * f) + f
    g = solve_T(CollarField(col, grid, {n_mode: rhs + 0j}), QUIET)
    return np.abs(g.modes[n_mode] - f).max() / np.abs(f).max()


# Bounds on the error above at every u of (0.1, 0.05, 0.025), per profile,
# (n_tau, nodes per panel) and mode: twice the largest error measured over
# the three u, rounded up.  sin³ is at round-off on the default grid and
# sees the stencil's order only on the coarse rung (n_tau 128, 180 nodes);
# the taper's error is set by the end panels, which n_tau does not refine
# (n_tau 128 and 1024 give the same 8.4e-3), and falls with the nodes per
# panel.
SOLVE_BOUNDS = {
    # measured: 5.79e-12, 8.23e-14
    ("sin3", 1024, 10): {0: 1.2e-11, 3: 1.7e-13},
    # measured: 5.21e-12, 9.28e-14
    ("sin3", 1024, 20): {0: 1.1e-11, 3: 1.9e-13},
    # measured: 2.37e-7, 3.86e-9 (u = 0.1; 2.7e-10 at u = 0.025)
    ("sin3", 128, 10): {0: 4.8e-7, 3: 7.8e-9},
    # measured: 8.46e-3, 5.08e-3
    ("taper", 1024, 10): {0: 1.7e-2, 3: 1.1e-2},
    # measured: 1.82e-4, 1.13e-4
    ("taper", 1024, 20): {0: 3.7e-4, 3: 2.3e-4},
    # measured: 8.36e-3, 5.04e-3
    ("taper", 128, 10): {0: 1.7e-2, 3: 1.1e-2},
}


@pytest.mark.parametrize("n_tau,nodes_per_panel", [(1024, 10), (1024, 20),
                                                   (128, 10)])
@pytest.mark.parametrize("u", [0.1, 0.05, 0.025])
def test_solve_on_manufactured_profiles(u, n_tau, nodes_per_panel,
                                        manufactured):
    col = collar_from_u(u)
    grid = make_grid(col, n_tau, nodes_per_panel)
    for name, profile in manufactured(col, grid).items():
        bounds = SOLVE_BOUNDS[(name, n_tau, nodes_per_panel)]
        for n_mode, bound in bounds.items():
            err = manufactured_solve_error(col, grid, profile, n_mode)
            assert err <= bound, (name, n_mode, err)


@pytest.mark.parametrize("u", [0.1, 0.05, 0.025])
def test_taper_solve_converges_with_panel_nodes(u, manufactured):
    # 8.4e-3 (n = 0) and 5.0e-3 (n = 3) on the default grid, 1.8e-4 and
    # 1.1e-4 at 20 nodes per panel: 46 times smaller
    col = collar_from_u(u)
    grids = [make_grid(col, 1024, m) for m in (10, 20)]
    for n_mode in (0, 3):
        coarse, fine = (manufactured_solve_error(
            col, grid, manufactured(col, grid)["taper"], n_mode)
            for grid in grids)
        assert fine < coarse / 10, (n_mode, coarse, fine)


def test_solve_then_apply_roundtrip(cg):
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(0))
    g = solve_T(f, QUIET)
    assert (apply_box1(g) - f).sup_norm() <= 1e-9 * f.sup_norm()


def test_residual_is_recorded_and_small(cg):
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(1))
    g = solve_T(f, QUIET)
    assert 0.0 < g.residual_sup <= 1e-6 * f.sup_norm()


def test_solver_error_on_unreachable_rtol(cg, monkeypatch):
    # a finite solution a relative 1e-3 off at one node has a finite
    # residual far above the 1e-6 ceiling
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(2))
    real_zgbtrs = collarlab.green.zgbtrs

    def perturbed(*args, **kwargs):
        sol, info = real_zgbtrs(*args, **kwargs)
        sol[grid.n // 2] *= 1 + 1e-3
        return sol, info

    monkeypatch.setattr(collarlab.green, "zgbtrs", perturbed)
    with pytest.raises(SolverError, match=r"exceeds rtol 1\.0e-06$"):
        solve_T(f, QUIET)


def test_spectral_inequalities_on_seeded_fields(cg):
    col, grid = cg
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_compact(col, grid, rng)
        g = solve_T(f, QUIET)
        cross = pairing_l2(g, f).real
        assert cross - pairing_l2(g, g).real >= -1e-10
        assert pairing_l2(f, f).real - cross >= -1e-10


def test_self_adjointness_pairs(cg):
    col, grid = cg
    rng = np.random.default_rng(8)
    for _ in range(10):
        f1 = random_compact(col, grid, rng)
        f2 = random_compact(col, grid, rng)
        lhs = pairing_l2(solve_T(f1, QUIET), f2)
        rhs = pairing_l2(f1, solve_T(f2, QUIET))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_positivity_and_sup_contraction(cg):
    col, grid = cg
    pos = CollarField(col, grid, {0: (np.sin(grid.nodes) ** 4 + 0j)})
    g = solve_T(pos, QUIET)
    assert g.profile(0).real.min() >= -1e-12
    assert g.sup_norm() <= pos.sup_norm()


def test_dirichlet_walls(cg):
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(4))
    g = solve_T(f, QUIET)
    scale = g.sup_norm()
    for n in g.modes:
        prof = g.profile(n)
        # walls carry the taper of the cutoff construction: tiny, not free
        assert abs(prof[0]) < 1e-6 * scale
        assert abs(prof[-1]) < 1e-6 * scale


def test_support_warning_and_suppression(cg):
    col, grid = cg
    full = constant_field(col, grid)
    with pytest.warns(SupportWarning):
        solve_T(full)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_T(full, QUIET)  # must not warn


def test_compact_input_does_not_warn(cg):
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_T(f)


def test_bc_sensitivity_helpers():
    assert relative_change(1.0 + 0j, 1.0 + 0j) == 0.0
    assert relative_change(2.0 + 0j, 1.0 + 0j) == pytest.approx(0.5)
    assert relative_change(0.0, 0.0) == 0.0
    val = bc_sensitivity_check(0.05, n_tau=512)
    assert 0.0 < val < 5e-2


# -- factor once per (grid, |mode|) ----------------------------------------

def oracle_solve(f):
    """The unfactored path: solve_banded per call, scalar diagonal matvec."""
    grid = f.grid
    ab_d2, (bl, bu) = grid.d2_banded_dirichlet()
    s = 0.5 * grid.sin_tau**2
    n = grid.n
    out, res_sup, f_sup = {}, 0.0, 0.0
    for n_mode, rhs in f.modes.items():
        ab = np.zeros_like(ab_d2)
        for d in range(-bl, bu + 1):
            j = np.arange(max(0, -d), n - max(0, d))
            ab[bu + d, j] = -s[j + d] * ab_d2[bu + d, j]
        ab[bu, :] += (n_mode / grid.collar.u) ** 2 * s + 1.0
        sol = solve_banded((bl, bu), ab, rhs)
        y = np.zeros_like(sol)
        for d in range(-bl, bu + 1):
            j = np.arange(max(0, -d), n - max(0, d))
            y[j + d] += ab[bu + d, j] * sol[j]
        out[n_mode] = sol
        res_sup = max(res_sup, float(np.abs(y - rhs).max()))
        f_sup = max(f_sup, float(np.abs(rhs).max()))
    return out, res_sup / f_sup


def count_calls(monkeypatch, name):
    """A list that grows by one at every call solve_T makes to green.<name>."""
    calls = []
    real = getattr(collarlab.green, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(collarlab.green, name, counting)
    return calls


@pytest.fixture
def zgbtrf_calls(monkeypatch):
    return count_calls(monkeypatch, "zgbtrf")


@pytest.fixture
def zgbtrs_calls(monkeypatch):
    return count_calls(monkeypatch, "zgbtrs")


def flip_zero_signs(z):
    """z with the sign bit of every zero real or imaginary part flipped."""
    out = z.copy()
    for part in (out.real, out.imag):
        part[part == 0] *= -1
    return out


@pytest.mark.parametrize("u", [0.1, 0.03, 0.012, 0.01])
def test_factored_solve_matches_unfactored_bitwise(u, clear_models,
                                                   zgbtrs_calls):
    clear_models()
    col = collar_from_u(u)
    grid = make_grid(col, 1024)
    rng = np.random.default_rng(11)
    window = compact_window(col, grid)
    modes = {n: window * (rng.standard_normal(grid.n)
                          + 1j * rng.standard_normal(grid.n))
             for n in (0, 1, -1, 4, -4, 24, -24)}
    # real fields, f_-n = conj f_n, with n before -n and -n before n
    real = {0: window * rng.standard_normal(grid.n) + 0j}
    for n in (1, 4, 24):
        real[n], real[-n] = modes[n], np.conj(modes[n])
    swapped = {n: real[n] for n in (0, -1, 1, -4, 4, -24, 24)}
    # one broken pair is solved mode by mode; the other pairs still share
    mixed = real | {-4: real[-4] * (1 + 1e-12)}
    a = modes[1]
    signed_zeros = flip_zero_signs(np.conj(a))
    assert np.array_equal(signed_zeros, np.conj(a))
    assert signed_zeros.tobytes() != np.conj(a).tobytes()
    broken = np.conj(a)
    j = grid.n // 2  # inside the window's support
    broken[j] = complex(np.nextafter(broken[j].real, np.inf), broken[j].imag)
    # below 2**-900, solved at unit scale; the oracle's values stay normal
    tiny = a * 2.0**-902
    # (field, zgbtrs calls per solve): a twin that equals the conjugate by
    # value takes the shortcut, one ulp off it is solved directly
    cases = [(modes, 7), (real, 4), (swapped, 4), (mixed, 5),
             ({1: a, -1: signed_zeros}, 1), ({1: a, -1: broken}, 2),
             ({-1: tiny, 1: np.conj(tiny)}, 1)]
    for case, solves in cases:
        f = CollarField(col, grid, case)
        want, want_res = oracle_solve(f)
        for _ in range(2):  # the first call factors, the second reuses
            zgbtrs_calls.clear()
            g = solve_T(f, QUIET)
            assert len(zgbtrs_calls) == solves
            assert list(g.modes) == list(want)
            for n, sol in want.items():
                assert np.array_equal(g.modes[n], sol)
            assert g.residual_sup == want_res


def test_each_grid_mode_is_factored_once(zgbtrf_calls, clear_models):
    clear_models()
    col = collar_from_u(0.05)
    grid = make_grid(col, 512)
    window = compact_window(col, grid) + 0j
    # the mode-n matrix depends on n^2 only: modes 3 and -3 share a factor
    solve_T(CollarField(col, grid, {0: window, 3: window, -3: window}), QUIET)
    assert len(zgbtrf_calls) == 2
    solve_T(CollarField(col, grid, {0: window, 3: window, -3: window}), QUIET)
    assert len(zgbtrf_calls) == 2
    solve_T(CollarField(col, grid, {3: 2 * window, 5: window}), QUIET)
    assert len(zgbtrf_calls) == 3
    assert _mode_factor(grid, -3) is _mode_factor(grid, 3)


def test_import_leaves_scipy_linalg_unimported(fresh_python):
    # this test process imports scipy.linalg itself, so ask a fresh one
    proc = fresh_python(
        "-c", "import sys, collarlab; print('scipy.linalg' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def full_box_band(grid):
    """The box band -(sin^2 tau / 2) D2 in full (2 _BW + 1, n) storage,
    ab[_BW + i - j, j] = M[i, j], built from d2_banded_dirichlet() entry by
    entry: -0.0 where D2 is 0 inside the matrix, 0.0 in the corners."""
    ab_d2, _ = grid.d2_banded_dirichlet()
    n = grid.n
    s = 0.5 * grid.sin_tau**2
    rows = np.arange(2 * _BW + 1)[:, None]
    i = np.arange(n) + rows - _BW  # row of each entry
    return np.where((i >= 0) & (i < n), -s[np.clip(i, 0, n - 1)] * ab_d2, 0.0)


def mode_band(grid, n_mode):
    """The mode-n (box + 1) band in zgbtrf's layout: _BW workspace rows,
    then ab[_BW + i - j, j] = M[i, j], from the full box band."""
    band = full_box_band(grid)
    s = 0.5 * grid.sin_tau**2
    ab = np.zeros((3 * _BW + 1, grid.n), dtype=complex)
    ab[_BW:] = band
    ab[2 * _BW] = band[_BW] + ((n_mode / grid.collar.u) ** 2 * s + 1.0)
    return ab


# the zgbtrf symbol of the fallback, scipy's compiled _flapack
FLAPACK_SOURCE = "scipy.linalg._flapack (zgbtrf)"


def test_loaded_lapack_matches_scipy_linalg():
    # pivots are compared 0-based, as scipy.linalg.lapack returns them;
    # numpy's LAPACK returns LAPACK's own 1-based ones
    base = 0 if collarlab.green.LAPACK_SOURCE == FLAPACK_SOURCE else 1
    with cache_scope():
        for u, n_tau in itertools.product((0.1, 0.05, 0.012),
                                          (512, 1024, 4096)):
            col = collar_from_u(u)
            grid = make_grid(col, n_tau)
            rhs = compact_window(col, grid) * (1 + 2j)
            for n_mode in (0, 3, 24):
                ab = mode_band(grid, n_mode)
                kept = ab.copy()
                got, want = [], []
                for lapack, out in ((collarlab.green, got),
                                    (scipy.linalg.lapack, want)):
                    lu, piv, info = lapack.zgbtrf(ab, _BW, _BW, overwrite_ab=0)
                    assert info == 0
                    # from the complex factor, and from lu.real as cached
                    sols = [lapack.zgbtrs(a, _BW, _BW, rhs, piv)
                            for a in (lu, np.array(lu.real, order="F"))]
                    assert [info for _, info in sols] == [0, 0]
                    out += [lu, piv, *(sol for sol, _ in sols)]
                # the cached factor, zgbtrf'd from _scaled_band's full
                # storage with the mode's diagonal, is this one, bitwise
                lu, piv, _, _ = _mode_factor(grid, n_mode)
                assert lu.tobytes() == np.array(got[0].real,
                                                order="F").tobytes()
                assert piv.tobytes() == got[1].tobytes()
                got[1] = got[1] - base
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (u, n_tau, n_mode)
                assert np.array_equal(ab, kept)  # overwrite_ab=0 copies


@pytest.mark.parametrize("call", [
    "trf-rows", "trs-rows", "trs-b-shape", "trs-piv-shape", "trs-piv-dtype"])
def test_binding_rejects_wrong_shapes(cg, call):
    # ctypes passes bare addresses: without these checks a wrong shape is an
    # out-of-bounds LAPACK read or write; _flapack's wrappers check their own
    if collarlab.green.LAPACK_SOURCE == FLAPACK_SOURCE:
        pytest.skip("f2py checks the fallback's shapes")
    col, grid = cg
    ab = mode_band(grid, 3)
    lu, piv, info = collarlab.green.zgbtrf(ab, _BW, _BW)
    assert info == 0
    b = compact_window(col, grid).astype(complex)
    args = {"trf-rows": (ab[1:], _BW, _BW),
            "trs-rows": (lu[1:], _BW, _BW, b, piv),
            "trs-b-shape": (lu, _BW, _BW, np.r_[b, 0.0], piv),
            "trs-piv-shape": (lu, _BW, _BW, b, np.r_[piv, 1]),
            # the right pivots in another integer type
            "trs-piv-dtype": (lu, _BW, _BW, b, piv.astype(np.uint64))}[call]
    bind = "zgbtrf" if call == "trf-rows" else "zgbtrs"
    with pytest.raises(ValueError):
        getattr(collarlab.green, bind)(*args)


@pytest.mark.parametrize("absent", ["symbols", "ilp64"])
def test_flapack_fallback_solves_the_same_bytes(monkeypatch, absent,
                                                clear_models):
    # numpy's LAPACK without the ILP64 names, or not ILP64 at all: scipy's
    # _flapack is loaded, and its solve gives the default path's bytes
    if absent == "symbols":
        monkeypatch.setattr(collarlab.green, "_NUMPY_SYMBOLS",
                            (("no_zgbtrf_64_", "no_zgbtrs_64_"),))
    else:
        monkeypatch.setattr(collarlab.green.lapack_lite, "_ilp64", False)
    trf, trs, source = collarlab.green._load_lapack()
    assert source == FLAPACK_SOURCE
    col = collar_from_u(0.05)
    clear_models()
    grid = make_grid(col, 512)
    f = random_compact(col, grid, np.random.default_rng(12))
    want = solve_T(f, QUIET)
    # the cached factors keep their path's pivots: the fallback factors
    # afresh on a new grid, dropped at the scope's end
    clear_models()
    monkeypatch.setattr(collarlab.green, "zgbtrf", trf)
    monkeypatch.setattr(collarlab.green, "zgbtrs", trs)
    with cache_scope():
        fresh = make_grid(col, 512)
        assert fresh is not grid
        got = solve_T(CollarField(col, fresh, f.modes), QUIET)
    assert list(got.modes) == list(want.modes)
    for n, sol in want.modes.items():
        assert got.modes[n].tobytes() == sol.tobytes()
    assert got.residual_sup == want.residual_sup


def test_missing_lapack_raises(monkeypatch):
    find_spec = importlib.machinery.PathFinder.find_spec
    searched = []

    def no_flapack(name, path=None, target=None):
        if name.endswith("_flapack"):
            searched.extend(path)
            return None
        return find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_flapack)
    symbols = (("no_zgbtrf_64_", "no_zgbtrs_64_"), ("nor_zgbtrf_", "nor_zgbtrs_"))
    monkeypatch.setattr(collarlab.green, "_NUMPY_SYMBOLS", symbols)
    with pytest.raises(ImportError, match="zgbtrf and zgbtrs") as err:
        collarlab.green._load_lapack()
    message = str(err.value)
    assert all(name in message for name in itertools.chain(*symbols))
    assert _umath_linalg.__file__ in message
    assert "_flapack" in message
    assert searched and all(d in message for d in searched)
    # where numpy's LAPACK is not ILP64, no symbol is looked up there
    monkeypatch.setattr(collarlab.green.lapack_lite, "_ilp64", False)
    with pytest.raises(ImportError, match="no ILP64 LAPACK") as err:
        collarlab.green._load_lapack()
    assert _umath_linalg.__file__ in str(err.value)
    assert not any(name in str(err.value) for name in itertools.chain(*symbols))


# Imports collarlab, solves once and prints every file the process maps.
MAPS_PROBE = """
import collarlab
import numpy as np
col = collarlab.collar_from_u(0.05)
grid = collarlab.make_grid(col, 512)
f = collarlab.CollarField(col, grid, {0: np.sin(grid.nodes) ** 4 + 0j})
collarlab.solve_T(f, collarlab.SolverConfig(warn_support=False))
with open("/proc/self/maps") as maps:
    print("\\n".join(sorted({line.split(None, 5)[5].strip() for line in maps
                             if len(line.split(None, 5)) == 6})))
"""


def test_solve_maps_no_scipy_library(fresh_python):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    if collarlab.green.LAPACK_SOURCE == FLAPACK_SOURCE:
        pytest.skip("numpy's LAPACK exports no ILP64 zgbtrf: scipy's is used")
    proc = fresh_python("-c", MAPS_PROBE)
    assert proc.returncode == 0, proc.stderr
    mapped = proc.stdout.splitlines()
    assert any(_umath_linalg.__file__ == path for path in mapped)
    # scipy's package and the libraries its wheel bundles beside it
    root = os.path.realpath(os.path.dirname(scipy.__file__))
    under = (root + os.sep, root + ".libs" + os.sep)
    assert not [p for p in mapped if os.path.realpath(p).startswith(under)]


def dense_band(band, diag, bu):
    """The dense matrix of banded storage ab[bu + i - j, j] = A[i, j]."""
    rows, n = band.shape
    a = np.zeros((n, n))
    for r in range(rows):
        j = np.arange(max(0, bu - r), min(n, n + bu - r))
        a[j + r - bu, j] = diag[j] if r == bu else band[r, j]
    return a


def assert_band_layout(grid):
    """Every nonzero of the Dirichlet D2 outside the core diagonals reaches
    one of the first or last _N_END outputs, and every other entry there is
    +0.0; the box band keeps the core rows of its full storage, and its
    end block every entry that reaches an end output."""
    n = grid.n
    ends = np.r_[:_N_END, n - _N_END : n]
    ab_d2, _ = grid.d2_banded_dirichlet()
    assert ab_d2.shape == (2 * _BW + 1, n)
    r, j = np.nonzero(ab_d2)
    outside = (r < _CORE.start) | (r >= _CORE.stop)
    assert np.isin(j[outside] + r[outside] - _BW, ends).all()
    rows, cols = np.indices(ab_d2.shape)
    in_core = (rows >= _CORE.start) & (rows < _CORE.stop)
    at_ends = np.isin(cols + rows - _BW, ends)
    assert not ab_d2[~in_core & ~at_ends].view(np.uint64).any()  # +0.0 bits
    band = _box_band(grid)
    assert band.core.shape == (STENCIL, n)
    assert np.array_equal(band.ends, ends)
    full = full_box_band(grid)
    assert band.core.tobytes() == full[_CORE].tobytes()
    # the end block: each end output's entry in every row, 0 outside the
    # matrix
    cols = ends + _BW - np.arange(2 * _BW + 1)[:, None]
    inside = (cols >= 0) & (cols < n)
    assert np.array_equal(band.end_cols, np.clip(cols, 0, n - 1))
    r, e = np.nonzero(inside)
    assert band.end_ab[r, e].tobytes() == full[r, cols[r, e]].tobytes()
    assert not band.end_ab[~inside].view(np.uint64).any()
    # the full storage zgbtrf factors, built diagonal by diagonal, is the
    # entry-by-entry one bit for bit
    assert _scaled_band(grid).tobytes() == full.tobytes()
    return band


@pytest.mark.parametrize("n_tau", [512, 16384])
@pytest.mark.parametrize("u", [0.15, 0.01])
def test_band_layout_holds_on_wide_and_fine_grids(n_tau, u):
    assert_band_layout(make_grid(collar_from_u(u), n_tau))


@pytest.mark.parametrize("n_tau", [512, 1024, 2048])
@pytest.mark.parametrize("u", [0.1, 0.012, 0.01])
def test_band_matvec_sums_diagonal_by_diagonal(n_tau, u):
    col = collar_from_u(u)
    grid = make_grid(col, n_tau)
    band = assert_band_layout(grid)
    ab, bl, bu = full_box_band(grid), _BW, _BW
    rng = np.random.default_rng(n_tau)
    x = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    # supported on the first and last 12 nodes: the end outputs carry it
    at_ends = np.where(np.isin(np.arange(grid.n), np.r_[:12, -12:0]), x, 0)
    for n_mode in (0, 4, 24):
        _, _, diag, end_ab = _mode_factor(grid, n_mode)
        for v in (x, at_ends):
            got = _band_matvec(band, diag, end_ab, v)
            # diagonal r of the storage adds its products to y[j + r - bu]
            acc = np.zeros(grid.n + bl + bu, dtype=complex)
            for r in range(bl + bu + 1):
                acc[r : r + grid.n] += (diag if r == bu else ab[r]) * v
            assert np.array_equal(got, acc[bu : bu + grid.n])
            want = dense_band(ab, diag, bu) @ v
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the band is real: conj(x) maps to conj(A x), sign bits included
        got_conj = _band_matvec(band, diag, end_ab, np.conj(x))
        assert got_conj.tobytes() == np.conj(
            _band_matvec(band, diag, end_ab, x)).tobytes()


def test_singular_factor_raises(monkeypatch, clear_models):
    real_zgbtrf = collarlab.green.zgbtrf

    def singular(*args, **kwargs):
        lu, piv, _ = real_zgbtrf(*args, **kwargs)
        return lu, piv, 1

    monkeypatch.setattr(collarlab.green, "zgbtrf", singular)
    clear_models()
    col = collar_from_u(0.05)
    grid = make_grid(col, 512)
    f = CollarField(col, grid, {0: compact_window(col, grid) + 0j})
    with pytest.raises(np.linalg.LinAlgError):
        solve_T(f, QUIET)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(cg, bad, zgbtrf_calls, clear_models):
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(6))
    last = list(f.modes)[-1]
    f.modes[last] = f.modes[last].copy()
    f.modes[last][grid.n // 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_T(f, QUIET)
    # on a fresh grid, a bad last mode is found before any mode is factored,
    # and before the support test of an input that would fail it; here the
    # bad mode is the second member of a real pair, so the twin test meets
    # it first and must not take it for its partner's conjugate
    clear_models()
    grid = make_grid(col, 512)
    full = np.full(grid.n, 1 + 1j)
    f = CollarField(col, grid, {0: full, 2: full, -2: np.conj(full)})
    f.modes[-2][grid.n // 2] = bad
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_T(f)
    assert zgbtrf_calls == []
    assert not [w for w in seen if issubclass(w.category, SupportWarning)]


def test_overflowing_residual_fails_the_gate(cg, zgbtrs_calls):
    # finite input whose residual overflows to NaN must not pass as 0
    col, grid = cg
    big = 1e305 * compact_window(col, grid) + 0j
    f = CollarField(col, grid, {0: big})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="nan"):
            solve_T(f, QUIET)
    # a real pair is solved once, and its NaN residual still reaches the gate
    zgbtrs_calls.clear()
    f = CollarField(col, grid, {1: big, -1: big.copy()})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="nan"):
            solve_T(f, QUIET)
    assert len(zgbtrs_calls) == 1


@pytest.mark.parametrize("node, bad, message", [
    ("interior", np.inf, "inf"), ("interior", np.nan, "nan"),
    ("end", np.inf, "nan"), ("end", np.nan, "nan")])
def test_non_finite_solution_fails_the_gate(cg, monkeypatch, node, bad,
                                            message):
    # the residual skips the band's zero rows at interior outputs, so an
    # inf there meets no 0 * inf = NaN and the residual reads inf; at an
    # end output every row is summed.  Either way the gate must fire
    col, grid = cg
    j = grid.n // 2 if node == "interior" else 0
    real_zgbtrs = collarlab.green.zgbtrs

    def poisoned(*args, **kwargs):
        sol, info = real_zgbtrs(*args, **kwargs)
        sol[j] = bad
        return sol, info

    monkeypatch.setattr(collarlab.green, "zgbtrs", poisoned)
    f = CollarField(col, grid, {0: compact_window(col, grid) + 0j})
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match=f"residual {message} "):
            solve_T(f, QUIET)


def test_overflowing_modulus_fails_the_gate(cg):
    # finite input whose modulus |f| overflows to inf is not NaN or inf
    # input: it goes through to the solve and the residual gate
    col, grid = cg
    big = (1.5e308 + 1.5e308j) * compact_window(col, grid)
    assert np.isfinite(big).all() and not np.isfinite(np.abs(big).max())
    f = CollarField(col, grid, {0: big})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="nan"):
            solve_T(f, QUIET)


@pytest.mark.parametrize("k, ulps", [(-950, 0), (-1060, 2)],
                         ids=["tiny", "subnormal"])
def test_small_right_hand_sides_solve_at_unit_scale(cg, k, ulps):
    # f * 2**k solves to (T f) * 2**k: exactly while the values stay normal,
    # and within rounding of the input once they are subnormal
    col, grid = cg
    f = random_compact(col, grid, np.random.default_rng(4))
    half = 2.0 ** (k // 2)
    small = CollarField(col, grid, {n: v * half * half
                                    for n, v in f.modes.items()})
    g, g_small = solve_T(f, QUIET), solve_T(small, QUIET)
    assert g_small.residual_sup <= 1e-6
    for n, v in g.modes.items():
        want = v * half * half
        assert np.abs(g_small.modes[n] - want).max() <= ulps * 2.0**-1074


# -- spectral properties on random compactly supported fields --------------

terms = st.dictionaries(
    st.integers(-4, 4),
    st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2 * PI),
              st.floats(1.0, 4.0), st.floats(0.0, PI)),
    min_size=1, max_size=4)


def field_from_terms(col, grid, spec):
    """Mode n carries z window(tau) cos(k pi x + phase), |z| in [0.1, 1]."""
    window = compact_window(col, grid)
    x = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
    return CollarField(col, grid, {
        n: r * np.exp(1j * arg) * window * np.cos(k * PI * x + phase)
        for n, (r, arg, k, phase) in spec.items()})


@settings(max_examples=25, deadline=None)
@given(spec1=terms, spec2=terms)
def test_property_self_adjoint(cg, spec1, spec2):
    col, grid = cg
    f1, f2 = field_from_terms(col, grid, spec1), field_from_terms(col, grid, spec2)
    lhs = pairing_l2(solve_T(f1, QUIET), f2)
    rhs = pairing_l2(f1, solve_T(f2, QUIET))
    # relative to the Cauchy-Schwarz bound |<f1, f2>| <= |f1| |f2|
    scale = math.sqrt(pairing_l2(f1, f1).real * pairing_l2(f2, f2).real)
    assert abs(lhs - rhs) <= 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(spec=terms)
def test_property_positive(cg, spec):
    col, grid = cg
    f = field_from_terms(col, grid, spec)
    assert pairing_l2(solve_T(f, QUIET), f).real > 0.0


@settings(max_examples=25, deadline=None)
@given(spec=terms)
def test_property_spectral_bounds(cg, spec):
    col, grid = cg
    f = field_from_terms(col, grid, spec)
    g = solve_T(f, QUIET)
    ff, gf, gg = (pairing_l2(f, f).real, pairing_l2(g, f).real,
                  pairing_l2(g, g).real)
    assert ff - gf >= -1e-10 * ff
    assert gf - gg >= -1e-10 * ff


# Imports collarlab before numpy, as a fresh `collarlab run` does, solves on
# an n_tau 16384 grid and integrates there, where a threaded zdotu would
# split its sum; prints OPENBLAS_NUM_THREADS, the process's task count (-1
# without /proc) and the integral's bytes.
BLAS_PROBE = """
import os
from collarlab import (CollarField, SolverConfig, collar_from_u, make_grid,
                       solve_T)
import numpy as np
col = collar_from_u(0.05)
grid = make_grid(col, 16384)
x = (grid.nodes - col.tau_min) / (col.tau_max - col.tau_min)
f = CollarField(col, grid, {3: (np.sin(np.pi * x) ** 3).astype(complex)})
g = solve_T(f, SolverConfig(warn_support=False))
total = grid.integrate(g.modes[3] * np.exp(7j * x))
task = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"),
      len(os.listdir(task)) if os.path.isdir(task) else -1,
      np.complex128(total).tobytes().hex())
"""


def _blas_probe(fresh_python):
    proc = fresh_python("-c", BLAS_PROBE)
    assert proc.returncode == 0, proc.stderr
    threads, tasks, total = proc.stdout.split()
    return threads, int(tasks), total


def test_import_runs_one_blas_thread_by_default(fresh_python, monkeypatch):
    # this test process has imported collarlab, which set the variable
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    threads, tasks, total = _blas_probe(fresh_python)
    assert threads == "1"
    # no OpenBLAS worker besides the main thread (three with the pools)
    assert tasks in (-1, 1)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _blas_probe(fresh_python)[2] == total


def test_import_keeps_the_callers_blas_threads(fresh_python, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    proc = fresh_python("-c", "import os, collarlab; "
                        "print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
