"""Cutoffs, approximants, power-law fits, and comparison metrics."""

import ast
import math
import pathlib

import numpy as np
import pytest

import collarlab
from collarlab import (CollarSystem, CurvatureWorkspace, CutoffSpec,
                       DegenerateFitError, apply_box1, approximant_errors,
                       beltrami_field, build_approximants, collar_from_u,
                       cutoff_eval, diagonal_family, equivalence_ratios,
                       fit_power_law, g2_spotcheck, geodesic_length,
                       make_grid, perturbed_prediction, target, target_table,
                       xi)
from collarlab.asymptotics import (bc_sensitivity_check, length_derivative_check,
                                   length_derivative_fd, zero_coupling_residual)
from collarlab.collar import _smoothstep, taper_weights

PI = math.pi


def _imported_names(node):
    """Module names an import statement reads, relative ones without dots."""
    if isinstance(node, ast.ImportFrom):
        return {node.module} | {a.name for a in node.names}
    return {a.name for a in node.names}


def test_imports_are_module_level_and_acyclic():
    # the one function-local import: the package's PEP 562 __getattr__
    # loads cli on first use, and nothing else
    src = pathlib.Path(collarlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn)
                         if isinstance(n, (ast.Import, ast.ImportFrom))]
                if (path.name, fn.name) == ("__init__.py", "__getattr__"):
                    assert list(map(_imported_names, inner)) == [{None, "cli"}]
                    continue
                assert not inner, (f"{path.name}:{inner[0].lineno} imports "
                                   f"inside {fn.name}")
    # asymptotics imports curvature, so curvature must not import it back
    tree = ast.parse((src / "curvature.py").read_text())
    read = set().union(*(_imported_names(n) for n in ast.walk(tree)
                         if isinstance(n, (ast.Import, ast.ImportFrom))))
    assert not any("asymptotics" in (name or "") for name in read)


def test_cutoff_spec_validation():
    CutoffSpec(0.5, 0.35, 0.25)
    with pytest.raises(ValueError):
        CutoffSpec(0.35, 0.5, 0.25)  # needs c2 < c1 < c
    with pytest.raises(ValueError):
        CutoffSpec(0.5, 0.35, 0.0)
    with pytest.raises(ValueError):
        CutoffSpec(1.5, 0.35, 0.25)


def test_cutoff_eval_levels_and_derivatives():
    spec = CutoffSpec(0.5, 0.35, 0.25)
    for which, hi, lo in (("eta", 0.35, 0.5), ("eta1", 0.25, 0.35)):
        assert cutoff_eval(spec, np.array([math.log(lo)]), which)[0][0] == 0.0
        assert cutoff_eval(spec, np.array([math.log(hi)]), which)[0][0] == 1.0
        mid = np.array([(math.log(lo) + math.log(hi)) / 2])
        assert 0.0 < cutoff_eval(spec, mid, which)[0][0] < 1.0
    # each derivative agrees with a finite difference of the one before
    x = np.linspace(math.log(0.5), math.log(0.35), 9)[1:-1]
    h = 1e-6
    for order in (1, 2):
        up = cutoff_eval(spec, x + h, "eta")[order - 1]
        dn = cutoff_eval(spec, x - h, "eta")[order - 1]
        got = cutoff_eval(spec, x, "eta")[order]
        np.testing.assert_allclose(got, (up - dn) / (2 * h), rtol=0, atol=5e-3)
    with pytest.raises(ValueError, match="which must be"):
        cutoff_eval(spec, x, "eta2")


def _cutoff_eval_one_order(spec, x, which, order):
    """The earlier cutoff_eval: one smoothstep call per derivative order."""
    if which == "eta":
        hi, lo = math.log(spec.c), math.log(spec.c1)
    else:
        hi, lo = math.log(spec.c1), math.log(spec.c2)
    width = hi - lo
    y = (hi - np.asarray(x, dtype=float)) / width
    S, S1, S2 = _smoothstep(y)
    return (S, -S1 / width, S2 / width**2)[order]


def _taper_weights_six_calls(collar, grid, spec, which):
    u = collar.u
    x_out = grid.nodes / u
    x_in = -PI / u - grid.nodes / u
    o0 = _cutoff_eval_one_order(spec, x_out, which, 0)
    o1 = _cutoff_eval_one_order(spec, x_out, which, 1) / u
    o2 = _cutoff_eval_one_order(spec, x_out, which, 2) / u**2
    i0 = _cutoff_eval_one_order(spec, x_in, which, 0)
    i1 = -_cutoff_eval_one_order(spec, x_in, which, 1) / u
    i2 = _cutoff_eval_one_order(spec, x_in, which, 2) / u**2
    w = o0 * i0
    w1 = o1 * i0 + o0 * i1
    w2 = o2 * i0 + 2.0 * o1 * i1 + o0 * i2
    return w, w1, w2


@pytest.mark.parametrize("u", [0.1, 0.01])
@pytest.mark.parametrize("which", ["eta", "eta1"])
def test_taper_weights_match_six_call_taper_bitwise(u, which):
    col = collar_from_u(u)
    grid = make_grid(col, 1024)
    spec = CutoffSpec()
    got = taper_weights(col, grid, spec, which)
    want = _taper_weights_six_calls(col, grid, spec, which)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_taper_weights_consistency():
    col = collar_from_u(0.1)
    grid = make_grid(col, 1024)
    spec = CutoffSpec()
    w, w1, w2 = taper_weights(col, grid, spec)
    assert np.all((0.0 <= w) & (w <= 1.0))
    mid = np.abs(grid.nodes - 0.5 * (col.tau_min + col.tau_max)) < 0.3
    assert np.all(w[mid] == 1.0)
    # the C-infinity step's tail can round w to 1.0 while its derivatives
    # are still denormal-small, so bound instead of demanding exact zeros
    flat = w == 1.0
    assert np.abs(w1[flat]).max() < 1e-12
    assert np.abs(w2[flat]).max() < 1e-12
    # analytic derivatives track the grid stencils through the shoulder
    assert np.abs(grid.dtau(w) - w1).max() <= 2e-2 * np.abs(w1).max()
    assert np.abs(grid.dtau(w, 2) - w2).max() <= 6e-2 * np.abs(w2).max()


def test_approximants_construction():
    col = collar_from_u(0.1)
    grid = make_grid(col, 1024)
    spec = CutoffSpec()
    b_hat = -0.1 / PI
    ap = build_approximants(col, grid, b_hat)
    w, w1, w2 = taper_weights(col, grid, spec)
    np.testing.assert_allclose(ap.etilde.profile(0),
                               0.5 * abs(b_hat) ** 2 * grid.sin_tau**2 * w,
                               rtol=0, atol=1e-15)
    # (box + 1) etilde == ftilde by construction, via the analytic taper
    d2e = 0.5 * abs(b_hat) ** 2 * (2 * np.cos(2 * grid.nodes) * w
                                   + 2 * np.sin(2 * grid.nodes) * w1
                                   + grid.sin_tau**2 * w2)
    rhs = -(grid.sin_tau**2 / 2) * d2e + ap.etilde.profile(0)
    assert np.abs(rhs - ap.ftilde.profile(0)).max() <= 1e-12


def test_approximants_flat_region_identities():
    col = collar_from_u(0.1)
    grid = make_grid(col, 1024)
    spec = CutoffSpec()
    ap = build_approximants(col, grid, -0.1 / PI)
    w = taper_weights(col, grid, spec)[0]
    v = taper_weights(col, grid, spec, "eta1")[0]
    flat = (w == 1.0) & (v == 1.0)
    assert flat.sum() > grid.n // 2

    def sup_on_flat(f):
        return sum(np.abs(p) for p in f.modes.values())[flat].max()

    d_ft = sup_on_flat(apply_box1(ap.etilde) - ap.ftilde)
    assert d_ft <= 1e-9 * ap.ftilde.sup_norm()
    sys1 = CollarSystem([col], [grid])
    bspec, _ = diagonal_family(sys1)
    A = beltrami_field(bspec, 0, 0, sys1)
    d_xi = sup_on_flat(xi(A, ap.etilde) - ap.xi_etilde)
    assert d_xi <= 1e-8 * ap.xi_etilde.sup_norm()
    # where both tapers are idle, xi of etilde equals (box + 1) d exactly
    assert sup_on_flat(ap.xi_etilde - ap.box1_d) <= 1e-15 * \
        ap.box1_d.sup_norm()


def test_target_table_contents():
    table = target_table()
    assert len(table) == 16
    ids = [t.check_id for t in table]
    assert len(set(ids)) == 16
    assert target("wp-metric-diag").constant == 0.5
    assert target("wp-cometric-diag").constant == 2.0
    assert target("ricci-diag").constant == pytest.approx(3 / (4 * PI**2))
    assert target("wp-curv-diag").constant == pytest.approx(3 / (8 * PI**2))
    assert target("wp-curv-diag").exponent == 5.0
    assert target("t-pairing").constant == pytest.approx(3 / (256 * PI**4))
    assert target("k0-pairing").constant == pytest.approx(-3 / (64 * PI**4))
    assert target("xi-pairing").constant == pytest.approx(-1 / (32 * PI**3))
    assert target("ef-pairing").constant == pytest.approx(3 / (16 * PI**2))
    assert target("t-pairing").exponent == 7.0
    # bit for bit: g1-term-2 is -g1-term-1, and g1-sum is 6/(16 pi^4)
    assert (target("g1-term-2").constant.hex()
            == (-target("g1-term-1").constant).hex())
    assert target("g1-sum").constant.hex() == (6.0 / (16.0 * PI**4)).hex()
    with pytest.raises(KeyError):
        target("no-such-check")


def test_fit_power_law_exact_data():
    us = np.geomspace(0.1, 0.02, 6)
    fit = fit_power_law([(u, 2.5 * u**3) for u in us])
    assert fit.exponent == pytest.approx(3.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_richardson_removes_linear_correction():
    # the fitted exponent survives a linear-in-u correction to the law
    us = np.geomspace(0.1, 0.02, 6)
    samples = [(u, 2.5 * u**3 * (1 + u)) for u in us]
    fit = fit_power_law(samples)
    assert round(fit.exponent, 1) == 3.0


def test_fit_power_law_degenerate_inputs():
    good = [(u, u**2) for u in (0.1, 0.08, 0.06, 0.04)]
    with pytest.raises(DegenerateFitError):
        fit_power_law(good[:3])
    with pytest.raises(DegenerateFitError):
        fit_power_law(list(reversed(good)))
    with pytest.raises(DegenerateFitError):
        fit_power_law([(u, 0.0) for u, _ in good])
    rng = np.random.default_rng(0)
    noisy = [(u, math.exp(rng.normal() * 5)) for u, _ in good]
    with pytest.raises(DegenerateFitError):
        fit_power_law(noisy)


def test_geodesic_length_and_derivative():
    t = math.exp(-10.0)
    assert geodesic_length(t) == pytest.approx(2 * PI**2 / 10, rel=1e-14)
    assert length_derivative_fd(t) == pytest.approx(2173.9250385627065,
                                                    rel=1e-9)
    rows = length_derivative_check([0.1, 0.05])
    for row in rows:
        assert row["rel_err"] < 1e-6
        assert row["predicted"] == pytest.approx(row["u"] ** 2 / row["t_abs"],
                                                 rel=1e-14)


def test_perturbed_prediction_limits():
    for u in (0.1, 0.05, 0.025):
        assert perturbed_prediction(u, 0.0) == pytest.approx(
            3 / (8 * PI**4) * u**4, rel=1e-14)
    # larger C strengthens the u^5 term
    assert perturbed_prediction(0.05, 10.0) > perturbed_prediction(0.05, 1.0)


def test_equivalence_ratios_frozen_values():
    r = equivalence_ratios(0.05)
    assert r["poincare"] == pytest.approx(2.9998939752743876, rel=1e-6)
    assert r["mcmullen"] == pytest.approx(0.6623377437816208, rel=1e-6)
    # mcmullen tracks (1 + 2 pi^2 u)/3 closely at this scale
    assert r["mcmullen"] == pytest.approx((1 + 2 * PI**2 * 0.05) / 3, abs=1e-3)
    ws = CurvatureWorkspace.single_collar(0.05, n_tau=1024)
    r2 = equivalence_ratios(0.05, workspace=ws)
    assert r2 == r


def test_zero_coupling_residual_is_exactly_zero():
    assert zero_coupling_residual() == 0.0


def test_approximant_errors_keys_and_ef_ratio():
    d = approximant_errors(0.07, n_tau=768)
    assert set(d) == {"err_e", "err_xi", "err_T", "ef", "k0", "xi_e"}
    want = 3 / (16 * PI**2) * 0.07**5
    assert abs(d["ef"]) / want == pytest.approx(1.0, abs=1e-2)


def test_g2_spotcheck_shape_without_fit():
    out = g2_spotcheck((0.1, 0.05), n_tau=256)
    assert set(out) == {"case-1", "case-2", "case-3", "case-4"}
    for d in out.values():
        assert len(d["samples"]) == 2
        assert d["fit"] is None  # two points cannot support a fit


def test_bc_sensitivity_check_is_small():
    assert bc_sensitivity_check(0.05, n_tau=512) < 5e-2


def test_bc_sensitivity_check_honours_c():
    # the default cut re-cuts 0.5 -> 0.45: the green-props record's value
    assert bc_sensitivity_check(0.05, c=0.5) == 3.2606408001995178e-05
    moved = bc_sensitivity_check(0.05, c=0.6)
    assert moved != 3.2606408001995178e-05
    assert moved < 5e-2


def test_wp_curvature_diagonal_law():
    u = 0.025
    ws = CurvatureWorkspace.single_collar(u)
    t = target("wp-curv-diag")
    assert ws.R(0, 0, 0, 0).real / u**t.exponent == pytest.approx(
        t.constant, rel=1e-5)
