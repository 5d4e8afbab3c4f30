"""Curvature workspace: tensors, block decomposition, perturbed family."""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collarlab.collar
import collarlab.curvature
import collarlab.memos
from collarlab import (BeltramiSpec, CollarField, CollarSystem,
                       CurvatureWorkspace, RunConfig, beltrami_field,
                       cache_scope, collar_from_u, coupled_family,
                       hermitian_defect, make_grid, perturbed_prediction,
                       run_suite, upper_index)

PI = math.pi


@pytest.fixture(scope="module")
def ws1():
    return CurvatureWorkspace.single_collar(0.1, n_tau=1024)


@pytest.fixture(scope="module")
def ws2():
    return CurvatureWorkspace.from_u_values([0.09, 0.06], n_tau=1024,
                                            kappa=1.0)


def test_upper_index_conventions():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = a @ np.conj(a.T) + 3 * np.eye(3)
    g = upper_index(h)
    np.testing.assert_allclose(np.conj(g) @ h, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(upper_index(g), h, atol=1e-12)
    d = upper_index(np.diag([2.0 + 0j, 4.0]))
    np.testing.assert_allclose(np.diag(d), [0.5, 0.25])


def test_wp_metric_and_cometric_consistent(ws1):
    h = ws1.h().values[0, 0].real
    hup = ws1.h_upper()[0, 0].real
    assert h * hup == pytest.approx(1.0, rel=1e-14)
    u = 0.1
    assert abs(h / (u**3 / 2) - 1) < 3 * u


def test_first_metric_symmetries(ws2):
    scale = max(abs(ws2.R(*idx))
                for idx in itertools.product(range(2), repeat=4))
    for i, j, k, l in itertools.product(range(2), repeat=4):
        r = ws2.R(i, j, k, l)
        assert abs(r - ws2.R(k, j, i, l)) <= 1e-12 * scale
        assert abs(r - ws2.R(i, l, k, j)) <= 1e-12 * scale


def test_wp_tensor_is_hermitian(ws2):
    assert hermitian_defect(ws2.wp_tensor()) <= 1e-12


def test_weighted_contractions_match_einsum(ws2):
    # an oracle that does not depend on the order of summation
    G = ws2.h_upper()
    R = ws2.wp_tensor()
    tau = ws2.tau().values
    np.testing.assert_allclose(tau, np.einsum("ab,ijab->ij", G, R),
                               rtol=1e-13, atol=0)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        want = np.einsum("p,pq,q->", tau[:, j], G, R[i, :, k, l])
        assert ws2.block_d(i, j, k, l) == pytest.approx(want, rel=1e-13)


def test_three_collar_curvature_matches_the_benchmark_reference(
        tmp_path, perfbench_run):
    # n = 3 with coupling: contraction paths a default run never takes.
    # The check compares tau and all 81 entries with the stored reference
    # and checks the Hermitian defect and that tau is positive definite.
    op = perfbench_run.Curvature3Collar()
    ctx = perfbench_run.Context("curvature-3collar", 0, tmp_path)
    op.setup(ctx)
    order = op.prepare(ctx, 0)
    assert op.check(ctx, order, op.call(ctx, order)) is None


def test_tau_matches_leading_order(ws1):
    tau = ws1.tau()
    assert tau.kind == "Ricci"
    val = tau.values[0, 0].real
    assert abs(val / (3 / (4 * PI**2) * 0.1**2) - 1) < 1e-2


def test_g1_terms_at_desk_scale(ws1):
    rep = ws1.g1_terms()
    for k, ratio in rep.ratios().items():
        assert abs(ratio - 1) < 2e-2, k
    assert rep.total == pytest.approx(sum(rep.terms.values()), rel=1e-15)
    assert rep.total_target == pytest.approx(6 * 0.1**4 / (16 * PI**4),
                                             rel=1e-15)
    base = 0.1**4 / (16 * PI**4)
    assert rep.targets["g1-term-1"] == pytest.approx(9 * base, rel=1e-15)
    assert rep.targets["g1-term-3"] == pytest.approx(-3 * base, rel=1e-15)


def test_ricci_curvature_sums_blocks(ws1):
    got = ws1.ricci_curvature(0, 0, 0, 0)
    want = (ws1.block_a(0, 0, 0, 0) + ws1.block_b(0, 0, 0, 0)
            + ws1.block_c(0, 0, 0, 0, ws1.tau_upper())
            + ws1.block_d(0, 0, 0, 0))
    assert got == pytest.approx(want, rel=1e-15)


def test_perturbed_reduces_to_unperturbed_at_zero(ws1):
    assert ws1.perturbed_curvature(0, 0, 0, 0, 0.0) == pytest.approx(
        ws1.ricci_curvature(0, 0, 0, 0), rel=1e-12)


def test_perturbed_matches_prediction():
    ws = CurvatureWorkspace.single_collar(0.05, n_tau=1024)
    for C in (1.0, 10.0):
        val = ws.perturbed_curvature(0, 0, 0, 0, C).real
        assert val / perturbed_prediction(0.05, C) == pytest.approx(1.0,
                                                                    abs=1e-2)


def test_perturbed_inverse_dominance(ws1):
    tau_up = upper_index(ws1.tau().values)[0, 0].real
    for C in (1.0, 10.0):
        m = ws1.perturbed_metric(C)
        assert m.kind == "perturbed-Ricci"
        til_up = upper_index(m.values)[0, 0].real
        assert 0.0 < til_up < tau_up


def test_zero_coupling_kills_cross_entries():
    ws = CurvatureWorkspace.from_u_values([0.08, 0.05], n_tau=512, kappa=0.0)
    assert ws.R(0, 0, 0, 1) == 0.0
    assert ws.ricci_curvature(0, 0, 0, 1) == 0.0
    assert ws.tau().values[0, 1] == 0.0


def test_coupling_produces_cross_entries(ws2):
    assert abs(ws2.R(0, 0, 0, 1)) > 0.0
    assert abs(ws2.ricci_curvature(0, 0, 0, 1)) > 0.0


def test_workspace_memoizes(ws1):
    assert ws1.e_pair(0, 0, 0) is ws1.e_pair(0, 0, 0)
    assert ws1.R(0, 0, 0, 0) == ws1.R(0, 0, 0, 0)


def test_collar_fields_are_shared_by_grid_and_coefficients():
    # in a [u, u] model collar 1 repeats collar 0, and a one-collar model
    # is collar 0 of the uncoupled two-collar one
    ws = CurvatureWorkspace.from_u_values([0.05, 0.05], kappa=1.0)
    assert ws.e_pair(0, 0, 0) is ws.e_pair(1, 1, 1)
    assert (CurvatureWorkspace.single_collar(0.05).T_xi(0, 0, 0, 0)
            is CurvatureWorkspace.from_u_values([0.05, 0.05]).T_xi(0, 0, 0, 0))


def test_coefficients_equal_under_eq_get_their_own_fields():
    # 0.0 == -0.0 and -0.01 == complex(-0.01), but conj flips the sign of
    # a complex zero imaginary part, so each builds different bytes
    col = collar_from_u(0.1)
    system = CollarSystem((col,), (make_grid(col, 512),))
    for b in (-0.01, complex(-0.01, 0.0), complex(-0.01, -0.0)):
        spec = BeltramiSpec(1, {(0, 0): b})
        got = CurvatureWorkspace(system, spec).A(0, 0).modes[2]
        want = beltrami_field(spec, 0, 0, system).modes[2]
        assert got.tobytes() == want.tobytes()


def _g2_entries(u):
    """g2_spotcheck's curvature entries at one u, in its order."""
    ws = CurvatureWorkspace.from_u_values([u, u], kappa=1.0)
    ws0 = CurvatureWorkspace.from_u_values([u, u], kappa=0.0)
    return [ws.ricci_curvature(0, 0, 0, 0), ws0.ricci_curvature(0, 0, 0, 0),
            ws.ricci_curvature(0, 0, 0, 1), ws.ricci_curvature(0, 0, 1, 1),
            ws.ricci_curvature(0, 1, 0, 1)]


def test_shared_fields_do_not_depend_on_which_workspace_built_them(
        clear_models):
    clear_models()
    cold = _g2_entries(0.05)
    clear_models()
    CurvatureWorkspace.single_collar(0.05).g1_terms()  # warms collar 0
    assert _g2_entries(0.05) == cold


def test_g2_bounds_solves_and_builds_each_field_once(monkeypatch,
                                                     clear_models):
    # 244 solves and 307 Q-operator builds when fields were keyed per
    # workspace by index labels
    calls = collections.Counter()
    for name in ("solve_T", "q_operator"):
        def counted(*args, _f=getattr(collarlab.curvature, name), _n=name):
            calls[_n] += 1
            return _f(*args)
        monkeypatch.setattr(collarlab.curvature, name, counted)
    clear_models()
    run_suite(RunConfig.from_dict({"suites": ["g2-bounds"]}), "g2-bounds")
    assert calls["solve_T"] <= 122
    assert calls["q_operator"] <= 82


def test_byte_identical_pairs_are_one_field():
    # b_{01} and b_{10} are real, so f_{0 1bar} and f_{1 0bar} have the same
    # bytes; interned, they share one solve
    ws = CurvatureWorkspace.from_u_values([0.05, 0.05], kappa=1.0)
    for J in (0, 1):
        assert ws.f_pair(0, 1, J) is ws.f_pair(1, 0, J)
        assert ws.e_pair(0, 1, J) is ws.e_pair(1, 0, J)
        assert (ws.f_pair(0, 1, J).modes[0].tobytes()
                == ws.f_pair(1, 0, J).modes[0].tobytes())


def test_hash_collision_leaves_the_second_field_unshared(monkeypatch):
    # every mode hashes alike, so two fields of one grid share a key; the
    # byte check keeps the second out and the first in FIELDS
    monkeypatch.setattr(collarlab.curvature, "hash", lambda b: 0,
                        raising=False)
    with cache_scope():
        col = collar_from_u(0.0736)
        grid = make_grid(col, 256)
        first, second, copy = (CollarField(col, grid,
                                           {0: np.full(grid.n, v, complex)})
                               for v in (1.0, 2.0, 1.0))
        assert collarlab.curvature._intern(first) is first
        assert collarlab.curvature._intern(second) is second
        assert collarlab.curvature._intern(copy) is first
        held = list(collarlab.memos.FIELDS.values())
        assert any(f is first for f in held)
        assert not any(f is second for f in held)


def test_empty_pairs_are_one_field():
    # uncoupled, A_0 vanishes on collar 1 and A_1 on collar 0; both collars
    # share one grid, so every empty pair is one field
    ws = CurvatureWorkspace.from_u_values([0.05, 0.05], kappa=0.0)
    empty = [ws.f_pair(i, j, J) for J in (0, 1)
             for i, j in itertools.product((0, 1), repeat=2)
             if not ws.f_pair(i, j, J).modes]
    assert len(empty) == 6
    assert all(f is empty[0] for f in empty)
    assert all(ws.e_pair(i, j, J) is ws.e_pair(1, 0, 0) for J in (0, 1)
               for i, j in itertools.product((0, 1), repeat=2)
               if not ws.f_pair(i, j, J).modes)


def test_g2_bounds_solves_and_differentiates_each_field_once(monkeypatch,
                                                             clear_models):
    # 122 solves and 656 dtau calls when fields were keyed by coefficient
    # reprs and every xi and Q differentiated its inputs afresh
    calls = collections.Counter()

    def counted(*args, _f=collarlab.curvature.solve_T):
        calls["solve_T"] += 1
        return _f(*args)

    def dtau(self, *args, _f=collarlab.collar.TauGrid.dtau):
        calls["dtau"] += 1
        return _f(self, *args)
    monkeypatch.setattr(collarlab.curvature, "solve_T", counted)
    monkeypatch.setattr(collarlab.collar.TauGrid, "dtau", dtau)
    clear_models()
    run_suite(RunConfig.from_dict({"suites": ["g2-bounds"]}), "g2-bounds")
    assert calls["solve_T"] <= 53
    assert calls["dtau"] <= 125


def test_single_collar_phase_rotates_family():
    ws = CurvatureWorkspace.single_collar(0.1, n_tau=512, phase=0.7)
    b = ws.bspec.entries[(0, 0)]
    assert abs(b) == pytest.approx(0.1 / PI, rel=1e-12)
    assert np.angle(-b) == pytest.approx(0.7, abs=1e-12)
    # diagonal metric entries are phase-invariant
    ws0 = CurvatureWorkspace.single_collar(0.1, n_tau=512)
    assert ws.h().values[0, 0].real == pytest.approx(
        ws0.h().values[0, 0].real, rel=1e-12)


def test_constructors_share_one_workspace_per_model():
    ws = CurvatureWorkspace.single_collar(0.1, 0.5, 512, 0.0)
    assert CurvatureWorkspace.single_collar(0.1, n_tau=512) is ws
    assert CurvatureWorkspace.single_collar(u=0.1, c=0.5, n_tau=512,
                                            phase=0.0) is ws
    assert CurvatureWorkspace.single_collar(0.1, n_tau=1024) is not ws
    assert CurvatureWorkspace.single_collar(0.1, n_tau=512,
                                            phase=0.7) is not ws
    assert ws.system.grids[0] is make_grid(collar_from_u(0.1), 512)

    two = CurvatureWorkspace.from_u_values([0.1, 0.1], n_tau=512)
    assert CurvatureWorkspace.from_u_values((0.1, 0.1), 0.5, 512, 0.0) is two
    assert CurvatureWorkspace.from_u_values([0.1, 0.1], n_tau=512,
                                            kappa=0.0) is two
    assert CurvatureWorkspace.from_u_values([0.1, 0.1], n_tau=512,
                                            kappa=1.0) is not two
    assert CurvatureWorkspace.from_u_values([0.1, 0.1], n_tau=1024) is not two
    # kappa = 0 is the diagonal family: no off-diagonal Beltrami entries
    assert set(two.bspec.entries) == {(0, 0), (1, 1)}


@pytest.mark.parametrize("u", [0.05, 0.012, 0.01])
def test_curvature_pipeline_float_safe_down_to_floor(u, clear_models):
    # cold memos: every grid, solve and pairing is computed inside errstate
    clear_models()
    with np.errstate(over="raise", invalid="raise", divide="raise",
                     under="ignore"):
        ws = CurvatureWorkspace.single_collar(u)
        vals = [ws.tau().values[0, 0], ws.g1_terms().total,
                ws.P2((0, 0, 0), (0, 0, 0)),
                ws.perturbed_curvature(0, 0, 0, 0, C=10.0)]
    assert np.all(np.isfinite(vals))


def test_hermitian_defect_detects_asymmetry():
    t = np.zeros((1, 1, 1, 1), dtype=complex)
    assert hermitian_defect(t) == 0.0  # the zero tensor has no scale
    t[0, 0, 0, 0] = 1j
    assert hermitian_defect(t) > 0.0


@settings(max_examples=10, deadline=None)
@given(kappa=st.floats(0.0, 2.0),
       us=st.tuples(st.floats(0.03, 0.1), st.floats(0.03, 0.1)))
@example(kappa=2.2e-311, us=(0.0625, 0.0625))  # subnormal couplings
@example(kappa=1e-155, us=(0.0625, 0.0625))    # subnormal squared couplings
def test_property_coupled_metrics_hermitian_positive(kappa, us):
    # h and tau are MetricMatrix, which rejects a non-Hermitian matrix; the
    # curvature tensor tau contracts is checked unsymmetrised
    with cache_scope():  # keep the shared grid and field memos at their size
        collars = [collar_from_u(u) for u in us]
        system = CollarSystem(collars, [make_grid(col, 512) for col in collars])
        ws = CurvatureWorkspace(system, coupled_family(system, kappa)[0])
        assert hermitian_defect(ws.wp_tensor()) < 1e-10
        ws.h().require_positive()
        ws.tau().require_positive()
