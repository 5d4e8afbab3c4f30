"""Maass calculus, the box operator, xi, and symmetrizer bookkeeping."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import collarlab.operators
from collarlab import (CollarField, CollarSystem, SolverConfig,
                       beltrami_field, box, ck_norm, collar_from_u,
                       constant_field, diagonal_family, maass, make_grid,
                       op_P, op_P_bar, solve_T, wirtinger, xi)
from collarlab.operators import mul_radial

PI = math.pi


@pytest.fixture(scope="module")
def cg():
    col = collar_from_u(0.1)
    return col, make_grid(col, 1024)


def smooth_field(col, grid):
    a, b = col.tau_min, col.tau_max
    x = (grid.nodes - a) / (b - a)
    return CollarField(col, grid, {
        0: np.sin(grid.nodes).astype(complex) ** 2,
        2: (np.cos(grid.nodes) * np.sin(PI * x) ** 2).astype(complex),
    })


def test_p_factorizes_through_maass(cg):
    col, grid = cg
    f = smooth_field(col, grid)
    lhs = op_P(f)
    rhs = maass(maass(f, 0, "K"), 1, "K")
    assert (lhs - rhs).sup_norm() <= 1e-10 * lhs.sup_norm()
    with pytest.raises(ValueError, match="which must be 'K' or 'L'"):
        maass(f, 0, "M")


def test_pbar_conjugates_p(cg):
    col, grid = cg
    f = smooth_field(col, grid)
    lhs = op_P_bar(f)
    rhs = op_P(f.conj()).conj()
    assert (lhs - rhs).sup_norm() <= 1e-10 * lhs.sup_norm()


def test_box_equals_mixed_wirtinger(cg):
    col, grid = cg
    f = smooth_field(col, grid)
    mixed = mul_radial(wirtinger(wirtinger(f, "dz"), "dzbar"), grid.inv_lam)
    bx = box(f)
    assert (mixed + bx).sup_norm() <= 1e-8 * bx.sup_norm()


def test_box_closed_form_on_sin_squared(cg):
    col, grid = cg
    f = CollarField(col, grid, {0: grid.sin_tau.astype(complex) ** 2})
    got = box(f).profile(0)
    want = -grid.sin_tau**2 * np.cos(2 * grid.nodes)
    assert np.abs(got - want).max() < 1e-8


def test_box_radial_form_on_constant_mode(cg):
    col, grid = cg
    f = CollarField(col, grid, {3: np.ones(grid.n, dtype=complex)})
    got = box(f).profile(3)
    want = 0.5 * grid.sin_tau**2 * (3 / col.u) ** 2
    assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()
    # stencil roundoff on a constant: zero up to ~1/h^2 amplification
    assert box(constant_field(col, grid)).sup_norm() < 1e-8


def test_xi_routes_agree_for_harmonic_coefficient(cg):
    col, grid = cg
    sys1 = CollarSystem([col], [grid])
    bspec, _ = diagonal_family(sys1)
    A = beltrami_field(bspec, 0, 0, sys1)
    f = smooth_field(col, grid)
    x1 = xi(A, f)
    x2 = xi(A, f, route="harmonic")
    assert (x1 - x2).sup_norm() <= 1e-8 * x1.sup_norm()
    with pytest.raises(ValueError):
        xi(A, f, route="sideways")


def test_xi_vanishes_for_zero_coefficient(cg):
    col, grid = cg
    zero = CollarField(col, grid, {})
    f = smooth_field(col, grid)
    assert xi(zero, f).sup_norm() == 0.0


def test_pairing_key_multiplicities_at_coincident_indices():
    """Expansion bookkeeping of the first curvature block.

    At (i, k, a, j, l, b) = (0, 0, 1, 0, 0, 2) the twelve orderings that
    block_a sums (6 of (i, k, a) times 2 of (j, b)), each contributing two
    pairings, collapse onto nine distinct pairing
    keys.  The reference grouping lists ten terms with multiplicities
    (2, 4, 2, 2, 4, 2, 2, 2, 2, 2); two of those ten denote the same
    pairing, so the merged counts are six 2s and three 4s.
    """
    i, k, a, j, l, b = 0, 0, 1, 0, 0, 2
    keys = []
    for vi, vk, va in itertools.permutations((i, k, a)):
        for vj, vb in ((j, b), (b, j)):
            keys.append(((vk, vi, vj), (l, vb, va)))
            keys.append(((vk, vi, vj), (vb, l, va)))
    got = Counter(keys)

    listing = [
        (((0, 0, 0), (0, 2, 1)), 2),
        (((0, 0, 2), (0, 0, 1)), 4),
        (((0, 0, 0), (2, 0, 1)), 2),
        (((0, 1, 0), (0, 2, 0)), 2),
        (((0, 1, 2), (0, 0, 0)), 4),
        (((0, 1, 0), (2, 0, 0)), 2),
        (((1, 0, 0), (0, 2, 0)), 2),
        (((1, 0, 2), (0, 0, 0)), 2),
        (((1, 0, 0), (2, 0, 0)), 2),
        (((1, 0, 2), (0, 0, 0)), 2),  # repeats line 8's pairing
    ]
    want = Counter()
    for key, mult in listing:
        want[key] += mult

    assert len(keys) == 24
    assert len(got) == 9
    assert sorted(got.values()) == [2, 2, 2, 2, 2, 2, 4, 4, 4]
    assert got == want


def test_ck_norm_laws(cg):
    col, grid = cg
    sys1 = CollarSystem([col], [grid])
    bspec, _ = diagonal_family(sys1)
    A = beltrami_field(bspec, 0, 0, sys1)
    c0 = ck_norm(A, 0)
    c1 = ck_norm(A, 1)
    c2 = ck_norm(A, 2)
    assert c0 == pytest.approx(col.u / PI, rel=1e-5)
    assert c0 < c1 < c2  # each level adds nonnegative sup terms
    with pytest.raises(ValueError):
        ck_norm(A, 3)


def test_ck_norm_scales_linearly(cg):
    col, grid = cg
    f = smooth_field(col, grid)
    assert ck_norm(f.scale(3.0), 1) == pytest.approx(3 * ck_norm(f, 1),
                                                     rel=1e-12)


def compositions(k):
    """Every Maass composition of length <= k from weight 0, shortest first
    and K before L, as (which, weight) steps."""
    chains = [[]]
    frontier = [((), 0)]
    for _ in range(k):
        nxt = []
        for ops, w in frontier:
            for which in ("K", "L"):
                nw = w + 1 if which == "K" else w - 1
                nxt.append((ops + ((which, w),), nw))
        chains.extend(c for c, _ in nxt)
        frontier = nxt
    return chains


def ck_norm_from_scratch(f, k):
    total = 0.0
    for chain in compositions(k):
        g = f
        for which, w in chain:
            g = maass(g, w, which)
        total += g.sup_norm()
    return total


def test_ck_norm_matches_compositions_from_scratch(cg, monkeypatch):
    col, grid = cg
    sys1 = CollarSystem([col], [grid])
    bspec, _ = diagonal_family(sys1)
    A = beltrami_field(bspec, 0, 0, sys1)
    a, b = col.tau_min, col.tau_max
    x = np.clip((grid.nodes - a) / (b - a), 0.0, 1.0)
    window = np.sin(PI * x) ** 4
    f = CollarField(col, grid, {0: window, 1: (0.3 + 0.2j) * window,
                                -1: (0.3 - 0.2j) * window,
                                3: 0.1j * np.cos(grid.nodes) * window})
    solved = solve_T(f, SolverConfig(warn_support=False))
    for field in (A, solved):
        for k in (0, 1, 2):
            assert ck_norm(field, k) == ck_norm_from_scratch(field, k)
    # each composition extends one of the level before: 2 + 4 for k = 2
    calls = []

    def counted(g, p, which, _maass=collarlab.operators.maass):
        calls.append((p, which))
        return _maass(g, p, which)

    monkeypatch.setattr(collarlab.operators, "maass", counted)
    ck_norm(solved, 2)
    assert len(calls) == 6


def test_mul_radial_multiplies_every_mode(cg):
    col, grid = cg
    f = smooth_field(col, grid)
    g = mul_radial(f, grid.r)
    for n in f.modes:
        np.testing.assert_allclose(g.profile(n), f.profile(n) * grid.r,
                                   rtol=1e-14)
