"""Curvature tensors of the collar-model metrics.

Assembles, from cached collar-wise integrals, the curvature tensor of the
first metric (the L2 pairing of harmonic representatives), its contraction
(the second metric), the curvature of the second metric, and the curvature
of the one-parameter perturbed family.  Everything is evaluated in the
scaled |t|-gauge, so each entry is the |t|-normalized constant, finite over
the whole degeneration range.

Index conventions: tensors carry (i, jbar, k, lbar) with zero-based labels;
upper-index matrices are conj(inverse) of the lower-index ones, so that
sum_j h^{i jbar} h_{k jbar} = delta_{ik}.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .collar import (CUT, N_TAU, CollarParams, CutoffSpec, collar_from_u,
                     make_grid, taper_weights)
from .differentials import (BeltramiSpec, CollarSystem, MetricMatrix,
                            beltrami_field, coupled_family, wp_metric)
from .fields import CollarField, integral_product, pairing_l2
from .green import SolverConfig, solve_T
from .memos import FIELDS, WORKSPACES, memo
from .operators import mul_radial, q_operator, xi
from .targets import law

PI = math.pi


def _intern(f: CollarField) -> CollarField:
    """The field in FIELDS with f's grid, truncation flag and mode bytes
    (in mode order), f itself if it is the first.  The key holds each
    mode's hash; a hit is checked byte for byte."""
    key = ("bytes", f.grid, f.truncated,
           tuple((n, hash(v.tobytes())) for n, v in f.modes.items()))
    hit = FIELDS.setdefault(key, f)
    if hit is not f and any(v.tobytes() != hit.modes[n].tobytes()
                            for n, v in f.modes.items()):
        return f  # a hash collision: f stays unshared
    return hit


def _paired(kind: str, f: CollarField, g: CollarField) -> complex:
    """pairing_l2(f, g) ('l2') or integral_product(f, g) ('product'),
    memoised in FIELDS by kind and the two fields."""
    pair = pairing_l2 if kind == "l2" else integral_product
    return memo(FIELDS, (kind, f, g), lambda: pair(f, g))


def upper_index(values: np.ndarray) -> np.ndarray:
    """Upper-index matrix of a Hermitian lower-index one (conj of inverse)."""
    return np.conj(np.linalg.inv(values))


@dataclass
class G1Report:
    """Four-block decomposition of the diagonal second-metric curvature."""

    terms: dict
    targets: dict
    total: complex
    total_target: float

    def ratios(self) -> dict:
        return {k: self.terms[k].real / self.targets[k] for k in self.terms}


class CurvatureWorkspace:
    """Caching evaluator for the curvature pipeline of one model family.

    Holds the collar system and the Beltrami family.  The collar-local
    chain lives in the memo ``memos.FIELDS``, shared by every workspace
    whatever its index labels:

    - A_i, f_{i jbar} and xi_k(e) are interned by their bytes (``_intern``),
      so byte-identical fields are one object: f_{0 1bar} and f_{1 0bar} of
      a real coupling share one solve and all built on it, and every empty
      field on a grid is one field with one solve.
    - Every other field is keyed by the fields it is built from, which
      hash by identity: f_{i jbar} by (A_i, A_j), xi_k(e) by (A_k, e), the
      Q-operator field by (e_{k lbar}, f_{k lbar}, e_{i jbar}), and each
      solve, e_{i jbar} = T f_{i jbar} or T xi_k(e), by the field solved.
    - The derivative pieces of e and f that xi and q_operator take (dz e,
      P e, conj-P e, box e, dzbar e, dz f) are keyed by (kind, field), and
      each collar's pairing by (kind, field, field).

    - What a workspace looks up by index label (its A, f and e, metrics,
      curvature entries and the collar sums the blocks contract against)
      is a ``FIELDS`` entry keyed (workspace, label, indices...).

    The shared workspaces (``memos.WORKSPACES``) and the ``FIELDS`` entries
    live until ``clear_cache()``, or, when made inside a ``cache_scope()``,
    until that scope exits, whenever the workspace was built; a label entry
    made outside any scope keeps its workspace alive until ``clear_cache()``.
    """

    def __init__(self, system: CollarSystem, bspec: BeltramiSpec,
                 compact_part: np.ndarray | None = None):
        self.system = system
        self.bspec = bspec
        self.cutoff = CutoffSpec()
        self.compact_part = compact_part
        # support warnings are expected here: solver inputs vanish at the
        # walls only through the taper, not over a full margin
        self.solver = SolverConfig(warn_support=False)

    # -- constructors ------------------------------------------------------
    # shared, read-only instances; kappa = 0 is the diagonal family

    @classmethod
    def single_collar(cls, u: float, c: float = CUT, n_tau: int = N_TAU,
                      phase: float = 0.0) -> "CurvatureWorkspace":
        t = math.exp(-PI / u) * cmath.exp(1j * phase)
        return _shared_workspace(cls, (CollarParams(t, c),), n_tau, 0.0)

    @classmethod
    def from_u_values(cls, u_values, c: float = CUT, n_tau: int = N_TAU,
                      kappa: float = 0.0) -> "CurvatureWorkspace":
        collars = tuple(collar_from_u(u, c) for u in u_values)
        return _shared_workspace(cls, collars, n_tau, kappa)

    # -- shared field chain --------------------------------------------------

    def A(self, i: int, J: int) -> CollarField:
        return memo(FIELDS, (self, "A", i, J), lambda: _intern(
            beltrami_field(self.bspec, i, J, self.system)))

    def f_pair(self, i: int, j: int, J: int) -> CollarField:
        """Tapered product A_i conj(A_j) on collar J."""
        def find():
            a_i, a_j = self.A(i, J), self.A(j, J)
            grid = self.system.grids[J]
            taper = memo(FIELDS, ("taper", grid), lambda: taper_weights(
                self.system.collars[J], grid, self.cutoff)[0])
            return memo(FIELDS, ("f", a_i, a_j), lambda: _intern(
                mul_radial(a_i * a_j.conj(), taper)))
        return memo(FIELDS, (self, "f", i, j, J), find)

    def _solved(self, f: CollarField) -> CollarField:
        return memo(FIELDS, ("T", f), lambda: solve_T(f, self.solver))

    def e_pair(self, i: int, j: int, J: int) -> CollarField:
        """e_{i jbar} on collar J: resolvent solve against the tapered pair."""
        return memo(FIELDS, (self, "e", i, j, J),
                    lambda: self._solved(self.f_pair(i, j, J)))

    def xi_e(self, k: int, i: int, j: int, J: int) -> CollarField:
        a_k, e = self.A(k, J), self.e_pair(i, j, J)
        return memo(FIELDS, ("xi", a_k, e),
                    lambda: _intern(xi(a_k, e, pieces=FIELDS)))

    def T_xi(self, k: int, i: int, j: int, J: int) -> CollarField:
        return self._solved(self.xi_e(k, i, j, J))

    # -- pairing caches ------------------------------------------------------

    def P2(self, left: tuple, right: tuple) -> complex:
        """sum_J int T(xi_{k}(e_{i jbar})) conj(xi_{l}(e_{p qbar})) dv."""
        (k, i, j), (l, p, q) = left, right
        return memo(FIELDS, (self, "P2", left, right),
                    lambda: self.system.collar_sum(lambda J: _paired(
                        "l2", self.T_xi(k, i, j, J), self.xi_e(l, p, q, J))))

    def XE(self, left: tuple, right: tuple) -> complex:
        """sum_J int xi_{k}(e_{i qbar}) e_{a bbar} dv, plain product."""
        (k, i, q), (a, b) = left, right
        return memo(FIELDS, (self, "XE", left, right),
                    lambda: self.system.collar_sum(lambda J: _paired(
                        "product", self.xi_e(k, i, q, J), self.e_pair(a, b, J))))

    def QE(self, pair: tuple, arg: tuple, against: tuple) -> complex:
        """sum_J int Q_{k lbar}(e_{i jbar}) e_{a bbar} dv, plain product."""
        (k, l), (i, j), (a, b) = pair, arg, against

        def term(J):
            e_ij = self.e_pair(i, j, J)
            e_ab = self.e_pair(a, b, J)
            if not e_ij.modes or not e_ab.modes:
                return 0.0  # the product vanishes: skip the q_operator build
            e_kl, f_kl = self.e_pair(k, l, J), self.f_pair(k, l, J)
            q_f = memo(FIELDS, ("Q", e_kl, f_kl, e_ij),
                       lambda: q_operator(e_kl, f_kl, e_ij, FIELDS))
            return _paired("product", q_f, e_ab)
        return memo(FIELDS, (self, "QE", pair, arg, against),
                    lambda: self.system.collar_sum(term))

    # -- metrics -------------------------------------------------------------

    def h(self) -> MetricMatrix:
        return memo(FIELDS, (self, "h"), lambda: wp_metric(
            self.bspec, self.system, self.compact_part))

    def h_upper(self) -> np.ndarray:
        return memo(FIELDS, (self, "h^"), lambda: upper_index(self.h().values))

    def R(self, i: int, j: int, k: int, l: int) -> complex:
        """First-metric curvature entry R_{i jbar k lbar}."""
        e, f = self.e_pair, self.f_pair
        return memo(FIELDS, (self, "R", i, j, k, l),
                    lambda: self.system.collar_sum(
                        lambda J: _paired("product", e(i, j, J), f(k, l, J)),
                        lambda J: _paired("product", e(i, l, J), f(k, j, J))))

    def wp_tensor(self) -> np.ndarray:
        n = self.bspec.n
        out = np.empty((n, n, n, n), dtype=complex)
        for idx in np.ndindex(out.shape):
            out[idx] = self.R(*idx)
        return out

    def tau(self) -> MetricMatrix:
        """Second metric: tau_{i jbar} = h^{a bbar} R_{i jbar a bbar}."""
        def build():
            G = self.h_upper()
            vals = np.zeros(G.shape, dtype=complex)
            for i, j in np.ndindex(vals.shape):
                vals[i, j] = _contract(G, lambda a, b: self.R(i, j, a, b))
            return MetricMatrix(vals, "Ricci")
        return memo(FIELDS, (self, "tau"), build)

    def tau_upper(self) -> np.ndarray:
        return memo(FIELDS, (self, "tau^"), lambda: upper_index(self.tau().values))

    def perturbed_metric(self, C: float) -> MetricMatrix:
        return MetricMatrix(self.tau().values + C * self.h().values,
                            "perturbed-Ricci")

    # -- curvature blocks ----------------------------------------------------

    def block_a(self, i: int, j: int, k: int, l: int) -> complex:
        def term(al, be):
            s = 0.0 + 0.0j
            for vi, vk, va in itertools.permutations((i, k, al)):
                for vj, vb in ((j, be), (be, j)):
                    s += self.P2((vk, vi, vj), (l, vb, va))
                    s += self.P2((vk, vi, vj), (vb, l, va))
            return s
        return _contract(self.h_upper(), term)

    def block_b(self, i: int, j: int, k: int, l: int) -> complex:
        def term(al, be):
            s = 0.0 + 0.0j
            for vi, vk, va in itertools.permutations((i, k, al)):
                s += self.QE((vk, l), (vi, j), (va, be))
            return s
        return _contract(self.h_upper(), term)

    def block_c(self, i: int, j: int, k: int, l: int,
                T: np.ndarray) -> complex:
        G = self.h_upper()
        G_support = _support(G)
        F1 = {}
        F2 = {}
        acc = 0.0 + 0.0j
        for p, q in _support(T):
            for al, be in G_support:
                f1 = memo(F1, (q, al, be), lambda: sum(
                    self.XE((vk, vi, q), (va, be))
                    for vi, vk, va in itertools.permutations((i, k, al))))
                for ga, de in G_support:
                    f2 = memo(F2, (p, ga, de), lambda: sum(
                        np.conj(self.XE((vj, vl, p), (vb, ga)))
                        for vj, vl, vb in itertools.permutations((j, l, de))))
                    acc -= T[p, q] * G[al, be] * G[ga, de] * f1 * f2
        return acc

    def block_d(self, i: int, j: int, k: int, l: int) -> complex:
        weights = self.tau().values[:, j, None] * self.h_upper()
        return _contract(weights, lambda p, q: self.R(i, q, k, l))

    def _blocks(self, i: int, j: int, k: int, l: int,
                T: np.ndarray) -> complex:
        """a + b + c + d, with block c contracted against T."""
        return (self.block_a(i, j, k, l) + self.block_b(i, j, k, l)
                + self.block_c(i, j, k, l, T) + self.block_d(i, j, k, l))

    def ricci_curvature(self, i: int, j: int, k: int, l: int) -> complex:
        """Curvature entry of the second metric."""
        return self._blocks(i, j, k, l, self.tau_upper())

    def perturbed_curvature(self, i: int, j: int, k: int, l: int,
                            C: float) -> complex:
        """Curvature entry of the perturbed family tau + C h.

        Only the dual-contraction block sees the perturbed metric; the
        final term adds C times the first-metric curvature.
        """
        t_up = upper_index(self.perturbed_metric(C).values)
        return self._blocks(i, j, k, l, t_up) + C * self.R(i, j, k, l)

    # -- diagnostics ---------------------------------------------------------

    def g1_terms(self) -> G1Report:
        """Four-block decomposition at the diagonal quadruple (0, 0, 0, 0),
        against the targets g1-term-1..4 and g1-sum of the pure diagonal
        family."""
        u = self.system.collars[0].u
        q = (0, 0, 0, 0)
        terms = {"g1-term-1": self.block_a(*q), "g1-term-2": self.block_b(*q),
                 "g1-term-3": self.block_c(*q, self.tau_upper()),
                 "g1-term-4": self.block_d(*q)}
        return G1Report(terms=terms, targets={k: law(k, u) for k in terms},
                        total=sum(terms.values()), total_target=law("g1-sum", u))


def _support(W: np.ndarray) -> list:
    """Index pairs (a, b) of W in row-major order whose weight is not
    exactly zero (a NaN weight is kept)."""
    return [(a, b) for a, b in np.ndindex(W.shape) if W[a, b] != 0.0]


def _contract(W: np.ndarray, term) -> complex:
    """sum of W[a, b] term(a, b) over the support of W, in row-major order."""
    acc = 0.0 + 0.0j
    for a, b in _support(W):
        acc += W[a, b] * term(a, b)
    return acc


def _shared_workspace(cls, collars: tuple, n_tau: int, kappa: float):
    def build():
        system = CollarSystem(collars, tuple(make_grid(col, n_tau) for col in collars))
        return cls(system, coupled_family(system, kappa)[0])
    return memo(WORKSPACES, (cls, collars, n_tau, kappa), build)


def hermitian_defect(tensor: np.ndarray) -> float:
    """Max relative violation of T_{i jbar k lbar} = conj(T_{j ibar l kbar})."""
    sym = np.conj(np.transpose(tensor, (1, 0, 3, 2)))
    scale = float(np.abs(tensor).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(tensor - sym).max() / scale)
