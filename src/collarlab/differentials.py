"""Harmonic Beltrami differentials, quadratic differentials, WP pairings.

Scaled coefficient gauge
------------------------
Collar quantities scale by exact powers of |t_i| (one factor per tensor
slot), and u**4/|t|**4-type magnitudes overflow doubles below u ~ 0.02.
All coefficient data here is therefore stored in the |t|-scaled gauge:

* Beltrami data (lower slot):  b_hat = |t_i| b,
* quadratic-differential data (upper slot): prefactor_hat = prefactor/|t_i|,

so stored values are O(1) and every derived tensor equals the true one
times the product of |t_i| (lower slots) and 1/|t_i| (upper slots).
Reported asymptotic constants are the |t|-normalized ones, which is what
all the target laws state anyway.

Shapes on a collar with coordinate z: one coefficient per (index, collar),

    A_i = (z/zbar) sin(tau)^2 conj(b),   stored as BeltramiSpec entry b_hat,
    phi_i = prefactor beta z^-2,         stored as QuadDiffSpec entry
                                         P = prefactor_hat beta,

with b_hat = -(u/pi) t/|t| and P = -(t/|t|)/pi on the diagonal.  The Laurent
tails of the full model (A_i carries conj(p), phi_i carries q beside
beta) are corrections bounded by c^|k| on the collar; no family here
sets them, so they are not represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collar import CollarParams, TauGrid
from .fields import CollarField, pairing_l2


@dataclass(frozen=True)
class CollarSystem:
    """The degenerate collars of a model surface (compact part dropped)."""

    collars: tuple[CollarParams, ...]
    grids: tuple[TauGrid, ...]

    def __post_init__(self):
        if len(self.collars) != len(self.grids):
            raise ValueError("one grid per collar required")

    @property
    def m(self) -> int:
        return len(self.collars)

    def collar_sum(self, *terms) -> complex:
        """sum over collars J of term(J) for each term, added one at a time
        (collar by collar, terms in the order given) from 0 + 0j."""
        acc = 0.0 + 0.0j
        for J in range(self.m):
            for term in terms:
                acc += term(J)
        return acc


@dataclass(frozen=True)
class BeltramiSpec:
    """b_hat keyed by (index i, collar j); missing keys mean A_i|_j = 0."""

    n: int
    entries: dict[tuple[int, int], complex]


@dataclass(frozen=True)
class QuadDiffSpec:
    """prefactor_hat beta keyed by (index i, collar j); missing keys mean
    phi_i|_j = 0."""

    n: int
    entries: dict[tuple[int, int], complex]


def beltrami_field(spec: BeltramiSpec, i: int, j: int,
                   system: CollarSystem) -> CollarField:
    """A_i restricted to collar j (scaled gauge); zero field if no entry."""
    collar = system.collars[j]
    grid = system.grids[j]
    b = spec.entries.get((i, j))
    out = CollarField(collar, grid, {})
    if b is None:
        return out
    out.set_mode(2, grid.sin_tau**2 * np.conj(b))
    return out


def _qdiff_profile(spec: QuadDiffSpec, i: int, j: int,
                   system: CollarSystem) -> np.ndarray | None:
    """P as a constant profile on collar j (phi_i = z^-2 P there); None if
    phi_i vanishes on collar j."""
    p = spec.entries.get((i, j))
    return None if p is None else np.full(system.grids[j].n, p, dtype=complex)


def qdiff_field(spec: QuadDiffSpec, i: int, j: int,
                system: CollarSystem) -> CollarField:
    """phi_i on collar j as a raw field: mode -2 with an r^-2 radial."""
    collar = system.collars[j]
    grid = system.grids[j]
    out = CollarField(collar, grid, {})
    prof = _qdiff_profile(spec, i, j, system)
    if prof is not None:
        out.set_mode(-2, prof * np.exp(-2.0 * grid.nodes / collar.u))
    return out


@dataclass
class MetricMatrix:
    """Hermitian index-pairing matrix with a kind tag.

    kind in {"WP", "WP-cometric", "Ricci", "perturbed-Ricci"}.  Values are
    in the scaled gauge (entry (i, j) carries |t_i| |t_j| for metric kinds
    and 1/(|t_i| |t_j|) for the cometric).
    """

    values: np.ndarray
    kind: str

    HERMITIAN_TOL = 1e-10

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        scale = max(1.0, float(np.abs(v).max()))
        # written so that a NaN entry fails
        if not np.abs(v - v.conj().T).max() <= self.HERMITIAN_TOL * scale:
            raise ValueError(f"{self.kind} matrix is not Hermitian")
        self.values = 0.5 * (v + v.conj().T)

    def require_positive(self):
        # eigvalsh returns no NaN for a NaN entry
        low = (np.linalg.eigvalsh(self.values).min()
               if np.isfinite(self.values).all() else math.nan)
        if not low > 0:
            raise ValueError(f"{self.kind} matrix is not positive definite "
                             f"(min eigenvalue {low:.3e})")
        return self


def _gram(items: dict, system: CollarSystem, n: int, pair) -> np.ndarray:
    """(n, n) matrix of sum over collars J of pair(J, items[i, J], items[j, J]);
    the term is 0 where either item is absent."""
    out = np.zeros((n, n), dtype=complex)
    for i, j in np.ndindex(n, n):
        def term(J):
            a, b = items.get((i, J)), items.get((j, J))
            return 0.0 if a is None or b is None else pair(J, a, b)
        out[i, j] = system.collar_sum(term)
    return out


def wp_metric(spec: BeltramiSpec, system: CollarSystem,
              compact_part: np.ndarray | None = None) -> MetricMatrix:
    """h_{i jbar} = sum over collars of int A_i conj(A_j) dv (+ compact part)."""
    fields = {(i, J): beltrami_field(spec, i, J, system) for i, J in spec.entries}
    h = _gram(fields, system, spec.n, lambda J, fi, fj: pairing_l2(fi, fj))
    if compact_part is not None:
        h = h + np.asarray(compact_part, dtype=complex)
    return MetricMatrix(h, "WP")


def wp_cometric(spec: QuadDiffSpec, system: CollarSystem) -> MetricMatrix:
    """h^{i jbar} = int phi_i conj(phi_j) lambda^-2 dv via the profiles P.

    The z^-2 factors cancel against lambda^-1 analytically:
    integrand = (2/u^2) P_i conj(P_j) sin^2 tau / r, P = prefactor beta.
    """
    profiles = {(i, J): _qdiff_profile(spec, i, J, system)
                for i, J in spec.entries}

    def pair(J, pi_, pj):
        grid = system.grids[J]
        c = 4.0 * math.pi / system.collars[J].u**3
        return c * grid.integrate(pi_ * np.conj(pj) * grid.sin_tau**2)
    mm = MetricMatrix(_gram(profiles, system, spec.n, pair), "WP-cometric")
    mm.require_positive()
    return mm


def duality_check(bspec: BeltramiSpec, qspec: QuadDiffSpec,
                  system: CollarSystem) -> dict:
    """Sup-error of A_i against lambda^-1 sum_l h_{i lbar} conj(phi_l).

    Computed per (index, collar) with the r-powers cancelled analytically:
    lambda^-1 conj(phi_l) = (2 sin^2/u^2) (z/zbar) conj(P_l), so the dual
    is one mode-2 profile, (2 sin^2/u^2) sum_l h_{i lbar} conj(P_l).
    Returns absolute and relative sup errors (relative to sup |A_i|).
    """
    h = wp_metric(bspec, system)
    report = {}
    for i, J in sorted(bspec.entries):
        grid = system.grids[J]
        collar = system.collars[J]
        a_field = beltrami_field(bspec, i, J, system)
        coeff = sum(h.values[i, l] * np.conj(p)
                    for (l, K), p in qspec.entries.items() if K == J)
        dual = CollarField(collar, grid,
                           {2: coeff * 2.0 * grid.sin_tau**2 / collar.u**2})
        err = (a_field - dual).sup_norm()
        sup_a = a_field.sup_norm()
        report[(i, J)] = {"sup_err": err,
                          "rel_err": err / sup_a if sup_a > 0 else 0.0}
    return report


# -- model families ------------------------------------------------------

def diagonal_family(collars: CollarSystem) -> tuple[BeltramiSpec, QuadDiffSpec]:
    """Pure diagonal family: q = 0, beta = 1, p = 0, b_hat = -(u/pi) t/|t|."""
    m = collars.m
    bentries = {}
    qentries = {}
    for j in range(m):
        col = collars.collars[j]
        phase = col.t / abs(col.t)
        # true b = -u/(pi conj(t)); scaled by |t| this is -(u/pi) t/|t|
        bentries[(j, j)] = -(col.u / math.pi) * phase
        qentries[(j, j)] = -phase / math.pi  # prefactor_hat, times beta = 1
    return BeltramiSpec(m, bentries), QuadDiffSpec(m, qentries)


def coupled_family(collars: CollarSystem, kappa: float = 1.0
                   ) -> tuple[BeltramiSpec, QuadDiffSpec]:
    """Diagonal family plus off-diagonal couplings b_i^j = kappa u_j u_i^3/|t_i|.

    Stored scaled: b_hat_i^j = kappa u_j u_i^3.  Setting kappa = 0 recovers
    the uncoupled family exactly.
    """
    bspec, qspec = diagonal_family(collars)
    bentries = dict(bspec.entries)
    us = [col.u for col in collars.collars]
    for i, j in np.ndindex(collars.m, collars.m):
        b = kappa * us[j] * us[i]**3
        if i != j and b != 0.0:
            bentries[(i, j)] = b
    return BeltramiSpec(collars.m, bentries), qspec
