"""Maass-type operators, the xi and Q operators, symmetrizers, C^k norms.

Weight-p sections of the relative (anti)canonical powers are carried by
their local coefficient functions; their invariant absolute value equals
the plain modulus, so sup-norms need no metric factors.  With conformal
factor rho_c = lambda^(1/2):

    K_p f = rho_c^(p-1) dz   (rho_c^-p f)      raises weight,
    L_p f = rho_c^(-p-1) dzbar (rho_c^p f)     lowers weight,
    P     = K_1 K_0 = dz(lambda^-1 dz .),
    box   = -lambda^-1 dz dzbar = -lambda^-1 dzbar dz  (on functions),
    xi_k(f) = -lambda^-1 dz(A_k dz f)  [= -A_k P(f) when dz(lambda A_k) = 0],
    Q_{k lbar}(f) = conj-P(e_{k lbar}) P(f) - 2 f_{k lbar} box f
                    + lambda^-1 dz f_{k lbar} dzbar f.

Per angular mode n the box reduces to the radial form

    (box f)_n = -(sin^2 tau / 2) (F_n'' - (n/u)^2 F_n),

which is what the Green solver discretizes.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import CollarField, wirtinger


def mul_radial(f: CollarField, values: np.ndarray) -> CollarField:
    """Multiply every mode profile by a radial (mode-0) factor."""
    return CollarField(f.collar, f.grid,
                       {n: v * values for n, v in f.modes.items()},
                       truncated=f.truncated)


def maass(f: CollarField, p: int, which: str) -> CollarField:
    """Apply K_p ('K') or L_p ('L') to a weight-p section."""
    lam = f.grid.lam
    if which == "K":
        inner = mul_radial(f, lam ** (-p / 2.0)) if p else f
        out = wirtinger(inner, "dz")
        return mul_radial(out, lam ** ((p - 1) / 2.0)) if p != 1 else out
    if which == "L":
        inner = mul_radial(f, lam ** (p / 2.0)) if p else f
        out = wirtinger(inner, "dzbar")
        return mul_radial(out, lam ** ((-p - 1) / 2.0))
    raise ValueError("which must be 'K' or 'L'")


def op_P(f: CollarField) -> CollarField:
    """P(f) = dz(lambda^-1 dz f), equal to K_1 K_0 f on functions."""
    return wirtinger(mul_radial(wirtinger(f, "dz"), f.grid.inv_lam), "dz")


def op_P_bar(f: CollarField) -> CollarField:
    """conj-P(f) = dzbar(lambda^-1 dzbar f)."""
    return wirtinger(mul_radial(wirtinger(f, "dzbar"), f.grid.inv_lam), "dzbar")


def box(f: CollarField) -> CollarField:
    """box f = -lambda^-1 dz dzbar f, per-mode radial form."""
    g = f.grid
    u = f.collar.u
    s = 0.5 * g.sin_tau**2
    out = {}
    for n, v in f.modes.items():
        out[n] = -s * (g.dtau(v, 2) - (n / u) ** 2 * v)
    return CollarField(f.collar, f.grid, out, truncated=f.truncated)


def xi(a_field: CollarField, f: CollarField, route: str = "primary") -> CollarField:
    """xi along the Beltrami field A: -lambda^-1 dz(A dz f).

    route='harmonic' uses -A P(f) instead, valid when dz(lambda A) = 0;
    the two agree for harmonic A and provide a cross-check.
    """
    if route == "primary":
        inner = a_field * wirtinger(f, "dz")
        return mul_radial(wirtinger(inner, "dz"), -f.grid.inv_lam)
    if route == "harmonic":
        return (a_field * op_P(f)).scale(-1.0)
    raise ValueError("route must be 'primary' or 'harmonic'")


def q_operator(e_kl: CollarField, f_kl: CollarField, f: CollarField) -> CollarField:
    """Q_{k lbar}(f) built from the pair (e_{k lbar}, f_{k lbar})."""
    t1 = op_P_bar(e_kl) * op_P(f)
    t2 = (f_kl * box(f)).scale(-2.0)
    t3 = mul_radial(wirtinger(f_kl, "dz") * wirtinger(f, "dzbar"), f.grid.inv_lam)
    return t1 + t2 + t3


# -- symmetrizers ----------------------------------------------------------

def symmetrize_terms(kind: str, i, k, a, j, l, b) -> list[tuple]:
    """Index tuples (i, k, a, j, l, b) generated by a symmetrizer.

    kind 's1'   : 6 orderings of the unbarred triple (i, k, a);
    kind 's1s2' : those times the 2 orderings of (j, b), 12 in all;
    kind 's1t'  : 6 orderings of the barred triple (j, l, b).
    """
    if kind == "s1":
        return [(vi, vk, va, j, l, b)
                for vi, vk, va in itertools.permutations((i, k, a))]
    if kind == "s1s2":
        return [(vi, vk, va, vj, l, vb)
                for vi, vk, va in itertools.permutations((i, k, a))
                for vj, vb in ((j, b), (b, j))]
    if kind == "s1t":
        return [(i, k, a, vj, vl, vb)
                for vj, vl, vb in itertools.permutations((j, l, b))]
    raise ValueError(f"unknown symmetrizer {kind!r}")


# -- norms ----------------------------------------------------------------

def _compositions(k: int):
    """All Maass compositions of length <= k starting at weight 0."""
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


def ck_norm(f: CollarField, k: int) -> float:
    """C^k norm of a function: sum of sup norms over all <= k-fold Maass
    compositions."""
    if k < 0 or k > 2:
        raise ValueError("k must be 0, 1 or 2")
    total = 0.0
    for chain in _compositions(k):
        g = f
        for which, w in chain:
            g = maass(g, w, which)
        total += g.sup_norm()
    return total
