"""Maass-type operators, the xi and Q operators, C^k norms.

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


# -- norms ----------------------------------------------------------------

def ck_norm(f: CollarField, k: int) -> float:
    """C^k norm of a function: sum of sup norms over all <= k-fold Maass
    compositions, each level built from the one before, shortest first and
    K before L."""
    if k < 0 or k > 2:
        raise ValueError("k must be 0, 1 or 2")
    level = [(f, 0)]  # the compositions of one length, with their weights
    total = f.sup_norm()
    for _ in range(k):
        level = [(maass(g, w, which), w + step) for g, w in level
                 for which, step in (("K", 1), ("L", -1))]
        for g, _w in level:
            total += g.sup_norm()
    return total
