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
from .memos import memo


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


def op_P(f: CollarField, pieces: dict | None = None) -> CollarField:
    """P(f) = dz(lambda^-1 dz f), equal to K_1 K_0 f on functions; pieces,
    if given, memoises dz f (see ``_piece``)."""
    return wirtinger(mul_radial(_piece(f, "dz", pieces), f.grid.inv_lam), "dz")


def op_P_bar(f: CollarField, pieces: dict | None = None) -> CollarField:
    """conj-P(f) = dzbar(lambda^-1 dzbar f); pieces as in ``op_P``."""
    return wirtinger(mul_radial(_piece(f, "dzbar", pieces), f.grid.inv_lam),
                     "dzbar")


def box(f: CollarField) -> CollarField:
    """box f = -lambda^-1 dz dzbar f, per-mode radial form."""
    g = f.grid
    u = f.collar.u
    s = 0.5 * g.sin_tau**2
    out = {}
    for n, v in f.modes.items():
        out[n] = -s * (g.dtau(v, 2) - (n / u) ** 2 * v)
    return CollarField(f.collar, f.grid, out, truncated=f.truncated)


def _piece(f: CollarField, kind: str, pieces: dict | None = None) -> CollarField:
    """One derivative piece of f: 'dz', 'dzbar', 'box', 'P' or 'Pbar'.

    With a dict, pieces memoises them under (kind, f), the first derivative
    inside P and Pbar included; f, hashed by identity, must not change.
    """
    def build():
        if kind == "P":
            return op_P(f, pieces)
        if kind == "Pbar":
            return op_P_bar(f, pieces)
        if kind == "box":
            return box(f)
        return wirtinger(f, kind)
    return build() if pieces is None else memo(pieces, (kind, f), build)


def xi(a_field: CollarField, f: CollarField, route: str = "primary",
       pieces: dict | None = None) -> CollarField:
    """xi along the Beltrami field A: -lambda^-1 dz(A dz f).

    route='harmonic' uses -A P(f) instead, valid when dz(lambda A) = 0;
    the two agree for harmonic A and provide a cross-check.  pieces, if
    given, memoises the derivatives of f (see ``_piece``).
    """
    if route == "primary":
        inner = a_field * _piece(f, "dz", pieces)
        return mul_radial(wirtinger(inner, "dz"), -f.grid.inv_lam)
    if route == "harmonic":
        return (a_field * _piece(f, "P", pieces)).scale(-1.0)
    raise ValueError("route must be 'primary' or 'harmonic'")


def q_operator(e_kl: CollarField, f_kl: CollarField, f: CollarField,
               pieces: dict | None = None) -> CollarField:
    """Q_{k lbar}(f) built from the pair (e_{k lbar}, f_{k lbar}); pieces,
    if given, memoises the derivatives of e_kl, f_kl and f (see ``_piece``)."""
    t1 = _piece(e_kl, "Pbar", pieces) * _piece(f, "P", pieces)
    t2 = (f_kl * _piece(f, "box", pieces)).scale(-2.0)
    t3 = mul_radial(_piece(f_kl, "dz", pieces) * _piece(f, "dzbar", pieces),
                    f.grid.inv_lam)
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
