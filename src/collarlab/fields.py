"""Scalar fields on a collar: angular Fourier modes times radial samples.

A field f(z) = sum_n F_n(tau) e^{i n theta} is stored as a dict mode ->
complex profile on the collar's TauGrid.  Products convolve modes; the
volume element only sees mode 0:

    integral f dv = pi u * integral F_0(tau) csc^2(tau) dtau.

Wirtinger derivatives shift modes by one:

    dz    : F_n -> (u F_n' + n F_n) / (2 r)   placed in mode n - 1,
    dzbar : F_n -> (u F_n' - n F_n) / (2 r)   placed in mode n + 1,

with F' the tau-derivative (dr = (r/u) dtau).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass, field, replace

import numpy as np

from .collar import STENCIL, CollarParams, TauGrid, stencil_weights

BANDWIDTH = 24  # modes kept by products: |n| <= 24 (2K + 8 with K = 8)


class BandwidthWarning(UserWarning):
    pass


class UnderResolvedError(ValueError):
    pass


@dataclass(eq=False)  # hashed by identity: memos key fields by their inputs
class CollarField:
    collar: CollarParams
    grid: TauGrid
    modes: dict[int, np.ndarray] = field(default_factory=dict)
    _: KW_ONLY
    truncated: bool = False
    # set by green.solve_T: max over modes of max|A x - b| divided by max
    # over modes of max|b|; linear-algebra error, not discretisation error
    residual_sup: float | None = None

    def __post_init__(self):
        # mode profiles are complex128 arrays: a dict of them is kept as
        # passed, any other is copied with every mode cast
        if not all(getattr(v, "dtype", None) == complex
                   for v in self.modes.values()):
            self.modes = {n: np.asarray(v, dtype=complex)
                          for n, v in self.modes.items()}

    def copy(self) -> "CollarField":
        return replace(self, modes={n: v.copy() for n, v in self.modes.items()})

    def profile(self, n: int) -> np.ndarray:
        """Mode-n radial profile (zeros if absent)."""
        v = self.modes.get(n)
        if v is None:
            return np.zeros(self.grid.n, dtype=complex)
        return v

    def set_mode(self, n: int, values) -> "CollarField":
        self.modes[n] = np.asarray(values, dtype=complex)
        return self

    def at(self, r, theta) -> complex:
        """Pointwise value for spot checks.

        Radial profiles are interpolated with the order-0 weights of
        ``collar.stencil_weights`` on the 9-node stencil nearest to r.
        """
        tau = self.collar.tau_of_r(r)
        x = self.grid.nodes
        s = min(max(np.searchsorted(x, tau) - STENCIL // 2, 0),
                self.grid.n - STENCIL)
        w = stencil_weights(x, [s], STENCIL, tau, 0)[0, :, 0]
        val = 0.0 + 0.0j
        for n, prof in self.modes.items():
            val += np.dot(w, prof[s : s + STENCIL]) * np.exp(1j * n * theta)
        return val

    def sup_norm(self) -> float:
        """Sup over grid nodes of |f|; crude angular max via mode moduli.

        The triangle-inequality bound sum_n |F_n| is exact for fields with
        a single mode and a sharp upper envelope otherwise.
        """
        if not self.modes:
            return 0.0
        acc = np.zeros(self.grid.n)
        for v in self.modes.values():
            acc += np.abs(v)
        return float(acc.max())

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "CollarField") -> "CollarField":
        _check_same(self, other)
        out = {n: v.copy() for n, v in self.modes.items()}
        for n, v in other.modes.items():
            if n in out:
                out[n] = out[n] + v
            else:
                out[n] = v.copy()
        return CollarField(self.collar, self.grid, out,
                           truncated=self.truncated or other.truncated)

    def __sub__(self, other: "CollarField") -> "CollarField":
        return self + other.scale(-1.0)

    def __mul__(self, other: "CollarField") -> "CollarField":
        _check_same(self, other)
        out: dict[int, np.ndarray] = {}
        truncated = self.truncated or other.truncated
        for n1, v1 in self.modes.items():
            for n2, v2 in other.modes.items():
                n = n1 + n2
                if abs(n) > BANDWIDTH:
                    truncated = True
                    continue
                if n in out:
                    out[n] = out[n] + v1 * v2
                else:
                    out[n] = v1 * v2
        if truncated and not (self.truncated or other.truncated):
            warnings.warn("mode bandwidth exceeded; product truncated",
                          BandwidthWarning, stacklevel=2)
        return CollarField(self.collar, self.grid, out, truncated=truncated)

    def scale(self, a: complex) -> "CollarField":
        return CollarField(self.collar, self.grid,
                           {n: a * v for n, v in self.modes.items()},
                           truncated=self.truncated)

    def conj(self) -> "CollarField":
        return CollarField(self.collar, self.grid,
                           {-n: np.conj(v) for n, v in self.modes.items()},
                           truncated=self.truncated)


def _check_same(f: CollarField, g: CollarField):
    if f.grid is not g.grid and (f.grid.n != g.grid.n
                                 or not np.array_equal(f.grid.nodes, g.grid.nodes)):
        raise ValueError("fields live on different grids")


def constant_field(collar: CollarParams, grid: TauGrid,
                   value: complex = 1.0) -> CollarField:
    return CollarField(collar, grid, {0: np.full(grid.n, complex(value))})


def wirtinger(f: CollarField, which: str) -> CollarField:
    """dz or dzbar of a field; shifts each mode by -1 or +1."""
    if which not in ("dz", "dzbar"):
        raise ValueError("which must be 'dz' or 'dzbar'")
    if f.truncated:
        raise UnderResolvedError("refusing to differentiate a truncated field")
    u = f.collar.u
    inv2r = 0.5 / f.grid.r
    sign = 1.0 if which == "dz" else -1.0
    shift = -1 if which == "dz" else 1
    out: dict[int, np.ndarray] = {}
    for n, v in f.modes.items():
        out[n + shift] = inv2r * (u * f.grid.dtau(v) + sign * n * v)
    return CollarField(f.collar, f.grid, out)


def volume_integral(f: CollarField) -> complex:
    """Integral of f over the collar against the hyperbolic area element."""
    v0 = f.modes.get(0)
    if v0 is None:
        return 0.0 + 0.0j
    u = f.collar.u
    return math.pi * u * f.grid.integrate(v0 * f.grid._complex_csc2)


def _mode_pairs(f: CollarField, g: CollarField, conj: bool) -> complex:
    """pi u * sum_n integral F_n P_n csc^2 dtau over the modes n of f, with
    P_n = conj G_n if conj, else G_-n (absent modes are skipped).

    Each integrand is formed in one buffer, multiplied in the order
    (F_n P_n) csc^2 by the grid's complex copy of csc^2.
    """
    _check_same(f, g)
    grid = f.grid
    csc2, buf = grid._complex_csc2, np.empty(grid.n, dtype=complex)
    acc = 0.0 + 0.0j
    for n, v in f.modes.items():
        w = g.modes.get(n if conj else -n)
        if w is not None:
            np.multiply(v, np.conjugate(w, out=buf) if conj else w, out=buf)
            acc += grid.integrate(np.multiply(buf, csc2, out=buf))
    return math.pi * f.collar.u * acc


def pairing_l2(f: CollarField, g: CollarField) -> complex:
    """L2 pairing integral of f * conj(g) dv (mode-orthogonal sum)."""
    return _mode_pairs(f, g, conj=True)


def integral_product(f: CollarField, g: CollarField) -> complex:
    """Integral of f * g dv with no conjugation (modes n and -n pair up)."""
    return _mode_pairs(f, g, conj=False)
