"""Collar geometry: pinching parameters, tau grids, metric density.

Model conventions
-----------------
A collar with pinching parameter ``t`` (``0 < |t| < 1``) and cut
``c in (0, 1)`` is the annulus ``c**-1 * rho < |z| < c`` carrying the
hyperbolic metric ``lambda |dz|^2`` with

    lambda(z) = u**2 / (2 r**2 sin(tau)**2),
    u   = -pi / log|t|,    rho = exp(-pi/u) = |t|,
    tau = u log r in (-pi - u log c, u log c)  strictly inside (-pi, 0).

The geodesic core circle sits at ``r = sqrt(rho)`` (``tau = -pi/2``) and
has length ``2 pi u``.  All radial samplings live on a ``TauGrid``:
composite Gauss-Legendre panels in tau with geometric refinement toward
both ends, so that boundary layers of width ``O(u)`` (cutoff transition
zones, ``r**k`` factors) stay resolved at every supported ``u``.
``make_grid`` keeps one grid per distinct model in ``memos.GRIDS``; what
the resolvent builds on a grid is kept apart, in ``memos.RESOLVENT``.
The C-infinity cutoffs eta and eta1 that taper fields toward the collar
ends are set by radii in ``|z|`` as well, so they live here too, with
``product_rule``, the one second-order product rule tapered fields take.

The default model is the one ``collarlab run`` builds: cut ``CUT`` and
``N_TAU`` grid nodes (before panel rounding).  Every default c and n_tau
in the package reads these two constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .memos import GRIDS, memo

# Float range limits the supported pinching: r**-2 = exp(2 pi/u) must be
# representable, and intermediate 1/r profiles appear in mode shifts.
U_MIN = 0.01
U_MAX = 0.5

CUT = 0.5
N_TAU = 1024


class CollarError(ValueError):
    pass


@dataclass(frozen=True)
class CollarParams:
    """Geometry of one hyperbolic collar in the model gauge rho = |t|."""

    t: complex
    c: float

    def __post_init__(self):
        a = abs(self.t)
        if not 0.0 < a < 1.0:
            raise CollarError(f"|t| must lie in (0, 1), got {a}")
        if not 0.0 < self.c < 1.0:
            raise CollarError(f"cut c must lie in (0, 1), got {self.c}")
        u = -math.pi / math.log(a)
        if not U_MIN <= u <= U_MAX:
            raise CollarError(
                f"u = {u:.6g} outside supported range [{U_MIN}, {U_MAX}]"
            )
        if self.tau_max <= self.tau_min:
            raise CollarError("cut c too small: empty tau interval")

    @property
    def u(self) -> float:
        return -math.pi / math.log(abs(self.t))

    @property
    def rho(self) -> float:
        return abs(self.t)

    @property
    def tau_min(self) -> float:
        return -math.pi - self.u * math.log(self.c)

    @property
    def tau_max(self) -> float:
        return self.u * math.log(self.c)

    def r_of_tau(self, tau):
        return np.exp(np.asarray(tau) / self.u)

    def tau_of_r(self, r):
        return self.u * np.log(np.asarray(r))


def collar_from_t(t: complex, c: float = CUT) -> CollarParams:
    """Collar for pinching parameter t; u and rho = |t| are derived."""
    return CollarParams(t=complex(t), c=c)


def collar_from_u(u: float, c: float = CUT) -> CollarParams:
    """Collar for a target u; t is real positive, |t| = exp(-pi/u)."""
    if not U_MIN <= u <= U_MAX:
        raise CollarError(f"u = {u} outside supported range [{U_MIN}, {U_MAX}]")
    return CollarParams(t=complex(math.exp(-math.pi / u)), c=c)


# -- cutoffs ---------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff levels c2 < c1 < c (in units of |z|).

    eta  drops smoothly from 1 at log c1 to 0 at log c;
    eta1 drops smoothly from 1 at log c2 to 0 at log c1.
    Transitions are exp(-1/x) smoothsteps, infinitely flat at both ends,
    with two analytic derivatives available for box applications.
    """

    c: float = CUT
    c1: float = 0.35
    c2: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.c2 < self.c1 < self.c < 1.0:
            raise ValueError("need 0 < c2 < c1 < c < 1")


def _smoothstep(y: np.ndarray):
    """S, S', S'' of the exp(-1/y) smoothstep; S(0)=0, S(1)=1."""
    y = np.asarray(y, dtype=float)
    S = np.where(y >= 1.0, 1.0, 0.0)
    S1 = np.zeros_like(y)
    S2 = np.zeros_like(y)
    m = (y > 0.0) & (y < 1.0)
    if np.any(m):
        ym = y[m]
        a = np.exp(-1.0 / ym)
        b = np.exp(-1.0 / (1.0 - ym))
        a1 = a / ym**2
        b1 = -b / (1.0 - ym) ** 2
        a2 = a / ym**4 - 2.0 * a / ym**3
        b2 = b / (1.0 - ym) ** 4 - 2.0 * b / (1.0 - ym) ** 3
        den = a + b
        num = a1 * b - a * b1
        S[m] = a / den
        S1[m] = num / den**2
        num1 = a2 * b - a * b2
        S2[m] = (num1 * den - 2.0 * num * (a1 + b1)) / den**3
    return S, S1, S2


def cutoff_eval(spec: CutoffSpec, x, which: str = "eta"):
    """(eta, eta', eta'') at x = log r; primes are x-derivatives.

    which = 'eta' uses levels (c1, c); 'eta1' uses (c2, c1).
    """
    if which == "eta":
        hi, lo = math.log(spec.c), math.log(spec.c1)
    elif which == "eta1":
        hi, lo = math.log(spec.c1), math.log(spec.c2)
    else:
        raise ValueError("which must be 'eta' or 'eta1'")
    width = hi - lo
    y = (hi - np.asarray(x, dtype=float)) / width
    S, S1, S2 = _smoothstep(y)
    return S, -S1 / width, S2 / width**2


def taper_weights(collar: CollarParams, grid: TauGrid, spec: CutoffSpec,
                  which: str = "eta"):
    """(w, w', w'') of the two-sided taper in tau.

    Outer factor eta(log r) = eta(tau/u); inner factor eta(log rho - log r)
    mirrors it at the other end.  Primes are tau-derivatives.
    """
    u = collar.u
    x_out = grid.nodes / u
    x_in = -math.pi / u - grid.nodes / u  # log rho - log r
    o0, o1, o2 = cutoff_eval(spec, x_out, which)
    i0, i1, i2 = cutoff_eval(spec, x_in, which)
    return product_rule((o0, o1 / u, o2 / u**2), (i0, -i1 / u, i2 / u**2))


def product_rule(f, g):
    """(fg, (fg)', (fg)'') from (f, f', f'') and (g, g', g'')."""
    f0, f1, f2 = f
    g0, g1, g2 = g
    return f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + 2.0 * f1 * g1 + f0 * g2


def stencil_weights(x: np.ndarray, starts, width: int, x0, m: int) -> np.ndarray:
    """Polynomial stencil weights for many stencils at once (Fornberg 1988).

    Stencil s covers x[starts[s] : starts[s] + width] and is expanded about
    x0[s] (a scalar x0 serves every stencil).  Returns c with c[s, :, k]
    the weights of the k-th derivative at x0[s], k = 0 interpolating;
    exact for polynomials of degree < width.  The scalar recursion runs
    once, each statement vectorised over all stencils on stencil-last
    (m + 1, width, S) arrays, so every operand is a contiguous row; c is
    a transposed view of that array.
    """
    xs = x[np.arange(width)[:, None] + np.asarray(starts)]
    dx = xs - np.reshape(x0, (1, -1))
    c = np.zeros((m + 1,) + xs.shape)
    c[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, width):
        mn = min(i, m)
        c2 = 1.0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1]
                                    - dx[i - 1] * c[k, i - 1]) / c2
                c[0, i] = -c1 * dx[i - 1] * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (dx[i] * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = dx[i] * c[0, j] / c3
        c1 = c2
    return c.transpose(2, 1, 0)


STENCIL = 9  # polynomial exactness 8; >= 6th order as required


def _dirichlet_end_rows(n: int):
    """(rows, starts): the rows of the Dirichlet D2 whose stencil reaches
    an end, and where each stencil starts on the nodes extended by both
    ends (extended index j + 1 is node j)."""
    half = STENCIL // 2
    rows = np.r_[:half, n - half : n]
    return rows, np.clip(rows + 1 - half, 0, n + 2 - STENCIL)


@dataclass(eq=False)  # hashed by identity: memos key entries by their grid
class TauGrid:
    """Open-interval quadrature/differentiation grid on (tau_min, tau_max).

    nodes/weights: composite Gauss-Legendre panels (no endpoint nodes).
    Derivatives use sliding 9-node polynomial stencils on the same nodes.
    The pairings multiply complex profiles by ``_complex_csc2``, a cached
    complex copy of csc2 (16 n bytes): the same complex multiply numpy
    makes after casting csc2 anew on every call.  Derived arrays are
    memoised as cached properties; the resolvent's band and factors on
    the grid live in ``memos.RESOLVENT``.
    """

    collar: CollarParams
    nodes: np.ndarray
    weights: np.ndarray
    panel_edges: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    # -- geometry arrays -------------------------------------------------
    @functools.cached_property
    def r(self):
        return np.exp(self.nodes / self.collar.u)

    @functools.cached_property
    def sin_tau(self):
        return np.sin(self.nodes)

    @functools.cached_property
    def csc2(self):
        return 1.0 / np.sin(self.nodes) ** 2

    @functools.cached_property
    def lam(self):
        u = self.collar.u
        return 0.5 * u**2 * np.exp(-2 * self.nodes / u) / np.sin(self.nodes) ** 2

    @functools.cached_property
    def inv_lam(self):
        u = self.collar.u
        return 2.0 * np.exp(2 * self.nodes / u) * np.sin(self.nodes) ** 2 / u**2

    @functools.cached_property
    def _complex_weights(self):
        return self.weights.astype(complex)

    @functools.cached_property
    def _complex_csc2(self):
        return self.csc2.astype(complex)

    # -- quadrature ------------------------------------------------------
    def integrate(self, values) -> complex:
        """Integral over the tau interval of a sampled profile.

        A complex profile is dotted with a cached complex copy of the
        weights: the same zdotu numpy would call after casting them anew.
        """
        if np.iscomplexobj(values):
            return np.dot(self._complex_weights, values)
        return np.dot(self.weights, values)

    # -- differentiation -------------------------------------------------
    @functools.cached_property
    def _stencils(self):
        """(w1, w2, end_w2): each node's first and second derivative
        weights on its stencil, (n, STENCIL) each, and the second
        derivative weights of the Dirichlet D2's end rows, (STENCIL - 1,
        STENCIL), whose stencils take the ends as ghost nodes.  Node i's
        stencil is the STENCIL consecutive nodes centred on it, clipped to
        the grid: the first and last STENCIL // 2 nodes share the first
        and last window.

        One Fornberg pass makes both sets on the nodes extended by both
        ends: a clipped stencil is the same nodes shifted by one there, so
        it gets the same weights.
        """
        n = self.n
        starts = np.clip(np.arange(n) - STENCIL // 2, 0, n - STENCIL)
        rows, end_starts = _dirichlet_end_rows(n)
        xe = np.concatenate(([self.collar.tau_min], self.nodes,
                             [self.collar.tau_max]))
        c = stencil_weights(xe, np.concatenate((starts + 1, end_starts)),
                            STENCIL, np.concatenate((self.nodes, xe[rows + 1])),
                            2)
        # contiguous copies: einsum sums strided rows in another order
        return (np.ascontiguousarray(c[:n, :, 1]),
                np.ascontiguousarray(c[:n, :, 2]),
                np.ascontiguousarray(c[n:, :, 2]))

    def dtau(self, values, order: int = 1):
        """order-th tau derivative of a sampled profile (order 1 or 2).

        The profile holds one sample per node.  Each stencil is read as a
        window of it: the windows of STENCIL consecutive samples are a
        strided view of the profile, one row per interior node, and the
        first and last STENCIL // 2 nodes take the first and last window.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        w1, w2, _ = self._stencils
        w = w1 if order == 1 else w2
        n, h = self.n, STENCIL // 2
        v = np.ascontiguousarray(values)
        if v.shape != (n,):
            raise ValueError(f"profile of shape {v.shape} on a grid of "
                             f"shape {(n,)}")
        windows = np.ndarray((n - 2 * h, STENCIL), v.dtype, v,
                             strides=(v.itemsize, v.itemsize))
        out = np.empty(n, np.result_type(w, v))
        np.einsum("ij,ij->i", w[h : n - h], windows, out=out[h : n - h])
        np.einsum("ij,j->i", w[:h], windows[0], out=out[:h])
        np.einsum("ij,j->i", w[n - h :], windows[-1], out=out[n - h :])
        return out

    def d2_banded_dirichlet(self):
        """Second-derivative operator with zero Dirichlet ends.

        Stencils near the interval ends include the endpoints as ghost
        nodes pinned to zero (their columns are dropped).  Every row is
        read from ``_stencils``: the end rows from its ghost-node stencils,
        every other row from its second-derivative weights (the same nodes
        about the same centre, so the same weights), written diagonal by
        diagonal: weight k of interior row i lies on diagonal
        bw + STENCIL // 2 - k.  Returned in LAPACK banded storage:
        (ab, (l, u)) with ab[u + i - j, j] = D2[i, j].  Built afresh on
        each call; the resolvent keeps what it needs of it.
        """
        n = self.n
        bw = STENCIL - 1
        half = STENCIL // 2
        ab = np.zeros((2 * bw + 1, n))
        _, w2, end_w2 = self._stencils
        for k in range(STENCIL):
            ab[bw + half - k, k : k + n - 2 * half] = w2[half : n - half, k]
        i, starts = _dirichlet_end_rows(n)
        j = starts[:, None] + np.arange(STENCIL) - 1  # interior column index
        keep = (j >= 0) & (j < n)
        ab[(bw + i[:, None] - j)[keep], j[keep]] = end_w2[keep]
        return ab, (bw, bw)


def make_grid(collar: CollarParams, n_tau: int = N_TAU, nodes_per_panel: int = 10) -> TauGrid:
    """Composite Gauss grid for a collar; equal arguments share one TauGrid,
    kept in ``memos.GRIDS``.

    Callers treat it as read-only.  Panel widths shrink geometrically toward
    both interval ends, starting at ~0.02 u (finer than any cutoff
    transition zone) and doubling until they reach the uniform interior
    width.
    """
    return memo(GRIDS, (collar, n_tau, nodes_per_panel),
                lambda: _build_grid(collar, n_tau, nodes_per_panel))


def _build_grid(collar: CollarParams, n_tau: int, nodes_per_panel: int) -> TauGrid:
    if n_tau < 64:
        raise CollarError("n_tau too small (need >= 64)")
    a, b = collar.tau_min, collar.tau_max
    length = b - a
    p = nodes_per_panel
    total_panels = max(8, int(round(n_tau / p)))
    w0 = 0.02 * collar.u

    # fixed point: interior width consistent with cascade panel count
    n_casc = 0
    for _ in range(8):
        interior = max(4, total_panels - 2 * n_casc)
        w_int = length / interior
        k = 0
        w = w0
        acc = 0.0
        while w < w_int and acc + w < 0.25 * length:
            acc += w
            w *= 2.0
            k += 1
        if k == n_casc:
            break
        n_casc = k

    casc = w0 * 2.0 ** np.arange(n_casc) if n_casc else np.zeros(0)
    left = a + np.concatenate(([0.0], np.cumsum(casc)))
    right = b - np.concatenate(([0.0], np.cumsum(casc)))[::-1]
    mid_lo, mid_hi = left[-1], right[0]
    n_mid = max(2, total_panels - 2 * n_casc)
    mid = np.linspace(mid_lo, mid_hi, n_mid + 1)
    # linspace pins both ends, so left[-1] == mid[0] and mid[-1] == right[0]
    edges = np.concatenate((left[:-1], mid, right[1:]))

    xg, wg = np.polynomial.legendre.leggauss(p)
    half_w = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half_w[:, None] * xg[None, :]).ravel()
    weights = (half_w[:, None] * wg[None, :]).ravel()
    return TauGrid(collar, nodes, weights, edges)
