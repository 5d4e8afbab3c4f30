"""Tapered approximants, power-law fits, length checks, composite checks.

The model's leading-order laws, value(u) = constant * u**exponent *
(1 + O(u)), are the rows of ``collarlab.targets``.  This module holds the
closed-form approximant fields (tapered by the cutoffs of
``collarlab.collar``), the power-law fitting used to verify decay orders,
the geodesic-length derivative check, and the composite checks that run
the curvature workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collar import (CUT, N_TAU, CollarParams, CutoffSpec, TauGrid,
                     collar_from_u, make_grid, product_rule, taper_weights)
from .curvature import CurvatureWorkspace
from .fields import CollarField, integral_product, pairing_l2
from .green import SolverConfig, solve_T
from .memos import cache_scope
from .operators import maass
from .targets import target

PI = math.pi


# -- approximant fields ----------------------------------------------------

@dataclass
class Approximants:
    """Closed-form approximants of the diagonal e-field chain on one collar.

    etilde    ~ e_{i ibar}: (1/2) sin^2 tau |b|^2 with eta tapers,
    ftilde    = (box + 1) etilde, analytic (taper derivatives included),
    d         ~ T(xi_i(etilde)): -(1/8) sin^2 tau cos 2tau |b|^2 conj(b),
                with eta1 tapers,
    box1_d    = (box + 1) d, analytic,
    xi_etilde = xi_i(etilde), analytic; equals box1_d away from the
                taper transition zones.
    """

    etilde: CollarField
    ftilde: CollarField
    d: CollarField
    box1_d: CollarField
    xi_etilde: CollarField


def build_approximants(collar: CollarParams, grid: TauGrid, b_hat: complex,
                       spec: CutoffSpec | None = None) -> Approximants:
    spec = spec or CutoffSpec()
    tau = grid.nodes
    sin2 = np.sin(tau) ** 2
    s2 = np.sin(2.0 * tau)
    babs2 = abs(b_hat) ** 2

    G = (0.5 * babs2 * sin2, 0.5 * babs2 * s2, babs2 * np.cos(2.0 * tau))
    e0, e1, e2 = product_rule(G, taper_weights(collar, grid, spec, "eta"))
    ftl = -0.5 * sin2 * e2 + e0
    xi_prof = -0.5 * np.conj(b_hat) * sin2 * (s2 * e1 + sin2 * e2)

    v = taper_weights(collar, grid, spec, "eta1")
    coef = -0.125 * babs2 * np.conj(b_hat)
    h = (sin2 * np.cos(2.0 * tau), -s2 + np.sin(4.0 * tau),
         -2.0 * np.cos(2.0 * tau) + 4.0 * np.cos(4.0 * tau))
    d0 = coef * h[0] * v[0]  # not coef * (h v): that rounds differently
    d2 = coef * product_rule(h, v)[2]
    box1_d = -0.5 * sin2 * d2 + d0

    mk = lambda prof: CollarField(collar, grid, {0: prof})
    return Approximants(etilde=mk(e0), ftilde=mk(ftl), d=mk(d0),
                        box1_d=mk(box1_d), xi_etilde=mk(xi_prof))


# -- power-law fitting -----------------------------------------------------

class DegenerateFitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    exponent: float
    r2: float


def fit_power_law(samples) -> FitResult:
    """Fit value ~ C u^p from (u, value) samples, u strictly decreasing.

    The exponent comes from tail-weighted log-log least squares (smaller u
    weighted harder, since the laws hold as u -> 0).
    """
    us = np.array([s[0] for s in samples], dtype=float)
    vs = np.array([abs(s[1]) for s in samples], dtype=float)
    if len(us) < 4:
        raise DegenerateFitError("need at least 4 samples")
    if not np.all(np.diff(us) < 0):
        raise DegenerateFitError("u values must be strictly decreasing")
    if np.any(vs <= 0.0):
        raise DegenerateFitError("values must be nonzero")
    lu = np.log(us)
    lv = np.log(vs)
    wts = 1.0 / us
    wts = wts / wts.sum()
    mu_x = np.sum(wts * lu)
    mu_y = np.sum(wts * lv)
    sxx = np.sum(wts * (lu - mu_x) ** 2)
    sxy = np.sum(wts * (lu - mu_x) * (lv - mu_y))
    p = sxy / sxx
    resid = lv - (mu_y + p * (lu - mu_x))
    ss_tot = np.sum(wts * (lv - mu_y) ** 2)
    r2 = 1.0 - np.sum(wts * resid**2) / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.9:
        raise DegenerateFitError(f"degenerate fit (r^2 = {r2:.3f})")
    return FitResult(exponent=float(p), r2=float(r2))


# -- geodesic length -------------------------------------------------------

def geodesic_length(t_abs: float) -> float:
    """Length of the core geodesic: 2 pi u = -2 pi^2 / log |t|."""
    return -2.0 * PI**2 / math.log(t_abs)


def length_derivative_fd(t: float) -> float:
    """Holomorphic-derivative finite difference of the length at real t.

    The length depends on |t| only, so the real-axis central difference
    (relative step 1e-6) equals twice the holomorphic derivative.
    """
    h = 1e-6 * t
    return 0.5 * (geodesic_length(t + h) - geodesic_length(t - h)) / (2.0 * h)


def length_derivative_check(u_values) -> list[dict]:
    """Compare FD of the length against -pi u conj(b) = u^2/t (true units)."""
    out = []
    for u in u_values:
        t = math.exp(-PI / u)
        fd = length_derivative_fd(t)
        pred = u**2 / t
        out.append({
            "u": u, "t_abs": t, "fd": fd, "predicted": pred,
            "rel_err": abs(fd - pred) / abs(fd),
        })
    return out


# -- composite checks ------------------------------------------------------

def perturbed_prediction(u: float, C: float) -> float:
    """Closed-form diagonal curvature of the perturbed family, scaled.

    Blocks a, b and d keep their g1-term rows; the dual-contraction block c
    picks up the factor 1/(1 + 2 pi^2 C u / 3), and the extra term adds C
    times the first-metric curvature (row wp-curv-diag).
    """
    a, b, c, d = (target(f"g1-term-{k}").constant for k in (1, 2, 3, 4))
    wp = target("wp-curv-diag")
    quartic = a + b + d + c / (1.0 + 2.0 * PI**2 * C * u / 3.0)
    return quartic * u**4 + C * wp.constant * u**wp.exponent


def approximant_errors(u: float, c: float = CUT, n_tau: int = N_TAU) -> dict:
    """Sup-norm errors and pairings of the closed-form approximant chain.

    err_e : ||e - etilde||_0, solver e against the tapered approximant;
    err_xi: ||xi(etilde) - (box+1)d||_0, both sides analytic;
    err_T : ||T(xi(etilde)) - d||_0;
    ef    : int etilde ftilde dv;
    k0    : int |K_0 etilde|^2 (2 etilde - 4 ftilde) dv;
    xi_e  : int xi(etilde) etilde dv.
    """
    ws = CurvatureWorkspace.single_collar(u, c=c, n_tau=n_tau)
    col, grid = ws.system.collars[0], ws.system.grids[0]
    b_hat = ws.bspec.entries[(0, 0)]
    ap = build_approximants(col, grid, b_hat, ws.cutoff)
    err_e = (ws.e_pair(0, 0, 0) - ap.etilde).sup_norm()
    err_xi = (ap.xi_etilde - ap.box1_d).sup_norm()
    T_xi = solve_T(ap.xi_etilde, SolverConfig(warn_support=False))
    err_T = (T_xi - ap.d).sup_norm()
    k0e = maass(ap.etilde, 0, "K")
    combo = ap.etilde.scale(2.0) - ap.ftilde.scale(4.0)
    return {
        "err_e": err_e,
        "err_xi": err_xi,
        "err_T": err_T,
        "ef": integral_product(ap.etilde, ap.ftilde),
        "k0": integral_product(k0e * k0e.conj(), combo),
        "xi_e": integral_product(ap.xi_etilde, ap.etilde),
    }


def g2_spotcheck(u_values=(0.1, 0.07, 0.05, 0.035, 0.025), kappa: float = 1.0,
                 c: float = CUT, n_tau: int = N_TAU) -> dict:
    """Decay of the cross-collar curvature remainder on a two-collar family.

    case-1: coupling shift of the diagonal entry (kappa on vs off);
    case-2/3/4: mixed quadruples (0,0,0,1), (0,0,1,1), (0,1,0,1).
    All four vanish identically at kappa = 0 and decay faster than the
    diagonal u^4 law; fits use |entry| against u.  Each u's two models
    are built in a ``cache_scope`` and freed once their entries are taken.
    """
    cases = {f"case-{k}": [] for k in (1, 2, 3, 4)}
    for u in u_values:
        with cache_scope():
            ws = CurvatureWorkspace.from_u_values([u, u], c=c, n_tau=n_tau,
                                                  kappa=kappa)
            ws0 = CurvatureWorkspace.from_u_values([u, u], c=c, n_tau=n_tau,
                                                   kappa=0.0)
            diag = (ws.ricci_curvature(0, 0, 0, 0)
                    - ws0.ricci_curvature(0, 0, 0, 0))
            cases["case-1"].append((u, abs(diag)))
            cases["case-2"].append((u, abs(ws.ricci_curvature(0, 0, 0, 1))))
            cases["case-3"].append((u, abs(ws.ricci_curvature(0, 0, 1, 1))))
            cases["case-4"].append((u, abs(ws.ricci_curvature(0, 1, 0, 1))))
    out = {}
    for case, samples in cases.items():
        try:
            fit = fit_power_law(samples)
        except DegenerateFitError:
            fit = None
        out[case] = {"samples": samples, "fit": fit}
    return out


def zero_coupling_residual(u: float = 0.05, c: float = CUT,
                           n_tau: int = N_TAU) -> float:
    """Largest mixed curvature entry of the two-collar family at kappa = 0."""
    ws = CurvatureWorkspace.from_u_values([u, u], c=c, n_tau=n_tau, kappa=0.0)
    vals = [abs(ws.ricci_curvature(0, 0, 0, 1)),
            abs(ws.ricci_curvature(0, 0, 1, 1)),
            abs(ws.ricci_curvature(0, 1, 0, 1)),
            abs(ws.R(0, 0, 0, 1))]
    return max(vals)


def equivalence_ratios(u: float, c: float = CUT, n_tau: int = N_TAU,
                       workspace=None) -> dict:
    """Ratios locating the Ricci metric between the two comparison metrics.

    poincare: tau_{ii} / [1/(4 |t|^2 log^2|t|)] -> 3,
    mcmullen: [h_{ii} + (1/4)|b_i|^2] / tau_{ii} -> 1/3,
    both computed in the scaled gauge where the |t| powers cancel.
    """
    if workspace is None:
        workspace = CurvatureWorkspace.single_collar(u, c=c, n_tau=n_tau)
    tau_ii = workspace.tau().values[0, 0].real
    h_ii = workspace.h().values[0, 0].real
    b_hat = workspace.bspec.entries[(0, 0)]
    poincare = tau_ii * 4.0 * PI**2 / u**2
    mcmullen = (h_ii + 0.25 * abs(b_hat) ** 2) / tau_ii
    return {"poincare": poincare, "mcmullen": mcmullen}


def relative_change(a: complex, b: complex) -> float:
    """|a - b| / max(|a|, |b|); 0 when both are 0."""
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0 else 0.0


def bc_sensitivity_check(u: float, c: float = CUT, n_tau: int = N_TAU) -> float:
    """Relative change of int (T ftilde) etilde dv under the c -> 0.9c re-cut.

    Uses an inner cutoff spec (its c at 0.9c) so the input vanishes smoothly
    at both walls of both cuts; quantifies the Dirichlet-truncation bias of
    the solver.
    """
    spec = CutoffSpec(c=0.9 * c)
    vals = []
    for cut in (c, 0.9 * c):
        col = collar_from_u(u, c=cut)
        grid = make_grid(col, n_tau)
        b_hat = -u / PI
        ap = build_approximants(col, grid, b_hat, spec)
        Tf = solve_T(ap.ftilde, SolverConfig(warn_support=False))
        vals.append(pairing_l2(Tf, ap.etilde))
    return relative_change(vals[0], vals[1])
