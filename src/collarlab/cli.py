"""Config-driven verification harness.

Builds model families, runs the named check suites over geometric u-sweeps,
asserts tolerance bands, and writes CSV / JSON / markdown / SVG reports.

Exit codes: 0 all checks pass, 1 tolerance failure, 2 config or I/O error.
CSV and JSON outputs are bit-deterministic for a fixed config (wall-clock
timings appear only in the markdown summary).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics as asym
from .collar import (CUT, N_TAU, CollarError, CutoffSpec, U_MIN,
                     collar_from_u, cutoff_eval, make_grid)
from .curvature import CurvatureWorkspace, upper_index
from .differentials import diagonal_family, wp_cometric
from .fields import CollarField, constant_field, pairing_l2, volume_integral
from .green import LAPACK_SOURCE, SolverConfig, solve_T
from .memos import _STORES, cache_scope, cache_stats
from .operators import ck_norm, maass
from .targets import law, target

PI = math.pi

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

# default of each "tolerances" key; a callable default is a function of u.
# Keys are check ids, except g1-terms and perturbed-diag (families).
_u2, _u3 = (lambda u: 2 * u), (lambda u: 3 * u)
DEFAULT_TOLERANCES = {
    "calculus-sin2": 1e-10, "calculus-sin2-band": _u2, "calculus-exp": 1e-10,
    "calculus-area": 1e-10, "wp-metric-diag": _u3, "wp-cometric-diag": _u3,
    "wp-cometric-spot": 1e-3, "ricci-diag": 0.15, "spectral-lower": 1e-10,
    "spectral-upper": 1e-10, "residual": 1e-6, "self-adjoint": 1e-8,
    "bc-sensitivity": 0.05, "ef-pairing": 0.15, "k0-pairing": 0.15,
    "xi-pairing": 0.15, "eta2-mass-constant": 0.01, "g1-terms": 0.15,
    "t-pairing": 0.15, "perturbed-diag": 0.15, "det-structure": 0.15,
    "length-derivative": _u3, "length-spot": 0.01, "poincare-variation": 0.10,
    "mcmullen-variation": 0.10, "zero-coupling": 1e-14,
}
TOLERANCE_KEYS = tuple(DEFAULT_TOLERANCES)


class ConfigError(ValueError):
    pass


# -- configuration ----------------------------------------------------------

def _typed(kind, value):
    """`value` as `kind` if it has that JSON type. A kind is float (any
    number), int, str, [kind] (a list, made a tuple) or {str: kind} (an
    object); a boolean is neither a number nor an integer."""
    if isinstance(kind, list):
        return tuple(_typed(kind[0], v) for v in _typed(list, value))
    if isinstance(kind, dict):
        (item,) = kind.values()
        return {k: _typed(item, v) for k, v in _typed(dict, value).items()}
    json_types = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, json_types):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


# every config key, as its path in the JSON object: the RunConfig field it
# sets and the kind _typed takes its value as (defaults live on RunConfig)
_KEYS = {
    ("grid", "n_tau"): ("n_tau", int),
    ("sweep", "u_min"): ("u_min", float),
    ("sweep", "u_max"): ("u_max", float),
    ("sweep", "points"): ("points", int),
    ("c",): ("c", float),
    ("suites",): ("suites", [str]),
    ("tolerances",): ("tolerances", {str: float}),
    ("perturbation", "C"): ("perturbation_C", [float]),
    ("coupling", "kappa"): ("kappa", float),
    ("output", "directory"): ("out_dir", str),
    ("output", "formats"): ("formats", [str]),
    ("seed",): ("seed", int),
}
_SECTIONS = {path[0] for path in _KEYS if len(path) == 2}


def _read_config(path: str) -> dict:
    """Raw JSON config from a file; its root must be an object."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


@dataclass
class RunConfig:
    n_tau: int = N_TAU
    u_min: float = 0.025
    u_max: float = 0.1
    points: int = 5
    c: float = CUT
    suites: tuple = field(default_factory=lambda: SUITE_IDS)
    tolerances: dict = field(default_factory=dict)
    perturbation_C: tuple = (1.0, 10.0)
    kappa: float = 1.0
    out_dir: str = "collarlab-out"
    formats: tuple = ("csv", "json", "markdown")
    seed: int = 1234

    def validate(self) -> "RunConfig":
        if not self.u_min < self.u_max <= 0.15:
            raise ConfigError("sweep requires u_min < u_max <= 0.15")
        if self.u_min < U_MIN:
            raise ConfigError(f"u_min below the resolvable floor {U_MIN}")
        # the caps turn a mistyped size into a config error, not an allocation
        if not 4 <= self.points <= 64:
            raise ConfigError("sweep needs 4 to 64 points")
        if not 512 <= self.n_tau <= 16384:
            raise ConfigError("n_tau must lie in [512, 16384]")
        bad = [s for s in self.suites if s not in SUITE_IDS]
        if bad:
            raise ConfigError(f"unknown suites: {', '.join(bad)}")
        bad = sorted(set(self.tolerances) - set(TOLERANCE_KEYS))
        if bad:
            raise ConfigError(f"unknown tolerance keys: {', '.join(bad)}")
        if not all(t >= 0 for t in self.tolerances.values()):
            raise ConfigError("tolerances must be nonnegative, not NaN")
        bad = [f for f in self.formats
               if f not in ("csv", "json", "markdown", "svg-lines")]
        if bad:
            raise ConfigError(f"unknown formats: {', '.join(bad)}")
        # below the taper's outer level eta never reaches 0 on the collar
        if not CutoffSpec().c <= self.c < 1.0:
            raise ConfigError(f"cutoff c must lie in [{CutoffSpec().c}, 1)")
        if not self.perturbation_C:
            raise ConfigError("perturbation.C needs at least one value")
        if not (all(0 < C < math.inf for C in self.perturbation_C)
                and math.isfinite(self.kappa)):
            raise ConfigError("perturbation.C must be positive and finite, "
                              "coupling.kappa finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        flat = {}
        for name, value in raw.items():
            if name not in _SECTIONS:
                flat[(name,)] = value
            elif isinstance(value, dict):
                flat.update(((name, k), v) for k, v in value.items())
            else:
                raise ConfigError(f"config key {name!r} must be a JSON object")
        bad = sorted(".".join(path) for path in set(flat) - set(_KEYS))
        if bad:
            raise ConfigError(f"unknown config keys: {', '.join(bad)}")
        values = {}
        for path, value in flat.items():
            name, kind = _KEYS[path]
            try:
                values[name] = _typed(kind, value)
            except (TypeError, OverflowError) as exc:
                raise ConfigError(f"malformed config value "
                                  f"{'.'.join(path)}: {exc}") from exc
        return cls(**values).validate()

    def sweep_values(self) -> list:
        us = np.geomspace(self.u_max, self.u_min, self.points)
        return [float(u) for u in us]


# -- records ----------------------------------------------------------------

@dataclass
class CheckRecord:
    suite: str
    check_id: str
    u: float
    t_abs: float
    measured: complex
    target: complex
    rel_err: float
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    records: list
    wall_clock: float
    peak_rss_mb: float | None = None  # the process's, after this suite
    rss_mb: float | None = None  # the process's current RSS, at its end
    memo_entries: dict | None = None  # {store: len}, at its end

    @property
    def status(self) -> str:
        return "pass" if all(r.passed for r in self.records) else "fail"


def _record(check_id, u, measured, target, tol, *, floor=False) -> CheckRecord:
    """Build a record by one of two rules.

    rel_err is |measured - target| / |target|, or |measured - target| when
    the target is 0. A floor record passes iff Re measured >= Re target
    (exponent thresholds); any other passes iff rel_err <= tol, so a NaN
    never passes. The suite is stamped on by run_suite.
    """
    measured, target = complex(measured), complex(target)
    rel = abs(measured - target)
    if target != 0:
        rel /= abs(target)
    ok = measured.real >= target.real if floor else rel <= tol
    return CheckRecord("", check_id, float(u), math.exp(-PI / u),
                       measured, target, float(rel), bool(ok))


def _tol(cfg: RunConfig, key: str, u: float) -> float:
    default = DEFAULT_TOLERANCES[key]
    return cfg.tolerances.get(key,
                              default(u) if callable(default) else default)


def _check(cfg, check_id, u, measured, target, *, key=None,
           us=None) -> CheckRecord:
    """A record gated by the tolerance of `key` (default: check_id).

    Given the sweep `us`, only its smallest u is gated; the other u values
    are reported with an infinite tolerance.
    """
    tol = math.inf
    if us is None or u == us[-1]:
        tol = _tol(cfg, key or check_id, u)
    return _record(check_id, u, measured, target, tol)


# -- suites ------------------------------------------------------------------

def _suite_verify_calculus(cfg: RunConfig) -> list:
    recs = []
    c = cfg.c
    for u in (0.1, 0.05, 0.025):
        col = collar_from_u(u, c)
        grid = make_grid(col, cfg.n_tau)
        tau = grid.nodes

        measured = grid.integrate(np.sin(tau) ** 2)
        closed = PI / 2 + u * math.log(c) - math.sin(2 * u * math.log(c)) / 2
        recs.append(_check(cfg, "calculus-sin2", u, measured, closed))
        recs.append(_check(cfg, "calculus-sin2-band", u, measured, PI / 2))

        a = 2.0 / u
        prof = np.exp(a * (tau + PI)) * np.sin(tau) ** 2
        antider = lambda s: (math.exp(a * (s + PI)) * (1.0 / (2 * a)
                             - (a * math.cos(2 * s) + 2 * math.sin(2 * s))
                             / (2 * (a * a + 4))))
        closed = antider(col.tau_max) - antider(col.tau_min)
        recs.append(_check(cfg, "calculus-exp", u, grid.integrate(prof),
                           closed))

        area = volume_integral(constant_field(col, grid, 1.0))
        closed = 2 * PI * u / math.tan(u * math.log(1.0 / c))
        recs.append(_check(cfg, "calculus-area", u, area, closed))
    return recs


def _wp_diag(u: float, cfg: RunConfig) -> tuple:
    """Diagonal WP metric and cometric entries of the shared u workspace."""
    ws = CurvatureWorkspace.single_collar(u, c=cfg.c, n_tau=cfg.n_tau)
    hc = wp_cometric(diagonal_family(ws.system)[1], ws.system)
    return ws.h().values[0, 0].real, hc.values[0, 0].real


def _suite_wp_asymptotics(cfg: RunConfig) -> list:
    recs = []
    m, c = target("wp-metric-diag"), target("wp-cometric-diag")
    for u in cfg.sweep_values():
        h, hc = _wp_diag(u, cfg)
        recs.append(_check(cfg, m.check_id, u, h / m.constant / u**m.exponent,
                           1.0))
        recs.append(_check(cfg, c.check_id, u, hc * u**-c.exponent / c.constant,
                           1.0))
    _, hc = _wp_diag(0.1, cfg)
    recs.append(_check(cfg, "wp-cometric-spot", 0.1, hc, law(c.check_id, 0.1)))
    return recs


def _suite_ricci_asymptotics(cfg: RunConfig) -> list:
    t = target("ricci-diag")
    us = cfg.sweep_values()
    recs = []
    for u in us:
        ws = CurvatureWorkspace.single_collar(u, c=cfg.c, n_tau=cfg.n_tau)
        scaled = ws.tau().values[0, 0].real / u**t.exponent
        recs.append(_check(cfg, t.check_id, u, scaled, t.constant, us=us))
    rel = [r.rel_err for r in recs]
    mono = all(b < a for a, b in zip(rel, rel[1:]))
    recs.append(_record("ricci-converging", us[-1], float(mono), 1.0, 0.0))
    return recs


def _draw(rng) -> tuple:
    """The random numbers of one compact field, in the order drawn: the
    mode-0 amplitude, frequency and offset, then per added mode pair its
    n, z, frequency and phase."""
    a, freq, b = rng.standard_normal(), rng.uniform(1, 4), rng.standard_normal()
    pairs = []
    for _ in range(2):
        n = int(rng.integers(1, 5))
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / 2
        pairs.append((n, z, rng.uniform(1, 3), rng.uniform(0, PI)))
    return a, freq, b, pairs


def _window(grid) -> tuple:
    """x, 0 to 1 across the middle 70% of the grid, and sin^4(pi x) there."""
    tau = grid.nodes
    a, b = tau[0], tau[-1]
    lo, hi = a + 0.15 * (b - a), b - 0.15 * (b - a)
    x = np.clip((tau - lo) / (hi - lo), 0.0, 1.0)
    return x, np.where((x > 0) & (x < 1), np.sin(PI * x) ** 4, 0.0)


def _compact_field(col, grid, x, window, draw) -> CollarField:
    a, freq, b, pairs = draw
    modes = {0: window * (a * np.cos(freq * PI * x) + b)}
    for n, z, freq, phase in pairs:
        prof = window * np.cos(freq * PI * x + phase)
        modes[n] = modes.get(n, 0) + z * prof
        modes[-n] = modes.get(-n, 0) + np.conj(z) * prof
    return CollarField(col, grid, modes)


def _suite_green_props(cfg: RunConfig) -> list:
    """T's spectral bounds, residual and self-adjointness on 100 seeded
    compact fields and its positivity and sup contraction on sin^4 tau,
    all at u = 0.05; stability monitors across the sweep; the boundary-cut
    sensitivity.  The positivity solve comes first, so u = 0.05's box band
    and mode-0 factor are built outside the seeded samples' ``cache_scope``,
    which frees their mode 1-4 factors: equivalence and zero-coupling read
    the mode-0 factor later."""
    recs = []
    rng = np.random.default_rng(cfg.seed)
    u = 0.05
    col = collar_from_u(u, cfg.c)
    grid = make_grid(col, cfg.n_tau)
    # positivity and sup contraction on a nonnegative full-collar input;
    # the support precondition is deliberately waived here
    pos = CollarField(col, grid, {0: np.sin(grid.nodes) ** 4})
    gp = solve_T(pos, SolverConfig(warn_support=False))
    scfg = SolverConfig()
    x, window = _window(grid)
    draws = [_draw(rng) for _ in range(100)]
    # self-adjointness pairs draw k with draw k + 50, so the two are solved
    # together and only their two (f, Tf) pairs are held
    lower, upper, resid, selfadj = [], [], [], []
    with cache_scope():
        for k in range(50):
            solved = []
            for d in (k, k + 50):
                f = _compact_field(col, grid, x, window, draws[d])
                g = solve_T(f, scfg)
                cross = pairing_l2(g, f).real
                lower.append(cross - pairing_l2(g, g).real)
                upper.append(pairing_l2(f, f).real - cross)
                resid.append(g.residual_sup / f.sup_norm())
                solved.append((f, g))
            (f0, g0), (f1, g1) = solved
            selfadj.append(asym.relative_change(pairing_l2(g0, f1),
                                                pairing_l2(f0, g1)))
    # the two spectral margins must be nonnegative up to slack; np.min and
    # np.max, unlike min() and max(), carry a NaN sample through to the gate
    for key, margins in (("spectral-lower", lower), ("spectral-upper", upper)):
        recs.append(_record(key, u, float(np.min(margins)), -_tol(cfg, key, u),
                            0.0, floor=True))
    recs.append(_check(cfg, "residual", u, float(np.max(resid)), 0.0))
    recs.append(_check(cfg, "self-adjoint", u, float(np.max(selfadj)), 0.0))
    recs.append(_record("positivity", u, float(gp.modes[0].real.min()),
                        -1e-12, 0.0, floor=True))
    recs.append(_record("sup-contraction", u, pos.sup_norm() - gp.sup_norm(),
                        0.0, 0.0, floor=True))

    # stability monitors across the sweep, ungated
    for u_s in cfg.sweep_values():
        col_s = collar_from_u(u_s, cfg.c)
        grid_s = make_grid(col_s, cfg.n_tau)
        ap = asym.build_approximants(col_s, grid_s, -u_s / PI)
        g = solve_T(ap.ftilde, SolverConfig(warn_support=False))
        kg, kf = maass(g, 0, "K"), maass(ap.ftilde, 0, "K")
        num = math.sqrt(abs(pairing_l2(kg, kg)))
        den = math.sqrt(abs(pairing_l2(kf, kf)))
        recs.append(_record("mode-energy-ratio", u_s, num / den, 0.0, math.inf))
        recs.append(_record("schauder-ratio", u_s,
                            ck_norm(g, 2) / ck_norm(ap.ftilde, 1), 0.0,
                            math.inf))
    recs.append(_check(cfg, "bc-sensitivity", 0.05,
                       asym.bc_sensitivity_check(0.05, c=cfg.c,
                                                 n_tau=cfg.n_tau), 0.0))
    return recs


def _suite_approximants(cfg: RunConfig) -> list:
    recs = []
    us = cfg.sweep_values()
    errs, eta2 = [], []
    for u in us:
        errs.append(asym.approximant_errors(u, c=cfg.c, n_tau=cfg.n_tau))
        grid = make_grid(collar_from_u(u, cfg.c), cfg.n_tau)
        d2 = cutoff_eval(CutoffSpec(), grid.nodes / u, "eta")[2]
        eta2.append(grid.integrate(np.abs(d2)) / u)
    u = us[-1]
    for tid in ("err-e", "err-xi", "err-T"):
        k = tid.replace("-", "_")
        fit = asym.fit_power_law([(u_k, d[k]) for u_k, d in zip(us, errs)])
        recs.append(_record(f"{tid}-exponent", u, fit.exponent,
                            target(tid).exponent - 0.3, 0.0, floor=True))
    for k, tid in (("ef", "ef-pairing"), ("k0", "k0-pairing"),
                   ("xi_e", "xi-pairing")):
        recs.append(_check(cfg, tid, u, errs[-1][k], law(tid, u)))
    spread = (max(eta2) - min(eta2)) / (sum(eta2) / len(eta2))
    recs.append(_check(cfg, "eta2-mass-constant", u, spread, 0.0))
    return recs


def _suite_holo_curvature(cfg: RunConfig) -> list:
    recs = []
    us = cfg.sweep_values()
    t = target("t-pairing")
    for u in us:
        ws = CurvatureWorkspace.single_collar(u, c=cfg.c, n_tau=cfg.n_tau)
        rep = ws.g1_terms()
        for k in rep.terms:
            recs.append(_check(cfg, k, u, rep.terms[k], rep.targets[k],
                               key="g1-terms", us=us))
        recs.append(_check(cfg, "g1-sum", u, rep.total, rep.total_target,
                           key="g1-terms", us=us))
        p2 = ws.P2((0, 0, 0), (0, 0, 0)) / u**t.exponent
        recs.append(_check(cfg, t.check_id, u, p2, t.constant, us=us))
    return recs


def _suite_perturbed(cfg: RunConfig) -> list:
    recs = []
    us = cfg.sweep_values()
    for u in us:
        ws = CurvatureWorkspace.single_collar(u, c=cfg.c, n_tau=cfg.n_tau)
        for C in cfg.perturbation_C:
            val = ws.perturbed_curvature(0, 0, 0, 0, C)
            recs.append(_check(cfg, f"perturbed-diag-C{C:g}", u, val,
                               asym.perturbed_prediction(u, C),
                               key="perturbed-diag", us=us))
            recs.append(_record(f"perturbed-positive-C{C:g}", u,
                                1.0 if val.real > 0 else 0.0, 1.0, 0.0))
            t_up = ws.tau_upper()[0, 0].real
            tt_up = upper_index(ws.perturbed_metric(C).values)[0, 0].real
            ok = 0.0 < tt_up < t_up
            recs.append(_record(f"inverse-dominance-C{C:g}", u,
                                1.0 if ok else 0.0, 1.0, 0.0))
    # determinant structure on a two-collar model with a nondegenerate block
    A = np.array([[2.0, 0.3], [0.3, 1.5]], dtype=complex)
    B = np.array([[1.0, 0.1], [0.1, 1.2]], dtype=complex)
    C = cfg.perturbation_C[0]
    # tau_ii + C h_ii = u^2 (ricci-diag + C u wp-metric-diag)
    ricci, wp = target("ricci-diag").constant, target("wp-metric-diag").constant
    for u in us:
        ws = CurvatureWorkspace.from_u_values([u, u], c=cfg.c,
                                              n_tau=cfg.n_tau)
        tt = ws.perturbed_metric(C).values
        full = np.block([[tt, np.zeros((2, 2))], [np.zeros((2, 2)), A + C * B]])
        pred = (np.prod([u**2 * (ricci + C * u * wp) for _ in range(2)])
                * np.linalg.det(A + C * B))
        ratio = np.linalg.det(full).real / pred.real
        recs.append(_check(cfg, "det-structure", u, ratio, 1.0, us=us))
    return recs


def _suite_lengths(cfg: RunConfig) -> list:
    recs = []
    for rec in asym.length_derivative_check(cfg.sweep_values()):
        recs.append(_check(cfg, "length-derivative", rec["u"], rec["fd"],
                           rec["predicted"]))
    u_spot = PI / 10.0  # t = e^(-10)
    fd = asym.length_derivative_fd(math.exp(-10.0))
    # a rounded spot value, not a law: u^2/t reads 2173.925 here
    recs.append(_check(cfg, "length-spot", u_spot, fd, 2174.0))
    return recs


def _suite_equivalence(cfg: RunConfig) -> list:
    recs = []
    vals = {}
    bands = {"poincare": (1.0, 10.0, 3.0), "mcmullen": (0.1, 1.0, 1.0 / 3.0)}
    for u in (0.05, 0.025):
        r = asym.equivalence_ratios(u, c=cfg.c, n_tau=cfg.n_tau)
        vals[u] = r
        for key, (lo, hi, limit) in bands.items():
            rec = _record(f"{key}-band", u, r[key], limit, math.inf)
            rec.passed = lo <= r[key] <= hi
            recs.append(rec)
    for key in ("poincare", "mcmullen"):
        var = asym.relative_change(vals[0.05][key], vals[0.025][key])
        recs.append(_check(cfg, f"{key}-variation", 0.025, var, 0.0))
    return recs


def _suite_g2_bounds(cfg: RunConfig) -> list:
    recs = []
    us = tuple(cfg.sweep_values())
    out = asym.g2_spotcheck(u_values=us, kappa=cfg.kappa, c=cfg.c,
                            n_tau=cfg.n_tau)
    for case, rec in sorted(out.items()):
        # a failed fit reports NaN, which no floor passes
        exponent = math.nan if rec["fit"] is None else rec["fit"].exponent
        recs.append(_record(f"{case}-exponent", us[-1], exponent, 4.7, 0.0,
                            floor=True))
    resid = asym.zero_coupling_residual(0.05, c=cfg.c, n_tau=cfg.n_tau)
    recs.append(_check(cfg, "zero-coupling", 0.05, resid, 0.0))
    return recs


_SUITES = {
    "verify-calculus": _suite_verify_calculus,
    "wp-asymptotics": _suite_wp_asymptotics,
    "ricci-asymptotics": _suite_ricci_asymptotics,
    "green-props": _suite_green_props,
    "approximants": _suite_approximants,
    "holo-curvature": _suite_holo_curvature,
    "perturbed": _suite_perturbed,
    "lengths": _suite_lengths,
    "equivalence": _suite_equivalence,
    "g2-bounds": _suite_g2_bounds,
}
SUITE_IDS = tuple(_SUITES)


def run_suite(cfg: RunConfig, suite: str) -> SuiteReport:
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    t0 = time.perf_counter()
    records = _SUITES[suite](cfg)
    for r in records:
        r.suite = suite
    return SuiteReport(suite, records, time.perf_counter() - t0,
                       *_proc_status()[:2],
                       {name: len(store) for name, store in _STORES.items()})


def _proc_status() -> tuple:
    """(peak RSS, current RSS, threads) of this process, the sizes in MB
    (2**20 bytes): VmHWM, VmRSS and Threads from one read of
    /proc/self/status, so the current never reads above the peak;
    (None, None, None) without them."""
    try:
        with open("/proc/self/status") as f:
            status = dict(line.partition(":")[::2] for line in f)
        peak, rss = (int(status[k].split()[0]) / 1024
                     for k in ("VmHWM", "VmRSS"))
        return peak, rss, int(status["Threads"])
    except (OSError, KeyError):
        return None, None, None


def run_all(cfg: RunConfig) -> list:
    return [run_suite(cfg, s) for s in cfg.suites]


# -- report emission ---------------------------------------------------------

CSV_COLUMNS = ("suite", "check_id", "u", "t_abs", "measured_re", "measured_im",
               "target_re", "target_im", "rel_err", "pass")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(z: complex) -> str:
    """A measured or target value in a markdown table."""
    return f"{z.real:.6g}" if z.imag == 0 else f"{z:.6g}"


def _row_dict(r: CheckRecord) -> dict:
    return dict(zip(CSV_COLUMNS, (
        r.suite, r.check_id, _fmt(r.u), _fmt(r.t_abs), _fmt(r.measured.real),
        _fmt(r.measured.imag), _fmt(r.target.real), _fmt(r.target.imag),
        _fmt(r.rel_err), "true" if r.passed else "false"), strict=True))


def _atomic_write(out_dir: str, name: str, text: str) -> str:
    """Writes text to out_dir/name through a temporary file; the path."""
    path = os.path.join(out_dir, name)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)
    return path


def emit_report(reports: list, out_dir: str, formats) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    rows = [r for rep in reports for r in rep.records]

    if "csv" in formats:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_row_dict(r).values()) for r in rows]
        written.append(_atomic_write(out_dir, "report.csv",
                                     "\n".join(lines) + "\n"))

    if "json" in formats:
        payload = {"suites": [{"suite": rep.suite, "status": rep.status,
                               "records": [_row_dict(r) for r in rep.records]}
                              for rep in reports]}
        written.append(_atomic_write(out_dir, "report.json",
                                     json.dumps(payload, indent=2) + "\n"))

    if "markdown" in formats:
        overall = all(rep.status == "pass" for rep in reports)
        lines = ["# collarlab report", "",
                 f"Overall: **{'pass' if overall else 'fail'}**", ""]
        for rep in reports:
            lines += [f"## {rep.suite} - {rep.status} "
                      f"({rep.wall_clock:.2f} s)", ""]
            for label, mb in (("Peak RSS after this suite", rep.peak_rss_mb),
                              ("RSS at this suite's end", rep.rss_mb)):
                if mb is not None:
                    lines += [f"{label}: {mb:.1f} MB", ""]
            if rep.memo_entries is not None:
                counts = ", ".join(f"{name} {n}"
                                   for name, n in rep.memo_entries.items())
                lines += [f"Memo entries after this suite: {counts}", ""]
            lines.append("| check | u | measured | target | rel_err | pass |")
            lines.append("|---|---|---|---|---|---|")
            for r in rep.records:
                mark = "pass" if r.passed else "FAIL"
                lines.append(f"| {r.check_id} | {r.u:.4g} | "
                             f"{_cell(r.measured)} | {_cell(r.target)} | "
                             f"{r.rel_err:.3g} | {mark} |")
            lines.append("")
        memos = "; ".join(f"{name} {s['entries']} entries, "
                          f"{s['bytes'] / 2**20:.2f} MB"
                          for name, s in cache_stats().items())
        threads = _proc_status()[2]
        if threads is not None:
            blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
            lines += [f"Threads at run end: {threads} "
                      f"(OPENBLAS_NUM_THREADS={blas})", ""]
        lines += [f"LAPACK: {LAPACK_SOURCE}", "",
                  f"Memos at run end: {memos}", ""]
        written.append(_atomic_write(out_dir, "report.md", "\n".join(lines)))

    if "svg-lines" in formats:
        by_check = {}
        for r in rows:
            by_check.setdefault(r.check_id, []).append(r)
        for check_id, group in sorted(by_check.items()):
            pts = sorted((math.log10(r.u), math.log10(max(r.rel_err, 1e-16)))
                         for r in group if math.isfinite(r.rel_err))
            written.append(_atomic_write(out_dir, f"{check_id}.svg",
                                         _svg_line(check_id, pts)))
    return written


def _svg_line(title: str, pts: list) -> str:
    w, h, pad = 480, 320, 40
    xs, ys = zip(*pts) if pts else ((0.0,), (0.0,))  # no finite point
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (w - 2 * pad)
    sy = lambda y: h - pad - (y - y0) / (y1 - y0) * (h - 2 * pad)
    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
    dots = "".join(
        f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="#1f77b4"/>'
        for x, y in pts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<text x="{w // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>'
        f'<text x="{w // 2}" y="{h - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">log10 u</text>'
        f'<text x="12" y="{h // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="11" '
        f'transform="rotate(-90 12 {h // 2})">log10 rel_err</text>'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{path}"/>{dots}</svg>\n'
    )


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collarlab",
        description="Collar-model numerical verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run check suites from a config")
    runp.add_argument("--config", help="path to a JSON run config")
    runp.add_argument("--suite", action="append", default=None,
                      help="suite id (repeatable); overrides config")
    runp.add_argument("--out", default=None, help="output directory override")
    runp.add_argument("--format", default=None,
                      help="comma-separated formats override")
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        raw = _read_config(args.config) if args.config else {}
        if args.suite:
            raw["suites"] = args.suite
        out = raw.setdefault("output", {})
        if isinstance(out, dict):  # from_dict rejects any other value
            if args.out:
                out["directory"] = args.out
            if args.format:
                out["formats"] = args.format.split(",")
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = RunConfig.from_dict(raw)
        reports = run_all(cfg)
    except (CollarError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        emit_report(reports, cfg.out_dir, cfg.formats)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    failing = [r.check_id for rep in reports for r in rep.records
               if not r.passed]
    for rep in reports:
        print(f"{rep.suite}: {rep.status} ({rep.wall_clock:.2f} s)")
    if failing:
        print("failing checks: " + ", ".join(sorted(set(failing))),
              file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
