"""collarlab benchmark: one workload as a closed loop from one client process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a collarlab checkout; collarlab is imported from
./src.  The loop starts the next operation only after the previous one
has finished and been checked, and starts none once S seconds have
passed, so a run overruns S by at most one operation.  With --trace 0 the last stdout line holds
the end-to-end metrics of BENCHMARK.json; with --trace 1 operations
alternate untraced and traced and the line holds the per-layer metrics.
Workloads, metrics and the layer predictions are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"

DRIFT = 1e-12          # largest drift from the stored reference (ROADMAP gate)
REF_SEED = 0           # benchmark seed whose inputs the references were made from
CLI_SEED_BASE = 1234   # benchmark seed 0 runs the default config's seed
EXPECTED_FAILING = ["mcmullen-variation"]   # criterion 10 fails by design
SETUP_REPEATS = 5      # set-ups per run, each in a fresh process; setup_s
                       # is their median
OP_TIMEOUT_S = 120.0   # a child process still running after this is killed
LOOP_LIMIT_S = 140.0   # no operation starts after this, whatever --seconds says

RESOLVENT_U = (0.1, 0.03, 0.012)
RESOLVENT_SLOTS = 36   # fields; per grid, 3 with 3 modes and 9 with 5
BOX1_TOL = 1e-8        # largest |(box + 1) T f - f| / sup|f| (2e-11 seen)
CURVATURE_U = (0.09, 0.06, 0.045)
N_TAU = 1024
CUT = 0.5


@dataclass
class Op:
    wall: float
    cpu: float
    traced: bool
    key: int = 0                      # which distinct operation of the mix
    error: str | None = None          # None when the operation passed its checks
    rss_mb: float | None = None       # child peak RSS (process workloads)
    layers: dict | None = None        # per-layer metrics of a traced operation


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    data: dict = field(default_factory=dict)


# -- comparison against stored references ------------------------------------

def _drift(value: complex, ref: complex, scale: float) -> bool:
    # written so that NaN counts as drift
    return not abs(value - ref) <= DRIFT * scale


def _load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)


def check_report(report: dict, ref: dict, exact: bool) -> str | None:
    """Compare a report.json payload with the stored one.

    Verdicts, check ids and u values must match everywhere.  Numbers must
    agree to DRIFT, relative to the record's scale; records whose values
    depend on the CLI seed are compared only when `exact` (same seed).
    """
    rows = [r for s in report["suites"] for r in s["records"]]
    refs = [r for s in ref["suites"] for r in s["records"]]
    failing = sorted({r["check_id"] for r in rows if r["pass"] != "true"})
    if failing != EXPECTED_FAILING:
        return f"failing checks {failing}, expected {EXPECTED_FAILING}"
    if len(rows) != len(refs):
        return f"{len(rows)} records, reference has {len(refs)}"
    seeded = set(ref["seed_dependent"])
    for row, want in zip(rows, refs):
        key = (want["suite"], want["check_id"], want["u"])
        if (row["suite"], row["check_id"], row["u"]) != key:
            return f"record {key} missing or out of order"
        if row["pass"] != want["pass"]:
            return f"verdict of {key} changed"
        if not exact and want["check_id"] in seeded:
            continue
        m = complex(float(row["measured_re"]), float(row["measured_im"]))
        t = complex(float(row["target_re"]), float(row["target_im"]))
        m0 = complex(float(want["measured_re"]), float(want["measured_im"]))
        t0 = complex(float(want["target_re"]), float(want["target_im"]))
        scale = max(abs(m0), abs(t0)) if t0 != 0 else max(abs(m0), 1.0)
        rel, rel0 = float(row["rel_err"]), float(want["rel_err"])
        t_abs, t_abs0 = float(row["t_abs"]), float(want["t_abs"])
        if (_drift(m, m0, scale) or _drift(t, t0, scale)
                or _drift(rel, rel0, max(abs(rel0), 1.0))
                or _drift(t_abs, t_abs0, abs(t_abs0))):
            return f"values of {key} drifted from the reference"
    return None


# -- full-run: one `collarlab run` process per operation ---------------------

def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["COLLARLAB_WORKERS"] = "1"   # the default, whatever the caller has set
    env["TMPDIR"] = str(work)
    return env


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list, env: dict, cwd: Path, log: Path):
    """Run cmd to completion: (wall s, user+sys s of its tree, peak RSS MB, code).

    The child leads its own process group, so that a timeout or an
    interrupted benchmark kills anything it started too.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        killer = threading.Timer(OP_TIMEOUT_S, _kill_group, [proc.pid])
        killer.start()
        try:
            # wait4 reports the child's usage including its reaped children
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class FullRun:
    """The default `collarlab run` (all suites, default sweep, n_tau 1024)."""

    def setup_command(self, ctx: Context) -> list:
        # set-up is what every run pays before any suite: process start
        # through `import collarlab`
        return [sys.executable, "-c", "import collarlab"]

    def setup(self, ctx: Context):
        ctx.data["cli_seed"] = CLI_SEED_BASE + ctx.seed
        ctx.data["ref"] = _load_reference("full-run")

    def op(self, ctx: Context, i: int, traced: bool) -> Op:
        out = ctx.work / f"op{i}"
        log = ctx.work / f"op{i}.log"
        trace_file = ctx.work / f"op{i}.trace.json"
        cmd = [sys.executable, str(BENCH / "launch.py")]
        if traced:
            cmd += ["--trace-out", str(trace_file)]
        cmd += ["run", "--out", str(out), "--seed", str(ctx.data["cli_seed"])]
        wall, cpu, rss, code = spawn(cmd, child_env(ctx.work), ctx.work, log)
        op = Op(wall, cpu, traced, rss_mb=rss)
        ref = ctx.data["ref"]
        try:
            if code != ref["exit_code"]:
                op.error = f"exit code {code}, expected {ref['exit_code']}"
            elif not all((out / f).is_file()
                         for f in ("report.csv", "report.json", "report.md")):
                op.error = "report files missing"
            else:
                with open(out / "report.json") as fh:
                    op.error = check_report(json.load(fh), ref,
                                            ctx.data["cli_seed"] == ref["cli_seed"])
            if traced:
                with open(trace_file) as fh:
                    op.layers = json.load(fh)
                op.layers["trace.coverage"] = op.layers["trace.top_level_s"] / wall
        except (OSError, ValueError, KeyError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        if op.error is not None:
            with open(log, errors="replace") as fh:
                op.error += " | " + fh.read()[-300:].replace("\n", " / ")
        shutil.rmtree(out, ignore_errors=True)
        for f in (log, trace_file):
            f.unlink(missing_ok=True)
        return op


# -- in-process workloads ------------------------------------------------------

def compact_field(grid, rng, repeat: bool):
    """Seeded smooth real field supported in the middle 70% of the collar.

    The draw of green-props (`cli._random_compact_field` with n_modes=3):
    a mode-0 profile plus two (frequency n, profile) draws with
    1 <= n <= 4, each added to modes n and -n.  There the two frequencies
    coincide with probability 1/4, giving 3 angular modes, and otherwise
    5.  Here `repeat` fixes which case a field is, so that the mix is the
    same for every seed; the seed picks frequencies and profiles.
    """
    import numpy as np
    import collarlab as cl

    col = grid.collar
    length = col.tau_max - col.tau_min
    lo, hi = col.tau_min + 0.15 * length, col.tau_max - 0.15 * length
    x = np.clip((grid.nodes - lo) / (hi - lo), 0.0, 1.0)
    window = np.where((x > 0) & (x < 1), np.sin(np.pi * x) ** 4, 0.0)
    modes = {0: (window * (rng.standard_normal()
                           * np.cos(rng.uniform(1, 4) * np.pi * x)
                           + rng.standard_normal())).astype(complex)}
    first = int(rng.integers(1, 5))
    second = first if repeat else int(rng.choice(
        [n for n in range(1, 5) if n != first]))
    for n in (first, second):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / 2
        prof = window * np.cos(rng.uniform(1, 3) * np.pi * x
                               + rng.uniform(0, np.pi))
        modes[n] = modes.get(n, 0) + z * prof
        modes[-n] = modes.get(-n, 0) + np.conj(z) * prof
    return cl.CollarField(col, grid, modes)


class InProcess:
    """Base of workloads whose operations are calls in this process."""

    def setup_command(self, ctx: Context) -> list:
        # process start, `import collarlab`, then set-up as in this process
        return [sys.executable, str(BENCH / "run.py"), "--workload",
                ctx.workload, "--seed", str(ctx.seed), "--seconds", "0",
                "--setup-only"]

    def key(self, prepared) -> int:
        return 0

    def op(self, ctx: Context, i: int, traced: bool) -> Op:
        tracer = ctx.data.get("tracer")
        if traced:
            tracer.install()
            tracer.begin_op(i)
        prepared = self.prepare(ctx, i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.call(ctx, prepared)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        op = Op(wall, cpu, traced, key=self.key(prepared), error=error)
        if traced:
            tracer.end_op()
            tracer.uninstall()
            op.layers = tracer.op_metrics(i)
            op.layers["trace.coverage"] = op.layers["trace.top_level_s"] / wall
        if error is None:
            try:
                op.error = self.check(ctx, prepared, result)
            except Exception as exc:  # a check that raises fails the operation
                op.error = f"check raised {type(exc).__name__}: {exc}"
        return op


class ResolventBatch(InProcess):
    """One solve_T on a seeded compact field plus its spectral pairings."""

    def setup(self, ctx: Context):
        self.build(ctx)
        ctx.data["ref"] = (_load_reference("resolvent-batch")["pairings"]
                           if ctx.seed == REF_SEED else None)

    def build(self, ctx: Context):
        import numpy as np
        import collarlab as cl

        grids = [cl.make_grid(cl.collar_from_u(u, CUT), N_TAU)
                 for u in RESOLVENT_U]
        rng = np.random.default_rng(ctx.seed)
        # slot s: grid s % 3, and 3 modes (a repeated frequency) in one slot
        # of four, as in green-props' draw; every seed gives the same mix
        fields = [compact_field(grids[s % 3], rng, (s // 3) % 4 == 0)
                  for s in range(RESOLVENT_SLOTS)]
        ctx.data["fields"] = fields
        # warm-up: factor every mode in the pool, and build the stencils
        # the check applies (box + 1) with
        for s in range(RESOLVENT_SLOTS):
            self.call(ctx, s)
        for g in grids:
            cl.apply_box1(cl.CollarField(g.collar, g, {0: g.nodes + 0j}))

    def prepare(self, ctx, i):
        return i % RESOLVENT_SLOTS

    def key(self, slot) -> int:
        return slot

    def call(self, ctx, slot):
        import collarlab as cl

        f = ctx.data["fields"][slot]
        g = cl.solve_T(f)   # raises SolverError above its residual ceiling
        return g, (cl.pairing_l2(g, g), cl.pairing_l2(g, f),
                   cl.pairing_l2(f, f))

    def check(self, ctx, slot, result):
        import numpy as np
        import collarlab as cl

        f = ctx.data["fields"][slot]
        g, (gg, gf, ff) = result
        if not np.all(np.isfinite([gg, gf, ff])):
            return f"slot {slot}: pairings not finite"
        if sorted(g.modes) != sorted(f.modes):
            return f"slot {slot}: T f has modes {sorted(g.modes)}, f has {sorted(f.modes)}"
        # T f must solve (box + 1) T f = f; public stencils, all nodes
        h = cl.apply_box1(g)
        defect = max(float(np.abs(h.modes[n] - v).max()) for n, v in f.modes.items())
        if not defect <= BOX1_TOL * f.sup_norm():
            return f"slot {slot}: (box + 1) T f - f = {defect:.3e} sup|f|"
        slack = 1e-10 * ff.real
        if not gf.real > 0:
            return f"slot {slot}: <Tf,f> = {gf.real:.3e} is not positive"
        if not gf.real - gg.real >= -slack:
            return f"slot {slot}: spectral lower bound <Tf,f> >= <Tf,Tf> fails"
        if not ff.real - gf.real >= -slack:
            return f"slot {slot}: spectral upper bound <f,f> >= <Tf,f> fails"
        ref = ctx.data["ref"]
        if ref is not None:
            want = [complex(*v) for v in ref[slot]]
            if any(_drift(v, w, abs(want[2])) for v, w in zip((gg, gf, ff), want)):
                return f"slot {slot}: pairings drifted from the reference"
        return None


QUADRUPLES = [(i, j, k, l) for i in range(3) for j in range(3)
              for k in range(3) for l in range(3)]


class Curvature3Collar(InProcess):
    """Fresh workspace on a coupled three-collar model; tau and all 81 Ricci
    curvature entries, in a seeded order."""

    def setup(self, ctx: Context):
        import numpy as np

        self.build(ctx)
        ctx.data["rng"] = np.random.default_rng(ctx.seed)
        ref = _load_reference("curvature-3collar")
        ctx.data["ref"] = {k: np.array([complex(*v) for v in ref[k]])
                           for k in ("tau", "ricci")}

    def build(self, ctx: Context):
        import collarlab as cl

        collars = [cl.collar_from_u(u, CUT) for u in CURVATURE_U]
        grids = [cl.make_grid(col, N_TAU) for col in collars]
        for g in grids:   # build the derivative stencils and Dirichlet D2
            g.dtau(g.nodes)
            g.d2_banded_dirichlet()
        ctx.data["system"] = cl.CollarSystem(collars, grids)

    def prepare(self, ctx, i):
        return ctx.data["rng"].permutation(len(QUADRUPLES))

    def call(self, ctx, order):
        import numpy as np
        import collarlab as cl

        system = ctx.data["system"]
        ws = cl.CurvatureWorkspace(system, cl.coupled_family(system, 1.0)[0])
        tau = ws.tau().values
        ricci = np.empty(len(QUADRUPLES), dtype=complex)
        for q in order:
            ricci[q] = ws.ricci_curvature(*QUADRUPLES[q])
        return tau, ricci

    def check(self, ctx, order, result):
        import numpy as np
        import collarlab as cl

        tau, ricci = result
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(ricci))):
            return "Ricci metric or curvature not finite"
        if not np.linalg.eigvalsh(tau).min() > 0:
            return "Ricci metric not positive definite"
        defect = cl.hermitian_defect(ricci.reshape(3, 3, 3, 3))
        if not defect <= 1e-8:
            return f"Ricci curvature Hermitian defect {defect:.3e}"
        ref = ctx.data["ref"]
        for name, got in (("tau", tau.ravel()), ("ricci", ricci)):
            want = ref[name]
            if not np.all(np.abs(got - want) <= DRIFT * np.abs(want).max()):
                return f"{name} drifted from the reference"
        return None


WORKLOADS = {
    "full-run": FullRun,
    "resolvent-batch": ResolventBatch,
    "curvature-3collar": Curvature3Collar,
}


# -- measurement ------------------------------------------------------------------

def measure(workload, ctx: Context, seconds: float, trace: bool) -> list:
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        ops.append(workload.op(ctx, i, traced=trace and i % 2 == 1))
        elapsed = time.perf_counter() - start
        if len(ops) >= (2 if trace else 1) and (
                elapsed >= seconds or elapsed > LOOP_LIMIT_S):
            return ops


def tail(values: list):
    """Highest percentile with at least 10 samples beyond it, never below
    the median: (value, percentile, n)."""
    n = len(values)
    if n <= 20:
        return statistics.median(values), 50.0, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def best_per_key(ops: list, attr: str) -> dict:
    """Fastest repeat of each distinct operation: {key: seconds}.

    On a shared host the median of repeats moves with the neighbours' load
    for minutes at a time, while the fastest repeat stays put; see
    README.md, "Steadiness on a shared host".
    """
    best = {}
    for o in ops:
        value = getattr(o, attr)
        if o.key not in best or value < best[o.key]:
            best[o.key] = value
    return best


def upper_decile(values) -> float:
    """90th percentile, nearest rank: with one value, that value."""
    ranked = sorted(values)
    return ranked[math.ceil(0.9 * len(ranked)) - 1]


def end_to_end(ops: list, setup_times: list, in_process: bool) -> tuple:
    plain = [o for o in ops if not o.traced]
    walls = [o.wall for o in plain]
    best_wall = best_per_key(plain, "wall")
    best_cpu = best_per_key(plain, "cpu")
    if in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(o.rss_mb for o in plain)
    failed = sum(o.error is not None for o in ops)
    metrics = {
        "wall_s": statistics.fmean(best_wall.values()),
        "wall_s.tail": upper_decile(best_wall.values()),
        "cpu_s": statistics.fmean(best_cpu.values()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    # the plain distribution of operation times, host noise included
    tail_value, pct, n = tail(walls)
    deciles = statistics.quantiles(walls, n=10) if n > 1 else walls
    return metrics, {"distinct_ops": len(best_wall),
                     "wall_median": statistics.median(walls),
                     "cpu_median": statistics.median(o.cpu for o in plain),
                     "wall_tail": tail_value, "tail_percentile": pct,
                     "tail_n": n, "wall_deciles": deciles}


def per_layer(ops: list) -> dict:
    traced = [o for o in ops if o.traced and o.layers is not None]
    plain = [o.wall for o in ops if not o.traced]
    if not traced:
        return {}
    metrics = {k: statistics.median(o.layers[k] for o in traced)
               for k in traced[0].layers}
    metrics["trace.overhead_s"] = (statistics.median(o.wall for o in traced)
                                   - statistics.median(plain))
    return metrics


# -- environment ----------------------------------------------------------------

def _host_counters() -> tuple:
    """(CPU steal seconds, 1/5/15-minute load) from /proc, read only."""
    steal = None
    load = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/loadavg") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except (OSError, IndexError, ValueError):
        pass
    return steal, load


def environment(steal0, steal1, load) -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": src_lines,
        "cpu_steal_s": (None if steal0 is None or steal1 is None
                        else steal1 - steal0),
        "loadavg": load,
    }


# -- entry point ----------------------------------------------------------------

def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set the workload up once, in this process")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "collarlab" / "__init__.py").is_file():
        print(f"no collarlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(Context(args.workload, args.seed, Path.cwd()))
        return 0

    declared = _declared("per_layer" if args.trace else "end_to_end")
    # on SIGTERM, unwind through the clean-up below (kill children, remove
    # the scratch directory) instead of dying on the spot
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    steal0, _ = _host_counters()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        in_process = isinstance(workload, InProcess)
        ctx = Context(args.workload, args.seed, work)
        # each timed set-up runs in a fresh process, so that anything a
        # set-up caches for the process cannot speed up the next one
        setup_times = []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            wall, _, _, code = spawn(workload.setup_command(ctx),
                                     child_env(work), work, work / "setup.log")
            if code != 0:
                raise RuntimeError(f"set-up exited with {code}")
            setup_times.append(wall)
        workload.setup(ctx)
        if args.trace:
            from tracer import Tracer
            ctx.data["tracer"] = Tracer()
        ops = measure(workload, ctx, args.seconds, bool(args.trace))
        if args.trace:
            metrics, info = per_layer(ops), {}
        else:
            metrics, info = end_to_end(ops, setup_times, in_process)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    steal1, load = _host_counters()

    errors = [o.error for o in ops if o.error is not None]
    info.update(workload=args.workload, seed=args.seed, ops=len(ops),
                traced_ops=sum(o.traced for o in ops),
                setup_s=setup_times, errors=errors[:3])
    print("perfbench env " + json.dumps(environment(steal0, steal1, load)))
    print("perfbench run " + json.dumps(info))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
