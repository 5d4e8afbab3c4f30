"""A/B benchmark of the working tree against a base commit.

    python3 tools/bench_ab.py --label NAME --change "what changed" [--base REV]

Run from the root of a collarlab checkout.  The base commit (default HEAD)
is exported with `git archive` into a temporary directory; the working
tree is the change.  For each workload W that BENCHMARK.json declares,
pair k (k = 0 .. 9) runs `CMD --workload W --seed k --seconds S --trace 0`
in both checkouts, one after the other, the base first when k is even;
CMD is BENCHMARK.json's command (`python3 perfbench/run.py`) and S its
run_seconds.  Seed 0 is the one perfbench checks against its stored
references.  After the pairs, one traced run per side (`--seed 0 --trace
1`, parent first) gives the workload's per-layer metrics: call counts and
self times per layer, each the median over the run's traced operations.
Then the default `collarlab run` is made in both checkouts and `cmp`
compares their report.csv and report.json.  Every "label: value" line of
each side's report.md goes to reports.facts (report_facts): the RSS lines
under each suite's heading per suite, the thread, LAPACK and memo lines
per run.  So a memory change shows which suite sets the peak, which
library the resolvent solved on and what the memos held, and a new
report.md line needs no change here.  When a report differs, the two
report.json payloads are compared record by record: per check id, the
largest drift of measured, target and rel_err, at the scale perfbench's
check_report uses, and whether the ids, u values, order and verdicts all
match.  Everything goes to BENCH_<label>.json: the host, with the BLAS
thread variables this tool was started with, every run,
per metric the median and quartiles of each side, the pairs the change
wins and loses, the traced runs with each per-layer metric side by side,
the reports' comparison and `wc -l` of src/collarlab/*.py on both sides.
In ten more alternated pairs the tier-1 tests (`python -m pytest -q
--continue-on-collection-errors` with src on PYTHONPATH, as ROADMAP.md
gives them) are timed in both checkouts; their tier1_wall_s is
summarised like a workload's metrics, next to pytest's exit codes,
which do not count towards this tool's own exit code (tier-1 fails one
check by design).  In ten more alternated pairs a fresh `collarlab run
--config tools/fine-grid.json` (the default run at n_tau 16384, where
collarlab's own compute dominates start-up) runs in both checkouts, the
config read from the working tree so that a base predating the file runs
it too.  Each run's wall time, CPU time and peak RSS (from os.wait4's
rusage of the child) are summarised like a workload's metrics, each
side's report.md goes through report_facts, and every pair's report.csv
and report.json are compared with `cmp`.  Beside the peak_rss_mb medians of an
in-process workload (one whose perfbench class subclasses InProcess) goes
a least-squares fit of peak_rss_mb against attempted operations over all
the workload's runs, with one slope and an intercept per side: perfbench
keeps a record per operation in the process whose peak RSS it reports, so
a side that completes more operations in the fixed run time reads higher
peak RSS without holding more data.  Any other workload (full-run) reports
the largest peak of the child processes that ran its operations, which
does not grow with their number, so its fit_on_attempted is null.  Exits
1 when a run fails an operation, a report differs, or the sides' runs
exit with different codes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
REPORTS = ("report.csv", "report.json")
RUN_CLI = "import sys; from collarlab.cli import main; sys.exit(main(sys.argv[1:]))"
PAIRS = 10
FINE_GRID = ROOT / "tools" / "fine-grid.json"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# the variables that size BLAS thread pools, as this tool was started with
# them: where a pool has more than one thread, its idle workers' spinning
# counts in cpu_s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path):
    """The committed files of rev, as `git archive` gives them, in dest."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def bench(tree: Path, command: list, workload: str, seed: int,
          seconds: float, trace: int = 0) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"command": " ".join(cmd), "seed": seed,
            "attempted": result["attempted"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def paired(run_one) -> list:
    """run_one(side, k) for pairs k = 0 .. PAIRS - 1, one side after the
    other, the parent first when k is even; each run tagged with its side."""
    runs = []
    for k in range(PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            run = {"side": side, **run_one(side, k)}
            print(json.dumps(run), file=sys.stderr)
            runs.append(run)
    return runs


def traced_record(runs: dict, names: list) -> dict:
    """The traced run of each side, and each named per-layer metric as
    {"parent": value, "change": value}; None where a side lacks it."""
    return {"runs": runs,
            "per_layer": {name: {side: run.get(name)
                                 for side, run in runs.items()}
                          for name in names}}


def changed_calls(per_layer: dict) -> list:
    """A line per traced call count that differs between the sides, with
    the same layer's self time on both sides beside it where it is
    declared: a count that rises while its time falls reads as such."""
    lines = []
    for name, m in per_layer.items():
        if name.endswith(".calls") and m["parent"] != m["change"]:
            line = f"traced {name}: parent {m['parent']} change {m['change']}"
            self_s = per_layer.get(name.removesuffix(".calls") + ".self_s")
            if self_s is not None:
                line += (f"; self_s parent {self_s['parent']} "
                         f"change {self_s['change']}")
            lines.append(line)
    return lines


def tier1(tree: Path) -> dict:
    """One timed run of the tier-1 tests in tree."""
    path = os.pathsep.join(filter(None, [str(tree / "src"),
                                         os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, *TIER1], cwd=tree,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True).returncode
    return {"tier1_wall_s": time.perf_counter() - t0, "exit_code": code}


def tier1_record(runs: list) -> dict:
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "pairs": PAIRS, "runs": runs,
            "metrics": {"tier1_wall_s": summary(runs, "tier1_wall_s", "lower")},
            "exit_codes": {s: [r["exit_code"] for r in runs if r["side"] == s]
                           for s in ("parent", "change")}}


def summary(runs: list, metric: str, better: str) -> dict:
    side = {s: [r[metric] for r in runs if r["side"] == s]
            for s in ("parent", "change")}
    out = {}
    for s, values in side.items():
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[s] = {"median": med, "q1": q1, "q3": q3}
    sign = 1 if better == "lower" else -1
    diffs = [sign * (p - c) for p, c in zip(side["parent"], side["change"])]
    out["change_wins"] = sum(d > 0 for d in diffs)
    out["change_losses"] = sum(d < 0 for d in diffs)
    if out["parent"]["median"]:
        out["median_ratio_change_over_parent"] = (out["change"]["median"]
                                                  / out["parent"]["median"])
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def rss_fit(runs: list) -> dict | None:
    """peak_rss_mb = intercept[side] + slope * attempted, by least squares.

    The common slope pools each side's deviations from its own means; None
    when no side's attempted counts vary.
    """
    means, sxx, sxy = {}, 0.0, 0.0
    for s in ("parent", "change"):
        xs = [r["attempted"] for r in runs if r["side"] == s]
        ys = [r["peak_rss_mb"] for r in runs if r["side"] == s]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        means[s] = mx, my
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if not sxx:
        return None
    slope = sxy / sxx
    return {"slope_mb_per_op": slope, "slope_bytes_per_op": slope * 2**20,
            "intercept_mb": {s: my - slope * mx
                             for s, (mx, my) in means.items()}}


def in_process_workloads(tree: Path) -> set:
    """Names of the workloads whose class in tree's perfbench/run.py
    subclasses InProcess: their operations are calls in the process whose
    peak RSS the run reports."""
    spec = importlib.util.spec_from_file_location(
        "bench_ab_perfbench_run", tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {name for name, cls in module.WORKLOADS.items()
            if issubclass(cls, module.InProcess)}


def _scaled(value, ref, scale) -> float:
    """|value - ref| / scale: 0 for equal values (two NaNs too), inf where
    a NaN makes them differ."""
    if value == ref or (value != value and ref != ref):
        return 0.0
    drift = abs(value - ref) / scale
    return drift if drift == drift else math.inf


def report_drift(change: dict, parent: dict) -> dict:
    """How the change's report.json payload differs from the parent's.

    same_records: the (suite, check_id, u) of every record, in order, match;
    same_verdicts: so do their verdicts.  drift maps each check id whose
    records moved to the largest drift of its measured, target and rel_err
    over its records, scaled as perfbench/run.py's check_report scales them:
    measured and target by max(|measured|, |target|) of the parent's record
    (max(|measured|, 1) when its target is 0), rel_err by max(rel_err, 1).
    Drift is only defined record by record, so it is empty unless
    same_records holds.
    """
    rows = [r for s in change["suites"] for r in s["records"]]
    refs = [r for s in parent["suites"] for r in s["records"]]
    layout = lambda records: [(r["suite"], r["check_id"], r["u"])
                              for r in records]
    same = layout(rows) == layout(refs)
    out = {"same_records": same,
           "same_verdicts": same and all(r["pass"] == w["pass"]
                                         for r, w in zip(rows, refs)),
           "drift": {}}
    if not same:
        return out
    for row, want in zip(rows, refs):
        m, t, m0, t0 = (complex(float(r[f"{k}_re"]), float(r[f"{k}_im"]))
                        for r in (row, want) for k in ("measured", "target"))
        scale = max(abs(m0), abs(t0)) if t0 != 0 else max(abs(m0), 1.0)
        rel, rel0 = float(row["rel_err"]), float(want["rel_err"])
        drift = {"measured": _scaled(m, m0, scale),
                 "target": _scaled(t, t0, scale),
                 "rel_err": _scaled(rel, rel0, max(abs(rel0), 1.0))}
        if any(drift.values()):
            worst = out["drift"].setdefault(row["check_id"],
                                            dict.fromkeys(drift, 0.0))
            for k, v in drift.items():
                worst[k] = max(worst[k], v)
    return out


def cli_run(tree: Path, out: Path, config: Path | None = None) -> dict:
    """One fresh `collarlab run` in tree, writing to out, with --config
    config when given: its wall time, the child's CPU time and peak RSS,
    its exit code and report_facts of its report.md."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    args = ["run", "--out", str(out)]
    if config is not None:
        args += ["--config", str(config)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", RUN_CLI, *args], cwd=tree,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    md = out / "report.md"
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB
            "exit_code": proc.returncode,
            "facts": report_facts(md.read_text() if md.exists() else "")}


def same_reports(a: Path, b: Path) -> dict:
    """{report: "identical" or "different"} for each of REPORTS, by cmp."""
    return {name: "identical" if subprocess.run(
                ["cmp", "-s", str(a / name), str(b / name)]).returncode == 0
            else "different" for name in REPORTS}


def fine_record(tmp: Path, trees: dict) -> dict:
    """PAIRS alternated cli_run pairs on FINE_GRID, each pair's reports
    compared."""
    runs = paired(lambda side, k: cli_run(
        trees[side], tmp / f"fine_{k}_{side}", FINE_GRID))
    compared = [same_reports(*(tmp / f"fine_{k}_{side}"
                               for side in ("parent", "change")))
                for k in range(PAIRS)]
    reports = {name: ("identical" if all(c[name] == "identical"
                                         for c in compared) else "different")
               for name in REPORTS}
    return {"command": f"collarlab run --config "
                       f"{FINE_GRID.relative_to(ROOT)} in both checkouts, "
                       f"then cmp of each pair's reports",
            "pairs": PAIRS, "runs": runs,
            "metrics": {m: summary(runs, m, "lower")
                        for m in ("wall_s", "cpu_s", "peak_rss_mb")},
            "exit_codes": {s: [r["exit_code"] for r in runs if r["side"] == s]
                           for s in ("parent", "change")},
            **reports}


def report_facts(markdown: str) -> dict:
    """Every "label: value" line of a report.md: {"run": {label: value},
    "suites": {suite: {label: value}}}.  A line between a "## <suite> -
    <status>" heading and that suite's table is the suite's; every other
    line is the run's."""
    facts, suite = {"run": {}, "suites": {}}, None
    for line in markdown.splitlines():
        if line.startswith("## "):
            suite = line[3:].split(" - ")[0]
        elif line.startswith("|"):
            suite = None
        elif ": " in line:
            label, _, value = line.partition(": ")
            (facts["suites"].setdefault(suite, {}) if suite
             else facts["run"])[label] = value
    return facts


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (tree / "src" / "collarlab").glob("*.py"))


def host() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--change", required=True,
                        help="one sentence saying what the change does")
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        trees["parent"].mkdir()
        export(args.base, trees["parent"])
        end_to_end, ok = {}, True
        fitted = in_process_workloads(ROOT)
        for workload in (w["name"] for w in declared["workloads"]):
            runs = paired(lambda side, seed: bench(
                trees[side], declared["command"], workload, seed,
                declared["run_seconds"]))
            ok &= all(run["failed"] == 0 for run in runs)
            metrics = {m["name"]: summary(runs, m["name"], m["better"])
                       for m in declared["end_to_end"]}
            metrics["peak_rss_mb"]["fit_on_attempted"] = (
                rss_fit(runs) if workload in fitted else None)
            traced = {side: bench(trees[side], declared["command"], workload,
                                  0, declared["run_seconds"], trace=1)
                      for side in ("parent", "change")}
            ok &= all(run["failed"] == 0 for run in traced.values())
            end_to_end[workload] = {
                "pairs": PAIRS, "runs": runs, "metrics": metrics,
                "traced": traced_record(
                    traced, [m["name"] for m in declared["per_layer"]])}
        tier1_rec = tier1_record(paired(lambda side, _: tier1(trees[side])))
        fine = fine_record(tmp, trees)
        ok &= "different" not in (fine[name] for name in REPORTS)
        ok &= fine["exit_codes"]["parent"] == fine["exit_codes"]["change"]
        default = {side: cli_run(tree, tmp / f"out_{side}")
                   for side, tree in trees.items()}
        codes = {side: run["exit_code"] for side, run in default.items()}
        facts = {side: run["facts"] for side, run in default.items()}
        reports = same_reports(tmp / "out_parent", tmp / "out_change")
        ok &= "different" not in reports.values()
        if "different" in reports.values():
            reports["report.json drift"] = report_drift(
                *(json.loads((tmp / f"out_{side}" / "report.json").read_text())
                  for side in ("change", "parent")))
        ok &= codes["parent"] == codes["change"]
        lines = {side: src_lines(tree) for side, tree in trees.items()}

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "label": args.label,
        "change": args.change,
        "base": git("rev-parse", args.base),
        "change_tree": git("rev-parse", "HEAD") + (" + uncommitted edits" if dirty else ""),
        "host": host(),
        "method": "tools/bench_ab.py: each pair runs the base commit (exported "
                  "with git archive) and the working tree one after the other, "
                  "the base first for even seeds; seed k for pair k, seed 0 "
                  "checking perfbench's references. Quartiles: "
                  "statistics.quantiles(method='inclusive'). change_wins "
                  "counts pairs where the change is better, change_losses "
                  "where it is worse.",
        "end_to_end": end_to_end,
        "tier1": tier1_rec,
        "fine_grid": fine,
        "reports": {"command": "collarlab run (default config) in both "
                               "checkouts, then cmp of each report",
                    "exit_codes": codes,
                    "facts": facts, **reports},
        "src_lines": {"command": "wc -l src/collarlab/*.py", **lines},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in end_to_end.items():
        for name, m in data["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} "
                  f"wins {m['change_wins']}/{PAIRS}")
        for line in changed_calls(data["traced"]["per_layer"]):
            print(f"{workload} {line}")
        fit = data["metrics"]["peak_rss_mb"]["fit_on_attempted"]
        if fit:
            print(f"{workload} peak_rss_mb fit: "
                  f"{fit['slope_bytes_per_op']:.0f} B per operation, "
                  f"intercepts parent {fit['intercept_mb']['parent']:.6g} "
                  f"change {fit['intercept_mb']['change']:.6g}")
    m = tier1_rec["metrics"]["tier1_wall_s"]
    print(f"tier1_wall_s: parent {m['parent']['median']:.6g} "
          f"change {m['change']['median']:.6g} wins {m['change_wins']}/{PAIRS}, "
          f"exit codes {tier1_rec['exit_codes']}")
    for name, m in fine["metrics"].items():
        print(f"fine-grid {name}: parent {m['parent']['median']:.6g} "
              f"change {m['change']['median']:.6g} "
              f"wins {m['change_wins']}/{PAIRS}")
    print(f"fine-grid reports: {[fine[name] for name in REPORTS]}, "
          f"exit codes {fine['exit_codes']}")
    for side, f in facts.items():
        print(f"{side} report.md: {f['run']}")
    print(f"reports {reports}, exit codes {codes}; wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
