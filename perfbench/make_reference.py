"""Regenerate the reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  The stored files are the contract the
benchmark checks every operation against (to 1e-12): regenerate them only
at a commit whose numbers are known good, and say so in the change.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def full_run_report(work: Path, cli_seed: int) -> tuple:
    out = work / f"out{cli_seed}"
    cmd = [sys.executable, str(run.BENCH / "launch.py"), "run", "--out",
           str(out), "--seed", str(cli_seed)]
    _, _, _, code = run.spawn(cmd, run.child_env(work), work,
                              work / "ref.log")
    with open(out / "report.json") as fh:
        return code, json.load(fh)


def main():
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    run.REFERENCE.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        seed = run.CLI_SEED_BASE + run.REF_SEED
        code, report = full_run_report(work, seed)
        _, other = full_run_report(work, seed + 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    rows = [r for s in report["suites"] for r in s["records"]]
    rows2 = [r for s in other["suites"] for r in s["records"]]
    seeded = sorted({a["check_id"] for a, b in zip(rows, rows2) if a != b})
    failing = sorted({r["check_id"] for r in rows if r["pass"] != "true"})
    payload = {"cli_seed": seed, "exit_code": code, "failing": failing,
               "seed_dependent": seeded, "suites": report["suites"]}
    _write("full-run", payload)

    def pair(z):
        return [float(z.real), float(z.imag)]

    ctx = run.Context("resolvent-batch", run.REF_SEED, run.WORK)
    batch = run.ResolventBatch()
    batch.build(ctx)
    pairings = [[pair(z) for z in batch.call(ctx, s)[1]]
                for s in range(run.RESOLVENT_SLOTS)]
    _write("resolvent-batch", {"seed": run.REF_SEED, "pairings": pairings})

    curv = run.Curvature3Collar()
    ctx = run.Context("curvature-3collar", run.REF_SEED, run.WORK)
    curv.build(ctx)
    tau, ricci = curv.call(ctx, np.arange(len(run.QUADRUPLES)))
    _write("curvature-3collar", {"tau": [pair(z) for z in tau.ravel()],
                                 "ricci": [pair(z) for z in ricci]})


def _write(name, payload):
    with open(run.REFERENCE / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {run.REFERENCE / (name + '.json')}")


if __name__ == "__main__":
    main()
