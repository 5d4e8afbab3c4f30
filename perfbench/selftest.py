"""Tracer self-test: traced call counts against cProfile's ncalls.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs, in this process, with the tracer
installed and cProfile enabled at the same time: `collarlab run` over all
suites (serial, at the smallest grid and sweep the CLI accepts), and one
operation each of resolvent-batch and curvature-3collar.  For every traced
function, the tracer's span count must equal cProfile's call count of the
original function; a call that bypassed the tracer's patches (say, through
a module binding it missed) shows up as more cProfile calls than spans.
Also checks that uninstall restores every binding.  Exits 0 on success.
"""

import cProfile
import json
import os
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import FUNCTIONS, METHODS, Tracer


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.environ["COLLARLAB_WORKERS"] = "1"
    import collarlab.cli

    originals = {}   # span name -> code objects of the wrapped functions
    for name, targets in FUNCTIONS.items():
        originals[name] = [getattr(sys.modules[m], a).__code__
                           for m, a in targets]
    for name, (m, cls, attr) in METHODS.items():
        originals[name] = [getattr(sys.modules[m], cls).__dict__[attr].__code__]

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    tracer = Tracer()
    profiler = cProfile.Profile()
    try:
        config = work / "config.json"
        config.write_text(json.dumps({"grid": {"n_tau": 512},
                                      "sweep": {"points": 4}}))
        tracer.install()
        tracer.begin_op(0)
        profiler.enable()
        code = collarlab.cli.main(["run", "--config", str(config),
                                   "--out", str(work / "out")])
        ctx = run.Context("resolvent-batch", run.REF_SEED, work)
        batch = run.ResolventBatch()
        batch.build(ctx)
        for slot in range(run.RESOLVENT_SLOTS):
            batch.call(ctx, slot)
        curv = run.Curvature3Collar()
        curv.build(ctx)
        curv.call(ctx, range(len(run.QUADRUPLES)))
        profiler.disable()
        tracer.end_op()
        tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    ncalls = {}
    for (filename, line, func), row in pstats.Stats(profiler).stats.items():
        ncalls[(filename, line, func)] = row[1]
    spans = tracer.call_counts()
    spans["cli.run_suite"] = sum(v for k, v in spans.items()
                                 if k.startswith("cli.suite."))
    failures = 0
    print(f"collarlab run exit code {code} (1 expected: criterion 10)")
    print(f"{'span':34} {'tracer':>8} {'cProfile':>9}")
    for name, codes in sorted(originals.items()):
        profiled = sum(ncalls.get((c.co_filename, c.co_firstlineno, c.co_name), 0)
                       for c in codes)
        traced = spans.get(name, 0)
        mark = "" if traced == profiled and traced > 0 else "  MISMATCH"
        failures += bool(mark)
        print(f"{name:34} {traced:8d} {profiled:9d}{mark}")

    # tracer wrappers carry __wrapped__; no collarlab function does
    leftovers = []
    for m, cls, attr in METHODS.values():
        if hasattr(getattr(sys.modules[m], cls).__dict__[attr], "__wrapped__"):
            leftovers.append(f"{cls}.{attr}")
    for mod in (m for n, m in list(sys.modules.items())
                if m is not None and n.startswith("collarlab")):
        for key, val in vars(mod).items():
            if callable(val) and hasattr(val, "__wrapped__"):
                leftovers.append(f"{mod.__name__}.{key}")
    if leftovers:
        failures += 1
        print("still patched after uninstall: " + ", ".join(leftovers))
    if code != 1:
        failures += 1
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
