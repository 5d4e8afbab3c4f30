"""The A/B benchmark tool's choice of workloads to fit peak RSS on."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parents[1]


def test_rss_fit_only_on_in_process_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", ROOT / "tools" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    # full-run's peak RSS is its largest child process's, so it is not fitted
    fitted = bench_ab.in_process_workloads(ROOT) & declared
    assert fitted == {"resolvent-batch"}
