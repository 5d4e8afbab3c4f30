"""The A/B benchmark tool: its choice of workloads to fit peak RSS on, its
traced per-layer record and its tier-1 timing record."""

import importlib.util
import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).parents[1]


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rss_fit_only_on_in_process_workloads(bench_ab):
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    # full-run's peak RSS is its largest child process's, so it is not fitted
    fitted = bench_ab.in_process_workloads(ROOT) & declared
    assert fitted == {"resolvent-batch"}


def test_tier1_record_on_synthetic_runs(bench_ab):
    walls = {"parent": [10.0 + 0.1 * k for k in range(bench_ab.PAIRS)],
             "change": [9.0 + 0.1 * k for k in range(bench_ab.PAIRS)]}
    walls["change"][3] = 11.0  # the change loses pair 3
    codes = {"parent": 1, "change": 0}
    runs = bench_ab.paired(lambda side, k: {"tier1_wall_s": walls[side][k],
                                            "exit_code": codes[side]})
    assert [r["side"] for r in runs[:4]] == ["parent", "change",
                                             "change", "parent"]
    record = bench_ab.tier1_record(runs)
    m = record["metrics"]["tier1_wall_s"]
    for side, values in walls.items():
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert m[side] == {"median": med, "q1": q1, "q3": q3}
    assert (m["change_wins"], m["change_losses"]) == (9, 1)
    assert m["parent_iqr"] == m["parent"]["q3"] - m["parent"]["q1"]
    assert record["exit_codes"] == {side: [code] * bench_ab.PAIRS
                                    for side, code in codes.items()}
    assert record["runs"] == runs


def test_traced_record_on_synthetic_runs(bench_ab):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    runs = {"parent": {"command": "p", "seed": 0, "attempted": 4, "failed": 0,
                       "collar.dtau.calls": 711, "collar.dtau.self_s": 0.05},
            "change": {"command": "c", "seed": 0, "attempted": 5, "failed": 0,
                       "collar.dtau.calls": 180, "collar.dtau.self_s": 0.01}}
    record = bench_ab.traced_record(runs, names)
    assert record["runs"] == runs
    assert list(record["per_layer"]) == names
    assert record["per_layer"]["collar.dtau.calls"] == {"parent": 711,
                                                       "change": 180}
    assert record["per_layer"]["collar.dtau.self_s"] == {"parent": 0.05,
                                                        "change": 0.01}
    # a metric neither run reported is kept, as None on both sides
    assert record["per_layer"]["green.solve_T.calls"] == {"parent": None,
                                                         "change": None}
