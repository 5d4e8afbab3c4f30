"""The A/B benchmark tool: its choice of workloads to fit peak RSS on, its
traced per-layer record and its summary of changed call counts, its
tier-1 timing record, its drift between two reports, its reading of
report.md's "label: value" lines, its record of the host's BLAS thread
settings, the config of its fine-grid pair, its one way to run the CLI
and its line counts of src/collarlab."""

import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import statistics

import pytest

import collarlab

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
    # the summary names each changed count with its layer's self times
    assert bench_ab.changed_calls(record["per_layer"]) == [
        "traced collar.dtau.calls: parent 711 change 180; "
        "self_s parent 0.05 change 0.01"]


def _report(records):
    """A report.json payload of one suite from (check_id, u, measured,
    target, rel_err, pass) tuples."""
    return {"suites": [{"suite": "s", "status": "pass", "records": [
        {"suite": "s", "check_id": c, "u": u, "t_abs": "0",
         "measured_re": m, "measured_im": "0", "target_re": t,
         "target_im": "0", "rel_err": r, "pass": p}
        for c, u, m, t, r, p in records]}]}


def test_report_drift_on_synthetic_reports(bench_ab):
    parent = _report([("a", "0.1", "2000", "2000", "0", "true"),
                      ("a", "0.05", "4", "2", "1", "true"),
                      ("b", "0.1", "0.5", "0", "0.5", "true"),
                      ("c", "0.1", "nan", "0", "nan", "false")])
    change = _report([("a", "0.1", "2000", "1999.9999999999998",
                       "1.1368683772161603e-16", "true"),
                      ("a", "0.05", "4", "2.5", "0.6", "true"),
                      ("b", "0.1", "0.5", "0", "0.5", "true"),
                      ("c", "0.1", "nan", "0", "nan", "false")])
    out = bench_ab.report_drift(change, parent)
    assert out["same_records"] and out["same_verdicts"]
    # ids that did not move (NaN included) are left out; "a" keeps the
    # largest drift over its two records, each at check_report's scale
    assert out["drift"] == {"a": {"measured": 0.0, "target": 0.5 / 4,
                                  "rel_err": 0.4}}

    flipped = _report([("a", "0.1", "2000", "2000", "0", "false"),
                       *[(r["check_id"], r["u"], r["measured_re"],
                          r["target_re"], r["rel_err"], r["pass"])
                         for r in parent["suites"][0]["records"][1:]]])
    out = bench_ab.report_drift(flipped, parent)
    assert out == {"same_records": True, "same_verdicts": False, "drift": {}}

    # a record out of order: no record-by-record drift
    swapped = _report([("a", "0.05", "4", "2", "1", "true"),
                       ("a", "0.1", "2000", "2000", "0", "true")])
    assert bench_ab.report_drift(swapped, parent) == {
        "same_records": False, "same_verdicts": False, "drift": {}}
    # a NaN where the parent had a number is an infinite drift
    nan = _report([("a", "0.1", "nan", "2000", "nan", "false"),
                   *[(r["check_id"], r["u"], r["measured_re"],
                      r["target_re"], r["rel_err"], r["pass"])
                     for r in parent["suites"][0]["records"][1:]]])
    out = bench_ab.report_drift(nan, parent)
    assert out["drift"] == {"a": {"measured": math.inf, "target": 0.0,
                                  "rel_err": math.inf}}
    assert not out["same_verdicts"]


MEMOS = ("grids 7 entries, 4.45 MB; fields 172 entries, 1.12 MB; "
         "workspaces 12 entries, 0.00 MB")
REPORT_MD = "\n".join([
    "# collarlab report", "", "Overall: **fail**", "",
    "## green-props - pass (0.13 s)", "",
    "Peak RSS after this suite: 48.9 MB", "",
    "RSS at this suite's end: 48.7 MB", "",
    "| check | u | measured | target | rel_err | pass |",
    "| resolvent-sym: x | 0.05 | 1 | 1 | 0 | pass |", "",
    "## equivalence - fail (0.00 s)", "",
    "Peak RSS after this suite: 49.0 MB", "",
    "## lengths - pass (0.00 s)", "",  # where /proc is missing: no line
    "| check | u | measured | target | rel_err | pass |", "",
    "Threads at run end: 1 (OPENBLAS_NUM_THREADS=1)", "",
    "LAPACK: libopenblas.so (zgbtrf_64_)", "",
    f"Memos at run end: {MEMOS}", ""])
PROC = pathlib.Path("/proc/self/status").exists()


@pytest.fixture
def cli_facts(bench_ab, tmp_path):
    """report_facts of a report.md the CLI writes."""
    cfg = collarlab.RunConfig.from_dict({"suites": ["lengths"]})
    collarlab.emit_report([collarlab.run_suite(cfg, "lengths")],
                          str(tmp_path), ("markdown",))
    return bench_ab.report_facts((tmp_path / "report.md").read_text())


def test_suite_peaks_from_report_md(bench_ab, cli_facts):
    assert bench_ab.report_facts(REPORT_MD)["suites"] == {
        "green-props": {"Peak RSS after this suite": "48.9 MB",
                        "RSS at this suite's end": "48.7 MB"},
        "equivalence": {"Peak RSS after this suite": "49.0 MB"}}
    rss = {label: value for label, value in cli_facts["suites"]["lengths"]
           .items() if "RSS" in label}
    assert len(rss) == (2 if PROC else 0)
    for line in rss.values():
        assert line.endswith(" MB") and float(line.split()[0]) > 0
    assert ("Threads at run end" in cli_facts["run"]) == PROC


def test_memo_entries_per_suite_from_report_md(bench_ab, cli_facts):
    # the line is the suite's, with or without the RSS lines above it
    counts = ", ".join(f"{name} {s['entries']}"
                       for name, s in collarlab.cache_stats().items())
    assert cli_facts["suites"]["lengths"][
        "Memo entries after this suite"] == counts
    assert "Memo entries after this suite" not in cli_facts["run"]
    assert bench_ab.report_facts(
        "## lengths - pass (0.00 s)\n\n"
        "Memo entries after this suite: grids 1, resolvent 2, fields 3, "
        "workspaces 4\n\n| check |")["suites"] == {"lengths": {
            "Memo entries after this suite":
                "grids 1, resolvent 2, fields 3, workspaces 4"}}


def test_changed_memo_entries_name_both_sides(bench_ab):
    line = "Memo entries after this suite"
    parent = {"run": {}, "suites": {
        "green-props": {line: "grids 6, resolvent 19, fields 65, "
                              "workspaces 5"},
        "lengths": {line: "grids 6, resolvent 19, fields 65, workspaces 5"}}}
    change = {"run": {}, "suites": {
        "green-props": {line: "grids 6, resolvent 12, fields 65, "
                              "workspaces 5"},
        "lengths": {line: "grids 6, resolvent 19, fields 65, workspaces 5"},
        "equivalence": {line: "grids 6, resolvent 12, fields 70, "
                              "workspaces 6"}}}
    assert bench_ab.changed_memo_entries(
        {"parent": parent, "change": change}) == [
        "green-props memo entries: parent grids 6, resolvent 19, fields 65, "
        "workspaces 5; change grids 6, resolvent 12, fields 65, workspaces 5",
        "equivalence memo entries: parent None; change grids 6, resolvent "
        "12, fields 70, workspaces 6"]
    assert bench_ab.changed_memo_entries(
        {"parent": parent, "change": parent}) == []


def test_lapack_source_from_report_md(bench_ab, cli_facts):
    assert bench_ab.report_facts(REPORT_MD)["run"]["LAPACK"] == (
        "libopenblas.so (zgbtrf_64_)")
    # a report.md from before the line was written, or none at all
    assert "LAPACK" not in bench_ab.report_facts(
        REPORT_MD.replace("LAPACK", "BLAS"))["run"]
    assert bench_ab.report_facts("") == {"run": {}, "suites": {}}
    assert cli_facts["run"]["LAPACK"] == collarlab.green.LAPACK_SOURCE


def test_memo_sizes_from_report_md(bench_ab, cli_facts):
    assert bench_ab.report_facts(REPORT_MD)["run"] == {
        "Overall": "**fail**",
        "Threads at run end": "1 (OPENBLAS_NUM_THREADS=1)",
        "LAPACK": "libopenblas.so (zgbtrf_64_)", "Memos at run end": MEMOS}
    assert cli_facts["run"]["Memos at run end"] == "; ".join(
        f"{name} {s['entries']} entries, {s['bytes'] / 2**20:.2f} MB"
        for name, s in collarlab.cache_stats().items())


def test_host_records_the_blas_thread_variables(bench_ab, monkeypatch):
    # this test process has imported collarlab, which set
    # OPENBLAS_NUM_THREADS; the record gives what the environment holds
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    host = bench_ab.host()
    assert host["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2",
                                    "OMP_NUM_THREADS": None,
                                    "MKL_NUM_THREADS": "3"}
    assert host["nproc"] == os.cpu_count()


def test_fine_grid_config_is_the_default_run_at_n_tau_16384(bench_ab):
    raw = json.loads(bench_ab.FINE_GRID.read_text())
    cfg = collarlab.RunConfig.from_dict(raw)
    assert cfg.n_tau == 16384
    assert cfg == dataclasses.replace(collarlab.RunConfig(), n_tau=16384)


def test_cli_run_measures_a_fresh_run(bench_ab, tmp_path):
    config = tmp_path / "lengths.json"
    config.write_text(json.dumps({"suites": ["lengths"]}))
    run = bench_ab.cli_run(ROOT, tmp_path / "out", config)
    assert run["exit_code"] == 0
    assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 0
    assert run["facts"]["run"]["LAPACK"] == collarlab.green.LAPACK_SOURCE
    assert (tmp_path / "out" / "report.csv").exists()


def test_src_lines_per_module_on_two_trees(bench_ab, tmp_path):
    modules = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
               "change": {"a.py": "x = 1\n", "b.py": "z = 3\n",
                          "c.py": "w = 4\nv = 5\n"}}
    trees = {}
    for side, files in modules.items():
        trees[side] = tmp_path / side
        package = trees[side] / "src" / "collarlab"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not a module\n")
    lines = bench_ab.src_lines(trees)
    assert (lines["parent"], lines["change"]) == (3, 4)
    assert lines["modules"] == {"a.py": {"parent": 2, "change": 1},
                                "b.py": {"parent": 1, "change": 1},
                                "c.py": {"parent": None, "change": 2}}
    # the unchanged module is left out
    assert bench_ab.changed_modules(lines) == [
        "src_lines a.py: parent 2 change 1",
        "src_lines c.py: parent None change 2"]
