"""Run configs, suite execution, report emission, and exit codes."""

import json
import math

import numpy as np
import pytest

from collarlab import RunConfig, emit_report, main, run_suite
from collarlab.cli import CSV_COLUMNS, ConfigError, run_all


def write_config(path, **overrides):
    raw = {"suites": ["verify-calculus"], "output": {"directory": "unset"}}
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return str(path)


def test_runconfig_defaults_and_overrides():
    cfg = RunConfig.from_dict({})
    assert cfg.n_tau == 1024 and cfg.points == 5 and cfg.seed == 1234
    cfg = RunConfig.from_dict({"sweep": {"u_min": 0.03, "points": 4},
                               "tolerances": {"t-pairing": 0.2}})
    assert cfg.u_min == 0.03 and cfg.points == 4
    assert cfg.tol("t-pairing", 0.15) == 0.2
    assert cfg.tol("unlisted", 0.15) == 0.15


def test_runconfig_rejects_bad_input():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict([1, 2])
    bad = [
        {"sweep": {"points": 3}},
        {"sweep": {"u_min": 0.2}},
        {"sweep": {"u_min": 0.001}},
        {"sweep": {"spacing": "linear"}},
        {"grid": {"n_tau": 128}},
        {"suites": ["no-such-suite"]},
        {"output": {"formats": ["yaml"]}},
        {"c": 1.5},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


def test_sweep_values_geometric():
    cfg = RunConfig.from_dict({"sweep": {"u_min": 0.025, "u_max": 0.1,
                                         "points": 5}})
    us = cfg.sweep_values()
    assert len(us) == 5
    assert us[0] == pytest.approx(0.1) and us[-1] == pytest.approx(0.025)
    ratios = [us[i + 1] / us[i] for i in range(4)]
    assert max(ratios) - min(ratios) < 1e-12  # constant ratio


def test_run_suite_passes_and_rejects_unknown():
    cfg = RunConfig.from_dict({})
    rep = run_suite(cfg, "verify-calculus")
    assert rep.suite == "verify-calculus"
    assert rep.status == "pass"
    assert all(r.passed for r in rep.records)
    with pytest.raises(ConfigError):
        run_suite(cfg, "no-such-suite")


def test_emit_report_formats(tmp_path):
    cfg = RunConfig.from_dict({"suites": ["verify-calculus", "lengths"]})
    reports = run_all(cfg)
    out = tmp_path / "out"
    written = emit_report(reports, str(out),
                          ("csv", "json", "markdown", "svg-lines"))
    names = {p.split("/")[-1] for p in written}
    assert {"report.csv", "report.json", "report.md"} <= names

    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    n_records = sum(len(rep.records) for rep in reports)
    assert len(lines) == 1 + n_records

    payload = json.loads((out / "report.json").read_text())
    assert [s["suite"] for s in payload["suites"]] == ["verify-calculus",
                                                       "lengths"]
    assert all(s["status"] == "pass" for s in payload["suites"])
    rec = payload["suites"][0]["records"][0]
    assert set(rec) == set(CSV_COLUMNS)

    md = (out / "report.md").read_text()
    assert "# collarlab report" in md
    assert "Overall: **pass**" in md
    assert " s)" in md  # wall clock lives in the markdown only

    check_ids = {r.check_id for rep in reports for r in rep.records}
    svgs = {n for n in names if n.endswith(".svg")}
    assert svgs == {f"{cid}.svg" for cid in check_ids}


def test_emit_report_respects_format_subset(tmp_path):
    cfg = RunConfig.from_dict({"suites": ["lengths"]})
    reports = run_all(cfg)
    written = emit_report(reports, str(tmp_path / "o"), ("json",))
    assert [p.split("/")[-1] for p in written] == ["report.json"]


def test_seeded_suite_is_deterministic(tmp_path):
    cfg = RunConfig.from_dict({"suites": ["green-props"]})
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_report(run_all(cfg), str(a), ("csv",))
    emit_report(run_all(cfg), str(b), ("csv",))
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_main_passing_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert "verify-calculus: pass" in capsys.readouterr().out


def test_main_suite_and_format_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    rc = main(["run", "--config", cfg_path, "--suite", "lengths",
               "--out", str(tmp_path / "o2"), "--format", "json"])
    assert rc == 0
    assert (tmp_path / "o2" / "report.json").exists()
    assert not (tmp_path / "o2" / "report.csv").exists()


def test_main_reports_failing_checks(tmp_path, capsys):
    # the comparison-metric variation check fails by design at this scale
    cfg_path = write_config(tmp_path / "cfg.json", suites=["equivalence"],
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "failing checks:" in err
    assert "mcmullen-variation" in err


def test_main_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nonsense": True}))
    assert main(["run", "--config", str(unknown)]) == 2


@pytest.mark.parametrize("overrides", [
    {"grid": {"ntau": 4096}},
    {"grid": {"n_modes": 24}},
    {"sweep": {"umin": 0.03}},
    {"perturbation": {"c": [1.0]}},
    {"coupling": {"kapa": 1.0}},
    {"output": {"dir": "elsewhere"}},
    {"perturbation": {"C": []}},
], ids=["grid", "n_modes", "sweep", "perturbation", "coupling", "output",
        "empty-C"])
def test_main_rejects_nested_keys_and_empty_values(tmp_path, overrides):
    cfg_path = write_config(tmp_path / "cfg.json", suites=["perturbed"],
                            **overrides)
    assert main(["run", "--config", cfg_path]) == 2


def test_main_output_collision(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("file, not a directory")
    cfg_path = write_config(tmp_path / "cfg.json",
                            output={"directory": str(blocked)})
    assert main(["run", "--config", cfg_path]) == 2


def test_main_empty_suites(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", suites=[],
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_parallel_workers_match_serial(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.json",
                            suites=["verify-calculus", "lengths"],
                            output={"directory": str(tmp_path / "serial")})
    assert main(["run", "--config", cfg_path]) == 0
    monkeypatch.setenv("COLLARLAB_WORKERS", "2")
    cfg2 = write_config(tmp_path / "cfg2.json",
                        suites=["verify-calculus", "lengths"],
                        output={"directory": str(tmp_path / "par")})
    assert main(["run", "--config", cfg2]) == 0
    assert ((tmp_path / "serial" / "report.csv").read_bytes()
            == (tmp_path / "par" / "report.csv").read_bytes())
