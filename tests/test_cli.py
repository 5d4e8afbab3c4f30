"""Run configs, suite execution, report emission, and exit codes."""

import collections
import json
import math
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import collarlab.cli
from collarlab import (CurvatureWorkspace, RunConfig, SolverConfig, TauGrid,
                       cache_stats, collar_from_u, emit_report, main,
                       make_grid, pairing_l2, relative_change, run_suite,
                       solve_T)
from collarlab.cli import (CSV_COLUMNS, TOLERANCE_KEYS, ConfigError,
                           SuiteReport, _compact_field, _draw, _record,
                           _suite_green_props, _window, run_all)
from collarlab.green import LAPACK_SOURCE

ROOT = pathlib.Path(__file__).parents[1]


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
        {"sweep": {"spacing": "geometric"}},  # the key itself is unknown
        {"grid": {"n_tau": 128}},
        {"suites": ["no-such-suite"]},
        {"output": {"formats": ["yaml"]}},
        {"c": 1.5},
        {"c": 0.3},  # below the taper's outer level 0.5
        {"c": 0.4},
        {"tolerances": {"no-such-check": 0.2}},
        {"tolerances": {"err-e-exponent": 0.1}},  # floor checks take no key
        {"tolerances": {"length-spot": math.nan}},
        {"tolerances": {"length-spot": -0.1}},
        {"tolerances": {"t-pairing": "0.2"}},
        {"tolerances": {"t-pairing": True}},
        {"perturbation": {"C": "15"}},
        {"grid": {"n_tau": 1024.9}},
        {"sweep": {"points": 4.5}},
        {"seed": True},
        {"seed": 1.5},
        {"sweep": {"u_min": "0.03"}},
        {"coupling": {"kappa": True}},
        {"output": {"directory": 5}},
        {"suites": [1]},
        {"sweep": {"u_min": 10**400}},  # no float holds it
        {"grid": {"n_tau": 16385}},
        {"sweep": {"points": 65}},
        {"perturbation": {"C": [0]}},
        {"perturbation": {"C": [-1]}},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)
    # the caps themselves are accepted (validated only, nothing is run)
    cfg = RunConfig.from_dict({"grid": {"n_tau": 16384},
                               "sweep": {"points": 64}})
    assert (cfg.n_tau, cfg.points) == (16384, 64)


@pytest.mark.parametrize("measured, target, tol, floor, rel_err, passed", [
    (0.25, 0.0, 0.25, False, 0.25, True),   # target 0: absolute error
    (-0.5, 0.0, 0.25, False, 0.5, False),
    (3.0, 2.0, 0.5, False, 0.5, True),      # nonzero target: relative
    (3.0, 2.0, 0.25, False, 0.5, False),
    (4.0, 2.0, 0.0, True, 1.0, True),       # floor: Re m >= Re t, any tol
    (1.0 + 8j, 2.0, math.inf, True, math.sqrt(65) / 2, False),
    (math.nan, 0.0, math.inf, False, math.nan, False),  # NaN never passes
], ids=["abs-pass", "abs-fail", "rel-pass", "rel-fail", "floor-pass",
        "floor-fail", "nan"])
def test_record_rules(measured, target, tol, floor, rel_err, passed):
    rec = _record("x", 0.05, measured, target, tol, floor=floor)
    assert rec.rel_err == pytest.approx(rel_err, nan_ok=True)
    assert rec.passed is passed
    status = SuiteReport("s", [rec], 0.0).status
    assert status == ("pass" if passed else "fail")


def test_readme_example_config_is_valid():
    readme = ROOT / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1)
    cfg = RunConfig.from_dict(json.loads(block))
    assert cfg.tolerances == {"t-pairing": 0.15}


@pytest.fixture(scope="module")
def default_run_all(clear_models):
    """One default run_all on cold memos: its reports, the models it built
    and the tolerance keys it read."""
    built = collections.Counter()
    keys = set()
    with pytest.MonkeyPatch.context() as mp:
        for cls in (TauGrid, CurvatureWorkspace):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                _init(self, *args, **kwargs)
            mp.setattr(cls, "__init__", counted)
        tol = RunConfig.tol

        def recorded(self, key, default):
            keys.add(key)
            return tol(self, key, default)
        mp.setattr(RunConfig, "tol", recorded)
        clear_models()
        reports = run_all(RunConfig.from_dict({}))
    return reports, built, keys


@pytest.fixture(scope="module")
def default_run(default_run_all):
    _, built, keys = default_run_all
    return built, keys


def test_default_run_builds_each_model_once(default_run):
    built, _ = default_run
    assert built["TauGrid"] <= 7
    assert built["CurvatureWorkspace"] <= 17


def test_tolerance_keys_are_the_keys_a_run_reads(default_run):
    _, keys = default_run
    assert len(set(TOLERANCE_KEYS)) == len(TOLERANCE_KEYS)
    assert set(TOLERANCE_KEYS) == keys


def test_default_run_matches_the_benchmark_reference(default_run_all,
                                                     tmp_path, perfbench_run):
    # same suites, check ids, u values, order and verdicts; numbers within
    # the benchmark's drift bound of its stored full-run reference
    reports, _, _ = default_run_all
    emit_report(reports, str(tmp_path), ("json",))
    payload = json.loads((tmp_path / "report.json").read_text())
    ref = json.loads((ROOT / "perfbench" / "reference" / "full-run.json")
                     .read_text())
    assert ref["cli_seed"] == RunConfig.from_dict({}).seed
    assert ([(s["suite"], s["status"]) for s in payload["suites"]]
            == [(s["suite"], s["status"]) for s in ref["suites"]])
    assert perfbench_run.check_report(payload, ref, exact=True) is None


def test_sweep_checks_gate_only_the_smallest_u():
    # with a zero tolerance, these checks fail at the smallest sweep u only
    gated = ("ricci-diag", "g1-terms", "t-pairing", "perturbed-diag",
             "det-structure")
    cfg = RunConfig.from_dict({
        "suites": ["ricci-asymptotics", "holo-curvature", "perturbed"],
        "tolerances": dict.fromkeys(gated, 0.0)})
    us = cfg.sweep_values()
    families = ("ricci-diag", "g1-", "t-pairing", "perturbed-diag",
                "det-structure")
    recs = [r for rep in run_all(cfg) for r in rep.records
            if r.check_id.startswith(families)]
    assert len(recs) == len(us) * (8 + len(cfg.perturbation_C))
    assert [r.passed for r in recs] == [r.u != us[-1] for r in recs]


def test_shared_models_do_not_depend_on_suite_order(tmp_path, clear_models):
    cfg = RunConfig.from_dict({"suites": ["ricci-asymptotics",
                                          "holo-curvature"]})
    clear_models()
    emit_report(run_all(cfg), str(tmp_path / "cold"), ("csv",))
    clear_models()
    run_all(RunConfig.from_dict({"suites": ["approximants", "perturbed",
                                            "equivalence", "g2-bounds"]}))
    emit_report(run_all(cfg), str(tmp_path / "warm"), ("csv",))
    assert ((tmp_path / "cold" / "report.csv").read_bytes()
            == (tmp_path / "warm" / "report.csv").read_bytes())


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


def test_emit_report_formats(tmp_path, monkeypatch):
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
    # peak and current RSS, read together from /proc/self/status where the
    # platform has it, and both left out where it does not
    shown = len(reports) if pathlib.Path("/proc/self/status").exists() else 0
    peaks = re.findall(r"^Peak RSS after this suite: (\d+\.\d) MB$", md, re.M)
    ends = re.findall(r"^RSS at this suite's end: (\d+\.\d) MB$", md, re.M)
    assert len(peaks) == len(ends) == shown
    for peak, end in zip(peaks, ends):
        assert float(end) <= float(peak)
    # the thread count comes from the same read, beside the BLAS setting
    threads = re.findall(r"^Threads at run end: (\d+) "
                         r"\(OPENBLAS_NUM_THREADS=(.+)\)$", md, re.M)
    assert len(threads) == min(shown, 1)
    for count, blas in threads:
        assert int(count) >= 1
        assert blas == os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    if threads:
        assert md.splitlines()[-5].startswith("Threads at run end: ")
    # and the library and symbol the resolvent's LAPACK comes from
    assert md.splitlines()[-3] == f"LAPACK: {LAPACK_SOURCE}"
    assert re.fullmatch(r"LAPACK: \S+ \(\w*zgbtrf\w*\)",
                        md.splitlines()[-3])
    # the report ends with the memos' entries and sizes, store by store
    stats = cache_stats()
    memo_line = "Memos at run end: " + "; ".join(
        f"{name} {s['entries']} entries, {s['bytes'] / 2**20:.2f} MB"
        for name, s in stats.items())
    assert md.splitlines()[-1] == memo_line
    assert md.count("Memos at run end") == 1
    assert list(stats) == ["grids", "resolvent", "fields", "workspaces"]
    assert stats["grids"]["entries"] > 0 and stats["grids"]["bytes"] > 0

    check_ids = {r.check_id for rep in reports for r in rep.records}
    svgs = {n for n in names if n.endswith(".svg")}
    assert svgs == {f"{cid}.svg" for cid in check_ids}

    # where /proc/self/status is missing: no RSS lines and no thread line
    def no_status(path, *args, **kwargs):
        if path == "/proc/self/status":
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)
    monkeypatch.setattr(collarlab.cli, "open", no_status, raising=False)
    assert collarlab.cli._proc_status() == (None, None, None)
    emit_report(run_all(cfg), str(out), ("markdown",))
    md = (out / "report.md").read_text()
    assert "RSS" not in md and "Threads" not in md
    assert md.splitlines()[-3] == f"LAPACK: {LAPACK_SOURCE}"
    assert md.splitlines()[-1].startswith("Memos at run end: ")


def test_emit_report_respects_format_subset(tmp_path):
    cfg = RunConfig.from_dict({"suites": ["lengths"]})
    reports = run_all(cfg)
    written = emit_report(reports, str(tmp_path / "o"), ("json",))
    assert [p.split("/")[-1] for p in written] == ["report.json"]


def test_svg_lines_plot_only_finite_rel_err(tmp_path):
    finite = [_record("mixed", u, 1.0 + u, 1.0, 1.0)
              for u in (0.1, 0.05, 0.025)]
    nan = [_record("mixed", 0.07, math.nan, 1.0, 1.0),
           _record("unresolved", 0.1, math.nan, 1.0, 1.0),
           _record("unresolved", 0.05, math.nan, 1.0, 1.0)]
    emit_report([SuiteReport("s", finite + nan, 0.0)], str(tmp_path / "all"),
                ("svg-lines",))
    emit_report([SuiteReport("s", finite, 0.0)], str(tmp_path / "finite"),
                ("svg-lines",))
    svgs = {p.name: p.read_text() for p in (tmp_path / "all").iterdir()}
    assert set(svgs) == {"mixed.svg", "unresolved.svg"}
    for text in svgs.values():
        assert "nan" not in text and "inf" not in text
    # a NaN record moves neither the points nor the scale of the others
    assert svgs["mixed.svg"] == (tmp_path / "finite" / "mixed.svg").read_text()
    assert 'points=""' in svgs["unresolved.svg"]
    assert "<circle" not in svgs["unresolved.svg"]


def test_seeded_suite_is_deterministic(tmp_path):
    cfg = RunConfig.from_dict({"suites": ["green-props"]})
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_report(run_all(cfg), str(a), ("csv",))
    emit_report(run_all(cfg), str(b), ("csv",))
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def _green_props_all_at_once(cfg):
    """green-props' sampled margins, residual and self-adjointness with all
    100 fields and solutions held at once, as the suite computed them
    before it streamed its samples."""
    rng = np.random.default_rng(cfg.seed)
    col = collar_from_u(0.05, cfg.c)
    grid = make_grid(col, cfg.n_tau)
    worst = {"lower": math.inf, "upper": math.inf, "resid": 0.0, "selfadj": 0.0}
    fields = [_compact_field(col, grid, *_window(grid), _draw(rng))
              for _ in range(100)]
    solved = []
    for f in fields:
        g = solve_T(f, SolverConfig())
        solved.append(g)
        norm_gg = pairing_l2(g, g).real
        cross = pairing_l2(g, f).real
        norm_ff = pairing_l2(f, f).real
        worst["lower"] = min(worst["lower"], cross - norm_gg)
        worst["upper"] = min(worst["upper"], norm_ff - cross)
        worst["resid"] = max(worst["resid"], g.residual_sup / f.sup_norm())
    for f, g, f2, g2 in zip(fields[:50], solved[:50], fields[50:], solved[50:]):
        worst["selfadj"] = max(worst["selfadj"], relative_change(
            pairing_l2(g, f2), pairing_l2(f, g2)))
    return {"spectral-lower": worst["lower"], "spectral-upper": worst["upper"],
            "residual": worst["resid"], "self-adjoint": worst["selfadj"]}


def test_green_props_streaming_matches_all_at_once():
    cfg = RunConfig()
    oracle = _green_props_all_at_once(cfg)
    measured = {r.check_id: r.measured for r in _suite_green_props(cfg)
                if r.check_id in oracle}
    assert measured == oracle


def test_green_props_holds_few_samples():
    # warm the grid, its factors and the sweep's memos, then trace a second
    # call: holding all 100 (f, Tf) pairs peaks near 14.7 MiB, holding the
    # 50 not yet paired near 8.1 MiB
    cfg = RunConfig()
    _suite_green_props(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _suite_green_props(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 10 * 2**20


def test_green_props_holds_two_samples():
    # draws k and k + 50 are solved together, so two (f, Tf) pairs are live
    # at a time: the second call peaks near 1.1 MiB, against 8.1 MiB with
    # the 50 not yet paired held
    cfg = RunConfig()
    _suite_green_props(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _suite_green_props(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * 2**20


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


def test_main_seed_override(tmp_path):
    assert main(["run", "--suite", "green-props", "--seed", "7",
                 "--out", str(tmp_path / "cli"), "--format", "csv"]) == 0
    seeded = run_suite(RunConfig(seed=7), "green-props")
    emit_report([seeded], str(tmp_path / "direct"), ("csv",))
    assert ((tmp_path / "cli" / "report.csv").read_bytes()
            == (tmp_path / "direct" / "report.csv").read_bytes())
    # the sampled checks draw their fields from the seed
    default = run_suite(RunConfig(), "green-props")
    sampled = {"spectral-lower", "spectral-upper", "residual", "self-adjoint"}
    for a, b in zip(seeded.records, default.records):
        assert a.check_id == b.check_id
        assert (a.measured != b.measured) == (a.check_id in sampled)


def test_main_reports_failing_checks(tmp_path, capsys):
    # the comparison-metric variation check fails by design at this scale
    cfg_path = write_config(tmp_path / "cfg.json", suites=["equivalence"],
                            output={"directory": str(tmp_path / "out")})
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "failing checks:" in err
    assert "mcmullen-variation" in err


def test_module_run_warns_nothing_and_import_leaves_cli_unloaded(
        fresh_python):
    # `python -m collarlab.cli` warned when the package had loaded cli
    # before runpy executed it as __main__
    proc = fresh_python("-W", "error::RuntimeWarning", "-m", "collarlab.cli",
                        "run", "--suite", "lengths", "--out", "out")
    assert proc.returncode == 0, proc.stderr
    proc = fresh_python(
        "-c", "import sys, collarlab; print('collarlab.cli' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_main_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nonsense": True}))
    assert main(["run", "--config", str(unknown)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text(json.dumps([1, 2]))
    assert main(["run", "--config", str(not_object)]) == 2


@pytest.mark.parametrize("overrides", [
    {"grid": {"ntau": 4096}},
    {"grid": {"n_modes": 24}},
    {"sweep": {"umin": 0.03}},
    {"perturbation": {"c": [1.0]}},
    {"coupling": {"kapa": 1.0}},
    {"output": {"dir": "elsewhere"}},
    {"perturbation": {"C": []}},
    {"coupling": {"kappa": math.nan}},
    {"perturbation": {"C": [math.inf]}},
    {"perturbation": {"C": [0]}},
    {"seed": -1},
    {"c": 0.3},
    {"c": 0.4},
], ids=["grid", "n_modes", "sweep", "perturbation", "coupling", "output",
        "empty-C", "kappa-nan", "C-inf", "C-zero", "seed-negative", "c-0.3",
        "c-0.4"])
def test_main_rejects_nested_keys_and_empty_values(tmp_path, capsys,
                                                   overrides):
    cfg_path = write_config(tmp_path / "cfg.json", suites=["perturbed"],
                            **overrides)
    assert main(["run", "--config", cfg_path]) == 2
    assert "config error:" in capsys.readouterr().err


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


def test_main_out_override_on_non_object_output(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", output="x")
    assert main(["run", "--config", cfg_path, "--out",
                 str(tmp_path / "o")]) == 2
    assert main(["run", "--config", cfg_path, "--format", "csv"]) == 2
    assert "config error:" in capsys.readouterr().err
