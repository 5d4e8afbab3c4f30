"""The target table is the one source of every target the run checks."""

import dataclasses
import math

from collarlab import RunConfig, perturbed_prediction, run_suite, targets
from collarlab.cli import _row_dict

PI = math.pi

# the five suites that read the table, and the records built from each row
# (through its constant; the err-* rows, whose constant is 0, through their
# exponent)
SUITES = ("wp-asymptotics", "ricci-asymptotics", "approximants",
          "holo-curvature", "perturbed")
PERTURBED = {"perturbed-diag-C1", "perturbed-diag-C10"}
BUILT_FROM = {
    "wp-metric-diag": {"wp-metric-diag", "det-structure"},
    "wp-cometric-diag": {"wp-cometric-diag", "wp-cometric-spot"},
    "ricci-diag": {"ricci-diag", "det-structure"},
    "wp-curv-diag": PERTURBED,
    "g1-term-1": {"g1-term-1"} | PERTURBED,
    "g1-term-2": {"g1-term-2"} | PERTURBED,
    "g1-term-3": {"g1-term-3"} | PERTURBED,
    "g1-term-4": {"g1-term-4"} | PERTURBED,
    "g1-sum": {"g1-sum"},
    "t-pairing": {"t-pairing"},
    "k0-pairing": {"k0-pairing"},
    "xi-pairing": {"xi-pairing"},
    "ef-pairing": {"ef-pairing"},
    "err-e": {"err-e-exponent"},
    "err-xi": {"err-xi-exponent"},
    "err-T": {"err-T-exponent"},
}


def _records(cfg):
    return [_row_dict(r) for s in SUITES for r in run_suite(cfg, s).records]


def _moved(monkeypatch, cfg, before, rows) -> set:
    """Ids of the records that move when the given rows are doubled."""
    table = dict(targets._TABLE)
    for k in rows:
        t = table[k]
        table[k] = dataclasses.replace(
            t, constant=2 * t.constant,
            exponent=t.exponent + (1 if k.startswith("err-") else 0))
    monkeypatch.setattr(targets, "_TABLE", table)
    after = _records(cfg)
    monkeypatch.undo()
    assert [(r["check_id"], r["u"]) for r in after] == [
        (r["check_id"], r["u"]) for r in before]
    moved = {r["check_id"] for r, r0 in zip(after, before) if r != r0}
    # every record of a moved id moves, at every u
    assert all(r != r0 for r, r0 in zip(after, before)
               if r["check_id"] in moved)
    return moved


def test_every_target_is_read_from_the_table(monkeypatch):
    assert set(BUILT_FROM) == {t.check_id for t in targets.target_table()}
    cfg = RunConfig()
    before = _records(cfg)  # also warms the memos for the runs below
    assert (_moved(monkeypatch, cfg, before, BUILT_FROM)
            == set().union(*BUILT_FROM.values()))
    # one row at a time, so that a record built from two rows must read both
    for row, ids in BUILT_FROM.items():
        assert _moved(monkeypatch, cfg, before, [row]) == ids, row
    assert _records(cfg) == before


def _old_perturbed_prediction(u, C):
    """perturbed_prediction as it was written before it read the table."""
    quartic = (9.0 / (16.0 * PI**4)
               - (3.0 / (16.0 * PI**4)) / (1.0 + 2.0 * PI**2 * C * u / 3.0))
    return quartic * u**4 + (3.0 * C / (8.0 * PI**2)) * u**5


def test_perturbed_prediction_keeps_its_bits_on_the_default_sweep():
    cfg = RunConfig()
    for C in cfg.perturbation_C:
        for u in cfg.sweep_values():
            got, want = perturbed_prediction(u, C), _old_perturbed_prediction(u, C)
            assert got.hex() == want.hex(), (u, C)
