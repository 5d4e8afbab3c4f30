"""The export list, and the benchmark tracer's hold on the names it patches.

`perfbench/tracer.py` patches collarlab functions and methods by name and
binds some of their arguments by name (`make_grid(nodes_per_panel=)`, the
workspace's `system`, `bspec`, `cutoff`, `compact_part` and `solver`). A
rename that breaks it fails here rather than only in the benchmark's own
self-test.
"""

import sys

import collarlab


def _snapshot():
    """Every attribute of every loaded collarlab module and of each class
    they define, as {(owner, name): object}."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "collarlab"
                               or mod_name.startswith("collarlab.")):
            continue
        for key, val in vars(mod).items():
            out[(mod_name, key)] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                for attr, obj in vars(val).items():
                    out[(f"{mod_name}.{key}", attr)] = obj
    return out


def test_exports_resolve_and_the_tracer_restores_them(perfbench_tracer,
                                                      clear_models):
    clear_models()  # cold memos, so the traced workspace solves its fields
    missing = [name for name in collarlab.__all__
               if not hasattr(collarlab, name)]
    assert missing == []

    before = _snapshot()
    tracer = perfbench_tracer.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        collars = tuple(collarlab.collar_from_u(u) for u in (0.1, 0.07))
        system = collarlab.CollarSystem(
            collars, tuple(collarlab.make_grid(col, 512) for col in collars))
        bspec, _ = collarlab.coupled_family(system, kappa=1.0)
        ws = collarlab.CurvatureWorkspace(system, bspec)
        ws.ricci_curvature(0, 0, 0, 0)
        tracer.end_op()
        m = tracer.op_metrics(0)
    finally:
        tracer.uninstall()

    changed = [key for key, obj in _snapshot().items()
               if key in before and before[key] is not obj]
    assert changed == []
    assert m["collar.make_grid.calls"] == 2
    assert m["collar.grids.distinct"] == 2
    assert m["curvature.workspaces.built"] == 1
    assert m["curvature.ricci_curvature.calls"] == 1
    assert m["differentials.beltrami_field.calls"] > 0
    assert m["green.solve_T.calls"] > 0 and m["green.modes_solved"] > 0
    assert m["green.errors"] == 0
