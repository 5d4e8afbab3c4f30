"""Outside-in tracer for collarlab.

Wraps the public functions and methods of each collarlab module with
timing spans, from outside the program: no collarlab file is edited.
Spans (name, start, end, parent, operation) stay in memory until the run
ends; `op_metrics` folds the spans of one operation into the per-layer
metrics named in perfbench/README.md.

A module-level function is patched in every collarlab module that binds
it (`make_grid` is imported by name into cli, curvature and asymptotics),
so calls through any binding are caught.  Methods are patched on their
class.  `selftest.py` checks the resulting call counts against cProfile.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# span name -> [(module, attribute)]; several entries share one span name
FUNCTIONS = {
    "collar.make_grid": [("collarlab.collar", "make_grid")],
    "fields.wirtinger": [("collarlab.fields", "wirtinger")],
    "fields.pairing": [("collarlab.fields", "pairing_l2"),
                       ("collarlab.fields", "integral_product"),
                       ("collarlab.fields", "volume_integral")],
    "operators.maass": [("collarlab.operators", "maass")],
    "operators.box": [("collarlab.operators", "box")],
    "operators.xi": [("collarlab.operators", "xi")],
    "operators.q_operator": [("collarlab.operators", "q_operator")],
    "operators.op_P": [("collarlab.operators", "op_P"),
                       ("collarlab.operators", "op_P_bar")],
    "green.solve_T": [("collarlab.green", "solve_T")],
    "differentials.wp_metric": [("collarlab.differentials", "wp_metric")],
    "differentials.wp_cometric": [("collarlab.differentials", "wp_cometric")],
    "differentials.beltrami_field": [("collarlab.differentials",
                                      "beltrami_field")],
    "asymptotics.build_approximants": [("collarlab.asymptotics",
                                        "build_approximants")],
    "asymptotics.approximant_errors": [("collarlab.asymptotics",
                                        "approximant_errors")],
    "asymptotics.g2_spotcheck": [("collarlab.asymptotics", "g2_spotcheck")],
    "asymptotics.fit_power_law": [("collarlab.asymptotics", "fit_power_law")],
    "cli.emit_report": [("collarlab.cli", "emit_report")],
    "cli.run_suite": [("collarlab.cli", "run_suite")],
}

# span name -> (module, class, method)
METHODS = {
    "collar.dtau": ("collarlab.collar", "TauGrid", "dtau"),
    "collar.d2_dirichlet": ("collarlab.collar", "TauGrid",
                            "d2_banded_dirichlet"),
    "collar.integrate": ("collarlab.collar", "TauGrid", "integrate"),
    "fields.product": ("collarlab.fields", "CollarField", "__mul__"),
    "curvature.workspace": ("collarlab.curvature", "CurvatureWorkspace",
                            "__init__"),
    "curvature.block_a": ("collarlab.curvature", "CurvatureWorkspace",
                          "block_a"),
    "curvature.block_b": ("collarlab.curvature", "CurvatureWorkspace",
                          "block_b"),
    "curvature.block_c": ("collarlab.curvature", "CurvatureWorkspace",
                          "block_c"),
    "curvature.block_d": ("collarlab.curvature", "CurvatureWorkspace",
                          "block_d"),
    "curvature.tau": ("collarlab.curvature", "CurvatureWorkspace", "tau"),
    "curvature.ricci_curvature": ("collarlab.curvature", "CurvatureWorkspace",
                                  "ricci_curvature"),
}

SUITE_IDS = (
    "verify-calculus", "wp-asymptotics", "ricci-asymptotics", "green-props",
    "approximants", "holo-curvature", "perturbed", "lengths", "equivalence",
    "g2-bounds",
)

CALLS = ("collar.make_grid", "collar.dtau", "collar.d2_dirichlet",
         "collar.integrate", "fields.wirtinger", "fields.product",
         "fields.pairing", "operators.maass", "operators.box", "operators.xi",
         "operators.q_operator", "operators.op_P", "green.solve_T",
         "differentials.beltrami_field", "curvature.ricci_curvature",
         "asymptotics.fit_power_law")
SELF_TIMES = ("collar.dtau", "collar.d2_dirichlet", "collar.integrate",
              "fields.wirtinger", "fields.product", "fields.pairing",
              "operators.maass", "operators.box", "operators.xi",
              "operators.q_operator", "operators.op_P", "green.solve_T",
              "differentials.wp_metric", "differentials.wp_cometric",
              "curvature.block_a", "curvature.block_b", "curvature.block_c",
              "curvature.block_d", "curvature.tau",
              "asymptotics.build_approximants",
              "asymptotics.approximant_errors", "asymptotics.g2_spotcheck")


def _collarlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "collarlab"
                                  or name.startswith("collarlab."))]


class Tracer:
    """Span recorder; `install` patches collarlab, `uninstall` restores it."""

    def __init__(self):
        self.names = []          # span name table; spans store indices
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.op_id = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.op = -1
        self._facts = {}         # op -> dict of hook-recorded values
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op: int):
        self.op = op
        self._facts[op] = {"grids": [], "grid_keys": set(), "workspaces": 0,
                           "workspace_keys": set(), "modes": 0,
                           "residual_max": 0.0, "errors": 0, "bytes": 0}

    def end_op(self):
        self.op = -1

    def _wrap(self, name, fn, after=None, on_error=None, dynamic=None):
        tr = self
        nid = None if dynamic else self._nid(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tr.t0)
            tr.name_id.append(dynamic(args, kwargs) if dynamic else nid)
            tr.parent.append(tr._stack[-1])
            tr.op_id.append(tr.op)
            tr.t1.append(0.0)
            tr._stack.append(i)
            tr.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tr.t1[i] = clock()
                tr._stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            tr.t1[i] = clock()
            tr._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _facts_now(self):
        return self._facts.get(self.op)

    def _after_make_grid(self, sig):
        def after(args, kwargs, grid):
            facts = self._facts_now()
            if facts is None:
                return
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            # holding the grid keeps its id unique for the whole operation
            facts["grids"].append(grid)
            facts["grid_keys"].add((a["collar"], a["n_tau"],
                                    a["nodes_per_panel"]))
        return after

    def _after_solve(self, args, kwargs, out):
        facts = self._facts_now()
        if facts is None:
            return
        f = args[0] if args else kwargs["f"]
        facts["modes"] += len(f.modes)
        facts["residual_max"] = max(facts["residual_max"],
                                    float(getattr(out, "residual_sup", 0.0)))

    def _solve_error(self, solver_error):
        def on_error(exc):
            facts = self._facts_now()
            if facts is not None and isinstance(exc, solver_error):
                facts["errors"] += 1
        return on_error

    def _after_workspace(self, args, kwargs, _):
        facts = self._facts_now()
        if facts is None:
            return
        ws = args[0]
        grids = tuple(g.n for g in ws.system.grids)
        compact = (None if ws.compact_part is None
                   else np.asarray(ws.compact_part).tobytes())
        facts["workspaces"] += 1
        facts["workspace_keys"].add(repr((ws.system.collars, grids, ws.bspec,
                                          ws.cutoff, compact, ws.solver)))

    def _after_emit(self, args, kwargs, written):
        facts = self._facts_now()
        if facts is None:
            return
        facts["bytes"] += sum(os.path.getsize(p) for p in written)

    def _suite_name(self, args, kwargs):
        suite = args[1] if len(args) > 1 else kwargs["suite"]
        return self._nid(f"cli.suite.{suite}")

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every binding of the traced names in loaded collarlab modules."""
        import collarlab.cli  # noqa: F401  (loads every collarlab module)
        from collarlab.green import SolverError

        modules = _collarlab_modules()
        for name, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[mod_name], attr)
                kw = {}
                if name == "collar.make_grid":
                    kw["after"] = self._after_make_grid(inspect.signature(orig))
                elif name == "green.solve_T":
                    kw["after"] = self._after_solve
                    kw["on_error"] = self._solve_error(SolverError)
                elif name == "cli.emit_report":
                    kw["after"] = self._after_emit
                elif name == "cli.run_suite":
                    kw["dynamic"] = self._suite_name
                wrapper = self._wrap(name, orig, **kw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            after = self._after_workspace if attr == "__init__" else None
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, after=after))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- aggregation -------------------------------------------------------

    def call_counts(self) -> dict:
        """Calls per span name over the whole run (for the self-test)."""
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one operation (see README.md for names)."""
        # spans of one operation are contiguous: operations run one by one
        mine = np.flatnonzero(np.frombuffer(self.op_id, dtype=np.int64) == op)
        lo, hi = (int(mine[0]), int(mine[-1]) + 1) if len(mine) else (0, 0)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.t1, dtype=float)[lo:hi]
               - np.frombuffer(self.t0, dtype=float)[lo:hi])
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        inner = parent >= 0
        child = np.zeros(hi - lo)
        np.add.at(child, parent[inner], dur[inner])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        selfs = np.bincount(nid, weights=self_s, minlength=k)
        totals = np.bincount(nid, weights=dur, minlength=k)
        by = {n: i for i, n in enumerate(self.names)}

        def count(name):
            return int(calls[by[name]]) if name in by else 0

        def self_time(name):
            return float(selfs[by[name]]) if name in by else 0.0

        facts = self._facts[op]
        m = {}
        for name in CALLS:
            m[f"{name}.calls"] = count(name)
        for name in SELF_TIMES:
            m[f"{name}.self_s"] = self_time(name)
        grids = len({id(g) for g in facts["grids"]})
        m["collar.grids.distinct"] = len(facts["grid_keys"])
        m["collar.grids.useful_ratio"] = (
            len(facts["grid_keys"]) / grids if grids else 1.0)
        m["green.modes_solved"] = facts["modes"]
        m["green.residual_max"] = facts["residual_max"]
        m["green.errors"] = facts["errors"]
        built = facts["workspaces"]
        m["curvature.workspaces.built"] = built
        m["curvature.workspaces.distinct"] = len(facts["workspace_keys"])
        m["curvature.workspaces.useful_ratio"] = (
            len(facts["workspace_keys"]) / built if built else 1.0)
        for suite in SUITE_IDS:
            name = f"cli.suite.{suite}"
            m[f"{name}.s"] = float(totals[by[name]]) if name in by else 0.0
        m["cli.emit_report.s"] = (float(totals[by["cli.emit_report"]])
                                  if "cli.emit_report" in by else 0.0)
        m["cli.report.bytes"] = facts["bytes"]
        m["trace.spans"] = hi - lo
        m["trace.top_level_s"] = float(dur[~inner].sum())
        return m
