"""The memo owner: a scope that reads through and frees every entry it
built, the public clear, and the per-store statistics."""

import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import collarlab.asymptotics
import collarlab.green
from collarlab import (CollarField, CurvatureWorkspace, cache_scope,
                       cache_stats, clear_cache, collar_from_u, g2_spotcheck,
                       make_grid, memos)
from collarlab.green import _mode_factor, zgbtrf
from collarlab.memos import FIELDS, GRIDS, RESOLVENT, WORKSPACES


def _entries():
    return {name: s["entries"] for name, s in cache_stats().items()}


def test_scope_reads_through_and_drops_outer_grid_factors(monkeypatch):
    factored = []

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return zgbtrf(*args, **kwargs)

    monkeypatch.setattr(collarlab.green, "zgbtrf", counted)
    with cache_scope():  # leaves the memos as it found them
        grid = make_grid(collar_from_u(0.0732), 384)
        ws = CurvatureWorkspace.single_collar(0.0732, n_tau=384)
        with cache_scope():
            assert make_grid(collar_from_u(0.0732), 384) is grid
            assert CurvatureWorkspace.single_collar(0.0732, n_tau=384) is ws
            e = ws.e_pair(0, 0, 0)  # factors the resolvent on the outer grid
            assert (grid, "box1_lu", 0) in RESOLVENT
        # one rule: every entry made inside goes, the outer grid's factor too
        assert (grid, "box1_lu", 0) not in RESOLVENT
        assert make_grid(collar_from_u(0.0732), 384) is grid
        assert CurvatureWorkspace.single_collar(0.0732, n_tau=384) is ws
        factored.clear()
        again = ws.e_pair(0, 0, 0)
        assert again is not e  # the workspace solves anew, on a new factor
        assert len(factored) == 1
        assert list(again.modes) == list(e.modes) == [0]
        assert again.modes[0].tobytes() == e.modes[0].tobytes()


def test_scope_frees_what_an_outer_workspace_looked_up_inside():
    with cache_scope():  # leaves the memos as it found them
        ws = CurvatureWorkspace.single_collar(0.0736, n_tau=256)
        assert not hasattr(ws, "_cache")  # its label entries are FIELDS'
        before = _entries()
        with cache_scope():
            solved = weakref.ref(ws.e_pair(0, 0, 0))
            ws.tau()
            assert (ws, "tau") in FIELDS
        assert _entries() == before
        assert (ws, "tau") not in FIELDS
        gc.collect()
        assert solved() is None  # nothing outside the scope held the solve


def test_scope_drops_what_it_built():
    before = _entries()
    with cache_scope():
        grid = make_grid(collar_from_u(0.0731), 384)
        ws = CurvatureWorkspace.single_collar(0.0731, n_tau=384)
        ws.tau()
        assert make_grid(collar_from_u(0.0731), 384) is grid
        inside = _entries()
        assert all(inside[k] > before[k] for k in before)
    assert _entries() == before
    assert make_grid(collar_from_u(0.0731), 384) is not grid
    with cache_scope():
        assert CurvatureWorkspace.single_collar(0.0731, n_tau=384) is not ws


def test_nested_scopes_and_a_scope_left_by_an_exception():
    before = _entries()
    with cache_scope():
        outer = make_grid(collar_from_u(0.0733), 256)
        with cache_scope():
            inner = make_grid(collar_from_u(0.0734), 256)
            assert make_grid(collar_from_u(0.0733), 256) is outer
        assert make_grid(collar_from_u(0.0734), 256) is not inner
        assert make_grid(collar_from_u(0.0733), 256) is outer
    assert _entries() == before

    with pytest.raises(RuntimeError):
        with cache_scope():
            CurvatureWorkspace.single_collar(0.0735, n_tau=256).h()
            raise RuntimeError
    assert _entries() == before


def test_cache_stats_counts_each_array_once():
    clear_cache()
    assert cache_stats() == {name: {"entries": 0, "bytes": 0}
                             for name in ("grids", "resolvent", "fields",
                                          "workspaces")}
    with cache_scope():
        ws = CurvatureWorkspace.single_collar(0.05, n_tau=512)
        ws.tau()
        stats = cache_stats()
        assert {k: s["entries"] for k, s in stats.items()} == {
            "grids": len(GRIDS), "resolvent": len(RESOLVENT),
            "fields": len(FIELDS), "workspaces": len(WORKSPACES)}
        grid = ws.system.grids[0]
        own = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert stats["grids"]["bytes"] >= sum(a.nbytes for a in own)
        modes = {id(v): v.nbytes for f in FIELDS.values()
                 if isinstance(f, CollarField) for v in f.modes.values()}
        assert stats["fields"]["bytes"] >= sum(modes.values()) > 0
        # the fields reach their one grid, whose arrays count under grids
        alone = memos._array_bytes(FIELDS, set())
        assert alone == stats["fields"]["bytes"] + stats["grids"]["bytes"]


# What a second default grid (n_tau 1024, so n = 1020) adds to the grid
# and resolvent stores once its stencils, box band and mode-0 factor are
# built, in bytes:
# nodes, weights and sin_tau 3 n 8, panel edges 103 * 8, the dtau weights
# 2 * 9 n 8, the Dirichlet end rows 8 * 9 * 8, the box band's core 9 n 8
# and end block 6 * 8 + 2 * 17 * 6 * 8, and the factor's lu.real 25 n 8,
# pivots and diagonal 2 n 8 and end block 17 * 6 * 8: 469,016.
SECOND_GRID_BYTES = 469_016


def test_a_second_grid_adds_only_its_weights_band_and_factor():
    clear_cache()

    def build(u):
        grid = make_grid(collar_from_u(u), 1024)
        grid.dtau(grid.nodes)
        _mode_factor(grid, 0)
        return grid

    def held():
        stats = cache_stats()
        return stats["grids"]["bytes"] + stats["resolvent"]["bytes"]

    build(0.05)
    before = held()
    second = build(0.1)
    grown = held() - before
    assert second.n == 1020
    # the band and factor are the resolvent's memos, not the grid's
    assert not hasattr(second, "_cache")
    assert cache_stats()["resolvent"]["bytes"] > 0
    # dtau reads each stencil as a window: the grid keeps no index array
    assert [w.dtype for w in second._stencils] == [np.float64] * 3
    assert grown <= SECOND_GRID_BYTES


def test_forty_models_in_one_scope_return_their_memory():
    us = np.linspace(0.1, 0.02, 40)
    CurvatureWorkspace.single_collar(0.1).tau()  # import-time and warm-up
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with cache_scope():
            for u in us:
                ws = CurvatureWorkspace.single_collar(float(u))
                ws.tau()
                ws.R(0, 0, 0, 0)
            grown = tracemalloc.get_traced_memory()[0] - start
        del ws
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown > 10 * 2**20  # the models were held while the scope ran
    assert abs(left) < 2**20


def test_g2_spotcheck_frees_its_models_with_unchanged_samples(monkeypatch):
    before = _entries()
    scoped = g2_spotcheck()
    assert _entries() == before
    with cache_scope(), monkeypatch.context() as m:
        m.setattr(collarlab.asymptotics, "cache_scope", contextlib.nullcontext)
        unscoped = g2_spotcheck()
        assert _entries() != before  # this run kept its models
    assert _entries() == before
    for case, rec in scoped.items():
        assert rec["samples"] == unscoped[case]["samples"]
        assert rec["fit"] == unscoped[case]["fit"]
