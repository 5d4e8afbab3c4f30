"""Shared fixtures."""

import importlib.util
import pathlib
import sys

import pytest

import collarlab.collar
import collarlab.curvature


@pytest.fixture(scope="session")
def clear_models():
    """Empties the shared grid and workspace memos when called."""
    def clear():
        collarlab.collar._GRIDS.clear()
        collarlab.curvature._WORKSPACES.clear()
    return clear


@pytest.fixture
def perfbench_run(monkeypatch):
    """The benchmark's `perfbench/run.py`, loaded as a module."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    return bench
