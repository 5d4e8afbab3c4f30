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


def _load_perfbench(monkeypatch, stem):
    path = pathlib.Path(__file__).parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench_run(monkeypatch):
    """The benchmark's `perfbench/run.py`, loaded as a module."""
    return _load_perfbench(monkeypatch, "run")


@pytest.fixture
def perfbench_tracer(monkeypatch):
    """The benchmark's `perfbench/tracer.py`, loaded as a module."""
    return _load_perfbench(monkeypatch, "tracer")
