"""Shared fixtures."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import collarlab
import collarlab.collar


@pytest.fixture(scope="session")
def clear_models():
    """Empties the shared grid, workspace and field memos when called."""
    return collarlab.clear_cache


@pytest.fixture
def fresh_python(tmp_path):
    """Runs `python *args` in a fresh process that imports this collarlab,
    from a scratch directory; the CompletedProcess, with text output."""
    src = pathlib.Path(collarlab.collar.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
    return run


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
