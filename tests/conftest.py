"""Shared fixtures."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import collarlab
import collarlab.collar
from collarlab.collar import CutoffSpec, taper_weights


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


def _manufactured(col, grid):
    """{name: (f, f', f'', integral of f)} of two continuum profiles on the
    grid's nodes, primes tau-derivatives: sin³(πx) with x the position in
    the tau interval, and the two-sided taper w with its analytic w′ and w″.
    Each of w's transitions is a smoothstep S with S(y) + S(1 - y) = 1, so
    it integrates to half its width and ∫w = L - u log(c/c1) (the collar's
    cut is the cutoff's c, and the two transitions do not overlap)."""
    a, b = col.tau_min, col.tau_max
    length = b - a
    x = (grid.nodes - a) / length
    s, c = np.sin(math.pi * x), np.cos(math.pi * x)
    k = math.pi / length
    spec = CutoffSpec()
    return {"sin3": (s**3, 3 * k * s**2 * c, 3 * k**2 * (2 * s * c**2 - s**3),
                     4 * length / (3 * math.pi)),
            "taper": (*taper_weights(col, grid, spec),
                      length - col.u * math.log(spec.c / spec.c1))}


@pytest.fixture(scope="session")
def manufactured():
    """The manufactured profiles of a collar's grid: a function of (collar,
    grid) giving {name: (f, f', f'', integral of f)} for sin³ and the taper."""
    return _manufactured


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
