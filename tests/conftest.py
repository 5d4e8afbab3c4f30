"""Shared fixtures."""

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
