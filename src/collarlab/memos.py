"""The model memos and their one owner.

Four dicts keep what later calls reuse, by default for the whole process:

    GRIDS       (collar, n_tau, nodes_per_panel) -> its TauGrid
    RESOLVENT   (grid, ...) -> the resolvent's box band, factors and support
                mask on that grid (see ``green``)
    FIELDS      the curvature chain's fields, solves, derivative pieces
                and collar pairings, and each workspace's entries keyed
                (workspace, label, ...) (see ``CurvatureWorkspace``)
    WORKSPACES  (class, collars, n_tau, kappa) -> its CurvatureWorkspace

Every get-or-build of a model memo goes through ``memo``.  Entries are
only added, never replaced or removed, except by ``clear_cache`` and on
leaving a ``cache_scope``.  This module imports no other collarlab
module, so ``collar``, ``green``, ``curvature`` and ``asymptotics`` all
import it at module level.
"""

from __future__ import annotations

import numpy as np

GRIDS: dict = {}
RESOLVENT: dict = {}
FIELDS: dict = {}
WORKSPACES: dict = {}
# in cache_stats' order: a field's grid counts as the grid's bytes, a
# workspace's fields as the fields'
_STORES = {"grids": GRIDS, "resolvent": RESOLVENT, "fields": FIELDS,
           "workspaces": WORKSPACES}


def memo(store: dict, key, build):
    """store[key], built on the first request."""
    hit = store.get(key)
    if hit is None:
        hit = build()
        store[key] = hit
    return hit


def clear_cache() -> None:
    """Empties every memo: later calls build their models afresh."""
    for store in _STORES.values():
        store.clear()


# a class, not a @contextmanager function: perfbench's self-test reads a
# collarlab callable with __wrapped__ as a patch its tracer left behind
class cache_scope:
    """Frees, on exit, every memo entry made inside the block.

    Inside, a grid, factor, workspace or field built before the block is
    returned as the same object.  Every entry made inside is dropped on
    exit, on whichever grid or workspace, also when the block raises, so a
    later call builds it anew; nested scopes each drop their own.  Dicts
    keep insertion order and nothing but ``clear_cache`` deletes, so the
    entries made inside are each store's last ones past its length at
    entry.

        with cache_scope():
            for u in us:
                rows.append(CurvatureWorkspace.single_collar(u).tau())
    """

    def __enter__(self):
        self._marks = [(store, len(store)) for store in _STORES.values()]

    def __exit__(self, *exc_info):
        for store, mark in self._marks:
            while len(store) > mark:
                store.popitem()


def cache_stats() -> dict:
    """{store: {"entries": n, "bytes": b}} for grids, resolvent, fields,
    workspaces.

    bytes is the data of the numpy arrays the store's values reach
    (through dicts, sequences and collarlab objects' attributes), each
    array once, in the first store that reaches it.
    """
    seen = set()
    return {name: {"entries": len(store), "bytes": _array_bytes(store, seen)}
            for name, store in _STORES.items()}


def _array_bytes(obj, seen: set) -> int:
    """Bytes of the array data obj reaches, less what seen already holds."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):  # a view counts its base
            obj = obj.base
        items = None
    elif isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif type(obj).__module__.startswith("collarlab."):
        items = getattr(obj, "__dict__", {}).values()
    else:
        return 0  # a number, a string, a class
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if items is None:
        return obj.nbytes
    return sum(_array_bytes(x, seen) for x in items)
