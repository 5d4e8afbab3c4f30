"""The model memos and their one owner.

Three dicts keep what later calls reuse, by default for the whole process:

    GRIDS       (collar, n_tau, nodes_per_panel) -> its TauGrid, with the
                resolvent's band and factors in the grid's ``_cache``
    FIELDS      the curvature chain's collar fields, their solves, the
                derivative pieces xi and q_operator take, and collar
                pairings (see ``CurvatureWorkspace``)
    WORKSPACES  (class, collars, n_tau, kappa) -> its CurvatureWorkspace

Entries are only added, never replaced or removed, except by
``clear_cache`` and on leaving a ``cache_scope``.  This module imports no
other collarlab module, so ``collar``, ``curvature`` and ``asymptotics``
all import it at module level.
"""

from __future__ import annotations

import numpy as np

GRIDS: dict = {}
FIELDS: dict = {}
WORKSPACES: dict = {}
# in cache_stats' order: a field's grid counts as the grid's bytes, a
# workspace's fields as the fields'
_STORES = {"grids": GRIDS, "fields": FIELDS, "workspaces": WORKSPACES}


def clear_cache() -> None:
    """Empties every memo: later calls build their models afresh."""
    for store in _STORES.values():
        store.clear()


# a class, not a @contextmanager function: perfbench's self-test reads a
# collarlab callable with __wrapped__ as a patch its tracer left behind
class cache_scope:
    """Frees, on exit, every memo entry made inside the block.

    Inside, a grid, workspace or field built before the block is returned
    as the same object.  Entries made inside are dropped on exit, also when
    the block raises, so a later call builds them anew; nested scopes each
    drop their own.  A grid built before the block keeps the factors solved
    on it inside.  Dicts keep insertion order and nothing but
    ``clear_cache`` deletes, so the entries made inside are each store's
    last ones past its length at entry.

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
    """{store: {"entries": n, "bytes": b}} for grids, fields, workspaces.

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
