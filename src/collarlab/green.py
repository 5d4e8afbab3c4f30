"""Collar-local Green operator T = (box + 1)^-1 with Dirichlet ends.

Each angular mode solves the radial two-point problem

    -(sin^2 tau / 2) (F'' - (n/u)^2 F) + F = R,   F(tau_min) = F(tau_max) = 0,

on the collar's TauGrid, using the same high-order stencils as the field
derivatives (endpoints enter as ghost nodes pinned to zero).  Each
(grid, |mode|) matrix is LU-factored once (LAPACK zgbtrf) and every later
solve on it is a zgbtrs call; modes n and -n share it, since the matrix
depends on n only through n^2.  The matrix is also real, so for a real
field (f_-n = conj f_n) the solution's mode -n is the conjugate of its
mode n: each such +-n pair costs one solve and one residual.

zgbtrf and zgbtrs come from the LAPACK numpy has already loaded: the
library numpy.linalg._umath_linalg links, bound with ctypes through that
extension's file (a handle resolves symbols through its dependencies on
Linux).  Only ILP64 names are looked up, and only when numpy's lapack_lite
reports ILP64, since a wrong integer width corrupts memory:
scipy_zgb*_64_ (numpy >= 2 wheels), then zgb*_64_ (numpy 1.2x wheels).
So on numpy's wheels no scipy library is mapped at run time.  Where
neither pair is exported (Accelerate or conda builds, Windows, whose .pyd
handle does not search its DLLs), _load_flapack takes the compiled
wrappers in scipy/linalg/_flapack, the very objects scipy.linalg.lapack
exports, loading that module by its full name from its file; importing
scipy.linalg would also load scipy's array-API layer (numpy.f2py,
numpy.testing): 0.25 s and 25 MB of each start-up.  Each path's zgbtrf
returns pivots in its own convention (1-based int64 from numpy's LAPACK,
0-based int32 from _flapack) and its zgbtrs reads them back in it.
LAPACK_SOURCE names the library file and the zgbtrf symbol in use.

The band's layout follows from STENCIL and the ghost-node clipping alone.
Its half-width is _BW = STENCIL - 1.  The 9 diagonals of the centred
stencil, rows _CORE = _BW +- STENCIL // 2, are the only rows nonzero at
interior outputs; the others reach only the first and last _N_END =
STENCIL // 2 - 1 = 3 outputs (the clipped stencils).  The residual A x - b
sums the core rows, then recomputes those end outputs over every row.  So
the band is kept as its core rows and that end block.  Both come from
_scaled_band, the full (2 _BW + 1, n) rows built from D2, which
_mode_factor builds anew for each factor it makes.  The factors, these
blocks and the support test's mask are memos in ``memos.RESOLVENT``,
keyed (grid, name), and a factor (grid, "box1_lu", |mode|):

    "box_band"           the _CORE rows of -(sin^2 tau / 2) D2, (9, n)
                         float64, one per grid, without the mode diagonal;
                         beside them the end outputs, 6 int64, their
                         columns, (17, 6) int64, and entries, (17, 6)
                         float64: 9 n * 8 + 1,680 bytes, 75 KB at n_tau
                         1024 (n = 1020)
    "box1_lu", |mode|    lu.real, (3 _BW + 1, n) float64, the pivots
                         (int64 from numpy's LAPACK), the mode's main
                         diagonal, n float64, and its end block, the
                         entries with that diagonal, (17, 6) float64:
                         25 n * 8 + 8 n + 8 n + 816 bytes, 221 KB at
                         n_tau 1024
    "support_outer"      n bool, one per grid: the nodes in the outer 10%
                         of the tau interval at either end

The Dirichlet truncation replaces the closed-surface solve; its bias is
quantified by the boundary-cut sensitivity check.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg, lapack_lite

from .collar import STENCIL
from .fields import CollarField
from .memos import RESOLVENT, memo
from .operators import box

# a right-hand side with max|b| below this is solved scaled up to unit size;
# far above the subnormal range (2**-1022), far below any field of a model
_TINY = 2.0**-900
# ceiling on residual_sup: max over modes of max|A x - b| divided by max
# over modes of max|b| (not by CollarField.sup_norm, a sum over modes)
_RTOL = 1e-6
# an input is well supported when its sup over the outer 10% of the tau
# interval at either end is at most 1e-6 of its sup over the whole collar
_SUPPORT_FRAC = 0.10
_SUPPORT_TOL = 1e-6
# the band's layout (see the module docstring)
_BW = STENCIL - 1
_CORE = slice(_BW - STENCIL // 2, _BW + STENCIL // 2 + 1)
_MID = _BW - _CORE.start  # the main diagonal's row of the core
_N_END = STENCIL // 2 - 1


def _load_flapack():
    """zgbtrf and zgbtrs from scipy's _flapack (see the module docstring)."""
    scipy = find_spec("scipy")  # locates scipy, runs none of it
    where = [os.path.join(d, "linalg")
             for d in (scipy.submodule_search_locations if scipy else ())]
    spec = PathFinder.find_spec("scipy.linalg._flapack", where)
    if spec is None:
        raise ImportError(f"collarlab needs scipy's compiled LAPACK module "
                          f"_flapack; searched {where}")
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zgbtrf, flapack.zgbtrs


# the ILP64 (zgbtrf, zgbtrs) names numpy's wheels export, in search order
_NUMPY_SYMBOLS = (("scipy_zgbtrf_64_", "scipy_zgbtrs_64_"),
                  ("zgbtrf_64_", "zgbtrs_64_"))


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


def _defining_file(func) -> str:
    """The name of the shared library file that defines a ctypes function."""
    info = _DlInfo()
    ctypes.CDLL(None).dladdr(ctypes.cast(func, ctypes.c_void_p),
                             ctypes.byref(info))
    return os.path.basename(os.fsdecode(info.fname))


def _address(arr) -> int:
    """Where the data of a writable, C- or F-contiguous array starts.
    ctypes' from_buffer takes about 0.6 us here, arr.ctypes.data 2.2 us;
    a zgbtrs call at n_tau 1024, 60-80 us, passes three arrays."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr.T))


def _bind(trf, trs):
    """zgbtrf and zgbtrs over the Fortran routines trf and trs, with the
    _flapack signatures.  Every integer is int64, passed by address."""
    trf.argtypes = [ctypes.c_void_p] * 8
    trs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
    trf.restype = trs.restype = None
    # zgbtrs's integer arguments (n, kl, ku, nrhs, ldab, ldb), which LAPACK
    # only reads, built once per shape: each solve then allocates only its
    # own info
    dims = {}

    def zgbtrf(ab, kl, ku, overwrite_ab=0):
        """(lu, piv, info): the band LU of ab[ku + kl + i - j, j] = A[i, j],
        whose first kl rows are workspace; piv is 1-based int64."""
        lu = (np.asarray if overwrite_ab else np.array)(ab, complex, order="F")
        ldab, n = lu.shape
        if ldab < 2 * kl + ku + 1:
            raise ValueError(f"ab has {ldab} rows, needs 2 kl + ku + 1")
        piv = np.empty(n, np.int64)
        ints = (ctypes.c_int64 * 6)(n, n, kl, ku, ldab, 0)
        at = ctypes.addressof(ints)
        trf(at, at + 8, at + 16, at + 24, _address(lu), at + 32,
            _address(piv), at + 40)
        return lu, piv, ints[5]

    def zgbtrs(lu, kl, ku, b, piv):
        """(x, info): the solution of A x = b from zgbtrf's lu and piv."""
        ab = np.asarray(lu, complex, order="F")
        x = np.array(b, complex, order="F")
        ldab, n = ab.shape
        if (ldab < 2 * kl + ku + 1 or x.shape != (n,) or piv.shape != (n,)
                or piv.dtype != np.int64):
            raise ValueError("zgbtrs needs lu (2 kl + ku + 1, n), b (n,) "
                             "and zgbtrf's int64 pivots")
        key = n, kl, ku, ldab
        if key not in dims:
            ints = (ctypes.c_int64 * 6)(n, kl, ku, 1, ldab, n)
            dims[key] = ints, ctypes.addressof(ints)
        at = dims[key][1]
        info = ctypes.c_int64()
        # "N" is a Fortran string: its length is the trailing argument
        trs(b"N", at, at + 8, at + 16, at + 24, _address(ab), at + 32,
            _address(piv), _address(x), at + 40, ctypes.addressof(info), 1)
        return x, info.value

    return zgbtrf, zgbtrs


def _load_lapack():
    """(zgbtrf, zgbtrs, source): bound from numpy's LAPACK where it exports
    an ILP64 pair, else _flapack's; source is "<library file> (<symbol>)"."""
    lib = _umath_linalg.__file__
    if getattr(lapack_lite, "_ilp64", False):
        handle = ctypes.CDLL(lib)
        for trf, trs in _NUMPY_SYMBOLS:
            if hasattr(handle, trf) and hasattr(handle, trs):
                pair = getattr(handle, trf), getattr(handle, trs)
                return (*_bind(*pair), f"{_defining_file(pair[0])} ({trf})")
        searched = (f"{' '.join(sum(_NUMPY_SYMBOLS, ()))} in {lib} and "
                    f"its libraries")
    else:
        searched = f"no ILP64 LAPACK behind {lib}"
    try:
        trf, trs = _load_flapack()
    except ImportError as err:
        raise ImportError(f"collarlab needs LAPACK zgbtrf and zgbtrs; "
                          f"numpy's: {searched}; scipy's: {err}") from None
    return trf, trs, "scipy.linalg._flapack (zgbtrf)"


zgbtrf, zgbtrs, LAPACK_SOURCE = _load_lapack()


class SolverError(RuntimeError):
    pass


class SupportWarning(UserWarning):
    """Input not vanishing near the collar ends; Dirichlet bias uncontrolled."""


@dataclass(frozen=True)
class SolverConfig:
    warn_support: bool = True


class _BoxBand(NamedTuple):
    """A grid's box band, kept as its core diagonals and its end block."""

    core: np.ndarray  # the _CORE rows of ab[_BW + i - j, j] = M[i, j],
    #                   without the mode diagonal
    ends: np.ndarray  # the first and last _N_END outputs
    end_cols: np.ndarray  # (rows, ends): the column feeding each end output
    end_ab: np.ndarray  # (rows, ends): its entry, 0 outside the matrix


def _scaled_band(grid) -> np.ndarray:
    """-(sin^2 tau / 2) D2 in full (2 _BW + 1, n) storage, ab[_BW + i - j,
    j] = M[i, j]: d2_banded_dirichlet()'s fresh band, each diagonal scaled
    where it lies, -0.0 inside the matrix where D2 is 0.0, and 0.0 in its
    corners."""
    band, _ = grid.d2_banded_dirichlet()
    n = grid.n
    neg_s = -(0.5 * grid.sin_tau**2)
    for r in range(2 * _BW + 1):
        d = r - _BW  # entry (r, j) lies in row j + d
        lo, hi = max(0, -d), n - max(0, d)
        band[r, lo:hi] *= neg_s[lo + d : hi + d]
    return band


def _box_band(grid) -> _BoxBand:
    """-(sin^2 tau / 2) D2 in banded storage, shared by every mode of a grid.

    Only the core rows and the end block of ``_scaled_band`` are kept:
    every other entry inside the matrix is -0.0, -s times D2's 0.0.
    """
    def build():
        band = _scaled_band(grid)
        n = grid.n
        rows = np.arange(2 * _BW + 1)[:, None]
        ends = np.r_[:_N_END, n - _N_END : n]
        cols = ends + _BW - rows
        inside = (cols >= 0) & (cols < n)
        cols = np.clip(cols, 0, n - 1)
        return _BoxBand(band[_CORE].copy(), ends, cols,
                        np.where(inside, band[rows, cols], 0.0))
    return memo(RESOLVENT, (grid, "box_band"), build)


def _mode_factor(grid, n_mode):
    """Banded LU, main diagonal and end block of the mode-n (box + 1) matrix.

    Factored once per grid and |n|, from ``_scaled_band`` with the mode's
    main diagonal.  The matrix is real, so the complex factors zgbtrf
    returns have zero imaginary part: only lu.real (Fortran order) and the
    pivots are kept, next to the diagonal and the end block (the box
    band's end entries with that diagonal) the residual uses.
    """
    def build():
        band = _box_band(grid)
        s = 0.5 * grid.sin_tau**2
        diag = band.core[_MID] + ((n_mode / grid.collar.u) ** 2 * s + 1.0)
        work = np.zeros((3 * _BW + 1, grid.n), dtype=complex, order="F")
        work[_BW:] = _scaled_band(grid)
        work[2 * _BW] = diag
        lu, piv, info = zgbtrf(work, _BW, _BW, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"mode {n_mode} matrix is singular")
        end_ab = band.end_ab.copy()
        end_ab[_BW] = diag[band.ends]
        return np.array(lu.real, order="F"), piv, diag, end_ab
    return memo(RESOLVENT, (grid, "box1_lu", abs(n_mode)), build)


def _support_outer(grid) -> np.ndarray:
    """The nodes in the outer _SUPPORT_FRAC of the tau interval at
    either end."""
    tau = grid.nodes
    lo, hi = grid.collar.tau_min, grid.collar.tau_max
    width = _SUPPORT_FRAC * (hi - lo)
    return (tau < lo + width) | (tau > hi - width)


def _band_matvec(band, diag, end_ab, x):
    """A x for the band matrix A of band with main diagonal diag.

    Each core diagonal's products are written skewed into their own row of
    a buffer whose padding is zeroed, and the rows summed in order,
    diagonal by diagonal.  The rows outside the core would add only exact
    zeros there, except at the end outputs: each is summed again over every
    row in the same order, from end_ab, the end block with diag.
    """
    core, mid = band.core, _MID
    n = len(x)
    rows = len(core)
    width = n + rows - 1
    buf = np.empty(rows * (width + 1), dtype=complex)
    # entry (r, j) lands at column r + j of the (rows, width) view
    skew = buf.reshape(rows, width + 1)
    np.multiply(core[:mid], x, out=skew[:mid, :n])
    np.multiply(diag, x, out=skew[mid, :n])
    np.multiply(core[mid + 1 :], x, out=skew[mid + 1 :, :n])
    skew[:, n:] = 0.0
    y = buf[: rows * width].reshape(rows, width).sum(axis=0)[mid : mid + n]
    y[band.ends] = np.add.reduce(end_ab * x[band.end_cols], axis=0)
    return y


def _ldexp(z, k):
    """z * 2**k for a complex array, rounded once."""
    z = np.ascontiguousarray(z, dtype=complex)
    return np.ldexp(z.view(float), k).view(complex)


def apply_box1(f: CollarField) -> CollarField:
    """(box + 1) f with free (one-sided near the ends) stencils."""
    g = box(f)
    return g + f


def solve_T(f: CollarField, config: SolverConfig | None = None) -> CollarField:
    """T f = (box + 1)^-1 f on the collar, zero at both ends.

    The result's ``residual_sup`` is max over modes of max|A x - b|
    divided by max over modes of max|b|, for each mode's band matrix A:
    linear-algebra error, not discretisation error.  A residual above
    ``_RTOL`` = 1e-6 (or NaN) raises SolverError; NaN or inf in f raises
    ValueError.  A right-hand side near the underflow range is solved
    scaled up by a power of two, so subnormal ones solve as well.  Mode n
    whose input equals the conjugate of an earlier mode -n (a real
    field's pair) is not solved again: the mode matrix is real, so its
    solution is that mode's conjugate, with the same residual.
    """
    cfg = config or SolverConfig()
    grid = f.grid
    # one pass over the input: |f_n| gives max|f_n|, the support test's
    # sum_n |f_n| and the finite check (a NaN or inf makes the max NaN or
    # inf; so does a finite value whose modulus overflows, hence the recheck).
    # Mode n equal by value to the conjugate of an earlier mode -n (a real
    # field's pair; zero signs may differ) is a twin, not solved below; as
    # |conj z| = |z| exactly, it takes mode -n's modulus and max
    f_sups, acc, mags, twins = [0.0], np.zeros(grid.n), {}, set()
    for n_mode, rhs in f.modes.items():
        if -n_mode in mags and np.array_equal(rhs, np.conj(f.modes[-n_mode])):
            twins.add(n_mode)
            mag, sup = mags[-n_mode]
        else:
            mag = np.abs(rhs)
            sup = mag.max()
            if not np.isfinite(sup) and not np.isfinite(rhs).all():
                raise ValueError("array must not contain infs or NaNs")
        mags[n_mode] = mag, sup
        f_sups.append(sup)
        acc += mag
    if cfg.warn_support and f.modes:
        outer = memo(RESOLVENT, (grid, "support_outer"),
                     lambda: _support_outer(grid))
        sup_all = float(acc.max())
        sup_outer = float(acc[outer].max()) if outer.any() else 0.0
        if sup_all > 0 and sup_outer > _SUPPORT_TOL * sup_all:
            warnings.warn("input not supported well inside the collar; "
                          "Dirichlet boundary bias is uncontrolled",
                          SupportWarning, stacklevel=2)
    band = _box_band(grid)
    out = {}
    res_sups = [0.0]
    for (n_mode, rhs), rhs_sup in zip(f.modes.items(), f_sups[1:]):
        if n_mode in twins:
            # the mode matrix is real, so (T f)_n = conj (T f)_-n, and its
            # residual is the twin's, already in res_sups
            out[n_mode] = np.conj(out[-n_mode])
            continue
        lu, piv, diag, end_ab = _mode_factor(grid, n_mode)
        k = 0
        if rhs_sup < _TINY:
            # solved at unit scale: scaling up by 2**-k is exact, and it
            # keeps the solve out of subnormal arithmetic
            k = math.frexp(rhs_sup)[1]
            rhs = _ldexp(rhs, -k)
        sol, _ = zgbtrs(lu, _BW, _BW, rhs, piv)
        out[n_mode] = _ldexp(sol, k) if k else sol
        # residual against the defining discrete forward operator
        res = _band_matvec(band, diag, end_ab, sol)
        res -= rhs
        res_sups.append(math.ldexp(np.abs(res).max(), k))
    # np.max, unlike max(), carries a NaN residual through to the gate
    res_sup, f_sup = float(np.max(res_sups)), float(np.max(f_sups))
    g = CollarField(f.collar, f.grid, out, truncated=f.truncated,
                    residual_sup=res_sup / f_sup if f_sup > 0 else 0.0)
    if f_sup > 0 and not res_sup <= _RTOL * f_sup:
        raise SolverError(f"solver residual {res_sup/f_sup:.3e} exceeds "
                          f"rtol {_RTOL:.1e}")
    return g
