"""The LAPACK and BLAS routines fracch calls, bound without ``scipy.linalg``'s package init.

``import scipy.linalg`` runs the package's ``__init__``, which loads some 270
more modules (scipy's array-API layer, ``numpy.f2py``, ``numpy.testing``,
``unittest``, ...) and adds about 16 MB to the peak memory of every command.
fracch needs a dozen routines from two of its f2py extension modules,
``scipy/linalg/_flapack`` and ``_fblas``.  They are loaded here from their
files and registered in ``sys.modules`` under their own names, so a later
``import scipy.linalg`` reuses the same module objects.  A scipy laid out
otherwise falls back to ``scipy.linalg``'s public ``lapack`` and ``blas``
modules, which re-export the same routines: the calls are the same either way.

``eigh`` and ``eigh_tridiagonal`` are the call forms of scipy.linalg's
functions of those names that fracch makes, with the LAPACK arguments scipy
passes (``lower=1`` and its workspace sizes included), so they return the
same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def _load(name: str):
    """The extension module ``scipy.linalg.<name>``, without importing ``scipy.linalg``."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.machinery.PathFinder.find_spec(
        full, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        raise ImportError(f"{full} not found beside scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module  # only once loaded: a failed load leaves the fallback a clean slate
    return module


try:
    _flapack, _fblas = _load("_flapack"), _load("_fblas")
except ImportError:  # a scipy laid out otherwise
    from scipy.linalg import blas as _fblas, lapack as _flapack

dgesv, dposv = _flapack.dgesv, _flapack.dposv
dpotrf, dpotri, dpotrs = _flapack.dpotrf, _flapack.dpotri, _flapack.dpotrs
dpttrf, dpttrs, dtrtri = _flapack.dpttrf, _flapack.dpttrs, _flapack.dtrtri
dsymv = _fblas.dsymv


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


def eigh(a: np.ndarray, eigvals_only: bool = False, subset_by_index=None):
    """``scipy.linalg.eigh(a, driver="evr", overwrite_a=True, check_finite=False)``.

    a is a symmetric float64 array, which the solve may overwrite.  Returns
    the ascending eigenvalues, or (eigenvalues, eigenvectors as columns);
    ``subset_by_index=(lo, hi)`` keeps those from the lo-th to the hi-th,
    counted from 0.  A failed solve raises LinAlgError.
    """
    lwork, liwork, info = _flapack.dsyevr_lwork(a.shape[0], lower=1)
    _check("dsyevr_lwork", info)
    # LAPACK counts eigenvalues from 1
    select = {} if subset_by_index is None else {
        "range": "I", "il": int(subset_by_index[0]) + 1, "iu": int(subset_by_index[1]) + 1}
    w, v, m, _, info = _flapack.dsyevr(a, compute_v=int(not eigvals_only), lower=1,
                                       lwork=int(lwork), liwork=int(liwork), overwrite_a=1,
                                       **select)
    _check("dsyevr", info)
    if select:
        w, v = w[:m], v[:, :m]
    return w if eigvals_only else (w, v)


def eigh_tridiagonal(d, e, select_range):
    """``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=select_range)``.

    The eigenpairs lo .. hi, counted from 0, of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e: (eigenvalues, eigenvectors as
    columns), from bisection (``dstebz``) and inverse iteration (``dstein``).
    A non-finite entry raises ValueError, a failed solve LinAlgError.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.size == 1:
        return np.array([d[0]]), np.array([[1.0]])
    lo, hi = select_range
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B")
    _check("dstebz", info)
    w = w[:m]
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check("dstein", info)
    order = np.argsort(w)  # dstebz returns them by block
    return w[order], v[:, order]
