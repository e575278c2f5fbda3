"""fracch._lapack binds scipy's own routines, and its wrappers return scipy.linalg's bits."""

import os
import subprocess
import sys

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracch import _lapack
from fracch.operators import _toeplitz

_sizes = st.sampled_from([1, 2, 7, 64, 200])


@st.composite
def _size_and_subset(draw):
    """(n, (lo, hi)) with 0 <= lo <= hi < n."""
    n = draw(_sizes)
    lo = draw(st.integers(0, n - 1))
    return n, (lo, draw(st.integers(lo, n - 1)))


def test_a_later_scipy_linalg_import_reuses_the_modules():
    # in a fresh interpreter, so that fracch loads them first
    src = os.path.dirname(os.path.dirname(_lapack.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from fracch import _lapack\n"
        "import scipy.linalg\n"
        "assert sys.modules['scipy.linalg._flapack'] is _lapack._flapack\n"
        "assert sys.modules['scipy.linalg._fblas'] is _lapack._fblas\n"
        "for name in ('dgesv', 'dposv', 'dpotrf', 'dpotri', 'dpotrs', 'dpttrf', 'dpttrs', "
        "'dtrtri'):\n"
        "    assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name), name\n"
        "assert _lapack.dsymv is scipy.linalg.blas.dsymv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(size_subset=_size_and_subset(), seed=st.integers(0, 2**32 - 1),
       fortran=st.booleans())
def test_eigh_is_scipy_evr_bit_for_bit(size_subset, seed, fortran):
    n, subset = size_subset
    a = np.random.default_rng(seed).standard_normal((n, n))
    a += a.T
    a = np.asfortranarray(a) if fortran else a
    w, v = scipy.linalg.eigh(a, driver="evr")
    assert np.array_equal(_lapack.eigh(a.copy(order="K"), eigvals_only=True),
                          scipy.linalg.eigh(a, eigvals_only=True, driver="evr"))
    got_w, got_v = _lapack.eigh(a.copy(order="K"))
    assert np.array_equal(got_w, w) and np.array_equal(got_v, v)
    w, v = scipy.linalg.eigh(a, subset_by_index=subset, driver="evr")
    got_w, got_v = _lapack.eigh(a.copy(order="K"), subset_by_index=subset)
    assert got_w.shape == (subset[1] - subset[0] + 1,)
    assert np.array_equal(got_w, w) and np.array_equal(got_v, v)


@settings(max_examples=60, deadline=None)
@given(size_subset=_size_and_subset(), seed=st.integers(0, 2**32 - 1), split=st.booleans())
@example(size_subset=(7, (0, 6)), seed=1, split=True)  # the two blocks' eigenvalues interleave
def test_eigh_tridiagonal_is_scipy_select_i_bit_for_bit(size_subset, seed, split):
    n, subset = size_subset
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if split and n > 2:  # two blocks, whose eigenvalues dstebz returns block by block
        e[n // 2] = 0.0
    w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=subset)
    for args in ((d, e), (list(d), list(e))):  # lowest_mode passes lists
        got_w, got_v = _lapack.eigh_tridiagonal(*args, subset)
        assert np.array_equal(got_w, w) and np.array_equal(got_v, v)


@settings(max_examples=40, deadline=None)
@given(n=_sizes, seed=st.integers(0, 2**32 - 1))
def test_toeplitz_is_scipy_toeplitz(n, seed):
    c = np.random.default_rng(seed).standard_normal(n)
    A = _toeplitz(c)
    assert np.array_equal(A, scipy.linalg.toeplitz(c))
    # assembly adds the near field in place
    assert A.flags.c_contiguous and A.flags.writeable and A.flags.owndata
