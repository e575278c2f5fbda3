"""Frozen copy of the Yosida resolvent iteration, kept as a reference.

This is the loop the Newton path of ``fracch.potentials.yosida_apply`` ran
before it moved to one convergence mask per iteration and in-place bracket
updates: the same safeguarded Newton with a bisection fallback on the
bracket between 0 and r, written with ``np.where`` copies and the
residual's magnitude formed anew for each test.  On inputs whose residuals
are all finite, where the package's tolerance is this copy's 1e-12 (|r| and
eps moderate) and Newton converges before the package turns to bisecting
bit patterns, the two must agree bit for bit.  It differs on purpose where
a residual is NaN: this copy leaves such an element at r and counts it as
converged.  It is self-contained on purpose: do not import the package's
helpers here.
"""

from __future__ import annotations

import numpy as np

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 100


def reference_resolvent(beta, beta_prime, eps, r):
    """Root of y + eps * beta(y) = r, elementwise; scalar r gives a float."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    lo = np.minimum(r_arr, 0.0)
    hi = np.maximum(r_arr, 0.0)
    y = r_arr.copy()
    residual = y + eps * np.asarray(beta(y), dtype=float) - r_arr
    for _ in range(ROOT_MAX_ITER):
        if np.all(np.abs(residual) <= ROOT_TOL):
            break
        hi = np.where(residual > 0.0, np.minimum(hi, y), hi)
        lo = np.where(residual <= 0.0, np.maximum(lo, y), lo)
        slope = 1.0 + eps * np.asarray(beta_prime(y), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = y - residual / slope
        bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi)
        y = np.where(bad & (np.abs(residual) > ROOT_TOL),
                     0.5 * (lo + hi),
                     np.where(np.abs(residual) > ROOT_TOL, newton, y))
        residual = y + eps * np.asarray(beta(y), dtype=float) - r_arr
    if np.any(np.abs(residual) > ROOT_TOL):
        raise RuntimeError("resolvent iteration cap exceeded")
    return y if np.ndim(r) else float(y[0])
