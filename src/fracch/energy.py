"""Discrete free energy, its gradient, and the quadrature maps behind them.

The quadratic part is the assembled fractional form; the potential part is
element-wise Gauss quadrature of the P1 interpolant, ``_QUAD_ORDER`` points
per element.  The same quadrature rule feeds the nonlinear load vectors and
weighted mass matrices used by the time stepper and the stationary solver,
which is what makes the per-step energy certificates hold to solver
precision rather than quadrature error.
Each of those maps is one product of f's grid values with a cached table of
weighted shape-function products.  ``energy_from_parts`` evaluates E from a
quadratic form and grid values that the caller has formed already, as the
time stepper has at its accepted iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .operators import OperatorSet
from .potentials import Potential


_QUAD_ORDER = 5  # Gauss-Legendre points per element for the potential terms


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """Operators, potential and the per-element Gauss rule of ``_QUAD_ORDER`` points.

    The rule and the tables of weighted shape products that the quadrature
    maps contract with are cached properties, built on first read.
    """

    ops: OperatorSet
    pot: Potential

    @cached_property
    def quad_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(weights, shape0, shape1) of the per-element Gauss rule."""
        ref, w = leggauss(_QUAD_ORDER)
        ref = 0.5 * (ref + 1.0)
        return 0.5 * w * self.ops.mesh.h, 1.0 - ref, ref

    @cached_property
    def _load_table(self) -> np.ndarray:
        w, n0, n1 = self.quad_data
        return np.column_stack((w * n0, w * n1))

    @cached_property
    def _mass_table(self) -> np.ndarray:
        w, n0, n1 = self.quad_data
        return np.column_stack((w * n0 * n0, w * n0 * n1, w * n1 * n1))

    def values_at_quad(self, v: np.ndarray) -> np.ndarray:
        """P1 interpolant values on the (n_elems, _QUAD_ORDER) point grid."""
        _, n0, n1 = self.quad_data
        full = np.concatenate(([0.0], np.asarray(v, dtype=float), [0.0]))
        return full[:-1, None] * n0 + full[1:, None] * n1


def energy(ctx: EnergyContext, v: np.ndarray) -> float:
    """E(v) = (1/2) v^T A_sigma v + quadrature of the potential primitive.

    An energy that overflows raises OverflowError, without numpy warnings.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return energy_from_parts(ctx, float(v @ (ctx.ops.A_sigma @ v)), ctx.values_at_quad(v))


def energy_from_parts(ctx: EnergyContext, quad_form: float, vals: np.ndarray) -> float:
    """E(v) from quad_form = v^T A_sigma v and vals = ``ctx.values_at_quad(v)``.

    For callers that have formed both already, such as the time stepper at
    its accepted Newton iterate.  A non-finite energy raises OverflowError.
    """
    w, _, _ = ctx.quad_data
    total = 0.5 * quad_form + float((ctx.pot.g_hat(vals) @ w).sum())
    if not math.isfinite(total):
        raise OverflowError("potential overflow while evaluating the energy")
    return total


def load_vector(ctx: EnergyContext, fvals: np.ndarray) -> np.ndarray:
    """Weak-form load b_i = integral of f phi_i, from f's values on the quadrature grid."""
    parts = fvals @ ctx._load_table  # per element: (f n0 w, f n1 w) summed
    # interior node i gets left[i] + right[i - 1]; adding 0.0 first keeps the
    # sum's signed zeros as a zero-initialised accumulation gives them
    return (0.0 + parts[1:, 0]) + parts[:-1, 1]


def weighted_mass(ctx: EnergyContext, fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (diag, off) of the tridiagonal B_ij = integral of f phi_i phi_j.

    ``fvals`` are f's values on the quadrature grid; ``off`` is both the
    super- and the subdiagonal.
    """
    m = fvals @ ctx._mass_table  # per element: the f n0 n0, f n0 n1, f n1 n1 integrals
    return m[:-1, 2] + m[1:, 0], m[1:-1, 1]


def add_tridiagonal(A: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Add the symmetric tridiagonal (diag, off) to the C-contiguous square A in place; returns A."""
    if not A.flags.c_contiguous:
        raise ValueError("add_tridiagonal needs a C-contiguous matrix")
    n = A.shape[0]
    flat = A.reshape(-1)  # a view, so the strided slices below write into A
    flat[::n + 1] += diag
    flat[1::n + 1] += off
    flat[n::n + 1] += off
    return A


def energy_gradient(ctx: EnergyContext, v: np.ndarray) -> np.ndarray:
    """Dual-vector gradient A_sigma v + b_g(v)."""
    v = np.asarray(v, dtype=float)
    grad = ctx.ops.A_sigma @ v + load_vector(ctx, ctx.pot.g_pair(ctx.values_at_quad(v))[0])
    if not np.all(np.isfinite(grad)):
        raise OverflowError("potential overflow while evaluating the gradient")
    return grad
