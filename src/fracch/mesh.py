"""Uniform P1 discretization of an interval with zero exterior extension.

Unknowns live on interior nodes only; each basis function is a nodal hat
extended by zero outside (a, b), so every discrete function vanishes on the
whole complement of the domain, not just at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class FracMesh:
    """Uniform partition of (a, b) into ``n_elems`` elements."""

    a: float
    b: float
    n_elems: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.a >= self.b:
            raise ConfigurationError(
                f"domain endpoints must satisfy a < b, got a={self.a}, b={self.b}"
            )
        if int(self.n_elems) != self.n_elems or self.n_elems < 2:
            raise ConfigurationError(f"n_elems must be an integer >= 2, got {self.n_elems}")
        object.__setattr__(self, "n_elems", int(self.n_elems))
        object.__setattr__(self, "h", (self.b - self.a) / self.n_elems)
        object.__setattr__(self, "nodes", np.linspace(self.a, self.b, self.n_elems + 1))

    @property
    def dof_count(self) -> int:
        return self.n_elems - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_uniform_mesh(a: float, b: float, n_elems: int) -> FracMesh:
    """Uniform mesh of (a, b); rejects a >= b and n_elems < 2."""
    return FracMesh(a, b, n_elems)


def mass_matrix(mesh: FracMesh) -> np.ndarray:
    """P1 mass matrix on interior nodes: tridiagonal, diag 2h/3, off-diag h/6."""
    n = mesh.dof_count
    h = mesh.h
    M = np.zeros((n, n))
    # in the flat C-order layout each diagonal is a stride-(n+1) slice
    M.flat[::n + 1] = 2.0 * h / 3.0
    M.flat[1::n + 1] = h / 6.0
    M.flat[n::n + 1] = h / 6.0
    return M


def interpolate(mesh: FracMesh, f: Callable[[float], float]) -> np.ndarray:
    """Nodal interpolant: coefficient i is f at interior node i."""
    vals = np.asarray([f(x) for x in mesh.interior_nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mesh.interior_nodes[~np.isfinite(vals)][0]
        raise ValueError(f"non-finite sample while interpolating, first at x={bad}")
    return vals


def linf_norm(mesh: FracMesh, v: np.ndarray) -> float:
    """Sup-norm surrogate: max of |coefficients| (nodal values)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.dof_count,):
        raise ValueError(f"expected {mesh.dof_count} coefficients, got shape {v.shape}")
    return float(np.max(np.abs(v)))


def check_coeffs(mesh: FracMesh, v: np.ndarray) -> np.ndarray:
    """Validate a coefficient vector against the mesh and return it as float array."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.dof_count,):
        raise ValueError(f"expected {mesh.dof_count} coefficients, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("coefficient vector contains non-finite entries")
    return v
