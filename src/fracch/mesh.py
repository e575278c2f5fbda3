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
    """Uniform partition of (a, b) into ``n_elems`` elements; rejects a >= b and n_elems < 2."""

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
        if not np.isfinite(float(self.b) - float(self.a)):  # Python floats: no numpy warning
            raise ConfigurationError(f"domain length b - a overflows, got a={self.a}, b={self.b}")
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


def mass_matrix(mesh: FracMesh) -> tuple[np.ndarray, np.ndarray]:
    """P1 mass matrix (h/6) tridiag(1, 4, 1) on interior nodes, as its diagonal and off-diagonal.

    The pair (diag, off) is the one ``energy.weighted_mass`` returns for B';
    ``tridiagonal_product`` applies it.
    """
    n = mesh.dof_count
    return np.full(n, 2.0 * mesh.h / 3.0), np.full(n - 1, mesh.h / 6.0)


_PANEL = 64  # columns per pass of a block product in tridiagonal_product


def tridiagonal_product(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """y = T x for the symmetric tridiagonal T = (diag, off), x a vector or an (n, k) block.

    ``out`` receives y and may be x itself.  A vector takes the three
    operations alone; a block goes ``_PANEL`` columns at a time, so the
    temporaries stay two n x _PANEL panels whatever k is.
    """
    if x.ndim == 1:
        y = diag * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        if out is None:
            return y
        out[...] = y  # only now, so that out may be x
        return out
    X = x.reshape(x.shape[0], -1)
    Y = np.empty(X.shape) if out is None else out.reshape(X.shape)
    diag, off = diag[:, None], off[:, None]
    for j in range(0, X.shape[1], _PANEL):
        panel = X[:, j:j + _PANEL]
        y = diag * panel
        y[:-1] += off * panel[1:]
        y[1:] += off * panel[:-1]
        Y[:, j:j + _PANEL] = y  # only now, so that out may be x
    return Y.reshape(x.shape)


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
