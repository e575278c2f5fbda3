"""Gagliardo stiffness matrices for the integral fractional Dirichlet Laplacian.

The bilinear form on the zero-extension space is

    a_s(u, v) = (C_s/2) * double-integral over R^2 of
                (u(x)-u(y)) (v(x)-v(y)) / |x-y|^(1+2s) dx dy,

with both functions extended by zero outside (a, b).  For hat functions the
double integral splits into an interior part over Omega x Omega and a
complement part 2 * int_Omega u v (x) * int_{Omega^c} |x-y|^(-1-2s) dy dx.
The sqrt of the induced quadratic form is the working norm; its dual norm
satisfies |A v|_dual = |v|_A, which downstream code relies on.

On a uniform mesh the integral over an element pair depends only on the
distance d between the two elements, so assembly computes one local block
per distance, all distances in one batch.  On interior nodes the identical
and touching blocks and the cross entries of the separated ones (one node
in each element) sum to one symmetric Toeplitz matrix.  The rest lives on
the three central diagonals: the self entries of the separated blocks (both
nodes in one element) as prefix sums over d, and the complement term of
every element.  The local blocks are:

* identical elements: the basis differences factor as slope * (x - y), and
  the radial integral of |x-y|^(1-2s) is elementary;
* touching elements: after the Duffy-type split of the square along its
  diagonal, the radial direction integrates in closed form and the remaining
  1-D integrals of t^k (1+t)^(-1-2s) are elementary (binomial expansion);
* separated elements: smooth integrand, tensor Gauss-Legendre with
  ``_GAUSS_ORDER`` points per direction;
* complement term: hat products are piecewise quadratic, so the weighted
  integral against (x-a)^(-2s) is elementary as well; the one against
  (b-x)^(-2s) is its mirror image under x -> a+b-x, which maps the mesh
  onto itself.

Everything is deterministic: fixed accumulation order, no randomness, so
repeated assemblies are bit-identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, toeplitz, LinAlgError
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import gamma as _gamma

from .errors import AssemblyError, ConfigurationError
from .mesh import FracMesh, mass_matrix

_STIFFNESS_MAGIC = b"FRACSTF1"
_GAUSS_ORDER = 5  # Gauss-Legendre points per direction for separated element pairs


@dataclass(frozen=True)
class FracExponents:
    """Exponent pair: s drives the flux operator, sigma the chemical potential."""

    s: float
    sigma: float

    def __post_init__(self):
        for name, val in (("s", self.s), ("sigma", self.sigma)):
            if not (0.0 < val < 1.0):
                raise ConfigurationError(f"fractional exponent {name} must lie in (0,1), got {val}")


def normalization_constant(n_dim: int, s: float) -> float:
    """C(N, s) = s 4^s Gamma(s + N/2) / (pi^(N/2) Gamma(1 - s)).

    Vanishes like 1/Gamma(1-s) as s -> 1 (compensating the blowup of the raw
    seminorm near the classical limit) and linearly as s -> 0.
    """
    if n_dim < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {n_dim}")
    if not (0.0 < s < 1.0):
        raise ConfigurationError(f"exponent s must lie in (0,1), got {s}")
    return float(
        s * 4.0**s * _gamma(s + 0.5 * n_dim) / (math.pi ** (0.5 * n_dim) * _gamma(1.0 - s))
    )


def _power_integral(lo, hi, p: float) -> np.ndarray:
    """Exact integral of t^p over [lo, hi], elementwise; smooth through the p = -1 log case."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    q = p + 1.0
    at_zero = lo == 0.0
    if q <= 0.0 and np.any(at_zero):
        raise AssemblyError(f"divergent boundary integral: exponent {p} at lo=0")
    r = np.log(hi / np.where(at_zero, hi, lo))  # entries with lo = 0 take hi^q / q below
    if q == 0.0:
        return r
    return np.where(at_zero, hi**q / q, lo**q * np.expm1(q * r) / q)


def _self_pair_integral(h: float, s: float) -> float:
    """Integral of |x-y|^(1-2s) over one element squared."""
    return 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))


def _touching_moments(s: float) -> tuple[float, float, float]:
    """K_m = int_0^1 t^m (1+t)^(-1-2s) dt for m = 0, 1, 2 (exact)."""
    p0 = _power_integral(1.0, 2.0, -1.0 - 2.0 * s)
    p1 = _power_integral(1.0, 2.0, -2.0 * s)
    p2 = _power_integral(1.0, 2.0, 1.0 - 2.0 * s)
    return p0, p1 - p0, p2 - 2.0 * p1 + p0


def _touching_local(h: float, s: float) -> np.ndarray:
    """3x3 local matrix for a touching element pair, nodes (v-h, v, v+h).

    With xi = distance of x below the shared vertex and eta = distance of y
    above it, each basis difference is a_g xi + b_g eta, and

        I(p, q) = int over [0,h]^2 of xi^p eta^q (xi+eta)^(-1-2s)
                = h^(3-2s) (K_q + K_p) / (3-2s)

    after splitting the square along its diagonal (the radial factor
    integrates exactly; K_m are the elementary moments above).
    """
    k0, k1, k2 = _touching_moments(s)
    scale = h ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
    i20 = scale * (k0 + k2)
    i11 = scale * (2.0 * k1)
    i02 = i20
    # slopes of the three hats on (left element, right element), times h
    ab = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]) / h
    local = np.empty((3, 3))
    for p in range(3):
        for q in range(3):
            a1, b1 = ab[p]
            a2, b2 = ab[q]
            local[p, q] = a1 * a2 * i20 + (a1 * b2 + b1 * a2) * i11 + b1 * b2 * i02
    return local


def _separated_blocks(h: float, s: float, d) -> np.ndarray:
    """4x4 local matrices for elements at distances d >= 2, nodes (k, k+1, k+d, k+d+1).

    ``d`` is an integer or an array of them; the result has shape
    ``d.shape + (4, 4)``.  With x = x_k + h u and y = x_{k+d} + h w the
    kernel is (h (d + w - u))^(-1-2s); basis differences reduce to shape
    values on one element each, so tensor Gauss-Legendre applies to a smooth
    integrand.
    """
    pts, wts = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    shapes = np.stack([1.0 - pts, pts])
    weighted = wts * shapes  # (2, points): weight times shape, per shape
    pair = (weighted[:, None, :] * shapes[None, :, :]).reshape(4, -1)  # shape products, (i, j) flat
    d = np.asarray(d, dtype=float)[..., None, None]
    kern = (h * (d + pts[None, :] - pts[:, None])) ** (-1.0 - 2.0 * s)  # (..., u, w)
    scale = h * h
    row_mass = kern @ wts  # integral over w of the kernel, per u point
    col_mass = wts @ kern
    local = np.empty(kern.shape[:-2] + (4, 4))
    local[..., :2, :2] = scale * (row_mass @ pair.T).reshape(kern.shape[:-2] + (2, 2))
    local[..., 2:, 2:] = scale * (col_mass @ pair.T).reshape(kern.shape[:-2] + (2, 2))
    # cross blocks carry the sign of -phi(y)
    cross = -scale * (weighted @ kern @ weighted.T)
    local[..., :2, 2:] = cross
    local[..., 2:, :2] = np.swapaxes(cross, -1, -2)
    return local


def _left_exterior_blocks(h: float, s: float, k) -> np.ndarray:
    """2x2 left-exterior blocks for elements k (an integer or array), nodes (k, k+1).

    Each contributes 2 * int_elem phi_i phi_j (x) * (x-a)^(-2s)/(2s) dx,
    integrated exactly in t = x - a over [kh, (k+1)h] (hat products are
    quadratic polynomials).  The right exterior is the mirror image under
    x -> a+b-x.  Node 0 sits at a, where the weight is not integrable, so
    element 0 keeps only its (1, 1) entry.
    """
    k = np.asarray(k)
    lo, hi = k * h, (k + 1) * h
    # both nodal shapes as c0 + c1 t with exact coefficients: node k, node k+1
    c0 = np.stack([hi / h, -lo / h], axis=-1)
    c1 = np.array([-1.0 / h, 1.0 / h])
    coeffs = (
        c0[..., :, None] * c0[..., None, :],
        c0[..., :, None] * c1[None, :] + c1[:, None] * c0[..., None, :],
        c1[:, None] * c1[None, :],
    )
    # t^0 is not integrable at t = 0 for s >= 1/2; on element 0 it meets only
    # zero coefficients, so an empty interval stands in for it there
    moments = (
        _power_integral(np.where(k == 0, hi, lo), hi, -2.0 * s),
        _power_integral(lo, hi, 1.0 - 2.0 * s),
        _power_integral(lo, hi, 2.0 - 2.0 * s),
    )
    out = sum(c * m[..., None, None] for c, m in zip(coeffs, moments)) / s
    node_k_inside = (k != 0)[..., None]
    out[..., 0, :] = np.where(node_k_inside, out[..., 0, :], 0.0)
    out[..., :, 0] = np.where(node_k_inside, out[..., :, 0], 0.0)
    return out


def assemble_gagliardo(mesh: FracMesh, s: float, C_s: float) -> np.ndarray:
    """Dense symmetric Gagliardo stiffness matrix on interior hat functions.

    Entry (i, j) approximates (C_s/2) times the full-plane double integral of
    the hat-function differences against |x-y|^(-1-2s), including the
    exterior-complement contribution of the zero extension.  Local blocks are
    exact except for separated pairs, which use ``_GAUSS_ORDER`` Gauss points
    per direction.
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError(f"exponent s must lie in (0,1), got {s}")
    if not (math.isfinite(C_s) and C_s > 0.0):
        raise ConfigurationError(f"normalization constant must be finite positive, got {C_s}")
    n = mesh.n_elems
    h = mesh.h

    # one block per element distance d; d >= 1 carries weight 2 for the pairs
    # (k, k+d) and (k+d, k)
    same = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (_self_pair_integral(h, s) / (h * h))
    touch = 2.0 * _touching_local(h, s)
    sep = 2.0 * _separated_blocks(h, s, np.arange(2, n))  # distance d at index d - 2
    finite = np.concatenate([[np.isfinite(same).all(), np.isfinite(touch).all()],
                             np.isfinite(sep).all(axis=(1, 2))])
    if not finite.all():
        d = np.flatnonzero(~finite)[0]
        raise AssemblyError(f"non-finite quadrature for element pair (0, {d}) at s={s}")
    left = _left_exterior_blocks(h, s, np.arange(n))
    finite = np.isfinite(left).all(axis=(1, 2))
    if not finite.all():
        k = np.flatnonzero(~finite)[0]
        raise AssemblyError(f"non-finite complement integral on element {k} at s={s}")

    # Far field: the cross entries of the block at distance d land on the node
    # pairs (k+i, k+d+j), k in [0, n-d), which on interior nodes are all the
    # pairs at offset d+j-i; so they sum to one symmetric Toeplitz matrix.
    row = np.zeros(n + 1)  # by node offset; interior nodes use offsets 0 .. n-2
    for i in range(2):
        for j in range(2):
            row[2 + j - i:n + j - i] += sep[:, i, 2 + j]
    row[0] += same[0, 0] + same[1, 1] + touch[1, 1]
    row[1] += same[0, 1] + touch[0, 1] + touch[1, 2]
    row[2] += touch[0, 2]
    A = toeplitz(row[:n - 1])

    # Near field, on interior nodes a = 1 .. n-1.  The self entries of the
    # blocks form prefix sums over the distance: node a is the left element's
    # node k+i for d <= n-1-a+i, and the right element's node k+d+i for d <= a-i.
    prefix = np.zeros((n, 4, 4))  # prefix[D] sums the blocks at distances 2 .. D
    np.cumsum(sep, axis=0, out=prefix[2:])
    rev = prefix[::-1]  # rev[a] = prefix[n-1-a]
    diag = rev[1:, 0, 0] + rev[:-1, 1, 1] + prefix[1:, 2, 2] + prefix[:-1, 3, 3]
    off = rev[1:-1, 0, 1] + prefix[1:-1, 2, 3]
    # the touching pair at nodes (k, k+1, k+2), k in [0, n-1), has node a
    # first only for a <= n-2 and last only for a >= 2 (middle: in the row)
    diag[:-1] += touch[0, 0]
    diag[1:] += touch[2, 2]
    # x -> a+b-x maps element k onto element n-1-k with its node order reversed
    ext = left[1:, 0, 0] + left[:-1, 1, 1]
    diag += ext + ext[::-1]
    ext = left[1:-1, 0, 1]
    off += ext + ext[::-1]

    dof = np.arange(n - 1)
    A[dof, dof] += diag
    A[dof[:-1], dof[1:]] += off
    A[dof[1:], dof[:-1]] += off
    A *= 0.5 * C_s
    return 0.5 * (A + A.T)  # guarantee bit-exact symmetry regardless of BLAS


def xnorm(A: np.ndarray, v: np.ndarray) -> float:
    """Energy norm sqrt(v^T A v) of the assembled quadratic form."""
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, vector {v.shape}")
    return math.sqrt(max(float(v @ A @ v), 0.0))


def dual_norm(A: np.ndarray, f: np.ndarray, factor=None) -> float:
    """Dual norm sqrt(f^T A^{-1} f); factor may carry a cached Cholesky."""
    f = np.asarray(f, dtype=float)
    if f.shape != (A.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, vector {f.shape}")
    if factor is None:
        try:
            factor = cho_factor(A)
        except LinAlgError as exc:
            raise AssemblyError("stiffness matrix is not positive definite") from exc
    x = cho_solve(factor, f)
    return math.sqrt(max(float(f @ x), 0.0))


def rayleigh_lambda1(A_sigma: np.ndarray, M: np.ndarray) -> float:
    """Smallest generalized eigenvalue of A_sigma v = lambda M v."""
    vals = eigh(A_sigma, M, eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Assembled operators for one mesh and exponent pair.

    Immutable after construction; factorizations and the time stepper's
    block P = M A_s^{-1} M are created lazily on first use and then treated
    as read-only.
    """

    A_s: np.ndarray
    A_sigma: np.ndarray
    M: np.ndarray
    C_s: float
    C_sigma: float
    mesh: FracMesh
    exps: FracExponents
    _factors: dict = field(default_factory=dict, repr=False)

    def _factor(self, key: str, matrix: np.ndarray):
        if key not in self._factors:
            try:
                self._factors[key] = cho_factor(matrix)
            except LinAlgError as exc:
                raise AssemblyError(f"matrix {key} is not positive definite") from exc
        return self._factors[key]

    def dual_norm_s(self, f: np.ndarray) -> float:
        return dual_norm(self.A_s, f, factor=self._factor("A_s", self.A_s))

    def dual_norm_sigma(self, f: np.ndarray) -> float:
        return dual_norm(self.A_sigma, f, factor=self._factor("A_sigma", self.A_sigma))

    def solve_M(self, f: np.ndarray) -> np.ndarray:
        """M^{-1} f in O(n): M is tridiagonal, factored once as L D L^T."""
        if "M" not in self._factors:
            d, e, info = dpttrf(np.diag(self.M), np.diag(self.M, 1))
            if info != 0:
                raise AssemblyError("matrix M is not positive definite")
            self._factors["M"] = (d, e)
        return dpttrs(*self._factors["M"], f)[0]

    def solve_A_s(self, f: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor("A_s", self.A_s), f, check_finite=False)

    def step_block(self) -> np.ndarray:
        """P = M A_s^{-1} M, the tau-free part of the time stepper's step matrix."""
        if "P" not in self._factors:
            self._factors["P"] = self.M @ self.solve_A_s(self.M)
        return self._factors["P"]


def build_operator_set(mesh: FracMesh, exps: FracExponents) -> OperatorSet:
    """Assemble both stiffness matrices and the mass matrix for a mesh."""
    C_s = normalization_constant(1, exps.s)
    C_sigma = normalization_constant(1, exps.sigma)
    A_s = assemble_gagliardo(mesh, exps.s, C_s)
    if exps.sigma == exps.s:
        A_sigma = A_s
    else:
        A_sigma = assemble_gagliardo(mesh, exps.sigma, C_sigma)
    return OperatorSet(
        A_s=A_s, A_sigma=A_sigma, M=mass_matrix(mesh),
        C_s=C_s, C_sigma=C_sigma, mesh=mesh, exps=exps,
    )


def save_stiffness(path, A: np.ndarray, s: float, C_s: float) -> None:
    """Binary dump: 32-byte header (magic, dof_count, s, C_s) + row-major f64.

    Layout: 8-byte magic ``FRACSTF1``, little-endian uint64 dof_count,
    float64 s, float64 C_s, then dof_count^2 float64 entries in C order.
    """
    A = np.ascontiguousarray(A, dtype="<f8")
    header = _STIFFNESS_MAGIC + struct.pack("<Qdd", A.shape[0], s, C_s)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(A.tobytes(order="C"))


def load_stiffness(path) -> tuple[np.ndarray, float, float]:
    """Read a matrix dumped by :func:`save_stiffness`; returns (A, s, C_s)."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != _STIFFNESS_MAGIC:
            raise AssemblyError(f"{path}: not a stiffness dump (bad magic)")
        dof, s, C_s = struct.unpack("<Qdd", header[8:])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != dof * dof:
        raise AssemblyError(f"{path}: truncated stiffness dump")
    return data.reshape(dof, dof).copy(), s, C_s
