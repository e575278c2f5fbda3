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
per distance and adds it, for all n - d pairs at once, into a matrix over
all nodes whose boundary rows and columns are dropped at the end:

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
from scipy.linalg import cho_factor, cho_solve, eigh, LinAlgError
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


def _power_integral(lo: float, hi: float, p: float) -> float:
    """Exact integral of t^p over [lo, hi], smooth through the p = -1 log case."""
    q = p + 1.0
    if lo == 0.0:
        if q <= 0.0:
            raise AssemblyError(f"divergent boundary integral: exponent {p} at lo=0")
        return hi**q / q
    r = math.log(hi / lo)
    if q == 0.0:
        return r
    return lo**q * math.expm1(q * r) / q


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


def _separated_local(h: float, s: float, d: int, pts: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """4x4 local matrix for elements at distance d >= 2, nodes (k, k+1, l, l+1).

    With x = x_k + h u and y = x_{k+d} + h w the kernel is
    (h (d + w - u))^(-1-2s); basis differences reduce to shape values on one
    element each, so tensor Gauss-Legendre applies to a smooth integrand.
    """
    shapes = (1.0 - pts, pts)
    kern = (h * (d + pts[None, :] - pts[:, None])) ** (-1.0 - 2.0 * s)
    scale = h * h
    row_mass = kern @ wts  # integral over w of the kernel, per u point
    col_mass = wts @ kern
    local = np.empty((4, 4))
    for i in range(2):
        for j in range(2):
            local[i, j] = scale * np.dot(wts * shapes[i] * shapes[j], row_mass)
            local[2 + i, 2 + j] = scale * np.dot(wts * shapes[i] * shapes[j], col_mass)
            # cross blocks carry the sign of -phi(y)
            val = -scale * float((wts * shapes[i]) @ kern @ (wts * shapes[j]))
            local[i, 2 + j] = val
            local[2 + j, i] = val
    return local


def _left_exterior_local(h: float, s: float, k: int) -> np.ndarray:
    """2x2 left-exterior block for element k, nodes (k, k+1).

    Contributes 2 * int_elem phi_i phi_j (x) * (x-a)^(-2s)/(2s) dx, integrated
    exactly in t = x - a over [kh, (k+1)h] (hat products are quadratic
    polynomials).  The right exterior is the mirror image under x -> a+b-x.
    """
    lo, hi = k * h, (k + 1) * h
    # both nodal shapes as c0 + c1 t with exact coefficients: node k, node k+1
    lin = ((hi / h, -1.0 / h), (-lo / h, 1.0 / h))
    out = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            if k == 0 and 0 in (i, j):
                continue  # node 0 sits at a, where the weight is not integrable
            (c0i, c1i), (c0j, c1j) = lin[i], lin[j]
            coeffs = (c0i * c0j, c0i * c1j + c1i * c0j, c1i * c1j)
            # zero coefficients are skipped: at t = 0 the low moments diverge
            out[i, j] = sum(
                c * _power_integral(lo, hi, order - 2.0 * s)
                for order, c in enumerate(coeffs) if c != 0.0
            ) / s
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

    pts, wts = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts

    # one block per element distance d, with its node offsets; d >= 1 carries
    # weight 2 for the pairs (k, k+d) and (k+d, k)
    same = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (_self_pair_integral(h, s) / (h * h))
    blocks = [((0, 1), same), ((0, 1, 2), 2.0 * _touching_local(h, s))]
    blocks += [((0, 1, d, d + 1), 2.0 * _separated_local(h, s, d, pts, wts)) for d in range(2, n)]

    # all nodes, boundary nodes 0 and n included and dropped at the end
    full = np.zeros((n + 1, n + 1))
    for d, (offsets, block) in enumerate(blocks):
        if not np.all(np.isfinite(block)):
            raise AssemblyError(f"non-finite quadrature for element pair (0, {d}) at s={s}")
        k = np.arange(n - d)
        for p, op in enumerate(offsets):
            for q, oq in enumerate(offsets):
                full[k + op, k + oq] += block[p, q]

    # x -> a+b-x maps element k onto element n-1-k with its node order reversed
    for k in range(n):
        left = _left_exterior_local(h, s, k)
        if not np.all(np.isfinite(left)):
            raise AssemblyError(f"non-finite complement integral on element {k} at s={s}")
        full[k:k + 2, k:k + 2] += left
        full[n - 1 - k:n + 1 - k, n - 1 - k:n + 1 - k] += left[::-1, ::-1]

    A = 0.5 * C_s * full[1:-1, 1:-1]
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

    Immutable after construction; Cholesky factors and the time stepper's
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
        return cho_solve(self._factor("M", self.M), f, check_finite=False)

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
