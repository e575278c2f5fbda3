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

Beside assembly the module holds the OperatorSet (stiffness matrices
factored once, on first use, for every solve and dual norm), the O(n^2)
standard form of a pencil (X, M) by the tridiagonal M's factor, for whole
spectra, and the lowest pair of (A_sigma, M) by a shift-invert Lanczos on the
A_sigma factor, for the one mode the equilibrium seed needs.  The mass matrix
M is held as its two diagonals (diag, off), as ``mesh.mass_matrix`` returns
it, and applied by ``mesh.tridiagonal_product``; no dense M is formed.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._lapack import dpotrf, dpotrs, dpttrf, dpttrs, dtrtri, eigh_tridiagonal
from .errors import AssemblyError, ConfigurationError
from .mesh import FracMesh, mass_matrix, tridiagonal_product

_STIFFNESS_MAGIC = b"FRACSTF1"
_GAUSS_ORDER = 5  # Gauss-Legendre points per direction for separated element pairs
_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


@dataclass(frozen=True)
class FracExponents:
    """Exponent pair: s drives the flux operator, sigma the chemical potential."""

    s: float
    sigma: float

    def __post_init__(self):
        for name, val in (("s", self.s), ("sigma", self.sigma)):
            if not (0.0 < val < 1.0):
                raise ConfigurationError(f"fractional exponent {name} must lie in (0,1), got {val}")


def normalization_constant(s: float) -> float:
    """C_s = s 4^s Gamma(s + 1/2) / (pi^(1/2) Gamma(1 - s)), the constant C(N, s) at N = 1.

    Vanishes like 1/Gamma(1-s) as s -> 1 (compensating the blowup of the raw
    seminorm near the classical limit) and linearly as s -> 0.
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError(f"exponent s must lie in (0,1), got {s}")
    return s * 4.0**s * math.gamma(s + 0.5) / (math.pi ** 0.5 * math.gamma(1.0 - s))


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
    pts, wts = leggauss(_GAUSS_ORDER)
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


def _check_lengths(mesh: FracMesh, s: float) -> None:
    """ConfigurationError unless every power of a length that assembly forms is a normal float.

    Assembly raises the mesh width h, the domain length b - a and the lengths
    in between to powers from -1-2s to max(2, 3-2s) (h*h included).  The log
    of such a power is linear in the exponent and in the log of the length,
    so the four corners bound all of them.
    """
    lo, hi = _LOG_NORMAL
    for length in (mesh.h, mesh.b - mesh.a):
        for p in (-1.0 - 2.0 * s, max(2.0, 3.0 - 2.0 * s)):
            if not (length > 0.0 and lo < p * math.log(length) < hi):
                raise ConfigurationError(
                    f"mesh width {mesh.h:.3g} is out of range at s={s}: "
                    f"the power {length:.3g}**{p:g} over- or underflows"
                )


def assemble_gagliardo(mesh: FracMesh, s: float) -> np.ndarray:
    """Dense symmetric Gagliardo stiffness matrix on interior hat functions.

    Entry (i, j) approximates (C_s/2) times the full-plane double integral of
    the hat-function differences against |x-y|^(-1-2s), including the
    exterior-complement contribution of the zero extension, with C_s =
    ``normalization_constant(s)``.  Local blocks are exact except for
    separated pairs, which use ``_GAUSS_ORDER`` Gauss points per direction.
    """
    C_s = normalization_constant(s)
    _check_lengths(mesh, s)
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
    A = _toeplitz(row[:n - 1])

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
    # exactly symmetric: _toeplitz() mirrors its row, off lands on both sides, *= is elementwise
    A *= 0.5 * C_s
    return A


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with entries c[|i - j|], a new C-ordered array."""
    # row i is the window (c[i], .., c[1], c[0], c[1], .., c[n-1-i]) of this sequence
    seq = np.concatenate((c[:0:-1], c))
    return np.lib.stride_tricks.sliding_window_view(seq, c.size)[::-1].copy()


def xnorm(A: np.ndarray, v: np.ndarray) -> float:
    """Energy norm sqrt(v^T A v) of the assembled quadratic form."""
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {A.shape}, vector {v.shape}")
    return math.sqrt(max(float(v @ A @ v), 0.0))


def _pttrf(diag: np.ndarray, upper: np.ndarray):
    """LAPACK pttrf, M = L D L^T; its wrapper refuses the empty superdiagonal of
    a 1 x 1 matrix, which therefore gets a (never read) zero."""
    return dpttrf(diag, upper if upper.size else np.zeros(1))


def reduce_pencil_in_place(
    X: np.ndarray, M
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Standard form of the symmetric pencil X v = mu M v, for a tridiagonal M, in X's memory.

    M is the pair (diag, off) of ``mesh.mass_matrix``; one whose shapes do
    not fit X, or that is not positive definite, raises ValueError.  With
    M = L D L^T from LAPACK pttrf in O(n), L unit lower
    bidiagonal, the pencil has the eigenvalues of the symmetric
    C = D^(-1/2) L^(-1) X L^(-T) D^(-1/2), formed here by two O(n^2) row
    recurrences (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.7):
    one on the rows of X, which then hold L^(-1) X, and one on the rows of
    its transpose C = X L^(-T).  X, a float64 array, is overwritten and C is
    returned as the view X.T: Fortran-ordered when X is C-ordered, so that
    ``eigh(C, overwrite_a=True)`` works on it in place.  Also returns the map
    from eigenvectors y of C (the columns of an array) to the M-orthonormal
    pencil eigenvectors L^(-T) D^(-1/2) y, O(n) each.
    """
    n = len(X)
    if X.shape != (n, n) or M[0].shape != (n,) or M[1].shape != (max(n - 1, 0),):
        raise ValueError(f"pencil shapes differ: X {X.shape}, M {M[0].shape} and {M[1].shape}")
    d, e, info = _pttrf(*M)
    if info != 0:
        raise ValueError("the pencil's M must be positive definite")
    for i in range(1, n):  # X = L^(-1) X, so C = X.T = X L^(-T)
        X[i] -= e[i - 1] * X[i - 1]
    C = X.T
    for i in range(1, n):  # C = L^(-1) X L^(-T)
        C[i] -= e[i - 1] * C[i - 1]
    scale = 1.0 / np.sqrt(d)
    C *= scale[:, None]
    C *= scale

    def vectors(Y: np.ndarray) -> np.ndarray:
        V = Y * scale[:, None]
        for i in range(n - 2, -1, -1):
            V[i] -= e[i] * V[i + 1]
        return V

    return C, vectors


def reduce_pencil(
    X: np.ndarray, M
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``reduce_pencil_in_place`` on a C-ordered float64 copy of X: X is not modified.

    C comes back Fortran-ordered, ready for ``eigh(C, overwrite_a=True)``.
    """
    return reduce_pencil_in_place(np.array(X, dtype=float, order="C"), M)


def _potrf(X: np.ndarray, name: str) -> np.ndarray:
    """LAPACK potrf factor U of X = U^T U (upper, zero below); AssemblyError unless X is SPD."""
    c, info = dpotrf(X)
    if info > 0:
        raise AssemblyError(f"matrix {name} is not positive definite")
    return c


_RITZ_TOL = 1e-14  # Ritz residual |beta_k y_k|, relative to theta, at which Lanczos stops


def _dual_norm(factor: np.ndarray, f: np.ndarray) -> float:
    """sqrt(f^T A^{-1} f) from A's potrf factor; ValueError unless f is finite."""
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("dual norm of a vector with non-finite entries")
    x = dpotrs(factor, f)[0]
    return math.sqrt(max(float(f @ x), 0.0))


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Assembled operators for one mesh and exponent pair.

    M is the mass matrix as its diagonals (diag, off).  Immutable after
    construction; A_s, the factorizations and the time stepper's block
    P = M A_s^{-1} M are cached properties, built on first read and then
    treated as read-only.  A copy, ``dataclasses.replace`` included, holds
    none of them until it reads them itself.  A_s and A_sigma each keep one
    LAPACK potrf factor, and every solve with them, the dual norms
    sqrt(f^T A^{-1} f) included, is one potrs on it; only f is checked for
    finiteness, in O(n).
    """

    A_sigma: np.ndarray
    M: tuple
    mesh: FracMesh
    exps: FracExponents

    @cached_property
    def A_s(self) -> np.ndarray:
        """The flux stiffness: A_sigma itself at s = sigma, else assembled on first read.

        Only the time stepper and the checks that use the flux operator read
        it, so equilibrium work never assembles it.
        """
        if self.exps.s == self.exps.sigma:
            return self.A_sigma
        return assemble_gagliardo(self.mesh, self.exps.s)

    @cached_property
    def _chol_A_s(self) -> np.ndarray:
        return _potrf(self.A_s, "A_s")

    @cached_property
    def _chol_A_sigma(self) -> np.ndarray:
        return _potrf(self.A_sigma, "A_sigma")

    @cached_property
    def _ldl_M(self) -> tuple[np.ndarray, np.ndarray]:
        """M = L D L^T by pttrf, as the pair (d, e) that pttrs takes."""
        d, e, info = _pttrf(*self.M)
        if info != 0:
            raise AssemblyError("matrix M is not positive definite")
        return d, e

    @cached_property
    def P(self) -> np.ndarray:
        """P = M A_s^{-1} M, the tau-free part of the time stepper's step matrix.

        P = G G^T for G = M U^{-1}, A_s = U^T U: a trtri, M applied in place, one syrk.
        U is factored here and inverted in its own buffer, not kept: no step
        reads A_s's cached factor, which only ``dual_norm_s`` and
        ``solve_A_s`` build.
        """
        G = dtrtri(_potrf(self.A_s, "A_s"), overwrite_c=1)[0]
        tridiagonal_product(*self.M, G, out=G)
        return G @ G.T  # numpy runs this as syrk: P is exactly symmetric

    def dual_norm_s(self, f: np.ndarray) -> float:
        return _dual_norm(self._chol_A_s, f)

    def dual_norm_sigma(self, f: np.ndarray) -> float:
        return _dual_norm(self._chol_A_sigma, f)

    def solve_M(self, f: np.ndarray) -> np.ndarray:
        """M^{-1} f in O(n): M is tridiagonal, factored once as L D L^T."""
        return dpttrs(*self._ldl_M, f)[0]

    def lowest_mode(self) -> tuple[float, np.ndarray]:
        """Lowest pair (lambda_1, v_1) of the pencil (A_sigma, M), v_1 M-normalized.

        Shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1980): T =
        A_sigma^{-1} M is self-adjoint in the M inner product, and its largest
        eigenvalue theta = 1/lambda_1 is the first to converge.  Each step is
        one potrs on the cached A_sigma factor (the one the dual norms use)
        and one O(n) product with M's diagonals; the basis, some 10 to 25
        vectors, is kept M-orthonormal by full reorthogonalization, and the
        Ritz pair comes from the tridiagonal T_k.  The start vector is all
        ones, so the result is deterministic.  Lanczos stops when the Ritz
        residual |beta_k y_k| falls below ``_RITZ_TOL`` theta, which includes
        a breakdown (beta_k = 0: the basis spans an invariant subspace), or at
        k = n, which a 1 x 1 pencil reaches after one step.
        """
        M, factor = self.M, self._chol_A_sigma
        n = M[0].size
        Q = MQ = np.empty((0, n))  # the basis q_1 .. q_k as rows, and M q_1 .. M q_k
        alpha, beta = [], []
        w = np.ones(n)
        Mw = tridiagonal_product(*M, w)
        b = math.sqrt(w @ Mw)
        for k in range(1, n + 1):
            Q, MQ = np.vstack((Q, w / b)), np.vstack((MQ, Mw / b))
            w = dpotrs(factor, MQ[-1])[0]
            alpha.append(float(MQ[-1] @ w))
            # classical Gram-Schmidt, twice, against the whole basis; it also
            # removes the alpha_k q_k and beta_{k-1} q_{k-1} of the three-term recurrence
            for _ in range(2):
                w -= (MQ @ w) @ Q
            Mw = tridiagonal_product(*M, w)
            b = math.sqrt(max(float(w @ Mw), 0.0))
            theta, y = eigh_tridiagonal(alpha, beta, (k - 1, k - 1))
            if k == n or b * abs(y[-1, 0]) <= _RITZ_TOL * theta[0]:
                return 1.0 / float(theta[0]), y[:, 0] @ Q
            beta.append(b)

    def solve_A_s(self, f: np.ndarray) -> np.ndarray:
        """A_s^{-1} f: LAPACK potrs on the cached Cholesky factor."""
        return dpotrs(self._chol_A_s, f)[0]


def build_operator_set(mesh: FracMesh, exps: FracExponents) -> OperatorSet:
    """Assemble A_sigma and the mass matrix for a mesh; A_s follows on first use."""
    return OperatorSet(A_sigma=assemble_gagliardo(mesh, exps.sigma), M=mass_matrix(mesh),
                       mesh=mesh, exps=exps)


def save_stiffness(path, A: np.ndarray, s: float) -> None:
    """Binary dump: 32-byte header (magic, dof_count, s, C_s) + row-major f64.

    Layout: 8-byte magic ``FRACSTF1``, little-endian uint64 dof_count,
    float64 s, float64 C_s = ``normalization_constant(s)``, then
    dof_count^2 float64 entries in C order.
    """
    A = np.ascontiguousarray(A, dtype="<f8")
    header = _STIFFNESS_MAGIC + struct.pack("<Qdd", A.shape[0], s, normalization_constant(s))
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
