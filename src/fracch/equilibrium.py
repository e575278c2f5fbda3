"""Stationary states, their linearization, kernel handling, and the LSI probe.

A stationary state solves A_sigma phi + b_g(phi) = 0 in the dual space, by a
damped Newton whose last residual is the reported one.  Each Newton
Jacobian A_sigma + B_g'(u) is the Hessian of the energy at the iterate, so
it is symmetric, and positive definite near a stable equilibrium: the
Newton solves it by Cholesky, and by LU from the first indefinite Jacobian
on, such as a search for a saddle meets.  Its
linearization L = A_sigma + B_g'(phi) is symmetric; the generalized pencil
(L, M) yields the spectrum and a tolerance-based kernel with its
M-orthonormal basis V.  M is the mass matrix as its diagonals (diag, off),
as ``mesh.mass_matrix`` returns it.  Every pencil goes through the O(n^2)
reduction by M's factor (operators.reduce_pencil_in_place) and one symmetric
eigh, both in the memory of a fresh linearization or of a copy.
The spectrum comes from an eigenvalues-only solve, and eigenvectors are
computed for the kernel alone, when it is non-empty.  The seed of the
stationary solve needs one mode only, the lowest of (A_sigma, M), and takes
it from a shift-invert Lanczos on the cached A_sigma factor
(OperatorSet.lowest_mode) instead of a dense eigensolve.  With the
L2-orthogonal projection P = V V^T M onto the kernel, the pencil
(L + M P, M) has the spectrum of (L, M) with the kernel's eigenvalues
shifted by +1, so neither P nor L + M P is formed: finiteness of the
condition number of L + M P in the M inner product, read off that shifted
spectrum, is the discrete stand-in for the isomorphism property behind the
gradient inequality, and the probe below samples that inequality's ratio
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import default_rng

from ._lapack import dgesv, dposv, eigh
from .energy import (
    EnergyContext,
    add_tridiagonal,
    energy,
    energy_gradient,
    load_vector,
    weighted_mass,
)
from .errors import ConfigurationError, JacobianSingularError, NewtonDivergenceError
from .evolution import _check_count, _checked_positive
from .mesh import linf_norm
from .operators import reduce_pencil_in_place, xnorm


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    phi: np.ndarray
    residual_dual: float
    linf: float
    pencil_eigs: np.ndarray | None = None
    kernel_basis: list | None = None
    iso_condition: float | None = None
    theta_hint: float | None = None
    newton_history: tuple = ()  # (residual dual norm before the step, accepted alpha) per step


def solve_semilinear(
    ctx: EnergyContext,
    rhs: np.ndarray,
    fn_pair,
    u_init: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[np.ndarray, float, list]:
    """Newton with backtracking for A_sigma u + b_fn(u) = rhs; fn_pair(r) is (fn(r), fn'(r)).

    Each residual evaluates ``fn_pair`` once, on its iterate's grid values,
    and the next Jacobian takes fn' from the accepted iterate's evaluation.
    The merit function is the dual norm of the residual; a step is accepted
    once it produces a sufficient decrease, halving the step length otherwise.
    Each symmetric Jacobian is formed in one buffer, allocated once, and
    factored there (see ``_newton_direction``): by Cholesky while the
    Jacobians are positive definite, as near a stable state, and by LU
    from the first indefinite one to the end of the solve, so a saddle
    search pays for one failed Cholesky at most.  Returns the solution,
    the dual norm of its residual and, per Newton step, the pair (dual norm
    of the residual before the step, accepted step length).  A tol that is
    not a finite positive real, or a max_iter that is not an integer >= 0,
    raises ConfigurationError.
    """
    _checked_positive("tol", tol)
    _check_count("max_iter", max_iter)
    ops = ctx.ops
    u = np.zeros(ops.mesh.dof_count) if u_init is None else np.array(u_init, dtype=float)

    def residual(vec):
        f, f_prime = fn_pair(ctx.values_at_quad(vec))
        return ops.A_sigma @ vec + load_vector(ctx, f) - rhs, f_prime

    F, f_prime = residual(u)
    res = ops.dual_norm_sigma(F)
    history = []
    jac = np.empty(ops.A_sigma.shape)  # every step's Jacobian, formed and factored here
    cholesky = True  # until a Jacobian turns out indefinite
    for _ in range(max_iter):
        if res < tol:
            return u, res, history
        direction, cholesky = _newton_direction(
            jac, ops.A_sigma, weighted_mass(ctx, f_prime), -F, cholesky
        )
        alpha = 1.0
        for _ in range(40):
            trial = u + alpha * direction
            # a trial whose residual overflows reads inf or NaN, which the
            # sufficient-decrease test rejects: the step is shortened instead
            with np.errstate(over="ignore", invalid="ignore"):
                F_trial, f_prime_trial = residual(trial)
                res_trial = ops.dual_norm_sigma(F_trial)
            if res_trial <= (1.0 - 1e-4 * alpha) * res:
                history.append((res, alpha))
                u, F, f_prime, res = trial, F_trial, f_prime_trial, res_trial
                break
            alpha *= 0.5
        else:
            raise NewtonDivergenceError(
                f"stationary line search stalled at residual {res:.3e}"
            )
    if res < tol:
        return u, res, history
    raise NewtonDivergenceError(f"stationary Newton stopped at residual {res:.3e}")


def _newton_direction(jac, A, B, rhs, cholesky):
    """Solve (A + B) d = rhs in the buffer jac; returns d and whether Cholesky solved it.

    A is a dense symmetric array and B a symmetric tridiagonal as its
    diagonals (diag, off).  Their sum is formed in jac, whose
    Fortran-ordered transpose is itself, and LAPACK factors it there:
    posv (Cholesky) when ``cholesky`` is set, and gesv (LU) when it is not
    or when posv finds the sum not positive definite; the sum is formed
    again for gesv, since posv overwrote part of it.  A singular sum raises
    JacobianSingularError.
    """
    np.copyto(jac, A)
    add_tridiagonal(jac, *B)
    if cholesky:
        direction, info = dposv(jac.T, rhs, overwrite_a=1)[1:]
        if info == 0:
            return direction, True
        np.copyto(jac, A)
        add_tridiagonal(jac, *B)
    direction, info = dgesv(jac.T, rhs, overwrite_a=1)[2:]
    if info > 0:
        raise JacobianSingularError(
            "singular Jacobian in the stationary solve (degenerate critical point?)"
        )
    return direction, False


def solve_stationary(
    ctx: EnergyContext, u_init: np.ndarray, tol: float = 1e-10, max_iter: int = 60
) -> EquilibriumReport:
    """Solve the stationary problem from u_init; fills phi/residual/linf/history only.

    The residual is the line search's last one: with rhs = 0 it is the
    energy gradient A_sigma phi + b_g(phi) at phi, so it is not evaluated again.
    """
    rhs = np.zeros(ctx.ops.mesh.dof_count)
    phi, res, history = solve_semilinear(ctx, rhs, ctx.pot.g_pair, u_init=u_init, tol=tol,
                                         max_iter=max_iter)
    return EquilibriumReport(phi=phi, residual_dual=res, linf=linf_norm(ctx.ops.mesh, phi),
                             newton_history=tuple(history))


def linearize(ctx: EnergyContext, phi: np.ndarray) -> np.ndarray:
    """Second variation at phi: A_sigma + weighted mass of g'(phi)."""
    B = weighted_mass(ctx, ctx.pot.g_pair(ctx.values_at_quad(phi))[1])
    return add_tridiagonal(ctx.ops.A_sigma.copy(), *B)


def _pencil_kernel(make_L, M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pencil eigenvalues, the kernel's index run and its M-orthonormal basis as columns.

    ``make_L()`` returns a fresh C-ordered L, which the reduction and the
    eigensolve overwrite.  The kernel is |mu| < 1e-8 max|mu| (scale-aware
    zero detection).  Eigenvectors are computed for it only, and only when
    it is non-empty: the eigenvalues are sorted, so the kernel is one
    contiguous run of them, which one subset solve of the reduced pencil
    returns.  An empty kernel gives an empty run and an n x 0 basis.  That
    solve forms L again and reduces it again, since the spectrum's solve
    overwrote the first one: keeping a copy would hold an n x n array on
    every report (4.7 MB at dof 767, 5.5% of that run's peak memory) to
    save one linearization and one O(n^2) reduction on degenerate
    equilibria only.
    """
    mu = pencil_eigenvalues_in_place(make_L(), M)
    run = np.flatnonzero(np.abs(mu) < 1e-8 * float(np.max(np.abs(mu))))
    if run.size == 0:
        return mu, run, np.empty((mu.size, 0))
    C, vectors = reduce_pencil_in_place(make_L(), M)
    # the spectrum's solve checked this L for finiteness
    Y = eigh(C, subset_by_index=(run[0], run[-1]))[1]
    return mu, run, vectors(Y)


def isomorphism_check(mu: np.ndarray, run: np.ndarray) -> float:
    """Condition number of L + M P in the M inner product; finite means discrete isomorphism.

    mu are the eigenvalues of the pencil (L, M) and run the indices of its
    kernel, whose M-orthonormal basis V gives P = V V^T M.  The pencil
    (L + M P, M) has the eigenvalues nu = mu with the kernel's shifted by
    +1, since M P v = M v on the kernel and M P v = 0 on the other
    eigenvectors, which are M-orthogonal to it.  The condition number is
    max|nu| / min|nu|, inf when min|nu| = 0.  mu is not modified.
    """
    nu = np.abs(mu)
    nu[run] = np.abs(mu[run] + 1.0)
    lo, hi = float(nu.min()), float(nu.max())
    return hi / lo if lo > 0.0 else math.inf


def pencil_eigenvalues_in_place(X: np.ndarray, M) -> np.ndarray:
    """``pencil_eigenvalues`` of (X, M), solved in X's memory: X is overwritten.

    X is a float64 array, C-ordered for the eigensolve to work in place.
    """
    C, _ = reduce_pencil_in_place(X, M)
    # min and max propagate NaN and +-inf, and allocate no n x n mask
    if not (math.isfinite(np.minimum.reduce(C, axis=None))
            and math.isfinite(np.maximum.reduce(C, axis=None))):
        raise np.linalg.LinAlgError("non-finite entries in the reduced pencil")
    return eigh(C, eigvals_only=True)


def pencil_eigenvalues(L: np.ndarray, M) -> np.ndarray:
    """Sorted generalized eigenvalues of the symmetric pencil (L, M), no eigenvectors.

    M is a positive definite (diag, off) pair (see operators.reduce_pencil_in_place).
    One dense eigensolve gives every eigenvalue to about eps * max|mu| in
    absolute terms, so the lowest lose relative accuracy on a wide spectrum:
    at 768 elements and sigma = 0.99 (mu_max / mu_1 about 6.3e5) mu_1 of
    (A_sigma, M) is 4.4e-11 relative off its long-double Rayleigh quotient.
    ``OperatorSet.lowest_mode`` gives lambda_1 to 1.0e-13 there.  A
    non-finite L (or one whose reduction overflows) raises LinAlgError.
    L is not modified: the solve works on a copy.
    """
    return pencil_eigenvalues_in_place(np.array(L, dtype=float, order="C"), M)


def complete_report(ctx: EnergyContext, rep: EquilibriumReport) -> EquilibriumReport:
    """Attach spectrum, kernel, projection quality, and a theta hint.

    One eigenvalues-only solve of the pencil (L, M) gives the spectrum and
    locates the kernel; the kernel's eigenvectors are computed only when the
    kernel is non-empty, and ``isomorphism_check`` reads the condition
    number of L + M P off the same spectrum, with no further eigensolve.
    Each L is reduced in its own memory, so the report holds one n x n
    array beside A_sigma and its factor.
    """
    mu, run, V = _pencil_kernel(lambda: linearize(ctx, rep.phi), ctx.ops.M)
    return replace(
        rep,
        pencil_eigs=mu,
        kernel_basis=list(V.T),
        iso_condition=isomorphism_check(mu, run),
        theta_hint=None if V.size else 0.5,
    )


def default_equilibrium_seed(ctx: EnergyContext) -> np.ndarray:
    """Deterministic seed: the lowest pencil mode of the linearization at zero.

    At zero the linearization is A_sigma + g'(0) M, so its lowest mode is the
    lowest pair (lambda_1, v_1) of (A_sigma, M), shifted by g'(0); it comes
    from ``OperatorSet.lowest_mode``, a shift-invert Lanczos on the A_sigma
    factor that the stationary solve's dual norms use anyway.  Returns zero
    when lambda_1 + g'(0) >= 0 (zero is then the local minimizer); otherwise
    v_1 scaled to sup-norm 0.9, with its largest-|v| entry positive for
    reproducibility.
    """
    lam1, v = ctx.ops.lowest_mode()
    if lam1 + float(ctx.pot.g_pair(0.0)[1]) >= 0:
        return np.zeros(ctx.ops.mesh.dof_count)
    anchor = int(np.argmax(np.abs(v)))
    if v[anchor] < 0:
        v = -v
    return 0.9 * v / np.max(np.abs(v))


@dataclass(frozen=True)
class LsiProbeResult:
    theta: float
    samples: int
    used: int
    skipped: int
    max_ratio: float
    median_ratio: float
    delta: float
    decade_medians: tuple
    diverging: bool


def lsi_probe(
    ctx: EnergyContext,
    rep: EquilibriumReport,
    theta: float,
    delta: float,
    samples: int,
    rng=None,
    energy_fn=None,
    grad_fn=None,
) -> LsiProbeResult:
    """Sample |E(v) - E(phi)|^(1-theta) / |E'(v)|_dual near an equilibrium.

    Radii are drawn log-uniformly over three decades below delta, and the
    per-decade medians expose whether the ratio blows up as v -> phi (the
    signature of a failing exponent or a degenerate critical point).  The
    theory guarantees a working theta in (0, 1/2] only; larger values are
    accepted for negative controls.  ``energy_fn`` / ``grad_fn`` override the
    stock energy, e.g. to probe a surgically modified quadratic model.  A
    delta that is not a finite positive real, or samples that is not an
    integer >= 0, raises ConfigurationError.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigurationError(f"theta must lie in (0,1), got {theta}")
    _checked_positive("delta", delta)
    _check_count("samples", samples)
    if energy_fn is None:
        energy_fn = lambda v: energy(ctx, v)  # noqa: E731
    if grad_fn is None:
        grad_fn = lambda v: energy_gradient(ctx, v)  # noqa: E731
    rng = default_rng(0) if rng is None else rng
    ops = ctx.ops
    phi = rep.phi
    e_phi = energy_fn(phi)

    ratios, radii = [], []
    skipped = 0
    for _ in range(samples):
        d = rng.standard_normal(ops.mesh.dof_count)
        d /= max(xnorm(ops.A_sigma, d), 1e-300)
        r = delta * 10.0 ** (-3.0 * rng.random())
        v = phi + r * d
        den = ops.dual_norm_sigma(grad_fn(v))
        if den < 1e-14:
            skipped += 1
            continue
        ratios.append(abs(energy_fn(v) - e_phi) ** (1.0 - theta) / den)
        radii.append(r)
    ratios = np.asarray(ratios)
    radii = np.asarray(radii)
    decade = np.clip(np.floor(np.log10(delta / radii)).astype(int), 0, 2)
    medians = tuple(
        float(np.median(ratios[decade == k])) if np.any(decade == k) else math.nan
        for k in range(3)
    )
    finite = [m for m in medians if not math.isnan(m)]
    diverging = (
        len(finite) == 3
        and finite[0] < finite[1] < finite[2]
        and finite[2] > 2.0 * finite[0]
    )
    return LsiProbeResult(
        theta=theta,
        samples=samples,
        used=int(ratios.size),
        skipped=skipped,
        max_ratio=float(ratios.max()) if ratios.size else math.nan,
        median_ratio=float(np.median(ratios)) if ratios.size else math.nan,
        delta=delta,
        decade_medians=medians,
        diverging=diverging,
    )
