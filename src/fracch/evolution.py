"""Semi-implicit convex-splitting time stepper with dissipation certificates.

Each step solves the coupled system

    M (u_n - u_prev) / tau + A_s w_n = 0
    M w_n = A_sigma u_n + b_beta(u_n) - lambda M u_prev.

The first equation gives w_n = -A_s^{-1} M (u_n - u_prev) / tau, and putting
that into the second leaves one equation in u_n alone,

    F(u) = P (u - u_prev) / tau + A_sigma u + b_beta(u) - lambda M u_prev = 0,

with P = M A_s^{-1} M.  Newton solves it until |F(u)|_{M^{-1}} < newton_tol;
w_n is then recovered once, by one A_s solve.  The Jacobian of F is
S = P/tau + A_sigma + B'(u), where P is fixed per operator set and cached
there and B', the weighted mass of beta' >= 0, is tridiagonal.  So S is
symmetric positive definite and one in-place Cholesky factorization per
iterate solves it.  (With potential.lambda below the tightest monotone
split, beta' < 0 can make S indefinite; the factorization then fails with
JacobianSingularError.)  The pair (beta, beta') is evaluated once per
iterate on the quadrature grid.  The monotone part of the nonlinearity is
implicit, the expansive lambda-term is lagged, so testing the two equations
with w_n and u_n - u_prev gives the per-step inequality

    E(u_n) + tau w_n^T A_s w_n + (lambda/2) |u_n - u_prev|_M^2 <= E(u_prev)

up to solver tolerance; the defect of that inequality is recorded in a
StepCertificate for every accepted step.

``march`` starts each step's Newton iteration from the linear predictor
2 u_n - u_{n-1} when the step tries the same tau as the step before it
(Hairer & Wanner, Solving ODEs II, IV.8); the first step, a shortened last
step and the step after a halving start from u_prev.  From a predicted start
Newton takes at least one update before the residual test may stop it, so
the returned state always comes out of a Newton update and not out of the
predictor.  If Newton fails from the predicted start, the step is retried
once from u_prev at the same tau before any halving, so the predictor never
causes a halving.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .energy import EnergyContext, add_tridiagonal, energy, load_vector, weighted_mass
from .errors import (
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    NewtonDivergenceError,
)
from .mesh import check_coeffs, linf_norm
from .operators import xnorm
from .potentials import YosidaParams, yosida_apply


@dataclass(frozen=True)
class StepConfig:
    """Time-step parameters; ``use_yosida`` swaps beta for its regularization.

    With the Yosida option active the certificate is still evaluated with the
    unregularized energy, so small positive defects of order epsilon are
    possible; the option exists for experimentation, not for the default
    polynomial potentials.
    """

    tau: float
    newton_tol: float = 1e-10
    newton_max: int = 50
    use_yosida: float | None = None
    cert_rel_tol: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.newton_tol <= 0:
            raise ConfigurationError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max < 0:
            raise ConfigurationError(f"newton_max must be >= 0, got {self.newton_max}")


@dataclass(frozen=True)
class StepCertificate:
    """Everything one accepted step records: its dissipation terms and monitors."""

    e_before: float
    e_after: float
    w_normsq: float
    du_msq: float
    lambda_half_du: float
    defect: float
    satisfied: bool
    tau_used: float
    u_xnorm_sigma: float  # |u_n| in the A_sigma energy norm
    u_linf: float  # max |nodal value| of u_n
    dual_norm_ut: float  # dual s-norm of M (u_n - u_prev) / tau, which equals |w_n|_{A_s}
    newton_iters: int  # Newton updates taken by the accepted attempt


# one record column per certificate field; the annotations are the strings
# "float", "bool" and "int", which numpy reads as float64, bool and int64
_CERT_DTYPE = np.dtype([(f.name, f.type) for f in fields(StepCertificate)])
_cert_row = operator.attrgetter(*_CERT_DTYPE.names)


@dataclass
class Trajectory:
    """A run in memory: per-step times and certificates; states[0] is u0, states[k] after step k."""

    times: np.ndarray
    certificates: np.recarray
    states: np.ndarray


def _beta_pair(ctx: EnergyContext, cfg: StepConfig):
    """One callable r -> (beta(r), beta'(r)), with beta Yosida-regularized if configured."""
    pot = ctx.pot
    if cfg.use_yosida is None:
        return lambda r: (pot.beta(r), pot.beta_prime(r))
    yp = YosidaParams(epsilon=cfg.use_yosida)

    def beta_eps_pair(r):
        beta_eps = yosida_apply(pot, yp, r)
        # chain rule through the resolvent j = r - eps beta_eps:
        # beta_eps' = beta'(j) / (1 + eps beta'(j))
        bp = pot.beta_prime(r - yp.epsilon * beta_eps)
        return beta_eps, bp / (1.0 + yp.epsilon * bp)

    return beta_eps_pair


def _newton_delta(ops, tau: float, Bp, F: np.ndarray) -> np.ndarray:
    """Newton update du = -S^{-1} F, S = P/tau + A_sigma + B'; Bp is B' as (diag, off)."""
    S = ops.step_block() / tau
    S += ops.A_sigma
    add_tridiagonal(S, *Bp)
    try:
        # S.T is S's Fortran-ordered view, so LAPACK factors it in place
        factor = cho_factor(S.T, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise JacobianSingularError(
            f"step matrix not positive definite at tau={tau} because beta' < 0 somewhere "
            "(potential.lambda below the tightest monotone split)"
        ) from exc
    return cho_solve(factor, -F, check_finite=False)


def step(
    ctx: EnergyContext,
    cfg: StepConfig,
    u_prev: np.ndarray,
    tau: float | None = None,
    e_before: float | None = None,
    u_start: np.ndarray | None = None,
):
    """One convex-splitting step; returns (u_n, w_n, certificate).

    ``e_before`` is E(u_prev) when the caller already has it (``march``
    passes the previous step's ``e_after``); it is computed otherwise.
    Newton starts from ``u_start`` if given, else from ``u_prev``; from a
    given start it takes at least one update before the residual test can
    accept an iterate, so the start's residual is only checked to be finite.
    """
    ops = ctx.ops
    mesh = ops.mesh
    u_prev = check_coeffs(mesh, u_prev)
    tau = cfg.tau if tau is None else tau
    beta_pair = _beta_pair(ctx, cfg)
    lam = ctx.pot.lam
    M, A_s, A_sig, P = ops.M, ops.A_s, ops.A_sigma, ops.step_block()

    if e_before is None:
        e_before = energy(ctx, u_prev)
    Mu_prev = M @ u_prev
    if u_start is None:
        u, min_updates = u_prev.copy(), 0
    else:
        u, min_updates = check_coeffs(mesh, u_start), 1

    for it in range(cfg.newton_max + 1):
        b_q, bp_q = beta_pair(ctx.values_at_quad(u))
        F = P @ (u - u_prev) / tau + A_sig @ u + load_vector(ctx, b_q) - lam * Mu_prev
        if it < min(min_updates, cfg.newton_max):
            # the update is due whatever the residual (it < min_updates, so 0.0
            # cannot pass the tolerance test below): only finiteness counts
            res = 0.0 if np.isfinite(F).all() else math.nan
        else:
            res = math.sqrt(max(float(F @ ops.solve_M(F)), 0.0))
        if not math.isfinite(res):
            raise NewtonDivergenceError(
                f"step Newton residual is not finite after {it} iterations (tau={tau})"
            )
        if res < cfg.newton_tol and it >= min_updates:
            break
        if it == cfg.newton_max:
            raise NewtonDivergenceError(
                f"step Newton stalled at residual {res:.3e} after {cfg.newton_max} iterations "
                f"(tau={tau})"
            )
        u = u + _newton_delta(ops, tau, weighted_mass(ctx, bp_q), F)

    du = u - u_prev
    flux = M @ du / tau  # M u_t, so that A_s w_n = -flux
    w = -ops.solve_A_s(flux)
    e_after = energy(ctx, u)
    w_normsq = float(w @ A_s @ w)
    du_msq = float(du @ M @ du)
    lambda_half_du = 0.5 * lam * du_msq
    defect = e_after + tau * w_normsq + lambda_half_du - e_before
    tol = cfg.cert_rel_tol * max(1.0, abs(e_before))
    cert = StepCertificate(
        e_before=e_before, e_after=e_after, w_normsq=w_normsq, du_msq=du_msq,
        lambda_half_du=lambda_half_du, defect=defect,
        satisfied=defect <= tol, tau_used=tau,
        u_xnorm_sigma=xnorm(A_sig, u), u_linf=linf_norm(mesh, u),
        # |M u_t|_{A_s^{-1}} = |w_n|_{A_s}, since A_s w_n = -M u_t
        dual_norm_ut=math.sqrt(max(w_normsq, 0.0)), newton_iters=it,
    )
    return u, w, cert


def _step_from_predictor(ctx, cfg, u, tau, e_before, u_back):
    """``step`` from the linear predictor 2u - u_back; retried once from u if Newton fails there."""
    try:
        return step(ctx, cfg, u, tau=tau, e_before=e_before, u_start=2.0 * u - u_back)
    except (NewtonDivergenceError, JacobianSingularError):
        return step(ctx, cfg, u, tau=tau, e_before=e_before)


def march(
    ctx: EnergyContext,
    cfg: StepConfig,
    u0: np.ndarray,
    t_end: float,
    on_violation: str = "abort",
    max_halvings: int = 10,
):
    """Step the scheme to t_end, yielding ``(t, u_n, cert)`` for each accepted step.

    Only the last two states are kept between steps; arguments are checked
    at the first step.  A last step that would pass t_end is shortened to
    end there.  A step that tries the same tau as the step before it starts
    Newton from the predictor 2 u_n - u_{n-1}; if Newton fails from there,
    the step is retried once from u_n at that tau.  The other steps (the
    first, a shortened last one, one after a halving) start from u_n.  On
    Newton divergence or an indefinite step matrix from u_n (P/tau grows as
    tau shrinks) the step retries with tau halved (this step only, up to
    ``max_halvings``); the certificate records the tau actually used.
    """
    if t_end <= 0:
        raise ConfigurationError(f"t_end must be positive, got {t_end}")
    if on_violation not in ("abort", "warn"):
        raise ConfigurationError(f"on_violation must be 'abort' or 'warn', got {on_violation}")
    u = check_coeffs(ctx.ops.mesh, u0)
    e_u = energy(ctx, u)  # also rejects initial data without finite energy
    u_back = tau_back = None  # the state before the last accepted step, and its tau

    t = 0.0
    step_idx = 0
    slack = 1e-9 * t_end  # rounding that summing the step sizes leaves in t
    while t < t_end - slack:
        tau_try = cfg.tau if t + cfg.tau <= t_end + slack else t_end - t
        for attempt in range(max_halvings + 1):
            try:
                if tau_try == tau_back:
                    u_new, _, cert = _step_from_predictor(ctx, cfg, u, tau_try, e_u, u_back)
                else:
                    u_new, _, cert = step(ctx, cfg, u, tau=tau_try, e_before=e_u)
                break
            except (NewtonDivergenceError, JacobianSingularError) as exc:
                if attempt == max_halvings:
                    raise type(exc)(
                        f"{exc}; still stalled after {max_halvings} tau halvings "
                        f"(final tau={tau_try:.6g})"
                    ) from exc
                tau_try *= 0.5
        if not cert.satisfied:
            msg = (f"energy certificate violated at step {step_idx + 1} "
                   f"(t={t + cert.tau_used:.6g}): defect {cert.defect:.3e}")
            if on_violation == "abort":
                raise CertificateViolationError(msg)
            warnings.warn(msg)

        t += cert.tau_used
        step_idx += 1
        yield t, u_new, cert
        u_back, u = u, u_new
        tau_back = cert.tau_used
        e_u = cert.e_after


def evolve(
    ctx: EnergyContext,
    cfg: StepConfig,
    u0: np.ndarray,
    t_end: float,
    on_violation: str = "abort",
    max_halvings: int = 10,
) -> Trajectory:
    """Collect ``march`` to t_end in memory; runs that only stream should iterate ``march``."""
    times, states, certs = zip(*march(ctx, cfg, u0, t_end, on_violation, max_halvings))
    return Trajectory(
        times=np.array(times),
        certificates=np.array([_cert_row(c) for c in certs], _CERT_DTYPE).view(np.recarray),
        states=np.array([u0, *states], dtype=float),
    )
