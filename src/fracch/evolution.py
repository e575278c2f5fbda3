"""Semi-implicit convex-splitting time stepper with dissipation certificates.

Each step solves the coupled system

    M (u_n - u_prev) / tau + A_s w_n = 0
    M w_n = A_sigma u_n + b_beta(u_n) - lambda M u_prev.

The first equation gives w_n = -A_s^{-1} M (u_n - u_prev) / tau, and putting
that into the second leaves one equation in u_n alone,

    F(u) = P (u - u_prev) / tau + A_sigma u + b_beta(u) - lambda M u_prev = 0,

with P = M A_s^{-1} M.  Newton solves it until |F(u)|_{M^{-1}} < newton_tol.
Its Jacobian S = P/tau + A_sigma + B'(u), B' the weighted mass of
beta' >= 0, is symmetric positive definite; ``_StepSolver`` solves the
updates.  The monotone part of the nonlinearity is implicit, the expansive
lambda-term is lagged, so testing the two equations with w_n and
u_n - u_prev gives the per-step inequality

    E(u_n) + tau w_n^T A_s w_n + (lambda/2) |u_n - u_prev|_M^2 <= E(u_prev)

up to solver tolerance; ``step`` records its defect in a StepCertificate for
every accepted step, and ``march`` steps a run to t_end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from ._lapack import dpotrf, dpotri, dpotrs, dpttrs, dsymv
from .energy import (
    EnergyContext,
    add_tridiagonal,
    energy,
    energy_from_parts,
    load_vector,
    weighted_mass,
)
from .errors import (
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    NewtonDivergenceError,
)
from .mesh import check_coeffs, linf_norm, tridiagonal_product
from .potentials import yosida_pair


def _checked_positive(name: str, value):
    """value, if it is a finite positive real number (True would pass as 1); else ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value) or value <= 0):
        raise ConfigurationError(f"{name} must be a positive real number, got {value!r}")
    return value


def _check_count(name: str, value) -> None:
    """ConfigurationError unless value is an integer >= 0 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigurationError(f"{name} must be an integer >= 0, got {value!r}")


_CERT_REL_TOL = 1e-9  # a certificate holds when its defect is at most this times max(1, |e_before|)


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

    def __post_init__(self):
        _checked_positive("tau", self.tau)
        _checked_positive("newton_tol", self.newton_tol)
        _check_count("newton_max", self.newton_max)
        if self.use_yosida is not None:
            _checked_positive("use_yosida epsilon", self.use_yosida)


@dataclass(frozen=True)
class StepCertificate:
    """Everything one accepted step records: its dissipation terms and monitors."""

    e_before: float
    e_after: float
    w_normsq: float  # |w_n|_{A_s}^2, which is also |M u_t|_{A_s^{-1}}^2
    du_msq: float  # |u_n - u_prev|_M^2
    defect: float  # e_after + tau w_normsq + (lambda/2) du_msq - e_before
    satisfied: bool
    tau_used: float
    u_xnorm_sigma: float  # |u_n| in the A_sigma energy norm
    u_linf: float  # max |nodal value| of u_n
    newton_iters: int  # Newton updates taken by the accepted attempt
    newton_residual: float  # |F|_{M^{-1}} at the accepted iterate, below newton_tol
    halvings: int  # tau halvings the accepted step took (set by march; step sets 0)
    factorizations: int  # step-matrix factorizations made by the accepted attempt
    pcg_iters: int  # PCG iterations summed over the accepted attempt's updates


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
    if cfg.use_yosida is None:
        return ctx.pot.beta_pair
    return yosida_pair(ctx.pot, cfg.use_yosida)


# Below this dof every Newton update factors its step matrix: one copy of the
# kept P/tau + A_sigma and one dpotrf (an update takes about 24 us at dof 63)
# cost less there than the Python overhead of the PCG iterations that would
# replace them.  Timing march alone with PCG stopped at Newton's tolerance
# (300 steps, tau 1e-3, s = sigma = 1/2 on (-4, 4), one thread pinned to one
# core of a Xeon, runs of 15 and 25 alternating pairs), PCG took 1.18-1.22x
# the time at dof 63, 1.01-1.02x at dof 95, 0.93-0.98x at dof 103 (faster in
# 27 of 40 pairs), and 0.90-0.92x / 0.83-0.87x at dof 111 / 127.  The
# crossover stays here: moving it below 111 would gain a few percent on dofs
# no benchmark config uses and change which path, and so which rounding,
# a dof near it takes
_PCG_MIN_DOF = 112
# PCG that has not converged in this many iterations gives up and the update
# factors afresh, which also moves B'0 to the current B'.  A factorization
# costs about 14 / 55 / 116 iterations at dof 127 / 255 / 511, but the cap is
# a drift guard, not that break-even: an update of the simulate_wide256
# config takes 1 to 5 iterations (3.4 on average, where the relative rule
# alone took 4.3), and at dof 255 no 300-step run at tau 1e-3, 1e-2 or 1e-1
# reached the cap (one factorization each, at most 6 iterations an update)
_PCG_MAX_ITERS = 8
_PCG_RTOL = 1e-10  # relative preconditioned residual at which PCG stops, if not sooner
# PCG also stops once |r|_{M^{-1}} <= _PCG_ETA newton_tol: the next Newton
# residual is that linear residual plus the update's quadratic term, so only
# Newton's own test certifies anything (the forcing term of Dembo, Eisenstat
# & Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J.
# Sci. Comput. 17, 1996).  Against factoring every update, the states of a
# 30-step run at dof 255 moved by up to 1.2e-12 relative at 0.1, past the
# 1e-12 the tests allow, and by 7.0e-13 at 0.05
_PCG_ETA = 0.05


class _StepSolver:
    """Newton updates du = -S^{-1} F of one run, S = P/tau + A_sigma + B'(u).

    P is fixed per operator set and cached there, and B' is tridiagonal, so
    only B' changes between the iterates at one tau; ``march`` keeps one
    solver per run (Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, ch. 5-6).  The first update at a tau forms S,
    factors it in place (Cholesky) and solves with the factor; above
    ``_PCG_MIN_DOF`` it then turns the factor into the upper triangle of
    S0^{-1} in the same buffer and keeps it, with the diagonals of that
    update's B'0.  Later updates at that tau run PCG on S = S0 + (B' - B'0),
    preconditioned by one symmetric matvec with the kept inverse (see
    ``_pcg``).  PCG stops at a relative preconditioned residual of
    ``_PCG_RTOL`` or once its residual r has |r|_{M^{-1}} <= ``tol``, which
    ``step`` sets to ``_PCG_ETA`` times Newton's tolerance, whichever comes
    first; M's pttrf factor, taken from ``ops`` here, applies M^{-1} to r in
    O(n).  PCG that meets p^T S p <= 0 or has not converged within
    ``_PCG_MAX_ITERS`` iterations, and any change of tau (a halving, a
    shortened last step), drop the inverse and factor again.  Below
    ``_PCG_MIN_DOF`` the PCG budget is zero and every update factors
    S = K + B', K = P/tau + A_sigma being kept for the current tau (the same
    bits as forming S whole); at and above it no K is kept.  With
    potential.lambda below the tightest monotone split, beta' < 0 can make
    S indefinite, and its factorization raises JacobianSingularError.
    ``factorizations`` and ``pcg_iters`` count the run's work, which each
    certificate records per step.
    """

    def __init__(self, ops):
        self.ops = ops
        self.budget = _PCG_MAX_ITERS if ops.mesh.dof_count >= _PCG_MIN_DOF else 0
        self.tau = None  # the tau of the kept inverse (below the crossover, of K), None if none
        self.inv = None
        self.Bp0 = None  # the diagonals of the B' that the kept inverse was factored at
        self.K = None  # P/tau + A_sigma, kept below the crossover only
        self.ldl_M = ops._ldl_M  # M = L D L^T, the (d, e) that dpttrs takes
        self.h = ops.mesh.h  # M's eigenvalues are below h
        self.factorizations = 0
        self.pcg_iters = 0

    def delta(self, tau: float, Bp, F: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """The Newton update -S^{-1} F at this tau; Bp is B' as (diag, off).

        PCG, when it runs, may stop once its residual r has |r|_{M^{-1}} <= tol.
        """
        if not self.budget:
            if tau != self.tau:
                self.K = None  # one K at a time
                self.K = self.ops.P / tau
                self.K += self.ops.A_sigma
                self.tau = tau
            S = self.K.copy()
        else:
            if tau == self.tau:
                du = self._pcg(Bp, -F, tol)
                if du is not None:
                    return du
            # drop the old inverse first: one dof x dof step-matrix buffer at a time
            self.tau = self.inv = self.Bp0 = None
            S = self.ops.P / tau
            S += self.ops.A_sigma
        add_tridiagonal(S, *Bp)
        # S.T is S's Fortran-ordered view, so LAPACK factors it in place
        factor, info = dpotrf(S.T, overwrite_a=1, clean=0)
        self.factorizations += 1
        if info > 0:
            raise JacobianSingularError(
                f"step matrix not positive definite at tau={tau} because beta' < 0 somewhere "
                "(potential.lambda below the tightest monotone split)"
            )
        du = dpotrs(factor, -F)[0]
        if self.budget:
            self.inv = dpotri(factor, overwrite_c=1)[0]
            self.tau, self.Bp0 = tau, Bp
        return du

    def _pcg(self, Bp, r: np.ndarray, tol: float):
        """PCG for S x = r from x = 0, overwriting r; None when S must be factored instead.

        S = S0 + D with D = B' - B'0 tridiagonal.  Since S0 z = r for each
        z = S0^{-1} r, S0 p_0 = r_0 and S0 p_{k+1} = r_{k+1} + beta_k S0 p_k,
        so S p is S0 p plus one tridiagonal product, and the preconditioner's
        matvec is an iteration's one dense product (Eisenstat, SIAM J. Sci.
        Stat. Comput. 2, 1981).  This is PCG on inv^{-1} + D, which is S up to
        the rounding of the inverse; Newton's residual F is formed from P and
        A_sigma, so its tolerance still holds.  The preconditioner is applied
        before the first iteration and after each iteration that does not
        stop on |r|_{M^{-1}} <= tol, which is tested first: an iteration that
        stops there makes no dense product, one that stops on the relative
        rule makes one.
        """
        inv, ldl_M = self.inv, self.ldl_M
        D = (Bp[0] - self.Bp0[0], Bp[1] - self.Bp0[1])
        x = np.zeros_like(r)
        p = z = dsymv(1.0, inv, r)  # dsymv reads the upper triangle only
        rz = r @ z
        if rz == 0.0:  # r = 0, as at an exact fixed point
            return x
        S0p = r.copy()  # r is overwritten below
        # M = (h/6) tridiag(1, 4, 1) has eigenvalues below h, so |r|^2 > h tol^2
        # means |r|_{M^{-1}} > tol without a solve with M
        stop, stop_M = _PCG_RTOL**2 * rz, tol * tol
        stop_r = self.h * stop_M
        for _ in range(self.budget):
            q = tridiagonal_product(*D, p)
            q += S0p
            pq = p @ q
            self.pcg_iters += 1
            if not pq > 0.0:  # S is not positive definite along p (or NaN)
                return None
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            if r @ r <= stop_r and r @ dpttrs(*ldl_M, r)[0] <= stop_M:
                return x
            z = dsymv(1.0, inv, r)
            rz_next = r @ z
            if rz_next <= stop:
                return x
            beta = rz_next / rz
            p *= beta  # z was just formed anew, so p does not alias it
            p += z
            S0p *= beta
            S0p += r
            rz = rz_next
        return None


def step(
    ctx: EnergyContext,
    cfg: StepConfig,
    u_prev: np.ndarray,
    tau: float | None = None,
    e_before: float | None = None,
    u_start: np.ndarray | None = None,
    beta_pair=None,
    solver: _StepSolver | None = None,
    products: list | None = None,
):
    """One convex-splitting step; returns (u_n, certificate).

    The step makes no A_s solve and never forms w_n: the certificate's
    w_normsq = |w_n|_{A_s}^2 is du^T P du / tau^2 (du = u_n - u_prev), from
    the P du that the last residual formed.  A caller that wants w_n itself
    forms it as ``w = -ops.solve_M(ops.P @ du) / tau``, since A_s^{-1} M =
    M^{-1} P.  Each iterate evaluates (beta, beta') once on the quadrature
    grid and forms A_sigma u and P du, its two dense products; E(u_n) comes
    from the accepted iterate's grid values and A_sigma u_n, and the other
    certificate terms are O(n) dot products with M du, P du and A_sigma u_n.
    numpy's overflow and invalid-value warnings are off inside the step: an
    overflow shows up as a non-finite residual (NewtonDivergenceError) or as
    a non-finite energy at the accepted iterate (OverflowError).

    ``e_before`` is E(u_prev) when the caller already has it (``march``
    passes the previous step's ``e_after``); it is computed otherwise.
    Newton starts from ``u_start`` if given, else from ``u_prev``; from a
    given start it takes at least one update before the residual test can
    accept an iterate, so the start's residual is only checked to be finite.
    ``beta_pair`` is the run's ``_beta_pair(ctx, cfg)`` and ``solver`` its
    ``_StepSolver`` (``march`` passes one of each per run); without them the
    step builds its own.  An explicit ``tau`` is checked as ``StepConfig.tau``
    is: ConfigurationError unless it is a finite positive real number.

    ``products``, when given, is the list [A_sigma u_start, P (u_start - u_prev)]
    of the start's two dense products (u_start is u_prev when no start is
    given); Newton's iterate 0 takes them instead of forming them.  A
    successful step then sets the list to the accepted iterate's
    [A_sigma u_n, P (u_n - u_prev)], which ``march`` carries to the next
    step's start.  Every later iterate forms both products afresh, so every
    tested residual after an update and every certificate term come from
    fresh products.
    """
    ops = ctx.ops
    mesh = ops.mesh
    u_prev = check_coeffs(mesh, u_prev)
    tau = cfg.tau if tau is None else _checked_positive("tau", tau)
    if beta_pair is None:
        beta_pair = _beta_pair(ctx, cfg)
    if solver is None:
        solver = _StepSolver(ops)
    factorizations, pcg_iters = solver.factorizations, solver.pcg_iters
    lam = ctx.pot.lam
    M, A_sig, P = ops.M, ops.A_sigma, ops.P

    if e_before is None:
        e_before = energy(ctx, u_prev)
    lam_Mu_prev = lam * tridiagonal_product(*M, u_prev)  # the lagged term, fixed over the iterates
    if u_start is None:
        u, min_updates = u_prev.copy(), 0
    else:
        u, min_updates = check_coeffs(mesh, u_start), 1

    # overflow inside an iterate (a huge beta, say) surfaces as a non-finite
    # residual, which is NewtonDivergenceError and so a tau halving in march;
    # at the accepted iterate, as the OverflowError of a non-finite energy
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.newton_max + 1):
            u_q = ctx.values_at_quad(u)  # kept: at the accepted u it gives e_after
            b_q, bp_q = beta_pair(u_q)
            if it or products is None:
                A_sig_u = A_sig @ u  # kept: at the accepted u it gives e_after and u_xnorm_sigma
                P_du = P @ (u - u_prev)  # kept: at the accepted u it gives w_normsq
            else:
                A_sig_u, P_du = products
            F = P_du / tau
            F += A_sig_u
            F += load_vector(ctx, b_q)
            F -= lam_Mu_prev
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
                    f"step Newton stalled at residual {res:.3e} after {cfg.newton_max} "
                    f"iterations (tau={tau})"
                )
            u = u + solver.delta(tau, weighted_mass(ctx, bp_q), F, _PCG_ETA * cfg.newton_tol)

        du = u - u_prev
        u_A_u = float(u @ A_sig_u)
        e_after = energy_from_parts(ctx, u_A_u, u_q)
        # A_s w = -M du / tau, so w^T A_s w = du^T M A_s^{-1} M du / tau^2 = du^T P du / tau^2
        w_normsq = float(du @ P_du) / tau**2
        du_msq = float(du @ tridiagonal_product(*M, du))
        defect = e_after + tau * w_normsq + 0.5 * lam * du_msq - e_before

    tol = _CERT_REL_TOL * max(1.0, abs(e_before))
    cert = StepCertificate(
        e_before=e_before, e_after=e_after, w_normsq=w_normsq, du_msq=du_msq,
        defect=defect, satisfied=defect <= tol, tau_used=tau,
        u_xnorm_sigma=math.sqrt(max(u_A_u, 0.0)), u_linf=linf_norm(mesh, u),
        newton_iters=it, newton_residual=res, halvings=0,
        factorizations=solver.factorizations - factorizations,
        pcg_iters=solver.pcg_iters - pcg_iters,
    )
    if products is not None:
        products[:] = A_sig_u, P_du
    return u, cert


# the ways a step can fail that a smaller tau may cure: a stalled or
# non-finite Newton iteration, an indefinite step matrix, and an accepted
# iterate whose energy overflows
_STEP_FAILURES = (NewtonDivergenceError, JacobianSingularError, OverflowError)
_MAX_HALVINGS = 10  # tau halvings one step may take before its failure is raised


def march(
    ctx: EnergyContext,
    cfg: StepConfig,
    u0: np.ndarray,
    t_end: float,
    on_violation: str = "abort",
):
    """Step the scheme to t_end, yielding ``(t, u_n, cert)`` for each accepted step.

    Only the last two states are kept between steps; arguments are checked
    before the first step (a t_end that is not a finite positive real
    number is a ConfigurationError).  A last step that would pass t_end is
    shortened to end there.  Each step takes its attempts in this order:

    1. An attempt whose tau equals the tau of the last accepted step starts
       Newton from the linear predictor 2 u_n - u_{n-1} (Hairer & Wanner,
       Solving ODEs II, IV.8); any other attempt starts from u_n (so the
       first step, a shortened last step and the step after a halved one
       do).  From the predictor Newton takes at least one update, so the
       returned state always comes out of a Newton update.
    2. A predicted attempt that fails is retried once from u_n at the same
       tau, so the predictor never causes a halving.
    3. An attempt from u_n that fails halves tau, for this step only and up
       to 10 times (``_MAX_HALVINGS``), and the next attempt goes back to 1: a
       halved tau that equals the last accepted tau starts from the
       predictor again.

    An attempt fails on Newton divergence, an indefinite step matrix (P/tau
    grows as tau shrinks) or an accepted iterate whose energy overflows.
    The certificate records the tau actually used and the number of
    halvings.  One ``_beta_pair`` and one ``_StepSolver`` serve the whole
    run, through the predictor retry and the tau halvings, so that a Yosida
    pair's resolvent warm start (see ``potentials``) spans the run.  Each
    attempt gets its start's two dense products from the vectors that the
    accepted steps formed (``step``'s ``products``): a start from u_n takes
    A_sigma u_n and a zero P du, the bits of forming both afresh, and a
    predicted start takes 2 A_sigma u_n - A_sigma u_{n-1} and
    P (u_n - u_{n-1}), equal to its products up to rounding; that start's
    residual is never tested, since its first update is due whatever the
    residual.  A violated certificate raises CertificateViolationError
    ("abort") or is only recorded in the certificate's ``satisfied``
    ("ignore").
    """
    _checked_positive("t_end", t_end)
    if on_violation not in ("abort", "ignore"):
        raise ConfigurationError(f"on_violation must be 'abort' or 'ignore', got {on_violation}")
    u = check_coeffs(ctx.ops.mesh, u0)
    e_u = energy(ctx, u)  # also rejects initial data without finite energy
    u_back = tau_back = None  # the state before the last accepted step, and its tau
    # A_sigma u_n, A_sigma u_{n-1} and P (u_n - u_{n-1}); each accepted step
    # sets them from the products its certificate took
    A_u, A_u_back, P_du = ctx.ops.A_sigma @ u, None, None
    beta_pair = _beta_pair(ctx, cfg)
    solver = _StepSolver(ctx.ops)

    t = 0.0
    step_idx = 0
    slack = 1e-9 * t_end  # rounding that summing the step sizes leaves in t
    while t < t_end - slack:
        tau_try = cfg.tau if t + cfg.tau <= t_end + slack else t_end - t
        halvings = 0
        predict = tau_try == tau_back
        while True:
            # the start's A_sigma u and P (u - u_n), from the carried vectors:
            # u_start - u_n = u_n - u_{n-1} for the predictor, 0 from u_n
            products = [2.0 * A_u - A_u_back, P_du] if predict else [A_u, np.zeros_like(u)]
            try:
                u_new, cert = step(ctx, cfg, u, tau=tau_try, e_before=e_u,
                                   u_start=2.0 * u - u_back if predict else None,
                                   beta_pair=beta_pair, solver=solver, products=products)
                break
            except _STEP_FAILURES as exc:
                if predict:  # retried once from u at this tau
                    predict = False
                    continue
                if halvings == _MAX_HALVINGS:
                    raise type(exc)(
                        f"{exc}; still stalled after {_MAX_HALVINGS} tau halvings "
                        f"(final tau={tau_try:.6g})"
                    ) from exc
                tau_try *= 0.5
                halvings += 1
                predict = tau_try == tau_back
        if halvings:
            cert = replace(cert, halvings=halvings)
        if not cert.satisfied and on_violation == "abort":
            raise CertificateViolationError(
                f"energy certificate violated at step {step_idx + 1} "
                f"(t={t + cert.tau_used:.6g}): defect {cert.defect:.3e}")

        t += cert.tau_used
        step_idx += 1
        yield t, u_new, cert
        u_back, u = u, u_new
        A_u_back, (A_u, P_du) = A_u, products
        tau_back = cert.tau_used
        e_u = cert.e_after


def evolve(
    ctx: EnergyContext,
    cfg: StepConfig,
    u0: np.ndarray,
    t_end: float,
    on_violation: str = "abort",
) -> Trajectory:
    """Collect ``march`` to t_end in memory; runs that only stream should iterate ``march``."""
    times, states, certs = zip(*march(ctx, cfg, u0, t_end, on_violation))
    return Trajectory(
        times=np.array(times),
        certificates=np.array([_cert_row(c) for c in certs], _CERT_DTYPE).view(np.recarray),
        states=np.array([u0, *states], dtype=float),
    )
