import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracch import evolution, operators, potentials
from fracch.energy import (
    EnergyContext,
    add_tridiagonal,
    energy,
    energy_from_parts,
    load_vector,
    weighted_mass,
)
from fracch.errors import (
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    NewtonDivergenceError,
)
from fracch.evolution import StepConfig, _beta_pair, _StepSolver, evolve, march, step
from fracch.equilibrium import default_equilibrium_seed, solve_stationary
from fracch.mesh import FracMesh, interpolate
from fracch.operators import FracExponents, OperatorSet, build_operator_set, xnorm
from fracch.potentials import Potential, custom_potential, double_well, yosida_apply


def test_step_config_validation():
    with pytest.raises(ConfigurationError):
        StepConfig(tau=0.0)
    with pytest.raises(ConfigurationError):
        StepConfig(tau=1e-2, newton_tol=0.0)
    with pytest.raises(ConfigurationError, match="newton_max"):
        StepConfig(tau=1e-3, newton_max=-1)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-10])
def test_step_config_rejects_newton_tol(value):
    with pytest.raises(ConfigurationError, match="newton_tol"):
        StepConfig(tau=1e-3, newton_tol=value)


@pytest.mark.parametrize("value", [0.0, -1e-2, math.nan, math.inf])
def test_step_config_rejects_use_yosida(value):
    # rejected when the config is built, not at the first step
    with pytest.raises(ConfigurationError, match="epsilon"):
        StepConfig(tau=1e-3, use_yosida=value)


@pytest.mark.parametrize("value", [2.5, True, "3", None])
def test_step_config_rejects_newton_max(value):
    with pytest.raises(ConfigurationError, match="newton_max"):
        StepConfig(tau=1e-3, newton_max=value)
    assert StepConfig(tau=1e-3, newton_max=np.int64(3)).newton_max == 3


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("name", ["tau", "newton_tol", "use_yosida"])
def test_step_config_rejects_bools_for_real_fields(name, value):
    # True would otherwise pass as 1: StepConfig(tau=True) stepped with tau = 1
    with pytest.raises(ConfigurationError, match=name):
        StepConfig(**{"tau": 1e-3, name: value})


@pytest.mark.parametrize("tau", [0.0, math.nan, -1e-3, True])
def test_step_rejects_an_explicit_tau_as_step_config_does(ctx64, tau):
    # unchecked, 0 and NaN read as a non-finite residual, -1e-3 as beta' < 0
    # and True as tau = 1
    u0 = np.zeros(ctx64.ops.mesh.dof_count)
    with pytest.raises(ConfigurationError, match="tau"):
        step(ctx64, StepConfig(tau=1e-2), u0, tau=tau)
    with pytest.raises(ConfigurationError, match="tau"):
        StepConfig(tau=tau)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0, True, "1"])
def test_march_and_evolve_reject_t_end_before_the_first_step(ctx64, monkeypatch, t_end):
    # NaN and inf used to take no step, and evolve then failed to unpack
    # nothing; True ran to t = 1 and "1" raised a bare TypeError
    monkeypatch.setattr(evolution, "step", None)  # no step may be taken
    u0 = np.zeros(ctx64.ops.mesh.dof_count)
    with pytest.raises(ConfigurationError, match="t_end"):
        next(march(ctx64, StepConfig(tau=1e-2), u0, t_end))
    with pytest.raises(ConfigurationError, match="t_end"):
        evolve(ctx64, StepConfig(tau=1e-2), u0, t_end)


def test_zero_is_exact_fixed_point(ctx64):
    ops = ctx64.ops
    u0 = np.zeros(ops.mesh.dof_count)
    u1, cert = step(ctx64, StepConfig(tau=1e-2), u0)
    w1 = -ops.solve_M(ops.P @ (u1 - u0)) / 1e-2
    assert np.all(u1 == 0.0)
    assert np.all(w1 == 0.0)
    assert cert.defect == 0.0 and cert.satisfied


def test_stationary_state_is_preserved(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-12)
    cfg = StepConfig(tau=1e-4)
    u, cert = step(ctx64_wide, cfg, rep.phi)
    M = add_tridiagonal(np.zeros_like(ctx64_wide.ops.A_sigma), *ctx64_wide.ops.M)
    w = -ctx64_wide.ops.solve_M(ctx64_wide.ops.P @ (u - rep.phi)) / cfg.tau
    drift = math.sqrt((u - rep.phi) @ M @ (u - rep.phi))
    assert drift <= 10 * cfg.newton_tol
    assert xnorm(ctx64_wide.ops.A_s, w) <= 10 * cfg.newton_tol


@pytest.mark.parametrize("tau", [1e-1, 1e-2, 1e-3])
def test_certificates_from_random_data(ctx64, rng, tau):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=tau), u0, t_end=50 * tau)
    assert all(c.satisfied for c in traj.certificates)
    tol = 1e-9 * np.maximum(1.0, np.abs([c.e_before for c in traj.certificates]))
    assert np.all(traj.certificates.defect <= tol)
    assert np.all(traj.certificates.newton_residual < StepConfig(tau=tau).newton_tol)


def test_flux_identity_along_run(ctx64, rng):
    u0 = 0.5 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.3)
    ops = ctx64.ops
    M = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)
    certs = traj.certificates
    w_xnorms = np.sqrt(certs.w_normsq)
    # |M u_t|_{A_s^{-1}} from the states, not from w
    duals = np.array([ops.dual_norm_s(M @ du / cert.tau_used)
                      for du, cert in zip(np.diff(traj.states, axis=0), certs)])
    rel = np.abs(duals - w_xnorms) / w_xnorms
    assert np.max(rel) < 1e-8
    # each recorded monitor against its dense quadratic form of the states
    for u, du, cert in zip(traj.states[1:], np.diff(traj.states, axis=0), certs):
        w = -np.linalg.solve(ops.A_s, M @ du / cert.tau_used)
        assert cert.du_msq == pytest.approx(du @ M @ du, rel=1e-12, abs=0)
        assert cert.w_normsq == pytest.approx(w @ ops.A_s @ w, rel=1e-12, abs=0)
        assert cert.u_xnorm_sigma == pytest.approx(xnorm(ops.A_sigma, u), rel=1e-12, abs=0)


def test_zero_initial_data_trajectory(ctx64):
    traj = evolve(ctx64, StepConfig(tau=1e-2), np.zeros(ctx64.ops.mesh.dof_count), t_end=0.2)
    assert np.all(traj.certificates.e_after == 0.0)
    assert all(c.satisfied for c in traj.certificates)


def test_settles_to_equilibrium(ctx64):
    mesh = ctx64.ops.mesh
    u0 = 0.1 * interpolate(mesh, lambda x: np.sin(np.pi * x))
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=10.0)
    assert np.all(np.diff(traj.certificates.e_after) <= 1e-9)
    assert math.sqrt(traj.certificates.w_normsq[-1]) < 1e-6


def test_linf_stays_bounded_from_large_data(ctx64, rng):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    u0 *= 5.0 / np.max(np.abs(u0))
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=2.0)
    assert np.all(np.isfinite(traj.certificates.u_linf))
    late = traj.certificates.u_linf[traj.times >= 1.0]
    assert np.max(late) <= 1.5  # mesh-dependent constant; wells sit at +-1


def test_mass_not_conserved(ctx64):
    mesh = ctx64.ops.mesh
    u0 = interpolate(mesh, lambda x: 0.3 * np.sin(np.pi * x) + 0.2 * np.exp(-8 * (x - 0.3) ** 2))
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.5)
    ones = np.ones(mesh.dof_count)
    M = add_tridiagonal(np.zeros_like(ctx64.ops.A_sigma), *ctx64.ops.M)
    m0 = ones @ M @ np.asarray(traj.states[0])
    m1 = ones @ M @ np.asarray(traj.states[-1])
    assert abs(m1 - m0) > 1e-3 * abs(m0)


def test_defect_scaling_with_tau(ctx64):
    mesh = ctx64.ops.mesh
    u0 = 0.5 * interpolate(mesh, lambda x: np.sin(np.pi * x))
    maxima = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        traj = evolve(ctx64, StepConfig(tau=tau), u0, t_end=0.5)
        maxima.append(np.abs(traj.certificates.defect).max())
    for k in range(2):
        assert 0.4 <= maxima[k + 1] / maxima[k] <= 0.6


def test_defect_loglog_slope_sigma_above_s():
    ops = build_operator_set(FracMesh(-1, 1, 64), FracExponents(0.25, 0.75))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    u0 = 0.5 * interpolate(ops.mesh, lambda x: np.sin(np.pi * x))
    pts = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        traj = evolve(ctx, StepConfig(tau=tau), u0, t_end=0.5)
        pts.append((math.log(tau), math.log(np.abs(traj.certificates.defect).max())))
    slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
    assert 0.7 <= slope <= 1.3


def test_stationary_trajectory_defects_below_tolerance(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-12)
    traj = evolve(ctx64_wide, StepConfig(tau=1e-3), rep.phi, t_end=0.05)
    assert np.all(np.abs(traj.certificates.defect) < 1e-9)


def test_divergence_fallback_halves_tau(ctx64, rng):
    # a tight iteration budget forces halvings on the rough first step only
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=10.0, newton_max=4)
    traj = evolve(ctx64, cfg, u0, t_end=20.0)
    taus = [c.tau_used for c in traj.certificates]
    assert taus[0] < 10.0  # first step needed halving
    assert taus[1] == 10.0  # later steps succeed at the nominal tau
    halvings = traj.certificates.halvings
    assert halvings.dtype == np.int64
    assert taus[0] == 10.0 / 2 ** halvings[0]
    assert not halvings[1:].any()
    assert traj.times[-1] == pytest.approx(20.0)  # the last step is clamped to t_end
    assert all(c.satisfied for c in traj.certificates)


def test_certificate_violation_paths(ctx64, monkeypatch):
    mesh = ctx64.ops.mesh
    u0 = 1e-3 * interpolate(mesh, lambda x: np.sin(np.pi * x))
    cfg = StepConfig(tau=1e-3)
    # each step's e_after reads one unit higher than the one before it (the
    # first one unit high), so every step's e_after exceeds its e_before by
    # about 1 and no certificate holds
    offset = itertools.count(1)
    monkeypatch.setattr(evolution, "energy_from_parts",
                        lambda ctx, quad_form, vals: energy_from_parts(ctx, quad_form, vals)
                        + next(offset))
    with pytest.raises(CertificateViolationError):
        evolve(ctx64, cfg, u0, t_end=0.01)
    # "ignore" records each violation in the certificate, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(ctx64, cfg, u0, t_end=0.01, on_violation="ignore")
    assert len(traj.certificates) == 10 and not traj.certificates.satisfied.any()
    with pytest.raises(ConfigurationError, match="on_violation"):
        evolve(ctx64, cfg, u0, t_end=0.01, on_violation="warn")


def test_yosida_stepping_runs(ctx64, rng):
    u0 = 0.1 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2, use_yosida=1e-3)
    traj = evolve(ctx64, cfg, u0, t_end=0.1, on_violation="ignore")
    assert np.all(np.isfinite(traj.certificates.e_after))
    # regularization error is O(epsilon); defects must stay comparably small
    assert np.max(traj.certificates.defect) < 1e-3


def test_smoothing_monitor_bounded(ctx64, rng):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=2e-3), u0, t_end=1.2)
    for t0 in (0.1, 0.2, 0.5, 1.0):
        sup = np.max(traj.certificates.w_normsq[traj.times >= t0])
        assert np.isfinite(t0 * sup)


def test_beta_l2_bounded_per_unit_window(ctx64, rng):
    # the quadrature L2 norm of beta(u) must not grow from window to window
    import math

    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=3.0)
    w, _, _ = ctx64.quad_data
    pot = ctx64.pot
    windows = []
    for k in range(3):
        sel = [u for t, u in zip([0.0, *traj.times], traj.states) if k <= t < k + 1]
        vals = [
            math.sqrt(float((pot.beta_pair(ctx64.values_at_quad(np.asarray(u)))[0] ** 2 @ w).sum()))
            for u in sel
        ]
        windows.append(max(vals))
    assert windows[1] <= windows[0] + 1e-9
    assert windows[2] <= windows[0] + 1e-9


def test_energy_matches_certificates(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.1)
    assert traj.certificates[0].e_before == pytest.approx(energy(ctx64, u0), rel=1e-14)


@pytest.mark.parametrize("tau", [1e-3, 1.0])
@pytest.mark.parametrize("exps", [(0.3, 0.7), (0.5, 0.5)])
@pytest.mark.parametrize("yosida", [None, 1e-2])
def test_spd_update_matches_block_solve(exps, yosida, tau, rng):
    ops = build_operator_set(FracMesh(-4, 4, 64), FracExponents(*exps))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    dof = ops.mesh.dof_count
    u, r1, r2 = rng.standard_normal((3, dof))
    _, bp_q = _beta_pair(ctx, StepConfig(tau=tau, use_yosida=yosida))(ctx.values_at_quad(u))
    Bp = weighted_mass(ctx, bp_q)
    # reference: the exact Jacobian of the coupled system, solved as one 2n x 2n block
    B_dense = add_tridiagonal(np.zeros((dof, dof)), *Bp)
    M = add_tridiagonal(np.zeros((dof, dof)), *ops.M)
    jac = np.block([[M / tau, ops.A_s], [-(ops.A_sigma + B_dense), M]])
    ref = np.linalg.solve(jac, -np.concatenate([r1, r2]))
    # eliminating dw from the block system leaves S du = -(M A_s^{-1} r1 - r2)
    du = _StepSolver(ops).delta(tau, Bp, M @ np.linalg.solve(ops.A_s, r1) - r2)
    assert np.linalg.norm(du - ref[:dof]) <= 1e-10 * np.linalg.norm(ref[:dof])


@pytest.mark.parametrize("tau", [1e-3, 1.0])
@pytest.mark.parametrize("exps", [(0.3, 0.7), (0.5, 0.5)])
@pytest.mark.parametrize("yosida", [None, 1e-2])
def test_step_solves_both_coupled_equations(exps, yosida, tau, rng):
    ops = build_operator_set(FracMesh(-4, 4, 64), FracExponents(*exps))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    cfg = StepConfig(tau=tau, use_yosida=yosida)
    u_prev = 0.25 * rng.standard_normal(ops.mesh.dof_count)
    u, cert = step(ctx, cfg, u_prev)

    def m_inv_norm(r):
        return math.sqrt(r @ ops.solve_M(r))

    b_q, _ = _beta_pair(ctx, cfg)(ctx.values_at_quad(u))
    M = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)
    flux = M @ (u - u_prev) / tau
    w = -ops.solve_M(ops.P @ (u - u_prev)) / tau  # the step's w_n, which step does not return
    first = flux + ops.A_s @ w
    second = M @ w - ops.A_sigma @ u - load_vector(ctx, b_q) + ctx.pot.lam * M @ u_prev
    assert m_inv_norm(first) <= 1e-12 * m_inv_norm(flux)
    assert cert.w_normsq == pytest.approx(w @ ops.A_s @ w, rel=1e-12)  # the step's |w_n|_As^2
    assert m_inv_norm(second) <= 10 * cfg.newton_tol


def test_yosida_pair_is_yosida_apply_and_its_derivative():
    ops = build_operator_set(FracMesh(-1, 1, 8), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    eps = 1e-2
    pair = _beta_pair(ctx, StepConfig(tau=1e-3, use_yosida=eps))
    half = np.linspace(0.05, 6.0, 120)
    r = np.concatenate([-half[::-1], half]).reshape(8, 30)  # a quadrature-grid shape
    beta_eps, beta_eps_prime = pair(r)
    assert np.array_equal(beta_eps, yosida_apply(ctx.pot, eps, r)[0])
    h = 1e-5 * (1.0 + np.abs(r))
    fd = (yosida_apply(ctx.pot, eps, r + h)[0] - yosida_apply(ctx.pot, eps, r - h)[0]) / (2.0 * h)
    assert np.all(np.abs(beta_eps_prime - fd) <= 1e-6 * np.abs(fd))


def test_yosida_step_solves_one_resolvent_per_iterate(ctx64, rng, monkeypatch):
    calls = {"resolvent": 0, "updates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(potentials, "yosida_apply",
                        counted("resolvent", potentials.yosida_apply))
    monkeypatch.setattr(evolution, "weighted_mass", counted("updates", evolution.weighted_mass))
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    step(ctx64, StepConfig(tau=1e-2, use_yosida=1e-2), u0, e_before=0.0)
    assert calls["updates"] >= 2
    assert calls["resolvent"] == calls["updates"] + 1


@pytest.mark.parametrize("yosida", [None, 1e-2])
def test_step_reuses_the_accepted_iterate_for_its_energy(ctx64_wide, rng, monkeypatch, yosida):
    calls = {"quad": 0, "energy": 0, "updates": 0}
    values_at_quad = EnergyContext.values_at_quad

    def quad(self, v):
        calls["quad"] += 1
        return values_at_quad(self, v)

    def counted_energy(ctx, v):
        calls["energy"] += 1
        return energy(ctx, v)

    def counted_mass(ctx, fvals):
        calls["updates"] += 1
        return weighted_mass(ctx, fvals)

    monkeypatch.setattr(EnergyContext, "values_at_quad", quad)
    monkeypatch.setattr(evolution, "energy", counted_energy)
    monkeypatch.setattr(evolution, "weighted_mass", counted_mass)
    u_prev = 0.5 * rng.standard_normal(ctx64_wide.ops.mesh.dof_count)
    e_before = energy(ctx64_wide, u_prev)
    calls["quad"] = 0
    u, cert = step(ctx64_wide, StepConfig(tau=1e-2, use_yosida=yosida), u_prev,
                   e_before=e_before)
    # one grid evaluation per iterate, the accepted one included, and no energy() call
    assert calls["updates"] == cert.newton_iters >= 2
    assert calls["quad"] == cert.newton_iters + 1
    assert calls["energy"] == 0
    monkeypatch.undo()
    assert cert.e_after == pytest.approx(energy(ctx64_wide, u), rel=1e-14, abs=0.0)
    assert cert.u_xnorm_sigma == pytest.approx(xnorm(ctx64_wide.ops.A_sigma, u), rel=1e-14)


def test_energy_overflow_at_the_accepted_iterate_is_silent(ctx64, monkeypatch):
    # a primitive that overflows only where the step ends: numpy's warnings are
    # off inside the step, and the energy check reports it as OverflowError
    monkeypatch.setattr(evolution, "energy_from_parts",
                        lambda ctx, quad_form, vals: energy_from_parts(ctx, quad_form, vals * 1e300))
    u0 = 1e-3 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    with pytest.raises(OverflowError, match="potential overflow"):
        step(ctx64, StepConfig(tau=1e-3), u0)


def test_non_finite_residual_is_divergence(ctx64, rng, nan_from_first_update, monkeypatch):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    with pytest.raises(NewtonDivergenceError, match="not finite after 1 iterations"):
        step(ctx64, StepConfig(tau=1e-2), u0)
    # march treats it like any stall: halve tau, then give up
    monkeypatch.setattr(evolution, "_MAX_HALVINGS", 2)
    with pytest.raises(NewtonDivergenceError, match="still stalled after 2 tau halvings"):
        evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.1)


def test_lambda_below_split_is_singular_step(ctx64_wide, rng, monkeypatch):
    # double-well g with lambda 0: beta' = g' = 3 r^2 - 1 < 0 near r = 0
    pot = custom_potential(
        lambda r: r**3 - r, lambda r: 3.0 * r**2 - 1.0, lambda r: 0.25 * r**4 - 0.5 * r**2,
        lam=0.0, check=False,
    )
    ctx = EnergyContext(ops=ctx64_wide.ops, pot=pot)
    u0 = 0.25 * rng.standard_normal(ctx.ops.mesh.dof_count)
    with pytest.raises(JacobianSingularError, match="not positive definite.*lambda below"):
        step(ctx, StepConfig(tau=10.0), u0)
    # march halves tau for it, since P/tau grows; without halvings the error stands
    monkeypatch.setattr(evolution, "_MAX_HALVINGS", 0)
    with pytest.raises(JacobianSingularError, match="still stalled after 0 tau halvings"):
        evolve(ctx, StepConfig(tau=10.0), u0, t_end=20.0)
    monkeypatch.undo()
    first = next(march(ctx, StepConfig(tau=10.0), u0, t_end=20.0))
    assert first[2].tau_used == 5.0 and first[2].halvings == 1
    assert step(ctx, StepConfig(tau=5.0), u0)[1].halvings == 0


def test_energy_chains_between_steps(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.2)
    certs = traj.certificates
    assert certs[0].e_before == energy(ctx64, u0)
    for prev, cur in zip(certs, certs[1:]):
        assert cur.e_before == prev.e_after


def test_stall_after_halvings_reports_them(ctx64, rng, monkeypatch):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2, newton_tol=1e-300, newton_max=1)
    monkeypatch.setattr(evolution, "_MAX_HALVINGS", 2)
    with pytest.raises(NewtonDivergenceError) as info:
        evolve(ctx64, cfg, u0, t_end=0.1)
    msg = str(info.value)
    assert "still stalled after 2 tau halvings (final tau=0.0025)" in msg
    assert "consider halving" not in msg


def test_last_step_clamped_to_t_end(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=0.1), u0, t_end=0.25)
    assert [c.tau_used for c in traj.certificates][:2] == [0.1, 0.1]
    assert len(traj.certificates) == 3
    assert traj.certificates[-1].tau_used == pytest.approx(0.05)
    assert traj.times[-1] == 0.25
    assert len(traj.states) == 4


@pytest.mark.parametrize("tau, t_end", [(1e-3, 0.3), (1e-3, 2.0), (1e-2, 0.2), (0.1, 0.3)])
def test_t_end_multiple_of_tau_keeps_every_step_full(tau, t_end):
    # summing tau leaves t a few ulps off t_end; no step may be clamped for that
    ops = build_operator_set(FracMesh(-1.0, 1.0, 4), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    traj = evolve(ctx, StepConfig(tau=tau), np.zeros(3), t_end=t_end)
    assert len(traj.certificates) == round(t_end / tau)
    assert all(c.tau_used == tau for c in traj.certificates)


def test_march_is_lazy(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2)
    steps = list(itertools.islice(march(ctx64, cfg, u0, t_end=1e9), 3))
    assert len(steps) == 3
    assert [cert.tau_used for _, _, cert in steps] == [1e-2] * 3
    # each yield carries the state after its step
    u1, cert1 = step(ctx64, cfg, u0)
    assert np.array_equal(steps[0][1], u1) and steps[0][2] == cert1
    # the second step starts Newton from the predictor 2 u1 - u0, with the
    # start's products formed from those of u1 and u0
    A, P = ctx64.ops.A_sigma, ctx64.ops.P
    products = [2.0 * (A @ u1) - A @ u0, P @ (u1 - u0)]
    u2 = step(ctx64, cfg, u1, u_start=2 * u1 - u0, products=products)[0]
    assert np.array_equal(steps[1][1], u2)


def test_evolve_collects_march(ctx64, rng):
    dof = ctx64.ops.mesh.dof_count
    u0 = 0.3 * rng.standard_normal(dof)
    cfg = StepConfig(tau=0.1)
    traj = evolve(ctx64, cfg, u0, t_end=0.25)
    steps = list(march(ctx64, cfg, u0, t_end=0.25))
    assert list(traj.times) == [t for t, _, _ in steps]
    for name in traj.certificates.dtype.names:
        assert list(traj.certificates[name]) == [getattr(c, name) for _, _, c in steps], name
    assert traj.states.shape == (len(traj.times) + 1, dof)
    assert np.array_equal(traj.states[0], u0)
    for row, (_, u, _) in zip(traj.states[1:], steps):
        assert np.array_equal(row, u)


def _step_chain(ctx, cfg, u0, n):
    """n plain ``step`` calls, each starting Newton from the previous state."""
    chain = []
    u = u0
    for _ in range(n):
        u, cert = step(ctx, cfg, u)
        chain.append((u, cert))
    return chain


@pytest.mark.parametrize("yosida", [None, 1e-2])
def test_predicted_start_keeps_the_states_and_saves_updates(ctx64, yosida):
    u0 = 0.1 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    cfg = StepConfig(tau=1e-3, use_yosida=yosida)
    marched = list(itertools.islice(march(ctx64, cfg, u0, t_end=1e9), 50))
    chain = _step_chain(ctx64, cfg, u0, 50)
    for (_, u, _), (u_ref, _) in zip(marched, chain):
        assert np.linalg.norm(u - u_ref) <= 1e-9 * np.linalg.norm(u_ref)
    marched_iters = sum(cert.newton_iters for _, _, cert in marched)
    assert marched_iters < sum(cert.newton_iters for _, cert in chain)


def test_start_meeting_tolerance_still_takes_one_update(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2)
    u1, cert1 = step(ctx64, cfg, u0)
    assert cert1.newton_iters >= 2
    u, cert = step(ctx64, cfg, u0, u_start=u1)
    assert cert.newton_iters == 1
    assert np.linalg.norm(u - u1) <= 1e-9 * np.linalg.norm(u1)


def test_given_start_skips_the_first_residual_solve(ctx64, rng, monkeypatch):
    # the first update from a given start is due whatever the residual, so
    # only the residuals after an update cost an M solve
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2)
    u1, _ = step(ctx64, cfg, u0)
    solves = []
    solve_M = OperatorSet.solve_M
    monkeypatch.setattr(OperatorSet, "solve_M", lambda ops, f: solves.append(f) or solve_M(ops, f))
    _, cert = step(ctx64, cfg, u0)
    assert len(solves) == cert.newton_iters + 1
    solves.clear()
    _, cert = step(ctx64, cfg, u0, u_start=2.0 * u1 - u0)
    assert len(solves) == cert.newton_iters
    # with no update allowed, the stall message still reports the residual
    with pytest.raises(NewtonDivergenceError, match=r"stalled at residual \d.*after 0 iterations"):
        step(ctx64, StepConfig(tau=1e-2, newton_max=0), u0, u_start=u1)


def test_non_finite_residual_at_a_given_start_is_divergence(ctx64, rng, monkeypatch):
    monkeypatch.setattr(
        evolution, "_beta_pair", lambda ctx, cfg: lambda r: (np.full_like(r, np.nan), np.ones_like(r))
    )
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    with pytest.raises(NewtonDivergenceError, match="not finite after 0 iterations"):
        step(ctx64, StepConfig(tau=1e-2), u0, u_start=u0)


@pytest.mark.parametrize("error", [NewtonDivergenceError, JacobianSingularError])
def test_failed_predicted_start_retries_from_u_before_halving(ctx64, rng, monkeypatch, error):
    plain_step = evolution.step
    starts = []

    def fails_from_a_start(*args, u_start=None, **kwargs):
        if u_start is not None:
            starts.append(u_start)
            raise error("no convergence from the predicted start")
        return plain_step(*args, **kwargs)

    monkeypatch.setattr(evolution, "step", fails_from_a_start)
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2)
    monkeypatch.setattr(evolution, "_MAX_HALVINGS", 0)
    marched = list(itertools.islice(march(ctx64, cfg, u0, t_end=1e9), 20))
    assert len(starts) == 19  # every step after the first tried the predictor
    assert [cert.tau_used for _, _, cert in marched] == [1e-2] * 20
    monkeypatch.undo()
    for (_, u, _), (u_ref, _) in zip(marched, _step_chain(ctx64, cfg, u0, 20)):
        assert np.array_equal(u, u_ref)


def test_predictor_only_across_equal_steps(ctx64, rng, monkeypatch):
    plain_step = evolution.step
    predicted = []

    def spy(*args, u_start=None, **kwargs):
        predicted.append(u_start is not None)
        return plain_step(*args, u_start=u_start, **kwargs)

    monkeypatch.setattr(evolution, "step", spy)
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    list(march(ctx64, StepConfig(tau=0.1), 0.3 * u0, t_end=0.25))
    assert predicted == [False, True, False]  # the first and the shortened last step
    predicted.clear()
    # the halvings of the first step, and the full step after them
    traj = evolve(ctx64, StepConfig(tau=10.0, newton_max=4), u0, t_end=20.0)
    assert traj.certificates.tau_used[0] < traj.certificates.tau_used[1] == 10.0
    assert not any(predicted)


def test_halved_attempt_predicts_when_it_matches_the_last_tau(ctx64, rng, monkeypatch):
    # step 1 is accepted at tau/2 after a halving; step 2 fails at tau, so its
    # halved attempt has the last accepted tau and starts from the predictor,
    # and when that fails it is retried from u_n at tau/2 before any further
    # halving
    plain_step = evolution.step
    calls = []

    def spy(*args, tau=None, u_start=None, **kwargs):
        calls.append((tau, u_start is None))
        if len(calls) in (1, 3, 4):
            raise NewtonDivergenceError("scripted failure")
        return plain_step(*args, tau=tau, u_start=u_start, **kwargs)

    monkeypatch.setattr(evolution, "step", spy)
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    tau = 1e-2
    certs = [c for _, _, c in itertools.islice(march(ctx64, StepConfig(tau=tau), u0, t_end=1e9), 4)]
    assert calls == [
        (tau, True), (tau / 2, True),  # step 1: fails at tau, accepted at tau/2
        (tau, True), (tau / 2, False), (tau / 2, True),  # step 2
        (tau, True),  # step 3: tau differs from step 2's, so no predictor
        (tau, False),  # step 4
    ]
    assert [c.halvings for c in certs] == [1, 1, 0, 0]
    assert [c.tau_used for c in certs] == [tau / 2, tau / 2, tau, tau]


def _count_beta_calls(monkeypatch):
    calls = []
    beta_pair = Potential.beta_pair  # the resolvent's one (beta, beta') evaluation per point
    monkeypatch.setattr(Potential, "beta_pair",
                        lambda self, r: calls.append(r) or beta_pair(self, r))
    return calls


def _newton_cubic(ctx):
    """ctx with double_well(4.0)'s beta but not its closed-form resolvent.

    The resolvent memory only serves the Newton path, so the tests of it
    march this context.
    """
    pot = custom_potential(lambda r: np.abs(r) ** 2.0 * r - r,
                           lambda r: 3.0 * np.abs(r) ** 2.0 - 1.0,
                           double_well(4.0).g_hat, lam=1.0, check=False)
    return EnergyContext(ops=ctx.ops, pot=pot)


def test_warm_resolvent_halves_the_beta_evaluations(ctx64, rng, monkeypatch):
    ctx = _newton_cubic(ctx64)
    u0 = rng.standard_normal(ctx.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-3, use_yosida=1e-2)
    calls = _count_beta_calls(monkeypatch)
    warm = list(itertools.islice(march(ctx, cfg, u0, t_end=1e9), 200))
    n_warm = len(calls)
    # the same steps with every resolvent solve started cold, at y = r
    monkeypatch.setattr(potentials, "yosida_apply",
                        lambda pot, eps, r, start=None: yosida_apply(pot, eps, r))
    calls.clear()
    cold = list(itertools.islice(march(ctx, cfg, u0, t_end=1e9), 200))
    assert n_warm <= 0.6 * len(calls)
    assert sum(c.newton_iters for _, _, c in warm) <= sum(c.newton_iters for _, _, c in cold)
    for (_, u, _), (_, u_cold, _) in zip(warm, cold):
        assert np.linalg.norm(u - u_cold) <= 1e-9 * np.linalg.norm(u_cold)


def test_marches_keep_no_state_between_runs(ctx64, ctx64_wide, rng):
    ctx, ctx_wide = _newton_cubic(ctx64), _newton_cubic(ctx64_wide)
    u0 = 0.5 * rng.standard_normal(ctx.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-3, use_yosida=1e-2)
    alone = [u for _, u, _ in itertools.islice(march(ctx, cfg, u0, t_end=1e9), 30)]
    runs = [march(ctx, cfg, u0, t_end=1e9), march(ctx_wide, cfg, 2.0 * u0, t_end=1e9),
            march(ctx, cfg, u0, t_end=1e9)]
    interleaved = [[next(run)[1] for run in runs] for _ in range(30)]
    for u, (first, _, second) in zip(alone, interleaved):
        assert u.tobytes() == first.tobytes() == second.tobytes()


def test_warm_resolvent_through_retry_and_halving(ctx64, rng, monkeypatch, nan_beta_poison):
    # two NaN beta evaluations make the predicted start of step 6 and its
    # retry from u fail, so march halves tau for that step; the run's
    # resolvent memory goes through all of it
    poison = nan_beta_poison
    ctx = _newton_cubic(ctx64)
    u0 = 0.3 * rng.standard_normal(ctx.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2, use_yosida=1e-2)
    run = march(ctx, cfg, u0, t_end=1e9)
    marched = [next(run) for _ in range(5)]
    poison["left"] = 2
    marched += [next(run) for _ in range(10)]
    assert poison["left"] == 0
    certs = [cert for _, _, cert in marched]
    assert [c.halvings for c in certs] == [0] * 5 + [1] + [0] * 9
    assert [c.tau_used for c in certs] == [1e-2] * 5 + [5e-3] + [1e-2] * 9
    monkeypatch.undo()
    u = u0
    for (_, u_marched, cert) in marched:
        u = step(ctx, cfg, u, tau=cert.tau_used)[0]  # cold: own pair, from u_prev
        assert np.linalg.norm(u_marched - u) <= 1e-9 * np.linalg.norm(u)


def test_energy_overflow_clears_after_one_halving(ctx64, monkeypatch):
    # the accepted iterate's energy overflows at the first tau only: march
    # halves tau for it as for a stall, where step alone raises
    calls = []

    def overflow_once(ctx, quad_form, vals):
        calls.append(quad_form)
        return energy_from_parts(ctx, quad_form, vals * (1e300 if len(calls) == 1 else 1.0))

    monkeypatch.setattr(evolution, "energy_from_parts", overflow_once)
    u0 = 1e-3 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    certs = [cert for _, _, cert in itertools.islice(march(ctx64, StepConfig(tau=1e-3), u0, 1.0), 3)]
    assert [c.halvings for c in certs] == [1, 0, 0]
    assert [c.tau_used for c in certs] == [5e-4, 1e-3, 1e-3]
    assert all(c.satisfied for c in certs)


def test_energy_overflow_after_the_last_halving_is_overflow(ctx64, monkeypatch):
    monkeypatch.setattr(evolution, "energy_from_parts",
                        lambda ctx, quad_form, vals: energy_from_parts(ctx, quad_form, vals * 1e300))
    u0 = 1e-3 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    monkeypatch.setattr(evolution, "_MAX_HALVINGS", 2)
    with pytest.raises(OverflowError, match="potential overflow.*still stalled after 2 tau halvings"):
        evolve(ctx64, StepConfig(tau=1e-3), u0, t_end=1.0)


def test_one_factorization_per_tau_above_the_crossover(ctx256_wide, ctx64, rng):
    u0 = 0.25 * rng.standard_normal(ctx256_wide.ops.mesh.dof_count)
    certs = evolve(ctx256_wide, StepConfig(tau=1e-3), u0, t_end=0.03).certificates
    assert len(certs) == 30
    assert certs.factorizations.dtype == certs.pcg_iters.dtype == np.int64
    assert certs.factorizations.sum() == 1 and certs.factorizations[0] == 1
    # every later update runs PCG, a few iterations each
    assert (certs.pcg_iters[1:] >= certs.newton_iters[1:]).all()
    assert certs.pcg_iters.sum() <= 8 * (certs.newton_iters.sum() - 1)
    # at an exact fixed point the predicted steps' zero residual needs no PCG
    zero = evolve(ctx256_wide, StepConfig(tau=1e-3), np.zeros_like(u0), t_end=0.005)
    assert not zero.states.any()
    assert zero.certificates.factorizations.sum() == 1
    assert zero.certificates.pcg_iters.sum() == 0
    # below it, every update factors and none iterates
    certs = evolve(ctx64, StepConfig(tau=1e-3), 0.25 * u0[:63], t_end=0.03).certificates
    assert (certs.pcg_iters == 0).all()
    assert (certs.factorizations == certs.newton_iters).all()


def test_pcg_path_matches_factoring_every_update(ctx256_wide, rng, monkeypatch):
    u0 = 0.25 * rng.standard_normal(ctx256_wide.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-3)
    pcg = evolve(ctx256_wide, cfg, u0, t_end=0.03)
    monkeypatch.setattr(evolution, "_PCG_MIN_DOF", math.inf)
    factored = evolve(ctx256_wide, cfg, u0, t_end=0.03)
    assert factored.certificates.pcg_iters.sum() == 0
    assert list(pcg.certificates.newton_iters) == list(factored.certificates.newton_iters)
    for u, ref in zip(pcg.states, factored.states):
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_failed_pcg_falls_back_to_a_factorization(ctx256_wide, rng):
    ops = ctx256_wide.ops
    dof = ops.mesh.dof_count
    solver = _StepSolver(ops)
    F = rng.standard_normal(dof)
    solver.delta(1e-3, (np.zeros(dof), np.zeros(dof - 1)), F)
    assert solver.factorizations == 1 and solver.inv is not None
    # a B' this negative makes S indefinite, or negative definite, where CG
    # would converge: PCG gives up at p^T S p <= 0 and the refactor fails
    eigs = np.linalg.eigvalsh(ops.P / 1e-3 + ops.A_sigma)
    for shift in (2.0 * eigs[0], 2.0 * eigs[-1]):
        solver.delta(1e-3, (np.zeros(dof), np.zeros(dof - 1)), F)
        factorizations, pcg_iters = solver.factorizations, solver.pcg_iters
        with pytest.raises(JacobianSingularError,
                           match=r"not positive definite at tau=0.001 because beta' < 0 somewhere "
                                 r"\(potential.lambda below the tightest monotone split\)"):
            solver.delta(1e-3, (np.full(dof, -shift), np.zeros(dof - 1)), F)
        assert solver.factorizations == factorizations + 1
        assert 1 <= solver.pcg_iters - pcg_iters <= 8
        assert solver.inv is None
    assert solver.pcg_iters - pcg_iters == 1  # S negative definite: stopped at once
    # a B' far from the kept one leaves S positive definite but PCG slow:
    # after its 8 iterations the update comes from a fresh factorization
    solver.delta(1e-3, (np.zeros(dof), np.zeros(dof - 1)), F)
    factorizations, pcg_iters = solver.factorizations, solver.pcg_iters
    Bp = (np.linspace(0.0, 10.0 * eigs[-1], dof), np.zeros(dof - 1))
    du = solver.delta(1e-3, Bp, F)
    assert solver.factorizations == factorizations + 1
    assert solver.pcg_iters - pcg_iters == 8
    S = add_tridiagonal(ops.P / 1e-3 + ops.A_sigma, *Bp)
    assert np.linalg.norm(S @ du + F) <= 1e-10 * np.linalg.norm(F)


def _solver_factored_at_zero_drift(ops, tau, F):
    """A _StepSolver whose kept inverse is of S0 = P/tau + A_sigma (B'0 = 0)."""
    dof = ops.mesh.dof_count
    solver = _StepSolver(ops)
    solver.delta(tau, (np.zeros(dof), np.zeros(dof - 1)), F)
    assert solver.factorizations == 1 and solver.inv is not None
    return solver


def test_pcg_solves_with_the_step_matrix_at_the_new_b_prime(ctx256_wide, rng):
    # factored at B'0 = 0, PCG at a nearby B'1 applies S0 by recurrence and
    # only the drift B'1 - B'0 as a product; its update must solve with S1
    ops = ctx256_wide.ops
    dof = ops.mesh.dof_count
    F = rng.standard_normal(dof)
    solver = _solver_factored_at_zero_drift(ops, 1e-3, F)
    Bp1 = (0.1 * np.linspace(0.0, 1.0, dof), np.zeros(dof - 1))
    du = solver.delta(1e-3, Bp1, F)
    assert solver.factorizations == 1 and solver.pcg_iters > 0
    S1 = add_tridiagonal(ops.P / 1e-3 + ops.A_sigma, *Bp1)
    assert np.linalg.norm(S1 @ du + F) <= 1e-9 * np.linalg.norm(F)


def test_pcg_iteration_makes_one_dense_product(ctx256_wide, rng, monkeypatch):
    ops = ctx256_wide.ops
    dof = ops.mesh.dof_count
    F = rng.standard_normal(dof)
    solver = _solver_factored_at_zero_drift(ops, 1e-3, F)

    class NoOperators:  # PCG that read P, A_sigma or anything else of ops fails here
        def __getattr__(self, name):
            raise AssertionError(f"PCG read ops.{name}")

    solver.ops = NoOperators()
    calls = []
    dsymv = evolution.dsymv

    def counting_dsymv(*args, **kwargs):
        calls.append(1)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(evolution, "dsymv", counting_dsymv)
    solver.delta(1e-3, (0.1 * np.linspace(0.0, 1.0, dof), np.zeros(dof - 1)), F)
    assert solver.factorizations == 1 and solver.pcg_iters > 0
    # one preconditioner apply before the loop, then one per iteration
    assert len(calls) == solver.pcg_iters + 1


@pytest.mark.parametrize("ctx_name", ["ctx256_wide", "ctx64"])
def test_step_takes_w_normsq_from_p_du_without_an_a_s_solve(ctx_name, request, rng, monkeypatch):
    # |w_n|_{A_s}^2 = du^T P du / tau^2 from the last residual's P du: no
    # A_s solve above the PCG crossover (dof 255) or below it (dof 63)
    ctx = request.getfixturevalue(ctx_name)
    ops = ctx.ops
    assert (ops.mesh.dof_count >= evolution._PCG_MIN_DOF) == (ctx_name == "ctx256_wide")

    def no_solve(*args, **kwargs):
        raise AssertionError("a march solved with a stiffness factor")

    monkeypatch.setattr(operators, "dpotrs", no_solve)
    tau = 1e-3
    u0 = 0.25 * rng.standard_normal(ops.mesh.dof_count)
    steps = list(march(ctx, StepConfig(tau=tau), u0, t_end=10 * tau))
    zero = list(march(ctx, StepConfig(tau=tau), np.zeros_like(u0), t_end=3 * tau))
    monkeypatch.undo()
    certs = [cert for _, _, cert in steps]
    assert len(certs) == 10 and all(c.satisfied for c in certs)
    assert (sum(c.pcg_iters for c in certs) > 0) == (ctx_name == "ctx256_wide")
    M = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)
    states = [u0] + [u for _, u, _ in steps]
    for u_prev, u, cert in zip(states, states[1:], certs):
        du = u - u_prev
        assert cert.w_normsq == float(du @ (ops.P @ du)) / tau**2
        w = -np.linalg.solve(ops.A_s, M @ du / tau)
        assert cert.w_normsq == pytest.approx(w @ ops.A_s @ w, rel=1e-12, abs=0)
    for _, u, cert in zero:
        assert not u.any()
        assert cert.w_normsq == 0.0 and cert.defect == 0.0 and cert.satisfied
        assert math.copysign(1.0, cert.w_normsq) == 1.0  # +0.0, written as "0.0"


def test_tau_halving_and_shortened_last_step_refactor(ctx256_wide, rng, nan_beta_poison):
    # NaN beta values on the predicted start of step 4 and on its retry make
    # march halve tau for that step; t_end leaves a shortened last step
    poison = nan_beta_poison
    u0 = 0.25 * rng.standard_normal(ctx256_wide.ops.mesh.dof_count)
    run = march(ctx256_wide, StepConfig(tau=1e-3), u0, t_end=0.008)
    certs = [next(run)[2] for _ in range(3)]
    poison["left"] = 2
    certs += [cert for _, _, cert in run]
    assert [c.halvings for c in certs] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert [c.tau_used for c in certs][3:5] == [5e-4, 1e-3]
    assert certs[-1].tau_used == pytest.approx(5e-4)
    # a factorization at the first tau, at the halved one, back at the full
    # one, and at the shortened last step
    assert [c.factorizations for c in certs] == [1, 0, 0, 1, 1, 0, 0, 0, 1]
    # a new tau factors at once, without PCG on the previous tau's inverse
    dof = ctx256_wide.ops.mesh.dof_count
    solver = _StepSolver(ctx256_wide.ops)
    for tau in (1e-3, 5e-4):
        solver.delta(tau, (np.zeros(dof), np.zeros(dof - 1)), np.ones(dof))
    assert solver.factorizations == 2 and solver.pcg_iters == 0


def test_kept_step_matrix_below_the_crossover_matches_a_fresh_solver(ctx64_wide, rng, monkeypatch,
                                                                    nan_beta_poison):
    # below the crossover the solver keeps P/tau + A_sigma for its tau; the
    # halved step 4, the full step after it and the shortened last step each
    # change tau, and every step must come out as from a solver of its own
    ops = ctx64_wide.ops
    assert ops.mesh.dof_count < evolution._PCG_MIN_DOF
    u0 = 0.25 * rng.standard_normal(ops.mesh.dof_count)

    def run():
        steps = march(ctx64_wide, StepConfig(tau=1e-3), u0, t_end=0.008)
        out = [next(steps) for _ in range(3)]
        nan_beta_poison["left"] = 2  # the predicted start of step 4 and its retry
        return out + list(steps)

    kept = run()
    step_ = evolution.step
    monkeypatch.setattr(evolution, "step", lambda ctx, cfg, u_prev, **kwargs: step_(
        ctx, cfg, u_prev, **{**kwargs, "solver": _StepSolver(ctx.ops)}))
    fresh = run()
    certs = [cert for _, _, cert in kept]
    assert [c.halvings for c in certs] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert [c.tau_used for c in certs][3:5] == [5e-4, 1e-3]
    assert certs[-1].tau_used == pytest.approx(5e-4)
    assert len(fresh) == len(kept)
    for (t, u, cert), (t_ref, u_ref, cert_ref) in zip(kept, fresh):
        assert t == t_ref and u.tobytes() == u_ref.tobytes()
        assert (np.array(evolution._cert_row(cert), evolution._CERT_DTYPE).tobytes()
                == np.array(evolution._cert_row(cert_ref), evolution._CERT_DTYPE).tobytes())


@pytest.mark.parametrize("ctx_name", ["ctx256_wide", "ctx64_wide"])
def test_carried_start_products_match_fresh_ones(ctx_name, request, rng, monkeypatch):
    # iterate 0 of each attempt takes A_sigma u_start and P (u_start - u_prev)
    # from march: from u_n they are the bits of fresh products, from the
    # predictor they agree with them to rounding
    ctx = request.getfixturevalue(ctx_name)
    A, P = ctx.ops.A_sigma, ctx.ops.P
    plain_step = evolution.step
    starts = []

    def spy(ctx, cfg, u_prev, u_start=None, products=None, **kwargs):
        starts.append((u_prev, u_start, [v.copy() for v in products]))
        return plain_step(ctx, cfg, u_prev, u_start=u_start, products=products, **kwargs)

    monkeypatch.setattr(evolution, "step", spy)
    u0 = 0.25 * rng.standard_normal(ctx.ops.mesh.dof_count)
    # ten full steps and a shortened last one, which starts from u_n
    list(march(ctx, StepConfig(tau=1e-3), u0, t_end=0.0105))
    monkeypatch.undo()
    assert [u_start is None for _, u_start, _ in starts] == [True] + [False] * 9 + [True]
    eps = np.finfo(float).eps
    for u_prev, u_start, (A_u, P_du) in starts:
        if u_start is None:
            assert A_u.tobytes() == (A @ u_prev).tobytes()
            assert P_du.tobytes() == (P @ (u_prev - u_prev)).tobytes()
            continue
        # 2 A u_n - A u_{n-1} and P (u_n - u_{n-1}) against the products of
        # u_start = 2 u_n - u_{n-1}: each side rounds terms of size |A| |u|
        scale = np.abs(A) @ (np.abs(u_start) + 3.0 * np.abs(u_prev))
        assert np.all(np.abs(A_u - A @ u_start) <= 16 * eps * scale)
        scale = np.abs(P) @ (np.abs(u_start) + 3.0 * np.abs(u_prev))
        assert np.all(np.abs(P_du - P @ (u_start - u_prev)) <= 16 * eps * scale)


def test_accepted_step_makes_two_dense_products_per_update(ctx256_wide, rng, monkeypatch):
    # no dense product at iterate 0, A_sigma u and P du after each update, and
    # the preconditioner's product once per PCG iteration: before the loop
    # and after each iteration that does not stop on the M-norm rule.  With
    # the relative rule off, every loop stops on that rule
    monkeypatch.setattr(evolution, "_PCG_RTOL", 0.0)
    ops = ctx256_wide.ops
    matvecs, applies = [], []

    class Counted(np.ndarray):  # A_sigma and P that count their products
        def __matmul__(self, other):
            matvecs.append(1)
            return np.asarray(self) @ other

    counted = OperatorSet(A_sigma=ops.A_sigma.view(Counted), M=ops.M, mesh=ops.mesh,
                          exps=ops.exps)
    vars(counted)["P"] = ops.P.view(Counted)  # the cached property's slot
    ctx = EnergyContext(ops=counted, pot=ctx256_wide.pot)
    dsymv = evolution.dsymv
    monkeypatch.setattr(evolution, "dsymv", lambda *a, **k: applies.append(1) or dsymv(*a, **k))
    plain_step = evolution.step
    counts = []

    def spy(*args, **kwargs):
        before = len(matvecs), len(applies)
        u, cert = plain_step(*args, **kwargs)
        counts.append((len(matvecs) - before[0], len(applies) - before[1]))
        return u, cert

    monkeypatch.setattr(evolution, "step", spy)
    u0 = 0.25 * rng.standard_normal(ops.mesh.dof_count)
    certs = [cert for _, _, cert in march(ctx, StepConfig(tau=1e-3), u0, t_end=0.02)]
    assert len(counts) == len(certs) == 20
    assert sum(c.factorizations for c in certs) == 1 and sum(c.pcg_iters for c in certs) > 0
    assert counts == [(2 * c.newton_iters, c.pcg_iters) for c in certs]


@functools.cache
def _ctx_above_the_crossover(s, sigma):
    ops = build_operator_set(FracMesh(-4.0, 4.0, 128), FracExponents(s, sigma))
    assert ops.mesh.dof_count >= evolution._PCG_MIN_DOF
    return EnergyContext(ops=ops, pot=double_well(4.0))


@settings(max_examples=40, deadline=None)
@given(exps=st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.7, 0.3)]),
       log_tau=st.floats(-4.0, -1.0), log_tol=st.floats(-12.0, -8.0),
       seed=st.integers(0, 2**32 - 1))
def test_pcg_stopped_at_newton_tolerance_keeps_residuals_and_certificates(exps, log_tau,
                                                                           log_tol, seed):
    # PCG may stop at |r|_{M^-1} <= _PCG_ETA newton_tol; Newton's own test
    # still decides every accepted iterate, and every certificate holds
    ctx = _ctx_above_the_crossover(*exps)
    cfg = StepConfig(tau=10.0**log_tau, newton_tol=10.0**log_tol)
    u0 = 0.25 * np.random.default_rng(seed).standard_normal(ctx.ops.mesh.dof_count)
    # march raises CertificateViolationError at the first violated step
    certs = [cert for _, _, cert in march(ctx, cfg, u0, t_end=5 * cfg.tau)]
    assert len(certs) == 5 and sum(c.pcg_iters for c in certs) > 0
    assert all(c.satisfied and c.newton_residual < cfg.newton_tol for c in certs)


_EDGE_EXPONENTS = (1e-3, 0.5 - 1e-9, 0.5 + 1e-9, 0.999)


@settings(max_examples=100, deadline=None)
@given(s=st.sampled_from(_EDGE_EXPONENTS), sigma=st.sampled_from(_EDGE_EXPONENTS),
       n_elems=st.integers(2, 24), log_tau=st.floats(-4.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_certificates_hold_at_edge_exponents(s, sigma, n_elems, log_tau, seed):
    ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(s, sigma))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    u0 = 0.25 * np.random.default_rng(seed).standard_normal(ops.mesh.dof_count)
    tau = 10.0**log_tau
    # march raises CertificateViolationError at the first violated step
    certs = [cert for _, _, cert in march(ctx, StepConfig(tau=tau), u0, t_end=5 * tau)]
    assert all(c.satisfied for c in certs)


@pytest.mark.parametrize("s, sigma", [(1e-3, 0.999), (0.999, 0.5 + 1e-9)])
def test_certificates_hold_at_edge_exponents_on_the_pcg_path(s, sigma, rng):
    ops = build_operator_set(FracMesh(-4.0, 4.0, 160), FracExponents(s, sigma))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    u0 = 0.25 * rng.standard_normal(ops.mesh.dof_count)
    certs = evolve(ctx, StepConfig(tau=1e-3), u0, t_end=0.01).certificates
    assert certs.satisfied.all()
    assert certs.pcg_iters.sum() > 0 and certs.factorizations.sum() == 1
