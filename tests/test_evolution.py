import itertools
import math

import numpy as np
import pytest

from fracch import evolution, potentials
from fracch.energy import EnergyContext, add_tridiagonal, energy, load_vector, weighted_mass
from fracch.errors import (
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    NewtonDivergenceError,
)
from fracch.evolution import StepConfig, _beta_pair, _newton_delta, evolve, march, step
from fracch.equilibrium import default_equilibrium_seed, solve_stationary
from fracch.mesh import build_uniform_mesh, interpolate
from fracch.operators import FracExponents, OperatorSet, build_operator_set, xnorm
from fracch.potentials import YosidaParams, custom_potential, double_well, yosida_apply


def test_step_config_validation():
    with pytest.raises(ConfigurationError):
        StepConfig(tau=0.0)
    with pytest.raises(ConfigurationError):
        StepConfig(tau=1e-2, newton_tol=0.0)
    with pytest.raises(ConfigurationError, match="newton_max"):
        StepConfig(tau=1e-3, newton_max=-1)


def test_zero_is_exact_fixed_point(ctx64):
    u0 = np.zeros(ctx64.ops.mesh.dof_count)
    u1, w1, cert = step(ctx64, StepConfig(tau=1e-2), u0)
    assert np.all(u1 == 0.0)
    assert np.all(w1 == 0.0)
    assert cert.defect == 0.0 and cert.satisfied


def test_stationary_state_is_preserved(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-12)
    cfg = StepConfig(tau=1e-4)
    u, w, cert = step(ctx64_wide, cfg, rep.phi)
    M = ctx64_wide.ops.M
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


def test_flux_identity_along_run(ctx64, rng):
    u0 = 0.5 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.3)
    ops = ctx64.ops
    w_xnorms = np.sqrt(traj.certificates.w_normsq)
    # |M u_t|_{A_s^{-1}} from the states, not from w
    duals = np.array([ops.dual_norm_s(ops.M @ du / cert.tau_used)
                      for du, cert in zip(np.diff(traj.states, axis=0), traj.certificates)])
    rel = np.abs(duals - w_xnorms) / w_xnorms
    assert np.max(rel) < 1e-8
    assert np.array_equal(traj.certificates.dual_norm_ut, w_xnorms)


def test_zero_initial_data_trajectory(ctx64):
    traj = evolve(ctx64, StepConfig(tau=1e-2), np.zeros(ctx64.ops.mesh.dof_count), t_end=0.2)
    assert np.all(traj.certificates.e_after == 0.0)
    assert all(c.satisfied for c in traj.certificates)


def test_settles_to_equilibrium(ctx64):
    mesh = ctx64.ops.mesh
    u0 = 0.1 * interpolate(mesh, lambda x: np.sin(np.pi * x))
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=10.0)
    assert np.all(np.diff(traj.certificates.e_after) <= 1e-9)
    assert traj.certificates.dual_norm_ut[-1] < 1e-6


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
    m0 = ones @ ctx64.ops.M @ np.asarray(traj.states[0])
    m1 = ones @ ctx64.ops.M @ np.asarray(traj.states[-1])
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
    ops = build_operator_set(build_uniform_mesh(-1, 1, 64), FracExponents(0.25, 0.75))
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
    assert traj.times[-1] == pytest.approx(20.0)  # the last step is clamped to t_end
    assert all(c.satisfied for c in traj.certificates)


def test_certificate_violation_paths(ctx64):
    mesh = ctx64.ops.mesh
    u0 = 1e-3 * interpolate(mesh, lambda x: np.sin(np.pi * x))
    cfg = StepConfig(tau=1e-3, cert_rel_tol=-1.0)  # unsatisfiable tolerance
    with pytest.raises(CertificateViolationError):
        evolve(ctx64, cfg, u0, t_end=0.01)
    with pytest.warns(UserWarning):
        traj = evolve(ctx64, cfg, u0, t_end=0.01, on_violation="warn")
    assert len(traj.certificates) == 10


def test_yosida_stepping_runs(ctx64, rng):
    u0 = 0.1 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2, use_yosida=1e-3)
    traj = evolve(ctx64, cfg, u0, t_end=0.1, on_violation="warn")
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
    w, _, _ = ctx64.quad_data()
    pot = ctx64.pot
    windows = []
    for k in range(3):
        sel = [u for t, u in zip([0.0, *traj.times], traj.states) if k <= t < k + 1]
        vals = [
            math.sqrt(float((pot.beta(ctx64.values_at_quad(np.asarray(u))) ** 2 @ w).sum()))
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
    ops = build_operator_set(build_uniform_mesh(-4, 4, 64), FracExponents(*exps))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    dof = ops.mesh.dof_count
    u, r1, r2 = rng.standard_normal((3, dof))
    _, bp_q = _beta_pair(ctx, StepConfig(tau=tau, use_yosida=yosida))(ctx.values_at_quad(u))
    Bp = weighted_mass(ctx, bp_q)
    # reference: the exact Jacobian of the coupled system, solved as one 2n x 2n block
    B_dense = add_tridiagonal(np.zeros((dof, dof)), *Bp)
    jac = np.block([[ops.M / tau, ops.A_s], [-(ops.A_sigma + B_dense), ops.M]])
    ref = np.linalg.solve(jac, -np.concatenate([r1, r2]))
    # eliminating dw from the block system leaves S du = -(M A_s^{-1} r1 - r2)
    du = _newton_delta(ops, tau, Bp, ops.M @ ops.solve_A_s(r1) - r2)
    assert np.linalg.norm(du - ref[:dof]) <= 1e-10 * np.linalg.norm(ref[:dof])


@pytest.mark.parametrize("tau", [1e-3, 1.0])
@pytest.mark.parametrize("exps", [(0.3, 0.7), (0.5, 0.5)])
@pytest.mark.parametrize("yosida", [None, 1e-2])
def test_step_solves_both_coupled_equations(exps, yosida, tau, rng):
    ops = build_operator_set(build_uniform_mesh(-4, 4, 64), FracExponents(*exps))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    cfg = StepConfig(tau=tau, use_yosida=yosida)
    u_prev = 0.25 * rng.standard_normal(ops.mesh.dof_count)
    u, w, _ = step(ctx, cfg, u_prev)

    def m_inv_norm(r):
        return math.sqrt(r @ ops.solve_M(r))

    b_q, _ = _beta_pair(ctx, cfg)(ctx.values_at_quad(u))
    flux = ops.M @ (u - u_prev) / tau
    first = flux + ops.A_s @ w
    second = ops.M @ w - ops.A_sigma @ u - load_vector(ctx, b_q) + ctx.pot.lam * ops.M @ u_prev
    assert m_inv_norm(first) <= 1e-12 * m_inv_norm(flux)
    assert m_inv_norm(second) <= 10 * cfg.newton_tol


def test_yosida_pair_is_yosida_apply_and_its_derivative():
    ops = build_operator_set(build_uniform_mesh(-1, 1, 8), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    yp = YosidaParams(epsilon=1e-2)
    pair = _beta_pair(ctx, StepConfig(tau=1e-3, use_yosida=yp.epsilon))
    half = np.linspace(0.05, 6.0, 120)
    r = np.concatenate([-half[::-1], half]).reshape(8, 30)  # a quadrature-grid shape
    beta_eps, beta_eps_prime = pair(r)
    assert np.array_equal(beta_eps, yosida_apply(ctx.pot, yp, r))
    h = 1e-5 * (1.0 + np.abs(r))
    fd = (yosida_apply(ctx.pot, yp, r + h) - yosida_apply(ctx.pot, yp, r - h)) / (2.0 * h)
    assert np.all(np.abs(beta_eps_prime - fd) <= 1e-6 * np.abs(fd))


def test_yosida_step_solves_one_resolvent_per_iterate(ctx64, rng, monkeypatch):
    calls = {"resolvent": 0, "updates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(potentials, "yosida_resolvent",
                        counted("resolvent", potentials.yosida_resolvent))
    monkeypatch.setattr(evolution, "weighted_mass", counted("updates", evolution.weighted_mass))
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    step(ctx64, StepConfig(tau=1e-2, use_yosida=1e-2), u0, e_before=0.0)
    assert calls["updates"] >= 2
    assert calls["resolvent"] == calls["updates"] + 1


def test_non_finite_residual_is_divergence(ctx64, rng, nan_from_first_update):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    with pytest.raises(NewtonDivergenceError, match="not finite after 1 iterations"):
        step(ctx64, StepConfig(tau=1e-2), u0)
    # march treats it like any stall: halve tau, then give up
    with pytest.raises(NewtonDivergenceError, match="still stalled after 2 tau halvings"):
        evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.1, max_halvings=2)


def test_lambda_below_split_is_singular_step(ctx64_wide, rng):
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
    with pytest.raises(JacobianSingularError, match="still stalled after 0 tau halvings"):
        evolve(ctx, StepConfig(tau=10.0), u0, t_end=20.0, max_halvings=0)
    first = next(march(ctx, StepConfig(tau=10.0), u0, t_end=20.0))
    assert first[2].tau_used < 10.0


def test_energy_chains_between_steps(ctx64, rng):
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=0.2)
    certs = traj.certificates
    assert certs[0].e_before == energy(ctx64, u0)
    for prev, cur in zip(certs, certs[1:]):
        assert cur.e_before == prev.e_after


def test_stall_after_halvings_reports_them(ctx64, rng):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2, newton_tol=1e-300, newton_max=1)
    with pytest.raises(NewtonDivergenceError) as info:
        evolve(ctx64, cfg, u0, t_end=0.1, max_halvings=2)
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
    ops = build_operator_set(build_uniform_mesh(-1.0, 1.0, 4), FracExponents(0.5, 0.5))
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
    u1, _, cert1 = step(ctx64, cfg, u0)
    assert np.array_equal(steps[0][1], u1) and steps[0][2] == cert1
    # the second step starts Newton from the predictor 2 u1 - u0
    assert np.array_equal(steps[1][1], step(ctx64, cfg, u1, u_start=2 * u1 - u0)[0])


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
        u, _, cert = step(ctx, cfg, u)
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
    u1, _, cert1 = step(ctx64, cfg, u0)
    assert cert1.newton_iters >= 2
    u, _, cert = step(ctx64, cfg, u0, u_start=u1)
    assert cert.newton_iters == 1
    assert np.linalg.norm(u - u1) <= 1e-9 * np.linalg.norm(u1)


def test_given_start_skips_the_first_residual_solve(ctx64, rng, monkeypatch):
    # the first update from a given start is due whatever the residual, so
    # only the residuals after an update cost an M solve
    u0 = 0.3 * rng.standard_normal(ctx64.ops.mesh.dof_count)
    cfg = StepConfig(tau=1e-2)
    u1, _, _ = step(ctx64, cfg, u0)
    solves = []
    solve_M = OperatorSet.solve_M
    monkeypatch.setattr(OperatorSet, "solve_M", lambda ops, f: solves.append(f) or solve_M(ops, f))
    _, _, cert = step(ctx64, cfg, u0)
    assert len(solves) == cert.newton_iters + 1
    solves.clear()
    _, _, cert = step(ctx64, cfg, u0, u_start=2.0 * u1 - u0)
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
    marched = list(itertools.islice(march(ctx64, cfg, u0, t_end=1e9, max_halvings=0), 20))
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
