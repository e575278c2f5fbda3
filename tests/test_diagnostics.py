import numpy as np
import pytest

from fracch.diagnostics import (
    fit_decay_series,
    poincare_report,
    smoothing_report,
)
from fracch.evolution import StepConfig, evolve
from fracch.equilibrium import default_equilibrium_seed, solve_stationary
from fracch.mesh import FracMesh, interpolate
from fracch.operators import FracExponents, build_operator_set, xnorm


@pytest.fixture(scope="module")
def settled_run(ctx64):
    u0 = 0.1 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    return evolve(ctx64, StepConfig(tau=1e-2), u0, t_end=10.0)


def test_decay_fit_synthetic_exponential():
    t = np.arange(0.0, 20.0, 0.01)
    energies = np.exp(-2.0 * t) + 3.0  # H = e^{-t} with theta = 1/2
    fit = fit_decay_series(t, energies, 3.0, 0.5)
    assert fit.mode == "exponential"
    assert abs(fit.rate - 1.0) < 0.01
    assert fit.r_squared >= 0.99
    assert fit.e_limit == 3.0


def test_decay_fit_synthetic_algebraic():
    # sampled in the power-law regime: below t ~ 10 the true log-log slope
    # of (1+t)^{-1} is genuinely shallower than -1
    t = np.arange(10.0, 5000.0, 0.5)
    energies = (1.0 + t) ** (-2.0)  # H = (1+t)^{-1} with theta = 1/2
    fit = fit_decay_series(t, energies, 0.0, 0.5)
    assert fit.mode == "algebraic"
    assert abs(fit.rate - (-1.0)) < 0.02
    assert fit.r_squared > 0.99


def test_fit_curve_points_tracks_series():
    t = np.arange(0.0, 20.0, 0.01)
    energies = np.exp(-2.0 * t) + 3.0
    fit = fit_decay_series(t, energies, 3.0, 0.5)
    curve = fit.curve
    assert curve.shape[1] == 3
    rel = np.abs(curve[:, 1] - curve[:, 2]) / curve[:, 1]
    assert np.median(rel) < 1e-4
    assert rel.max() < 0.05  # float-quantized rungs at the window tail
    assert curve[0, 0] >= fit.window[0] and curve[-1, 0] <= fit.window[1]


def test_algebraic_fit_curve_holds_positive_times_only():
    # the window starts at t = 0, which the log-log fit cannot use
    t = np.arange(0.0, 5000.0, 0.5)
    fit = fit_decay_series(t, (1.0 + t) ** (-2.0), 0.0, 0.5)
    assert fit.mode == "algebraic"
    assert fit.window[0] == 0.0
    curve = fit.curve
    assert curve.shape == (int(np.count_nonzero((t > 0) & (t <= fit.window[1]))), 3)
    assert np.all(curve[:, 0] > 0)
    assert np.allclose(curve[:, 1], (1.0 + curve[:, 0]) ** (-1.0), rtol=1e-14, atol=0.0)
    rel = np.abs(curve[:, 1] - curve[:, 2]) / curve[:, 1]
    assert np.median(rel) < 0.02  # (1+t)^-1 bends away from a power law near t = 0


def test_decay_fit_degenerate_series():
    t = np.linspace(0, 1, 50)
    fit = fit_decay_series(t, np.full(50, 2.0), 2.0, 0.5)
    assert fit.degenerate
    assert fit.curve.shape == (0, 3)


def test_decay_fit_refusals():
    t = np.linspace(0, 1, 8)
    with pytest.raises(ValueError):
        fit_decay_series(t, np.exp(-t) + 1.0, 1.0, 0.5)  # < 10 samples
    t = np.linspace(0, 1, 200)
    with pytest.raises(ValueError):
        fit_decay_series(t, 1.0 + np.exp(-0.1 * t), 1.0, 0.5)  # < 2 decades


def test_decay_fit_warns_on_negative_gap():
    t = np.linspace(0, 30, 3000)
    energies = np.exp(-t) + 1.0
    energies[-1] = 1.0 - 1e-15  # floating-point crossing below the limit
    with pytest.warns(UserWarning):
        fit = fit_decay_series(t, energies, 1.0, 0.5)
    assert fit.mode == "exponential"


def test_decay_fit_on_settled_run(ctx64, settled_run):
    fit = fit_decay_series(settled_run.times, settled_run.certificates.e_after, 0.0, 0.5)
    assert fit.mode == "exponential"
    assert fit.r_squared >= 0.99


def _distances(traj, phi, ops):
    """|u(t) - phi| in the sigma energy norm over every state of the run, t = 0 first."""
    return np.array([xnorm(ops.A_sigma, u - phi) for u in traj.states])


def test_omega_distances_constant_trajectory(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-12)
    traj = evolve(ctx64_wide, StepConfig(tau=1e-3), rep.phi, t_end=0.05)
    assert np.all(_distances(traj, rep.phi, ctx64_wide.ops) < 1e-9)


def test_omega_distances_settled_and_negative_control(ctx64, settled_run):
    phi = np.zeros(ctx64.ops.mesh.dof_count)
    assert _distances(settled_run, phi, ctx64.ops)[-1] < 1e-6
    # planted wrong equilibrium: distances plateau at its norm
    wrong = phi.copy()
    wrong[5] = 0.3
    plateau = xnorm(ctx64.ops.A_sigma, wrong)
    assert abs(_distances(settled_run, wrong, ctx64.ops)[-1] - plateau) < 1e-6 * plateau


def test_omega_distances_tail_monotone(ctx64, settled_run):
    d = _distances(settled_run, np.zeros(ctx64.ops.mesh.dof_count), ctx64.ops)
    last_max = int(np.argmax(d))
    assert np.all(np.diff(d[last_max:]) <= 1e-8)


def test_energy_monotone_along_runs(settled_run):
    assert np.all(np.diff(settled_run.certificates.e_after) <= 1e-9)


def test_poincare_report(ops64, rng):
    rep = poincare_report(ops64, trials=1000, rng=rng)
    assert rep.bound == pytest.approx(2.0 / 9.0)  # R = 1, s = 1/2
    assert rep.holds
    assert rep.min_ratio >= rep.bound


def test_poincare_bound_far_from_the_origin_underflows_to_zero():
    # R = 1e155 puts (2R + 1)^2 past the float range, while the mesh width
    # 2.5e149 keeps every stiffness power in it
    ops = build_operator_set(FracMesh(1e155, 1e155 + 1e150, 4), FracExponents(0.5, 0.5))
    rep = poincare_report(ops, trials=10)
    assert 0.0 <= rep.bound <= 1e-300 and rep.holds


def test_smoothing_report_stationary(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-12)
    traj = evolve(ctx64_wide, StepConfig(tau=1e-2), rep.phi, t_end=1.2)
    prods = smoothing_report(traj, t0_grid=(0.1, 0.5, 1.0))
    assert all(p < 1e-16 for _, p in prods)


def test_smoothing_report_rough_data(ctx64, rng):
    u0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    traj = evolve(ctx64, StepConfig(tau=2e-3), u0, t_end=1.2)
    prods = smoothing_report(traj)
    assert all(np.isfinite(p) and p >= 0 for _, p in prods)
    with pytest.raises(ValueError):
        smoothing_report(traj, t0_grid=(5.0,))
