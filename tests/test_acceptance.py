"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy runs are shared through module-scoped fixtures.  Criteria pin their
own meshes and step sizes where the criterion text does; remaining choices
(initial data for the scaling and smoothing runs) are documented inline.
"""

import math

import numpy as np
import pytest

from gagliardo_oracle import oracle_entry
from surgery import plant_zero_mode

from fracch.diagnostics import fit_decay_series, poincare_report, smoothing_report
from fracch.energy import EnergyContext, add_tridiagonal
from fracch.equilibrium import (
    complete_report,
    default_equilibrium_seed,
    linearize,
    lsi_probe,
    pencil_eigenvalues,
    solve_stationary,
)
from fracch.evolution import StepConfig, evolve
from fracch.mesh import FracMesh, interpolate
from fracch.operators import (
    FracExponents,
    assemble_gagliardo,
    build_operator_set,
    normalization_constant,
    xnorm,
)
from fracch.potentials import double_well, yosida_apply


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def ctx128():
    ops = build_operator_set(FracMesh(-1.0, 1.0, 128), FracExponents(0.5, 0.5))
    return EnergyContext(ops=ops, pot=double_well(4.0))


@pytest.fixture(scope="module")
def settle_run(ctx128):
    u0 = 0.1 * interpolate(ctx128.ops.mesh, lambda x: np.sin(np.pi * x))
    return evolve(ctx128, StepConfig(tau=1e-2), u0, t_end=20.0)


def test_criterion_01_assembly_oracle_equivalence():
    mesh = FracMesh(-1.0, 1.0, 8)
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        C = normalization_constant(s)
        A = assemble_gagliardo(mesh, s)
        for i in range(mesh.dof_count):
            for j in range(i, mesh.dof_count):
                ref = oracle_entry(mesh, s, C, i, j)
                rel = abs(A[i, j] - ref) / abs(ref)
                worst = max(worst, rel)
                assert rel < 1e-4
    _report(1, f"every entry within 1e-4 of the adaptive oracle (worst {worst:.2e})")


def test_criterion_02_duality_identity(ctx128):
    rng = np.random.default_rng(1)
    ops = ctx128.ops
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(ops.mesh.dof_count)
        nv = xnorm(ops.A_s, v)
        worst = max(worst, abs(ops.dual_norm_s(ops.A_s @ v) - nv) / nv)
    assert worst < 1e-10
    _report(2, f"|A v|_dual = |v|_A on 100 draws (worst rel {worst:.2e})")


def test_criterion_03_fractional_poincare(ctx128):
    ops = ctx128.ops
    rep = poincare_report(ops, trials=1000, rng=np.random.default_rng(2))
    assert rep.min_ratio >= 2.0 / 27.0
    assert rep.holds  # also clears the annulus-constant bound 2/9
    _report(3, f"1020 vectors, min seminorm/L2 ratio {rep.min_ratio:.3f} >= 2/27")


def test_criterion_04_unconditional_energy_stability(ctx128):
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(ctx128.ops.mesh.dof_count)
    worst = -math.inf
    for tau in (1e-1, 1e-2, 1e-3):
        traj = evolve(ctx128, StepConfig(tau=tau), u0, t_end=2000 * tau)
        assert len(traj.certificates) == 2000
        tol = 1e-9 * np.maximum(1.0, np.abs([c.e_before for c in traj.certificates]))
        assert np.all(traj.certificates.defect <= tol)
        assert all(c.satisfied for c in traj.certificates)
        worst = max(worst, float(np.max(traj.certificates.defect)))
    _report(4, f"6000 certified steps across three step sizes (max defect {worst:.2e})")


def test_criterion_05_energy_equality_defect_scaling(ctx128):
    # smooth initial data: the identity-defect scaling presumes dynamics
    # resolved by the step size, which rough data's first step is not
    u0 = 0.5 * interpolate(ctx128.ops.mesh, lambda x: np.sin(np.pi * x))
    maxima = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        traj = evolve(ctx128, StepConfig(tau=tau), u0, t_end=1.0)
        maxima.append(float(np.abs(traj.certificates.defect).max()))
    ratios = [maxima[k + 1] / maxima[k] for k in range(2)]
    for r in ratios:
        assert 0.4 <= r <= 0.6  # halving tau halves the defect within 20%
    _report(5, f"defect ratios under tau halving: {ratios[0]:.3f}, {ratios[1]:.3f}")


def test_criterion_06_convergence_to_equilibrium(ctx128, settle_run):
    phi = np.zeros(ctx128.ops.mesh.dof_count)
    final = xnorm(ctx128.ops.A_sigma, np.asarray(settle_run.states[-1]) - phi)
    assert settle_run.times[-1] >= 20.0 - 1e-9
    assert final < 1e-6
    energies = settle_run.certificates.e_after
    fit = fit_decay_series(settle_run.times, energies, 0.0, 0.5)
    assert fit.mode == "exponential"
    assert fit.r_squared >= 0.99
    h_start = (energies[np.searchsorted(settle_run.times, fit.window[0])]) ** 0.5
    h_end = (energies[np.searchsorted(settle_run.times, fit.window[1])]) ** 0.5
    decades = math.log10(h_start / h_end)
    assert decades >= 3.0
    _report(6, f"distance {final:.2e} at t=20; exponential fit r2={fit.r_squared:.6f} "
               f"over {decades:.1f} decades")


def test_criterion_07_spectral_shift_identity(ctx128):
    A, M = ctx128.ops.A_sigma, ctx128.ops.M
    shifted = pencil_eigenvalues(A - add_tridiagonal(np.zeros_like(A), *M), M)
    base = pencil_eigenvalues(A, M)
    err = float(np.max(np.abs(shifted - (base - 1.0))))
    assert err < 1e-10
    _report(7, f"pencil spectrum shifts by exactly -1 (max err {err:.2e})")


def test_criterion_08_maximum_principle():
    mesh = FracMesh(-4.0, 4.0, 256)
    ops = build_operator_set(mesh, FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    rep = solve_stationary(ctx, default_equilibrium_seed(ctx), tol=1e-10)
    assert rep.linf > 0.5  # genuinely nontrivial
    assert rep.residual_dual < 1e-10
    assert rep.linf <= 1.0 + 10.0 * mesh.h
    _report(8, f"nontrivial equilibrium: |phi|_inf = {rep.linf:.4f} <= 1 + 10h, "
               f"residual {rep.residual_dual:.1e}")


def test_criterion_09_lsi_probe_boundedness(ctx128):
    rep = complete_report(
        ctx128, solve_stationary(ctx128, np.zeros(ctx128.ops.mesh.dof_count))
    )
    assert len(rep.kernel_basis) == 0
    res = lsi_probe(ctx128, rep, theta=0.5, delta=0.01, samples=500,
                    rng=np.random.default_rng(4))
    assert math.isfinite(res.max_ratio)
    assert res.max_ratio < 2.0 * res.median_ratio
    assert not res.diverging

    # negative control: plant a zero mode, probe its quadratic model with a
    # theta whose complementary exponent 1 - theta falls below 1/2
    L = linearize(ctx128, rep.phi)
    Lt, _ = plant_zero_mode(L, add_tridiagonal(np.zeros_like(L), *ctx128.ops.M), index=0)
    ctrl = lsi_probe(
        ctx128, rep, theta=0.75, delta=0.01, samples=500,
        rng=np.random.default_rng(5),
        energy_fn=lambda v: 0.5 * float(v @ Lt @ v),
        grad_fn=lambda v: Lt @ v,
    )
    assert ctrl.diverging
    m = ctrl.decade_medians
    assert m[0] < m[1] < m[2]
    _report(9, f"theta=1/2 ratios stable (max/median {res.max_ratio / res.median_ratio:.2f}); "
               f"planted control grows {m[2] / m[0]:.0f}x toward r -> 0")


def test_criterion_10_yosida_property_suite():
    pot = double_well(4.0)
    rng = np.random.default_rng(6)
    r = rng.uniform(-5.0, 5.0, size=1000)
    r2 = rng.uniform(-5.0, 5.0, size=1000)
    beta = pot.beta_pair(r)[0]
    prev_err = None
    for eps in (1.0, 0.1, 0.01):
        be, j, _ = yosida_apply(pot, eps, r)
        be2, j2, _ = yosida_apply(pot, eps, r2)
        assert np.all(np.abs(be) <= np.abs(beta) + 1e-9)
        assert np.all(np.abs(be - be2) <= np.abs(r - r2) / eps + 1e-9)
        assert np.all(np.abs(j - j2) <= np.abs(r - r2) + 1e-9)
        err = float(np.max(np.abs(be - beta)))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    _report(10, "bound, 1/eps-Lipschitz, non-expansive resolvent, pointwise "
                "convergence: zero violations on 1000 points")


def test_criterion_11_smoothing_shape():
    # rough random data in the slow-coarsening regime of a wider interval;
    # the products must stay bounded and never exceed the earliest one by
    # more than 3x (growth would mean w decays slower than the 1/t envelope)
    mesh = FracMesh(-2.0, 2.0, 128)
    ops = build_operator_set(mesh, FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    u0 = np.random.default_rng(7).standard_normal(mesh.dof_count)
    traj = evolve(ctx, StepConfig(tau=2e-3), u0, t_end=1.5)
    products = [p for _, p in smoothing_report(traj, t0_grid=(0.1, 0.2, 0.5, 1.0))]
    assert all(np.isfinite(p) for p in products)
    growth = max(products) / products[0]
    assert growth <= 3.0
    _report(11, f"products {['%.3e' % p for p in products]} bounded; "
                f"max growth over the t0 grid {growth:.2f}x <= 3")


def test_criterion_12_decay_fit_oracle():
    t = np.arange(0.0, 20.0, 0.01)
    fit = fit_decay_series(t, np.exp(-2.0 * t) + 3.0, 3.0, 0.5)
    assert fit.mode == "exponential"
    assert abs(fit.rate - 1.0) < 0.01

    t = np.arange(10.0, 5000.0, 0.5)  # power-law regime of (1+t)^{-1}
    fit_a = fit_decay_series(t, (1.0 + t) ** (-2.0), 0.0, 0.5)
    assert fit_a.mode == "algebraic"
    assert abs(fit_a.rate - (-1.0)) < 0.02
    _report(12, f"synthetic rates recovered: exp {fit.rate:.4f} (1%), "
                f"algebraic {fit_a.rate:.4f} (2%)")
