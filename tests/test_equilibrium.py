import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from surgery import plant_zero_mode

from fracch import equilibrium
from fracch.energy import EnergyContext, add_tridiagonal, energy_gradient
from fracch.equilibrium import (
    complete_report,
    default_equilibrium_seed,
    isomorphism_check,
    linearize,
    lsi_probe,
    pencil_eigenvalues,
    solve_semilinear,
    solve_stationary,
)
from fracch.errors import ConfigurationError, JacobianSingularError
from fracch.evolution import StepConfig, evolve
from fracch.mesh import FracMesh, interpolate, tridiagonal_product
from fracch.operators import FracExponents, build_operator_set
from fracch.potentials import custom_potential, double_well


def kernel_and_projection(L, M):
    """The M-orthonormal kernel basis V of the pencil (L, M) and P = V V^T M."""
    V = equilibrium._pencil_kernel(L.copy, M)[2]
    return V, V @ tridiagonal_product(*M, V).T


def test_zero_initial_guess_returns_zero(ctx64):
    rep = solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count), tol=1e-10)
    assert np.all(rep.phi == 0.0)
    assert rep.residual_dual == 0.0


def test_small_domain_converges_to_zero(ctx64):
    # lambda_1 > 1 on (-1,1): zero is the only nearby equilibrium
    assert ctx64.ops.lowest_mode()[0] > 1.0
    u_init = 0.5 * interpolate(ctx64.ops.mesh, lambda x: np.sin(np.pi * x))
    rep = solve_stationary(ctx64, u_init, tol=1e-10)
    assert rep.linf < 1e-8
    assert rep.residual_dual < 1e-10


def test_wide_domain_nontrivial_equilibrium(ctx64_wide):
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=1e-10)
    assert rep.linf > 0.5
    assert rep.residual_dual < 1e-10
    assert rep.linf <= 1.0 + 10.0 * ctx64_wide.ops.mesh.h  # the maximum principle
    # stationarity is consistent with the energy gradient
    assert ctx64_wide.ops.dual_norm_sigma(energy_gradient(ctx64_wide, rep.phi)) < 1e-10


def test_stationary_newton_evaluates_the_grid_once_per_residual(ctx64_wide, monkeypatch):
    calls = {"quad": 0, "residuals": 0, "jacobians": 0}
    values_at_quad = EnergyContext.values_at_quad

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(EnergyContext, "values_at_quad", counted("quad", values_at_quad))
    monkeypatch.setattr(equilibrium, "load_vector", counted("residuals", equilibrium.load_vector))
    monkeypatch.setattr(equilibrium, "weighted_mass",
                        counted("jacobians", equilibrium.weighted_mass))
    seed = default_equilibrium_seed(ctx64_wide)
    rep = solve_stationary(ctx64_wide, seed, tol=1e-10)
    # each Jacobian takes g' from the accepted trial's residual: no grid evaluation of its own
    assert calls["jacobians"] == len(rep.newton_history) >= 2
    assert calls["quad"] == calls["residuals"] > calls["jacobians"]


def test_linearize_at_zero(ctx64):
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    Md = add_tridiagonal(np.zeros_like(L), *ctx64.ops.M)
    assert np.allclose(L, ctx64.ops.A_sigma - Md, atol=1e-13)
    assert np.array_equal(L, L.T)


def test_spectral_shift_identity(ctx64):
    A, M = ctx64.ops.A_sigma, ctx64.ops.M
    shifted = pencil_eigenvalues(A - add_tridiagonal(np.zeros_like(A), *M), M)
    base = pencil_eigenvalues(A, M)
    assert np.max(np.abs(shifted - (base - 1.0))) < 1e-10
    lam1 = ctx64.ops.lowest_mode()[0]
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    assert abs(pencil_eigenvalues(L, M)[0] - (lam1 - 1.0)) < 1e-10


def test_kernel_empty_for_nondegenerate(ctx64):
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    V, P = kernel_and_projection(L, ctx64.ops.M)
    assert V.shape == (L.shape[0], 0)
    assert np.all(P == 0.0)


def test_planted_kernel_recovered(ctx64):
    M = ctx64.ops.M
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    Md = add_tridiagonal(np.zeros_like(L), *M)
    Lt, mode = plant_zero_mode(L, Md, index=0)
    V, P = kernel_and_projection(Lt, M)
    assert V.shape[1] == 1
    overlap = abs(V[:, 0] @ Md @ mode)  # both M-normalized
    assert abs(overlap - 1.0) < 1e-8
    assert np.max(np.abs(P @ P - P)) < 1e-10
    assert np.max(np.abs(Md @ P - P.T @ Md)) < 1e-10  # M-self-adjoint
    # the shifted spectrum gives the condition number of the dense pencil (L + M P, M)
    mu, run, _ = equilibrium._pencil_kernel(Lt.copy, M)
    nu = np.abs(eigh(Lt + Md @ V @ V.T @ Md, Md, eigvals_only=True))
    assert isomorphism_check(mu, run) == pytest.approx(nu.max() / nu.min(), rel=1e-10)


def test_isomorphism_check(ctx64, rng):
    M = ctx64.ops.M
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    Md = add_tridiagonal(np.zeros_like(L), *M)
    mu, run, _ = equilibrium._pencil_kernel(L.copy, M)
    assert run.size == 0
    cond_plain = isomorphism_check(mu, run)
    assert math.isfinite(cond_plain)
    nu = np.abs(eigh(L, Md, eigvals_only=True))  # no kernel: the pencil (L, M) itself
    assert cond_plain == pytest.approx(nu.max() / nu.min(), rel=1e-12)

    Lt, _ = plant_zero_mode(L, Md, index=0)
    mu, run, _ = equilibrium._pencil_kernel(Lt.copy, M)
    assert np.linalg.cond(Lt) > 1e12  # singular without the projection
    assert isomorphism_check(mu, run[:0]) > 1e12
    assert isomorphism_check(mu, run) < 1e6

    X = rng.standard_normal((10, 10))
    spd = X @ X.T + 10 * np.eye(10)
    assert math.isfinite(isomorphism_check(*equilibrium._pencil_kernel(
        spd.copy, (np.ones(10), np.zeros(9)))[:2]))


def test_pencil_eigenvalues_match_full_solve(ctx64):
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    full, _ = eigh(L, add_tridiagonal(np.zeros_like(L), *ctx64.ops.M))
    mu = pencil_eigenvalues(L, ctx64.ops.M)
    assert np.max(np.abs(mu - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("first", [0, 1])
def test_planted_two_dimensional_kernel_recovered(ctx64, monkeypatch, first):
    # first = 1 shifts one pencil eigenvalue below zero, so the kernel is an
    # interior run (1, 2) of the sorted spectrum rather than its start
    M = ctx64.ops.M
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    Md = add_tridiagonal(np.zeros_like(L), *M)
    if first:
        low = pencil_eigenvalues(L, M)[:2]
        L = L - 0.5 * (low[0] + low[1]) * Md
    Lt, mode_a = plant_zero_mode(L, Md, index=first)
    Lt, mode_b = plant_zero_mode(Lt, Md, index=first + 1)
    # each call a fresh copy: the kernel's solve reduces L again, in its own memory
    monkeypatch.setattr(equilibrium, "linearize", lambda ctx, phi: Lt.copy())
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    assert len(rep.kernel_basis) == 2
    assert rep.theta_hint is None
    tol = 1e-8 * np.max(np.abs(rep.pencil_eigs))  # the default kernel tolerance
    assert np.count_nonzero(rep.pencil_eigs <= -tol) == first
    B = np.column_stack(rep.kernel_basis)
    assert np.max(np.abs(B.T @ Md @ B - np.eye(2))) < 1e-10  # M-orthonormal
    for mode in (mode_a, mode_b):  # each planted mode lies in the recovered span
        assert abs(np.linalg.norm(B.T @ Md @ mode) - 1.0) < 1e-8
    V, P = kernel_and_projection(Lt, M)
    assert V.shape[1] == 2
    assert np.max(np.abs(P @ P - P)) < 1e-10
    assert np.max(np.abs(Md @ P - P.T @ Md)) < 1e-10  # M-self-adjoint
    assert math.isfinite(rep.iso_condition)
    # the shifted spectrum gives the condition number of the dense pencil (L + M P, M)
    nu = np.abs(eigh(Lt + Md @ B @ B.T @ Md, Md, eigvals_only=True))
    assert rep.iso_condition == pytest.approx(nu.max() / nu.min(), rel=1e-10)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complete_report_with_a_kernel_forms_no_projection(monkeypatch):
    # with a kernel the report holds one L at a time, reduced in its own
    # memory; a dense P = V V^T M would be a second dof x dof array
    dof = 512
    ops = build_operator_set(FracMesh(-1.0, 1.0, dof + 1), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    L, _ = plant_zero_mode(linearize(ctx, np.zeros(dof)),
                           add_tridiagonal(np.zeros((dof, dof)), *ops.M))
    monkeypatch.setattr(equilibrium, "linearize", lambda ctx, phi: L.copy())
    rep = solve_stationary(ctx, np.zeros(dof))
    rep, peak = _traced_peak(complete_report, ctx, rep)
    peak /= 8 * dof**2
    assert len(rep.kernel_basis) == 1
    assert math.isfinite(rep.iso_condition)
    assert peak < 2.5, peak


def _split_context(n_elems):
    """A split-exponent context, its A_sigma factor cached as a run's seed caches it."""
    ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(0.3, 0.7))
    ops.dual_norm_sigma(np.ones(ops.mesh.dof_count))
    return EnergyContext(ops=ops, pot=double_well(4.0))


@pytest.fixture(scope="module")
def ctx200_split():
    return _split_context(200)


def _degenerate_context(n_elems):
    # sigma = 1/2 on (-L, L), L just below lambda_1 of (-1, 1): the zero state
    # is stationary and its linearization has the eigenvalue about 1e-9
    L = build_operator_set(FracMesh(-1.0, 1.0, n_elems), FracExponents(0.5, 0.5)).lowest_mode()[0]
    L *= 1 - 1e-9
    ops = build_operator_set(FracMesh(-L, L, n_elems), FracExponents(0.5, 0.5))
    return EnergyContext(ops=ops, pot=double_well(4.0))


def test_stationary_newton_holds_one_jacobian(ctx200_split):
    # beside A_sigma and its factor, the Newton steps share one Jacobian buffer
    seed = default_equilibrium_seed(ctx200_split)
    rep, peak = _traced_peak(solve_stationary, ctx200_split, seed)
    assert len(rep.newton_history) >= 2
    assert peak / ctx200_split.ops.A_sigma.nbytes < 1.5


def _spy_factorizations(monkeypatch):
    """A list that records (routine, LAPACK info) for each dposv and dgesv of the Newton."""
    calls = []

    def spy(name):
        routine = getattr(equilibrium, name)

        def wrapper(*args, **kwargs):
            out = routine(*args, **kwargs)
            calls.append((name, out[-1]))
            return out
        return wrapper

    for name in ("dposv", "dgesv"):
        monkeypatch.setattr(equilibrium, name, spy(name))
    return calls


@pytest.mark.parametrize("name", ["ctx200_split", "ctx64_wide"])
def test_stable_newton_factors_every_jacobian_by_cholesky(name, request, monkeypatch):
    # the seed leads to a stable state, and every Jacobian on the way is positive definite
    ctx = request.getfixturevalue(name)
    calls = _spy_factorizations(monkeypatch)
    rep = solve_stationary(ctx, default_equilibrium_seed(ctx))
    assert len(rep.newton_history) >= 2
    assert calls == [("dposv", 0)] * len(rep.newton_history)


@pytest.mark.parametrize("n_elems, s, sigma", [(64, 0.5, 0.5), (128, 0.3, 0.7)])
def test_saddle_search_switches_to_lu_once(n_elems, s, sigma, monkeypatch):
    # Newton from 0.9 sin(pi x / 4) reaches the antisymmetric kink, a saddle:
    # its Jacobians turn indefinite on the way
    ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(s, sigma))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    calls = _spy_factorizations(monkeypatch)
    u_init = 0.9 * interpolate(ops.mesh, lambda x: np.sin(np.pi * x / 4))
    rep = complete_report(ctx, solve_stationary(ctx, u_init))
    assert rep.residual_dual < 1e-10
    assert rep.linf > 0.5
    assert np.max(np.abs(rep.phi + rep.phi[::-1])) <= 1e-12  # the nodes are symmetric about 0
    assert np.count_nonzero(rep.pencil_eigs < 0) == 1
    # Cholesky until one fails, then LU for the rest of the solve
    failed = [k for k, (routine, info) in enumerate(calls) if routine == "dposv" and info > 0]
    assert len(failed) == 1
    assert calls[:failed[0]] == [("dposv", 0)] * failed[0]
    assert calls[failed[0] + 1:] == [("dgesv", 0)] * (len(calls) - failed[0] - 1)
    assert len(calls) == len(rep.newton_history) + 1


def test_singular_jacobian_raises(monkeypatch):
    # dof 1, and B' = -A_sigma: the Jacobian is exactly zero
    ops = build_operator_set(FracMesh(-4.0, 4.0, 2), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    monkeypatch.setattr(equilibrium, "weighted_mass",
                        lambda ctx, f_prime: (-ops.A_sigma[0], np.empty(0)))
    calls = _spy_factorizations(monkeypatch)
    with pytest.raises(JacobianSingularError,
                       match=r"^singular Jacobian in the stationary solve \(degenerate"):
        solve_stationary(ctx, np.full(1, 0.5))
    assert calls == [("dposv", 1), ("dgesv", 1)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 40), negatives=st.integers(0, 3),
       cholesky=st.booleans())
def test_newton_direction_matches_a_dense_solve(data, n, negatives, cholesky):
    # J = Q diag(lam) Q^T with 0.1 <= |lam| <= 10, so cond(J) <= 100, split
    # into the dense part and a random tridiagonal the Newton adds to it
    negatives = min(negatives, n)
    mags = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    lam = np.where(np.arange(n) < negatives, -mags, mags)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    J = (Q * lam) @ Q.T
    J = 0.5 * (J + J.T)
    B = (rng.standard_normal(n), rng.standard_normal(n - 1))
    A = J - add_tridiagonal(np.zeros((n, n)), *B)
    jacobian = add_tridiagonal(A.copy(), *B)  # the sum as the Newton forms it
    rhs = rng.standard_normal(n)
    A_in, rhs_in = A.copy(), rhs.copy()
    direction, used = equilibrium._newton_direction(np.empty((n, n)), A, B, rhs, cholesky)
    assert used == (cholesky and negatives == 0)
    ref = np.linalg.solve(jacobian, rhs)
    # two backward-stable solves: each within n eps cond of the exact solution
    cond = np.abs(lam).max() / np.abs(lam).min()
    bound = 10 * n * np.finfo(float).eps * cond * np.linalg.norm(ref)
    assert np.linalg.norm(direction - ref) <= bound
    assert np.array_equal(A, A_in) and np.array_equal(rhs, rhs_in)


@pytest.mark.parametrize("kernel", [False, True])
def test_complete_report_holds_one_linearization(kernel):
    # beside A_sigma and its factor, the report reduces each L in its own
    # memory, and checks it for finiteness with no n x n mask: at dof 767 a
    # bool mask (1/8 of an array) outweighs the eigensolver's O(n) workspace
    ctx = _degenerate_context(768) if kernel else _split_context(768)
    seed = np.zeros(ctx.ops.mesh.dof_count) if kernel else default_equilibrium_seed(ctx)
    rep = solve_stationary(ctx, seed)  # caches the degenerate context's factor too
    rep, peak = _traced_peak(complete_report, ctx, rep)
    assert len(rep.kernel_basis) == kernel
    assert peak / ctx.ops.A_sigma.nbytes < 1.1


def test_empty_kernel_solves_for_eigenvalues_only(ctx64, monkeypatch):
    calls = []

    def recording_eigh(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "eigh", recording_eigh)
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    assert len(rep.kernel_basis) == 0
    assert len(calls) == 1 and calls[0].get("eigvals_only")  # the spectrum alone


def test_kernel_adds_one_subset_eigensolve(ctx64, monkeypatch):
    calls = []

    def recording_eigh(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    M = ctx64.ops.M
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    Lt, _ = plant_zero_mode(L, add_tridiagonal(np.zeros_like(L), *M), index=0)
    monkeypatch.setattr(equilibrium, "linearize", lambda ctx, phi: Lt.copy())
    monkeypatch.setattr(equilibrium, "eigh", recording_eigh)
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    assert len(rep.kernel_basis) == 1
    assert [kw.get("eigvals_only", False) for kw in calls] == [True, False]
    assert calls[1]["subset_by_index"] == (0, 0)


@pytest.mark.parametrize("kind", ["spd", "indefinite"])
@pytest.mark.parametrize("seed", range(4))
def test_isomorphism_check_equals_cond(kind, seed):
    # with M = I the M inner product is the Euclidean one
    rng = np.random.default_rng(seed)
    n = 8 + 9 * seed
    X = rng.standard_normal((n, n))
    A = X @ X.T + 0.1 * np.eye(n) if kind == "spd" else X + X.T
    mu, run, _ = equilibrium._pencil_kernel(A.copy, (np.ones(n), np.zeros(n - 1)))
    assert run.size == 0
    assert isomorphism_check(mu, run) == pytest.approx(np.linalg.cond(A), rel=1e-12)


@pytest.mark.parametrize("A", [np.diag([2.0, 0.0, 1.0]), np.zeros((3, 3))])
def test_isomorphism_check_singular_is_inf(A):
    # a RuntimeWarning here would be an error under the pytest settings
    mu = pencil_eigenvalues(A, (np.ones(3), np.zeros(2)))
    assert isomorphism_check(mu, np.empty(0, dtype=int)) == math.inf  # no kernel projected out
    assert np.linalg.cond(A) == math.inf
    # the kernel's projection makes diag(2, 0, 1) an isomorphism; the zero
    # matrix has no scale to detect a kernel against, so it stays singular
    mu, run, _ = equilibrium._pencil_kernel(A.copy, (np.ones(3), np.zeros(2)))
    assert isomorphism_check(mu, run) == (2.0 if A.any() else math.inf)


@pytest.mark.parametrize("where", ["everywhere", "upper"])
def test_isomorphism_check_nan_raises(where):
    # a non-finite linearization fails at its spectrum, before the check
    A = np.full((3, 3), np.nan) if where == "everywhere" else np.eye(3)
    A[0, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        equilibrium._pencil_kernel(A.copy, (np.ones(3), np.zeros(2)))


def test_complete_report_fields(ctx64):
    rep = solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count), tol=1e-10)
    rep = complete_report(ctx64, rep)
    assert len(rep.kernel_basis) == 0
    assert rep.theta_hint == 0.5
    assert np.all(np.diff(rep.pencil_eigs) >= 0)
    assert math.isfinite(rep.iso_condition)


def test_evolving_from_equilibrium_stays(ctx64_wide):
    tol = 1e-12
    rep = solve_stationary(ctx64_wide, default_equilibrium_seed(ctx64_wide), tol=tol)
    traj = evolve(ctx64_wide, StepConfig(tau=1e-4), rep.phi, t_end=100 * 1e-4)
    M = add_tridiagonal(np.zeros_like(ctx64_wide.ops.A_sigma), *ctx64_wide.ops.M)
    for u in traj.states:
        drift = math.sqrt((np.asarray(u) - rep.phi) @ M @ (np.asarray(u) - rep.phi))
        assert drift <= 10 * 1e-10


def test_beta_bound_at_elliptic_solves(ctx64, rng):
    # discrete analogue of the L2 bound on beta(u) for A u + b_beta(u) = M f
    ops = ctx64.ops
    mesh = ops.mesh
    pot = ctx64.pot
    w, _, _ = ctx64.quad_data
    Md = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)
    for _ in range(5):
        coeffs = rng.standard_normal(4)
        f = interpolate(
            mesh,
            lambda x: sum(c * np.sin((k + 1) * np.pi * x / 4) for k, c in enumerate(coeffs)),
        )
        u, res, history = solve_semilinear(ctx64, Md @ f, pot.beta_pair, tol=1e-11)
        assert res < 1e-11
        assert history and all(0.0 < alpha <= 1.0 for _, alpha in history)
        residuals = [r for r, _ in history] + [res]  # each accepted step decreased it
        assert all(after < before for before, after in zip(residuals, residuals[1:]))
        beta_l2 = math.sqrt(float((pot.beta_pair(ctx64.values_at_quad(u))[0] ** 2 @ w).sum()))
        f_l2 = math.sqrt(float(f @ Md @ f))
        assert beta_l2 <= f_l2 * (1.0 + 10.0 * mesh.h)


def test_default_seed_branches(ctx64, ctx64_wide):
    assert np.all(default_equilibrium_seed(ctx64) == 0.0)
    seed = default_equilibrium_seed(ctx64_wide)
    assert np.max(np.abs(seed)) == pytest.approx(0.9)


@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5, 0.7, 0.99])
def test_default_seed_matches_generalized_eigh(sigma):
    for n_elems in (2, 3, 8, 64, 257):  # dof 1 included: the scalar pencil
        ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(sigma, sigma))
        ctx = EnergyContext(ops=ops, pot=double_well(4.0))
        # the seed as the dense generalized solve gave it
        Md = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)
        mu, V = eigh(linearize(ctx, np.zeros(ops.mesh.dof_count)), Md, subset_by_index=(0, 0))
        assert mu[0] < 0  # zero is unstable, so the seed is the scaled mode
        v = V[:, 0]
        v = v if v[np.argmax(np.abs(v))] > 0 else -v
        ref = 0.9 * v / np.max(np.abs(v))
        assert np.max(np.abs(default_equilibrium_seed(ctx) - ref)) <= 1e-10, n_elems


@pytest.mark.parametrize("n_elems", [2, 64])
def test_default_seed_stable_branch_at_the_threshold(n_elems):
    # g = c r makes the linearization at zero A_sigma + c M, stable iff lambda_1 + c >= 0
    ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(0.5, 0.5))
    lam1 = ops.lowest_mode()[0]

    def seed(c):
        pot = custom_potential(lambda r: c * np.asarray(r, dtype=float),
                               lambda r: np.full(np.shape(r), c),
                               lambda r: 0.5 * c * np.asarray(r, dtype=float) ** 2,
                               lam=-c, check=False)
        return default_equilibrium_seed(EnergyContext(ops=ops, pot=pot))

    assert np.all(seed(-lam1) == 0.0)  # lambda_1 + g'(0) = 0: zero is stable
    below = seed(np.nextafter(-lam1, -np.inf))  # lambda_1 + g'(0) = -1 ulp
    assert np.max(np.abs(below)) == pytest.approx(0.9)
    assert below[np.argmax(np.abs(below))] > 0


def test_pencil_functions_leave_their_arguments_alone(ctx64):
    M = ctx64.ops.M
    L = linearize(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    L, _ = plant_zero_mode(L, add_tridiagonal(np.zeros_like(L), *M))
    L_in, M_in = L.copy(), [m.copy() for m in M]
    pencil_eigenvalues(L, M)
    mu, run, _ = equilibrium._pencil_kernel(L.copy, M)
    assert run.size == 1
    mu_in = mu.copy()
    isomorphism_check(mu, run)
    isomorphism_check(mu, run[:0])
    for arg, before in zip((L, *M, mu), (L_in, *M_in, mu_in)):
        assert np.array_equal(arg, before)


_EDGE_EXPONENTS = st.one_of(st.floats(0.01, 0.05), st.floats(0.45, 0.55), st.floats(0.95, 0.99))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=_EDGE_EXPONENTS, n_elems=st.integers(4, 24),
       picks=st.lists(st.integers(0, 10**6), max_size=2))
def test_kernel_projection_shifts_the_kernel_run_by_one(s, n_elems, picks):
    # (L + M V V^T M, M) is (L, M) with each kernel eigenvalue raised by 1:
    # the identity isomorphism_check reads the condition number from
    ops = build_operator_set(FracMesh(-4.0, 4.0, n_elems), FracExponents(s, s))
    L = linearize(EnergyContext(ops=ops, pot=double_well(4.0)), np.zeros(ops.mesh.dof_count))
    Md = add_tridiagonal(np.zeros_like(L), *ops.M)
    for pick in picks:  # zero a pencil eigenvalue that is not zero yet
        live = np.flatnonzero(np.abs(eigh(L, Md, eigvals_only=True)) > 1e-6)
        L, _ = plant_zero_mode(L, Md, index=int(live[pick % live.size]))
    mu, run, V = equilibrium._pencil_kernel(L.copy, ops.M)
    assert run.size == V.shape[1] == len(picks)
    shifted = mu.copy()
    shifted[run] += 1.0
    nu = eigh(L + Md @ V @ V.T @ Md, Md, eigvals_only=True)
    assert np.max(np.abs(np.sort(shifted) - nu)) <= 1e-10 * np.max(np.abs(mu))


def test_lsi_probe_nondegenerate(ctx64, rng):
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    res = lsi_probe(ctx64, rep, theta=0.5, delta=0.01, samples=300, rng=rng)
    assert res.used == 300 and res.skipped == 0
    assert math.isfinite(res.max_ratio)
    assert res.max_ratio < 2.0 * res.median_ratio
    assert not res.diverging


def test_lsi_probe_smaller_theta_has_room(ctx64, rng):
    # theta = 1/4 is a weaker exponent: ratios shrink as r -> 0
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    res = lsi_probe(ctx64, rep, theta=0.25, delta=0.01, samples=400, rng=rng)
    assert res.decade_medians[2] < res.decade_medians[0]


def test_lsi_probe_skips_vanishing_gradient(ctx64, rng):
    rep = complete_report(ctx64, solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count)))
    res = lsi_probe(
        ctx64, rep, theta=0.5, delta=0.01, samples=50, rng=rng,
        energy_fn=lambda v: 0.0, grad_fn=lambda v: np.zeros_like(v),
    )
    assert res.skipped == 50 and res.used == 0


def test_lsi_probe_validation(ctx64):
    rep = solve_stationary(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    with pytest.raises(ConfigurationError):
        lsi_probe(ctx64, rep, theta=0.0, delta=0.01, samples=10)
    with pytest.raises(ConfigurationError):
        lsi_probe(ctx64, rep, theta=0.5, delta=-1.0, samples=10)
