import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gagliardo_oracle import oracle_entry
from per_distance_assembly import _power_integral as scalar_power_integral
from per_distance_assembly import per_distance_assembly

from fracch.errors import AssemblyError, ConfigurationError
from fracch.mesh import build_uniform_mesh, interpolate
from fracch.operators import (
    FracExponents,
    _power_integral,
    _self_pair_integral,
    _separated_blocks,
    _touching_local,
    assemble_gagliardo,
    build_operator_set,
    dual_norm,
    load_stiffness,
    normalization_constant,
    rayleigh_lambda1,
    save_stiffness,
    xnorm,
)


def test_normalization_constant_half():
    # high-precision special-function oracle for the Gamma formula
    import mpmath

    assert abs(normalization_constant(1, 0.5) - 1.0 / math.pi) < 1e-14
    for s in (0.1, 0.25, 0.75, 0.9):
        ref = float(
            mpmath.mpf(s) * mpmath.mpf(4) ** s * mpmath.gamma(s + 0.5)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s))
        )
        assert abs(normalization_constant(1, s) - ref) < 1e-13 * ref


def test_normalization_constant_tracks_reciprocal_gamma():
    # the constant scales as 1/Gamma(1-s): it vanishes monotonically toward
    # s = 1 (compensating the blowup of the raw seminorm near the classical
    # limit), with C(1,s) * Gamma(1-s) -> 2
    from scipy.special import gamma

    vals = [normalization_constant(1, s) for s in (0.9, 0.95, 0.99)]
    assert vals[0] > vals[1] > vals[2] > 0
    tracked = [v * gamma(1.0 - s) for v, s in zip(vals, (0.9, 0.95, 0.99))]
    assert abs(tracked[2] - 2.0) < abs(tracked[0] - 2.0)
    assert abs(tracked[2] - 2.0) < 0.05
    assert normalization_constant(1, 0.25) > 0
    assert normalization_constant(1, 0.75) > 0
    with pytest.raises(ConfigurationError):
        normalization_constant(1, 1.0)
    with pytest.raises(ConfigurationError):
        normalization_constant(1, 0.0)


def test_assembly_symmetric_exactly(mesh8):
    for s in (0.25, 0.5, 0.75):
        A = assemble_gagliardo(mesh8, s, normalization_constant(1, s))
        assert np.array_equal(A, A.T)


def test_assembly_deterministic(mesh8):
    C = normalization_constant(1, 0.5)
    A1 = assemble_gagliardo(mesh8, 0.5, C)
    A2 = assemble_gagliardo(mesh8, 0.5, C)
    assert np.array_equal(A1, A2)


def test_assembly_matches_oracle_s_half(mesh8):
    C = normalization_constant(1, 0.5)
    A = assemble_gagliardo(mesh8, 0.5, C)
    for i in range(mesh8.dof_count):
        for j in range(i, mesh8.dof_count):
            ref = oracle_entry(mesh8, 0.5, C, i, j)
            assert abs(A[i, j] - ref) <= 1e-4 * abs(ref)


def _two_sided_exterior(mesh, s, k):
    """Exterior block of element k, nodes (k, k+1), integrated on each side directly."""
    h, n = mesh.h, mesh.n_elems
    keep = (k >= 1, k + 1 <= n - 1)
    lo_l, hi_l = mesh.nodes[k] - mesh.a, mesh.nodes[k + 1] - mesh.a  # t = x - a
    lo_r, hi_r = mesh.b - mesh.nodes[k + 1], mesh.b - mesh.nodes[k]  # t = b - x
    sides = (
        (lo_l, hi_l, ((hi_l / h, -1.0 / h), (-lo_l / h, 1.0 / h))),
        (lo_r, hi_r, ((-lo_r / h, 1.0 / h), (hi_r / h, -1.0 / h))),
    )
    out = np.zeros((2, 2))
    for lo, hi, lin in sides:
        for i in range(2):
            for j in range(2):
                if keep[i] and keep[j]:
                    (c0i, c1i), (c0j, c1j) = lin[i], lin[j]
                    coeffs = (c0i * c0j, c0i * c1j + c1i * c0j, c1i * c1j)
                    out[i, j] += sum(c * _power_integral(lo, hi, m - 2.0 * s)
                                     for m, c in enumerate(coeffs) if c != 0.0) / s
    return out


def _element_pair_reference(mesh, s, C_s):
    """Stiffness matrix by visiting every element pair (k, l), k <= l."""
    n, h = mesh.n_elems, mesh.h
    raw = np.zeros((n - 1, n - 1))

    def scatter(nodes, block, weight):
        for p, gp in enumerate(nodes):
            for q, gq in enumerate(nodes):
                if 1 <= gp <= n - 1 and 1 <= gq <= n - 1:
                    raw[gp - 1, gq - 1] += weight * block[p, q]

    same = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (_self_pair_integral(h, s) / (h * h))
    for k in range(n):
        scatter((k, k + 1), same, 1.0)
        if k + 1 < n:
            scatter((k, k + 1, k + 2), _touching_local(h, s), 2.0)
        for l in range(k + 2, n):
            scatter((k, k + 1, l, l + 1), _separated_blocks(h, s, l - k), 2.0)
        scatter((k, k + 1), _two_sided_exterior(mesh, s, k), 1.0)
    A = 0.5 * C_s * raw
    return 0.5 * (A + A.T)


_EXPONENTS = [0.01, 0.25, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.75, 0.99]


@pytest.mark.parametrize("n", [2, 3, 8, 33])
@pytest.mark.parametrize("s", _EXPONENTS)
def test_assembly_matches_element_pair_reference(n, s):
    mesh = build_uniform_mesh(-1.0, 1.0, n)
    C = normalization_constant(1, s)
    A = assemble_gagliardo(mesh, s, C)
    ref = _element_pair_reference(mesh, s, C)
    assert np.linalg.norm(A - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("s", _EXPONENTS)
def test_assembly_matches_per_distance_assembly(n, s):
    mesh = build_uniform_mesh(-1.0, 1.0, n)
    C = normalization_constant(1, s)
    A = assemble_gagliardo(mesh, s, C)
    ref = per_distance_assembly(mesh, s, C)
    assert np.all(np.isfinite(A))
    # The complement moments of element k cancel to about k^2 eps relative, so
    # a one-ulp difference between numpy's array log and power and the scalar
    # math ones moves the matrix by up to about n^(2-2s) eps normwise.
    tol = max(1e-12, 4.0 * n ** (2.0 - 2.0 * s) * np.finfo(float).eps)
    assert np.linalg.norm(A - ref, 2) <= tol * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("p", [-1.0, -0.98, -0.5, 0.0, 0.98, 1.5])
def test_power_integral_is_elementwise(p):
    # mixed lo = 0 and lo > 0 entries, and the log case p = -1
    lo = np.array([0.0, 0.25, 1.0, 7.0, 1e3]) if p > -1.0 else np.array([0.25, 1.0, 7.0, 1e3])
    hi = lo + 0.5
    got = _power_integral(lo, hi, p)
    ref = np.array([scalar_power_integral(a, b, p) for a, b in zip(lo, hi)])
    assert got.shape == lo.shape
    assert np.allclose(got, ref, rtol=1e-14, atol=0.0)
    with pytest.raises(AssemblyError):
        _power_integral(np.array([0.0, 1.0]), 2.0, -1.0)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 20.0),
    n=st.integers(2, 48),
    s=st.floats(0.01, 0.99),
)
def test_assembly_symmetric_definite_persymmetric(a, width, n, s):
    # x -> a+b-x maps the uniform mesh onto itself and reverses the node order
    A = assemble_gagliardo(build_uniform_mesh(a, a + width, n), s, normalization_constant(1, s))
    assert np.array_equal(A, A.T)
    np.linalg.cholesky(A)  # raises unless positive definite
    assert np.max(np.abs(A - A[::-1, ::-1])) <= 1e-14 * np.max(np.abs(A))


def test_assembly_rejects_nonfinite_constant(mesh8):
    with pytest.raises(ConfigurationError):
        assemble_gagliardo(mesh8, 0.5, float("inf"))


def test_refinement_toward_torsion_seminorm():
    # (1-x^2)^(1/2) is the s=1/2 profile with constant fractional Laplacian 1,
    # so its continuum seminorm is exactly integral of the profile = pi/2;
    # interpolant energies cross that limit near n=32, then the error decays
    profile = lambda x: max(0.0, 1.0 - x * x) ** 0.5  # noqa: E731
    C = normalization_constant(1, 0.5)
    errors = []
    for n in (64, 128, 256):
        mesh = build_uniform_mesh(-1.0, 1.0, n)
        A = assemble_gagliardo(mesh, 0.5, C)
        v = interpolate(mesh, profile)
        errors.append(abs(xnorm(A, v) ** 2 - math.pi / 2))
    assert errors[1] < 0.75 * errors[0]
    assert errors[2] < 0.75 * errors[1]
    assert errors[-1] < 3e-3


def test_xnorm_basics(ops8, rng):
    A = ops8.A_s
    assert xnorm(A, np.zeros(ops8.mesh.dof_count)) == 0.0
    v = rng.standard_normal(ops8.mesh.dof_count)
    assert abs(xnorm(A, v) ** 2 - v @ A @ v) < 1e-12 * abs(v @ A @ v)
    assert abs(xnorm(A, 2 * v) - 2 * xnorm(A, v)) < 1e-12 * xnorm(A, v)
    with pytest.raises(ValueError):
        xnorm(A, np.zeros(3))


def test_dual_norm_identity(ops64, rng):
    A = ops64.A_s
    for _ in range(100):
        v = rng.standard_normal(ops64.mesh.dof_count)
        nv = xnorm(A, v)
        assert abs(ops64.dual_norm_s(A @ v) - nv) < 1e-10 * nv


def test_dual_norm_zero_and_solve_oracle(ops8):
    dof = ops8.mesh.dof_count
    assert dual_norm(ops8.A_s, np.zeros(dof)) == 0.0
    f = np.zeros(dof)
    f[0] = 1.0
    val = dual_norm(ops8.A_s, f)
    x = np.linalg.solve(ops8.A_s, f)
    assert val > 0
    assert abs(val - math.sqrt(f @ x)) < 1e-12 * val


def test_solve_M_matches_dense_solve(ops8, ops64, rng):
    for ops in (ops8, ops64):
        for _ in range(5):
            f = rng.standard_normal(ops.mesh.dof_count)
            ref = np.linalg.solve(ops.M, f)
            assert np.linalg.norm(ops.solve_M(f) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_dual_norm_rejects_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(AssemblyError):
        dual_norm(A, np.ones(2))


def test_rayleigh_lambda1_refinement():
    vals = []
    for n in (32, 64, 128, 256):
        ops = build_operator_set(build_uniform_mesh(-1, 1, n), FracExponents(0.5, 0.5))
        vals.append(rayleigh_lambda1(ops.A_sigma, ops.M))
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2] > vals[3]
    # stabilized to three significant digits between n=128 and n=256
    assert abs(vals[2] - vals[3]) < 1e-3 * vals[3]


def test_rayleigh_domain_scaling():
    base = build_operator_set(build_uniform_mesh(-1, 1, 128), FracExponents(0.5, 0.5))
    lam1 = rayleigh_lambda1(base.A_sigma, base.M)
    for L in (2.0, 4.0):
        ops = build_operator_set(build_uniform_mesh(-L, L, 128), FracExponents(0.5, 0.5))
        lamL = rayleigh_lambda1(ops.A_sigma, ops.M)
        assert abs(lamL - lam1 / L) < 0.02 * lam1 / L  # 2 sigma = 1 here


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_poincare_invariant_random_vectors(s, rng):
    from fracch.mesh import mass_matrix

    mesh = build_uniform_mesh(-1.0, 1.0, 32)
    C = normalization_constant(1, s)
    A = assemble_gagliardo(mesh, s, C)
    M = mass_matrix(mesh)
    bound = 2.0 / 3.0 ** (1.0 + 2.0 * s)
    V = rng.standard_normal((1000, mesh.dof_count))
    num = (2.0 / C) * np.einsum("ij,ij->i", V, V @ A)
    den = np.einsum("ij,ij->i", V, V @ M)
    assert np.all(num / den >= bound)


def test_positive_definiteness(ops8, ops64):
    for ops in (ops8, ops64):
        assert np.linalg.eigvalsh(ops.A_s).min() > 0


def test_stiffness_dump_roundtrip(tmp_path, ops8):
    path = tmp_path / "a.stf"
    save_stiffness(path, ops8.A_s, ops8.exps.s, ops8.C_s)
    assert path.stat().st_size == 32 + 8 * ops8.mesh.dof_count**2
    A, s, C = load_stiffness(path)
    assert np.array_equal(A, ops8.A_s)
    assert s == ops8.exps.s and C == ops8.C_s


def test_stiffness_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.stf"
    path.write_bytes(b"not a stiffness dump at all" + b"\0" * 16)
    with pytest.raises(AssemblyError):
        load_stiffness(path)


def test_exponent_validation():
    with pytest.raises(ConfigurationError):
        FracExponents(0.0, 0.5)
    with pytest.raises(ConfigurationError):
        FracExponents(0.5, 1.0)
