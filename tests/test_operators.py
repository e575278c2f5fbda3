import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.linalg.lapack import dtrtri

from gagliardo_oracle import oracle_entry
from per_distance_assembly import _power_integral as scalar_power_integral
from per_distance_assembly import per_distance_assembly

from fracch import operators
from fracch.energy import add_tridiagonal
from fracch.errors import AssemblyError, ConfigurationError
from fracch.mesh import FracMesh, interpolate, mass_matrix
from fracch.operators import (
    FracExponents,
    _power_integral,
    _self_pair_integral,
    _separated_blocks,
    _touching_local,
    assemble_gagliardo,
    build_operator_set,
    load_stiffness,
    normalization_constant,
    reduce_pencil,
    reduce_pencil_in_place,
    save_stiffness,
    xnorm,
)


def test_normalization_constant_half():
    # high-precision special-function oracle for the Gamma formula
    import mpmath

    assert abs(normalization_constant(0.5) - 1.0 / math.pi) < 1e-14
    for s in (0.1, 0.25, 0.75, 0.9):
        ref = float(
            mpmath.mpf(s) * mpmath.mpf(4) ** s * mpmath.gamma(s + 0.5)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s))
        )
        assert abs(normalization_constant(s) - ref) < 1e-13 * ref


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False))
@example(s=2.2250738585072014e-308)  # the smallest normal float
@example(s=1e-16)
@example(s=0.5 - 1e-9)
@example(s=0.5)
@example(s=0.5 + 1e-9)
@example(s=1.0 - 1e-12)
@example(s=math.nextafter(1.0, 0.0))
def test_normalization_constant_is_accurate_to_a_few_ulps(s):
    # 40-digit oracle of the same formula at the same float s; the largest
    # relative error seen over 4001 s in (0, 1) is 1.01e-15
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(s)
        ref = x * 4**x * mpmath.gamma(x + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - x))
        err = abs((normalization_constant(s) - ref) / ref)
    assert err <= 4e-15, (s, float(err))


def test_normalization_constant_tracks_reciprocal_gamma():
    # the constant scales as 1/Gamma(1-s): it vanishes monotonically toward
    # s = 1 (compensating the blowup of the raw seminorm near the classical
    # limit), with C_s * Gamma(1-s) -> 2
    from scipy.special import gamma

    vals = [normalization_constant(s) for s in (0.9, 0.95, 0.99)]
    assert vals[0] > vals[1] > vals[2] > 0
    tracked = [v * gamma(1.0 - s) for v, s in zip(vals, (0.9, 0.95, 0.99))]
    assert abs(tracked[2] - 2.0) < abs(tracked[0] - 2.0)
    assert abs(tracked[2] - 2.0) < 0.05
    assert normalization_constant(0.25) > 0
    assert normalization_constant(0.75) > 0
    with pytest.raises(ConfigurationError):
        normalization_constant(1.0)
    with pytest.raises(ConfigurationError):
        normalization_constant(0.0)


def test_assembly_symmetric_exactly(mesh8):
    for s in (0.25, 0.5, 0.75):
        A = assemble_gagliardo(mesh8, s)
        assert np.array_equal(A, A.T)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [256, 768])
def test_assembly_symmetric_exactly_at_benchmark_sizes(n, s):
    # assembly forms no symmetrizing copy, so the placement itself must mirror
    A = assemble_gagliardo(FracMesh(-4.0, 4.0, n), s)
    assert np.array_equal(A, A.T)


def test_assembly_refuses_an_exponent_outside_the_unit_interval(mesh8):
    # the range check is normalization_constant's, with its message
    for s in (0.0, 1.0):
        with pytest.raises(ConfigurationError, match=r"exponent s must lie in \(0,1\)"):
            assemble_gagliardo(mesh8, s)


def test_assembly_deterministic(mesh8):
    A1 = assemble_gagliardo(mesh8, 0.5)
    A2 = assemble_gagliardo(mesh8, 0.5)
    assert np.array_equal(A1, A2)


def test_assembly_matches_oracle_s_half(mesh8):
    C = normalization_constant(0.5)
    A = assemble_gagliardo(mesh8, 0.5)
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
    mesh = FracMesh(-1.0, 1.0, n)
    C = normalization_constant(s)
    A = assemble_gagliardo(mesh, s)
    ref = _element_pair_reference(mesh, s, C)
    assert np.linalg.norm(A - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("s", _EXPONENTS)
def test_assembly_matches_per_distance_assembly(n, s):
    mesh = FracMesh(-1.0, 1.0, n)
    C = normalization_constant(s)
    A = assemble_gagliardo(mesh, s)
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
    A = assemble_gagliardo(FracMesh(a, a + width, n), s)
    assert np.array_equal(A, A.T)
    np.linalg.cholesky(A)  # raises unless positive definite
    assert np.max(np.abs(A - A[::-1, ::-1])) <= 1e-14 * np.max(np.abs(A))


def test_refinement_toward_torsion_seminorm():
    # (1-x^2)^(1/2) is the s=1/2 profile with constant fractional Laplacian 1,
    # so its continuum seminorm is exactly integral of the profile = pi/2;
    # interpolant energies cross that limit near n=32, then the error decays
    profile = lambda x: max(0.0, 1.0 - x * x) ** 0.5  # noqa: E731
    errors = []
    for n in (64, 128, 256):
        mesh = FracMesh(-1.0, 1.0, n)
        A = assemble_gagliardo(mesh, 0.5)
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


def test_dual_norm_zero_and_solve_oracle():
    ops = build_operator_set(FracMesh(-1, 1, 8), FracExponents(0.3, 0.7))
    dof = ops.mesh.dof_count
    f = np.zeros(dof)
    f[0] = 1.0
    for A, norm in ((ops.A_s, ops.dual_norm_s), (ops.A_sigma, ops.dual_norm_sigma)):
        assert norm(np.zeros(dof)) == 0.0
        val = norm(f)
        x = np.linalg.solve(A, f)
        assert val > 0
        assert abs(val - math.sqrt(f @ x)) < 1e-12 * val


def test_solve_M_matches_dense_solve(ops8, ops64, rng):
    for ops in (ops8, ops64):
        for _ in range(5):
            f = rng.standard_normal(ops.mesh.dof_count)
            ref = np.linalg.solve(add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M), f)
            assert np.linalg.norm(ops.solve_M(f) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_dual_norm_rejects_indefinite(ops8):
    f = np.ones(ops8.mesh.dof_count)
    ops8.dual_norm_s(f)  # caches P of the positive definite A_s
    # a copy must not read that P; at s = sigma, A_s is A_sigma
    ops = replace(ops8, A_sigma=-ops8.A_sigma)
    with pytest.raises(AssemblyError, match="matrix A_s is not positive definite"):
        ops.dual_norm_s(f)
    assert "P" not in vars(ops)


_EDGE_S = (0.01, 0.25, 0.5, 0.75, 0.99)
# each edge s with s = sigma (A_s is A_sigma) and with s != sigma (A_s assembled apart)
_EDGE_EXPONENTS = [(s, s) for s in _EDGE_S] + [(s, 0.6) for s in _EDGE_S]


@pytest.mark.parametrize("n_elems", [64, 768])
@pytest.mark.parametrize("exps", _EDGE_EXPONENTS)
def test_dual_norm_s_through_p_at_edge_exponents(exps, n_elems, rng):
    # |A_s v|_{A_s^{-1}} = |v|_{A_s}, with A_s^{-1} taken from P = M A_s^{-1} M alone
    ops = build_operator_set(FracMesh(-1.0, 1.0, n_elems), FracExponents(*exps))
    for _ in range(20):
        v = rng.standard_normal(ops.mesh.dof_count)
        nv = xnorm(ops.A_s, v)
        assert abs(ops.dual_norm_s(ops.A_s @ v) - nv) <= 1e-10 * nv


@pytest.mark.parametrize("exps", _EDGE_EXPONENTS)
def test_w_from_p_solves_the_flux_equation_at_edge_exponents(exps, rng):
    # the documented w_n = -M^{-1} P du / tau solves A_s w_n = -M du / tau
    ops = build_operator_set(FracMesh(-1.0, 1.0, 64), FracExponents(*exps))
    M = add_tridiagonal(np.zeros_like(ops.A_sigma), *ops.M)

    def m_inv_norm(r):
        return math.sqrt(r @ ops.solve_M(r))

    tau = 1e-3
    for _ in range(20):
        du = rng.standard_normal(ops.mesh.dof_count)
        w = -ops.solve_M(ops.P @ du) / tau
        flux = M @ du / tau
        assert m_inv_norm(ops.A_s @ w + flux) <= 1e-12 * m_inv_norm(flux)
    # a copy whose A_s is indefinite fails in P's factorization, the only one of A_s
    bad = replace(ops)
    vars(bad)["A_s"] = -ops.A_s  # A_s is a cached property: the copy's own value stands in
    with pytest.raises(AssemblyError, match="matrix A_s is not positive definite"):
        bad.dual_norm_s(np.ones(ops.mesh.dof_count))
    assert "P" not in vars(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dual_norm_rejects_non_finite(ops8, bad):
    f = np.ones(ops8.mesh.dof_count)
    f[2] = bad
    for norm in (ops8.dual_norm_s, ops8.dual_norm_sigma):
        with pytest.raises(ValueError):
            norm(f)


def test_a_s_assembled_on_first_use_only(monkeypatch):
    calls = []

    def counting(mesh, s):
        calls.append(s)
        return assemble_gagliardo(mesh, s)

    monkeypatch.setattr(operators, "assemble_gagliardo", counting)
    mesh = FracMesh(-1.0, 1.0, 16)
    ops = build_operator_set(mesh, FracExponents(0.3, 0.7))
    assert calls == [0.7]
    A_s = ops.A_s
    assert calls == [0.7, 0.3] and ops.A_s is A_s  # assembled once, then kept
    assert np.array_equal(A_s, assemble_gagliardo(mesh, 0.3))
    same = build_operator_set(mesh, FracExponents(0.4, 0.4))
    assert same.A_s is same.A_sigma and calls == [0.7, 0.3, 0.4]


def test_lazy_values_are_cached_per_copy(monkeypatch):
    trtri = []

    def counting(c, **kwargs):
        trtri.append(c.shape)
        return dtrtri(c, **kwargs)

    monkeypatch.setattr(operators, "dtrtri", counting)
    ops = build_operator_set(FracMesh(-1.0, 1.0, 16), FracExponents(0.3, 0.7))
    field_names = {f.name for f in fields(ops)}
    f = np.ones(ops.mesh.dof_count)
    for solve in (ops.dual_norm_s, ops.dual_norm_sigma, ops.solve_M):
        solve(f)
    P = ops.P  # dual_norm_s built it
    assert ops.P is P and len(trtri) == 1  # one triangular inverse, then the kept P
    assert len(vars(ops).keys() - field_names) == 4  # A_s, A_sigma's factor, M's, P
    copy = replace(ops)
    assert vars(copy).keys() == field_names  # none of the original's cached values
    assert copy.P is not P and np.array_equal(copy.P, P) and len(trtri) == 2
    # P factors A_s in a buffer of its own and keeps no factor
    assert vars(copy).keys() - field_names == {"A_s", "P"}


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
def test_reduce_pencil_matches_generalized_eigh(n):
    rng = np.random.default_rng(n)
    M = mass_matrix(FracMesh(-1.0, 1.0, n + 1))
    Md = add_tridiagonal(np.zeros((n, n)), *M)
    X = rng.standard_normal((n, n))
    X = X + X.T
    X_in, M_in = X.copy(), [m.copy() for m in M]
    C, vectors = reduce_pencil(X, M)
    mu, Y = eigh(C)
    ref = eigh(X, Md, eigvals_only=True)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(mu - ref)) <= 1e-12 * scale
    V = vectors(Y)
    assert np.max(np.abs(V.T @ Md @ V - np.eye(n))) <= 1e-12  # M-orthonormal
    assert np.max(np.abs(X @ V - (Md @ V) * mu)) <= 1e-12 * scale
    assert np.array_equal(X, X_in) and all(map(np.array_equal, M, M_in))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)  # pttrf's empty superdiagonal
def test_reduce_pencil_in_place_matches_the_copying_reduction(n, seed):
    rng = np.random.default_rng(seed)
    M = mass_matrix(FracMesh(-1.0, 1.0, n + 1))
    X = rng.standard_normal((n, n))
    X = X + X.T
    X_in = X.copy()
    C_ref, vectors_ref = reduce_pencil(X, M)
    work = X.copy()
    C, vectors = reduce_pencil_in_place(work, M)
    assert np.array_equal(C, C_ref)  # the same operations in the same order, bit for bit
    assert np.shares_memory(C, work) and C.flags.f_contiguous  # ready for eigh(overwrite_a=True)
    Y = rng.standard_normal((n, 2))
    assert np.array_equal(vectors(Y), vectors_ref(Y))
    assert np.array_equal(X, X_in)


def test_reduce_pencil_rejects_other_mass_matrices():
    n = 512
    diag, off = mass_matrix(FracMesh(-1.0, 1.0, n + 1))
    X = np.eye(n)
    with pytest.raises(ValueError, match="positive definite"):
        reduce_pencil(X, (-diag, -off))
    with pytest.raises(ValueError, match="shapes"):
        reduce_pencil(X[1:, 1:], (diag, off))


@pytest.mark.parametrize("sigma", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("n_elems", [2, 3, 8, 64])
def test_lowest_pencil_pair_matches_the_full_solve(n_elems, sigma):
    ops = build_operator_set(FracMesh(-1.0, 1.0, n_elems), FracExponents(sigma, sigma))
    A, M = ops.A_sigma, ops.M
    Md = add_tridiagonal(np.zeros_like(A), *M)
    A_in, M_in = A.copy(), [m.copy() for m in M]
    full = eigh(A, Md, eigvals_only=True)
    lam, v = ops.lowest_mode()
    assert abs(lam - full[0]) <= 1e-12 * full[0]
    assert abs(v @ Md @ v - 1.0) <= 1e-12  # M-normalized
    assert np.max(np.abs(A @ v - lam * (Md @ v))) <= 1e-10 * full[-1] * np.max(np.abs(Md @ v))
    assert np.array_equal(A, A_in) and all(map(np.array_equal, M, M_in))


def test_rayleigh_lambda1_refinement():
    vals = []
    for n in (32, 64, 128, 256):
        ops = build_operator_set(FracMesh(-1, 1, n), FracExponents(0.5, 0.5))
        vals.append(ops.lowest_mode()[0])
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2] > vals[3]
    # stabilized to three significant digits between n=128 and n=256
    assert abs(vals[2] - vals[3]) < 1e-3 * vals[3]


def test_rayleigh_domain_scaling():
    base = build_operator_set(FracMesh(-1, 1, 128), FracExponents(0.5, 0.5))
    lam1 = base.lowest_mode()[0]
    for L in (2.0, 4.0):
        ops = build_operator_set(FracMesh(-L, L, 128), FracExponents(0.5, 0.5))
        lamL = ops.lowest_mode()[0]
        assert abs(lamL - lam1 / L) < 0.02 * lam1 / L  # 2 sigma = 1 here


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_poincare_invariant_random_vectors(s, rng):
    from fracch.mesh import mass_matrix

    mesh = FracMesh(-1.0, 1.0, 32)
    C = normalization_constant(s)
    A = assemble_gagliardo(mesh, s)
    M = add_tridiagonal(np.zeros_like(A), *mass_matrix(mesh))
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
    save_stiffness(path, ops8.A_s, ops8.exps.s)
    assert path.stat().st_size == 32 + 8 * ops8.mesh.dof_count**2
    A, s, C = load_stiffness(path)
    assert np.array_equal(A, ops8.A_s)
    assert s == ops8.exps.s and C == normalization_constant(ops8.exps.s)


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
