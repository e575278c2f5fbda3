from dataclasses import replace

import numpy as np
import pytest

from fracch.energy import (
    EnergyContext,
    add_tridiagonal,
    energy,
    energy_gradient,
    load_vector,
    weighted_mass,
)
from fracch.mesh import FracMesh
from fracch.operators import FracExponents, build_operator_set, xnorm
from fracch.potentials import custom_potential, double_well


def _zero_potential():
    return custom_potential(
        g=lambda r: 0.0 * np.asarray(r), g_prime=lambda r: 0.0 * np.asarray(r),
        g_hat=lambda r: 0.0 * np.asarray(r), lam=0.0, check=False,
    )


def test_energy_zero_state(ctx64):
    assert energy(ctx64, np.zeros(ctx64.ops.mesh.dof_count)) == 0.0


def test_quadratic_part_identity(ops64, rng):
    ctx = EnergyContext(ops=ops64, pot=_zero_potential())
    v = rng.standard_normal(ops64.mesh.dof_count)
    assert energy(ctx, v) == pytest.approx(0.5 * xnorm(ops64.A_sigma, v) ** 2, rel=1e-14)
    assert energy(ctx, 2 * v) == pytest.approx(4 * energy(ctx, v), rel=1e-14)


def test_quad_data_is_cached_per_context(ctx64):
    assert ctx64.quad_data is ctx64.quad_data
    copy = replace(ctx64)
    assert copy.quad_data is not ctx64.quad_data
    assert all(np.array_equal(a, b) for a, b in zip(copy.quad_data, ctx64.quad_data))


def test_nonlinear_part_quadrature_refinement(ops8):
    # non-polynomial potential; the context's rule must match a 10x finer one,
    # the 50-point Gauss rule on each element, built here
    pot = custom_potential(
        g=lambda r: np.sinh(r), g_prime=lambda r: np.cosh(r),
        g_hat=lambda r: np.cosh(r) - 1.0, lam=1.0, check=False,
    )
    v = np.ones(ops8.mesh.dof_count)
    ref, w = np.polynomial.legendre.leggauss(50)
    ref = 0.5 * (ref + 1.0)
    full = np.concatenate(([0.0], v, [0.0]))
    vals = full[:-1, None] * (1.0 - ref) + full[1:, None] * ref
    e_f = 0.5 * v @ ops8.A_sigma @ v + float((pot.g_hat(vals) @ (0.5 * w * ops8.mesh.h)).sum())
    e_c = energy(EnergyContext(ops=ops8, pot=pot), v)
    assert abs(e_c - e_f) < 1e-8 * abs(e_f)


def test_gradient_matches_finite_differences(rng):
    ops = build_operator_set(FracMesh(-1, 1, 24), FracExponents(0.5, 0.5))
    ctx = EnergyContext(ops=ops, pot=double_well(4.0))
    dof = ops.mesh.dof_count
    for _ in range(100):
        v = rng.standard_normal(dof)
        g = energy_gradient(ctx, v)
        for i in rng.integers(0, dof, size=3):
            d = 1e-6 * (1 + abs(v[i]))
            e = np.zeros(dof)
            e[i] = d
            fd = (energy(ctx, v + e) - energy(ctx, v - e)) / (2 * d)
            assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(g[i]))


def test_gradient_zero_at_origin(ctx64):
    g = energy_gradient(ctx64, np.zeros(ctx64.ops.mesh.dof_count))
    assert np.all(g == 0.0)


def test_load_vector_constant_function(ctx64):
    # integral of phi_i is h for interior hats; fn == 1 regardless of v
    b = load_vector(ctx64, np.ones_like(ctx64.values_at_quad(np.zeros(ctx64.ops.mesh.dof_count))))
    assert np.allclose(b, ctx64.ops.mesh.h, rtol=1e-12)


def test_quadrature_maps_match_their_accumulating_forms(ctx64, rng):
    # the interpolant bitwise, as np.outer first wrote it; the load vector and
    # the weighted mass contract f with one table of weighted shape products,
    # so they round differently from the per-product sums: within 4 eps of the
    # absolute sums per entry (about 2.2 eps measured), signed zeros kept
    eps = np.finfo(float).eps
    w, n0, n1 = ctx64.quad_data
    v = rng.standard_normal(ctx64.ops.mesh.dof_count)
    full = np.concatenate(([0.0], v, [0.0]))
    assert np.array_equal(ctx64.values_at_quad(v),
                          np.outer(full[:-1], n0) + np.outer(full[1:], n1))

    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 4.0 * eps * scale)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    for fvals in (ctx64.values_at_quad(v) ** 3, np.full_like(ctx64.values_at_quad(v), -0.0)):
        acc = np.zeros(ctx64.ops.mesh.n_elems + 1)
        acc[:-1] += (fvals * n0) @ w
        acc[1:] += (fvals * n1) @ w
        scale = (np.abs(fvals * n0) @ w)[1:] + (np.abs(fvals * n1) @ w)[:-1]
        close(load_vector(ctx64, fvals), acc[1:-1], scale)

        diag, off = weighted_mass(ctx64, fvals)
        m00, m01, m11 = ((fvals * a * b) @ w for a, b in ((n0, n0), (n0, n1), (n1, n1)))
        a00, a01, a11 = ((np.abs(fvals * a * b) @ w) for a, b in ((n0, n0), (n0, n1), (n1, n1)))
        close(diag, m11[:-1] + m00[1:], a11[:-1] + a00[1:])
        close(off, m01[1:-1], a01[1:-1])


def test_weighted_mass_reduces_to_mass(ctx64):
    ones = np.ones_like(ctx64.values_at_quad(np.zeros(ctx64.ops.mesh.dof_count)))
    diag, off = weighted_mass(ctx64, ones)
    M = add_tridiagonal(np.zeros_like(ctx64.ops.A_sigma), *ctx64.ops.M)
    assert np.allclose(diag, np.diagonal(M), atol=1e-14)
    assert np.allclose(off, np.diagonal(M, 1), atol=1e-14)
    B = add_tridiagonal(np.zeros_like(M), diag, off)
    assert np.allclose(B, M, atol=1e-14)
    assert np.array_equal(B, B.T)


@pytest.mark.parametrize("n", [1, 2, 63, 255])
def test_add_tridiagonal_matches_the_flat_form(n, rng):
    A = rng.standard_normal((n, n))
    diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    ref = A.copy()  # the former form, through the flat iterator
    ref.flat[::n + 1] += diag
    ref.flat[1::n + 1] += off
    ref.flat[n::n + 1] += off
    out = A.copy()
    assert add_tridiagonal(out, diag, off) is out
    assert out.tobytes() == ref.tobytes()


def test_add_tridiagonal_refuses_a_strided_matrix():
    # reshape(-1) would copy such a matrix, and the sum would not reach it
    for A in (np.asfortranarray(np.ones((3, 3))), np.ones((3, 6))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            add_tridiagonal(A, np.ones(3), np.ones(2))


def test_energy_overflow_raises(ctx64):
    huge = np.full(ctx64.ops.mesh.dof_count, 1e160)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        energy(ctx64, huge)


def test_coercivity_margin_grows_on_scaled_family(ctx64, rng):
    lam1 = ctx64.ops.lowest_mode()[0]
    kappa0 = 0.5 * lam1 / (2 * lam1)
    v0 = rng.standard_normal(ctx64.ops.mesh.dof_count)
    v0 /= xnorm(ctx64.ops.A_sigma, v0)
    margins = []
    for t in (1.0, 10.0, 50.0):
        v = t * v0
        margins.append(energy(ctx64, v) - kappa0 * xnorm(ctx64.ops.A_sigma, v) ** 2)
    assert margins[0] < margins[1] < margins[2]  # quartic term dominates
