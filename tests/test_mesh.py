import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracch.energy import add_tridiagonal
from fracch.errors import ConfigurationError
from fracch.mesh import (
    FracMesh,
    interpolate,
    linf_norm,
    mass_matrix,
    tridiagonal_product,
)


def test_build_examples():
    mesh = FracMesh(0.0, 1.0, 4)
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.dof_count == 3

    mesh2 = FracMesh(-1.0, 1.0, 2)
    assert mesh2.dof_count == 1
    assert mesh2.h == 1.0
    assert mesh2.interior_nodes[0] == 0.0


def test_build_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        FracMesh(1.0, 0.0, 4)
    with pytest.raises(ConfigurationError):
        FracMesh(0.0, 1.0, 1)
    # both ends finite, b - a past the float range: refused before any numpy arithmetic
    with pytest.raises(ConfigurationError, match="b - a overflows"):
        FracMesh(-1e308, 1e308, 8)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5),
    width=st.floats(0.5, 10),
    n=st.integers(2, 64),
)
def test_uniform_spacing_property(a, width, n):
    mesh = FracMesh(a, a + width, n)
    gaps = np.diff(mesh.nodes)
    assert np.all(np.abs(gaps - mesh.h) < 1e-12 * mesh.h)
    assert mesh.dof_count == n - 1


def test_mass_matrix_entries():
    mesh = FracMesh(0.0, 1.0, 4)
    diag, off = mass_matrix(mesh)
    assert diag.shape == (3,) and off.shape == (2,)
    M = add_tridiagonal(np.zeros((3, 3)), diag, off)
    assert np.allclose(np.diag(M), 2 * 0.25 / 3)
    assert np.allclose(np.diag(M, 1), 0.25 / 6)
    assert np.array_equal(M, M.T)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 256])
def test_mass_matrix_positive_definite(n):
    M = add_tridiagonal(np.zeros((n - 1, n - 1)), *mass_matrix(FracMesh(0.0, 1.0, n)))
    assert np.linalg.eigvalsh(M).min() > 0


def test_mass_matrix_against_quadrature_oracle():
    # independent 3-point Gauss quadrature of the interpolant squared
    mesh = FracMesh(0.0, 1.0, 4)
    M = add_tridiagonal(np.zeros((3, 3)), *mass_matrix(mesh))
    v = np.array([1.0, 1.0, 1.0])
    full = np.concatenate(([0.0], v, [0.0]))
    gp, gw = np.polynomial.legendre.leggauss(3)
    gp = 0.5 * (gp + 1.0)
    gw = 0.5 * gw * mesh.h
    total = 0.0
    for k in range(mesh.n_elems):
        vals = full[k] * (1 - gp) + full[k + 1] * gp
        total += float((vals**2) @ gw)
    assert abs(v @ M @ v - total) < 1e-12


def test_interpolate():
    mesh = FracMesh(0.0, 1.0, 4)
    assert np.allclose(interpolate(mesh, lambda x: 0.0), 0.0)
    assert np.allclose(interpolate(mesh, lambda x: x), [0.25, 0.5, 0.75])
    expected = [np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)]
    assert np.allclose(interpolate(mesh, lambda x: np.sin(np.pi * x)), expected)


def test_interpolate_rejects_nonfinite():
    mesh = FracMesh(0.0, 1.0, 4)
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        interpolate(mesh, lambda x: 1.0 / (x - 0.5))


def test_linf_norm():
    mesh = FracMesh(0.0, 1.0, 3)
    assert linf_norm(mesh, np.zeros(2)) == 0.0
    assert linf_norm(mesh, np.array([-2.0, 1.0])) == 2.0

    fine = FracMesh(0.0, 1.0, 64)
    v = interpolate(fine, lambda x: np.sin(np.pi * x))
    assert abs(linf_norm(fine, v) - 1.0) < 1e-3


def test_linf_never_exceeds_analytic_sup():
    mesh = FracMesh(-1.0, 1.0, 37)
    f = lambda x: np.cos(3 * x) * np.exp(-x * x)  # noqa: E731
    assert linf_norm(mesh, interpolate(mesh, f)) <= 1.0


@pytest.mark.parametrize("dof", [1, 2, 63, 255])
def test_tridiagonal_product_matches_the_dense_product(dof, rng):
    # dof 1 has an empty off-diagonal; blocks are wider than one product panel
    M = mass_matrix(FracMesh(-1.0, 1.0, dof + 1))
    for diag, off in (M, (rng.standard_normal(dof), rng.standard_normal(dof - 1))):
        T = add_tridiagonal(np.zeros((dof, dof)), diag, off)
        for x in (rng.standard_normal(dof), rng.standard_normal((dof, dof))):
            x_in = x.copy()
            y = tridiagonal_product(diag, off, x)
            assert y.shape == x.shape and np.array_equal(x, x_in)
            bound = 4 * np.finfo(float).eps * (np.abs(T) @ np.abs(x))
            assert np.all(np.abs(y - T @ x) <= bound)
            out = x.copy()
            res = tridiagonal_product(diag, off, out, out=out)
            assert np.shares_memory(res, out) and np.array_equal(out, y)  # in place, same numbers


@pytest.mark.parametrize("dof", [1, 2, 63, 255])
def test_tridiagonal_product_of_a_vector_is_its_one_column_block_bitwise(dof, rng):
    # a vector skips the block path's reshape and panel loop, not its operations
    diag, off = rng.standard_normal(dof), rng.standard_normal(dof - 1)
    x = rng.standard_normal(dof)
    y = tridiagonal_product(diag, off, x)
    block = tridiagonal_product(diag, off, x[:, None])
    assert y.shape == (dof,) and block.shape == (dof, 1)
    assert y.tobytes() == block[:, 0].tobytes()
