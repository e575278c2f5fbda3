import numpy as np
import pytest
from hypothesis import settings

from fracch import evolution
from fracch.energy import EnergyContext
from fracch.mesh import FracMesh
from fracch.operators import FracExponents, build_operator_set
from fracch.potentials import double_well

# pytest --hypothesis-profile=ci: every property draws the same examples on
# every run, a failing one prints the @reproduce_failure blob that replays it,
# and no example is timed out
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)


@pytest.fixture(scope="session")
def mesh8():
    return FracMesh(-1.0, 1.0, 8)


@pytest.fixture(scope="session")
def ops8(mesh8):
    return build_operator_set(mesh8, FracExponents(0.5, 0.5))


@pytest.fixture(scope="session")
def ops64():
    return build_operator_set(FracMesh(-1.0, 1.0, 64), FracExponents(0.5, 0.5))


@pytest.fixture(scope="session")
def ctx64(ops64):
    return EnergyContext(ops=ops64, pot=double_well(4.0))


@pytest.fixture(scope="session")
def ctx64_wide():
    ops = build_operator_set(FracMesh(-4.0, 4.0, 64), FracExponents(0.5, 0.5))
    return EnergyContext(ops=ops, pot=double_well(4.0))


@pytest.fixture(scope="session")
def ctx256_wide():
    """The simulate_wide256 benchmark operators (dof 255, above the stepper's PCG crossover)."""
    ops = build_operator_set(FracMesh(-4.0, 4.0, 256), FracExponents(0.5, 0.5))
    ops.P  # P = M A_s^{-1} M, cached for every test that steps on it
    return EnergyContext(ops=ops, pot=double_well(4.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def nan_from_first_update(monkeypatch):
    """Make every step's beta values NaN from its first Newton update on."""
    beta_pair = evolution._beta_pair

    def patched(ctx, cfg):
        pair = beta_pair(ctx, cfg)
        calls = []

        def nan_pair(r):
            b, bp = pair(r)
            if calls:
                b = np.full_like(b, np.nan)
            calls.append(r)
            return b, bp

        return nan_pair

    monkeypatch.setattr(evolution, "_beta_pair", patched)


@pytest.fixture()
def nan_beta_poison(monkeypatch):
    """A dict whose "left" counts the next beta evaluations, in any step, to come out NaN."""
    beta_pair = evolution._beta_pair
    poison = {"left": 0}

    def patched(ctx, cfg):
        pair = beta_pair(ctx, cfg)

        def maybe_nan_pair(r):
            b, bp = pair(r)
            if poison["left"]:
                poison["left"] -= 1
                b = np.full_like(b, np.nan)
            return b, bp

        return maybe_nan_pair

    monkeypatch.setattr(evolution, "_beta_pair", patched)
    return poison
