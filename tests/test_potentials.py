import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_resolvent import reference_resolvent

from fracch import potentials
from fracch.errors import ConfigurationError, NewtonDivergenceError
from fracch.potentials import (
    _ROOT_TOL,
    Potential,
    PotentialCheckWarning,
    custom_potential,
    double_well,
    yosida_apply,
    yosida_pair,
    yosida_resolvent,
)


def _g(pot, r):
    return pot.g_pair(r)[0]


def _beta(pot, r):
    return pot.beta_pair(r)[0]


def _beta_prime(pot, r):
    return pot.beta_pair(r)[1]


def _reference(pot, eps, r):
    """``reference_resolvent`` on pot's beta and beta', each taken from its pair."""
    return reference_resolvent(lambda y: _beta(pot, y), lambda y: _beta_prime(pot, y), eps, r)


def test_double_well_critical_points():
    pot = double_well(4.0)
    assert _g(pot, 0.0) == 0.0
    assert _g(pot, 1.0) == 0.0
    assert _g(pot, -1.0) == 0.0
    assert _beta(pot, 2.0) == 8.0
    assert pot.g_hat(1.0) == pytest.approx(0.25 - 0.5)
    assert pot.lam == 1.0


def test_double_well_rejects_small_m():
    with pytest.raises(ConfigurationError):
        double_well(1.5)


def test_bundle_consistency():
    pot = double_well(4.0)
    r = np.linspace(-5, 5, 401)
    assert np.allclose(_beta(pot, r), _g(pot, r) + pot.lam * r, atol=1e-14)
    d = 1e-6
    fd = (pot.g_hat(r + d) - pot.g_hat(r - d)) / (2 * d)
    assert np.max(np.abs(fd - _g(pot, r)) / (1 + np.abs(_g(pot, r)))) < 1e-6


def test_double_well_sign_condition():
    # g(r) sign(r) > 0 outside the wells, gamma = 1
    pot = double_well(4.0)
    r = np.concatenate([np.linspace(1.01, 10, 200), -np.linspace(1.01, 10, 200)])
    assert np.all(_g(pot, r) * np.sign(r) > 0)


def test_beta_monotone_sampled(rng):
    pot = double_well(4.0)
    r1 = rng.uniform(-5, 5, 500)
    r2 = rng.uniform(-5, 5, 500)
    assert np.all((_beta(pot, r1) - _beta(pot, r2)) * (r1 - r2) >= 0)


def test_custom_potential_warns_on_inconsistent_primitive():
    with pytest.warns(PotentialCheckWarning):
        custom_potential(
            g=lambda r: np.asarray(r) ** 3,
            g_prime=lambda r: 3 * np.asarray(r) ** 2,
            g_hat=lambda r: np.asarray(r) ** 2,  # wrong primitive
            lam=0.0,
        )


def test_custom_potential_clean_passes():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", PotentialCheckWarning)
        custom_potential(
            g=lambda r: np.asarray(r) ** 3,
            g_prime=lambda r: 3 * np.asarray(r) ** 2,
            g_hat=lambda r: np.asarray(r) ** 4 / 4,
            lam=0.0,
        )


def test_yosida_resolvent_cubic():
    pot = double_well(4.0)  # beta(r) = r^3
    assert yosida_resolvent(pot, 1.0, 2.0)[0] == pytest.approx(1.0, abs=1e-11)
    assert yosida_resolvent(pot, 1.0, 0.0)[0] == 0.0
    assert yosida_apply(pot, 1.0, 2.0)[0] == pytest.approx(1.0, abs=1e-11)
    assert yosida_apply(pot, 1.0, 0.0)[0] == 0.0


def test_yosida_resolvent_linear_closed_form():
    pot = custom_potential(
        g=lambda r: 0.0 * np.asarray(r), g_prime=lambda r: 0.0 * np.asarray(r),
        g_hat=lambda r: 0.0 * np.asarray(r), lam=1.0, check=False,
    )  # beta(r) = r
    j = yosida_resolvent(pot, 0.5, 3.0)[0]
    assert j == pytest.approx(2.0, abs=1e-11)


def test_yosida_bound_and_convergence(rng):
    pot = double_well(4.0)
    r = rng.uniform(-5, 5, 1000)
    beta = _beta(pot, r)
    prev_err = None
    for eps in (1e-1, 1e-2, 1e-3):
        be = yosida_apply(pot, eps, r)[0]
        assert np.all(np.abs(be) <= np.abs(beta) + 1e-9)
        err = np.max(np.abs(be - beta))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err


def test_yosida_monotone_and_lipschitz(rng):
    pot = double_well(4.0)
    for eps in (1.0, 0.1, 0.01):
        r1 = rng.uniform(-5, 5, 500)
        r2 = rng.uniform(-5, 5, 500)
        b1 = yosida_apply(pot, eps, r1)[0]
        b2 = yosida_apply(pot, eps, r2)[0]
        assert np.all((b1 - b2) * (r1 - r2) >= -1e-12)
        assert np.all(np.abs(b1 - b2) <= np.abs(r1 - r2) / eps + 1e-9)


@settings(max_examples=40, deadline=None)
@given(r1=st.floats(-20, 20), r2=st.floats(-20, 20), eps=st.sampled_from([1.0, 0.3, 0.05]))
def test_resolvent_nonexpansive(r1, r2, eps):
    pot = double_well(4.0)
    j1 = yosida_resolvent(pot, eps, r1)[0]
    j2 = yosida_resolvent(pot, eps, r2)[0]
    assert abs(j1 - j2) <= abs(r1 - r2) + 1e-9


def test_resolvent_cap_on_nonmonotone_beta():
    pot = custom_potential(
        g=lambda r: -3.0 * np.asarray(r), g_prime=lambda r: -3.0 + 0.0 * np.asarray(r),
        g_hat=lambda r: -1.5 * np.asarray(r) ** 2, lam=1.0, check=False,
    )  # beta(r) = -2r, decreasing
    with pytest.raises(NewtonDivergenceError):
        yosida_resolvent(pot, 1.0, 1.0)


def _newton_cubic():
    """double_well(4.0)'s beta without its closed form, so the Newton loop solves it."""
    return custom_potential(lambda r: np.abs(r) ** 2.0 * r - r,
                            lambda r: 3.0 * np.abs(r) ** 2.0 - 1.0,
                            double_well(4.0).g_hat, lam=1.0, check=False)


def _steep_arctan():
    """beta(y) = 50 arctan(20 y), lambda = 0: Newton from r overshoots the bracket."""
    return custom_potential(
        g=lambda y: 50.0 * np.arctan(20.0 * np.asarray(y)),
        g_prime=lambda y: 1000.0 / (1.0 + 400.0 * np.asarray(y) ** 2),
        g_hat=lambda y: 0.0 * np.asarray(y), lam=0.0, check=False,
    )


@settings(max_examples=40, deadline=None)
@given(r=arrays(np.float64, st.integers(1, 50), elements=st.floats(-20, 20)),
       eps=st.sampled_from([1.0, 0.1, 0.01]))
def test_resolvent_matches_reference_bitwise(r, eps):
    pot = _newton_cubic()
    j = yosida_resolvent(pot, eps, r)[0]
    assert np.array_equal(j, _reference(pot, eps, r))


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_resolvent_matches_reference_bitwise_through_bisection(rng, eps):
    pot = _steep_arctan()
    r = rng.uniform(-30.0, 30.0, 2000)
    # the first Newton step leaves the bracket [min(r, 0), max(r, 0)] somewhere
    first = r - eps * _beta(pot, r) / (1.0 + eps * _beta_prime(pot, r))
    assert np.any((first <= np.minimum(r, 0.0)) | (first >= np.maximum(r, 0.0)))
    j = yosida_resolvent(pot, eps, r)[0]
    assert np.array_equal(j, _reference(pot, eps, r))
    assert np.max(np.abs(j + eps * _beta(pot, j) - r)) <= 1e-12


def test_resolvent_scalar_matches_reference():
    pot = _steep_arctan()
    for r in (-7.5, 0.0, 0.3, 25.0):
        j = yosida_resolvent(pot, 0.1, r)[0]
        assert type(j) is float
        assert j == _reference(pot, 0.1, r)


@pytest.mark.parametrize("pot", [_newton_cubic(), _steep_arctan()], ids=["cubic", "arctan"])
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "out_of_bracket", "far_off", "near"])
def test_resolvent_from_any_start_finds_the_cold_root(rng, pot, kind):
    eps = 0.01
    r = rng.uniform(-20.0, 20.0, 500)
    cold = yosida_resolvent(pot, eps, r)[0]
    start = {
        "nan": np.full_like(r, np.nan),
        "inf": np.full_like(r, np.inf),
        "-inf": np.full_like(r, -np.inf),
        "out_of_bracket": -2.0 * r,  # every element on the wrong side of 0
        "far_off": np.where(rng.random(r.size) < 0.5, 1e6, -1e6),
        "near": cold + 1e-3 * rng.standard_normal(r.size),
    }[kind]
    j = yosida_resolvent(pot, eps, r, start=start)[0]
    assert np.max(np.abs(j - cold)) <= _ROOT_TOL
    assert np.max(np.abs(j + eps * _beta(pot, j) - r)) <= _ROOT_TOL


@settings(max_examples=40, deadline=None)
@given(r=arrays(np.float64, st.integers(0, 40),
                elements=st.one_of(st.floats(-20, 20), st.floats(allow_nan=True,
                                                                 allow_infinity=True))),
       m=st.sampled_from([2.0, 3.0, 4.0, 6.5]))
def test_double_well_beta_pair_is_beta_and_beta_prime_bitwise(r, m):
    pot = double_well(m)
    lam = pot.lam
    with np.errstate(over="ignore", invalid="ignore"):
        b, bp = pot.beta_pair(r)
        want_b = np.abs(r) ** (m - 2.0) * r - r + lam * r
        want_bp = (m - 1.0) * np.abs(r) ** (m - 2.0) - 1.0 + lam
    # equal_nan: NaN payloads aside, every element is the same double
    assert np.array_equal(b, want_b, equal_nan=True)
    assert np.array_equal(bp, want_bp, equal_nan=True)
    assert np.array_equal(np.signbit(b), np.signbit(want_b))
    assert np.array_equal(np.signbit(bp), np.signbit(want_bp))


def test_custom_beta_pair_is_the_two_calls():
    pot = _steep_arctan()
    r = np.linspace(-3.0, 3.0, 101)
    b, bp = pot.beta_pair(r)
    # the user's g plus lambda r and g' plus lambda, with lambda = 0
    assert np.array_equal(b, 50.0 * np.arctan(20.0 * r) + 0.0 * r)
    assert np.array_equal(bp, 1000.0 / (1.0 + 400.0 * r ** 2) + 0.0)


@pytest.mark.parametrize("pot", [_newton_cubic(), double_well(6.5), _steep_arctan(),
                                 double_well(4.0)],
                         ids=["cubic", "m6.5", "arctan", "closed_form"])
def test_resolvent_hands_back_beta_prime_at_the_root(rng, pot):
    eps = 0.01
    r = rng.uniform(-20.0, 20.0, 400)
    for start in (None, r + rng.standard_normal(r.size)):
        j, bp = yosida_resolvent(pot, eps, r, start=start)
        assert np.array_equal(bp, _beta_prime(pot, j))
        # yosida_apply hands the same solve on, with beta_eps(r) in front
        be, j_apply, bp_apply = yosida_apply(pot, eps, r, start=start)
        assert np.array_equal(be, (r - j) / eps)
        assert np.array_equal(j_apply, j) and np.array_equal(bp_apply, bp)
    j, bp = yosida_resolvent(pot, eps, 2.5)
    assert type(j) is float and type(bp) is float
    assert bp == float(_beta_prime(pot, j))


def test_resolvent_start_at_the_root_costs_one_beta(monkeypatch, rng):
    pot = _newton_cubic()
    eps = 0.01
    r = rng.uniform(-5.0, 5.0, 300)
    cold = yosida_resolvent(pot, eps, r)[0]
    calls = []
    beta_pair = Potential.beta_pair  # one (beta, beta') evaluation per point visited
    monkeypatch.setattr(Potential, "beta_pair",
                        lambda self, y: calls.append(y) or beta_pair(self, y))
    assert np.array_equal(yosida_resolvent(pot, eps, r, start=cold)[0], cold)
    assert len(calls) == 1
    calls.clear()
    yosida_resolvent(pot, eps, r)
    assert len(calls) >= 3  # from y = r: the start and at least two Newton updates


def test_resolvent_start_must_have_the_shape_of_r():
    pot = _newton_cubic()
    for p in (pot, double_well(4.0)):  # the closed form checks the shape too
        with pytest.raises(ValueError, match="shape"):
            yosida_resolvent(p, 0.1, np.ones(4), start=np.ones(3))
    # a scalar r takes a scalar start, and apply passes it on
    assert yosida_resolvent(pot, 0.1, 2.0, start=1.0)[0] == pytest.approx(
        yosida_resolvent(pot, 0.1, 2.0)[0], abs=_ROOT_TOL)
    assert yosida_apply(pot, 0.1, 2.0, start=np.nan)[0] == yosida_apply(pot, 0.1, 2.0)[0]


def _quiet(f):
    """f evaluated with numpy's floating-point warnings off, so NaN comes back silently."""
    def wrapped(y):
        with np.errstate(all="ignore"):
            return f(np.asarray(y, dtype=float))
    return wrapped


def test_resolvent_rejects_beta_nan_at_the_start():
    # beta(y) = log((1 + y) / (1 - y)) is NaN outside (-1, 1), where r = 1.5 and -3 start
    pot = custom_potential(
        g=_quiet(lambda y: np.log((1.0 + y) / (1.0 - y))),
        g_prime=_quiet(lambda y: 2.0 / (1.0 - y * y)),
        g_hat=lambda y: 0.0 * np.asarray(y), lam=0.0, check=False,
    )
    j = yosida_resolvent(pot, 0.1, 0.5)[0]  # beta finite along the whole iteration
    assert abs(j + 0.1 * _beta(pot, j) - 0.5) <= 1e-12
    with pytest.raises(NewtonDivergenceError):
        yosida_resolvent(pot, 0.1, np.array([0.5, 1.5, -3.0]))


def test_resolvent_rejects_all_nan_beta():
    pot = custom_potential(
        g=lambda y: np.full(np.shape(y), np.nan), g_prime=lambda y: np.full(np.shape(y), np.nan),
        g_hat=lambda y: 0.0 * np.asarray(y), lam=0.0, check=False,
    )
    with pytest.raises(NewtonDivergenceError):
        yosida_resolvent(pot, 0.1, np.array([0.0, 1.0, -2.0]))


def test_yosida_epsilon_validation():
    for pot in (double_well(4.0), _newton_cubic()):  # the closed form and the Newton path
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="epsilon"):
                yosida_resolvent(pot, eps, 1.0)
            with pytest.raises(ConfigurationError, match="epsilon"):
                yosida_apply(pot, eps, np.ones(3))


def _count_beta_pairs(monkeypatch):
    calls = []
    beta_pair = Potential.beta_pair
    monkeypatch.setattr(Potential, "beta_pair",
                        lambda self, y: calls.append(y) or beta_pair(self, y))
    return calls


def test_closed_form_resolvent_only_for_the_double_well_with_m_4():
    assert double_well(4.0).resolvent is not None
    assert all(double_well(m).resolvent is None for m in (2.0, 3.0, 3.5, 6.5))
    assert _newton_cubic().resolvent is None
    # the lambda override keeps the closed form, which reads lambda at call time
    assert replace(double_well(4.0), lam=2.0).resolvent is double_well(4.0).resolvent


def _relative_error_to_50_digit_root(eps, lam, r, j):
    """|j - root| / |root| for the root of eps y^3 + b y = r, b = 1 + eps (lam - 1)."""
    import mpmath

    with mpmath.workdps(50):
        E, R = mpmath.mpf(eps), mpmath.mpf(r)
        b = 1 + E * (mpmath.mpf(lam) - 1)
        c = mpmath.sqrt(3 * E / b)
        root = (2 / c) * mpmath.sinh(mpmath.asinh(1.5 * c * R / b) / 3)
        assert abs(E * root ** 3 + b * root - R) <= mpmath.mpf(10) ** -40 * abs(R)
        return float(abs(mpmath.mpf(j) - root) / abs(root))


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_closed_form_resolvent_matches_50_digit_roots(monkeypatch, lam):
    pot = replace(double_well(4.0), lam=lam)
    draws = np.random.default_rng(4 + 10 * int(lam))
    eps = 10.0 ** np.concatenate([[-12.0, -12.0, 6.0, 6.0], draws.uniform(-12.0, 6.0, 150)])
    mag = 10.0 ** np.concatenate([[-300.0, 6.0, -300.0, 6.0], draws.uniform(-300.0, 6.0, 150)])
    r = np.where(draws.random(eps.size) < 0.5, -mag, mag)
    calls = _count_beta_pairs(monkeypatch)
    for e, x in zip(eps, r):
        j, bp = yosida_resolvent(pot, e, np.array([x]))
        assert np.array_equal(bp, 3.0 * np.abs(j) ** 2.0 - 1.0 + lam)  # beta'(j), m = 4
        assert _relative_error_to_50_digit_root(e, lam, x, j[0]) <= 8 * np.finfo(float).eps
    assert not calls  # no Newton iterate


@pytest.mark.parametrize("eps, r", [(1e6, 1e306), (1e6, -1.7e308), (1e-12, 1.7e308),
                                    (1e6, 1e200), (1e-12, -1e-300)])
def test_closed_form_resolvent_at_extreme_eps_r(eps, r):
    # x = 1.5 c r / b overflows at the first two points, and all but the last
    # take the form for |x| past 1e4; pytest turns a RuntimeWarning into an error
    j = yosida_resolvent(double_well(4.0), eps, np.array([r]))[0]
    assert _relative_error_to_50_digit_root(eps, 1.0, r, j[0]) <= 8 * np.finfo(float).eps


def test_lambda_below_split_and_non_finite_r_take_newton(monkeypatch):
    calls = _count_beta_pairs(monkeypatch)
    # lambda 0.5: b = 1 + eps (lambda - 1) > 0, but the root r / b of the
    # near-linear part lies past r, outside Newton's bracket, so Newton stalls
    with pytest.raises(NewtonDivergenceError):
        yosida_resolvent(replace(double_well(4.0), lam=0.5), 0.01, 1e-3)
    assert len(calls) > 1
    for r in ([1.0, np.nan], [np.inf], [-np.inf, 2.0]):
        calls.clear()
        with pytest.raises(NewtonDivergenceError), np.errstate(invalid="ignore"):
            yosida_resolvent(double_well(4.0), 0.01, np.array(r))
        assert len(calls) > 1


@pytest.mark.parametrize("m", [3.5, 6.5])
@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_newton_resolvent_converges_at_large_r(m, eps):
    # the residual rounds at about eps_mach |r|: an absolute 1e-12 alone
    # stalled here with NewtonDivergenceError
    pot = double_well(m)
    assert pot.resolvent is None
    r = np.array([1e4, -3e5, 1e6, 1e8])
    j = yosida_resolvent(pot, eps, r)[0]
    assert np.all(np.abs(j + eps * _beta(pot, j) - r) <= 4 * np.finfo(float).eps * np.abs(r))


# two arrays of one shape, and epsilon log-uniform over 18 decades
_r1_r2 = st.integers(1, 30).flatmap(
    lambda n: st.tuples(*[arrays(np.float64, n, elements=st.floats(-20, 20))] * 2))
_log_eps = st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)


def _recorded_applies(mp):
    """(start, result) of every ``yosida_apply`` call, looked up in fracch.potentials."""
    applied = []
    apply = potentials.yosida_apply

    def recorded(pot, epsilon, r, start=None):
        out = apply(pot, epsilon, r, start=start)
        applied.append((start, out))
        return out

    mp.setattr(potentials, "yosida_apply", recorded)
    return applied


@settings(max_examples=60, deadline=None)
@given(r1_r2=_r1_r2, eps=_log_eps, lam=st.floats(1.0, 3.0))
def test_closed_form_yosida_pair_keeps_no_memory(r1_r2, eps, lam):
    r1, r2 = r1_r2
    pot = replace(double_well(4.0), lam=lam)
    with pytest.MonkeyPatch.context() as mp:
        applied = _recorded_applies(mp)
        pair = yosida_pair(pot, eps)
        pair(r1)
        b, bp = pair(r2)
        fresh_b, fresh_bp = yosida_pair(pot, eps)(r2)
    assert [start for start, _ in applied] == [None, None, None]
    assert b.tobytes() == fresh_b.tobytes() and bp.tobytes() == fresh_bp.tobytes()


@settings(max_examples=60, deadline=None)
@given(r1_r2=_r1_r2, eps=_log_eps, lam=st.floats(1.0, 3.0))
def test_newton_path_yosida_pair_passes_the_tangent_start(r1_r2, eps, lam):
    r1, r2 = r1_r2
    pot = replace(_newton_cubic(), lam=lam)
    with pytest.MonkeyPatch.context() as mp:
        applied = _recorded_applies(mp)
        pair = yosida_pair(pot, eps)
        pair(r1)
        pair(r2)
        pair(np.append(r2, 1.0))  # another shape: no start
    (start1, (_, j1, bp1)), (start2, _), (start3, _) = applied
    assert start1 is None and start3 is None
    assert np.array_equal(start2, j1 + (r2 - r1) / (1.0 + eps * bp1))
