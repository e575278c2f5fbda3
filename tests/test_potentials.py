import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)


def _g(pot, r):
    return pot.g_pair(r)[0]


def _beta(pot, r):
    return pot.beta_pair(r)[0]


def _beta_prime(pot, r):
    return pot.beta_pair(r)[1]


def _resolvent(pot, eps, r, start=None):
    """(j, beta'(j)) of one ``yosida_apply`` solve."""
    return yosida_apply(pot, eps, r, start=start)[1:]


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
    assert _resolvent(pot, 1.0, 2.0)[0] == pytest.approx(1.0, abs=1e-11)
    assert _resolvent(pot, 1.0, 0.0)[0] == 0.0
    assert yosida_apply(pot, 1.0, 2.0)[0] == pytest.approx(1.0, abs=1e-11)
    assert yosida_apply(pot, 1.0, 0.0)[0] == 0.0


def test_yosida_resolvent_linear_closed_form():
    pot = custom_potential(
        g=lambda r: 0.0 * np.asarray(r), g_prime=lambda r: 0.0 * np.asarray(r),
        g_hat=lambda r: 0.0 * np.asarray(r), lam=1.0, check=False,
    )  # beta(r) = r
    j = _resolvent(pot, 0.5, 3.0)[0]
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
    j1 = _resolvent(pot, eps, r1)[0]
    j2 = _resolvent(pot, eps, r2)[0]
    assert abs(j1 - j2) <= abs(r1 - r2) + 1e-9


def test_resolvent_cap_on_nonmonotone_beta():
    pot = custom_potential(
        g=lambda r: -3.0 * np.asarray(r), g_prime=lambda r: -3.0 + 0.0 * np.asarray(r),
        g_hat=lambda r: -1.5 * np.asarray(r) ** 2, lam=1.0, check=False,
    )  # beta(r) = -2r, decreasing
    with pytest.raises(NewtonDivergenceError):
        _resolvent(pot, 1.0, 1.0)


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
    j = _resolvent(pot, eps, r)[0]
    assert np.array_equal(j, _reference(pot, eps, r))


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_resolvent_matches_reference_bitwise_through_bisection(rng, eps):
    pot = _steep_arctan()
    r = rng.uniform(-30.0, 30.0, 2000)
    # the first Newton step leaves the bracket [min(r, 0), max(r, 0)] somewhere
    first = r - eps * _beta(pot, r) / (1.0 + eps * _beta_prime(pot, r))
    assert np.any((first <= np.minimum(r, 0.0)) | (first >= np.maximum(r, 0.0)))
    j = _resolvent(pot, eps, r)[0]
    assert np.array_equal(j, _reference(pot, eps, r))
    assert np.max(np.abs(j + eps * _beta(pot, j) - r)) <= 1e-12


def test_resolvent_scalar_matches_reference():
    pot = _steep_arctan()
    for r in (-7.5, 0.0, 0.3, 25.0):
        j = _resolvent(pot, 0.1, r)[0]
        assert type(j) is float
        assert j == _reference(pot, 0.1, r)


@pytest.mark.parametrize("pot", [_newton_cubic(), _steep_arctan()], ids=["cubic", "arctan"])
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "out_of_bracket", "far_off", "near"])
def test_resolvent_from_any_start_finds_the_cold_root(rng, pot, kind):
    eps = 0.01
    r = rng.uniform(-20.0, 20.0, 500)
    cold = _resolvent(pot, eps, r)[0]
    start = {
        "nan": np.full_like(r, np.nan),
        "inf": np.full_like(r, np.inf),
        "-inf": np.full_like(r, -np.inf),
        "out_of_bracket": -2.0 * r,  # every element on the wrong side of 0
        "far_off": np.where(rng.random(r.size) < 0.5, 1e6, -1e6),
        "near": cold + 1e-3 * rng.standard_normal(r.size),
    }[kind]
    j = _resolvent(pot, eps, r, start=start)[0]
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
        be, j, bp = yosida_apply(pot, eps, r, start=start)
        # beta_eps(r) = beta(j(r)), the value the root's beta_pair call gave
        assert np.array_equal(be, _beta(pot, j))
        assert np.array_equal(bp, _beta_prime(pot, j))
    be, j, bp = yosida_apply(pot, eps, 2.5)
    assert type(be) is float and type(j) is float and type(bp) is float
    assert be == float(_beta(pot, j)) and bp == float(_beta_prime(pot, j))


def test_resolvent_start_at_the_root_costs_one_beta(monkeypatch, rng):
    pot = _newton_cubic()
    eps = 0.01
    r = rng.uniform(-5.0, 5.0, 300)
    cold = _resolvent(pot, eps, r)[0]
    calls = []
    beta_pair = Potential.beta_pair  # one (beta, beta') evaluation per point visited
    monkeypatch.setattr(Potential, "beta_pair",
                        lambda self, y: calls.append(y) or beta_pair(self, y))
    assert np.array_equal(_resolvent(pot, eps, r, start=cold)[0], cold)
    assert len(calls) == 1
    calls.clear()
    _resolvent(pot, eps, r)
    assert len(calls) >= 3  # from y = r: the start and at least two Newton updates


def test_resolvent_start_must_have_the_shape_of_r():
    pot = _newton_cubic()
    for p in (pot, double_well(4.0)):  # the closed form checks the shape too
        with pytest.raises(ValueError, match="shape"):
            _resolvent(p, 0.1, np.ones(4), start=np.ones(3))
    # a scalar r takes a scalar start, and apply passes it on
    assert _resolvent(pot, 0.1, 2.0, start=1.0)[0] == pytest.approx(
        _resolvent(pot, 0.1, 2.0)[0], abs=_ROOT_TOL)
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
    j = _resolvent(pot, 0.1, 0.5)[0]  # beta finite along the whole iteration
    assert abs(j + 0.1 * _beta(pot, j) - 0.5) <= 1e-12
    with pytest.raises(NewtonDivergenceError):
        _resolvent(pot, 0.1, np.array([0.5, 1.5, -3.0]))


def test_resolvent_rejects_all_nan_beta():
    pot = custom_potential(
        g=lambda y: np.full(np.shape(y), np.nan), g_prime=lambda y: np.full(np.shape(y), np.nan),
        g_hat=lambda y: 0.0 * np.asarray(y), lam=0.0, check=False,
    )
    with pytest.raises(NewtonDivergenceError):
        _resolvent(pot, 0.1, np.array([0.0, 1.0, -2.0]))


def test_yosida_epsilon_validation():
    for pot in (double_well(4.0), _newton_cubic()):  # the closed form and the Newton path
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="epsilon"):
                _resolvent(pot, eps, 1.0)
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
        j, bp = _resolvent(pot, e, np.array([x]))
        assert np.array_equal(bp, 3.0 * np.abs(j) ** 2.0 - 1.0 + lam)  # beta'(j), m = 4
        assert _relative_error_to_50_digit_root(e, lam, x, j[0]) <= 8 * np.finfo(float).eps
    assert len(calls) == eps.size  # beta at the root only, no Newton iterate


@pytest.mark.parametrize("eps, r", [(1e6, 1e306), (1e6, -1.7e308), (1e-12, 1.7e308),
                                    (1e6, 1e200), (1e-12, -1e-300)])
def test_closed_form_resolvent_at_extreme_eps_r(eps, r):
    # x = 1.5 c r / b overflows at the first two points, and all but the last
    # take the form for |x| past 1e4; pytest turns a RuntimeWarning into an error
    j = _resolvent(double_well(4.0), eps, np.array([r]))[0]
    assert _relative_error_to_50_digit_root(eps, 1.0, r, j[0]) <= 8 * np.finfo(float).eps



_signed_powers = st.tuples(st.booleans(), st.floats(-290.0, 20.0)).map(
    lambda t: (-1.0 if t[0] else 1.0) * 10.0 ** t[1])


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e),
       lam=st.floats(0.0, 300.0).map(lambda e: 10.0 ** e),
       scaled=arrays(np.float64, st.integers(1, 4), elements=_signed_powers))
@example(eps=0.01, lam=1e300, scaled=np.array([1e-298, -5e-299]))  # 1.5 c / b underflows to 0
@example(eps=1.0, lam=1e210, scaled=np.array([1.7e98]))  # 1.5 c / b is subnormal
def test_closed_form_resolvent_up_to_b_1e300(eps, lam, scaled):
    # b = 1 + eps (lam - 1) up to about 1e306 and r = b * scaled, capped at
    # 1.7e308: the root is within 8 ulp of the 50-digit one, without a
    # RuntimeWarning, and within the frozen reference's residual tolerance of
    # its root wherever that converges.  Its Newton from y = r cancels to
    # rounding noise once r / b is below r's ulp, and its 100 iterations
    # often run out there
    pot = replace(double_well(4.0), lam=lam)
    b = 1.0 + eps * (lam - 1.0)
    with np.errstate(over="ignore"):
        r = np.sign(scaled) * np.minimum(np.abs(scaled) * b, 1.7e308)
    j = _resolvent(pot, eps, r)[0]
    # 8 ulp, plus the rounding of x = 1.5 c r / b where it is subnormal, which an
    # element far below max|r| can have on the Cardano form
    k = 1.5 * math.sqrt(3.0 * eps / b)
    for x, y in zip(r, j):
        error = _relative_error_to_50_digit_root(eps, lam, x, y) * abs(y)
        assert error <= 8 * np.finfo(float).eps * abs(y) + 2.0 ** -1074 / k
    try:
        with np.errstate(all="ignore"):
            ref = _reference(pot, eps, r)
    except RuntimeError:
        return
    # a residual within 1e-12 puts the reference within 1e-12 / slope of the root
    slope = b + 3.0 * eps * ref * ref
    assert np.all(np.abs(j - ref) <= 1.5e-12 / slope + 16 * np.finfo(float).eps * np.abs(ref))

def _closed_form_reference(eps, lam, r):
    """The m = 4 root and beta'(root) in the form that max |r| selects, from the formulas."""
    b = 1.0 + eps * (lam - 1.0)
    q = eps / b
    j_max = float(np.max(np.abs(r))) / b
    c = math.sqrt(3.0 * q)
    k = 1.5 * c
    if q * j_max * j_max <= potentials._LINEAR_RTOL:
        j = r / b
    elif j_max <= potentials._CARDANO_X_MAX / k:
        j = (2.0 / c) * np.sinh(np.arcsinh(k * (r / b)) / 3.0)
    else:
        h = 0.5 * np.abs(r / b)
        s = np.cbrt(2.0 * k) * np.cbrt(h + np.hypot(0.5 / k, h))
        u = s * s
        j = r / ((b / 3.0) * (u + 1.0 + 1.0 / u))
    with np.errstate(over="ignore"):
        return j, double_well(4.0).g_pair(j)[1] + lam


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.01, 1.0, 1e6])
def test_closed_form_resolvent_takes_one_form_per_call_bitwise_and_silently(eps, lam):
    # |x| = k max|r| on both sides of the linear form's bound, below, at and
    # one ulp past _CARDANO_X_MAX, and |r| up to 1e308; g(j) overflows there
    # for the largest r, and at eps = 1e-300 inside the Cardano range too.
    # Any RuntimeWarning fails the test
    pot = replace(double_well(4.0), lam=lam)
    b = 1.0 + eps * (lam - 1.0)
    at = b * potentials._CARDANO_X_MAX / (1.5 * math.sqrt(3.0 * eps / b))
    linear = b * math.sqrt(potentials._LINEAR_RTOL * b / eps)  # r / b up to about here
    cases = [[0.5 * linear, -0.25 * linear], [2.0 * linear, 1e-300],
             [0.5 * at, -0.25 * at, 1e-3 * at, 0.0], [at, -0.5 * at, 0.0], [-at, 1.0],
             [np.nextafter(at, math.inf), 1.0, -1e-300], [-np.nextafter(at, math.inf)],
             [1e102, -1.0], [np.nextafter(1e102, math.inf), 1.0], [1e150], [1e200, -1e-200],
             [1e308, -1e308, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in map(np.array, cases):
            j, bp = _resolvent(pot, eps, r)
            ref_j, ref_bp = _closed_form_reference(eps, lam, r)
            assert j.tobytes() == ref_j.tobytes() and bp.tobytes() == ref_bp.tobytes(), r
    # a non-finite r takes the Newton path, which may overflow on its way to failing
    for r in ([1.0, np.nan], [np.inf], [-np.inf, 2.0], [np.nan, 1e308]):
        with pytest.raises(NewtonDivergenceError), np.errstate(over="ignore", invalid="ignore"):
            _resolvent(pot, eps, np.array(r))


def test_lambda_below_split_and_non_finite_r_take_newton(monkeypatch):
    calls = _count_beta_pairs(monkeypatch)
    # lambda 0.5: b = 1 + eps (lambda - 1) > 0, but the root r / b of the
    # near-linear part lies past r, outside Newton's bracket, so Newton stalls
    with pytest.raises(NewtonDivergenceError):
        _resolvent(replace(double_well(4.0), lam=0.5), 0.01, 1e-3)
    assert len(calls) > 1
    for r in ([1.0, np.nan], [np.inf], [-np.inf, 2.0]):
        calls.clear()
        with pytest.raises(NewtonDivergenceError), np.errstate(invalid="ignore"):
            _resolvent(double_well(4.0), 0.01, np.array(r))
        assert len(calls) > 1


@pytest.mark.parametrize("m", [3.5, 6.5])
@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_newton_resolvent_converges_at_large_r(m, eps):
    # the residual rounds at about eps_mach |r|: an absolute 1e-12 alone
    # stalled here with NewtonDivergenceError
    pot = double_well(m)
    assert pot.resolvent is None
    r = np.array([1e4, -3e5, 1e6, 1e8])
    j = _resolvent(pot, eps, r)[0]
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
# the residual y + eps beta(y) - r at this root cannot round below 1.25e-12,
# which a fixed tolerance of 1e-12 could not accept
@example(r1_r2=(np.array([0.0]), np.array([5.5])), eps=1e6, lam=1.0)
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


# epsilon log-uniform over [1e-300, 1e6], and r of either sign, log-uniform in
# magnitude up to 1e308, or 0, or not finite
_wide_eps = st.floats(-300.0, 6.0).map(lambda e: 10.0 ** e)
_wide_r = arrays(np.float64, st.integers(1, 4), elements=st.one_of(
    st.tuples(st.booleans(), st.floats(-320.0, 308.0)).map(
        lambda t: (-1.0 if t[0] else 1.0) * 10.0 ** t[1]),
    st.sampled_from([0.0, math.inf, -math.inf, math.nan])))


def _check_yosida_apply_and_pair(pot, eps, r):
    """beta_eps = beta(j) bit for bit and beta_eps' in [0, 1/eps], both without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        be, j, _ = yosida_apply(pot, eps, r)
        pair_be, pair_bp = yosida_pair(pot, eps)(r)
    with np.errstate(over="ignore"):  # beta(j) overflows where beta_eps(r) does
        assert be.tobytes() == _beta(pot, j).tobytes()
    assert pair_be.tobytes() == be.tobytes()
    assert np.all(np.isfinite(pair_bp))
    assert np.all((pair_bp >= 0.0) & (pair_bp <= 1.0 / eps))


@settings(max_examples=100, deadline=None)
@given(r=_wide_r, eps=_wide_eps, lam=st.floats(0.5, 3.0))
@example(r=np.array([1e200]), eps=1e-300, lam=1.0)  # beta(j) and beta'(j) overflow
def test_closed_form_yosida_apply_converges_to_beta_at_the_root(r, eps, lam):
    # double_well(4.0) takes the closed form for finite r at lambda >= 1
    pot = replace(double_well(4.0), lam=lam)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yosida_apply(pot, eps, r)
    except NewtonDivergenceError:
        assert not np.all(np.isfinite(r)) or lam < 1.0
        return
    if lam >= 1.0:
        _check_yosida_apply_and_pair(pot, eps, r)


def _log_beta_at_root(p, lam, eps, r):
    """log beta(j) for beta(y) = |y|^p sign(y) + (lam - 1) y, by bisection on log j.

    j solves (1 + eps (lam - 1)) j + eps j^p = |r|; in logs nothing overflows.
    """
    log_a, log_eps, log_r = math.log1p(eps * (lam - 1.0)), math.log(eps), math.log(abs(r))
    lo, hi = -800.0, 800.0
    for _ in range(200):
        t = 0.5 * (lo + hi)
        if np.logaddexp(log_a + t, log_eps + p * t) < log_r:
            lo = t
        else:
            hi = t
    return p * lo if lam == 1.0 else float(np.logaddexp(p * lo, math.log(lam - 1.0) + lo))


@pytest.mark.parametrize("pot, p", [(_newton_cubic(), 3.0), (double_well(3.5), 2.5)],
                         ids=["cubic", "m3.5"])
@settings(max_examples=100, deadline=None)
@given(r=_wide_r, eps=_wide_eps, lam=st.floats(0.5, 3.0))
@example(r=np.array([1e300, -1e-300]), eps=1e6, lam=1.0)  # the root ~200 decades below r
def test_newton_yosida_apply_converges_to_beta_at_the_root(pot, p, r, eps, lam):
    pot = replace(pot, lam=lam)
    assert not potentials._takes_closed_form(pot)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yosida_apply(pot, eps, r)
    except NewtonDivergenceError:
        # or beta at the root is past the float range (beta_eps(r) is there too),
        # and the residual y + eps beta(y) - r cannot be formed near it
        near_overflow = math.log(np.finfo(float).max) - 1e-6
        assert (not np.all(np.isfinite(r)) or lam < 1.0
                or any(x != 0.0 and _log_beta_at_root(p, lam, eps, x) > near_overflow
                       for x in r))
        return
    if lam >= 1.0:
        _check_yosida_apply_and_pair(pot, eps, r)
