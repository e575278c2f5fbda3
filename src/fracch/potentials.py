"""Potential bundle: g, its primitive, the monotone split, and Yosida smoothing.

The split writes beta(r) = g(r) + lambda r with beta monotone nondecreasing;
``beta_pair`` gives (beta, beta') from one ``g_pair`` call.  The energy
integrates the primitive g_hat of g, so no primitive of beta is formed.
Hypothesis checks on user potentials are sampling-based and warn instead of
aborting, so the tool stays usable outside the theory's assumptions.

``yosida_apply`` returns (beta_eps(r), j(r), beta'(j(r))) from one resolvent
solve, beta_eps(r) = beta(j(r)) coming from the ``beta_pair`` call at the
root.  For the double well with m = 4 and lambda >= 1 the resolvent is the
real root of a cubic, taken in closed form; everything else takes a
safeguarded Newton iteration to a residual within twice its terms' rounding,
max(1e-12, 4 eps_mach (|r| + eps (1 + lambda) |y|)) at the iterate y.

``yosida_pair`` builds one run's r -> (beta_eps(r), beta_eps'(r)), each
value from one ``yosida_apply`` call: by the chain rule through the
resolvent, beta_eps' = beta'(j) / (1 + eps beta'(j)).  Consecutive calls in
a run see nearly the same r, so on the Newton path the pair remembers its
last (r, j, 1 + eps beta'(j)) and starts the next resolvent solve at the
tangent prediction j + (r - r_last) / (1 + eps beta'(j)), since
dj/dr = 1 / (1 + eps beta'(j)) (Allgower & Georg, Introduction to Numerical
Continuation Methods, ch. 2).
The resolvent replaces a non-finite start by r and clips the start into its
bracket, and its tolerance is unchanged, so the start moves each root only
within that tolerance.  There it cuts the beta evaluations by more than 40%
on a Newton-solved cubic beta (200 steps at n = 64), and the run time by
20-30% on the ``simulate_yosida64`` benchmark config with m = 3.5.  A
potential that takes the closed form reads no start, so its pair keeps no
memory and forms none.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NewtonDivergenceError


class PotentialCheckWarning(UserWarning):
    """A sampled hypothesis check on a user potential failed."""


@dataclass(frozen=True, eq=False)
class Potential:
    """Nonlinearity bundle; callables must accept numpy arrays elementwise.

    ``g_pair(r)`` returns (g(r), g'(r)); ``double_well`` forms both from one
    pass over r.  ``resolvent(eps, lam, r, r_max)``, when set
    (``double_well(4.0)``), is the closed-form root j of j + eps beta(j) = r
    for lam >= 1 and finite r, with r_max = max |r| taken by the caller;
    ``yosida_apply`` then takes it in place of Newton.
    """

    g_pair: Callable
    g_hat: Callable
    lam: float
    resolvent: Callable | None = None

    def beta_pair(self, r):
        """(beta(r), beta'(r)) from one ``g_pair`` call."""
        r = np.asarray(r, dtype=float)
        g, g_prime = self.g_pair(r)
        return g + self.lam * r, g_prime + self.lam


def double_well(m: float = 4.0) -> Potential:
    """Polynomial double well: primitive |r|^m / m - r^2 / 2, split constant 1.

    g'(r) = (m-1)|r|^(m-2) - 1 >= -1, so lambda = 1 is the tightest split.
    """
    if not np.isfinite(m) or m < 2:
        raise ConfigurationError(f"double-well exponent must satisfy m >= 2, got {m}")

    def g_pair(r):
        r = np.asarray(r, dtype=float)
        power = np.abs(r) ** (m - 2.0)
        return power * r - r, (m - 1.0) * power - 1.0

    def g_hat(r):
        r = np.asarray(r, dtype=float)
        return np.abs(r) ** m / m - 0.5 * r * r

    return Potential(g_pair, g_hat, lam=1.0, resolvent=_cubic_resolvent if m == 4 else None)


# |x| up to which _cubic_resolvent takes Cardano's hyperbolic form
_CARDANO_X_MAX = 1e4
# relative size of eps j^3 against b j up to which _cubic_resolvent takes j = r / b
_LINEAR_RTOL = 2.0 ** -53
# max |r| up to which g(j) = j^3 - j of the m = 4 double well cannot overflow:
# its root has |j| <= |r|, and 1e102 is below the cube root of the float range
_CUBE_FINITE_R = 1e102


def _cubic_resolvent(eps, lam, r, r_max):
    # m = 4: eps j^3 + b j = r with b = 1 + eps (lam - 1) >= 1 has one real
    # root, that of q j^3 + j = r / b with q = eps / b.  Where q (r / b)^2,
    # the size of q j^3 against j, is below rounding, the root is r / b.
    # Otherwise, with c = sqrt(3 q) and x = 1.5 c r / b, it is Cardano's
    # (2/c) sinh(asinh(x) / 3) (Press et al., Numerical Recipes, 3rd ed.,
    # section 5.6), whose error grows as ln|x| and whose x overflows at
    # large eps |r|.  Past |x| = _CARDANO_X_MAX it takes the same root as
    # 3 r / (b (s^2 + 1 + s^-2)), s^3 = |x| + sqrt(x^2 + 1) = exp(asinh|x|):
    # (s - 1/s)(s^2 + 1 + s^-2) = s^3 - s^-3 = 2|x|, so sinh(asinh(|x|) / 3)
    # = |x| / (s^2 + 1 + s^-2), a sum of positive terms without cancellation.
    # x is formed from r / b, not as (1.5 c / b) r: at huge lambda that
    # factor is subnormal or 0.  At b = 1 the two are the same bits
    b = 1.0 + eps * (lam - 1.0)
    q = eps / b
    j_max = float(r_max) / b
    if q * j_max * j_max <= _LINEAR_RTOL:
        return r / b
    c = math.sqrt(3.0 * q)
    k = 1.5 * c
    if j_max <= _CARDANO_X_MAX / k:
        return (2.0 / c) * np.sinh(np.arcsinh(k * (r / b)) / 3.0)
    # s = cbrt(2k) cbrt(|r/b|/2 + hypot(0.5/k, |r/b|/2)), so that nothing overflows
    h = 0.5 * np.abs(r / b)
    s = np.cbrt(2.0 * k) * np.cbrt(h + np.hypot(0.5 / k, h))
    u = s * s
    return r / ((b / 3.0) * (u + 1.0 + 1.0 / u))


def custom_potential(
    g: Callable,
    g_prime: Callable,
    g_hat: Callable,
    lam: float,
    check: bool = True,
) -> Potential:
    """Wrap user callables; sampled consistency checks warn on failure."""
    if not np.isfinite(lam) or lam < 0:
        raise ConfigurationError(f"lambda must be a finite nonnegative real, got {lam}")
    if check:
        _run_sampled_checks(g, g_prime, g_hat, lam)
    return Potential(lambda r: (g(r), g_prime(r)), g_hat, lam=float(lam))


def _run_sampled_checks(g: Callable, g_prime: Callable, g_hat: Callable, lam: float) -> None:
    if abs(float(g(0.0))) > 1e-12:
        warnings.warn(f"g(0) = {g(0.0)} is not zero", PotentialCheckWarning)
    r = np.linspace(-5.0, 5.0, 2001)
    delta = 1e-6
    fd = (g_hat(r + delta) - g_hat(r - delta)) / (2.0 * delta)
    err = np.max(np.abs(fd - g(r)) / (1.0 + np.abs(g(r))))
    if err > 1e-6:
        warnings.warn(
            f"primitive inconsistent with g: finite-difference mismatch {err:.2e}",
            PotentialCheckWarning,
        )
    grid = np.arange(-10.0, 10.0, 1e-3)
    margin = np.min(g_prime(grid) + lam)
    if margin < -1e-9:
        warnings.warn(
            f"lambda-monotonicity violated on [-10, 10]: min g' + lambda = {margin:.2e}",
            PotentialCheckWarning,
        )


# a resolvent root's residual bound: max(_ROOT_TOL, _ROOT_RTOL (|r| + eps (1 + lambda) |y|))
_ROOT_TOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAX_ITER = 100


def _takes_closed_form(pot: Potential) -> bool:
    """Whether ``yosida_apply`` takes ``pot.resolvent`` for finite r."""
    return pot.resolvent is not None and pot.lam >= 1.0


def yosida_apply(pot: Potential, epsilon: float, r, start=None):
    """(beta_eps(r), j(r), beta'(j(r))) from one resolvent solve, started at ``start``.

    j(r) is the unique root of y + epsilon * beta(y) = r, and beta_eps(r) =
    (r - j(r)) / epsilon is returned as beta(j(r)), the same value without
    the cancellation (Brezis, Operateurs maximaux monotones, 1973).
    ``epsilon`` that is not a finite positive number raises
    ConfigurationError.  When ``pot.resolvent`` is set (the double well with
    m = 4), ``pot.lam >= 1`` and every element of r is finite, j is that
    closed form, and ``start`` is not read.  The guard is lam >= 1, not
    b = 1 + eps (lam - 1) > 0: below the split constant beta is not
    monotone, the root can lie outside the bracket between 0 and r that the
    Newton path keeps, and Newton stalls there.

    Otherwise, elementwise: safeguarded Newton with a bisection fallback on
    the bracket between 0 and r (valid because beta is monotone with
    beta(0) = 0), numpy's floating-point warnings off.  An element converges
    when its residual is finite and within max(1e-12, 4 eps_mach (|r| +
    epsilon (1 + lambda) |y|)) at the iterate y, twice the rounding of the
    residual's terms.  A NaN residual (beta NaN there, or r not finite)
    moves neither end of the bracket, and a Newton step that is not finite
    or leaves the bracket is replaced by bisection.  The last 64 iterations
    bisect the bracket's bit patterns, which closes any bracket of finite
    floats.  An element not converged by the iteration cap raises
    ``NewtonDivergenceError``: a non-finite r always does, and so does a
    root whose beta is beyond the float range.

    The iteration starts from y = r, or from ``start``, an initial guess of
    r's shape (a warm start, such as a tangent prediction from a nearby
    solve): a non-finite element of ``start`` falls back to r, and every
    element is clipped into the bracket [min(r, 0), max(r, 0)].  The
    tolerance, the bracket and the safeguard are the same either way, so a
    start changes the root only within the tolerance.

    Each point visited, and the closed form's root, costs one
    ``pot.beta_pair`` call, which gives beta(j) and beta'(j) with j: arrays
    of r's shape, or floats for a scalar r.
    """
    if not 0.0 < epsilon < math.inf:  # False for NaN too
        raise ConfigurationError(f"Yosida epsilon must be finite and positive, got {epsilon}")
    r_arr = np.asarray(r, dtype=float)
    r_arr = r_arr.reshape(1) if r_arr.ndim == 0 else r_arr  # np.atleast_1d, without its overhead
    if start is not None:
        start = np.atleast_1d(np.asarray(start, dtype=float))
        if start.shape != r_arr.shape:
            raise ValueError(f"start has shape {start.shape}, r has shape {r_arr.shape}")
    r_abs = np.abs(r_arr)
    r_max = np.maximum.reduce(r_abs, axis=None, initial=0.0)  # NaN or inf unless every r is finite
    if _takes_closed_form(pot) and r_max < math.inf:
        y = pot.resolvent(epsilon, pot.lam, r_arr, r_max)
        if r_max <= _CUBE_FINITE_R:
            b, bp = pot.beta_pair(y)
        else:
            with np.errstate(over="ignore"):  # g(j) overflows only here, and beta_eps(r) with it
                b, bp = pot.beta_pair(y)
        return (b, y, bp) if np.ndim(r) else (float(b[0]), float(y[0]), float(bp[0]))
    # the tolerance's |r| term, NaN for a non-finite r so that no residual is ever within it
    tol_r = _ROOT_RTOL * np.where(np.isfinite(r_abs), r_abs, np.nan)
    tol_y = _ROOT_RTOL * epsilon * (1.0 + abs(pot.lam))
    lo, hi = np.minimum(r_arr, 0.0), np.maximum(r_arr, 0.0)
    y = r_arr if start is None else np.where(np.isfinite(start), start, r_arr)
    y = np.minimum(np.maximum(y, lo), hi)  # np.clip's bits, without its Python-level dispatch
    with np.errstate(all="ignore"):
        for it in range(_ROOT_MAX_ITER + 1):
            b, bp = pot.beta_pair(y)
            residual = y + epsilon * b - r_arr
            open_ = ~(np.abs(residual) <= np.maximum(_ROOT_TOL, tol_r + tol_y * np.abs(y)))
            if not open_.any():  # NaN counts as open
                break
            if it == _ROOT_MAX_ITER:
                raise NewtonDivergenceError(
                    "resolvent iteration cap exceeded; is potential.lambda below the split "
                    "constant (1 for the double well), or is a custom beta non-monotone or "
                    "not finite on the bracket between 0 and r?")
            np.minimum(hi, y, out=hi, where=residual > 0.0)
            np.maximum(lo, y, out=lo, where=residual <= 0.0)
            newton = y - residual / (1.0 + epsilon * bp)
            # a NaN or infinite step fails a test (a finite r's bracket is finite): bisection
            y_next = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            if it >= _ROOT_MAX_ITER - 64:  # bisect the bits, which order floats of one sign
                lo_bits, hi_bits = np.abs(lo).view(np.int64), np.abs(hi).view(np.int64)
                y_next = np.copysign((lo_bits + (hi_bits - lo_bits) // 2).view(float), r_arr)
            y = np.where(open_, y_next, y)
    return (b, y, bp) if np.ndim(r) else (float(b[0]), float(y[0]), float(bp[0]))


def yosida_pair(pot: Potential, epsilon: float):
    """One run's r -> (beta_eps(r), beta_eps'(r)), from one ``yosida_apply`` call each.

    On the Newton path each solve whose r has the last call's shape starts
    at the tangent prediction from that call; a ``pot`` that takes the
    closed form gets a pair without memory.
    """
    if _takes_closed_form(pot):
        def closed_form_pair(r):
            beta_eps, _, bp = yosida_apply(pot, epsilon, r)
            # beta'(j) = inf past |j| = 7.7e153: the capped slope gives inf there, and fmin 1/eps
            return beta_eps, np.fmin(bp / np.minimum(1.0 + epsilon * bp, 1e308), 1.0 / epsilon)

        return closed_form_pair
    last = None  # (r, j, 1 + epsilon beta'(j)) of the previous call

    def warm_pair(r):
        nonlocal last
        # dj/dr = 1 / (1 + epsilon beta'(j)); the resolvent replaces a non-finite start by r
        start = last[1] + (r - last[0]) / last[2] if last and last[0].shape == r.shape else None
        beta_eps, j, bp = yosida_apply(pot, epsilon, r, start=start)
        slope = 1.0 + epsilon * bp
        last = (r, j, slope)
        return beta_eps, np.fmin(bp / slope, 1.0 / epsilon)  # a rounding may pass 1/eps

    return warm_pair
