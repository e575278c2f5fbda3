"""Long-time diagnostics: rate fits, Poincare and smoothing.

The decay fit works on H(t) = (E(u(t)) - E(phi))^theta.  Exponential decay
of H signals the theta = 1/2 regime of the gradient inequality; algebraic
decay corresponds to smaller exponents.  Fit windows are chosen
automatically and fits on the numerical noise floor are refused.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .evolution import Trajectory
from .mesh import tridiagonal_product
from .operators import OperatorSet, normalization_constant


@dataclass(frozen=True)
class LojFit:
    mode: str  # "exponential" or "algebraic"
    theta: float
    rate: float
    r_squared: float
    window: tuple
    e_limit: float
    degenerate: bool
    # (t, H, H_fit) rows the fit was made on, for external plotting; (0, 3) when degenerate
    curve: np.ndarray = field(compare=False)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r2


def _select_window(times, energies, phi_energy, theta):
    """Samples of H above the noise cutoff, or None when H vanishes entirely.

    The cutoff is max(100 eps scale, 3 min H): the first term is the classic
    roundoff floor, the second excises the plateau where the solver tolerance
    freezes the trajectory.  A negative gap (an energy below the limit) is
    clipped to zero with a warning.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    diff = energies - phi_energy
    if np.any(diff < 0):
        warnings.warn(
            "energy dipped below the limit energy; clipping negative gaps to zero"
        )
        diff = np.clip(diff, 0.0, None)
    H = diff**theta
    positive = H[H > 0]
    if positive.size == 0:
        return None
    floor = 100.0 * np.finfo(float).eps * max(1.0, abs(phi_energy))
    cutoff = max(floor, 3.0 * float(positive.min()))
    mask = H > cutoff
    return times[mask], H[mask]


def fit_decay_series(
    times: np.ndarray, energies: np.ndarray, phi_energy: float, theta: float
) -> LojFit:
    """Fit H(t) = (E(t) - E_phi)^theta on an automatically chosen window.

    Fits need at least 10 samples spanning two decades of H above the noise
    cutoff (see ``_select_window``), otherwise they are refused.  The fit's
    ``curve`` holds the samples it was made on (for the algebraic mode those
    with t > 0) beside the fitted H from its own slope and intercept.
    """
    times = np.asarray(times, dtype=float)
    selected = _select_window(times, energies, phi_energy, theta)
    if selected is None:
        return LojFit(mode="exponential", theta=theta, rate=0.0, r_squared=0.0,
                      window=(float(times[0]), float(times[-1])),
                      e_limit=phi_energy, degenerate=True, curve=np.empty((0, 3)))
    tw, Hw = selected
    if tw.size < 10:
        raise ValueError(
            f"only {tw.size} samples above the noise floor; fit refused"
        )
    decades = math.log10(float(Hw.max()) / float(Hw.min()))
    if decades < 2.0:
        raise ValueError(f"fit window spans {decades:.2f} decades (< 2); fit refused")

    log_h = np.log(Hw)
    slope_e, icpt_e, r2_exp = _linear_fit(tw, log_h)

    pos_t = tw > 0
    log_t = np.log(tw[pos_t])
    if log_t.size >= 10:
        slope_a, icpt_a, r2_alg = _linear_fit(log_t, log_h[pos_t])
    else:
        slope_a, icpt_a, r2_alg = 0.0, 0.0, -math.inf

    window = (float(tw[0]), float(tw[-1]))
    if r2_exp >= r2_alg:
        mode, rate, r2 = "exponential", -slope_e, r2_exp
        H_fit = np.exp(icpt_e + slope_e * tw)
    else:
        mode, rate, r2 = "algebraic", slope_a, r2_alg
        tw, Hw = tw[pos_t], Hw[pos_t]
        H_fit = np.exp(icpt_a + slope_a * log_t)
    return LojFit(mode=mode, theta=theta, rate=rate, r_squared=r2, window=window,
                  e_limit=phi_energy, degenerate=False,
                  curve=np.column_stack([tw, Hw, H_fit]))


_POINCARE_BLOCK = 100  # normal draws per block in poincare_report


@dataclass(frozen=True)
class PoincareReport:
    min_ratio: float
    bound: float
    holds: bool


def poincare_report(ops: OperatorSet, trials: int, rng=None) -> PoincareReport:
    """Sampled fractional Poincare check with the explicit annulus constant.

    The raw seminorm (2/C_s) v^T A_s v dominates
    |annulus| / (2R+1)^(1+2s) * |v|_L2^2 with Omega inside the radius-R ball;
    in 1-D the annulus B_{R+1} minus B_R has measure 2.  Draws are standard
    normal coefficient vectors plus boundary-localized single hats, the
    adversarial cases for this constant.  A single hat's ratio is a ratio of
    diagonal entries, and the normal draws are taken and evaluated
    ``_POINCARE_BLOCK`` at a time, so no sample array grows with ``trials``.
    """
    mesh = ops.mesh
    s = ops.exps.s
    R = max(abs(mesh.a), abs(mesh.b))
    try:
        bound = 2.0 / float(2.0 * R + 1.0) ** (1.0 + 2.0 * s)
    except OverflowError:  # the power is past the float range on a huge domain
        bound = 0.0
    rng = default_rng(0) if rng is None else rng
    dof = mesh.dof_count
    scale = 2.0 / normalization_constant(s)
    k = np.arange(min(10, dof))
    hats = np.concatenate([k, dof - 1 - k])
    min_ratio = float(np.min(scale * np.diag(ops.A_s)[hats] / ops.M[0][hats]))
    for start in range(0, trials, _POINCARE_BLOCK):
        V = rng.standard_normal((min(_POINCARE_BLOCK, trials - start), dof))
        num = scale * np.einsum("ij,ij->i", V, V @ ops.A_s)
        den = np.einsum("ij,ji->i", V, tridiagonal_product(*ops.M, V.T))
        min_ratio = min(min_ratio, float(np.min(num / den)))
    return PoincareReport(min_ratio=min_ratio, bound=bound, holds=min_ratio >= bound)


def smoothing_report(traj: Trajectory, t0_grid=(0.1, 0.2, 0.5, 1.0)) -> list:
    """[(t0, t0 * sup over t >= t0 of the squared w energy norm)] per grid point.

    Boundedness of these products across t0 is the discrete trace of the
    parabolic smoothing bound with its 1/t0 blowup near the initial time.
    """
    out = []
    for t0 in t0_grid:
        mask = traj.times >= t0
        if not np.any(mask):
            raise ValueError(f"trajectory ends before t0={t0}")
        sup = float(np.max(traj.certificates.w_normsq[mask]))
        out.append((float(t0), float(t0) * sup))
    return out
