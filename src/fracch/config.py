"""Run configuration: strict JSON parsing with defaults and range checks.

Unknown keys are rejected (typo safety), and so are non-finite numbers; every
range violation names the offending key as ``group.key``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import default_rng

from .energy import EnergyContext
from .errors import ConfigurationError
from .evolution import StepConfig
from .mesh import FracMesh
from .operators import FracExponents, _check_lengths, build_operator_set
from .potentials import Potential, double_well

_DEFAULTS = {
    "domain": {"a": -1.0, "b": 1.0},
    "mesh": {"n_elems": 128},
    "frac": {"s": 0.5, "sigma": 0.5},
    "potential": {"kind": "double_well", "m": 4.0, "lambda": None},
    "time": {"tau": 1e-3, "t_end": 1.0, "record_stride": 10},
    "newton": {"tol": 1e-10, "max_iter": 50},
    "yosida": {"enabled": False, "epsilon": 0.01},
    "seeds": {"rng_seed": 0},
    "output": {"dir": "fracch-out"},
}

# the most dense dof x dof float64 arrays each command holds at once; M is kept
# as its two diagonals.  verify with s != sigma holds five: A_s, A_sigma, the
# cached factor of A_s that its duality check reads, P, and either
# G = M U^{-1} (the factor P is built from, inverted in its own buffer and
# dropped) while P = G G^T is built, or the Newton step matrix, factored and
# inverted in its own buffer and kept as the PCG preconditioner (its Poincare
# samples are 100 x dof blocks).  simulate keeps no factor of A_s and holds
# four (three at s = sigma, where A_s is A_sigma).  Below dof 112 the
# stepper also keeps K = P/tau + A_sigma beside its step matrix, one array
# more for simulate and verify, but there six arrays take under 0.6 MB, so
# the counts this check guards are unchanged.  equilibrium and spectrum never
# assemble A_s and hold three, with or without a kernel: A_sigma, its
# factor and one working copy, which is the stationary Newton's Jacobian
# buffer or a linearization L, reduced and then overwritten by the
# eigensolver in its own memory.  rates holds A_sigma.
_DENSE_ARRAYS = {"equilibrium": 3, "spectrum": 3, "rates": 1, "simulate": 4, "verify": 5}


def _physical_memory() -> float:
    """Bytes of physical memory, inf where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_dense_arrays(n_elems: int, arrays: int) -> None:
    """ConfigurationError when ``arrays`` dense dof x dof float64 arrays exceed physical memory."""
    footprint = arrays * 8 * (n_elems - 1) ** 2
    memory = _physical_memory()
    if footprint > memory:
        raise ConfigurationError(
            f"mesh.n_elems={n_elems} needs about {footprint / 2**30:.3g} GiB of dense "
            f"matrices, more than the {memory / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class RunConfig:
    """A checked run: the library objects its commands build on, and the run's own settings."""

    mesh: FracMesh
    exps: FracExponents
    pot: Potential
    step: StepConfig
    t_end: float
    rng_seed: int
    out_dir: str

    def build_context(self) -> EnergyContext:
        return EnergyContext(ops=build_operator_set(self.mesh, self.exps), pot=self.pot)

    def rng(self) -> np.random.Generator:
        return default_rng(self.rng_seed)


def _require_number(group: str, key: str, value, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{group}.{key} must be a number, got {value!r}")
    try:
        number = float(value)  # json reads NaN, Infinity and 1e400 as non-finite floats
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{group}.{key} must be a finite number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigurationError(f"{group}.{key} must be an integer, got {value!r}")
    return int(value) if integer else number


def parse_config(path) -> RunConfig:
    """Load, validate, and default-fill a JSON run configuration, then build its library objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")

    merged = {g: dict(v) for g, v in _DEFAULTS.items()}
    for group, entries in data.items():
        if group not in merged:
            raise ConfigurationError(f"unknown config key '{group}'")
        if not isinstance(entries, dict):
            raise ConfigurationError(f"config group '{group}' must be an object")
        for key, value in entries.items():
            if key not in merged[group]:
                raise ConfigurationError(f"unknown config key '{group}.{key}'")
            merged[group][key] = value

    a = _require_number("domain", "a", merged["domain"]["a"])
    b = _require_number("domain", "b", merged["domain"]["b"])
    if a >= b:
        raise ConfigurationError(f"domain.a must be < domain.b, got a={a}, b={b}")
    n_elems = _require_number("mesh", "n_elems", merged["mesh"]["n_elems"], integer=True)
    if n_elems < 2:
        raise ConfigurationError(f"mesh.n_elems must be >= 2, got {n_elems}")
    # no command holds fewer arrays; check_memory then counts the command's own
    _check_dense_arrays(n_elems, min(_DENSE_ARRAYS.values()))
    s = _require_number("frac", "s", merged["frac"]["s"])
    sigma = _require_number("frac", "sigma", merged["frac"]["sigma"])
    for name, val in (("frac.s", s), ("frac.sigma", sigma)):
        if not (0.0 < val < 1.0):
            raise ConfigurationError(f"{name} must lie in (0,1), got {val}")
    # checked but not kept: the double well is the one kind the command line offers
    kind = merged["potential"]["kind"]
    if kind != "double_well":
        raise ConfigurationError(
            f"potential.kind must be 'double_well' (custom potentials are library-only), got {kind!r}"
        )
    m = _require_number("potential", "m", merged["potential"]["m"])
    if m < 2:
        raise ConfigurationError(f"potential.m must be >= 2, got {m}")
    lam = merged["potential"]["lambda"]
    if lam is not None:
        lam = _require_number("potential", "lambda", lam)
        if lam < 0:
            raise ConfigurationError(f"potential.lambda must be >= 0, got {lam}")
    tau = _require_number("time", "tau", merged["time"]["tau"])
    if tau <= 0:
        raise ConfigurationError(f"time.tau must be positive, got {tau}")
    t_end = _require_number("time", "t_end", merged["time"]["t_end"])
    if t_end <= 0:
        raise ConfigurationError(f"time.t_end must be positive, got {t_end}")
    # still accepted and checked so that existing configs parse; no output reads it
    stride = _require_number("time", "record_stride", merged["time"]["record_stride"], integer=True)
    if stride < 1:
        raise ConfigurationError(f"time.record_stride must be >= 1, got {stride}")
    tol = _require_number("newton", "tol", merged["newton"]["tol"])
    if tol <= 0:
        raise ConfigurationError(f"newton.tol must be positive, got {tol}")
    max_iter = _require_number("newton", "max_iter", merged["newton"]["max_iter"], integer=True)
    if max_iter < 1:
        raise ConfigurationError(f"newton.max_iter must be >= 1, got {max_iter}")
    enabled = merged["yosida"]["enabled"]
    if not isinstance(enabled, bool):
        raise ConfigurationError(f"yosida.enabled must be a boolean, got {enabled!r}")
    epsilon = _require_number("yosida", "epsilon", merged["yosida"]["epsilon"])
    if epsilon <= 0:
        raise ConfigurationError(f"yosida.epsilon must be positive, got {epsilon}")
    seed = _require_number("seeds", "rng_seed", merged["seeds"]["rng_seed"], integer=True)
    if seed < 0:
        raise ConfigurationError(f"seeds.rng_seed must be >= 0, got {seed}")
    out_dir = merged["output"]["dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigurationError(f"output.dir must be a nonempty string, got {out_dir!r}")

    mesh = FracMesh(a, b, n_elems)
    # the powers of lengths that assembly forms, refused before any command
    # makes its output directory
    for exponent in (s, sigma):
        _check_lengths(mesh, exponent)
    pot = double_well(m)
    if lam is not None and lam != pot.lam:
        pot = replace(pot, lam=lam)  # explicit override of the split constant
    return RunConfig(
        mesh=mesh, exps=FracExponents(s, sigma), pot=pot,
        step=StepConfig(tau=tau, newton_tol=tol, newton_max=max_iter,
                        use_yosida=epsilon if enabled else None),
        t_end=t_end, rng_seed=seed, out_dir=out_dir,
    )


def check_memory(cfg: RunConfig, command: str) -> None:
    """ConfigurationError when ``command``'s dense arrays on ``cfg``'s mesh exceed physical memory.

    The command line calls it between ``parse_config`` and the command, so a
    refused run allocates nothing and makes no output directory.
    """
    arrays = _DENSE_ARRAYS[command]
    if command == "simulate" and cfg.exps.s == cfg.exps.sigma:
        arrays -= 1  # A_s is A_sigma
    _check_dense_arrays(cfg.mesh.n_elems, arrays)
