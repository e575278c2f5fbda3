"""Command-line entry point: simulate | equilibrium | verify | spectrum | rates.

Every subcommand takes --config <path> (JSON, see fracch.config) and an
optional --out <dir> overriding output.dir.  Exit codes: 0 ok, 1 verification
check failed, 2 configuration error or an output file that cannot be written,
3 missing input, 4 solver divergence, 5 certificate violation, 6 numerical
failure (assembly, energy overflow, linear algebra or memory).  Time series
go out as CSV, reports as JSON; the trajectory CSV streams row by row so long
runs are inspectable mid-flight.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, check_memory, parse_config
from .diagnostics import fit_decay_series, poincare_report
from .energy import energy
from .equilibrium import (
    complete_report,
    default_equilibrium_seed,
    linearize,
    pencil_eigenvalues,
    pencil_eigenvalues_in_place,
    solve_stationary,
)
from .errors import (
    AssemblyError,
    CertificateViolationError,
    ConfigurationError,
    JacobianSingularError,
    MissingInputError,
    NewtonDivergenceError,
)
from .evolution import evolve, march
from .mesh import check_coeffs
from .potentials import yosida_apply

TRAJECTORY_COLUMNS = (
    "step", "t", "tau_used", "energy", "w_xnorm", "u_xnorm_sigma",
    "u_linf", "dual_norm_ut", "cert_defect",
)
CERTIFICATE_COLUMNS = (
    "step", "t", "tau_used", "e_before", "e_after", "w_normsq",
    "du_msq", "lambda_half_du", "defect", "satisfied",
)


def _out_dir(cfg: RunConfig, override: str | None) -> str:
    out = override if override else cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _initial_data(cfg: RunConfig, dof: int) -> np.ndarray:
    # seeded rough data; deterministic per config seed
    return 0.25 * cfg.rng().standard_normal(dof)


def run_simulate(cfg: RunConfig, out: str) -> int:
    ctx = cfg.build_context()
    u0 = _initial_data(cfg, ctx.ops.mesh.dof_count)
    traj_path = os.path.join(out, "trajectory.csv")
    cert_path = os.path.join(out, "certificates.csv")
    # append mode, then truncation once both are open: a file that cannot be
    # opened leaves the earlier output of the other as it was
    with open(traj_path, "a", newline="") as tfh, open(cert_path, "a", newline="") as cfh:
        tfh.truncate(0)
        cfh.truncate(0)
        tw = csv.writer(tfh)
        cw = csv.writer(cfh)
        tw.writerow(TRAJECTORY_COLUMNS)
        cw.writerow(CERTIFICATE_COLUMNS)
        steps = march(ctx, cfg.step, u0, cfg.t_end)
        for step_idx, (t, _, cert) in enumerate(steps, 1):
            # dual_norm_ut = |M u_t|_{A_s^-1} equals w_xnorm, since A_s w_n = -M u_t;
            # csv writes a float (numpy's float64 too) as its shortest repr
            w_xnorm = math.sqrt(max(cert.w_normsq, 0.0))
            tw.writerow([
                step_idx, t, cert.tau_used, cert.e_after, w_xnorm,
                cert.u_xnorm_sigma, cert.u_linf, w_xnorm, cert.defect,
            ])
            cw.writerow([
                step_idx, t, cert.tau_used, cert.e_before, cert.e_after, cert.w_normsq,
                cert.du_msq, 0.5 * ctx.pot.lam * cert.du_msq, cert.defect, int(cert.satisfied),
            ])
            tfh.flush()
    print(f"wrote {traj_path} and {cert_path}")
    return 0


def run_equilibrium(cfg: RunConfig, out: str) -> int:
    ctx = cfg.build_context()
    seed = default_equilibrium_seed(ctx)
    rep = solve_stationary(ctx, seed, tol=cfg.step.newton_tol, max_iter=cfg.step.newton_max)
    rep = complete_report(ctx, rep)
    payload = {
        "phi": [float(x) for x in rep.phi],
        "residual_dual": rep.residual_dual,
        "newton_history": [[res, alpha] for res, alpha in rep.newton_history],
        "linf": rep.linf,
        "pencil_eigs": [float(x) for x in rep.pencil_eigs],
        "kernel_dim": len(rep.kernel_basis),
        "kernel_basis": [[float(x) for x in v] for v in rep.kernel_basis],
        "iso_condition": rep.iso_condition if math.isfinite(rep.iso_condition) else None,
        "theta_hint": rep.theta_hint,
    }
    path = os.path.join(out, "equilibrium.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {path}")
    return 0


def run_spectrum(cfg: RunConfig, out: str) -> int:
    ctx = cfg.build_context()
    seed = default_equilibrium_seed(ctx)
    rep = solve_stationary(ctx, seed, tol=cfg.step.newton_tol, max_iter=cfg.step.newton_max)
    op_eigs = pencil_eigenvalues(ctx.ops.A_sigma, ctx.ops.M)
    lin_eigs = pencil_eigenvalues_in_place(linearize(ctx, rep.phi), ctx.ops.M)
    path = os.path.join(out, "spectrum.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("k", "operator_eig", "linearized_eig"))
        for k, (oe, le) in enumerate(zip(op_eigs, lin_eigs)):
            w.writerow((k, oe, le))
    print(f"wrote {path}")
    return 0


def run_verify(cfg: RunConfig, out: str) -> int:
    ctx = cfg.build_context()
    ops = ctx.ops
    rng = cfg.rng()
    checks = {}

    rep = poincare_report(ops, trials=1000, rng=rng)
    checks["poincare"] = {
        "pass": bool(rep.holds), "min_ratio": rep.min_ratio, "bound": rep.bound,
    }

    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(ops.mesh.dof_count)
        f = ops.A_s @ v
        nv = math.sqrt(float(v @ f))
        worst = max(worst, abs(ops.dual_norm_s(f) - nv) / nv)
    checks["duality"] = {"pass": bool(worst < 1e-10), "worst_rel_err": worst}

    pot = ctx.pot
    r = rng.uniform(-5.0, 5.0, size=1000)
    beta_r = pot.beta_pair(r)[0]
    yos_ok = True
    details = {}
    for eps in (1.0, 0.1, 0.01):
        be, j, _ = yosida_apply(pot, eps, r)
        bound_ok = bool(np.all(np.abs(be) <= np.abs(beta_r) + 1e-9))
        r2 = rng.uniform(-5.0, 5.0, size=1000)
        be2, j2, _ = yosida_apply(pot, eps, r2)
        lip_ok = bool(np.all(np.abs(be - be2) <= np.abs(r - r2) / eps + 1e-9))
        nonexp_ok = bool(np.all(np.abs(j - j2) <= np.abs(r - r2) + 1e-9))
        details[str(eps)] = {"bound": bound_ok, "lipschitz": lip_ok, "nonexpansive": nonexp_ok}
        yos_ok = yos_ok and bound_ok and lip_ok and nonexp_ok
    checks["yosida"] = {"pass": yos_ok, **details}

    u0 = _initial_data(cfg, ops.mesh.dof_count)
    traj = evolve(ctx, cfg.step, u0, t_end=min(cfg.t_end, 50 * cfg.step.tau), on_violation="ignore")
    sat = all(c.satisfied for c in traj.certificates)
    checks["energy_stability"] = {
        "pass": bool(sat),
        "steps": len(traj.certificates),
        "max_defect": float(traj.certificates.defect.max()),
    }

    all_pass = all(c["pass"] for c in checks.values())
    payload = {"all_pass": all_pass, "checks": checks}
    path = os.path.join(out, "verify.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    for name, c in checks.items():
        print(f"{name}: {'pass' if c['pass'] else 'FAIL'}")
    print(f"wrote {path}")
    return 0 if all_pass else 1


def run_rates(cfg: RunConfig, out: str) -> int:
    traj_path = os.path.join(out, "trajectory.csv")
    eq_path = os.path.join(out, "equilibrium.json")
    for p in (traj_path, eq_path):
        if not os.path.exists(p):
            raise MissingInputError(f"{p} not found; run simulate and equilibrium first")
    times, energies = [], []
    try:
        with open(traj_path, newline="") as fh:
            for row in csv.DictReader(fh):
                t, e = float(row["t"]), float(row["energy"])
                if not (math.isfinite(t) and math.isfinite(e)):
                    raise ValueError(f"non-finite t or energy in step {row.get('step')}")
                times.append(t)
                energies.append(e)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise MissingInputError(f"{traj_path} is malformed: {exc!r}") from None
    if not times:
        raise MissingInputError(f"{traj_path} contains no steps")
    ctx = cfg.build_context()
    try:
        with open(eq_path) as fh:
            eq = json.load(fh)  # JSONDecodeError is a ValueError
        phi = check_coeffs(ctx.ops.mesh, eq["phi"])  # also rejects a phi of another mesh
        theta = eq.get("theta_hint")
        if theta is None:
            theta = 0.5
        elif isinstance(theta, bool) or not isinstance(theta, (int, float)) or not 0 < theta < 1:
            raise ValueError(f"theta_hint must be null or a number in (0, 1), got {theta!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise MissingInputError(f"{eq_path} is malformed: {exc!r}") from None
    phi_energy = energy(ctx, phi)
    try:
        fit = fit_decay_series(np.asarray(times), np.asarray(energies), phi_energy, theta)
    except ValueError as exc:
        raise MissingInputError(f"trajectory unusable for a rate fit: {exc}") from None
    payload = {
        "mode": fit.mode, "theta": fit.theta, "rate": fit.rate,
        "r_squared": fit.r_squared, "window": list(fit.window),
        "e_limit": fit.e_limit, "degenerate": fit.degenerate,
    }
    path = os.path.join(out, "rates.json")
    curve_path = os.path.join(out, "rates_curve.csv")
    with open(path, "a") as fh, open(curve_path, "a", newline="") as cfh:  # as in run_simulate
        fh.truncate(0)
        cfh.truncate(0)
        json.dump(payload, fh, indent=1)
        w = csv.writer(cfh)
        w.writerow(("t", "H", "H_fit"))
        w.writerows(fit.curve)
    print(f"wrote {path} and {curve_path}")
    return 0


_COMMANDS = {
    "simulate": run_simulate,
    "equilibrium": run_equilibrium,
    "verify": run_verify,
    "spectrum": run_spectrum,
    "rates": run_rates,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracch",
        description="Fractional Cahn-Hilliard solver and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        check_memory(cfg, args.command)
        return _COMMANDS[args.command](cfg, _out_dir(cfg, args.out))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except (NewtonDivergenceError, JacobianSingularError) as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return 4
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 5
    except (AssemblyError, OverflowError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:  # the commands report their failed reads above, as exit 2 or 3
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
