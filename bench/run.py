"""fracch benchmark: whole CLI runs, each in a fresh interpreter, with output checks.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run repeats one workload's CLI call (``fracch simulate`` or ``fracch
equilibrium`` on a JSON config, as a user runs it) in fresh child processes,
at least ``MIN_REPS`` times and then while the next call is likely to end
within ``--seconds``.  Every
repetition's outputs are checked against the references in
``bench/references.json``; all repetitions of one seed must write
byte-identical files.  With ``--trace 0`` the run reports the medians of the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of tracer.py.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every repetition passed, 1 when one failed, and 2 (with no result line) when
the program under test is not present.  Workloads, metrics and the reasons
for both are documented in bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402

WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
# Loose enough for a 5e-8 relative change of the stiffness entries (the
# quadrature error a closed-form assembly removes), tight enough for a wrong
# solve.  Energies are compared relative to the initial energy, because the
# final energy of a coarsening run can pass through zero.
ENERGY_RTOL = 1e-7
EIG_RTOL = 1e-5
# The speed of each vCPU of the shared 2-vCPU host this was built on drifts
# by tens of percent within seconds to minutes, and the two drift apart.  So
# every child and calibrate.py run pinned to one CPU (the runner uses the
# others), and calibrate.py times fixed work there before the first CLI call
# and after each one.  Each repetition's times are scaled by
#     CALIBRATION_REF_S / mean(calibration before, calibration after),
# that is, to seconds on a machine on which one calibration slice takes
# CALIBRATION_REF_S (that host when quiet), and the run reports the median.
# Pinned, the calibration correlated 0.78-0.94 with single-call wall times
# and cut their coefficient of variation from 5-15% to 2-11%.  The measured
# times are printed too.
CALIBRATION_REF_S = 0.056

DOMAIN = {"a": -4.0, "b": 4.0}  # wide enough that zero is unstable
# name: (command, config, input seeds).  The run's seed picks input seed
# seed % input_seeds, so every run has a stored reference.  The work of
# simulate_wide256 hardly depends on its initial data (572-603 Newton
# iterations over seeds 0-7); that of simulate_yosida64 does (2651-4003 over
# seeds 0-11, and the Yosida resolvent's cost varies more), so it runs one
# fixed input, like equilibrium, which does not read the seed at all.
WORKLOADS = {
    # stepper / dense 2n x 2n Newton solve: 300 steps at dof 255
    "simulate_wide256": ("simulate", {
        "domain": DOMAIN, "mesh": {"n_elems": 256}, "frac": {"s": 0.5, "sigma": 0.5},
        "time": {"tau": 1e-3, "t_end": 0.3}}, 32),
    # assembly: two Gagliardo matrices (s != sigma) at dof 767, three eigh pencils
    "equilibrium_split768": ("equilibrium", {
        "domain": DOMAIN, "mesh": {"n_elems": 768}, "frac": {"s": 0.3, "sigma": 0.7},
        "newton": {"tol": 1e-10}}, 1),
    # per-step overhead: 2000 small steps, quadrature + Yosida resolvent, CSV rows
    "simulate_yosida64": ("simulate", {
        "domain": DOMAIN, "mesh": {"n_elems": 64}, "frac": {"s": 0.5, "sigma": 0.5},
        "time": {"tau": 1e-3, "t_end": 2.0}, "yosida": {"enabled": True, "epsilon": 0.01}}, 1),
}
CPUS = os.sched_getaffinity(0)
BENCH_CPU = min(CPUS)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def workload_config(name: str, input_seed: int) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name][1]))
    cfg["seeds"] = {"rng_seed": input_seed}
    return cfg


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith((".calls", "newton_iters", "residual_evals")):
        return "count"
    if metric == "steps_per_s":
        return "1/s"
    if metric.endswith("_per_step"):
        return "iters/step"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("bytes_out"):
        return "B"
    return "ms" if metric.endswith("_ms") else "s"


def energy_checkpoints(rows: list[dict]) -> list[float]:
    """Initial, first-step and final energy of a certificates.csv."""
    return [float(rows[0]["e_before"]), float(rows[0]["e_after"]), float(rows[-1]["e_after"])]


def check_outputs(name: str, cfg: dict, out: Path, refs: dict) -> tuple[list[str], int]:
    """Returns (failed checks, accepted steps) for one repetition's output dir."""
    errors = []
    if WORKLOADS[name][0] == "simulate":
        with open(out / "certificates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = round(cfg["time"]["t_end"] / cfg["time"]["tau"])
        if len(rows) != expected:
            errors.append(f"certificates.csv has {len(rows)} rows, expected {expected}")
        unsatisfied = sum(r["satisfied"] != "1" for r in rows)
        if unsatisfied:
            errors.append(f"{unsatisfied} certificates not satisfied")
        ref = refs[name][str(cfg["seeds"]["rng_seed"])]
        got = energy_checkpoints(rows)
        for label, g, r in zip(("initial", "first-step", "final"), got, ref):
            if not abs(g - r) <= ENERGY_RTOL * abs(ref[0]):
                errors.append(f"{label} energy {g!r} differs from reference {r!r}")
        return errors, len(rows)
    with open(out / "equilibrium.json") as fh:
        eq = json.load(fh)
    ref = refs[name]
    if not eq["residual_dual"] < cfg["newton"]["tol"]:
        errors.append(f"residual_dual {eq['residual_dual']} >= newton.tol")
    if eq["kernel_dim"] != ref["kernel_dim"]:
        errors.append(f"kernel_dim {eq['kernel_dim']} != reference {ref['kernel_dim']}")
    for got, want in zip(eq["pencil_eigs"][:3], ref["pencil_eigs"]):
        if not abs(got - want) <= EIG_RTOL * abs(want):
            errors.append(f"pencil eigenvalue {got!r} differs from reference {want!r}")
    return errors, 0


def _digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _pin_to_bench_cpu() -> None:
    os.sched_setaffinity(0, {BENCH_CPU})


def _child_env() -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def calibrate() -> float:
    """Seconds of one calibration slice, timed in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True,
                          preexec_fn=_pin_to_bench_cpu)
    return float(proc.stdout)


def run_rep(name: str, cfg: dict, rep_dir: Path, traced: bool, deadline: float) -> dict:
    """One fresh-process CLI call; returns its measurements and failed checks."""
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    cfg_path = rep_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if traced else "0",
           WORKLOADS[name][0], "--config", str(cfg_path), "--out", str(out)]
    with open(rep_dir / "log.txt", "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT, preexec_fn=_pin_to_bench_cpu)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"traced": traced, "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if proc.returncode != 0 or not result_path.exists():
        tail = (rep_dir / "log.txt").read_text(errors="replace").strip().splitlines()[-1:]
        rep["errors"].append(f"child exited with code {proc.returncode}: {' '.join(tail)}")
        return rep
    child = json.loads(result_path.read_text())
    rep.update(wall_s=child["wall_s"], versions=child["versions"], threads=child["threads"])
    if child["rc"] != 0:
        rep["errors"].append(f"fracch exited with code {child['rc']}")
        return rep
    try:
        errors, steps = check_outputs(name, cfg, out, json.loads(REFERENCES.read_text()))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors, steps = [f"unreadable output: {exc!r}"], 0
    rep["errors"] += errors
    rep["steps"] = steps
    rep["digest"] = _digest(out)
    rep["bytes_out"] = sum(p.stat().st_size for p in out.iterdir())
    if traced:
        rep["layers"] = layer_metrics(child["trace"], child["wall_s"])
    else:
        rep["setup_s"] = child["setup_s"]
        rep["solve_s"] = child["wall_s"] - child["setup_s"]
    return rep


def _commit() -> str:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    input_seed = seed % WORKLOADS[name][2]
    cfg = workload_config(name, input_seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    record = {"workload": name, "seed": seed, "input_seed": input_seed, "commit": _commit(),
              "nproc": os.cpu_count(), "bench_cpu": BENCH_CPU,
              "loadavg_start": os.getloadavg()}
    reps, durations, calibrations = [], [], [calibrate()]
    # stop before a repetition that would likely end after --seconds
    while (len(reps) < MIN_REPS
           or time.monotonic() - start + statistics.median(durations) <= seconds):
        # a traced run alternates untraced and traced repetitions
        rep_traced = traced and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(run_rep(name, cfg, work / f"rep{len(reps)}", rep_traced,
                            start + RUN_LIMIT_S))
        calibrations.append(calibrate())
        reps[-1]["calibration_s"] = calibrations[-1]
        reps[-1]["speed"] = 2.0 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
        durations.append(time.monotonic() - t0)
    record["calibration_s"] = calibrations
    record["loadavg_end"] = os.getloadavg()
    first = next((r for r in reps if "versions" in r), {})
    record.update(first.get("versions", {}), threads=first.get("threads"))
    for i, rep in enumerate(reps):
        if "digest" in rep and rep["digest"] != first.get("digest"):
            rep["errors"].append(f"outputs of repetition {i} differ from repetition 0")
    failed = [r for r in reps if r["errors"]]
    ok = [r for r in reps if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    metrics, counts = {}, {}
    if ok and plain:
        if traced:
            layered = [r for r in ok if r["traced"]]
            for key in layered[0]["layers"] if layered else ():
                metrics[key] = statistics.median(r["layers"][key] for r in layered)
                counts[key] = len(layered)
            if layered:
                metrics["cli.bytes_out"] = ok[0]["bytes_out"]
                metrics["trace_overhead_frac"] = (
                    statistics.median(r["wall_s"] * r["speed"] for r in layered)
                    / statistics.median(r["wall_s"] * r["speed"] for r in plain) - 1.0)
                counts["cli.bytes_out"] = counts["trace_overhead_frac"] = len(layered)
        else:
            for key in END_TO_END_UNITS:
                metrics[key] = statistics.median(
                    r[key] * (1.0 if key == "peak_rss_mb" else r["speed"]) for r in plain)
                counts[key] = len(plain)
            if WORKLOADS[name][0] == "simulate":
                metrics["steps_per_s"] = statistics.median(
                    r["steps"] / (r["solve_s"] * r["speed"]) for r in plain)
                counts["steps_per_s"] = len(plain)
            metrics["measured_wall_s"] = statistics.median(r["wall_s"] for r in plain)
            counts["measured_wall_s"] = len(plain)
    if not failed:
        shutil.rmtree(work, ignore_errors=True)
    return {"record": record, "reps": reps, "failed": failed, "metrics": metrics,
            "counts": counts}


def report(res: dict, traced: bool) -> dict:
    """Prints the run record and metric table; returns the result object."""
    rec = res["record"]
    print(f"# run record {json.dumps(rec)}")
    for i, rep in enumerate(res["reps"]):
        for err in rep["errors"]:
            print(f"FAILED {rec['workload']} repetition {i}: {err}", file=sys.stderr)
    for i, rep in enumerate(res["reps"]):
        cols = " ".join(f"{k}={rep[k]:.6g}" for k in
                        ("wall_s", "setup_s", "peak_rss_mb", "calibration_s", "speed")
                        if k in rep)
        print(f"# repetition {i}{' traced' if rep['traced'] else ''}, measured: {cols}")
    print(f"# {rec['workload']} seed {rec['seed']}: {len(res['reps'])} runs, "
          f"{len(res['failed'])} failed")
    for key, value in res["metrics"].items():
        print(f"#   {key:<44} {value:>14.6g} {unit_of(key):<10} n={res['counts'][key]}")
    # steps_per_s is simulate-only; it is printed above but is not a benchmark metric
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()
               if traced or k in END_TO_END_UNITS}
    return {"correct": not res["failed"], "attempted": len(res["reps"]),
            "failed": len(res["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fracch" / "cli.py").is_file():
        print(f"fracch sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS - {BENCH_CPU})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = report(run_workload(name, args.seed, args.seconds, bool(args.trace)),
                               bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
