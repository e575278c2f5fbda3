"""Self-test of the benchmark at tiny sizes (n_elems=16, five steps).

    python3 bench/selftest.py

Checks, in a few seconds, that every metric named in BENCHMARK.json is
emitted with its unit for every workload (traced and untraced), that each
workload exercises the layers it is meant to, that a corrupted output or a
wrong reference fails the run with a nonzero exit, and that the runner
refuses to run without the fracch sources.  Exits nonzero on the first
failed expectation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from record_references import record

TINY = {
    "simulate_wide256": {"mesh": {"n_elems": 16}, "time": {"tau": 1e-3, "t_end": 5e-3}},
    "equilibrium_split768": {"mesh": {"n_elems": 16}},
    "simulate_yosida64": {"mesh": {"n_elems": 16}, "time": {"tau": 1e-3, "t_end": 5e-3}},
}
# per-layer counts that must be nonzero exactly on the workloads listed
EXERCISED = {
    "evolution.step.calls": {"simulate_wide256", "simulate_yosida64"},
    "operators.solve_M.calls": {"simulate_wide256", "simulate_yosida64"},
    "potentials.yosida_apply.calls": {"simulate_yosida64"},
    "equilibrium.eigh.calls": {"equilibrium_split768"},
    "equilibrium.newton_iters": {"equilibrium_split768"},
    "operators.assemble_gagliardo.calls": set(run.WORKLOADS),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def quiet_main(argv) -> tuple[int, dict | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    for name, overrides in TINY.items():
        command, cfg, _ = run.WORKLOADS[name]
        run.WORKLOADS[name] = (command, {**cfg, **overrides}, 1)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        run.WORK = tmp / "work"
        run.REFERENCES = tmp / "references.json"
        with contextlib.redirect_stdout(io.StringIO()):
            record(run.REFERENCES)
        for name in run.WORKLOADS:
            for trace in (0, 1):
                rc, res = quiet_main(["--workload", name, "--seed", "0", "--seconds", "0",
                                      "--trace", str(trace)])
                expect(rc == 0 and res["correct"] and res["failed"] == 0,
                       f"{name} trace={trace} passes its checks")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == wanted[trace],
                       f"{name} trace={trace} emits exactly the BENCHMARK.json metrics; "
                       f"missing {set(wanted[trace]) - set(got)}, extra {set(got) - set(wanted[trace])}")
                if trace:
                    for metric, where in EXERCISED.items():
                        value = res["metrics"][metric]["value"]
                        expect((value > 0) == (name in where),
                               f"{metric} = {value} on {name}")

        cfg = run.workload_config("simulate_wide256", 0)
        rep = run.run_rep("simulate_wide256", cfg, tmp / "rep", False, float("inf"))
        expect(not rep["errors"], f"clean repetition passes: {rep['errors']}")
        cert = tmp / "rep" / "out" / "certificates.csv"
        with open(cert, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][-1] = "0"
        with open(cert, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        errors, _ = run.check_outputs("simulate_wide256", cfg, cert.parent,
                                      json.loads(run.REFERENCES.read_text()))
        expect(any("not satisfied" in e for e in errors), "a flipped certificate is caught")

        refs = json.loads(run.REFERENCES.read_text())
        refs["simulate_wide256"]["0"][2] += 1e-3 * abs(refs["simulate_wide256"]["0"][0])
        refs["equilibrium_split768"]["pencil_eigs"][0] *= 1.001
        run.REFERENCES.write_text(json.dumps(refs))
        for name in ("simulate_wide256", "equilibrium_split768"):
            rc, res = quiet_main(["--workload", name, "--seed", "0", "--seconds", "0"])
            expect(rc == 1 and not res["correct"] and res["failed"] == res["attempted"],
                   f"{name}: a result off its reference fails every run")

        bare = tmp / "bare"
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate_wide256",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the fracch sources the runner exits nonzero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
