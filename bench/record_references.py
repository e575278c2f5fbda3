"""Rewrite bench/references.json from the current sources.

    python3 bench/record_references.py

Runs every workload's CLI call once per input seed (see run.WORKLOADS) and
stores what run.py checks: the initial, first-step and final energy of each
simulate run, and kernel_dim plus the lowest three pencil eigenvalues of the
equilibrium run.  Only rerun it when a change is meant to alter the computed
numbers, and say so in that change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from run import (REFERENCES, ROOT, THREAD_VARS, WORK, WORKLOADS, energy_checkpoints,
                 workload_config)

for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import fracch.cli  # noqa: E402


def run_cli(command: str, cfg: dict, work: Path) -> Path:
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = fracch.cli.main([command, "--config", str(cfg_path), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"fracch {command} exited with code {rc}")
    return out


def record(path: Path) -> None:
    """Writes the references of the workloads in run.WORKLOADS to ``path``."""
    refs = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        for name, (command, _, input_seeds) in WORKLOADS.items():
            if command == "equilibrium":
                out = run_cli(command, workload_config(name, 0), work)
                eq = json.loads((out / "equilibrium.json").read_text())
                refs[name] = {"kernel_dim": eq["kernel_dim"], "pencil_eigs": eq["pencil_eigs"][:3]}
                continue
            refs[name] = {}
            for seed in range(input_seeds):
                out = run_cli(command, workload_config(name, seed), work)
                with open(out / "certificates.csv", newline="") as fh:
                    refs[name][str(seed)] = energy_checkpoints(list(csv.DictReader(fh)))
                print(name, seed, refs[name][str(seed)], flush=True)
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    record(REFERENCES)
