"""One benchmark repetition: a fresh interpreter calls ``fracch.cli.main`` once.

Usage: python3 bench/child.py RESULT_JSON TRACE(0|1) CLI_ARG...

Imports happen before the clock starts, so ``wall_s`` is the time of the
``main`` call alone.  Untraced, the only instrumentation is one timer pair:
it starts when ``parse_config`` is entered and stops when the first
``RunConfig.build_context`` returns, which is what a user pays before the
first step or solve (``setup_s``).  Traced, every public fracch function is
wrapped (see tracer.py) and the spans are written to RESULT_JSON.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracch.cli  # noqa: E402
from fracch.config import RunConfig  # noqa: E402


def _install_setup_timer(marks: dict) -> None:
    parse_config = fracch.cli.parse_config
    build_context = RunConfig.build_context

    def timed_parse_config(path):
        marks.setdefault("setup_start", perf_counter())
        return parse_config(path)

    def timed_build_context(self):
        ctx = build_context(self)
        marks.setdefault("setup_end", perf_counter())
        return ctx

    fracch.cli.parse_config = timed_parse_config
    RunConfig.build_context = timed_build_context


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    result_path, traced, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    marks: dict = {}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _install_setup_timer(marks)
    t0 = perf_counter()
    rc = fracch.cli.main(cli_args)
    wall = perf_counter() - t0
    result = {"rc": rc, "wall_s": wall,
              "versions": _versions(),
              "threads": {k: os.environ.get(k) for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    if tracer is None:
        if "setup_end" in marks:
            result["setup_s"] = marks["setup_end"] - marks["setup_start"]
    else:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
