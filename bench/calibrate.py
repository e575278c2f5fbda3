"""Machine-speed probe: prints the median seconds of one fixed work slice.

    python3 bench/calibrate.py

run.py runs it in its own process between the CLI calls it measures, so it
shares nothing with them but the machine.  A slice is fracch-independent
work of the three kinds the workloads do, about a third each at quiet speed:
interpreter bytecode, small numpy calls, and LU solves of a 512 x 512 block
matrix (2 MiB, the size of the simulate_wide256 Newton Jacobian).
"""

import sys
from time import perf_counter

import numpy as np

SLICES = 7


def work_slice(a: np.ndarray, x: np.ndarray) -> None:
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(3_000):
        np.outer(x, x[:5]) @ x[:5]
    eye = np.eye(a.shape[0])
    for _ in range(2):
        np.linalg.solve(np.block([[a, eye], [-eye, a]]), np.ones(2 * a.shape[0]))


def main() -> int:
    rng = np.random.default_rng(20180105)
    a = rng.standard_normal((256, 256)) + 16.0 * np.eye(256)
    x = rng.standard_normal(64)
    times = []
    for _ in range(SLICES):
        t0 = perf_counter()
        work_slice(a, x)
        times.append(perf_counter() - t0)
    print(sorted(times)[SLICES // 2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
