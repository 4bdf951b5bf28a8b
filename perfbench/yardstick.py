"""The yardstick: a fixed reference process, timed between invocations.

Usage::

    python3 yardstick.py RESULT_JSON

It does the same kinds of work as an invocation of sparselms, but with code
that never changes: start-up imports numpy and scipy.signal, and compute
runs a pure-Python loop and a small numpy filter loop. The parent times the
process from spawn to exit; this script records when its imports finished
and how long its compute took. A program change cannot move these times;
the host's speed moves them as it moves the program's.
"""

import json
import sys
import time

import numpy as np
import scipy.signal  # noqa: F401  start-up work of the kind sparselms does

T_IMPORT = time.monotonic_ns()

PASSES = 20
N_TAPS = 16


def compute_pass(x_rows, desired):
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    w = np.zeros(N_TAPS)
    for x, d in zip(x_rows, desired):
        e = d - w @ x
        w = w + 0.01 * e * x - 0.001 * np.sign(w)
    return acc, w


def main():
    rng = np.random.default_rng(0)
    x_rows = rng.standard_normal((2000, N_TAPS))
    desired = rng.standard_normal(2000)
    t0 = time.monotonic_ns()
    for _ in range(PASSES):
        compute_pass(x_rows, desired)
    t1 = time.monotonic_ns()
    with open(sys.argv[1], "w") as fh:
        json.dump({"t_import": T_IMPORT, "compute_ns": t1 - t0}, fh)


if __name__ == "__main__":
    main()
