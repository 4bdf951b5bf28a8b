#!/usr/bin/env python3
"""Write ``reference.json``: each workload's outputs at the reference seed.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_reference.py

Values are stored as sampled curve points and curve means (command-line
workloads) or final weights and cumulative error energy (``online_step``),
which the benchmark compares by value within a relative tolerance. The
output files' sha256 digests are stored as well, for information.
"""

import json
import shutil
import sys

import run
import workloads as wl


def main():
    out = {"seed": wl.DEFAULT_SEED, "rtol": wl.RTOL, "atol": wl.ATOL, "workloads": {}}
    for w in wl.WORKLOADS.values():
        work = run.WORK / "reference" / w.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        inv = run.invoke(w, wl.DEFAULT_SEED, False, work)
        run.Checker(w, None).check(inv, work / "out")
        if inv.problems:
            print(f"{w.name}: {inv.problems}", file=sys.stderr)
            return 1
        if w.is_cli:
            digest = wl.curve_digest(wl.read_csv_curves(work / "out" / "msd_curves.csv"))
        else:
            digest = wl.online_digest(inv.result["outputs"])
        out["workloads"][w.name] = {**inv.digest, "digest": digest}
        print(f"{w.name}: {inv.wall_s:.2f} s, {inv.digest}")
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
