"""Workload definitions, generated inputs and output checks for the benchmark.

Each workload is one kind of invocation of sparselms, run in a fresh child
process. ``protocol_cell`` drives the ``sparselms`` command line and
``online_step`` the one-sample ``step`` API over regressors generated here
from the seed. Between them they call every layer the trace wraps.
The workload seed reaches the program only through ``--seed`` (command
line) or through the generated inputs (``online_step``).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

VARIANTS = ("lms", "llms", "lp_like_lms", "lp_like_llms")
N_TAPS = 16

# Seed at which reference outputs are stored; it is also the program's own
# default master seed.
DEFAULT_SEED = 1234

# Relative tolerance of the value check. Summation-order changes in the
# kernel move MSD values by about 1e-12 relative; any change to the update
# arithmetic moves them by far more than 1e-9.
RTOL = 1e-9
# Absolute floor for signed or near-zero values (online_step weights).
ATOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: how to invoke the program and how much work that is.

    Command-line workloads set ``levels``, ``runs``, ``iterations`` and
    ``flags``; ``online_step`` sets ``steps`` per variant.
    """

    name: str
    why: str
    levels: tuple = ()
    runs: int = 0
    iterations: int = 0
    flags: tuple = ()
    steps: int = 0

    @property
    def is_cli(self):
        return self.steps == 0

    @property
    def cells(self):
        return len(VARIANTS) * len(self.levels)

    @property
    def updates(self):
        """Filter updates one invocation performs."""
        if self.is_cli:
            return self.cells * self.runs * self.iterations
        return len(VARIANTS) * self.steps

    def cli_args(self, seed, out_dir):
        sr = ",".join(f"{lvl}/{N_TAPS}" for lvl in self.levels)
        return [
            "--out", str(out_dir), "--seed", str(seed), "--sr", sr,
            "--runs", str(self.runs), "--iterations", str(self.iterations),
            *self.flags,
        ]


# Sizes are chosen so that one invocation takes about two seconds at the
# seed commit, which gives about a dozen invocations per run, each followed
# by a run of the yardstick.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "protocol_cell",
            "all 4 rules at SR 1/16 with the protocol's 200 runs per cell, plotted; the kernel is nearly all of the run",
            levels=(1,), runs=200, iterations=150, flags=("--plot", "--db", "--summary"),
        ),
        Workload(
            "online_step",
            "one-sample step() over pre-generated samples; the only workload that calls filter_core.step",
            steps=8000,
        ),
    )
}

# Tiny sizes for the smoke test: same shapes, a fraction of the work.
SMOKE = {
    "protocol_cell": dict(runs=4, iterations=20),
    "online_step": dict(steps=100),
}


def smoke_workload(name):
    return dataclasses.replace(WORKLOADS[name], **SMOKE[name])


# ---------------------------------------------------------------- inputs

def online_inputs(seed, steps):
    """Regressors and desired samples for ``online_step``, a function of ``seed``.

    Same recipe as the study's runs: a 16-tap system with one nonzero tap at
    +/-1, an AR(1) input (coefficient 0.8) rescaled to unit variance, and
    noise of variance 1e-2 (20 dB SNR).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    system = np.zeros(N_TAPS)
    system[rng.integers(N_TAPS)] = rng.choice((-1.0, 1.0))
    u = rng.standard_normal(steps)
    x = np.empty(steps)
    acc = 0.0
    for k in range(steps):
        acc = 0.8 * acc + u[k]
        x[k] = acc
    x /= x.std()
    xpad = np.concatenate([np.zeros(N_TAPS - 1), x])
    regressors = np.lib.stride_tricks.sliding_window_view(xpad, N_TAPS)[:, ::-1].copy()
    desired = regressors @ system + 0.1 * rng.standard_normal(steps)
    return regressors, desired


def write_online_inputs(path, seed, steps):
    regressors, desired = online_inputs(seed, steps)
    np.savez(path, regressors=regressors, desired=desired)


# ---------------------------------------------------------------- outputs

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_csv_curves(path):
    """Parse ``msd_curves.csv`` into ``{"variant,level": values}``."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "algorithm,sr_numerator,sr_denominator,iteration,msd":
        raise ValueError("unexpected CSV header")
    cells = {}
    for line in lines[1:]:
        alg, num, _den, _it, val = line.split(",")
        cells.setdefault(f"{alg},{num}", []).append(float(val))
    return {key: np.array(vals) for key, vals in cells.items()}


def sample_indices(n, count=33):
    return sorted({int(round(i)) for i in np.linspace(0, n - 1, min(count, n))})


def curve_digest(curves):
    """Reference form of a set of curves: sampled points plus each curve's mean."""
    out = {}
    for key, values in sorted(curves.items()):
        idx = sample_indices(values.shape[0])
        out[key] = {
            "length": int(values.shape[0]),
            "index": idx,
            "values": [float(values[i]) for i in idx],
            "mean": float(values.mean()),
        }
    return out


def online_digest(outputs):
    """Reference form of online_step outputs: final weights and error energy."""
    out = {}
    for variant, rec in sorted(outputs["variants"].items()):
        energy = np.cumsum(np.square(rec["errors"]))
        idx = sample_indices(energy.shape[0])
        out[variant] = {
            "length": int(energy.shape[0]),
            "index": idx,
            "energy": [float(energy[i]) for i in idx],
            "weights": [float(v) for v in rec["weights"]],
        }
    return out


def compare_digest(got, ref):
    """Problems found comparing two digests by value; empty when they agree."""
    problems = []
    if sorted(got) != sorted(ref):
        return [f"cells differ: got {sorted(got)}, expected {sorted(ref)}"]
    for key in sorted(ref):
        g, r = got[key], ref[key]
        if g["length"] != r["length"] or g["index"] != r["index"]:
            problems.append(f"{key}: length {g['length']} != {r['length']}")
            continue
        for field in ("values", "mean", "energy", "weights"):
            if field not in r:
                continue
            a = np.atleast_1d(np.asarray(g[field], dtype=float))
            b = np.atleast_1d(np.asarray(r[field], dtype=float))
            if a.shape != b.shape or not np.allclose(a, b, rtol=RTOL, atol=ATOL):
                worst = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), ATOL)))
                problems.append(f"{key}: {field} off by {worst:.3g} relative (rtol {RTOL:g})")
    return problems


def sanity_problems(arrays):
    """Values must be finite; MSD and error energy also non-negative."""
    problems = []
    for key, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        if not np.isfinite(arr).all():
            problems.append(f"{key}: non-finite value")
        elif (arr < 0).any():
            problems.append(f"{key}: negative value")
    return problems


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())
