"""Seeded generators for the identification experiment's stochastic inputs.

Everything here is a deterministic function of its parameters and an
:class:`RngStream`; a run's whole realization (sparse system, AR(1) input,
observation noise) is replayed bit-exactly by rebuilding the stream from
``(seed, stream_id)``.  :func:`gen_cell_realizations` builds a whole
cell's realizations at once: row r's system is :func:`gen_sparse_system`'s
draw on ``RngStream(seed, r)``, and its drive and noise equal what
:func:`gen_ar1_input` and :func:`gen_gaussian_noise` then draw on that stream;
it runs the AR(1) recursion on the rows of its drives in place, one numpy
step per sample.
"""

import math

import numpy as np

from .errors import ParameterError, as_vector, check_count, check_integer, check_real, quietly

__all__ = [
    "RngStream",
    "gen_sparse_system",
    "gen_ar1_input",
    "gen_gaussian_noise",
    "gen_cell_realizations",
    "regressor_at",
]

# The range of each parameter of the signal model, which ExperimentConfig also reads.
_RANGES = {
    "seed": {"low": 0, "high": 2**64 - 1},
    "coeff": {"gt": -1, "lt": 1},  # the process is non-stationary otherwise
    "drive_variance": {"gt": 0, "lt": math.inf},
    "noise_variance": {"ge": 0, "lt": math.inf},
}


class RngStream:
    """One reproducible random stream, typically one per Monte-Carlo run.

    Streams with the same ``(seed, stream_id)`` replay the identical sample
    sequence; distinct ``stream_id`` values give statistically independent
    sequences (PCG64 seeded via ``SeedSequence`` spawn keys).
    """

    def __init__(self, seed, stream_id=0):
        self.seed = check_integer("seed", seed, **_RANGES["seed"])
        self.stream_id = check_integer("stream_id", stream_id, 0)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.default_rng(ss)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _gen(rng):
    """The numpy Generator of an RngStream, or ``rng`` itself if it is one; else a
    ParameterError naming it."""
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError(f"rng must be an RngStream or a numpy Generator, got {rng!r}")


def _check_system(n_taps, n_nonzero):
    n_taps = check_count("n_taps", n_taps)
    check_integer("n_nonzero", n_nonzero, 1, n_taps)


def gen_sparse_system(n_taps, n_nonzero, rng):
    """Random sparse impulse response: ``n_nonzero`` taps at +/-1, rest 0.

    Positions are drawn uniformly without replacement; each nonzero value is
    +1 or -1 with probability 1/2.
    """
    _check_system(n_taps, n_nonzero)
    g = _gen(rng)
    w = np.zeros(n_taps)
    # two statements: on one line the signs (the right side) would be drawn first
    pos = g.choice(n_taps, size=n_nonzero, replace=False)
    w[pos] = g.integers(0, 2, size=n_nonzero) * 2 - 1
    return w


def _check_ar1(length, coeff, drive_variance):
    """``(length, coeff, drive_variance)`` as an int and two floats; else a ParameterError."""
    length = check_count("length", length)
    coeff = check_real("coeff", coeff, **_RANGES["coeff"])
    return length, coeff, check_real("drive_variance", drive_variance, **_RANGES["drive_variance"])


@quietly
def _ar1_unit_variance(drives, coeff):
    """AR(1)-filter each row of ``drives`` in place and rescale it to unit sample variance.

    Each row becomes ``x[0] = u[0]``, ``x[k] = u[k] + coeff*x[k-1]``, divided
    by its sample standard deviation (denominator: length).  The recursion
    runs on the rows in place, one numpy step per sample over all rows; each
    row's variance is then reduced over that row alone, so a row's result
    does not depend on how many rows share the call.  Returns ``drives``; a
    variance that overflows, or is zero or subnormal, raises ``ParameterError``.
    """
    for k in range(1, drives.shape[1]):
        drives[:, k] += coeff * drives[:, k - 1]
    v = np.var(drives, axis=1)  # overflow is reported below by value
    if not np.isfinite(v).all():
        raise ParameterError("the AR(1) input's sample variance overflows; lower drive_variance")
    if (v < np.finfo(float).tiny).any():  # a subnormal variance has too few bits to rescale by
        raise ParameterError("cannot rescale a zero- or subnormal-variance realization")
    drives /= np.sqrt(v)[:, None]
    return drives


def gen_ar1_input(length, coeff, drive_variance, rng):
    """First-order autoregressive input, rescaled to unit sample variance.

    Generates ``x[0] = u[0]``, ``x[k] = coeff*x[k-1] + u[k]`` with white
    Gaussian drive of the given variance, then divides the realization by
    its sample standard deviation (denominator ``length``; the sample mean
    is left in place).  The post-scaling sample variance is exactly 1.
    """
    length, coeff, drive_variance = _check_ar1(length, coeff, drive_variance)
    u = _gen(rng).standard_normal(length) * np.sqrt(drive_variance)
    return _ar1_unit_variance(u[None], coeff)[0]


def gen_gaussian_noise(length, variance, rng):
    """I.i.d. zero-mean Gaussian samples of the given variance."""
    length = check_count("length", length)
    variance = check_real("variance", variance, **_RANGES["noise_variance"])
    return _gen(rng).standard_normal(length) * np.sqrt(variance)


def _check_cell_size(runs, length, length_name="length"):
    """``(runs, length)`` as ints if each is a count and ``runs`` rows of ``2*length``
    float64s, the buffer z that :func:`gen_cell_realizations` draws every run's input
    and noise into (its largest array), fit one numpy array; else a ParameterError
    naming ``length_name`` if one row cannot fit, else runs."""
    length = check_count(length_name, length, 2)
    runs = check_count("runs", runs)
    try:
        return check_count("runs", runs, 2 * length), length
    except ParameterError as err:
        raise ParameterError(
            f"{err}, as runs x 2*({length_name}) = runs x 2*{length} float64s "
            "must fit one numpy array"
        ) from None


def gen_cell_realizations(
    master_seed, runs, n_taps, n_nonzero, length, coeff, drive_variance, noise_variance
):
    """Every run's realization for one cell: ``(systems, xs, noises)``.

    Row r's system is :func:`gen_sparse_system`'s draw on
    ``RngStream(master_seed, r)``; its drive and noise are drawn next on that
    stream and equal :func:`gen_ar1_input`'s and :func:`gen_gaussian_noise`'s
    called in turn after it, bit for bit.
    ``systems`` is (runs x n_taps); ``xs`` and ``noises`` are (runs x length),
    the two halves of one (runs x 2*length) buffer.  A run's drive and
    noise come from one draw of ``2*length`` normals, which equals two
    draws of ``length`` (the sampler consumes its stream sequentially).
    All drives are filtered together, in place, so generation peaks at 1.5
    times the buffer (a test checks 1.6).
    """
    check_integer("master_seed", master_seed, **_RANGES["seed"])
    _check_system(n_taps, n_nonzero)
    runs, length = _check_cell_size(runs, length)
    length, coeff, drive_variance = _check_ar1(length, coeff, drive_variance)
    noise_variance = check_real("noise_variance", noise_variance, **_RANGES["noise_variance"])
    systems = np.empty((runs, n_taps))
    z = np.empty((runs, 2 * length))
    for r in range(runs):
        g = RngStream(master_seed, r).generator
        systems[r] = gen_sparse_system(n_taps, n_nonzero, g)
        g.standard_normal(out=z[r])
    drives, noises = z[:, :length], z[:, length:]
    drives *= np.sqrt(drive_variance)
    noises *= np.sqrt(noise_variance)
    return systems, _ar1_unit_variance(drives, coeff), noises


def regressor_at(x, k, n_taps):
    """Regressor window ``[x[k], x[k-1], ..., x[k-n_taps+1]]``, zero prehistory.

    Indices before the start of the signal contribute 0.
    """
    x = as_vector("x", x)
    check_integer("k", k)
    check_count("n_taps", n_taps)
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"index {k} out of bounds for signal of length {x.shape[0]}")
    out = np.zeros(n_taps)
    lo = max(k - n_taps + 1, 0)
    window = x[lo : k + 1][::-1]
    out[: window.shape[0]] = window
    return out
