"""The study: :class:`ExperimentConfig`, :func:`default_schedule`, and the
config documents that :func:`parse_config` reads into them, in the language
that README's "Configuration files" section specifies.

The default study is the paper's grid: all four rules at each level of
``_LEVEL_PARAMS``, which also holds each level's ``rho_pl`` and ``gamma``.
Every schedule entry is ``_entry``'s: its level's ``_LEVEL_PARAMS``, then the
global keys its variant reads, then its section's keys.
A study given no schedule builds ``_entry``'s entry for every rule at each of
its levels; a document's has these and one at each level that a section names.
A schedule that is given is kept as given, whoever gives it: a caller, a
document or a ``dataclasses.replace`` copy, which needs ``schedule=None`` to
build one at new levels.
:mod:`sparselms.experiment` runs a study's cells.
"""

import dataclasses

from .errors import (
    ConfigError,
    ParameterError,
    _is_integer,
    as_tuple,
    check_count,
    check_instance,
    check_integer,
    check_real,
)
from .filter_core import _READERS, AlgorithmConfig, LeakSign, Variant
from .signal_gen import _RANGES, _check_cell_size

__all__ = ["ExperimentConfig", "default_schedule", "parse_config"]

# The default study's (rho_pl, gamma) per nonzero-tap count, its levels in
# order: lighter shrinkage and leakage as the system becomes denser.
_LEVEL_PARAMS = {1: (0.003, 0.005), 4: (0.002, 0.005), 8: (0.0015, 0.005), 16: (0.0001, 0.0005)}


def _check_level(level, n_taps):
    """``level`` as an int if it is an integer in ``1..n_taps``; else a ParameterError."""
    return check_integer("sparsity level", level, 1, n_taps)


def _check_levels(name, levels, n_taps):
    """The sequence ``levels``, its items read by ``_check_level``, as a tuple with no repeat."""
    levels = tuple(_check_level(s, n_taps) for s in as_tuple(name, levels))
    if len(set(levels)) != len(levels):
        raise ParameterError(f"sparsity levels must not repeat, got {levels}")
    return levels


def _entry(variant, level, broadcast=None, section=None):
    """The schedule entry of ``variant`` at ``level``.

    Its hyperparameters are the level's ``_LEVEL_PARAMS``, then the
    ``broadcast`` (global) keys, each kept only if the variant reads it, then
    the ``section``'s keys, kept as given; every other field is
    ``AlgorithmConfig``'s default.
    """
    params = dict(zip(("rho_pl", "gamma"), _LEVEL_PARAMS.get(level, ())), **(broadcast or {}))
    params = {k: v for k, v in params.items() if variant in _READERS[k]}
    params.update(section or {})
    return AlgorithmConfig(variant, **params)


def default_schedule():
    """Hyperparameters for every (variant, nonzero-count) cell of the default study.

    Each variant takes the ``rho_pl`` and ``gamma`` of ``_LEVEL_PARAMS`` that
    it reads; every other field is the default of :class:`AlgorithmConfig`.
    """
    return ExperimentConfig().schedule


@dataclasses.dataclass
class ExperimentConfig:
    """Full study description: protocol constants plus the parameter schedule.

    ``schedule`` maps ``(Variant, nonzero-count)`` to an
    :class:`~sparselms.filter_core.AlgorithmConfig` of that variant (``None``: built
    for every rule at each level; given, kept as given, in a ``dataclasses.replace``
    copy too); ``steady_state_window`` ``None`` means ``min(500, iterations)``.
    """

    n_taps: int = 16
    sparsity_levels: tuple = tuple(_LEVEL_PARAMS)
    iterations: int = 8000
    runs: int = 200
    ar_coeff: float = 0.8
    drive_variance: float = 1e-3
    noise_variance: float = 1e-2
    master_seed: int = 1234
    schedule: dict = None
    steady_state_window: int = None

    def __post_init__(self):
        schedule = {} if self.schedule is None else self.schedule
        for key, entry in check_instance("schedule", schedule, dict).items():
            variant, level = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not (isinstance(variant, Variant) and _is_integer(level)):
                raise ParameterError(f"schedule key must be (Variant, integer level), got {key!r}")
            if not (isinstance(entry, AlgorithmConfig) and entry.variant is variant):
                raise ParameterError(
                    f"schedule entry ({variant.value}, {level}) must be an AlgorithmConfig "
                    f"of variant {variant.value}, got {entry!r}"
                )
        self.n_taps = check_count("n_taps", self.n_taps)
        self.iterations = check_count("iterations", self.iterations)
        # a level draws iterations + n_taps samples of each run (experiment._run_level)
        self.runs, _ = _check_cell_size(
            self.runs, self.iterations + self.n_taps, "iterations + n_taps"
        )
        self.master_seed = check_integer("master_seed", self.master_seed, **_RANGES["seed"])
        self.sparsity_levels = _check_levels("sparsity_levels", self.sparsity_levels, self.n_taps)
        if self.schedule is None:
            self.schedule = {(v, s): _entry(v, s) for s in self.sparsity_levels for v in Variant}
        if self.steady_state_window is None:
            self.steady_state_window = min(500, self.iterations)
        check_integer("steady_state_window", self.steady_state_window, 1, self.iterations)
        # the ranges of signal_gen's parameters, under this study's field names
        for field, key in (("ar_coeff", "coeff"), ("drive_variance",) * 2, ("noise_variance",) * 2):
            setattr(self, field, check_real(field, getattr(self, field), **_RANGES[key]))


def _expects(kind, key):
    return kind, f"key '{key}' expects {'an integer' if kind is int else 'a number'}"


# Each document key's reader, and the rule that a value it cannot read breaks:
# ExperimentConfig's int and float fields, sparsity_levels, and the
# hyperparameters of filter_core._READERS, floats but for leak_sign.
_VALUES = {
    **{f.name: _expects(f.type, f.name) for f in dataclasses.fields(ExperimentConfig)
       if f.type in (int, float)},
    "sparsity_levels": (lambda value: tuple(int(tok.strip()) for tok in value.split(",")),
                        "key 'sparsity_levels' expects comma-separated integers"),
    **{key: _expects(float, key) for key in _READERS},
    "leak_sign": (LeakSign, "leak_sign must be 'plus' or 'minus'"),
}


def _read(key, value, lineno):
    """The document's ``value`` of ``key``, a key of ``_VALUES``, read as its type."""
    kind, rule = _VALUES[key]
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {rule}, got {value!r}") from None


def _parse_document(text):
    """Split a config document into global key-values and, per section, its
    header's line and key-values.

    A key repeated within one scope, or a repeated section, is an error.
    """
    global_kv = {}
    sections = {}
    current = global_kv
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            variant_name, sep, level_txt = name.partition(".")
            if not sep:
                raise ConfigError(
                    f"line {lineno}: section must look like [variant.level], got [{name}]"
                )
            try:
                variant = Variant(variant_name.strip())
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: unknown algorithm {variant_name.strip()!r} in [{name}]"
                ) from None
            try:
                level = int(level_txt.strip())
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: sparsity level in [{name}] must be an integer"
                ) from None
            if (variant, level) in sections:
                raise ConfigError(
                    f"line {lineno}: duplicate section [{variant.value}.{level}] "
                    f"(first on line {sections[variant, level][0]})"
                )
            current = {}
            sections[variant, level] = (lineno, current)
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and key and value):
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in current:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {current[key][0]})"
            )
        current[key] = (lineno, value)
    return global_kv, sections


def parse_config(text, *, master_seed=None, runs=None, iterations=None):
    """Parse a config document into a validated :class:`ExperimentConfig`.

    Missing keys fall back to the default study (16 taps, 8000 iterations,
    200 runs, the default parameter schedule).  Unknown keys and
    out-of-range values raise with the offending key or constraint named.
    ``master_seed``, ``runs`` and ``iterations``, unless ``None``, win over
    the document's keys of those names, as the command-line flags do.

    A document that sets no hyperparameter and names no section is the study
    ``ExperimentConfig`` builds, at any levels: ``parse_config("") == ExperimentConfig()``.
    Its schedule is kept as given, as every given schedule is, so a
    ``dataclasses.replace`` copy of either behaves as a copy of the other.
    """
    global_kv, sections = _parse_document(check_instance("text", text, str))
    fields, broadcast = {}, {}
    for key, (lineno, value) in global_kv.items():
        if key not in _VALUES:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        (broadcast if key in _READERS else fields)[key] = _read(key, value, lineno)

    n_taps = fields.get("n_taps", ExperimentConfig.n_taps)
    section_cfg = {}
    for (variant, level), (header, kv) in sections.items():
        # no run reads a section outside 1..n_taps; a bad n_taps is ExperimentConfig's to name
        if n_taps >= 1 and not 1 <= level <= n_taps:
            raise ConfigError(f"line {header}: [{variant.value}.{level}]: level not in 1..{n_taps}")
        entry = section_cfg[variant, level] = {}
        for key, (lineno, value) in kv.items():
            if key not in _READERS:
                raise ConfigError(
                    f"line {lineno}: unknown schedule key '{key}' in [{variant.value}.{level}]"
                )
            entry[key] = _read(key, value, lineno)

    overrides = {"master_seed": master_seed, "runs": runs, "iterations": iterations}
    fields.update((k, v) for k, v in overrides.items() if v is not None)
    levels = fields.get("sparsity_levels", ExperimentConfig.sparsity_levels)
    needed = sorted(set(levels).union(level for _, level in section_cfg))
    schedule = {(v, level): _entry(v, level, broadcast, section_cfg.get((v, level)))
                for v in Variant for level in needed}
    return ExperimentConfig(schedule=schedule, **fields)
