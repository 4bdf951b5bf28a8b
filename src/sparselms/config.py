"""Config documents: parse ``key = value`` text into an :class:`ExperimentConfig`.

Documents are flat ``key = value`` text with ``#`` comments; a
``[variant.level]`` section header scopes hyperparameter keys to one
schedule entry, e.g.::

    runs = 200
    master_seed = 1234

    [lp_like_llms.16]
    gamma = 0.0005
    rho_pl = 0.0001

Hyperparameter keys at global scope (``mu``, ``gamma``, ``rho_pl``,
``epsilon_pl``, ``p``, ``leak_sign``) broadcast to every schedule entry of
the variants they apply to.  A key may appear once per scope and a section
once per document.

An unset ``steady_state_window`` is ``min(500, iterations)``; a set one must
satisfy ``1 <= window <= iterations``, whether ``iterations`` comes from the
document or from ``--iterations``.  ``drive_variance`` scales the AR(1)
drive, but each input is then rescaled to unit sample variance, so the key
changes the results only by rounding; a value whose filtered input variance
overflows or is subnormal raises ``ParameterError``.
"""

import dataclasses

from .errors import ConfigError
from .experiment import ExperimentConfig, default_schedule
from .filter_core import _READERS, AlgorithmConfig, LeakSign, Variant

__all__ = ["parse_config"]

_INT_KEYS = {"n_taps", "iterations", "runs", "steady_state_window", "master_seed"}
_FLOAT_KEYS = {"ar_coeff", "drive_variance", "noise_variance"}


def _coerce(key, value, lineno, kind=float):
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {lineno}: key '{key}' expects {what}, got {value!r}") from None


def _coerce_hyperparameter(key, value, lineno):
    """A key of ``filter_core._READERS``: a LeakSign for ``leak_sign``, else a float."""
    if key != "leak_sign":
        return _coerce(key, value, lineno)
    try:
        return LeakSign(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: leak_sign must be 'plus' or 'minus', got {value!r}"
        ) from None


def _parse_document(text):
    """Split a config document into global key-values and per-section ones.

    A key repeated within one scope, or a repeated section, is an error.
    """
    global_kv = {}
    sections = {}
    header_lines = {}
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
            if (variant, level) in header_lines:
                raise ConfigError(
                    f"line {lineno}: duplicate section [{variant.value}.{level}] "
                    f"(first on line {header_lines[variant, level]})"
                )
            header_lines[variant, level] = lineno
            current = sections[variant, level] = {}
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
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
    """
    global_kv, sections = _parse_document(text)
    fields = {}
    broadcast = {}
    for key, (lineno, value) in global_kv.items():
        if key == "sparsity_levels":
            try:
                fields[key] = tuple(int(tok.strip()) for tok in value.split(","))
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: key 'sparsity_levels' expects comma-separated "
                    f"integers, got {value!r}"
                ) from None
        elif key in _INT_KEYS:
            fields[key] = _coerce(key, value, lineno, int)
        elif key in _FLOAT_KEYS:
            fields[key] = _coerce(key, value, lineno)
        elif key in _READERS:
            broadcast[key] = _coerce_hyperparameter(key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")

    section_cfg = {}
    for (variant, level), kv in sections.items():
        entry = {}
        for key, (lineno, value) in kv.items():
            if key in _READERS:
                entry[key] = _coerce_hyperparameter(key, value, lineno)
            else:
                raise ConfigError(
                    f"line {lineno}: unknown schedule key '{key}' in [{variant.value}.{level}]"
                )
        section_cfg[(variant, level)] = entry

    overrides = {"master_seed": master_seed, "runs": runs, "iterations": iterations}
    fields.update((k, v) for k, v in overrides.items() if v is not None)
    levels = fields.get("sparsity_levels", (1, 4, 8, 16))
    needed = set(levels) | {lvl for (_, lvl) in section_cfg}
    table = default_schedule()
    schedule = {}
    for variant in Variant:
        for level in sorted(needed):
            base = table.get((variant, level), AlgorithmConfig(variant))
            overrides = {k: v for k, v in broadcast.items() if variant in _READERS[k]}
            overrides.update(section_cfg.get((variant, level), {}))
            schedule[(variant, level)] = (
                dataclasses.replace(base, **overrides) if overrides else base
            )
    return ExperimentConfig(schedule=schedule, **fields)
