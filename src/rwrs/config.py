"""Flat key-value experiment configs: parsing, validation, canonical form."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .limit import MAX_STEPS
from .randomness import Alpha
from .walk import GridSpec

EXPERIMENTS = (
    "simulate-rwrs",
    "simulate-limit",
    "verify-lemma1",
    "verify-fdd",
    "verify-moments",
    "verify-holder",
    "verify-selfsim",
    "modulus-sweep",
)

_DEFAULT_GRID = tuple(np.linspace(0.0, 1.0, 17))


class ConfigError(ValueError):
    """Raised for unparseable or invalid experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: float = 2.0
    n: int = 16384
    n_list: tuple[int, ...] | None = None
    replicates: int = 500
    s_grid: tuple[float, ...] = _DEFAULT_GRID
    t_grid: tuple[float, ...] = _DEFAULT_GRID
    K: int = 131072
    cells: int = 512
    master_seed: int = 0
    workers: int = 1
    output_dir: str | None = None
    # experiment-specific knobs
    s_vec: tuple[float, ...] = (0.5, 1.0)
    points: tuple[tuple[float, float], ...] = ((1.0, 0.5),)
    a: float = 0.25
    s0: float = 1.0
    t0: float = 0.5
    deltas: tuple[float, ...] = (0.0625, 0.125, 0.25)
    gamma: float = 0.7
    gamma_prime: float = 0.45
    grid_points: int = 64
    permutations: int = 1000
    # acceptance thresholds applied by the runner
    p_value_min: float = 0.01
    var_tol: float = 0.10
    holder_ratio_max: float = 2.0


def _value_type(hint):
    """A field's type, or the non-``None`` member of an optional one."""
    members = [arg for arg in get_args(hint) if arg is not type(None)]
    return members[0] if len(members) < len(get_args(hint)) else hint


# config key -> type its value parses to, read from the field annotations
_VALUE_TYPES = {name: _value_type(hint)
                for name, hint in get_type_hints(ExperimentConfig).items()}


def _parse(value_type, raw: str):
    """Scalars parse with their type; ``tuple[X, ...]`` is a comma list of X
    and ``tuple[X, Y]`` one ``X:Y`` pair."""
    args = get_args(value_type)
    if get_origin(value_type) is tuple and args[-1] is Ellipsis:
        return tuple(_parse(args[0], item) for item in raw.split(",") if item.strip())
    if get_origin(value_type) is tuple:
        parts = raw.split(":")
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} ':'-separated parts")
        return tuple(_parse(arg, part) for arg, part in zip(args, parts))
    return value_type(raw)


def _format(value_type, value) -> str:
    """Inverse of :func:`_parse`; floats keep every digit through ``repr``."""
    args = get_args(value_type)
    if get_origin(value_type) is tuple and args[-1] is Ellipsis:
        return ",".join(_format(args[0], item) for item in value)
    if get_origin(value_type) is tuple:
        return ":".join(_format(arg, part) for arg, part in zip(args, value))
    return repr(float(value)) if value_type is float else str(value_type(value))


def _parse_value(key: str, raw: str):
    value_type = _VALUE_TYPES[key]
    raw = raw.strip()
    try:
        return _parse(value_type, raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc


def parse_config(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a ``key: value`` document, apply overrides, validate, fill defaults."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, value = stripped.split(":", 1)
        key = key.strip()
        if key not in _VALUE_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if key not in _VALUE_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    values = {key: _parse_value(key, val) for key, val in raw.items()}
    config = ExperimentConfig(**values)
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {config.experiment!r}; expected one of {EXPERIMENTS}")
    try:
        Alpha(config.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.n < 1:
        raise ConfigError("n must be >= 1")
    if config.n_list is not None and any(n < 1 for n in config.n_list):
        raise ConfigError("n_list entries must be >= 1")
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.K < 1:
        raise ConfigError("K must be >= 1")
    if config.K > MAX_STEPS:
        raise ConfigError(f"K must be <= {MAX_STEPS}: the local-time Gram sums count "
                          "products up to K^2, exact in float64 only below 2^53")
    if config.cells < 1:
        raise ConfigError("cells must be >= 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    if not 0.0 <= config.p_value_min <= 1.0:
        raise ConfigError("p_value_min must lie in [0, 1]")
    if config.permutations < 500:
        raise ConfigError("permutations must be >= 500")
    output_dir = config.output_dir or ""
    if "#" in output_dir or "".join(output_dir.splitlines()) != output_dir:
        # the config text could not hold it: '#' starts a comment, and a line
        # break (any that str.splitlines splits at) ends the value
        raise ConfigError("output_dir must not contain '#' or a line break")
    try:
        GridSpec(np.asarray(config.s_grid), np.asarray(config.t_grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name}: {_format(_VALUE_TYPES[f.name], value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
    return digest[:16]
