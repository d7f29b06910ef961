"""Flat key-value experiment configs: parsing, validation, canonical form."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

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


_PARSERS = {
    "experiment": str,
    "alpha": float,
    "n": int,
    "n_list": "int_list",
    "replicates": int,
    "s_grid": "float_list",
    "t_grid": "float_list",
    "K": int,
    "cells": int,
    "master_seed": int,
    "workers": int,
    "output_dir": str,
    "s_vec": "float_list",
    "points": "points",
    "a": float,
    "s0": float,
    "t0": float,
    "deltas": "float_list",
    "gamma": float,
    "gamma_prime": float,
    "grid_points": int,
    "permutations": int,
    "p_value_min": float,
    "var_tol": float,
    "holder_ratio_max": float,
}


def _parse_value(key: str, raw: str):
    kind = _PARSERS[key]
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "int_list":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if kind == "float_list":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if kind == "points":
            out = []
            for token in raw.split(","):
                token = token.strip()
                if not token:
                    continue
                s, t = token.split(":")
                out.append((float(s), float(t)))
            return tuple(out)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc
    raise AssertionError(f"unhandled parser kind {kind}")


def _format_value(key: str, value) -> str:
    kind = _PARSERS[key]
    if kind is str:
        return str(value)
    if kind is int:
        return str(int(value))
    if kind is float:
        return repr(float(value))
    if kind == "int_list":
        return ",".join(str(int(x)) for x in value)
    if kind == "float_list":
        return ",".join(repr(float(x)) for x in value)
    if kind == "points":
        return ",".join(f"{repr(float(s))}:{repr(float(t))}" for s, t in value)
    raise AssertionError(f"unhandled parser kind {kind}")


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
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if key not in _PARSERS:
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
    if config.cells < 1:
        raise ConfigError("cells must be >= 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    if not 0.0 <= config.p_value_min <= 1.0:
        raise ConfigError("p_value_min must lie in [0, 1]")
    if config.permutations < 500:
        raise ConfigError("permutations must be >= 500")
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
        lines.append(f"{f.name}: {_format_value(f.name, value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
    return digest[:16]
