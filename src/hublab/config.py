"""Flat run configuration: defaults, file merging, validation, digests.

Every command resolves its configuration to the full key set below (file
values, then command-line overrides, on top of defaults), rejects unknown
keys, and stamps the resolved mapping into each artifact it writes. The
artifacts directory is named by a digest of the resolved configuration so
distinct runs never overwrite each other.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields

from .errors import ConfigError
from .trainer import TrainConfig

FORMAT_VERSION = 2


DEFAULTS: dict = {
    # training, and the hubness report it writes
    **{f.name: f.default for f in fields(TrainConfig)},
    "probe_threshold": 0.5,
    # synthetic data
    "n_pairs": 1000,
    "dim": 64,
    "hub_fraction": 0.1,
    "contraction": 0.5,
    "noise": 1.0,
    # retrieval
    "mode": "simi",
    # io paths
    "queries": None,
    "galleries": None,
    "texts": None,
    "labels": None,
    "bank": None,
}

# the range of each key outside TrainConfig, which checks its own fields
_RANGES = {
    "probe_threshold": (lambda v: -1.0 <= v <= 1.0, "lie in [-1, 1]"),
    "n_pairs": (lambda v: v >= 1, "be >= 1"),
    "dim": (lambda v: v >= 1, "be >= 1"),
    "hub_fraction": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "contraction": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "noise": (lambda v: v >= 0.0, "be >= 0"),
    "mode": (lambda v: v in ("simi", "simi-cent"), "be 'simi' or 'simi-cent'"),
}

_TYPE_NAMES = {str: "a string", bool: "a boolean", int: "an integer"}


def _check_type(key: str, value):
    """Check ``value`` against the type of the key's default. Path keys
    (default None) take a string or null; float keys take any finite
    number and store it as a float."""
    default = DEFAULTS[key]
    if default is None:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string or null")
        return value
    kind = type(default)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{key} must be a finite number, got {value}")
        return number
    # bool is a subclass of int, so an integer key must reject True/False
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}")
    return value


def resolve_config(file_config: dict | None = None,
                   overrides: dict | None = None) -> dict:
    """Merge defaults, a config file, and CLI overrides into the full map;
    a value outside its key's range is a ConfigError."""
    resolved = dict(DEFAULTS)
    for source in (file_config or {}, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = _check_type(key, value)
    for key, (within, rule) in _RANGES.items():
        if not within(resolved[key]):
            raise ConfigError(f"{key} must {rule}, got {resolved[key]!r}")
    try:
        train_config_from(resolved)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return resolved


def config_digest(command: str, resolved: dict) -> str:
    blob = json.dumps({"command": command, "config": resolved},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def train_config_from(resolved: dict) -> TrainConfig:
    return TrainConfig(**{f.name: resolved[f.name] for f in fields(TrainConfig)})
