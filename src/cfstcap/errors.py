"""Exception hierarchy shared across the package."""
from __future__ import annotations

import dataclasses
import numbers


class CfstError(Exception):
    """Base class for all package errors."""


class DataError(CfstError):
    """Malformed or physically invalid input data."""


class NumericError(CfstError):
    """A computation left its valid domain (divergence, bad radicand, ...)."""


class ConfigError(CfstError, ValueError):
    """Invalid configuration or arguments."""


_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


def check_type(name: str, value, kind: str) -> None:
    """Raise ConfigError unless value is a number of kind "int" or "float";
    a bool is neither, though Python counts it as an int."""
    cls, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


def check_field_types(obj) -> None:
    """Raise ConfigError unless every int or float field of a dataclass
    holds a number of that kind."""
    for f in dataclasses.fields(obj):
        # the annotation is a string under `from __future__ import annotations`
        kind = getattr(f.type, "__name__", f.type)
        if kind in _KINDS:
            check_type(f.name, getattr(obj, f.name), kind)
