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


def check_field_types(obj) -> None:
    """Raise ConfigError unless every int or float field of a dataclass
    holds a number of that kind."""
    for f in dataclasses.fields(obj):
        # the annotation is a string under `from __future__ import annotations`
        kind, noun = _KINDS.get(getattr(f.type, "__name__", f.type), (object, ""))
        value = getattr(obj, f.name)
        if not isinstance(value, kind):
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
