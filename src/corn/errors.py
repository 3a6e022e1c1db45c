"""Exception types shared across the package, and the shared value checks."""

import dataclasses
import numbers


class CornError(Exception):
    """Base class for all package errors."""


class ParseError(CornError):
    """Malformed input file (CSV/JSON structure, bad field values)."""


class ValidationError(CornError):
    """Input data violates a structural contract (overlaps, unknown ids)."""


class DisconnectedError(CornError):
    """Spatial graph does not connect all mapped locations."""


class InvalidKError(CornError):
    """Bubble count K incompatible with the instance."""


class TooLargeError(CornError):
    """Instance exceeds a guard limit for an exhaustive routine."""


class ConfigError(CornError):
    """Inconsistent or incomplete run configuration."""


class ClusteringMismatchError(ConfigError):
    """Clustering does not cover the graph it is applied to."""


class SpecError(CornError):
    """Synthetic facility spec has out-of-range or inconsistent fields."""


class NotBracketedError(CornError):
    """Calibration target R0 is not reached at any rho up to RHO_MAX."""


def check_nonnegative(**values: float | None) -> None:
    """ConfigError for any value that is negative or NaN; None and inf pass."""
    for name, v in values.items():
        if v is not None and not v >= 0:
            raise ConfigError(f"{name}={v} must be a number >= 0")


def is_integer(v) -> bool:
    """An int or numpy integer; a bool is no count, so JSON true is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real number; JSON true is no number, nor is a string that reads as one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_field_types(obj, error: type[CornError]) -> None:
    """error for a dataclass field annotated int or bool (or either | None) of another type."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if v is None and kind != f.type:
            continue
        if kind == "bool" and not isinstance(v, bool):
            raise error(f"{f.name}={v!r} must be true or false")
        if kind == "int" and not is_integer(v):
            raise error(f"{f.name}={v!r} must be an integer")
