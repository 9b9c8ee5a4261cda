"""Exception types shared across the package, and the input checks every
public entry point runs.  A check takes the error class to raise: a config
class raises a ``ConfigError`` that leads with the field's name, as a config
file names it, and an API function the error it documents.
"""

import math
import numbers

import numpy as np


class CbrapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(CbrapError, ValueError):
    """Operand dimensions are inconsistent or out of range."""


class InvalidInputError(CbrapError, ValueError):
    """An input value is malformed (non-finite, empty, out of domain)."""


class DegenerateInputError(CbrapError, ValueError):
    """An input is degenerate for the requested operation (e.g. zero norm)."""


class ConfigError(CbrapError, ValueError):
    """An experiment configuration failed validation."""


class DatasetError(CbrapError, ValueError):
    """A context dataset failed to parse or is internally inconsistent."""


class EndOfDataError(CbrapError, RuntimeError):
    """A replay dataset has no rows left for the requested round."""


def check_int(value, name: str, error: type = InvalidInputError) -> int:
    """``value`` as a Python int if it is an integer, numpy's too but never a bool."""
    if type(value) is int:  # the round loop's indices: one test, bools excluded
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name}: expected int, got {value!r}" if issubclass(error, ConfigError)
                    else f"expected an integer {name}, got {value!r}")
    return int(value)


def check_count(value, name: str, error: type = InvalidInputError, lo: int = 1) -> int:
    """``value`` as a Python int if it is an integer (see ``check_int``) >= ``lo``."""
    if type(value) is not int:  # a width's t and m: one test, as in check_int
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise error(f"{name}: expected int, got {value!r}" if issubclass(error, ConfigError)
                        else f"{name} must be an integer >= {lo}, got {value!r}")
        value = int(value)
    if value < lo:
        raise error(f"{name} must be >= {lo}, got {value}")
    return value


def check_real(value, name: str, error: type = InvalidInputError,
               positive: bool = False) -> float:
    """``value`` as a Python float if it is a finite real number, numpy's too
    but never a bool, and above 0 if ``positive``."""
    if type(value) is not float:  # the round loop's rewards are floats
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise error(f"{name}: expected float, got {value!r}" if issubclass(error, ConfigError)
                        else f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not math.isfinite(value) or positive and value <= 0:
        raise error(f"{name} must be finite{' and positive' if positive else ''}, got {value}")
    return value


def check_type(value, kind: type | tuple[type, ...], name: str,
               error: type = InvalidInputError):
    """``value`` itself if it is an instance of ``kind``."""
    if not isinstance(value, kind):
        what = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        raise error(f"{name}: expected {what}, got {value!r}")
    return value


def check_array(x, name: str, error: type = InvalidInputError, integer: bool = False,
                shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``x`` as a float64 array of finite values, or as an int64 array if
    ``integer``; complex, non-numeric or ragged x is an ``error``, and so is
    (as an InvalidDimensionError) any shape but ``shape`` if one is given."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as exc:  # a ragged list
        raise error(f"{name} must form an array: {exc}") from exc
    if a.dtype.kind not in ("iu" if integer else "biuf"):
        raise error(f"{name} must be {'integers' if integer else 'real numbers'}, got {a.dtype}")
    if shape is not None and a.shape != shape:
        raise InvalidDimensionError(f"{name}: shape {a.shape}, expected {shape}")
    if integer:
        return a.astype(np.int64, copy=False)
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise error(f"{name} must be finite")
    return a
