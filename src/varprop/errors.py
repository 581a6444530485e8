"""Exception types shared across the package, and the argument rules that raise them.

Every integer argument goes through :func:`checked_int`, every variance
weight through :func:`checked_lam`, and every array of indices through
:func:`integer_array`, so each rule is written once.
"""

import numbers

import numpy as np


class InvalidInputError(ValueError):
    """Malformed in-memory input: bad shapes, NaNs, asymmetry, unknown nodes."""


class InvalidParameterError(ValueError):
    """Parameter outside its documented range."""


class FormatError(ValueError):
    """Unparseable input file; the message carries the line number where known."""


class IllPosedError(RuntimeError):
    """The requested linear system has no usable solution on this graph."""


class DivergenceError(RuntimeError):
    """Iteration diverged; typically the variance weight exceeds the stability bound."""


class InsufficientLabelsError(ValueError):
    """A class has fewer members than the requested labels per class."""


class LayoutError(ValueError):
    """Reports cannot be arranged into a single table."""


def checked_int(value, name, low=None, high=None) -> int:
    """``value`` as an int; InvalidParameterError unless it is an int or a
    numpy integer, with ``low <= value`` and ``value < high`` where they are
    given.

    A bool is refused, though Python counts it as an integer.  So is a
    float, even a whole one, rather than truncated: 1.9 labels per class
    would draw 1, and a seed of 1.9 would key seed 1.
    """
    typed = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if typed and (low is None or value >= low) and (high is None or value < high):
        return int(value)
    bounds = [f">= {low}"] * (low is not None) + [f"< {high}"] * (high is not None)
    detail = "" if typed else "; integers are int or numpy integer values, not bool or float"
    raise InvalidParameterError(
        f"{name} must be {' and '.join(bounds + ['an integer'])}, got {value!r}{detail}"
    )


def checked_lam(value, name="lam") -> float:
    """``value`` as a float; InvalidParameterError unless it is a real
    number (a ``numbers.Real``, numpy floats included), finite, >= 0 and not
    a bool.  The variance weight of every solve, objective and
    ``bench --lambda-frac`` fraction obeys it."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 <= value < np.inf):
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def integer_array(values, name) -> np.ndarray:
    """``values`` as an int64 array; InvalidInputError unless they are empty or of an integer dtype."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise InvalidInputError(f"{name} must have an integer dtype, got {values.dtype}")
    return values.astype(np.int64, copy=False)
