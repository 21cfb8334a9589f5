"""Standard-normal primitives.

Everything downstream (mixture densities, selection probabilities, limit
laws, total-variation bounds) is built from the functions here.  Infinite
ends and locations are IEEE `+-math.inf`, which order and compare exactly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.special import erfc as _erfc

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_FLOAT_MAX = float(np.finfo(float).max)

__all__ = [
    "norm_pdf",
    "norm_cdf",
    "gaussian_tv",
]


def _scalar_or_array(x: np.ndarray, out):
    """`out` as a Python float when the input `x` is 0-d, else unchanged."""
    if x.ndim == 0:
        return float(out)
    return out


def _is_whole(value) -> bool:
    """Whether value is a whole number: an int, or a whole float such as 200.0, but not a bool."""
    try:
        return not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):  # int() of a string, NaN or an infinity
        return False


def _check_count(value, name: str = "n") -> int:
    """A count (a sample size, say) is a positive integer, returned as an int.

    A whole float such as 200.0 passes and comes back as 200.  A bool, a
    fraction, an infinity, NaN or a string does not; each raises ValueError
    naming the count.  So does a whole number past the largest float, such
    as 10**400, since every count is used as a float somewhere.
    """
    if not (_is_whole(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer (got {value!r})")
    if not value <= _FLOAT_MAX:
        raise ValueError(f"{name} must be at most the largest float, {_FLOAT_MAX!r} (got {value!r})")
    return int(value)


def _check_seed(seed) -> int:
    """A seed is a whole number (as a count is) in [0, 2**64), returned as an int; else ValueError."""
    if not _is_whole(seed):
        raise ValueError(f"seed must be a nonnegative integer (got {seed!r})")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return int(seed)


def _as_real(value) -> float:
    """value as a float if it is an int, a float or a numpy real, or a 0-d array of one, but not a bool; else NaN.
    A plain float comes back as it is, with no numbers test."""
    if type(value) is float:
        return value
    value = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    try:
        return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past the float range
        return math.nan


def _check_real(value, name: str, *, gt=None, ge=None, le=None, limit=False, error=ValueError) -> float:
    """A real parameter is a number in its range, returned as a Python float.

    An int, a float or a numpy real passes, a 0-d array of one too; a bool,
    a string or NaN does not.  An infinity passes only where the value is a
    limit (limit=True).  The range is > gt, >= ge and <= le, each bound
    optional.  A failure raises `error` (a ValueError) naming the parameter
    and the value.
    """
    real = _as_real(value)
    in_range = (gt is None or real > gt) and (ge is None or real >= ge) and (le is None or real <= le)
    if math.isnan(real) or not (limit or math.isfinite(real)) or not in_range:
        what = "a real number or an infinity" if limit else "a finite real number"
        where = " and ".join(f"{name} {sign} {b!r}" for sign, b in ((">", gt), (">=", ge), ("<=", le)) if b is not None)
        raise error(f"{name} must be {what}{' with ' + where if where else ''} (got {value!r})")
    return real


def _check_reals(value, name: str, shaped: bool = True) -> np.ndarray:
    """A finite real number or a nonempty 1-d list, tuple or array of them, as a float64 array (0-d for a number);
    unless `shaped`, an array of any shape, empty too, or lists and tuples nested to any depth.

    Each item takes `_check_real`'s rule, an array's by its dtype; a float64 array comes back uncopied.  Anything
    else raises one ValueError naming the parameter.
    """
    if isinstance(value, np.ndarray):
        reals = np.asarray(value, dtype=float) if value.dtype.kind in "iuf" else None
    else:
        try:  # lists and tuples to any depth; numpy makes no array of a ragged nesting of arrays
            items = np.array(value if isinstance(value, (list, tuple)) else _as_real(value), dtype=object)
            reals = np.array([_as_real(v) for v in items.flat]).reshape(items.shape)
        except ValueError:
            reals = None
    if reals is None or shaped and (reals.ndim > 1 or reals.size == 0) or not np.isfinite(reals).all():
        what = "a nonempty 1-d array" if shaped else "an array"
        raise ValueError(f"{name} must be a finite real number or {what} of finite real numbers")
    return reals


def _check_sizes(sizes, name: str) -> list:
    """A list of sample sizes is nonempty, each item a count, and strictly increasing; returned as a list of ints."""
    items = list(sizes) if np.iterable(sizes) and not isinstance(sizes, str) else []
    counts = [_check_count(n, f"each {name} item") for n in items]
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError(f"{name} must be a nonempty, strictly increasing list of sample sizes (got {sizes!r})")
    return counts


def _one_of(value, choices, name: str):
    """value if it is one of choices, else a ValueError naming it.  A tuple test, so an unhashable value is
    not one; nor is any array, whose `in` test raises numpy's own error or lets a 0-d array through."""
    if isinstance(value, np.ndarray) or value not in tuple(choices):
        raise ValueError(f"{name} must be one of {', '.join(map(str, choices))} (got {value!r})")
    return value


def _no_nan(x) -> np.ndarray:
    """x as a float array; NaN raises ValueError: a law's cdf or density would silently read it as 0, and
    the searchsorted of `EmpiricalCdf.fraction_at` would sort it past every value."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be NaN")
    return x


@np.errstate(over="ignore")
def norm_pdf(x):
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2).

    Accepts scalars or arrays; rejects non-finite scalar input.  Underflows
    cleanly to 0.0 deep in the tails, and is exactly 0.0 without a warning
    where x^2 overflows, or at an infinity inside an array.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 and not np.isfinite(arr):
        raise ValueError("norm_pdf requires finite input")
    return _scalar_or_array(arr, np.exp(-0.5 * arr * arr) / _SQRT2PI)


def norm_cdf(x):
    """Standard normal cdf via the complementary error function.

    Accepts floats, arrays and IEEE infinities; the infinities map to
    exactly 0 and 1.  Division rounds symmetrically in sign, so x / -sqrt(2)
    is -x / sqrt(2) bit for bit (up to a NaN's sign), without a negation pass.
    A plain float takes numpy's scalar path, scipy's own erfc on the float
    itself, with the array path's bits.
    """
    if type(x) is float:
        return float(0.5 * _erfc(x / -_SQRT2))
    arr = np.asarray(x, dtype=float)
    return _scalar_or_array(arr, 0.5 * _erfc(arr / -_SQRT2))


def gaussian_tv(n: int, theta1, theta2):
    """Total variation distance between the n-sample location experiments.

    Equals the TV distance between N(theta1, 1/n) and N(theta2, 1/n), the
    laws of the sufficient statistic: 2*Phi(sqrt(n)|t1 - t2|/2) - 1.
    theta1 and theta2 each take the array rule of `_check_reals` and broadcast; numbers give a float.
    """
    _check_count(n)
    half_sep = 0.5 * math.sqrt(n) * abs(_check_reals(theta1, "theta1") - _check_reals(theta2, "theta2"))
    return 2.0 * norm_cdf(half_sep) - 1.0
