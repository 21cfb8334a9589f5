"""Standard-normal primitives.

Everything downstream (mixture densities, selection probabilities, limit
laws, total-variation bounds) is built from the functions here.  Infinite
ends and locations are IEEE `+-math.inf`, which order and compare exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc as _erfc

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

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
    naming the count.
    """
    if not (_is_whole(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer (got {value!r})")
    return int(value)


def _check_seed(seed) -> int:
    """A seed is a whole number (as a count is) in [0, 2**64), returned as an int; else ValueError."""
    if not _is_whole(seed):
        raise ValueError(f"seed must be a nonnegative integer (got {seed!r})")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return int(seed)


def _no_nan(x) -> np.ndarray:
    """x as a float array; NaN raises ValueError (searchsorted would sort NaN past every value)."""
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
    exactly 0 and 1.
    """
    arr = np.asarray(x, dtype=float)
    return _scalar_or_array(arr, 0.5 * _erfc(-arr / _SQRT2))


def gaussian_tv(n: int, theta1, theta2):
    """Total variation distance between the n-sample location experiments.

    Equals the TV distance between N(theta1, 1/n) and N(theta2, 1/n), the
    laws of the sufficient statistic: 2*Phi(sqrt(n)|t1 - t2|/2) - 1.
    theta1 and theta2 may be arrays, which broadcast; floats give a float.
    """
    _check_count(n)
    half_sep = 0.5 * math.sqrt(n) * abs(theta1 - theta2)
    return 2.0 * norm_cdf(half_sep) - 1.0
