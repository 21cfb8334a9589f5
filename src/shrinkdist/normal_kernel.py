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


def norm_pdf(x):
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2).

    Accepts scalars or arrays; rejects non-finite scalar input.  Underflows
    cleanly to 0.0 deep in the tails.
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
    if n < 1:
        raise ValueError("n must be a positive integer")
    half_sep = 0.5 * math.sqrt(n) * abs(theta1 - theta2)
    return 2.0 * norm_cdf(half_sep) - 1.0
