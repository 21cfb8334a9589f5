"""Thresholding point estimators for the Gaussian location model.

Three estimators of the location from the sample mean `ybar`, all sharing
one threshold `eta`:

* hard:  keep `ybar` when |ybar| > eta, else 0,
* soft:  shrink toward 0 by eta (the lasso solution in this model),
* scad:  soft near 0, identity far out, linear blend on (2*eta, a*eta].

All three return exactly 0 iff |ybar| <= eta, which is what makes their
model-selection behavior identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .normal_kernel import _check_count, _check_real, _check_reals, _scalar_or_array

__all__ = [
    "EstimatorKind",
    "TuningPlan",
    "estimate",
    "penalized_objective",
]

DEFAULT_SCAD_A = 3.7


class EstimatorKind(enum.Enum):
    HARD = "hard"
    SOFT = "soft"
    SCAD = "scad"

    @classmethod
    def parse(cls, name: str) -> "EstimatorKind":
        """The kind named by a string, in any case; anything else raises ValueError naming the value."""
        try:
            return cls(name.lower())
        except (ValueError, AttributeError):  # AttributeError: a non-string has no .lower()
            raise ValueError(f"unknown estimator kind {name!r}; expected hard, soft, or scad") from None


def _check_kind(kind) -> EstimatorKind:
    """kind itself when it is an `EstimatorKind`; anything else raises ValueError naming it."""
    if not isinstance(kind, EstimatorKind):
        raise ValueError(f"unknown estimator kind {kind!r}")
    return kind


@dataclass(frozen=True)
class TuningPlan:
    """User-set knobs: threshold eta > 0 and scad shape a > 2, both stored as floats."""

    eta: float
    scad_a: float = DEFAULT_SCAD_A

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_real(self.eta, "eta", gt=0))
        # every scad law needs a > 2: the blend slope (a - 2)/(a - 1) must be positive
        object.__setattr__(self, "scad_a", _check_real(self.scad_a, "scad_a", gt=2))


def estimate(kind: EstimatorKind, ybar, tuning: TuningPlan):
    """Evaluate the estimator at sample mean `ybar`, a finite real number or an array of them of any shape.

    Boundary convention: |ybar| == eta maps to 0 for every kind, and the
    scad branch intervals are (-inf, 2*eta], (2*eta, a*eta], (a*eta, inf).
    The scad blend's magnitude is clamped into [eta, a*eta], the range of
    its exact values, so the float map stays nondecreasing even for a just
    above 2, where the quotient by a - 2 magnifies its rounding.
    """
    _check_kind(kind)
    y = _check_reals(ybar, "ybar", shaped=False)
    eta = tuning.eta
    if kind is EstimatorKind.HARD:
        out = np.where(np.abs(y) > eta, y, 0.0)
    elif kind is EstimatorKind.SOFT:
        out = np.sign(y) * np.maximum(np.abs(y) - eta, 0.0)
    else:  # scad
        a, sign, magnitude = tuning.scad_a, np.sign(y), np.abs(y)
        soft = sign * np.maximum(magnitude - eta, 0.0)
        # clamped into [eta, a*eta] by sign: the quotient can round past those ends, near a = 2 and also one ulp
        # above 2*eta at ordinary a (at a = 2.227, eta = 9.1e-7 it gives the float below eta), and the clamp keeps
        # the map monotone there; elsewhere it is ((a - 1)*y - sign*a*eta)/(a - 2) bit for bit
        blend = sign * np.clip(((a - 1.0) * magnitude - a * eta) / (a - 2.0), eta, a * eta)
        out = np.where(magnitude <= 2.0 * eta, soft, np.where(magnitude <= a * eta, blend, y))
    return _scalar_or_array(y, out)


def penalized_objective(kind: EstimatorKind, theta: float, ybar: float, n: int, tuning: TuningPlan) -> float:
    """Penalized least-squares objective in sufficient-statistic form.

    The residual sum of squares enters as n*(ybar - theta)^2; the additive
    constant independent of theta is dropped.  The scad term is 2*n*p(|theta|)
    with the Fan-Li (2001) penalty p(t) = eta*t up to eta,
    -(t^2 - 2*a*eta*t + eta^2)/(2*(a - 1)) up to a*eta, and (a + 1)*eta^2/2
    beyond.
    """
    kind, theta, ybar, n = _check_kind(kind), _check_real(theta, "theta"), _check_real(ybar, "ybar"), _check_count(n)
    fit = n * (ybar - theta) ** 2
    eta = tuning.eta
    if kind is EstimatorKind.HARD:
        shortfall = (abs(theta) - eta) ** 2 if abs(theta) < eta else 0.0
        return fit + n * (eta**2 - shortfall)
    if kind is EstimatorKind.SOFT:
        return fit + 2.0 * n * eta * abs(theta)
    a, t = tuning.scad_a, abs(theta)
    if t <= eta:
        return fit + 2.0 * n * eta * t
    if t <= a * eta:
        return fit - n * (t * t - 2.0 * a * eta * t + eta**2) / (a - 1.0)
    return fit + n * (a + 1.0) * eta**2

