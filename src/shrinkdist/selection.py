"""Model-selection probabilities and their moving-parameter limits.

The estimators select the zero model exactly when the sample mean falls
inside [-eta, eta]; the probability of that event and its limit along
sequences (theta_n, eta_n) are fully described by four extended reals:

    e    = lim sqrt(n) * eta_n        (finite: conservative, inf: consistent)
    nu   = lim sqrt(n) * theta_n
    zeta = lim theta_n / eta_n
    r    = lim sqrt(n) * (|zeta|*eta_n - sign(zeta)*theta_n)

r is a consistent-tuning quantity (e = inf): it is read only at the
selection boundary, |zeta| = 1 (hard) or |zeta| = a (scad).  `RegimeSpec`
carries exactly these as floats, with infinities as +-math.inf.
`ThetaRule` builds every sequence from one affine formula, and
`derive_regime` reads the four limits off its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import TuningPlan
from .finite_dist import ModelPoint, _zero_mass, atom_weight
from .normal_kernel import norm_cdf
from .report import ExperimentReport

__all__ = [
    "RegimeError",
    "RegimeSpec",
    "PowerTuningPath",
    "ThetaRule",
    "derive_regime",
    "limit_selection_probability",
    "selection_convergence_table",
]


class RegimeError(ValueError):
    """An invalid or underdetermined moving-parameter regime."""


@dataclass(frozen=True)
class RegimeSpec:
    e: float
    nu: Optional[float] = None
    zeta: Optional[float] = None
    r: Optional[float] = None

    def __post_init__(self):
        for name in ("e", "nu", "zeta", "r"):
            v = getattr(self, name)
            if v is not None:
                v = float(v)
                if math.isnan(v):
                    raise RegimeError(f"{name} must not be NaN")
                object.__setattr__(self, name, v)
        if self.e < 0.0:
            raise RegimeError("e must lie in [0, +inf]")
        if self.consistent and self.zeta is not None and self.zeta != 0.0:
            forced = math.copysign(math.inf, self.zeta)
            if self.nu is None:
                object.__setattr__(self, "nu", forced)
            elif self.nu != forced:
                raise RegimeError(
                    "with e = +inf and zeta nonzero, nu is forced to sign(zeta)*inf"
                )

    @property
    def consistent(self) -> bool:
        return self.e == math.inf

    def require_nu(self) -> float:
        if self.nu is None:
            raise RegimeError("regime underdetermined: nu is required")
        return self.nu

    def require_zeta(self) -> float:
        if self.zeta is None:
            raise RegimeError("regime underdetermined: zeta is required")
        return self.zeta

    def require_r(self) -> float:
        if self.r is None:
            raise RegimeError("regime underdetermined: r is required at a boundary case")
        return self.r


@dataclass(frozen=True)
class PowerTuningPath:
    """Canonical tuning family eta_n = scale * n**(-exponent).

    exponent = 1/2 gives conservative selection with e = scale; any
    exponent in (0, 1/2) gives consistent selection (e = +inf).
    """

    scale: float
    exponent: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be positive")
        if not (0.0 < self.exponent <= 0.5):
            raise ValueError("exponent must lie in (0, 1/2]")

    def eta(self, n: int) -> float:
        return self.scale * float(n) ** (-self.exponent)

    @property
    def e_limit(self) -> float:
        return float(self.scale) if self.exponent == 0.5 else math.inf


@dataclass(frozen=True)
class ThetaRule:
    """The parameter sequence theta_n = value + zeta*eta_n + offset/sqrt(n) + perturb*n**(-3/4).

    constructors:
      local(nu)          offset = nu
      eta_multiple(zeta) zeta
      boundary(zeta, r)  zeta and offset = -sign(zeta)*r: under consistent
                         tuning the |zeta| in {1, a} boundary with offset limit r
      fixed(value)       value

    The optional n**(-3/4) perturbation vanishes in every regime quantity
    but keeps the sequence off the exact limit, so convergence checks see a
    genuinely moving parameter.
    """

    value: float = 0.0
    zeta: float = 0.0
    offset: float = 0.0
    perturb: float = 0.0

    @classmethod
    def local(cls, nu: float, perturb: float = 0.0) -> "ThetaRule":
        return cls(offset=float(nu), perturb=float(perturb))

    @classmethod
    def eta_multiple(cls, zeta: float) -> "ThetaRule":
        return cls(zeta=float(zeta))

    @classmethod
    def boundary(cls, zeta: float, r: float, perturb: float = 0.0) -> "ThetaRule":
        if zeta == 0.0:
            raise ValueError("boundary rule needs zeta != 0")
        return cls(zeta=float(zeta), offset=-math.copysign(1.0, zeta) * float(r), perturb=float(perturb))

    @classmethod
    def fixed(cls, value: float) -> "ThetaRule":
        return cls(value=float(value))

    def theta(self, n: int, eta_n: float) -> float:
        rn = float(n)
        return self.value + self.zeta * eta_n + self.offset / math.sqrt(rn) + self.perturb * rn**-0.75


def derive_regime(path: PowerTuningPath, rule: ThetaRule) -> RegimeSpec:
    """Exact regime reached by a canonical path and theta rule, read off the rule's coefficients."""
    e = path.e_limit
    if rule.value != 0.0:
        inf = math.copysign(math.inf, rule.value)
        return RegimeSpec(e=e, nu=inf, zeta=inf)
    if not math.isinf(e):
        # sqrt(n)*eta_n = e at every n, so sqrt(n)*theta_n -> zeta*e + offset
        return RegimeSpec(e=e, nu=rule.zeta * e + rule.offset, zeta=rule.zeta + rule.offset / e)
    if rule.zeta == 0.0:
        return RegimeSpec(e=e, nu=rule.offset, zeta=0.0)
    # sqrt(n)*(|zeta|*eta_n - sign(zeta)*theta_n) = -sign(zeta)*offset + o(1), nu = sign(zeta)*inf
    return RegimeSpec(e=e, zeta=rule.zeta, r=0.0 - math.copysign(1.0, rule.zeta) * rule.offset)


def limit_selection_probability(regime: RegimeSpec) -> float:
    """Limit of the zero-selection probability under the given regime."""
    if not regime.consistent:
        nu = regime.require_nu()
        e = regime.e
        return _zero_mass(-nu, e)
    az = abs(regime.require_zeta())
    if az < 1.0:
        return 1.0
    if az > 1.0:
        return 0.0
    return norm_cdf(regime.require_r())


def selection_convergence_table(path: PowerTuningPath, theta_rule: ThetaRule, n_list) -> ExperimentReport:
    """Exact probability along the path versus its regime limit, per n."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    regime = derive_regime(path, theta_rule)
    limit = limit_selection_probability(regime)
    report = ExperimentReport(columns=("n", "theta", "eta", "prob", "limit", "gap"))
    for n in n_list:
        eta_n = path.eta(n)
        theta_n = theta_rule.theta(n, eta_n)
        prob = atom_weight(ModelPoint(n, theta_n), TuningPlan(eta_n))
        report.append(int(n), theta_n, eta_n, prob, limit, prob - limit)
    return report
