"""Model-selection probabilities and their moving-parameter limits.

The estimators select the zero model exactly when the sample mean falls
inside [-eta, eta]; the probability of that event and its limit along
sequences (theta_n, eta_n) are fully described by four extended reals:

    e    = lim sqrt(n) * eta_n        (finite: conservative, inf: consistent)
    nu   = lim sqrt(n) * theta_n
    zeta = lim theta_n / eta_n
    r    = lim sqrt(n) * (eta_n - zeta * theta_n)        (|zeta| = 1), or
           lim sqrt(n) * (a*eta_n - sign(zeta)*theta_n)  (scad, |zeta| = a).

`RegimeSpec` carries exactly these as floats, with infinities as +-math.inf.
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
    """Parameter sequences theta_n matched to the regime quantities.

    kinds:
      local        theta_n = nu/sqrt(n) + perturb * n**(-3/4)
      eta_multiple theta_n = zeta * eta_n
      boundary     theta_n = zeta*eta_n - sign(zeta)*r/sqrt(n) + perturb * n**(-3/4),
                   hitting the |zeta| in {1, a} boundary with offset limit r
      fixed        theta_n = value

    The optional n**(-3/4) perturbation vanishes in every regime quantity
    but keeps the sequence off the exact limit, so convergence checks see a
    genuinely moving parameter.
    """

    kind: str
    nu: float = 0.0
    zeta: float = 0.0
    r: float = 0.0
    value: float = 0.0
    perturb: float = 0.0

    @classmethod
    def local(cls, nu: float, perturb: float = 0.0) -> "ThetaRule":
        return cls(kind="local", nu=float(nu), perturb=float(perturb))

    @classmethod
    def eta_multiple(cls, zeta: float) -> "ThetaRule":
        return cls(kind="eta_multiple", zeta=float(zeta))

    @classmethod
    def boundary(cls, zeta: float, r: float, perturb: float = 0.0) -> "ThetaRule":
        if zeta == 0.0:
            raise ValueError("boundary rule needs zeta != 0")
        return cls(kind="boundary", zeta=float(zeta), r=float(r), perturb=float(perturb))

    @classmethod
    def fixed(cls, value: float) -> "ThetaRule":
        return cls(kind="fixed", value=float(value))

    def theta(self, n: int, eta_n: float) -> float:
        rn = float(n)
        if self.kind == "local":
            return self.nu / math.sqrt(rn) + self.perturb * rn**-0.75
        if self.kind == "eta_multiple":
            return self.zeta * eta_n
        if self.kind == "boundary":
            return self.zeta * eta_n - math.copysign(1.0, self.zeta) * self.r / math.sqrt(rn) + self.perturb * rn**-0.75
        if self.kind == "fixed":
            return self.value
        raise ValueError(f"unknown theta rule {self.kind!r}")


def derive_regime(path: PowerTuningPath, rule: ThetaRule) -> RegimeSpec:
    """Exact regime reached by a canonical path and theta rule."""
    e = path.e_limit
    consistent = e == math.inf
    if rule.kind == "local":
        # theta/eta ~ n**(exponent - 1/2) -> 0 unless conservative
        zeta = 0.0 if consistent else rule.nu / path.scale
        return RegimeSpec(e=e, nu=rule.nu, zeta=zeta)
    if rule.kind == "eta_multiple":
        z = rule.zeta
        if z == 0.0:
            nu = 0.0
        elif consistent:
            nu = math.inf if z > 0 else -math.inf
        else:
            nu = z * path.scale
        # sqrt(n)(eta - zeta*theta) = (1 - zeta^2) sqrt(n) eta; exact 0 at |zeta| = 1
        r = 0.0 if abs(z) == 1.0 and consistent else None
        return RegimeSpec(e=e, nu=nu, zeta=z, r=r)
    if rule.kind == "boundary":
        z = rule.zeta
        if consistent:
            nu = math.inf if z > 0 else -math.inf
        else:
            nu = z * path.scale - math.copysign(1.0, z) * rule.r
        return RegimeSpec(e=e, nu=nu, zeta=z, r=rule.r)
    if rule.kind == "fixed":
        v = rule.value
        if v == 0.0:
            return RegimeSpec(e=e, nu=0.0, zeta=0.0)
        inf = math.inf if v > 0 else -math.inf
        return RegimeSpec(e=e, nu=inf, zeta=inf)
    raise ValueError(f"unknown theta rule {rule.kind!r}")


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
