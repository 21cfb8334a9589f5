"""Exact sampling distributions of the thresholding estimators.

The law of sqrt(n)*(estimate - theta) is, for every kind, a mixture of one
point mass (sitting at -sqrt(n)*theta, carried by the event estimate == 0)
and an absolutely continuous part assembled from scaled-Gaussian pieces

    x  |->  c * pdf(alpha*x + beta)   on (lower, upper],

so every cdf value, mass, and second moment is a finite combination of
normal cdf evaluations.  No quadrature appears on this path; quadrature is
test-oracle material only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorKind, TuningPlan
from .normal_kernel import _scalar_or_array, norm_cdf, norm_pdf

__all__ = [
    "ModelPoint",
    "GaussPiece",
    "Atom",
    "MixtureDistribution",
    "atom_weight",
    "finite_sample_dist",
    "rescaled_dist",
    "scaled_risk",
]

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class ModelPoint:
    """Sample size and true location indexing one experiment P_{n,theta}."""

    n: int
    theta: float

    def __post_init__(self):
        if isinstance(self.n, bool) or int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer (got {self.n})")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def sqrt_n(self) -> float:
        return math.sqrt(self.n)


def _real_to_json(v: float):
    # JSON has no infinities: they travel as the strings "+inf" and "-inf"
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def _real_from_json(obj) -> float:
    if obj == "+inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    return float(obj)


def _inverse_scale(s: float) -> float:
    """1/s for a finite scale s > 0.

    Ends and locations are rescaled as x * (1/s), not x / s: the two differ
    in the last bit for some x, and the published output bytes use the former.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("scale must be positive and finite")
    return 1.0 / s


def _zphi(t: float) -> float:
    # t * pdf(t) with the correct 0 limit at +-inf
    if math.isinf(t):
        return 0.0
    return t * norm_pdf(t)


@dataclass(frozen=True)
class GaussPiece:
    """Density c * pdf(alpha*x + beta) supported on (lower, upper]; ends may be +-inf."""

    coeff: float
    slope: float
    shift: float
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (np.isfinite(self.coeff) and self.coeff >= 0.0):
            raise ValueError("coeff must be finite and nonnegative")
        if not (np.isfinite(self.slope) and self.slope != 0.0):
            raise ValueError("slope must be finite and nonzero")
        if not np.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if not self.lower < self.upper:
            raise ValueError("piece interval requires lower < upper")

    def _z(self, x: float) -> float:
        return self.slope * x + self.shift

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.lower) & (x <= self.upper)
        return _scalar_or_array(x, np.where(inside, self.coeff * norm_pdf(self.slope * x + self.shift), 0.0))

    def cdf_contrib(self, x):
        """Mass of the piece on (-inf, x], in closed form through the normal cdf."""
        x = np.asarray(x, dtype=float)
        z_lo = self._z(self.lower)
        z_hi = self._z(np.minimum(x, self.upper))
        contrib = (self.coeff / self.slope) * (norm_cdf(z_hi) - norm_cdf(z_lo))
        return _scalar_or_array(x, np.where(x > self.lower, contrib, 0.0))

    def mass(self) -> float:
        return float(self.cdf_contrib(self.upper))

    def second_moment(self) -> float:
        """Integral of x^2 times the piece density, via truncated-normal identities.

        With z = alpha*x + beta the integral becomes
        c/alpha^3 * int (z - beta)^2 pdf(z) dz over the mapped interval, and
        int pdf, int z*pdf, int z^2*pdf all reduce to cdf/pdf evaluations.
        """
        a = self._z(self.lower)
        b = self._z(self.upper)
        i0 = norm_cdf(b) - norm_cdf(a)
        pa = 0.0 if math.isinf(a) else norm_pdf(a)
        pb = 0.0 if math.isinf(b) else norm_pdf(b)
        i1 = pa - pb
        i2 = i0 + _zphi(a) - _zphi(b)
        return (self.coeff / self.slope**3) * (i2 - 2.0 * self.shift * i1 + self.shift**2 * i0)

    def rescaled(self, s: float) -> "GaussPiece":
        """Piece for X/s when this piece describes X; requires finite s > 0."""
        inv = _inverse_scale(s)
        return GaussPiece(self.coeff * s, self.slope * s, self.shift, self.lower * inv, self.upper * inv)

    def to_json(self) -> dict:
        return {
            "coeff": self.coeff,
            "slope": self.slope,
            "shift": self.shift,
            "lower": _real_to_json(self.lower),
            "upper": _real_to_json(self.upper),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussPiece":
        return cls(
            coeff=float(obj["coeff"]),
            slope=float(obj["slope"]),
            shift=float(obj["shift"]),
            lower=_real_from_json(obj["lower"]),
            upper=_real_from_json(obj["upper"]),
        )


@dataclass(frozen=True)
class Atom:
    """Point mass; the location may be +-inf (escaped mass)."""

    loc: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "loc", float(self.loc))
        if math.isnan(self.loc):
            raise ValueError("atom location must not be NaN")
        if not (np.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError("atom weight must be finite and nonnegative")


@dataclass(frozen=True)
class MixtureDistribution:
    """Finite list of atoms plus scaled-Gaussian density pieces.

    Total mass, counting atoms at +-inf, is always 1; the cdf restricted to
    the real line is sub-stochastic exactly when mass sits at an infinity.
    """

    atoms: tuple
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        locs = [a.loc for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")
        total = self.total_mass()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"mixture mass {total} is not 1 within {_MASS_TOL}")

    def total_mass(self) -> float:
        return sum(a.weight for a in self.atoms) + sum(p.mass() for p in self.pieces)

    def cdf(self, x):
        """Right-continuous cdf on the real line.

        An atom at -inf contributes for every finite x, an atom at +inf
        never does, so escaped mass shows up as a cdf pinned near 0 or 1.
        """
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for p in self.pieces:
            total = total + p.cdf_contrib(x)
        for a in self.atoms:
            if a.loc < math.inf:
                total = total + a.weight * (x >= a.loc)
        return _scalar_or_array(x, total)

    def atom_mass_at(self, x: float) -> float:
        return sum(a.weight for a in self.atoms if a.loc == x and math.isfinite(x))

    def cdf_left(self, x: float) -> float:
        """Left limit of the cdf at x."""
        return self.cdf(x) - self.atom_mass_at(x)

    def density_ac(self, x):
        """Density of the absolutely continuous part; atoms are not represented."""
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for p in self.pieces:
            total = total + p.density(x)
        return _scalar_or_array(x, total)

    def second_moment(self) -> float:
        out = 0.0
        for a in self.atoms:
            if math.isinf(a.loc):
                if a.weight > 0.0:
                    return math.inf
                continue
            out += a.weight * a.loc**2
        return out + sum(p.second_moment() for p in self.pieces)

    def rescaled(self, s: float) -> "MixtureDistribution":
        inv = _inverse_scale(s)
        return MixtureDistribution(
            atoms=tuple(Atom(a.loc * inv, a.weight) for a in self.atoms),
            pieces=tuple(p.rescaled(s) for p in self.pieces),
        )

    def breakpoints(self) -> list:
        """Finite interval endpoints and atom locations, sorted; quadrature panels."""
        pts = set()
        for p in self.pieces:
            pts.update(b for b in (p.lower, p.upper) if math.isfinite(b))
        pts.update(a.loc for a in self.atoms if math.isfinite(a.loc))
        return sorted(pts)

    def to_json(self) -> dict:
        return {
            "atoms": [{"loc": _real_to_json(a.loc), "weight": a.weight} for a in self.atoms],
            "pieces": [p.to_json() for p in self.pieces],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, obj) -> "MixtureDistribution":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            atoms=tuple(Atom(_real_from_json(a["loc"]), float(a["weight"])) for a in obj["atoms"]),
            pieces=tuple(GaussPiece.from_json(p) for p in obj["pieces"]),
        )


def _cut_points(point: ModelPoint, tuning: TuningPlan):
    s = point.sqrt_n
    loc = -s * point.theta
    se = s * tuning.eta
    return loc, se


def atom_weight(point: ModelPoint, tuning: TuningPlan) -> float:
    """P_{n,theta}(estimate == 0), identical for all three estimator kinds."""
    loc, se = _cut_points(point, tuning)
    return norm_cdf(loc + se) - norm_cdf(loc - se)


def _hard_mixture(loc: float, se: float) -> MixtureDistribution:
    w = norm_cdf(loc + se) - norm_cdf(loc - se)
    return MixtureDistribution(
        atoms=(Atom(loc, w),),
        pieces=(
            GaussPiece(1.0, 1.0, 0.0, -math.inf, loc - se),
            GaussPiece(1.0, 1.0, 0.0, loc + se, math.inf),
        ),
    )


def _soft_mixture(loc: float, se: float) -> MixtureDistribution:
    w = norm_cdf(loc + se) - norm_cdf(loc - se)
    return MixtureDistribution(
        atoms=(Atom(loc, w),),
        pieces=(
            GaussPiece(1.0, 1.0, -se, -math.inf, loc),
            GaussPiece(1.0, 1.0, se, loc, math.inf),
        ),
    )


def _scad_mixture(loc: float, se: float, a: float) -> MixtureDistribution:
    """Six pieces: soft-type next to the atom, blend pieces, normal tails.

    Intervals in x, from left to right:
      (-inf, loc - a*se]       normal tail,
      (loc - a*se, loc - se]   blend, slope (a-2)/(a-1),
      (loc - se, loc]          soft-type, shift -se,
      (loc, loc + se]          soft-type, shift +se,
      (loc + se, loc + a*se]   blend,
      (loc + a*se, inf)        normal tail.
    """
    w = norm_cdf(loc + se) - norm_cdf(loc - se)
    ratio = (a - 2.0) / (a - 1.0)
    b_lo = loc - a * se
    b_hi = loc + a * se
    return MixtureDistribution(
        atoms=(Atom(loc, w),),
        pieces=(
            GaussPiece(1.0, 1.0, 0.0, -math.inf, b_lo),
            GaussPiece(ratio, ratio, b_lo / (a - 1.0), b_lo, loc - se),
            GaussPiece(1.0, 1.0, -se, loc - se, loc),
            GaussPiece(1.0, 1.0, se, loc, loc + se),
            GaussPiece(ratio, ratio, b_hi / (a - 1.0), loc + se, b_hi),
            GaussPiece(1.0, 1.0, 0.0, b_hi, math.inf),
        ),
    )


def finite_sample_dist(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> MixtureDistribution:
    """Exact law of sqrt(n)*(estimate - theta) under P_{n,theta}."""
    loc, se = _cut_points(point, tuning)
    if kind is EstimatorKind.HARD:
        return _hard_mixture(loc, se)
    if kind is EstimatorKind.SOFT:
        return _soft_mixture(loc, se)
    if kind is EstimatorKind.SCAD:
        return _scad_mixture(loc, se, tuning.scad_a)
    raise ValueError(f"unknown estimator kind {kind!r}")


def rescaled_dist(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> MixtureDistribution:
    """Exact law of (estimate - theta)/eta: the sqrt(n) law scaled by 1/(sqrt(n)*eta)."""
    return finite_sample_dist(kind, point, tuning).rescaled(point.sqrt_n * tuning.eta)


def scaled_risk(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> float:
    """E[n*(estimate - theta)^2], i.e. the second moment of the sqrt(n) law."""
    return finite_sample_dist(kind, point, tuning).second_moment()
