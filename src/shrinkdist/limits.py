"""Limit distributions of the thresholding estimators under moving parameters.

Each limit is a `MixtureDistribution` whose atoms may sit at +-math.inf;
`convergence_mode` reads off the atoms how the finite-sample laws reach it.
As in the source paper, each sqrt(n) limit that is not a point mass is the
finite-sample piece layout `finite_dist._pieces` at the limits of its knots
sqrt(n)*(c*eta - theta): under conservative tuning (finite e) for every nu,
and under consistent tuning (e = inf) at or past the selection boundary,
where the knots below zeta tend to -inf, those above to +inf and the one at
zeta to sign(zeta)*r.  Below the boundary, and for soft, the consistent law
is a point mass at -nu: there the mass escapes through a piece whose shift
diverges, which a layout of finite shifts cannot express.  Under 1/eta
scaling a consistent law is the point mass at -sign(zeta)*s(|zeta|), with
s(z) = z below 1 and 0 past it (hard), min(1, z) (soft) or min(1, z,
max(0, (a - z)/(a - 2))) (scad); hard at |zeta| = 1 has atoms -zeta and 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan, _check_kind
from .finite_dist import LAWS, Atom, MixtureDistribution, ModelPoint, _pieces, finite_sample_dist
from .normal_kernel import _check_real, _check_sizes, _one_of, norm_cdf
from .report import ExperimentReport
from .selection import PowerTuningPath, RegimeError, RegimeSpec, ThetaRule, derive_regime

__all__ = [
    "convergence_mode",
    "conservative_limit",
    "consistent_limit",
    "rescaled_limit",
    "weak_convergence_check",
    "ConvergenceScenario",
    "canonical_scenarios",
]

WEAK = "weak"
TOTAL_VARIATION = "total-variation"
MASS_ESCAPE = "mass-escape"
_GRID_POINTS = 57  # uniform points of a scenario's probe grid, before extra points and atom margins
_GRID_SPAN = {"sqrt_n": 8.0, "inv_eta": 3.0}  # half-width of that grid; every 1/eta limit lies in [-1, 1]


def convergence_mode(law: MixtureDistribution) -> str:
    """How the finite-sample laws reach the limit `law`, read off its atoms.

    Mass escapes if an atom sits at an infinity, whatever its weight.  A law
    without atoms is reached in total variation, and a finite atom only
    weakly: the finite-sample atom moves toward it.
    """
    if any(math.isinf(a.loc) for a in law.atoms):
        return MASS_ESCAPE
    return WEAK if law.atoms else TOTAL_VARIATION


def _pointmass(loc: float) -> MixtureDistribution:
    return MixtureDistribution(atoms=(Atom(loc, 1.0),), pieces=())


def _at_knots(kind: EstimatorKind, zeta: float, se: float, a: float, r=None, atoms=()) -> MixtureDistribution:
    """The atoms and the kind's `_pieces` at knots whose limits are -inf for c < zeta, +inf for c > zeta
    and sign(zeta)*r at c = zeta, less each piece whose two ends meet at an infinity."""
    knot = lambda c: math.copysign(1.0, zeta) * r if c == zeta else math.copysign(math.inf, c - zeta)
    return MixtureDistribution(atoms, tuple(p for p in _pieces(kind, knot, se, a) if p.lower < p.upper))


def conservative_limit(kind: EstimatorKind, nu, e: float, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the sqrt(n) law when sqrt(n)*eta_n -> e < inf and sqrt(n)*theta_n -> nu.

    With a finite nu and e > 0 it is the finite-sample law at n = 1, theta = nu, eta = e.  Otherwise
    every knot sits at -sign(nu)*inf (at -inf when e = 0), and one normal piece is left.
    """
    kind, scad_a = _check_kind(kind), _check_real(scad_a, "scad_a", gt=2)
    nu, e = _check_real(nu, "nu", limit=True), abs(_check_real(e, "e", ge=0))  # abs: an e of -0.0 is +0.0
    if math.isinf(nu) or e == 0.0:
        return _at_knots(kind, nu if e > 0.0 else math.inf, e, scad_a)
    return finite_sample_dist(kind, ModelPoint(1, nu), TuningPlan(e, scad_a))


def consistent_limit(kind: EstimatorKind, regime: RegimeSpec, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the sqrt(n) law when sqrt(n)*eta_n -> inf.

    Below the selection boundary all mass collapses onto (or escapes with) the atom at -nu.  At or past
    it the law is the kind's piece layout at the knots' limits: at the boundary the escape weight
    cdf(r) plus a one-sided truncated normal (hard) or a blend-plus-tail density (scad), and past it the
    standard normal.  At the boundary r = +inf is the limit from below and r = -inf the limit from
    above, for both kinds, so r reads +inf below the boundary and -inf past it.
    """
    kind, scad_a = _check_kind(kind), _check_real(scad_a, "scad_a", gt=2)
    if not regime.consistent:
        raise RegimeError("consistent limits require e = +inf")
    if kind is EstimatorKind.SOFT:
        return _pointmass(-regime.require_nu())
    zeta = regime.require_zeta()
    boundary = 1.0 if kind is EstimatorKind.HARD else scad_a
    r = regime.require_r() if abs(zeta) == boundary else math.copysign(math.inf, boundary - abs(zeta))
    if r == math.inf:
        return _pointmass(-regime.require_nu())
    atoms = (Atom(-math.copysign(math.inf, zeta), norm_cdf(r)),) if kind is EstimatorKind.HARD and r > -math.inf else ()
    return _at_knots(kind, zeta, regime.e, scad_a, r, atoms)


def rescaled_limit(kind: EstimatorKind, regime: RegimeSpec, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the 1/eta law: the point mass at -sign(zeta)*s(|zeta|), the shrinkage s(z) being z below 1, else
    0 (hard), min(1, z) (soft) or min(1, z, max(0, (a - z)/(a - 2))) (scad), not z less the estimate, which
    cancels near a; at |zeta| = 1 hard has the atom -zeta of weight cdf(r) and the atom 0 of the rest."""
    kind, scad_a = _check_kind(kind), _check_real(scad_a, "scad_a", gt=2)
    if not regime.consistent:
        raise RegimeError("rescaled limits require e = +inf")
    zf = regime.require_zeta()
    az = abs(zf)
    if kind is EstimatorKind.HARD and az == 1.0:
        w = norm_cdf(regime.require_r())
        return MixtureDistribution(atoms=(Atom(-zf, w), Atom(0.0, 1.0 - w)), pieces=())
    shrink = {EstimatorKind.HARD: az if az < 1.0 else 0.0, EstimatorKind.SOFT: min(1.0, az),
              EstimatorKind.SCAD: min(1.0, az, max(0.0, (scad_a - az) / (scad_a - 2.0)))}[kind]
    sgn = (zf > 0) - (zf < 0)  # an int; with "0.0 -", a zero zeta or a zero shrinkage puts the atom at +0.0
    return _pointmass(0.0 - sgn * shrink)


def _limit_law(kind: EstimatorKind, regime: RegimeSpec, scad_a: float, scaling: str = "sqrt_n") -> MixtureDistribution:
    """The limit law that the regime and the scaling name."""
    if scaling == "inv_eta":
        return rescaled_limit(kind, regime, scad_a)
    if regime.consistent:
        return consistent_limit(kind, regime, scad_a)
    return conservative_limit(kind, regime.require_nu(), regime.e, scad_a)


def weak_convergence_check(finite_law_seq, limit: MixtureDistribution, grid, n_probe) -> ExperimentReport:
    """Sup over the grid of |F_n - F_limit| for each probed n.

    The grid must keep a distance of at least 1e-6 from every finite atom of
    the limit (cdf discontinuity points).  For mass-escape limits the limit
    cdf is the constant the finite-sample cdfs drift to, so the same sup
    measures the escape.
    """
    n_probe = _check_sizes(n_probe, "n_probe")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must not be empty")
    for a in limit.atoms:
        if math.isfinite(a.loc) and np.min(np.abs(grid - a.loc)) < 1e-6:
            raise ValueError(f"grid point collides with limit atom at {a.loc}")
    limit_vals = limit.cdf(grid)
    report = ExperimentReport(columns=("n", "sup_gap"))
    for n in n_probe:
        fn = finite_law_seq(n)
        gap = float(np.max(np.abs(fn.cdf(grid) - limit_vals)))
        report.append(n, gap)
    return report


@dataclass(frozen=True)
class ConvergenceScenario:
    """One named moving-parameter regime wired to a canonical tuning family."""

    name: str
    kind: EstimatorKind
    path: PowerTuningPath
    rule: ThetaRule
    scaling: str = "sqrt_n"  # or "inv_eta"
    scad_a: float = DEFAULT_SCAD_A
    grid_margin: float = 0.25
    extra_grid: tuple = ()

    def __post_init__(self):
        _one_of(self.scaling, LAWS, "scaling")

    def regime(self) -> RegimeSpec:
        return derive_regime(self.path, self.rule)

    def limit(self) -> MixtureDistribution:
        return _limit_law(self.kind, self.regime(), self.scad_a, self.scaling)

    def finite_law(self, n: int) -> MixtureDistribution:
        eta_n = self.path.eta(n)
        point = ModelPoint(n, self.rule.theta(n, eta_n))
        return LAWS[self.scaling](self.kind, point, TuningPlan(eta_n, self.scad_a))

    def grid(self) -> np.ndarray:
        span = _GRID_SPAN[self.scaling]
        pts = np.linspace(-span, span, _GRID_POINTS)
        if self.extra_grid:
            pts = np.unique(np.concatenate([pts, np.asarray(self.extra_grid, dtype=float)]))
        for a in self.limit().atoms:
            if math.isfinite(a.loc):
                pts = pts[np.abs(pts - a.loc) >= self.grid_margin]
        return pts

    def check(self, n_probe) -> ExperimentReport:
        return weak_convergence_check(self.finite_law, self.limit(), self.grid(), n_probe)


def canonical_scenarios(scad_a: float = DEFAULT_SCAD_A) -> list:
    """Named scenarios spanning every limit-theorem case, one per branch."""
    scad_a = _check_real(scad_a, "scad_a", gt=2)
    conservative = lambda c: PowerTuningPath(c, 0.5)
    consistent = PowerTuningPath(1.0, 0.25)
    hard, soft, scad = EstimatorKind.HARD, EstimatorKind.SOFT, EstimatorKind.SCAD
    mk = ConvergenceScenario
    return [
        mk("hard-conservative-local", hard, conservative(1.96), ThetaRule.local(1.0, perturb=0.5)),
        # the soft cdf feels theta only through the atom's switch point, so a
        # probe must sit inside the small-n drift zone yet outside the large-n one
        mk("soft-conservative-local", soft, conservative(1.0), ThetaRule.local(1.0, perturb=0.5),
           grid_margin=0.03, extra_grid=(-1.05,)),
        mk("scad-conservative-local", scad, conservative(1.0), ThetaRule.local(1.0, perturb=0.5), scad_a=scad_a),
        mk("hard-consistent-subboundary", hard, consistent, ThetaRule.eta_multiple(0.5)),
        mk("hard-consistent-boundary", hard, consistent, ThetaRule.boundary(1.0, 0.5, perturb=0.5)),
        mk("hard-consistent-superboundary", hard, consistent, ThetaRule.eta_multiple(2.0)),
        mk("soft-consistent-local", soft, consistent, ThetaRule.local(2.0)),
        mk("scad-consistent-local", scad, consistent, ThetaRule.local(1.0), scad_a=scad_a),
        mk("scad-consistent-boundary", scad, consistent, ThetaRule.boundary(scad_a, 1.0, perturb=0.5), scad_a=scad_a),
        mk("scad-consistent-superboundary", scad, consistent, ThetaRule.eta_multiple(5.0), scad_a=scad_a),
        mk("hard-rescaled-subboundary", hard, consistent, ThetaRule.eta_multiple(0.5), scaling="inv_eta"),
        mk("hard-rescaled-boundary", hard, consistent, ThetaRule.boundary(1.0, 0.0, perturb=0.5), scaling="inv_eta"),
        mk("soft-rescaled-saturated", soft, consistent, ThetaRule.eta_multiple(3.0), scaling="inv_eta"),
        mk("scad-rescaled-blend", scad, consistent, ThetaRule.eta_multiple(3.0), scaling="inv_eta", scad_a=scad_a),
        mk("scad-rescaled-identity", scad, consistent, ThetaRule.eta_multiple(4.0), scaling="inv_eta", scad_a=scad_a),
    ]
