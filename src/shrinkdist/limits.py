"""Limit distributions of the thresholding estimators under moving parameters.

Three families of limits, each a `MixtureDistribution` whose atoms may sit
at +-math.inf; `convergence_mode` reads off the atoms how the finite-sample
laws reach it:

* conservative tuning (finite e): the finite-sample law itself with
  sqrt(n)*eta -> e and sqrt(n)*theta -> nu, built by the finite-sample
  constructor at loc = -nu, se = e (atom at -nu plus excised / shifted /
  blended normal pieces);
* consistent tuning (e = inf), sqrt(n) scaling: point masses, truncated
  normals at the selection boundary, or a standard normal, with mass
  escaping to an infinity in the degenerate directions;
* consistent tuning, 1/eta scaling: purely atomic laws with at most two
  atoms, all located inside [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan
from .finite_dist import LAWS, Atom, GaussPiece, MixtureDistribution, ModelPoint, _mixture
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


def _normal(mu: float = 0.0) -> MixtureDistribution:
    """N(mu, 1); 0.0 - mu keeps the shift of N(0, 1) at +0.0."""
    return MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0 - mu, -math.inf, math.inf),))


def _pointmass(loc: float) -> MixtureDistribution:
    return MixtureDistribution(atoms=(Atom(loc, 1.0),), pieces=())


def conservative_limit(kind: EstimatorKind, nu, e: float, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the sqrt(n) law when sqrt(n)*eta_n -> e < inf and sqrt(n)*theta_n -> nu."""
    scad_a = _check_real(scad_a, "scad_a", gt=2)
    nu, e = _check_real(nu, "nu", limit=True), _check_real(e, "e", ge=0)
    if math.isinf(nu) or e == 0.0:
        return _normal(-math.copysign(e, nu) if kind is EstimatorKind.SOFT and e > 0.0 else 0.0)
    return _mixture(kind, -nu, e, scad_a)


def _hard_boundary_law(zeta_positive: bool, r: float) -> MixtureDistribution:
    """Weight cdf(r) escaping to -sign(zeta)*inf plus the normal density past the cut at sign(zeta)*r."""
    escape, lower, upper = (-math.inf, r, math.inf) if zeta_positive else (math.inf, -math.inf, -r)
    return MixtureDistribution(atoms=(Atom(escape, norm_cdf(r)),), pieces=(GaussPiece(1.0, 0.0, lower, upper),))


def _scad_boundary_law(zeta_positive: bool, rf: float, a: float) -> MixtureDistribution:
    """Blend-plus-tail law at |zeta| = a; total mass one, no atom."""
    ratio = (a - 2.0) / (a - 1.0)
    if zeta_positive:
        pieces = (
            GaussPiece(ratio, rf / (a - 1.0), -math.inf, rf),
            GaussPiece(1.0, 0.0, rf, math.inf),
        )
    else:
        pieces = (
            GaussPiece(1.0, 0.0, -math.inf, -rf),
            GaussPiece(ratio, -rf / (a - 1.0), -rf, math.inf),
        )
    return MixtureDistribution(atoms=(), pieces=pieces)


def consistent_limit(kind: EstimatorKind, regime: RegimeSpec, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the sqrt(n) law when sqrt(n)*eta_n -> inf.

    Below the selection boundary all mass collapses onto (or escapes with)
    the atom at -nu; exactly at the boundary the escape weight is
    cdf(r) and the remainder is a one-sided truncated normal (hard) or a
    blend-plus-tail density (scad); above the boundary the standard normal
    reappears.  At the boundary r = +inf is the limit from below and
    r = -inf the limit from above, for both kinds.
    """
    scad_a = _check_real(scad_a, "scad_a", gt=2)
    if not regime.consistent:
        raise RegimeError("consistent limits require e = +inf")
    if kind is EstimatorKind.SOFT:
        return _pointmass(-regime.require_nu())
    zeta = regime.require_zeta()
    az = abs(zeta)
    boundary = 1.0 if kind is EstimatorKind.HARD else scad_a
    r = regime.require_r() if az == boundary else None
    if az < boundary or r == math.inf:
        return _pointmass(-regime.require_nu())
    if az > boundary or r == -math.inf:
        return _normal()
    if kind is EstimatorKind.HARD:
        return _hard_boundary_law(zeta > 0, r)
    return _scad_boundary_law(zeta > 0, r, scad_a)


def rescaled_limit(kind: EstimatorKind, regime: RegimeSpec, scad_a: float = DEFAULT_SCAD_A) -> MixtureDistribution:
    """Limit of the 1/eta law: at most two atoms, all inside [-1, 1]."""
    scad_a = _check_real(scad_a, "scad_a", gt=2)
    if not regime.consistent:
        raise RegimeError("rescaled limits require e = +inf")
    zf = regime.require_zeta()
    az = abs(zf)
    sgn = (zf > 0) - (zf < 0)  # an int, so a zero zeta clips to +0.0
    clipped = -sgn * min(1.0, az)
    if kind is EstimatorKind.SOFT:
        return _pointmass(clipped)
    if kind is EstimatorKind.HARD:
        if az < 1.0:
            return _pointmass(-zf)
        if az > 1.0:
            return _pointmass(0.0)
        w = norm_cdf(regime.require_r())
        return MixtureDistribution(atoms=(Atom(-zf, w), Atom(0.0, 1.0 - w)), pieces=())
    if kind is EstimatorKind.SCAD:
        if az <= 2.0:
            return _pointmass(clipped)
        if az < scad_a:
            return _pointmass(-sgn * (scad_a - az) / (scad_a - 2.0))
        return _pointmass(0.0)
    raise ValueError(f"unknown estimator kind {kind!r}")


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
