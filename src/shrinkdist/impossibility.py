"""Why the estimators' cdf cannot be estimated uniformly well.

The obstruction is a two-point argument: the parameter pair
theta(+-delta) = -(t +- delta)/sqrt(n) produces experiments whose total
variation distance vanishes as delta -> 0 while the estimands
F_{n,theta(-delta)}(t) and F_{n,theta(delta)}(t) stay an atom's weight
apart.  Any estimator of F_{n,theta}(t) therefore carries worst-case error
probability at least (1 - TV)/2 -> 1/2 for every error margin below half
the atom weight.

This module computes the gap, the finite-sample lower bounds (on both the
sqrt(n) and the 1/eta scale), and Monte Carlo worst-case error curves for
concrete cdf estimators measured against those bounds.  The Monte Carlo
draws ybar only: each estimator, the m-out-of-n bootstrap included, is a
closed-form function of ybar, which takes the array rule of `_check_reals`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .estimators import EstimatorKind, TuningPlan, _check_kind, estimate
from .finite_dist import ModelPoint, _mapped_point, _zero_mass, finite_sample_dist
from .limits import _limit_law
from .montecarlo import _uniform_open
from .normal_kernel import _check_count, _check_real, _check_reals, _check_seed, gaussian_tv, norm_cdf
from .report import ExperimentReport
from .selection import RegimeSpec

__all__ = [
    "TwoPointProblem",
    "PretestPlugin",
    "MOutOfNBootstrap",
    "OracleCheat",
    "estimand_gap",
    "minimax_lower_bound",
    "rescaled_lower_bound",
    "estimator_worst_case",
]

_THETA_GRID_SIZE = 9  # uniform points of the adversarial grid, witnesses aside
_PRETEST_CUTOFF_EXPONENT = 0.25  # the pretest keeps theta = 0 while |ybar| <= n**-0.25


@dataclass(frozen=True)
class TwoPointProblem:
    """A cdf-estimation target F_{n,theta}(t) with its adversarial pair."""

    n: int
    t: float
    delta: float
    tuning: TuningPlan
    kind: EstimatorKind

    def __post_init__(self):
        _check_kind(self.kind)
        object.__setattr__(self, "n", _check_count(self.n))
        object.__setattr__(self, "t", _check_real(self.t, "t"))
        object.__setattr__(self, "delta", _check_real(self.delta, "delta", gt=0))

    def theta_pair(self, delta: Optional[float] = None):
        d = self.delta if delta is None else delta
        s = math.sqrt(self.n)
        return -(self.t + d) / s, -(self.t - d) / s


def estimand_gap(problem: TwoPointProblem, delta=None):
    """(gap, leading_term, remainder) for the two-point estimand difference.

    gap = F at theta(-delta) minus F at theta(+delta), both evaluated at t;
    the leading term is the atom weight of the theta(-delta) law, and the
    remainder (the absolutely continuous contribution) vanishes with delta.
    `delta` takes the array rule of `_check_reals`: a 1-d array gives one
    batch of laws per side, and the three parts are then arrays.
    """
    d = problem.delta if delta is None else _check_reals(delta, "delta")
    th_plus, th_minus = problem.theta_pair(d)
    f_minus = finite_sample_dist(problem.kind, ModelPoint(problem.n, th_minus), problem.tuning).cdf(problem.t)
    f_plus = finite_sample_dist(problem.kind, ModelPoint(problem.n, th_plus), problem.tuning).cdf(problem.t)
    gap = f_minus - f_plus
    se = math.sqrt(problem.n) * problem.tuning.eta
    leading = _zero_mass(problem.t - d, se)
    return gap, leading, gap - leading


def minimax_lower_bound(problem: TwoPointProblem, epsilon: Optional[float] = None, sweep_steps: int = 14):
    """(epsilon_range, bound): error margins that defeat every estimator.

    epsilon_range is half the limiting estimand gap.  For every epsilon below
    it the exact two-point bound is 1/2: (1 - TV)/2 = Phi(-delta) tends to 1/2
    as delta -> 0 and never attains it.  The returned bound is a lower
    estimate of that 1/2: the best value along the sweep delta/4**k,
    k < sweep_steps, over deltas whose gap still exceeds 2*epsilon (0 if none).
    """
    _check_count(sweep_steps, "sweep_steps")
    se = math.sqrt(problem.n) * problem.tuning.eta
    eps_range = 0.5 * _zero_mass(problem.t, se)
    eps = 0.9 * eps_range if epsilon is None else _check_real(epsilon, "epsilon", ge=0)
    deltas = problem.delta * 0.25 ** np.arange(sweep_steps)
    gap, _, _ = estimand_gap(problem, deltas)
    bounds = 0.5 * (1.0 - gaussian_tv(problem.n, *problem.theta_pair(deltas)))
    return eps_range, float(np.max(bounds, initial=0.0, where=eps < np.abs(gap) / 2.0))


def rescaled_lower_bound(kind: EstimatorKind, n: int, t: float, tuning: TuningPlan,
                         delta: float = 0.1, epsilon: Optional[float] = None):
    """Same bound for the cdf of (estimate - theta)/eta, by exact reduction.

    G_{n,theta}(t) = F_{n,theta}(sqrt(n)*eta*t), so the rescaled problem at
    t is the plain problem at s = sqrt(n)*eta*t; for |t| > 1 the range
    collapses and trivial estimators become uniformly consistent.
    """
    _check_kind(kind)
    s = math.sqrt(_check_count(n)) * tuning.eta * _check_real(t, "t")
    problem = TwoPointProblem(n=n, t=s, delta=delta, tuning=tuning, kind=kind)
    return minimax_lower_bound(problem, epsilon=epsilon)


class OracleCheat:
    """Diagnostic estimator that returns the true cdf value; harness soundness check."""

    name = "oracle-cheat"

    def estimate_cdf(self, ybar, ctx) -> np.ndarray:
        return np.full_like(_check_reals(ybar, "ybar"), ctx.true_value)


@functools.lru_cache(maxsize=8)
def _pretest_values(kind: EstimatorKind, e: float, a: float, t: float) -> tuple:
    """The limit cdfs at t for nu = zeta = 0, +inf and -inf: the pretest's accept, up and down values."""
    return tuple(_limit_law(kind, RegimeSpec(e, nu=v, zeta=v), a).cdf(t) for v in (0.0, math.inf, -math.inf))


@dataclass(frozen=True)
class PretestPlugin:
    """Plug the pretest outcome into the sqrt(n) limit laws of `limits`.

    Tests theta = 0 by |ybar| > n**(-cutoff_exponent), cutoff_exponent =
    _PRETEST_CUTOFF_EXPONENT; the accepted branch evaluates the limit law at
    nu = zeta = 0, the rejected branch the one at nu = zeta = sign(ybar)*inf.
    Consistent tuning takes e = inf; conservative tuning substitutes
    sqrt(n)*eta_n for its limit e.  The three values are computed once per (kind, e, a, t).
    """

    name = "pretest-plugin"
    consistent: bool = True

    def estimate_cdf(self, ybar, ctx) -> np.ndarray:
        y = _check_reals(ybar, "ybar")
        reject = np.abs(y) > float(ctx.n) ** (-_PRETEST_CUTOFF_EXPONENT)
        e = math.inf if self.consistent else math.sqrt(ctx.n) * ctx.tuning.eta
        accept, up, down = _pretest_values(ctx.kind, e, ctx.tuning.scad_a, ctx.t)
        return np.where(reject, np.where(y > 0, up, down), accept)


@dataclass(frozen=True)
class MOutOfNBootstrap:
    """Parametric m-out-of-n bootstrap on the sufficient statistic, exact (B = inf).

    The bootstrap resamples ybar* ~ N(ybar, 1/m) and recomputes the estimator at scale m with the tuning path
    evaluated at m; consistency requires m -> inf and m/n -> 0, and m = n recovers the ordinary (inconsistent)
    bootstrap.  The law of sqrt(m)*(estimate(ybar*) - ybar) is the finite-sample law F_{m,ybar} at
    loc = -sqrt(m)*ybar, se = sqrt(m)*eta_m, so the bootstrap cdf at t is exactly
    F_{m,ybar}(t - sqrt(m)*(ybar - theta_hat)): Phi of that law's mapped point, one normal-cdf call over all of
    ybar, with no law built and no resamples drawn.  `n_boot` is accepted but ignored.
    """

    name = "m-out-of-n-bootstrap"
    path: object  # anything with .eta(m)
    m_rule: Callable[[int], int] = field(default=lambda n: int(math.ceil(math.sqrt(n))))
    n_boot: int = 200  # resample count of a Monte Carlo bootstrap; unused by the exact one

    @np.errstate(over="ignore")  # where -sqrt(m)*ybar passes the float range, the atom sits at -+inf unwarned
    def estimate_cdf(self, ybar, ctx) -> np.ndarray:
        y = _check_reals(ybar, "ybar")
        m = _check_count(self.m_rule(ctx.n), "m")
        tuning_m = TuningPlan(self.path.eta(m), ctx.tuning.scad_a)
        s = math.sqrt(m)
        x = ctx.t - s * (y - estimate(ctx.kind, y, ctx.tuning))
        return norm_cdf(_mapped_point(ctx.kind, x, -s * y, s * tuning_m.eta, tuning_m.scad_a))


@dataclass
class _HarnessContext:
    kind: EstimatorKind
    n: int
    t: float
    tuning: TuningPlan
    true_value: float


def adversarial_theta_grid(n: int, t: float, c: float) -> np.ndarray:
    """Uniform grid over |theta| < c/sqrt(n) plus the two-point witnesses."""
    s = math.sqrt(n)
    width = c - abs(t)
    witnesses = [-(t + sign * frac * width) / s for frac in (0.5, 0.1, 0.02) for sign in (1.0, -1.0)]
    base = np.linspace(-0.95 * c / s, 0.95 * c / s, _THETA_GRID_SIZE)
    return np.asarray(sorted(set(np.concatenate([base, witnesses, [0.0]]))))


def estimator_worst_case(
    spec,
    kind: EstimatorKind,
    n: int,
    t: float,
    tuning: TuningPlan,
    c: float,
    seed: int,
    replications: int = 10_000,
) -> ExperimentReport:
    """Monte Carlo error-probability curve of a cdf estimator over a theta grid.

    For each theta in the grid (which always contains the two-point
    witnesses), estimates P_{n,theta}(|Fhat(t) - F_{n,theta}(t)| > eps) with
    eps = 0.9 * epsilon_range, the margin of the lower bound.  The report
    metadata records the grid supremum, the witness theta, and the
    theoretical lower bound.
    """
    kind, n, t = _check_kind(kind), _check_count(n), _check_real(t, "t")
    c = _check_real(c, "c", gt=abs(t))  # the neighborhood radius
    replications = _check_count(replications, "replications")
    seed = _check_seed(seed)
    problem = TwoPointProblem(n=n, t=t, delta=0.5 * (c - abs(t)), tuning=tuning, kind=kind)
    eps_range, bound = minimax_lower_bound(problem)
    eps = 0.9 * eps_range
    grid = adversarial_theta_grid(n, t, c)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(grid))
    report = ExperimentReport(
        columns=("theta", "err_prob"),
        meta={"estimator": spec.name, "kind": kind.value, "n": n, "t": t,
              "epsilon": eps, "epsilon_range": eps_range, "bound": bound},
    )
    truths = finite_sample_dist(kind, ModelPoint(n, grid), tuning).cdf(t)
    for child, theta, truth in zip(children, grid.tolist(), truths.tolist()):
        rng = np.random.Generator(np.random.Philox(child))
        ctx = _HarnessContext(kind=kind, n=n, t=t, tuning=tuning, true_value=truth)
        ybar = theta + ndtri(_uniform_open(rng, replications)) / math.sqrt(n)
        fhat = np.asarray(spec.estimate_cdf(ybar, ctx), dtype=float)
        report.append(theta, float(np.mean(np.abs(fhat - truth) > eps)))
    err_prob = report.column("err_prob")
    report.meta["sup"] = max(err_prob)
    report.meta["witness_theta"] = report.rows[np.argmax(err_prob)][0]  # argmax picks the first theta at the sup
    return report
