"""Seeded simulation of the location experiment and uniform-rate checks.

The sampler draws the sufficient statistic ybar ~ N(theta, 1/n) directly:
one uniform per replication through a counter-based (Philox) stream mapped
by the normal inverse cdf, so batches are reproducible and splittable
without shared state, and merged output does not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan, estimate
from .finite_dist import MixtureDistribution, ModelPoint, finite_sample_dist
from .normal_kernel import _check_count, _no_nan, _scalar_or_array, norm_cdf
from .report import ExperimentReport

__all__ = [
    "SimConfig",
    "EmpiricalCdf",
    "sample_ybar",
    "simulate_estimates",
    "ks_distance",
    "uniform_rate_experiment",
    "default_adversarial_grid",
]

_BATCH = 1 << 19
_U_DENOM = float(1 << 53)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    point: ModelPoint
    tuning: TuningPlan

    def __post_init__(self):
        object.__setattr__(self, "replications", _check_count(self.replications, "replications"))
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step function through a sorted sample without NaN."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not (v[1:] >= v[:-1]).all() or math.isnan(v[-1]):  # NaN compares false
            problem = "must not contain NaN" if np.isnan(v).any() else "must be sorted ascending"
            raise ValueError(f"values {problem}")
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def evaluate(self, x):
        """Fraction of sample points <= x; NaN x raises ValueError."""
        x = _no_nan(x)
        return _scalar_or_array(x, np.searchsorted(self.values, x, side="right") / self.count)

    def fraction_at(self, x: float) -> float:
        """Fraction of sample points exactly equal to x; NaN x raises ValueError."""
        x = _no_nan(x)
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return (hi - lo) / self.count


def _uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    # integers in [1, 2^53) scaled down: strictly inside (0, 1)
    return gen.integers(1, 1 << 53, size=size).astype(np.float64) / _U_DENOM


def sample_ybar(cfg: SimConfig) -> np.ndarray:
    """Deterministic stream of ybar draws, in batch order (unsorted)."""
    root = np.random.SeedSequence(int(cfg.seed))
    n_batches = (cfg.replications + _BATCH - 1) // _BATCH
    children = root.spawn(n_batches)
    scale = 1.0 / cfg.point.sqrt_n
    chunks = []
    remaining = cfg.replications
    for child in children:
        gen = np.random.Generator(np.random.Philox(child))
        size = min(_BATCH, remaining)
        z = ndtri(_uniform_open(gen, size))
        chunks.append(cfg.point.theta + scale * z)
        remaining -= size
    return np.concatenate(chunks)


def simulate_estimates(kind: EstimatorKind, cfg: SimConfig) -> EmpiricalCdf:
    """Empirical law of sqrt(n)*(estimate - theta) from seeded replications."""
    ybar = sample_ybar(cfg)
    vals = cfg.point.sqrt_n * (estimate(kind, ybar, cfg.tuning) - cfg.point.theta)
    return EmpiricalCdf(np.sort(vals))


def ks_distance(emp: EmpiricalCdf, dist: MixtureDistribution) -> float:
    """Kolmogorov-Smirnov distance, atom-aware.

    Sup over the distinct sample values of both one-sided gaps: the model
    cdf and its left limit against the empirical step heights on either
    side.  The sample is sorted, so its distinct values and their counts are
    the runs of equal values, found without sorting again; the model is
    evaluated once, at the run starts.
    """
    v = emp.values
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    ends = np.append(starts[1:], v.size)
    uniq = v[starts]
    model = dist.cdf(uniq)
    model_left = dist._left_limit(uniq, model)
    return float(max(np.max(np.abs(model - ends / emp.count)), np.max(np.abs(model_left - starts / emp.count))))


def default_adversarial_grid(n: int, eta_n: float, M: float, a_n: float) -> np.ndarray:
    """Theta values where the uniform-rate bound is tightest.

    Always contains +-eta_n, +-eta_n*(1 +- 0.01), +-M/(2*a_n), zero, and a
    few bracketing points.
    """
    base = [
        0.0,
        eta_n,
        eta_n * 1.01,
        eta_n * 0.99,
        M / (2.0 * a_n),
        M / a_n,
        2.0 * M / a_n,
        0.5 * eta_n,
        10.0,
    ]
    grid = sorted({t for v in base for t in (v, -v)})
    return np.asarray(grid)


def uniform_rate_experiment(
    kind: EstimatorKind,
    path,
    M: float,
    n_list,
    theta_grid_rule=default_adversarial_grid,
    scaling: str = "a_n",
    scad_a: float = DEFAULT_SCAD_A,
) -> ExperimentReport:
    """Worst-case exceedance of the scaled estimation error over a theta grid.

    With the native rate a_n = min(sqrt(n), 1/eta_n), the sup is compared
    against the bound 2*cdf(-M/2) + cdf(-M/2 + 1), valid for M > 2.  With
    scaling='sqrt_n' the same sup is checked against the same bound; under
    consistent tuning it tends to one and breaks the bound, which is the
    rate-sharpness counterexample.  Per n, the whole theta grid is one batch
    of laws.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must not be empty")
    if not M > 2.0:
        raise ValueError("the exceedance bound requires M > 2")
    if scaling not in ("a_n", "sqrt_n"):
        raise ValueError(f"unknown scaling {scaling!r}; expected 'a_n' or 'sqrt_n'")
    bound = 2.0 * norm_cdf(-M / 2.0) + norm_cdf(-M / 2.0 + 1.0)
    report = ExperimentReport(
        columns=("n", "eta", "rate", "sup_prob", "worst_theta", "bound", "within_bound"),
        meta={"kind": kind.value, "M": M, "scaling": scaling},
    )
    for n in n_list:
        n = int(n)
        eta_n = path.eta(n)
        a_n = min(math.sqrt(n), 1.0 / eta_n)
        rate = a_n if scaling == "a_n" else math.sqrt(n)
        cut = M * math.sqrt(n) / rate
        tuning = TuningPlan(eta_n, scad_a)
        grid = np.asarray(theta_grid_rule(n, eta_n, M, a_n), dtype=float)
        laws = finite_sample_dist(kind, ModelPoint(n, grid), tuning)
        probs = 1.0 - (laws.cdf(cut) - laws.cdf_left(-cut))
        worst = int(np.argmax(probs))
        sup_prob = float(probs[worst])
        report.append(n, eta_n, rate, sup_prob, float(grid[worst]), bound, sup_prob <= bound)
    return report
