"""Seeded simulation of the location experiment and uniform-rate checks.

The sampler draws the sufficient statistic ybar ~ N(theta, 1/n) directly:
one uniform per replication through a counter-based (Philox) stream mapped
by the normal inverse cdf, so batches are reproducible and splittable
without shared state, and merged output does not depend on scheduling.

The sample path (draw, estimate, KS) runs in fixed blocks of `_BLOCK`
values, 128 KiB of float64, in place in one output array: each stage's
temporaries are one block long and stay in cache, where whole-array stages
made several full-length ones.  Every step is elementwise or a max, and a
stream gives the same integers drawn a block at a time as all at once, so
the blocks change no output bit.

Every estimator is exactly 0 when |ybar| <= eta, and most draws of many
configurations land there.  A uniform maps to ybar monotonically, so those
draws are the uniforms in one range, found from the normal cdf with a
margin far above the rounding of the draw and certified by running the
sampler at both its ends.  `simulate_estimates` writes the atom's value at
the uniforms in that range without calling `ndtri` or the estimate there;
the value is the one they would give, so no output bit moves.

The KS distance first bounds the gaps in each sub-block of `_SUB` values
from the model at the sub-block's two ends (arrays 1/`_SUB` of the
sample's length), then evaluates the model only at the run starts of
sub-blocks whose bound reaches the largest end gap.  Every skipped gap is
provably below one that is taken, so the distance keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan, _check_kind, estimate
from .finite_dist import MixtureDistribution, ModelPoint, finite_sample_dist
from .normal_kernel import _check_count, _check_real, _check_seed, _check_sizes, _no_nan, _one_of, norm_cdf
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

_BATCH = 1 << 19  # draws per spawned stream
_BLOCK = 1 << 14  # values per block of the sample path; divides _BATCH, so no block straddles two streams
_SUB = 1 << 6  # values per sub-block of the KS bound; divides _BLOCK
_SLACK = 1e-12  # margin of the KS bound over the cdf's rounding (about 1e-15); no known input makes it bind
_U_ONE = 1 << 53  # the uniforms are k/2^53 for the integers k in [1, 2^53)
_U_DENOM = float(_U_ONE)
_SKIP_MARGIN = 1e-7  # relative margin of the atom range over the rounding of the draw
_SKIP_MIN = 0.25  # share of a block's draws in the atom range below which gathering the rest costs more than it saves
_NO_ATOM = (1.0, 0.0, np.float64(0.0), np.float64(0.0))  # an empty range of uniforms


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    point: ModelPoint
    tuning: TuningPlan

    def __post_init__(self):
        object.__setattr__(self, "replications", _check_count(self.replications, "replications"))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step function through a sorted sample without NaN."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        # pairs a block (and one value) at a time, so no temporary is longer than a block; NaN compares false
        blocks = (v[lo:lo + _BLOCK + 1] for lo in range(0, v.size, _BLOCK))
        if not all((b[1:] >= b[:-1]).all() for b in blocks) or math.isnan(v[-1]):
            problem = "must not contain NaN" if np.isnan(v).any() else "must be sorted ascending"
            raise ValueError(f"values {problem}")
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def fraction_at(self, x: float) -> float:
        """Fraction of sample points exactly equal to x; NaN x raises ValueError."""
        x = _no_nan(x)
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return (hi - lo) / self.count


def _uniform_open(gen: np.random.Generator, size, out=None) -> np.ndarray:
    # integers in [1, 2^53) scaled down: strictly inside (0, 1); written into `out` when given
    return np.divide(gen.integers(1, _U_ONE, size=size), _U_DENOM, out=out)


def _uniform_blocks(cfg: SimConfig, out: np.ndarray):
    """Fill `out` with the seeded uniforms a block at a time, yielding each block once it is drawn.

    Each batch of `_BATCH` values has its own Philox stream, spawned from the
    seed; a stream gives the same integers a block at a time as all at once.
    """
    children = iter(np.random.SeedSequence(cfg.seed).spawn((out.size + _BATCH - 1) // _BATCH))
    for lo in range(0, out.size, _BLOCK):
        if lo % _BATCH == 0:
            gen = np.random.Generator(np.random.Philox(next(children)))
        block = out[lo:lo + _BLOCK]
        _uniform_open(gen, block.size, out=block)
        yield block


def _ybar(u: np.ndarray, point: ModelPoint) -> np.ndarray:
    """Overwrite the uniforms u with their draws of ybar: `ndtri`, then the scale 1/sqrt(n), then the shift theta."""
    ndtri(u, out=u)
    u *= 1.0 / point.sqrt_n
    u += point.theta
    return u


def _scaled_errors(kind: EstimatorKind, cfg: SimConfig, u: np.ndarray) -> np.ndarray:
    """Overwrite the uniforms u with sqrt(n)*(estimate - theta) at their draws of ybar."""
    np.subtract(estimate(kind, _ybar(u, cfg.point), cfg.tuning), cfg.point.theta, out=u)
    u *= cfg.point.sqrt_n
    return u


def _grid_index(z: float, up: bool) -> int:
    """The index k of the uniform k/2^53 next to Phi(z), at or above it when `up`, else at or below.

    Phi is taken from its smaller tail, Phi(z) or 1 - Phi(-z), so it keeps
    its relative precision near 1 as well as near 0; scaling by 2^53 is exact.
    """
    if z <= 0.0:
        p = norm_cdf(z) * _U_DENOM
        return math.ceil(p) if up else math.floor(p)
    q = norm_cdf(-z) * _U_DENOM
    return _U_ONE - (math.floor(q) if up else math.ceil(q))


def _atom_uniforms(kind: EstimatorKind, cfg: SimConfig):
    """(lo, hi, fill_lo, fill_hi): a certified range of uniforms whose draws land in the atom, and its values.

    Every estimate is 0 exactly when |ybar| <= eta, that is when the normal
    quantile z lies in sqrt(n)*(-eta - theta, eta - theta).  Those ends are
    pulled inward by `_SKIP_MARGIN`*(1 + sqrt(n)*|theta| + max|z|), far
    above the rounding of the ends, of `ndtri` (about 1e-16 relative), of
    1/sqrt(n) and of theta + z/sqrt(n), and mapped to the grid of uniforms
    rounded inward; the cdf of an end past 0 is taken as 1 - Phi(-z), so it
    keeps its precision near 1.  The sampler's own pipeline must then give
    an estimate of exactly 0 at the smallest and the largest uniform of the
    range.  If it does not, or the range is empty (a tiny sqrt(n)*eta), the
    result is `_NO_ATOM`, an empty range, and nothing is skipped.

    Inside the range the value is sqrt(n)*(+-0.0 - theta): one value unless
    theta is zero, where soft and scad give sign(ybar)*0.0, so -0.0 below
    u = 1/2 (ndtri(1/2) = +0.0) and +0.0 from it on.  The values at the two
    certified ends are those two values.
    """
    point, eta = cfg.point, cfg.tuning.eta
    z_lo, z_hi = point.sqrt_n * (-eta - point.theta), point.sqrt_n * (eta - point.theta)
    margin = _SKIP_MARGIN * (1.0 + point.sqrt_n * abs(point.theta) + max(abs(z_lo), abs(z_hi)))
    if not math.isfinite(margin):
        return _NO_ATOM
    k_lo, k_hi = max(_grid_index(z_lo + margin, True), 1), min(_grid_index(z_hi - margin, False), _U_ONE - 1)
    if k_lo > k_hi:
        return _NO_ATOM
    lo, hi = k_lo / _U_DENOM, k_hi / _U_DENOM
    est = estimate(kind, _ybar(np.array([lo, hi]), point), cfg.tuning)
    if (est != 0.0).any():
        return _NO_ATOM
    fill_lo, fill_hi = (est - point.theta) * point.sqrt_n
    return lo, hi, fill_lo, fill_hi


def sample_ybar(cfg: SimConfig) -> np.ndarray:
    """Deterministic stream of ybar draws, in batch order (unsorted).

    Each batch of `_BATCH` draws has its own Philox stream, spawned from the
    seed.  The output array is filled a block at a time: uniforms, then
    `ndtri`, the scale 1/sqrt(n) and the shift theta, all in place; the bits
    are those of drawing a whole batch at once.
    """
    out = np.empty(cfg.replications)
    for block in _uniform_blocks(cfg, out):
        _ybar(block, cfg.point)
    return out


def simulate_estimates(kind: EstimatorKind, cfg: SimConfig) -> EmpiricalCdf:
    """Empirical law of sqrt(n)*(estimate - theta) from seeded replications.

    The uniforms of `sample_ybar` are drawn a block at a time into the one
    output array.  Only the uniforms outside the certified atom range of
    `_atom_uniforms` go through `ndtri`, the scale, the shift and the
    estimate, gathered into one block-sized array and scattered back after
    the block is filled with the atom's value (at theta = 0, -0.0 below
    u = 1/2 for soft and scad).  A block with less than `_SKIP_MIN` of its
    draws in the range, where the gather would cost more than it saves,
    runs whole.  The array is then sorted in place, so it is the only
    full-length allocation.  Each value is that of the whole-array
    expression over `sample_ybar`, bit for bit: every step is elementwise,
    and inside the range that expression gives the atom's value.
    """
    vals = np.empty(cfg.replications)
    lo, hi, fill_lo, fill_hi = _atom_uniforms(kind, cfg)
    one_fill = fill_lo.tobytes() == fill_hi.tobytes()
    for block in _uniform_blocks(cfg, vals):
        outside = (block < lo) | (block > hi)
        if np.count_nonzero(outside) > (1.0 - _SKIP_MIN) * block.size:
            _scaled_errors(kind, cfg, block)
            continue
        off = np.flatnonzero(outside)
        u = _scaled_errors(kind, cfg, block[off])
        if one_fill:
            block.fill(fill_hi)
        else:
            block[...] = np.where(block < 0.5, fill_lo, fill_hi)
        block[off] = u
    vals.sort()
    return EmpiricalCdf(vals)


def ks_distance(emp: EmpiricalCdf, dist: MixtureDistribution) -> float:
    """Kolmogorov-Smirnov distance, atom-aware.

    Sup over the distinct sample values of both one-sided gaps: the model
    cdf and its left limit against the empirical step heights on either
    side.  The sample is sorted, so its distinct values and their counts are
    the runs of equal values, found without sorting again.

    The model is evaluated only where the sup can sit.  The sample is cut
    into sub-blocks of `_SUB` values, and each one that holds a run start
    gets one cdf value at its last value and one left limit at its first.
    Their gaps are terms of the distance, so their max is a lower bound on
    it.  The cdf is nondecreasing, so every gap at a value from `first` to
    `last` is at most max(F(last) - start/N, end/N - F_left(first)), where
    `start` counts the values below `first` and `end` those up to `last`.
    A sub-block whose bound plus `_SLACK` (the cdf's rounding is about
    1e-15) does not exceed the lower bound holds no gap above it, and its
    run starts are skipped.

    The live sub-blocks are then gathered `_BLOCK // _SUB` at a time, so
    no temporary outgrows a block: their run starts give one cdf call and
    its left limits, and each run ends where one `searchsorted` finds the
    next larger value.  A point's cdf value does not depend on the other
    points of its call, each gap is elementwise, and a skipped gap is at
    most one that is taken, so the distance is that of one whole-array pass
    over every run, bit for bit.
    """
    v, count = emp.values, emp.count
    end = np.append(np.arange(_SUB, count, _SUB), count)  # one past each sub-block
    # a sub-block holds a run start unless its last value is that of the sub-block before it
    opens = np.flatnonzero(np.concatenate(([True], v[end[1:] - 1] != v[end[:-1] - 1])))
    start, end = opens * _SUB, end[opens]
    first, last = v[start], v[end - 1]
    # start and end become the counts of values below first and up to last: only a run across an edge needs a search
    cross = v[np.maximum(start - 1, 0)] == first
    start[cross] = np.searchsorted(v, first[cross], side="left")
    cross = v[np.minimum(end, count - 1)] == last
    end[cross] = np.searchsorted(v, last[cross], side="right")
    model_last, model_first = dist.cdf(last), dist.cdf_left(first)
    gap = max(np.max(np.abs(model_last - end / count)), np.max(np.abs(model_first - start / count)))
    bound = np.maximum(model_last - start / count, end / count - model_first)
    live = opens[bound + _SLACK > gap]
    del start, end, first, last, model_last, model_first, bound  # freed so the gather's arrays do not add to theirs
    for i in range(0, live.size, _BLOCK // _SUB):  # a block's worth of live sub-blocks at a time
        pos = (live[i:i + _BLOCK // _SUB, None] * _SUB + np.arange(_SUB)).ravel()
        pos = pos[pos < count]
        starts = pos[(pos == 0) | (v[pos] != v[pos - 1])]
        uniq = v[starts]
        ends = np.searchsorted(v, uniq, side="right")
        model = dist.cdf(uniq)
        model_left = dist._left_limit(uniq, model)
        gap = max(gap, np.max(np.abs(model - ends / count)), np.max(np.abs(model_left - starts / count)))
    return float(gap)


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
    kind, n_list, M = _check_kind(kind), _check_sizes(n_list, "n_list"), _check_real(M, "M", gt=2)
    _one_of(scaling, ("a_n", "sqrt_n"), "scaling")
    bound = 2.0 * norm_cdf(-M / 2.0) + norm_cdf(-M / 2.0 + 1.0)
    report = ExperimentReport(
        columns=("n", "eta", "rate", "sup_prob", "worst_theta", "bound", "within_bound"),
        meta={"kind": kind.value, "M": M, "scaling": scaling},
    )
    for n in n_list:
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
