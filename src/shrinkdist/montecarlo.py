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
sampler at both its ends.  The draws in the range get the atom's value
without `ndtri` or the estimate.  The map from a uniform to the scaled
error is nondecreasing but for ulp steps of `ndtri`, so `simulate_estimates`
packs the uniforms outside the range into one region, sorts it once, splits
it at the range's lower end and keeps them as they are: the sample, an
`EmpiricalCdf` like one built from values, flags them and maps a value the
first time it is read, and the KS distance and the atom count read only the
sub-block edges and a few sub-blocks.  On the draws of acceptance
criterion 02 that maps about 5% of the draws outside the range, where the
whole map took them all.  That the mapped sample is sorted is certified
once it is made: two uniforms at least `_CLOSE` = 2^-30 apart have
quantiles at least 2.3e-9 apart, over 10^6 times `ndtri`'s largest step
down, so only the pairs closer than that (about 930 among 10^6 uniforms
spread over (0, 1)) and the two joins with the atom are read and compared.

The KS distance first bounds the gaps in each sub-block of `_SUB` values
from the model at the sub-block's two ends (arrays 1/`_SUB` of the
sample's length), reading each edge value once, then evaluates the model
only at the run starts of sub-blocks whose bound reaches the largest end
gap; a run ends at the next run start or at its sub-block's end, known from
the first pass, so this pass makes no search.  Every skipped gap is
provably below one that is taken, so the distance keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan, _check_kind, estimate
from .finite_dist import MixtureDistribution, ModelPoint, _cut_points, finite_sample_dist
from .normal_kernel import (_check_count, _check_real, _check_seed, _check_sizes, _no_nan, _one_of, _scalar_or_array,
                            norm_cdf)
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
_U_STEP = 2.0**-53  # the grid step of the uniforms: scaling by a power of two is exact
_SKIP_MARGIN = 1e-7  # relative margin of the atom range over the rounding of the draw
_NO_ATOM = (1.0, 1.0, np.float64(0.0), np.float64(0.0))  # an empty range: every uniform lies below 1
_CLOSE = 2.0**-30  # neighbouring uniforms at least this far apart map in order (see `_certified`)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    point: ModelPoint
    tuning: TuningPlan

    def __post_init__(self):
        object.__setattr__(self, "replications", _check_count(self.replications, "replications"))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        for name, form in (("point", ModelPoint), ("tuning", TuningPlan)):
            if not isinstance(getattr(self, name), form):
                raise ValueError(f"{name} must be a {form.__name__} (got {getattr(self, name)!r})")
        if isinstance(self.point.theta, tuple):  # each draw of a simulation is at the one theta
            raise ValueError("a simulation takes a point of one theta, not a batch of points")


class EmpiricalCdf:
    """Right-continuous step function through a sorted sample without NaN.

    A simulated sample maps its draws from their uniforms only where they are
    read.  Its array holds the uniforms outside the atom range, sorted as one
    region and split at the range's lower end, at its two ends, [0, front)
    and [back, count), and the atom's values between them; `_certified`
    shows that the mapped sample is sorted.  One flag per
    value marks the uniforms not yet mapped, and a value is mapped in place,
    once, the first time it is read: `_searchsorted` reads the sub-block
    lasts to narrow a search to one sub-block, then that sub-block.  The map
    is elementwise, so every value is that of mapping the whole array.  A
    sample built from values is checked here and holds no uniform (front = 0,
    back = count): no value is flagged.
    """

    def __init__(self, values, _sim=None):
        v = np.asarray(values, dtype=float)
        if _sim is None:
            if v.ndim != 1 or v.size == 0:
                raise ValueError("values must be a nonempty 1-d array")
            # pairs a block (and one value) at a time, so no temporary is longer than a block; NaN compares false
            blocks = (v[lo:lo + _BLOCK + 1] for lo in range(0, v.size, _BLOCK))
            if not all((b[1:] >= b[:-1]).all() for b in blocks) or math.isnan(v[-1]):
                problem = "must not contain NaN" if np.isnan(v).any() else "must be sorted ascending"
                raise ValueError(f"values {problem}")
            _sim = (None, None, 0, v.size)
        kind, cfg, front, back = _sim  # `simulate_estimates`' estimator, config and ends of the uniforms
        self._v, self._kind, self._cfg = v, kind, cfg
        self._raw = np.ones(v.size, dtype=bool)  # the values still held as their uniforms
        self._raw[front:back] = False

    @property
    def values(self) -> np.ndarray:
        """The sorted sample; the first read maps every draw still held as its uniform, in place."""
        for lo in range(0, self.count, _BLOCK):  # a block of flags at a time, so no index array is full-length
            self._map(np.flatnonzero(self._raw[lo:lo + _BLOCK]) + lo)
        return self._v

    @property
    def count(self) -> int:
        return int(self._v.size)

    def fraction_at(self, x: float) -> float:
        """Fraction of sample points exactly equal to x; NaN x raises ValueError."""
        x = _no_nan(x)
        return _scalar_or_array(x, (self._searchsorted(x, "right") - self._searchsorted(x, "left")) / self.count)

    def _at(self, idx: np.ndarray) -> np.ndarray:
        """The sample's values at the indices idx."""
        self._map(idx)
        return self._v[idx]

    def _searchsorted(self, x, side: str):
        """`np.searchsorted` of x in the sample."""
        # the lasts of the whole sub-blocks, mapped and then searched in place, find each answer's sub-block;
        # past them it is the short sub-block after them, if any, and past its values the count appended
        count = self.count
        self._map(np.flatnonzero(self._raw[_SUB - 1::_SUB]) * _SUB + _SUB - 1)
        hit = np.zeros(count // _SUB + 1, dtype=bool)
        hit[np.searchsorted(self._v[_SUB - 1::_SUB], x, side=side)] = True
        pos = (np.flatnonzero(hit)[:, None] * _SUB + np.arange(_SUB)).ravel()
        pos = pos[pos < count]
        return np.append(pos, count)[np.searchsorted(self._at(pos), x, side=side)]

    def _map(self, idx: np.ndarray) -> None:
        """Map the flagged values at the indices idx to sqrt(n)*(estimate - theta) at their draws of ybar, in
        place, a block's worth of indices at a time, and clear their flags.  idx may come in any order; an index
        repeated in one block is mapped once per repeat in the gathered copy, to the same value."""
        for pos in (idx[lo:lo + _BLOCK] for lo in range(0, idx.size, _BLOCK)):
            pos = pos[self._raw[pos]]
            self._raw[pos] = False
            if pos.size:  # no call where nothing is flagged, as in a sample built from values
                est = estimate(self._kind, _ybar(self._v[pos], self._cfg.point), self._cfg.tuning)
                self._v[pos] = (est - self._cfg.point.theta) * self._cfg.point.sqrt_n


def _uniform_open(gen: np.random.Generator, size, out=None) -> np.ndarray:
    # integers in [1, 2^53) scaled down: strictly inside (0, 1); written into `out` when given
    return np.multiply(gen.integers(1, _U_ONE, size=size), _U_STEP, out=out)


def _uniform_blocks(cfg: SimConfig):
    """Yield (start, block): the seeded uniforms a block at a time, each drawn into one reused block-sized array.

    Each batch of `_BATCH` values has its own Philox stream, spawned from the
    seed; a stream gives the same integers a block at a time as all at once.
    """
    count = cfg.replications
    scratch = np.empty(min(_BLOCK, count))
    children = iter(np.random.SeedSequence(cfg.seed).spawn((count + _BATCH - 1) // _BATCH))
    for lo in range(0, count, _BLOCK):
        if lo % _BATCH == 0:
            gen = np.random.Generator(np.random.Philox(next(children)))
        size = min(_BLOCK, count - lo)
        yield lo, _uniform_open(gen, size, out=scratch[:size])


def _ybar(u: np.ndarray, point: ModelPoint) -> np.ndarray:
    """Overwrite the uniforms u with their draws of ybar: `ndtri`, then the scale 1/sqrt(n), then the shift theta."""
    ndtri(u, out=u)
    u *= 1.0 / point.sqrt_n
    u += point.theta
    return u


def _grid_index(z: float, up: bool) -> int:
    """The index k of the uniform k/2^53 next to Phi(z), at or above it when `up`, else at or below.

    Phi is taken from its smaller tail, Phi(z) or 1 - Phi(-z), so it keeps
    its relative precision near 1 as well as near 0; scaling by 2^53 is exact.
    """
    if z <= 0.0:
        p = norm_cdf(z) / _U_STEP
        return math.ceil(p) if up else math.floor(p)
    q = norm_cdf(-z) / _U_STEP
    return _U_ONE - (math.floor(q) if up else math.ceil(q))


def _atom_uniforms(kind: EstimatorKind, cfg: SimConfig):
    """(lo, hi, fill_lo, fill_hi): a certified range of uniforms whose draws land in the atom, and its values.

    Every estimate is 0 exactly when |ybar| <= eta, that is when the normal
    quantile z lies in (loc - se, loc + se), with the law's `_cut_points`.
    Those ends are pulled inward by `_SKIP_MARGIN`*(1 + |loc| + max|z|), far
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
    loc, se = _cut_points(cfg.point, cfg.tuning)
    z_lo, z_hi = loc - se, loc + se
    margin = _SKIP_MARGIN * (1.0 + abs(loc) + max(abs(z_lo), abs(z_hi)))
    if not math.isfinite(margin):
        return _NO_ATOM
    k_lo, k_hi = max(_grid_index(z_lo + margin, True), 1), min(_grid_index(z_hi - margin, False), _U_ONE - 1)
    if k_lo > k_hi:
        return _NO_ATOM
    lo, hi = k_lo * _U_STEP, k_hi * _U_STEP
    est = estimate(kind, _ybar(np.array([lo, hi]), cfg.point), cfg.tuning)
    if (est != 0.0).any():
        return _NO_ATOM
    fill_lo, fill_hi = (est - cfg.point.theta) * cfg.point.sqrt_n
    return lo, hi, fill_lo, fill_hi


def sample_ybar(cfg: SimConfig) -> np.ndarray:
    """Deterministic stream of ybar draws, in batch order (unsorted).

    The uniforms of `_uniform_blocks` go through `ndtri`, the scale 1/sqrt(n)
    and the shift theta a block at a time; the bits are those of drawing a
    whole batch at once.
    """
    out = np.empty(cfg.replications)
    for lo, block in _uniform_blocks(cfg):
        out[lo:lo + block.size] = _ybar(block, cfg.point)
    return out


def _certified(emp: EmpiricalCdf, front: int, back: int) -> bool:
    """Whether `simulate_estimates`' sample, its uniforms at [0, front) and [back, count), is sorted once mapped.

    The map is nondecreasing but for `ndtri`, whose computed value can step
    down by a few ulps (8.9e-16 at most among 4*10**6 neighbouring grid
    points at each of its branch switches).  The quantile grows by at least
    sqrt(2*pi)*(u2 - u1) between u1 < u2, 2.3e-9 for a gap of `_CLOSE`, so a
    pair that far apart could step down only if `ndtri` were off by about
    1e-9.  Each pair of neighbouring uniforms closer than that, found a block
    at a time among the uniforms not yet mapped, and the two joins with the
    atom are read through `_at`, which maps them in place, and compared.
    """
    count, vals = emp.count, emp._v
    left = [np.array([i for i in {front - 1, back - 1} if 0 <= i < count - 1], dtype=int)]  # the joins
    for lo, hi in ((0, front), (back, count)):
        for s in range(lo, hi - 1, _BLOCK):
            u = vals[s:min(s + _BLOCK + 1, hi)]
            left.append(np.flatnonzero(u[1:] - u[:-1] < _CLOSE) + s)
    i = np.concatenate(left)
    return bool((emp._at(i) <= emp._at(i + 1)).all())


def simulate_estimates(kind: EstimatorKind, cfg: SimConfig) -> EmpiricalCdf:
    """Empirical law of sqrt(n)*(estimate - theta) from seeded replications.

    The uniforms of `sample_ybar` are drawn a block at a time; those outside
    the certified atom range of `_atom_uniforms` are packed, with one mask
    per block, at the front of the one output array, and the atom's draws
    are only counted (at theta = +0.0, soft and scad give -0.0 below
    u = 1/2).  That region is sorted once in place and split at the range's
    lower end with one `searchsorted`: every uniform below the range sorts
    before every one above it.  The upper part moves to the back a block at
    a time from its end, so no temporary is full-length, and the middle gets
    the atom's value, -0.0 first.  The array and its ends go to
    `EmpiricalCdf`, which maps each draw when it is first read.  The map is
    nondecreasing but for an ulp step of `ndtri`, so where `_certified`
    shows the mapped sample sorted, it is returned.  Otherwise every draw is
    mapped, `EmpiricalCdf` checks the order of the values, and where it fails
    the array is sorted again, its zeros by sign.  Each value is that of the
    whole-array expression over `sample_ybar`, bit for bit.
    """
    vals = np.empty(cfg.replications)
    lo, hi, fill_lo, fill_hi = _atom_uniforms(kind, cfg)
    signed = fill_lo.tobytes() != fill_hi.tobytes()  # then lo < 1/2 <= hi
    outside = half = 0
    for _, block in _uniform_blocks(cfg):
        keep = (block < lo) | (block > hi)
        size = np.count_nonzero(keep)
        np.compress(keep, block, out=vals[outside:outside + size])
        half += np.count_nonzero(block < 0.5) if signed else 0
        outside += size
    vals[:outside].sort()
    # the upper part moves from its end, a block at a time: each copy's source is read before it is overwritten
    front, atom = int(np.searchsorted(vals[:outside], lo)), vals.size - outside
    for end in range(outside, front, -_BLOCK):
        start = max(end - _BLOCK, front)
        vals[start + atom:end + atom] = vals[start:end]
    back = front + atom
    negative = half - front if signed else 0  # the atom's draws below u = 1/2
    vals[front:front + negative] = fill_lo
    vals[front + negative:back] = fill_hi
    emp = EmpiricalCdf(vals, _sim=(kind, cfg, front, back))
    if _certified(emp, front, back):
        return emp
    vals = emp.values
    try:
        return EmpiricalCdf(vals)
    except ValueError:  # out of order by an ulp of ndtri (a NaN fails the second check too)
        vals.sort()  # then the zeros in sign order: -0.0 is the least int64, +0.0 is 0
        vals[np.searchsorted(vals, 0.0, "left"):np.searchsorted(vals, 0.0, "right")].view(np.int64).sort()
        return EmpiricalCdf(vals)


def ks_distance(emp: EmpiricalCdf, dist: MixtureDistribution) -> float:
    """Kolmogorov-Smirnov distance, atom-aware.

    Sup over the distinct sample values of both one-sided gaps: the model
    cdf and its left limit against the empirical step heights on either
    side.  The sample is sorted, so its distinct values and their counts are
    the runs of equal values, found without sorting again.  It reads the
    sample only through `_at` and `_searchsorted`, so a simulated sample
    maps only the draws read.

    The model is evaluated only where the sup can sit.  The sample is cut
    into sub-blocks of `_SUB` values, and each one that holds a run start
    gets one cdf value at its last value and one left limit at its first.
    Only a run across an edge needs a search for its count, and the edge
    values are read once: the value before an opening sub-block is the last
    of the one before it, and the value after it is the first of the next,
    which is this last value unless the next sub-block opens.  Their gaps
    are terms of the distance, so their max is a lower bound on it.  The cdf
    is nondecreasing, so every gap at a value from `first` to `last` is at
    most max(F(last) - start/N, end/N - F_left(first)), where `start` counts
    the values below `first` and `end` those up to `last`.  A sub-block
    whose bound plus `_SLACK` (the cdf's rounding is about 1e-15) does not
    exceed the lower bound holds no gap above it, and its run starts are
    skipped.

    The live sub-blocks are then gathered `_BLOCK // _SUB` at a time, so
    no temporary outgrows a block, and each live value is read once: their
    run starts give one cdf call and its left limits, and each run ends at
    the next run start in its sub-block, or, for a sub-block's last run, at
    the count the first pass found, with no search.  A point's cdf value
    does not depend on the other points of its call, each gap is
    elementwise, and a skipped gap is at most one that is taken, so the
    distance is that of one whole-array pass over every run, bit for bit.
    """
    dist._single_law("ks_distance")
    at, count = emp._at, emp.count
    end = np.append(np.arange(_SUB, count, _SUB), count)  # one past each sub-block
    lasts = at(end - 1)
    # a sub-block holds a run start unless its last value is that of the sub-block before it
    opens = np.flatnonzero(np.concatenate(([True], lasts[1:] != lasts[:-1])))
    start, end = opens * _SUB, end[opens]
    first, last = at(start), lasts[opens]
    del lasts
    # start and end become the counts of values below first and up to last: only a run across an edge needs a search
    tie = first[1:] == last[:-1]
    entered = np.append(False, tie)  # a run enters the sub-block from the one before
    start[entered] = emp._searchsorted(first[entered], "left")
    cross = np.append(tie | (opens[1:] > opens[:-1] + 1), opens[-1] < (count - 1) // _SUB)
    end[cross] = emp._searchsorted(last[cross], "right")
    model_last, model_first = dist.cdf(last), dist.cdf_left(first)
    gap = max(np.max(np.abs(model_last - end / count)), np.max(np.abs(model_first - start / count)))
    keep = np.maximum(model_last - start / count, end / count - model_first) + _SLACK > gap
    live, entered, end = opens[keep], entered[keep], end[keep]
    del opens, start, first, last, model_last, model_first  # freed so the gather's arrays do not add to theirs
    step = _BLOCK // _SUB
    for i in range(0, live.size, step):  # a block's worth of live sub-blocks at a time
        pos = (live[i:i + step, None] * _SUB + np.arange(_SUB)).ravel()
        pos = pos[pos < count]
        vals = at(pos)
        # a run starts where the value changes, and at a sub-block's first value unless a run enters it; it ends
        # at the next run start in its sub-block, or, for the sub-block's last run, at the sub-block's end
        opening = np.empty(pos.size, dtype=bool)
        opening[1:] = vals[1:] != vals[:-1]
        opening[::_SUB] = ~entered[i:i + step]
        pos, vals = pos[opening], vals[opening]  # the run starts and their values
        ends = np.append(pos[1:], 0)
        ends[np.add.reduceat(opening, range(0, opening.size, _SUB), dtype=int).cumsum() - 1] = end[i:i + step]
        model = dist.cdf(vals)
        model_left = dist._left_limit(vals, model)
        gap = max(gap, np.max(np.abs(model - ends / count)), np.max(np.abs(model_left - pos / count)))
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
