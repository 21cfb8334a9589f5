import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    exceedance_probability,
    ks_oracle,
    ks_reference,
    whole_array_estimates,
    whole_array_ks,
    whole_array_ybar,
)
from scipy.special import ndtri

from shrinkdist import montecarlo
from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate
from shrinkdist.finite_dist import Atom, GaussPiece, MixtureDistribution, ModelPoint, atom_weight, finite_sample_dist
from shrinkdist.montecarlo import (
    EmpiricalCdf,
    SimConfig,
    default_adversarial_grid,
    ks_distance,
    sample_ybar,
    simulate_estimates,
    uniform_rate_experiment,
)
from shrinkdist.normal_kernel import norm_cdf
from shrinkdist.selection import PowerTuningPath

KINDS = list(EstimatorKind)
MC_CONFIGS = [  # (n, theta, eta, scad a) of acceptance criterion 02
    (40, 0.16, 0.05, 3.7),
    (10_000, 0.05, 0.1, 3.7),
    (100, 0.0, 0.196, 3.7),
    (25, -0.3, 0.08, 2.5),
    (1000, 0.02, 0.0316, 5.0),
]
FIG_CFG = SimConfig(seed=1234, replications=200_000, point=ModelPoint(40, 0.16), tuning=TuningPlan(0.05, 3.7))


def test_seed_determinism():
    a = simulate_estimates(EstimatorKind.HARD, FIG_CFG)
    b = simulate_estimates(EstimatorKind.HARD, FIG_CFG)
    np.testing.assert_array_equal(a.values, b.values)


def test_distinct_seeds_differ():
    other = SimConfig(seed=1235, replications=FIG_CFG.replications, point=FIG_CFG.point, tuning=FIG_CFG.tuning)
    a = simulate_estimates(EstimatorKind.HARD, FIG_CFG)
    b = simulate_estimates(EstimatorKind.HARD, other)
    dist = finite_sample_dist(EstimatorKind.HARD, FIG_CFG.point, FIG_CFG.tuning)
    assert not np.array_equal(a.values, b.values)
    assert ks_distance(a, dist) > 0.0


def test_batch_split_is_order_invariant():
    # replications spanning multiple batches reproduce the single-batch prefix stream
    small = SimConfig(seed=77, replications=1000, point=ModelPoint(4, 0.0), tuning=TuningPlan(0.5))
    big = SimConfig(seed=77, replications=(1 << 19) + 1000, point=ModelPoint(4, 0.0), tuning=TuningPlan(0.5))
    np.testing.assert_array_equal(sample_ybar(small), sample_ybar(big)[:1000])


def test_huge_threshold_swallows_everything():
    cfg = SimConfig(seed=5, replications=100_000, point=ModelPoint(100, 0.0), tuning=TuningPlan(1.0))
    emp = simulate_estimates(EstimatorKind.HARD, cfg)  # sqrt(n)*eta = 10
    assert emp.fraction_at(0.0) >= 0.999999


@pytest.mark.parametrize("kind", KINDS)
def test_atom_fraction_within_binomial_band(kind):
    emp = simulate_estimates(kind, FIG_CFG)
    w = atom_weight(FIG_CFG.point, FIG_CFG.tuning)
    loc = -FIG_CFG.point.sqrt_n * FIG_CFG.point.theta
    se = math.sqrt(w * (1 - w) / FIG_CFG.replications)
    assert abs(emp.fraction_at(loc) - w) <= 4 * se


def test_soft_stream_is_transformed_hard_stream():
    ybar = sample_ybar(FIG_CFG)
    hard = estimate(EstimatorKind.HARD, ybar, FIG_CFG.tuning)
    soft = estimate(EstimatorKind.SOFT, ybar, FIG_CFG.tuning)
    np.testing.assert_array_equal(soft, hard - np.sign(hard) * FIG_CFG.tuning.eta)
    s = FIG_CFG.point.sqrt_n
    emp = simulate_estimates(EstimatorKind.SOFT, FIG_CFG)
    np.testing.assert_array_equal(emp.values, np.sort(s * (soft - FIG_CFG.point.theta)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [3, 4])
def test_ks_band_for_matching_law(kind, seed):
    cfg = SimConfig(seed=seed, replications=250_000, point=ModelPoint(40, 0.16), tuning=TuningPlan(0.05, 3.7))
    emp = simulate_estimates(kind, cfg)
    dist = finite_sample_dist(kind, cfg.point, cfg.tuning)
    assert ks_distance(emp, dist) <= 1.63 / math.sqrt(cfg.replications) + 0.001


def test_ks_detects_location_mismatch():
    # theta off by five standard errors moves the big atom out from under the sample
    cfg = SimConfig(seed=6, replications=50_000, point=ModelPoint(100, 0.0), tuning=TuningPlan(0.196))
    emp = simulate_estimates(EstimatorKind.HARD, cfg)
    shifted = finite_sample_dist(EstimatorKind.HARD, ModelPoint(100, 0.5), cfg.tuning)
    assert ks_distance(emp, shifted) > 0.1


@pytest.mark.parametrize("theta", [0.16, 0.3])
def test_ks_against_brute_force_oracle(theta):
    # 200 draws at theta = 0.16 put about 30 of them on the atom; the law at
    # theta = 0.3 moves its atom away from them, so the sup sits at a jump
    cfg = SimConfig(seed=11, replications=200, point=ModelPoint(40, 0.16), tuning=TuningPlan(0.05))
    emp = simulate_estimates(EstimatorKind.HARD, cfg)
    assert emp.fraction_at(-math.sqrt(40) * 0.16) > 0.1
    dist = finite_sample_dist(EstimatorKind.HARD, ModelPoint(40, theta), cfg.tuning)
    assert ks_distance(emp, dist) == pytest.approx(ks_oracle(emp.values, dist), abs=1e-10)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, theta, eta, a", MC_CONFIGS)
def test_ks_equals_scalar_reference(kind, n, theta, eta, a):
    cfg = SimConfig(seed=n, replications=20_000, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    emp = simulate_estimates(kind, cfg)
    if n == 10_000:  # sqrt(n)*eta = 10: every draw sits on the atom
        assert np.unique(emp.values).size == 1
    dist = finite_sample_dist(kind, cfg.point, cfg.tuning)
    assert ks_distance(emp, dist) == ks_reference(emp, dist)


BLOCK = montecarlo._BLOCK
BATCH = montecarlo._BATCH
BLOCK_EDGE_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, BATCH - 1, BATCH + 1, BATCH + BLOCK + 3]
EDGE_CONFIGS = {  # (n, theta, eta, scad a)
    "theta-0": (100, 0.0, 0.196, 3.7),  # soft and scad put signed zeros on the atom
    "all-atom": (10_000, 0.05, 0.1, 3.7),  # sqrt(n)*eta = 10: one run spans every block
}


@pytest.mark.parametrize("reps", BLOCK_EDGE_COUNTS)
@pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
def test_blocked_path_equals_whole_array_reference(config, reps):
    n, theta, eta, a = config
    cfg = SimConfig(seed=reps, replications=reps, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    ybar = whole_array_ybar(cfg)
    assert sample_ybar(cfg).tobytes() == ybar.tobytes()
    for kind in KINDS:
        emp = simulate_estimates(kind, cfg)
        expected = whole_array_estimates(kind, cfg, ybar)
        assert emp.values.tobytes() == expected.tobytes()  # bytes, so -0.0 and 0.0 differ
        dist = finite_sample_dist(kind, cfg.point, cfg.tuning)
        assert ks_distance(emp, dist).hex() == whole_array_ks(expected, dist).hex()


THETA_RULES = {  # theta as a function of eta: on the atom's ends, one relative 1e-12 either side, inside, outside
    "zero": lambda eta: 0.0,
    "minus-zero": lambda eta: -0.0,  # (-0.0 - -0.0) is +0.0, so soft and scad put +0.0 on the whole atom
    "above-end": lambda eta: eta * (1.0 + 1e-12),
    "below-end": lambda eta: eta * (1.0 - 1e-12),
    "above-minus-end": lambda eta: -eta * (1.0 + 1e-12),
    "below-minus-end": lambda eta: -eta * (1.0 - 1e-12),
    "inside": lambda eta: 0.3 * eta,
    "outside": lambda eta: -3.0 * eta,
    "fixed": lambda eta: 0.05,
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), reps=st.sampled_from(BLOCK_EDGE_COUNTS), seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 25, 100, 10**4, 10**12, 10**30]), eta=st.sampled_from([1e-300, 1e-9, 0.0316, 0.196, 3.0]),
       rule=st.sampled_from(list(THETA_RULES)), a=st.sampled_from([2.0 + 1e-12, 2.5, 3.7]))
@example(kind=EstimatorKind.SOFT, reps=BLOCK + 1, seed=1, n=100, eta=1e-300, rule="zero", a=3.7)  # an empty range
@example(kind=EstimatorKind.SCAD, reps=BLOCK + 1, seed=2, n=10**30, eta=0.196, rule="zero", a=2.0 + 1e-12)
@example(kind=EstimatorKind.HARD, reps=BLOCK - 1, seed=3, n=10**12, eta=0.1, rule="below-end", a=3.7)
@example(kind=EstimatorKind.SOFT, reps=BLOCK, seed=5, n=100, eta=0.196, rule="minus-zero", a=3.7)
@example(kind=EstimatorKind.SCAD, reps=BATCH + 1, seed=4, n=10**30, eta=1e-9, rule="above-minus-end", a=3.7)
def test_atom_skip_equals_whole_array_reference(kind, reps, seed, n, eta, rule, a):
    # the draws inside the certified atom range skip ndtri and the estimate; every value keeps its bits
    cfg = SimConfig(seed=seed, replications=reps, point=ModelPoint(n, THETA_RULES[rule](eta)), tuning=TuningPlan(eta, a))
    expected = whole_array_estimates(kind, cfg, whole_array_ybar(cfg))
    assert simulate_estimates(kind, cfg).values.tobytes() == expected.tobytes()


CERTIFIED_CONFIGS = MC_CONFIGS + [  # (n, theta, eta, scad a)
    (10**30, 0.0, 0.1, 3.7),  # every uniform lies in the range
    (10**12, 0.1 * (1.0 - 1e-12), 0.1, 3.7),  # the atom's upper end at z = 1e-7, pulled in to z = -0.03
    (10**12, -0.1 * (1.0 + 1e-12), 0.1, 2.0 + 1e-12),
    (100, 0.0, 0.196, 2.0 + 1e-12),
    (100, -0.0, 0.196, 3.7),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, theta, eta, a", CERTIFIED_CONFIGS)
def test_atom_range_ends_and_steps_inside_give_the_atom(kind, n, theta, eta, a):
    # the sampler's pipeline at the certified ends, 1, 2 and 1000 grid steps of 2^-53 inside them, and at
    # u = 1/2 and the step below it when they lie in the range: each estimate is exactly 0, and each value
    # is the fill, -0.0 below u = 1/2 at theta = +0.0 for soft and scad
    cfg = SimConfig(seed=1, replications=1, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi, fill_lo, fill_hi = montecarlo._atom_uniforms(kind, cfg)
    k_lo, k_hi = int(lo * 2.0**53), int(hi * 2.0**53)
    steps = np.array([0, 1, 2, 1000])
    k = np.concatenate([k_lo + steps, k_hi - steps, [2**52 - 1, 2**52]])
    u = k[(k >= k_lo) & (k <= k_hi)] / 2.0**53
    assert u.size >= 8
    est = estimate(kind, montecarlo._ybar(u.copy(), cfg.point), cfg.tuning)
    assert np.all(est == 0.0)
    values = (est - theta) * cfg.point.sqrt_n
    assert values.tobytes() == np.where(u < 0.5, fill_lo, fill_hi).tobytes()
    if theta == 0.0:
        assert (fill_lo, fill_hi) == (0.0, 0.0)
        signed = kind is not EstimatorKind.HARD and not np.signbit(theta)
        assert np.signbit([fill_lo, fill_hi]).tolist() == [signed, False]
    else:
        assert fill_lo == fill_hi == -cfg.point.sqrt_n * theta


@pytest.mark.parametrize("n, eta", [(100, 1e-300), (1, 1e-12)])
def test_atom_range_is_empty_where_the_atom_is_narrower_than_its_margin(n, eta):
    cfg = SimConfig(seed=1, replications=1, point=ModelPoint(n, 0.0), tuning=TuningPlan(eta))
    assert montecarlo._atom_uniforms(EstimatorKind.SOFT, cfg) == montecarlo._NO_ATOM


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("theta", [1e300, -1e300])
def test_atom_range_is_empty_where_its_margin_overflows(kind, theta):
    # sqrt(n)*|theta| = 1e315 makes the margin inf: nothing is skipped, and every value keeps its bits
    cfg = SimConfig(seed=6, replications=BLOCK + 1, point=ModelPoint(10**30, theta), tuning=TuningPlan(0.05))
    assert montecarlo._atom_uniforms(kind, cfg) == montecarlo._NO_ATOM
    expected = whole_array_estimates(kind, cfg, whole_array_ybar(cfg))
    assert simulate_estimates(kind, cfg).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_uncertified_range_skips_nothing(monkeypatch, kind):
    # a negative margin pushes the ends outward, past the atom: the pipeline's estimate there is not 0,
    # so the range is refused and every draw goes through ndtri and the estimate
    monkeypatch.setattr(montecarlo, "_SKIP_MARGIN", -1e-3)
    cfg = SimConfig(seed=8, replications=BLOCK + 1, point=ModelPoint(100, 0.0), tuning=TuningPlan(0.196))
    assert montecarlo._atom_uniforms(kind, cfg) == montecarlo._NO_ATOM
    sizes = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: sizes.append(u.size) or ndtri(u, out=out))
    emp = simulate_estimates(kind, cfg)
    assert sum(sizes) == 2 + cfg.replications
    assert emp.values.tobytes() == whole_array_estimates(kind, cfg, whole_array_ybar(cfg)).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("config, share", [(EDGE_CONFIGS["all-atom"], 1e-5), (EDGE_CONFIGS["theta-0"], 0.06)],
                         ids=["all-atom", "theta-0"])
def test_ndtri_sees_only_draws_outside_the_atom_range(monkeypatch, kind, config, share):
    # the two certification points, then exactly the draws outside the range: at sqrt(n)*eta = 10 the
    # range leaves out 2.9e-7 of the uniforms, at sqrt(n)*eta = 1.96 about 5%
    n, theta, eta, a = config
    cfg = SimConfig(seed=12, replications=200_000, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    u = np.concatenate(list(montecarlo._uniform_blocks(cfg, np.empty(cfg.replications))))
    outside = np.count_nonzero((u < lo) | (u > hi))
    sizes = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: sizes.append(u.size) or ndtri(u, out=out))
    simulate_estimates(kind, cfg)
    assert sizes[0] == 2
    assert sum(sizes[1:]) == outside <= share * cfg.replications


def test_ks_runs_on_block_edges_equal_whole_array_reference():
    # normal quantiles fit N(0, 1) to within 0.5/count everywhere but at the ties: a run of 300
    # starting exactly on the first block edge, where the sup sits, and a run of 10 across the second
    count = 3 * BLOCK + 7
    values = ndtri((np.arange(count) + 0.5) / count)
    values[BLOCK:BLOCK + 300] = values[BLOCK]
    values[2 * BLOCK - 5:2 * BLOCK + 5] = values[2 * BLOCK - 5]
    emp = EmpiricalCdf(values)
    dist = MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0, -math.inf, math.inf),))
    ks = ks_distance(emp, dist)
    assert ks.hex() == whole_array_ks(values, dist).hex()
    assert ks == pytest.approx(299.5 / count, rel=1e-3)


SUB = montecarlo._SUB


@pytest.mark.parametrize("size", [1, SUB - 1, SUB + 1, 5 * SUB + 3, BLOCK - 1, BLOCK + 1, BATCH + 3])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), config=st.sampled_from(MC_CONFIGS),
       shift=st.sampled_from([0.0, 0.01, -0.2]), decimals=st.none() | st.integers(0, 3),
       runs=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 3 * SUB)), max_size=4))
def test_pruned_ks_equals_whole_array_reference(size, seed, kind, config, shift, decimals, runs):
    # rounding makes ties everywhere, and each run overwrites a stretch with its first value, so atom
    # runs start and end on and across sub-block and block edges; a shifted theta moves the sup
    n, theta, eta, a = config
    cfg = SimConfig(seed=seed, replications=size, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    values = simulate_estimates(kind, cfg).values
    if decimals is not None:
        values = np.round(values, decimals)
    for where, length in runs:
        i = int(where * (size - 1))
        values[i:i + length] = values[i]
    dist = finite_sample_dist(kind, ModelPoint(n, theta + shift), cfg.tuning)
    assert ks_distance(EmpiricalCdf(values), dist).hex() == whole_array_ks(values, dist).hex()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, theta, eta, a", MC_CONFIGS)
def test_cdf_nondecreasing_within_rounding(kind, n, theta, eta, a):
    # the KS pruning slack (1e-12) must cover every decrease of the computed cdf
    dist = finite_sample_dist(kind, ModelPoint(n, theta), TuningPlan(eta, a))
    ends = np.array(dist.breakpoints())
    grid = np.concatenate([np.linspace(-40.0, 40.0, 400_001), ends, np.nextafter(ends, -np.inf),
                           np.nextafter(ends, np.inf)])
    grid.sort()
    assert np.min(np.diff(dist.cdf(grid))) >= -1e-15


def test_pruned_ks_evaluates_a_tenth_of_the_distinct_values(monkeypatch):
    emp = simulate_estimates(EstimatorKind.HARD, FIG_CFG)
    dist = finite_sample_dist(EstimatorKind.HARD, FIG_CFG.point, FIG_CFG.tuning)
    points = []  # every model evaluation goes through cdf: the sub-block edges, cdf_left and the walk
    cdf = MixtureDistribution.cdf
    monkeypatch.setattr(MixtureDistribution, "cdf", lambda self, x: points.append(np.size(x)) or cdf(self, x))
    ks = ks_distance(emp, dist)
    monkeypatch.undo()
    distinct = np.unique(emp.values).size
    assert distinct > 150_000
    assert sum(points) <= distinct / 10
    assert ks.hex() == whole_array_ks(emp.values, dist).hex()


@pytest.mark.parametrize("config", [(40, 0.16, 0.05, 3.7), *EDGE_CONFIGS.values()], ids=["figure", *EDGE_CONFIGS])
def test_blocked_path_peak_memory(config):
    # the output array is the only full-length allocation: the gathered indices and values and the
    # fill stay block-sized; the KS pass allocates arrays over the sub-blocks, 1/64 of the sample's
    # length, and then gathers the live sub-blocks a block's worth at a time
    n, theta, eta, a = config
    cfg = SimConfig(seed=9, replications=1_000_000, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    dist = finite_sample_dist(EstimatorKind.SCAD, cfg.point, cfg.tuning)
    tracemalloc.start()
    try:
        emp = simulate_estimates(EstimatorKind.SCAD, cfg)
        simulate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before_ks = tracemalloc.get_traced_memory()[0]
        ks_distance(emp, dist)
        ks_peak = tracemalloc.get_traced_memory()[1] - before_ks
    finally:
        tracemalloc.stop()
    assert simulate_peak <= emp.values.nbytes + 2_000_000
    assert ks_peak <= 2_000_000


def test_all_live_ks_gathers_a_block_at_a_time(monkeypatch):
    # normal quantiles fit N(0, 1) to within 0.5/count at every value, so no sub-block is skipped and the
    # model is evaluated at every value; gathered a block's worth of sub-blocks at a time, the KS pass
    # keeps the peak of the memory test above, where one gather of every position would take 8 MB
    count = 1_000_000
    values = ndtri((np.arange(count) + 0.5) / count)
    emp = EmpiricalCdf(values)
    dist = MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0, -math.inf, math.inf),))
    tracemalloc.start()
    try:
        ks = ks_distance(emp, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ks.hex() == whole_array_ks(values, dist).hex()
    assert peak <= 2_000_000
    points = []
    cdf = MixtureDistribution.cdf
    monkeypatch.setattr(MixtureDistribution, "cdf", lambda self, x: points.append(np.size(x)) or cdf(self, x))
    ks_distance(emp, dist)
    assert sum(points) >= count and max(points) <= max(BLOCK, count // SUB + 1)


def test_ks_of_two_value_sample_equals_scalar_reference():
    emp = EmpiricalCdf(np.array([-1.0, -1.0, -1.0, 0.5]))
    dist = finite_sample_dist(EstimatorKind.HARD, ModelPoint(1, 1.0), TuningPlan(0.5))
    assert dist.atoms[0].loc == -1.0
    assert ks_distance(emp, dist) == ks_reference(emp, dist)


def test_ks_degenerate_atom_law():
    vals = np.zeros(1000)
    emp = EmpiricalCdf(vals)
    dist = MixtureDistribution(atoms=(Atom(0.0, 1.0),), pieces=())
    assert ks_distance(emp, dist) < 1.0 / emp.count


def test_empirical_cdf_evaluation():
    emp = EmpiricalCdf(np.array([1.0, 2.0, 2.0, 3.0]))
    assert emp.fraction_at(2.0) == 0.5
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalCdf(np.array([2.0, 1.0]))


@pytest.mark.parametrize("values", [np.array([]), np.zeros((2, 2))], ids=["empty", "2-d"])
def test_empirical_cdf_rejects_an_empty_or_2d_sample(values):
    with pytest.raises(ValueError, match="^values must be a nonempty 1-d array$"):
        EmpiricalCdf(values)


@pytest.mark.parametrize("values", [[math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [math.nan]])
def test_empirical_cdf_rejects_nan(values):
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalCdf(np.array(values))


def test_empirical_cdf_rejects_a_descent_across_a_block_edge():
    values = np.arange(2.0 * BLOCK)
    values[[BLOCK - 1, BLOCK]] = values[[BLOCK, BLOCK - 1]]  # the only descending pair straddles the edge
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalCdf(values)


@pytest.mark.parametrize("where", [1, BLOCK - 1, BLOCK, 2 * BLOCK])
def test_empirical_cdf_rejects_nan_in_a_long_sample(where):
    values = np.arange(2.0 * BLOCK + 1)
    values[where] = math.nan  # inside a block, on either side of a block edge, and last
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalCdf(values)


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]])
def test_empirical_cdf_evaluation_rejects_nan_x(x):
    emp = EmpiricalCdf(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="NaN"):
        emp.fraction_at(x)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=1, replications=0, point=ModelPoint(4, 0.0), tuning=TuningPlan(0.5))
    with pytest.raises(ValueError):
        SimConfig(seed=-1, replications=10, point=ModelPoint(4, 0.0), tuning=TuningPlan(0.5))
    with pytest.raises(ValueError):
        SimConfig(seed=1, replications=True, point=ModelPoint(4, 0.0), tuning=TuningPlan(0.5))


class TestUniformRate:
    def test_bound_value(self):
        path = PowerTuningPath(1.0, 0.25)
        rep = uniform_rate_experiment(EstimatorKind.HARD, path, 6.0, [100])
        assert rep.rows[0][rep.columns.index("bound")] == pytest.approx(0.025449928011439396, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sup_below_bound_consistent_tuning(self, kind):
        path = PowerTuningPath(1.0, 0.25)
        rep = uniform_rate_experiment(kind, path, 6.0, [100, 10_000, 1_000_000])
        assert all(rep.column("within_bound"))
        assert all(p <= b for p, b in zip(rep.column("sup_prob"), rep.column("bound")))

    def test_sup_below_bound_conservative_tuning(self):
        path = PowerTuningPath(1.0, 0.5)
        rep = uniform_rate_experiment(EstimatorKind.SOFT, path, 6.0, [100, 10_000])
        assert all(rep.column("within_bound"))

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP theta-sup engine: the sup over the heuristic adversarial grid misses the true sup over theta"))
    def test_sqrt_n_sup_reaches_the_dense_theta_sweep(self):
        # a 200,001-point theta sweep over +-3*max(eta, M/a_n) finds 2.2715e-3 near theta = -0.6;
        # the grid reports 1.97e-9
        rep = uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, [100], scaling="sqrt_n")
        assert rep.column("sup_prob")[0] >= 2.27e-3

    def test_adversarial_grid_contains_required_points(self):
        grid = default_adversarial_grid(100, 0.3, 6.0, 3.0)
        for v in (0.3, -0.3, 0.3 * 1.01, 0.3 * 0.99, 1.0, -1.0):
            assert np.min(np.abs(grid - v)) < 1e-12

    def test_sqrt_n_scaling_counterexample(self):
        # theta_n = eta_n/2 under consistent tuning: once the escaped atom clears M,
        # the sqrt(n)-scale exceedance jumps to one
        path = PowerTuningPath(1.0, 0.25)
        rule = lambda n, eta, M, a_n: [eta / 2.0]
        rep = uniform_rate_experiment(EstimatorKind.HARD, path, 6.0, [10_000, 100_000, 1_000_000],
                                      theta_grid_rule=rule, scaling="sqrt_n")
        probs = rep.column("sup_prob")
        assert probs[-1] >= 0.99
        assert probs[0] < 0.01 < probs[1]

    def test_rejects_unknown_scaling(self):
        with pytest.raises(ValueError, match=r"^scaling must be one of a_n, sqrt_n \(got 'bogus'\)$"):
            uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, [100], scaling="bogus")

    @pytest.mark.parametrize("scaling", [np.array(["a_n", "x"]), np.array("sqrt_n"), np.array(["a_n"])])
    def test_rejects_an_array_scaling_by_name(self, scaling):
        with pytest.raises(ValueError) as err:
            uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, [100], scaling=scaling)
        assert str(err.value) == f"scaling must be one of a_n, sqrt_n (got {scaling!r})"

    def test_requires_m_above_two(self):
        with pytest.raises(ValueError):
            uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 2.0, [100])

    def test_rejects_empty_n_list(self):
        with pytest.raises(ValueError, match="n_list"):
            uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, [])

    @pytest.mark.parametrize("kind", KINDS)
    def test_atom_on_the_cut_counts_as_inside(self, kind):
        # n = 4 on the sqrt(n) scale: the cut is M = 6 exactly, and theta = 3 puts the atom at -6
        path, tuning = PowerTuningPath(1.0, 0.25), TuningPlan(4 ** -0.25, 3.7)
        dist = finite_sample_dist(kind, ModelPoint(4, 3.0), tuning)
        assert dist.atoms[0].loc == -6.0 and dist.atoms[0].weight > 1e-7
        rep = uniform_rate_experiment(kind, path, 6.0, [4], theta_grid_rule=lambda *_: [3.0], scaling="sqrt_n")
        assert rep.column("sup_prob") == [1.0 - (dist.cdf(6.0) - dist.cdf_left(-6.0))]
        assert rep.column("sup_prob")[0] < 1.0 - (dist.cdf(6.0) - dist.cdf(-6.0))

    @pytest.mark.parametrize("dense", [False, True], ids=["default-grid", "dense-grid"])
    @pytest.mark.parametrize("scaling", ["a_n", "sqrt_n"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_scalar_reference(self, kind, scaling, dense):
        # one batch of laws per n gives exactly what one scalar law per theta gives
        path, M, n_list = PowerTuningPath(1.0, 0.25), 6.0, [10, 10_000, 10**9]

        def dense_grid(n, eta_n, M, a_n):
            width = 3.0 * max(eta_n, M / a_n)
            return np.union1d(default_adversarial_grid(n, eta_n, M, a_n), np.linspace(-width, width, 201))

        rule = dense_grid if dense else default_adversarial_grid
        rep = uniform_rate_experiment(kind, path, M, n_list, theta_grid_rule=rule, scaling=scaling)
        bound = 2.0 * norm_cdf(-M / 2.0) + norm_cdf(-M / 2.0 + 1.0)
        expected = []
        for n in n_list:
            eta_n = path.eta(n)
            a_n = min(math.sqrt(n), 1.0 / eta_n)
            rate = a_n if scaling == "a_n" else math.sqrt(n)
            grid = [float(t) for t in rule(n, eta_n, M, a_n)]
            probs = [exceedance_probability(kind, n, t, TuningPlan(eta_n, 3.7), M * math.sqrt(n) / rate)
                     for t in grid]
            worst = int(np.argmax(probs))
            expected.append((n, eta_n, rate, probs[worst], grid[worst], bound, probs[worst] <= bound))
        assert rep.rows == expected
        assert [tuple(map(type, r)) for r in rep.rows] == [tuple(map(type, r)) for r in expected]
