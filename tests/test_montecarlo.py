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
    map_tails,
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
NORMAL = MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0, -math.inf, math.inf),))  # N(0, 1)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, theta, eta, a", MC_CONFIGS)
def test_atom_range_is_the_laws_atom_less_its_margin(kind, n, theta, eta, a):
    # the certified range takes its ends from the law's own cut points, so the uniform mass it skips sits
    # just below the atom weight: short of it by the margin (at most 1.6e-7 here), never above it
    point, tuning = ModelPoint(n, theta), TuningPlan(eta, a)
    lo, hi = montecarlo._atom_uniforms(kind, SimConfig(seed=1, replications=1, point=point, tuning=tuning))[:2]
    assert 0.0 <= atom_weight(point, tuning) - (hi - lo) <= 1e-6
    assert hi > lo


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


def _uniforms(cfg):
    """The seeded uniforms of a simulation, in draw order."""
    return np.concatenate([block.copy() for _, block in montecarlo._uniform_blocks(cfg)])


@pytest.mark.parametrize("kind", KINDS)
def test_uncertified_range_skips_nothing(monkeypatch, kind):
    # a negative margin pushes the ends outward, past the atom: the pipeline's estimate there is not 0,
    # so the range is refused: the order certificate maps its close pairs in place, and every draw goes
    # through ndtri and the estimate once, by the time the values are read
    monkeypatch.setattr(montecarlo, "_SKIP_MARGIN", -1e-3)
    cfg = SimConfig(seed=8, replications=BLOCK + 1, point=ModelPoint(100, 0.0), tuning=TuningPlan(0.196))
    assert montecarlo._atom_uniforms(kind, cfg) == montecarlo._NO_ATOM
    close = np.count_nonzero(np.diff(np.sort(_uniforms(cfg))) < montecarlo._CLOSE)
    sizes = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: sizes.append(u.size) or ndtri(u, out=out))
    emp = simulate_estimates(kind, cfg)
    assert sum(sizes) < 2 + 2 * close + cfg.replications // 10
    assert emp.values.tobytes() == whole_array_estimates(kind, cfg, whole_array_ybar(cfg)).tobytes()
    assert sum(sizes) == 2 + cfg.replications


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("config, share", [(EDGE_CONFIGS["all-atom"], 1e-5), (EDGE_CONFIGS["theta-0"], 0.05),
                                           (MC_CONFIGS[3], 0.05)], ids=["all-atom", "theta-0", "atom-0.11"])
def test_ndtri_sees_only_draws_outside_the_atom_range(monkeypatch, kind, config, share):
    # the two certification points, then, when the sample is made, each distinct uniform of the order
    # certificate's close pairs and joins; then KS and the atom count map a few more, each draw once.
    # At sqrt(n)*eta = 10 the range leaves out 2.9e-7 of the uniforms, at sqrt(n)*eta = 1.96 about 5%
    # and at n = 25, theta = -0.3 about 89%; in both of those KS and the atom count leave the mapped
    # draws at 3.8% of the sample, where the whole-sample map took 5% and 89%
    n, theta, eta, a = config
    cfg = SimConfig(seed=12, replications=200_000, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    u = _uniforms(cfg)
    below, above = np.sort(u[u < lo]), np.sort(u[u > hi])
    count, front, back = u.size, below.size, u.size - above.size
    held = np.concatenate([below, np.full(back - front, np.nan), above])
    left = np.concatenate([np.flatnonzero(np.diff(below) < montecarlo._CLOSE),
                           back + np.flatnonzero(np.diff(above) < montecarlo._CLOSE),
                           [i for i in {front - 1, back - 1} if 0 <= i < count - 1]]).astype(int)  # pairs, joins
    certified = np.union1d(left, left + 1)
    certified = certified[(certified < front) | (certified >= back)]
    mapped = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: mapped.append(u.copy()) or ndtri(u, out=out))
    emp = simulate_estimates(kind, cfg)
    sizes = [m.size for m in mapped]
    assert sizes[0] == 2 and np.sort(np.concatenate(mapped[1:] or [[]])).tobytes() == held[certified].tobytes()
    if front == 0 and back == count:  # every uniform in the range: the sample maps nothing
        assert sizes == [2]
    ks_distance(emp, finite_sample_dist(kind, cfg.point, cfg.tuning))
    emp.fraction_at(-cfg.point.sqrt_n * theta)
    assert sum(m.size for m in mapped[1:]) <= share * cfg.replications
    emp.values
    # from the sample's making on, each outside uniform exactly once
    once = np.sort(np.concatenate(mapped[1:] or [[]]))
    assert once.tobytes() == np.sort(np.concatenate([below, above])).tobytes()


@pytest.mark.parametrize("kind", [EstimatorKind.SOFT, EstimatorKind.SCAD])
def test_signed_zeros_come_in_total_order(kind):
    # at theta = +0.0 the atom holds -0.0 (u < 1/2) and +0.0: every -0.0 comes before every +0.0, and
    # the counts of each are those of the unsorted whole-array expression
    n, theta, eta, a = EDGE_CONFIGS["theta-0"]
    cfg = SimConfig(seed=13, replications=BATCH + BLOCK + 3, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    zeros = simulate_estimates(kind, cfg).values
    zeros = zeros[zeros == 0.0]
    negative = np.count_nonzero(np.signbit(zeros))
    assert np.signbit(zeros[:negative]).all() and not np.signbit(zeros[negative:]).any()
    reference = cfg.point.sqrt_n * (estimate(kind, whole_array_ybar(cfg), cfg.tuning) - theta)
    assert zeros.size == np.count_nonzero(reference == 0.0)
    assert 0 < negative == np.count_nonzero(np.signbit(reference[reference == 0.0])) < zeros.size


@pytest.mark.parametrize("kind", [EstimatorKind.SOFT, EstimatorKind.SCAD])
def test_a_draw_at_one_half_is_plus_zero(monkeypatch, kind):
    # at theta = +0.0 the uniform 1/2 maps to ybar = ndtri(1/2) = +0.0 and an estimate of +0.0, not -0.0: one
    # such draw, planted first in the seeded stream (one block), is counted among the +0.0 of the atom, as in
    # the reference
    n, theta, eta, a = EDGE_CONFIGS["theta-0"]
    cfg = SimConfig(seed=13, replications=BLOCK - 3, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    assert lo < 0.5 < hi
    uniform_open = montecarlo._uniform_open

    def planted(gen, size, out=None):
        u = uniform_open(gen, size, out=out)
        u[0] = 0.5
        return u

    monkeypatch.setattr(montecarlo, "_uniform_open", planted)
    assert _uniforms(cfg)[0] == 0.5
    ybar = whole_array_ybar(cfg)
    ybar[0] = theta + 1.0 / cfg.point.sqrt_n * ndtri(0.5)
    assert math.copysign(1.0, ybar[0]) == 1.0
    assert simulate_estimates(kind, cfg).values.tobytes() == whole_array_estimates(kind, cfg, ybar).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_draws_on_the_certified_ends_are_the_atoms(monkeypatch, kind):
    # the uniforms lo and hi themselves lie in the range: planted first in the seeded stream at theta = +0.0,
    # each is counted with the atom, lo (below 1/2) among its -0.0 for soft and scad, as in the reference
    n, theta, eta, a = EDGE_CONFIGS["theta-0"]
    cfg = SimConfig(seed=13, replications=BLOCK - 3, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    uniform_open = montecarlo._uniform_open

    def planted(gen, size, out=None):
        u = uniform_open(gen, size, out=out)
        u[:2] = lo, hi
        return u

    monkeypatch.setattr(montecarlo, "_uniform_open", planted)
    assert _uniforms(cfg)[:2].tolist() == [lo, hi]
    ybar = whole_array_ybar(cfg)
    ybar[:2] = theta + 1.0 / cfg.point.sqrt_n * ndtri(np.array([lo, hi]))
    assert simulate_estimates(kind, cfg).values.tobytes() == whole_array_estimates(kind, cfg, ybar).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("reps, seed", [(2, 12), (3, 11)])
def test_a_lone_atom_draw_last_is_not_mapped(kind, reps, seed):
    # every draw but one lies below the atom range and none above it, so the last value, which ends a short
    # sub-block, is the atom's and no uniform: the sample must not map it
    n, theta, eta, a = MC_CONFIGS[3]
    cfg = SimConfig(seed=seed, replications=reps, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    u = _uniforms(cfg)
    assert (np.count_nonzero(u < lo), np.count_nonzero(u > hi)) == (reps - 1, 0)
    emp = simulate_estimates(kind, cfg)
    assert emp.fraction_at(-cfg.point.sqrt_n * theta) == 1 / reps
    assert emp.values.tobytes() == whole_array_estimates(kind, cfg, whole_array_ybar(cfg)).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("config, where, reps, seed", [(MC_CONFIGS[3], "close-pair", 2 * BLOCK + 3, 14),
                                                      (EDGE_CONFIGS["theta-0"], "join", 2 * BLOCK + 3, 14),
                                                      (MC_CONFIGS[3], "join", 2, 12)],
                         ids=["close-pair", "join", "join-at-index-0"])
def test_a_descending_map_is_sorted_by_the_fallback(monkeypatch, kind, config, where, reps, seed):
    # ndtri is planted with a step down where the order certificate looks: one unit below its value at the
    # lower uniform of the closest pair below the atom range (0.49*_CLOSE apart here), or 5.0 at the last
    # uniform below it, which then maps past the atom (in the last case the only uniform below it, at index
    # 0, before one atom draw).  The certificate fails, every draw is mapped, the order check of a sample
    # built from values fails, the fallback sorts in total order, the check passes, and the bytes are the
    # reference's with the planted draw
    n, theta, eta, a = config
    cfg = SimConfig(seed=seed, replications=reps, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    u = _uniforms(cfg)
    below = np.sort(u[u < montecarlo._atom_uniforms(kind, cfg)[0]])
    if where == "close-pair":
        i = int(np.argmin(np.diff(below)))
        assert below[i + 1] - below[i] < montecarlo._CLOSE
        planted, z = below[i + 1], ndtri(below[i]) - 1.0
    else:
        planted, z = below[-1], 5.0

    def stepping(u, out=None):
        at = u == planted
        out = ndtri(u, out=out)
        out[at] = z
        return out

    checks, certified, init = [], montecarlo._certified, EmpiricalCdf.__init__

    def certifying(*args):
        checks.append(("certified", certified(*args)))
        return checks[-1][1]

    def checked(self, values, _sim=None):
        if _sim is None:  # the order check runs on values only, not on the simulated sample's uniforms
            checks.append(("sorted", bool((values[1:] >= values[:-1]).all())))
        init(self, values, _sim)

    monkeypatch.setattr(montecarlo, "ndtri", stepping)
    monkeypatch.setattr(montecarlo, "_certified", certifying)
    monkeypatch.setattr(EmpiricalCdf, "__init__", checked)
    emp = simulate_estimates(kind, cfg)
    assert checks == [("certified", False), ("sorted", False), ("sorted", True)]
    ybar = whole_array_ybar(cfg)
    ybar[u == planted] = theta + 1.0 / cfg.point.sqrt_n * z
    assert emp.values.tobytes() == whole_array_estimates(kind, cfg, ybar).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_a_draw_below_the_range_that_maps_into_the_atom_is_certified(monkeypatch, kind):
    # the range is pulled inward from the atom's ends, so the grid point just below it maps to the atom's
    # value too: planted first in the stream, it is the last value below the range and equals its join with
    # the atom, which the certificate accepts, so the sample is made without mapping every draw
    n, theta, eta, a = MC_CONFIGS[3]
    cfg = SimConfig(seed=15, replications=BLOCK - 3, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo = montecarlo._atom_uniforms(kind, cfg)[0]
    uniform_open = montecarlo._uniform_open

    def planted(gen, size, out=None):
        u = uniform_open(gen, size, out=out)
        u[0] = lo - 2.0**-53
        return u

    monkeypatch.setattr(montecarlo, "_uniform_open", planted)
    ybar = whole_array_ybar(cfg)
    ybar[0] = theta + 1.0 / cfg.point.sqrt_n * ndtri(lo - 2.0**-53)
    assert estimate(kind, ybar[:1], cfg.tuning)[0] == 0.0
    sizes = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: sizes.append(u.size) or ndtri(u, out=out))
    emp = simulate_estimates(kind, cfg)
    assert sum(sizes) < cfg.replications // 10  # about 89% of the draws lie outside the range
    assert emp.values.tobytes() == whole_array_estimates(kind, cfg, ybar).tobytes()


@pytest.mark.parametrize("at", [None, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 2])
def test_the_certificate_finds_a_close_pair_next_to_any_block_edge(monkeypatch, at):
    # hand-built uniforms 2**-20 apart, but for the pair at (at - 1, at), 2**-40 apart, whose upper uniform
    # ndtri maps one unit lower: the certificate, which scans the uniforms a block (and one) at a time,
    # agrees with the order of the whole mapped array at each pair next to a block edge, and with none
    count = 2 * BLOCK + 3
    u = (np.arange(count) + 1.0) * 2.0**-20
    if at is not None:
        u[at] = u[at - 1] + 2.0**-40
    step = math.nan if at is None else u[at]

    def stepping(x, out=None):
        planted = x == step
        out = ndtri(x, out=out)
        out[planted] -= 1.0
        return out

    cfg = SimConfig(seed=1, replications=count, point=ModelPoint(25, -0.3), tuning=TuningPlan(0.08, 2.5))
    monkeypatch.setattr(montecarlo, "ndtri", stepping)
    emp = EmpiricalCdf(u.copy(), _sim=(EstimatorKind.HARD, cfg, count, count))
    assert montecarlo._certified(emp, count, count) == (at is None)
    assert bool((np.diff(emp.values) >= 0.0).all()) == (at is None)


LAZY_CONFIGS = {  # (n, theta, eta, scad a)
    **{f"criterion-02-{i}": config for i, config in enumerate(MC_CONFIGS)},
    **EDGE_CONFIGS,
    "minus-zero": (100, -0.0, 0.196, 3.7),  # +0.0 on the whole atom
    "theta-0-a-next-to-2": (100, 0.0, 0.196, 2.0 + 1e-12),
    "a-next-to-2": (25, -0.3, 0.08, 2.0 + 1e-12),
    "every-uniform-in-the-range": (10**30, 0.0, 0.1, 3.7),
}
LAZY_CASES = [(name, reps) for name in LAZY_CONFIGS for reps in (1, 2, 63, 64, 65, BLOCK - 1, BLOCK + 1)]
LAZY_CASES += [(name, BATCH + BLOCK + 3) for name in EDGE_CONFIGS]


def _reads_as_its_values(kind, cfg):
    """The simulated sample maps a draw only where it is read: KS (at the law and at a shifted one) and the
    atom count, read before and after KS, equal the whole-array KS and the count of equal values of its
    values bit for bit, and its values, read last, are the values."""
    n, theta, reps = cfg.point.n, cfg.point.theta, cfg.replications
    values = simulate_estimates(kind, cfg).values
    xs = [-cfg.point.sqrt_n * theta, 0.0, -0.0, values[0], values[reps // 2], values[-1],
          np.nextafter(values[-1], math.inf), math.inf, -math.inf]
    want = [np.count_nonzero(values == x) / reps for x in xs]
    lazy = simulate_estimates(kind, cfg)
    got = [lazy.fraction_at(x) for x in xs]
    assert got == want and all(type(f) is float for f in got)
    for shift in (0.0, 0.01):
        dist = finite_sample_dist(kind, ModelPoint(n, theta + shift), cfg.tuning)
        assert ks_distance(lazy, dist).hex() == whole_array_ks(values, dist).hex()
    assert [lazy.fraction_at(x) for x in xs] == want
    assert lazy.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("name, reps", LAZY_CASES)
def test_simulated_sample_reads_as_the_sample_of_its_values(name, reps):
    n, theta, eta, a = LAZY_CONFIGS[name]
    cfg = SimConfig(seed=reps, replications=reps, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    for kind in KINDS:
        _reads_as_its_values(kind, cfg)


ONE_REGION_CASES = {  # (n, theta, eta, scad a, reps, seed): the draws below, in and above the atom range
    # no draw in the range: the upper part moves by 0, two blocks' worth of it
    "atom-0": ((40, 0.16, 1e-6, 3.7, 2 * BLOCK + 3, 1), (5113, 0, 27658)),
    # fewer atom draws than a block, and more above: each block's copy overlaps its source
    "atom-below-a-block": ((40, 0.16, 0.05, 3.7, 2 * BLOCK + 3, 1), (3063, 4887, 24821)),
    # more atom draws than a block: no copy overlaps its source
    "atom-above-a-block": ((40, 0.16, 0.05, 3.7, BATCH + BLOCK + 3, 1), (49945, 82020, 408710)),
    "no-draw-above": ((25, -0.3, 0.08, 2.5, 65, 1), (60, 5, 0)),
    "theta-0": ((100, 0.0, 0.196, 3.7, 2 * BLOCK + 3, 1), (871, 31130, 770)),  # -0.0, then +0.0 from u = 1/2
    "theta-minus-0": ((100, -0.0, 0.196, 3.7, 2 * BLOCK + 3, 1), (871, 31130, 770)),  # +0.0 on the whole atom
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ONE_REGION_CASES)
def test_one_sorted_region_split_at_the_range_reads_as_its_values(kind, name):
    # the uniforms outside the range are sorted as one region and its upper part moved to the back: the
    # values are the whole-array reference's bytes, and KS and the atom count read as those of the values
    (n, theta, eta, a, reps, seed), layout = ONE_REGION_CASES[name]
    cfg = SimConfig(seed=seed, replications=reps, point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
    lo, hi = montecarlo._atom_uniforms(kind, cfg)[:2]
    u = _uniforms(cfg)
    assert (np.count_nonzero(u < lo), np.count_nonzero((u >= lo) & (u <= hi)), np.count_nonzero(u > hi)) == layout
    expected = whole_array_estimates(kind, cfg, whole_array_ybar(cfg))
    assert simulate_estimates(kind, cfg).values.tobytes() == expected.tobytes()
    _reads_as_its_values(kind, cfg)


def test_ndtri_steps_down_far_less_than_a_close_pair_rules_out():
    # the order certificate maps only neighbouring uniforms closer than _CLOSE: further apart, the quantile
    # grows by at least sqrt(2*pi)*_CLOSE = 2.3e-9.  ndtri steps down only next to its branch switches at
    # u = e**-2 and 1 - e**-2, by at most 8.9e-16 over 4*10**6 neighbouring grid points at each; a less
    # accurate ndtri fails here before it can put a simulated sample out of order
    ruled_out = math.sqrt(2.0 * math.pi) * montecarlo._CLOSE
    for switch in (math.exp(-2.0), 1.0 - math.exp(-2.0)):
        k = round(switch * 2.0**53) - 2_000_000
        drop = 0.0
        for lo in range(0, 4_000_000, 1_000_000):  # a million steps at a time, each chunk overlapping the next by one
            z = ndtri((k + lo + np.arange(1_000_001)) * 2.0**-53)
            drop = max(drop, float(np.max(z[:-1] - z[1:])))
        assert 0.0 < drop <= 1e-4 * ruled_out


def test_uniform_open_scales_by_an_exact_power_of_two():
    # k * 2^-53 is k / 2^53 bit for bit: k < 2^53 converts exactly and the scale is a power of two
    k = np.array([1, 2, 2**52, 2**53 - 1])

    class Fixed:
        def integers(self, low, high, size):
            assert (low, high, size) == (1, 2**53, k.size)
            return k

    u = montecarlo._uniform_open(Fixed(), k.size)
    assert u.tobytes() == (k / float(2**53)).tobytes()
    assert u.tolist() == [2.0**-53, 2.0**-52, 0.5, 1.0 - 2.0**-53]
    block = montecarlo._uniform_open(np.random.Generator(np.random.Philox(15)), BLOCK, out=np.empty(BLOCK))
    expected = np.random.Generator(np.random.Philox(15)).integers(1, 2**53, size=BLOCK) / float(2**53)
    assert block.tobytes() == expected.tobytes()


def test_ks_runs_on_block_edges_equal_whole_array_reference():
    # normal quantiles fit N(0, 1) to within 0.5/count everywhere but at the ties: a run of 300
    # starting exactly on the first block edge, where the sup sits, and a run of 10 across the second
    count = 3 * BLOCK + 7
    values = ndtri((np.arange(count) + 0.5) / count)
    values[BLOCK:BLOCK + 300] = values[BLOCK]
    values[2 * BLOCK - 5:2 * BLOCK + 5] = values[2 * BLOCK - 5]
    emp = EmpiricalCdf(values)
    dist = NORMAL
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
    # the output array and the sample's flags of its unmapped uniforms (one byte per value) are the
    # only full-length allocations: the drawn block and its masks stay block-sized, and the ends are
    # sorted in place; the KS pass allocates arrays over the sub-blocks, 1/64 of the sample's length,
    # and then gathers the live sub-blocks a block's worth at a time
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
    dist = NORMAL
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


RUNS_ACROSS_EDGES = {  # [lo, hi) of one run in 5*SUB + 3 normal quantiles
    "into-a-sub-block-that-does-not-open": (SUB + 6, 3 * SUB + 8),
    "to-the-end-of-a-sub-block-that-does-not-open": (SUB + 6, 3 * SUB),
    "from-a-sub-block-start": (SUB, 3 * SUB + 8),
    "into-the-next-only": (SUB + 6, 2 * SUB + 8),
    "to-the-last-value": (SUB + 6, 5 * SUB + 3),
    "from-the-first-value": (0, 2 * SUB + 8),
}


@pytest.mark.parametrize("name", RUNS_ACROSS_EDGES)
def test_a_run_from_a_live_sub_block_ends_where_its_values_end(name):
    # the sup sits at the run, (hi - lo - 1/2)/count, so the sub-block of its start is live, and the live pass
    # must end it at hi: past a sub-block that does not open, on a sub-block edge, or at the count
    lo, hi = RUNS_ACROSS_EDGES[name]
    values = _quantiles_with_runs(5 * SUB + 3, (lo, hi))
    emp = EmpiricalCdf(values)
    ks = ks_distance(emp, NORMAL)
    assert ks.hex() == whole_array_ks(values, NORMAL).hex()
    assert ks == pytest.approx((hi - lo - 0.5) / values.size, rel=1e-9)
    count = np.count_nonzero(values == values[lo])
    assert emp.fraction_at(values[lo]) == count / values.size == (hi - lo) / values.size


@pytest.mark.parametrize("count", [3 * BLOCK + 7, 3 * BLOCK], ids=["short-last-sub-block", "whole-sub-blocks"])
def test_ks_searches_only_for_the_runs_across_sub_block_edges(monkeypatch, count):
    # the first pass searches for the count of each run that crosses a sub-block edge; the live pass ends a
    # run at the next run start in its sub-block or at the count the first pass found, so no search follows
    # the first model evaluation.  Runs inside sub-blocks only: no point is searched.  A run across one edge
    # and one across a whole sub-block: one point for each end across an edge, four
    inside = _quantiles_with_runs(count, *[(k * SUB + 5, k * SUB + 40) for k in range(0, count // SUB, 7)])
    across = _quantiles_with_runs(count, (SUB - 3, SUB + 3), (BLOCK - 1, BLOCK + SUB + 6))
    search, cdf = EmpiricalCdf._searchsorted, MixtureDistribution.cdf
    for values, searched in ((inside, 0), (across, 4)):
        events = []
        monkeypatch.setattr(EmpiricalCdf, "_searchsorted",
                            lambda self, x, side: events.append(("search", np.size(x))) or search(self, x, side))
        monkeypatch.setattr(MixtureDistribution, "cdf",
                            lambda self, x: events.append(("cdf", np.size(x))) or cdf(self, x))
        ks = ks_distance(EmpiricalCdf(values), NORMAL)
        monkeypatch.undo()
        assert ks.hex() == whole_array_ks(values, NORMAL).hex()
        kinds = [kind for kind, _ in events]
        assert kinds == ["search"] * kinds.count("search") + ["cdf"] * kinds.count("cdf")
        assert sum(size for kind, size in events if kind == "search") == searched
        assert kinds.count("cdf") > 2  # the first pass's cdf and left limit, then the live pass


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


def _quantiles_with_runs(count, *runs):
    """count ascending normal quantiles, each run [lo, hi) set to its first value."""
    values = ndtri((np.arange(count) + 0.5) / count)
    for lo, hi in runs:
        values[lo:hi] = values[lo]
    return values


HAND_BUILT = {  # samples built from values: counts about a sub-block, and runs across sub-block edges
    "1-2-2-3": np.array([1.0, 2.0, 2.0, 3.0]),
    "count-1": np.array([0.5]),
    "count-2": np.array([-1.0, 2.0]),
    "count-63": _quantiles_with_runs(63, (0, 5), (60, 63)),
    "count-64": _quantiles_with_runs(64, (62, 64)),
    "count-65": _quantiles_with_runs(65, (60, 65)),
    "count-129": _quantiles_with_runs(129, (62, 66), (120, 129)),
    "all-equal": np.full(129, 1.5),
    "signed-zeros": np.concatenate([-np.ones(30), np.full(40, -0.0), np.zeros(40), np.ones(19)]),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_empirical_cdf_evaluation(monkeypatch, name):
    # every value, its two neighbouring floats, both zeros and points below the least and above the largest
    # value: the searches equal np.searchsorted's and the atom count that of the equal values, for a float
    # and for an array, and KS equals the whole-array KS; a sample built from values holds no uniform, so
    # ndtri sees no point through any reader
    values = HAND_BUILT[name]
    emp, count = EmpiricalCdf(values.copy()), values.size
    mapped = []
    monkeypatch.setattr(montecarlo, "ndtri", lambda u, out=None: mapped.append(u.size) or ndtri(u, out=out))
    assert emp._at(np.arange(count)).tobytes() == values.tobytes()
    xs = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf),
                         [values[0] - 1.0, values[-1] + 1.0, -np.inf, np.inf, 0.0, -0.0]])
    for side in ("left", "right"):
        want = np.searchsorted(values, xs, side=side)
        assert emp._searchsorted(xs, side).tolist() == want.tolist()
        assert [emp._searchsorted(x, side) for x in xs.tolist()] == want.tolist()
    want = [np.count_nonzero(values == x) / count for x in xs.tolist()]
    assert [emp.fraction_at(x) for x in xs.tolist()] == want and emp.fraction_at(xs).tolist() == want
    dist = NORMAL
    assert ks_distance(emp, dist).hex() == whole_array_ks(values, dist).hex()
    assert emp.values.tobytes() == values.tobytes()
    assert mapped == []
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
    for replications in (2, 1000):  # every ybar of a simulation is drawn at one theta, never at a batch's own
        with pytest.raises(ValueError, match="batch"):
            SimConfig(seed=1, replications=replications, point=ModelPoint(10, [0.1, 5.0]), tuning=TuningPlan(0.5))


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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP theta-sup engine: under a_n scaling the heuristic grid's sup reads 0 at theta = -10"))
    def test_a_n_sup_reaches_the_exceedance_where_the_atom_crosses_the_cut(self):
        # `experiment uniform-rate` at its defaults (hard, a_n scaling, M = 6, eta = n**-0.25): at n = 100 the
        # cut is M*sqrt(n)/a_n = 18.97, which the atom at -sqrt(n)*theta passes just below theta = -1.897;
        # there map_tails reads the exceedance as 1.2984e-56, where the grid reports 0 at theta = -10
        kind, path, M, n = EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, 100
        eta = path.eta(n)
        cut = M * math.sqrt(n) / min(math.sqrt(n), 1.0 / eta)
        theta = -cut / math.sqrt(n) - 1e-9
        upper = map_tails(kind, n, theta, eta, 3.7, cut, "sqrt_n")[1]
        lower = map_tails(kind, n, theta, eta, 3.7, -cut, "sqrt_n", left=True)[0]
        want = float(upper + lower)
        assert want == pytest.approx(1.2984e-56, rel=1e-4)
        rep = uniform_rate_experiment(kind, path, M, [n])
        assert rep.column("sup_prob")[0] >= want * (1.0 - 1e-9)

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
