import math

import numpy as np
import pytest
from oracles import exceedance_probability, ks_oracle, ks_reference

from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate
from shrinkdist.finite_dist import Atom, MixtureDistribution, ModelPoint, atom_weight, finite_sample_dist
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
    assert emp.evaluate(0.5) == 0.0
    assert emp.evaluate(2.0) == 0.75
    assert emp.evaluate(1.9999) == 0.25
    assert emp.fraction_at(2.0) == 0.5
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalCdf(np.array([2.0, 1.0]))


@pytest.mark.parametrize("values", [[math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [math.nan]])
def test_empirical_cdf_rejects_nan(values):
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalCdf(np.array(values))


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]])
def test_empirical_cdf_evaluation_rejects_nan_x(x):
    emp = EmpiricalCdf(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="NaN"):
        emp.evaluate(x)
    with pytest.raises(ValueError, match="NaN"):
        emp.fraction_at(x)


def test_quantile_report():
    emp = EmpiricalCdf(np.sort(np.linspace(0, 1, 101)))
    rep = emp.quantiles(np.array([0.25, 0.5]))
    assert rep.columns == ("prob", "quantile")
    assert rep.rows[1][1] == pytest.approx(0.5, abs=0.01)


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
        with pytest.raises(ValueError, match="scaling"):
            uniform_rate_experiment(EstimatorKind.HARD, PowerTuningPath(1.0, 0.25), 6.0, [100], scaling="bogus")

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
