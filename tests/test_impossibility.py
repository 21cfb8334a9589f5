import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import reference_pretest_cdf, resampled_bootstrap_cdf, swept_lower_bound

from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate
from shrinkdist.finite_dist import ModelPoint, atom_weight, finite_sample_dist
from shrinkdist.impossibility import (
    MOutOfNBootstrap,
    OracleCheat,
    PretestPlugin,
    TwoPointProblem,
    _HarnessContext,
    adversarial_theta_grid,
    estimand_gap,
    estimator_worst_case,
    minimax_lower_bound,
    rescaled_lower_bound,
)
from shrinkdist.normal_kernel import gaussian_tv, norm_cdf
from shrinkdist.selection import PowerTuningPath

KINDS = list(EstimatorKind)
CONSERVATIVE = TuningPlan(0.196)   # n=100: sqrt(n)*eta = 1.96
CONSISTENT_PATH = PowerTuningPath(1.0, 0.25)


def test_problem_validation():
    with pytest.raises(ValueError):
        TwoPointProblem(n=0, t=0.0, delta=0.1, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
    with pytest.raises(ValueError):
        TwoPointProblem(n=10, t=0.0, delta=0.0, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)


def test_theta_pair_positions():
    prob = TwoPointProblem(n=100, t=0.5, delta=0.2, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
    th_plus, th_minus = prob.theta_pair()
    assert th_plus == pytest.approx(-0.07)
    assert th_minus == pytest.approx(-0.03)


@pytest.mark.parametrize("kind", KINDS)
def test_gap_is_atom_weight_plus_vanishing_remainder(kind):
    prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=CONSERVATIVE, kind=kind)
    rems = []
    for d in (0.1, 0.05, 0.01, 0.001, 1e-4):
        gap, leading, rem = estimand_gap(prob, d)
        assert gap == pytest.approx(leading + rem, abs=1e-15)
        rems.append(abs(rem))
    assert all(a >= b for a, b in zip(rems, rems[1:]))
    assert rems[-1] < 0.01


def test_gap_near_full_atom_weight_for_wide_threshold():
    prob = TwoPointProblem(n=100, t=0.0, delta=1e-4, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
    gap, _, _ = estimand_gap(prob)
    assert gap == pytest.approx(2 * norm_cdf(1.96) - 1, abs=1e-3)


def test_gap_vanishes_without_threshold():
    tun = TuningPlan(1e-6 / 10.0)  # sqrt(n)*eta = 1e-6 at n=100
    prob = TwoPointProblem(n=100, t=0.0, delta=0.01, tuning=tun, kind=EstimatorKind.HARD)
    gap, _, _ = estimand_gap(prob)
    assert abs(gap) < 1e-4


@pytest.mark.parametrize("kind", KINDS)
def test_gap_of_delta_array_equals_scalar_gaps(kind):
    prob = TwoPointProblem(n=100, t=0.3, delta=0.1, tuning=CONSERVATIVE, kind=kind)
    deltas = np.array([1.0, 0.1, 1e-3, 1e-8])
    parts = estimand_gap(prob, deltas)
    for i, d in enumerate(deltas.tolist()):
        assert tuple(p[i] for p in parts) == estimand_gap(prob, d)
    assert estimand_gap(prob, 1) == estimand_gap(prob, 1.0)
    assert all(type(p) is float for p in estimand_gap(prob))


class TestMinimaxBound:
    def test_epsilon_range_pinned(self):
        prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
        eps_range, _ = minimax_lower_bound(prob)
        assert eps_range == pytest.approx(0.47500210485177956, abs=1e-12)

    def test_bound_approaches_half(self):
        prob = TwoPointProblem(n=100, t=0.0, delta=1e-6, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
        _, bound = minimax_lower_bound(prob, sweep_steps=1)
        assert bound >= 0.4999

    def test_bound_never_exceeds_half(self):
        for d in (0.5, 0.1, 1e-3, 1e-8):
            prob = TwoPointProblem(n=25, t=0.3, delta=d, tuning=CONSERVATIVE, kind=EstimatorKind.SOFT)
            _, bound = minimax_lower_bound(prob)
            assert 0.0 <= bound <= 0.5

    def test_half_tv_bound_identity(self):
        # the swept quantity is (1 - tv)/2 with tv depending on delta alone
        prob = TwoPointProblem(n=400, t=0.0, delta=0.25, tuning=TuningPlan(0.098), kind=EstimatorKind.HARD)
        th_plus, th_minus = prob.theta_pair()
        assert gaussian_tv(400, th_plus, th_minus) == pytest.approx(2 * norm_cdf(0.25) - 1, abs=1e-12)

    def test_wide_threshold_range_is_half(self):
        tun = TuningPlan(1.0)  # sqrt(n)*eta = 10
        prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=tun, kind=EstimatorKind.HARD)
        eps_range, _ = minimax_lower_bound(prob)
        assert eps_range == pytest.approx(0.5, abs=1e-16)

    @pytest.mark.parametrize("steps", [1, 14, 20])
    def test_equals_scalar_delta_loop(self, steps):
        for kind in KINDS:
            for n, t, delta, eta in ((100, 0.0, 2.0, 0.196), (25, 0.3, 0.5, 0.2), (10_000, -1.2, 1e-3, 0.02)):
                prob = TwoPointProblem(n=n, t=t, delta=delta, tuning=TuningPlan(eta, 2.5), kind=kind)
                for eps in (None, 0.2, 0.6):
                    got = minimax_lower_bound(prob, epsilon=eps, sweep_steps=steps)
                    assert got == swept_lower_bound(prob, epsilon=eps, sweep_steps=steps)
                    assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("steps", [0, -1, True, 2.5])
    def test_sweep_steps_must_be_a_positive_integer(self, steps):
        prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=CONSERVATIVE, kind=EstimatorKind.HARD)
        with pytest.raises(ValueError, match="sweep_steps"):
            minimax_lower_bound(prob, sweep_steps=steps)

    def test_epsilon_range_monotone_in_eta(self):
        ranges = []
        for eta in (0.05, 0.1, 0.2, 0.5, 1.0):
            prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=TuningPlan(eta), kind=EstimatorKind.HARD)
            ranges.append(minimax_lower_bound(prob)[0])
        assert ranges == sorted(ranges)


class TestRescaledBound:
    def test_reduction_identity_exact(self):
        n, t = 400, 0.5
        tun = TuningPlan(0.25)
        direct = rescaled_lower_bound(EstimatorKind.HARD, n, t, tun, delta=0.05)
        s = math.sqrt(n) * tun.eta * t
        reduced = minimax_lower_bound(TwoPointProblem(n=n, t=s, delta=0.05, tuning=tun, kind=EstimatorKind.HARD))
        assert direct == reduced

    def test_range_formula(self):
        n, tun = 100, TuningPlan(0.5)  # sqrt(n)*eta = 5
        for t in (-0.5, 0.0, 0.3):
            eps_range, _ = rescaled_lower_bound(EstimatorKind.SOFT, n, t, tun)
            expected = 0.5 * (norm_cdf(5 * (t + 1)) - norm_cdf(5 * (t - 1)))
            assert eps_range == pytest.approx(expected, abs=1e-6)

    def test_outside_unit_interval_range_collapses(self):
        n, tun = 10_000, TuningPlan(0.1)  # sqrt(n)*eta = 10
        eps_range, _ = rescaled_lower_bound(EstimatorKind.HARD, n, 1.5, tun)
        assert eps_range < 1e-6


class TestWorstCase:
    def test_grid_contains_witnesses(self):
        grid = adversarial_theta_grid(10_000, 0.0, 2.0)
        for frac in (0.5, 0.1, 0.02):
            assert np.min(np.abs(grid + (0.0 + frac * 2.0) / 100.0)) < 1e-15
        assert np.max(np.abs(grid)) < 2.0 / 100.0

    def test_oracle_cheat_is_sound(self):
        tun = TuningPlan(CONSISTENT_PATH.eta(1000))
        rep = estimator_worst_case(OracleCheat(), EstimatorKind.HARD, 1000, 0.0, tun, 2.0,
                                   seed=11, replications=500)
        assert rep.meta["sup"] == 0.0
        assert all(p == 0.0 for p in rep.column("err_prob"))

    @pytest.mark.parametrize("kind", KINDS)
    def test_pretest_plugin_fooled_near_zero(self, kind):
        n = 10_000
        tun = TuningPlan(CONSISTENT_PATH.eta(n), 3.7)
        rep = estimator_worst_case(PretestPlugin(consistent=True), kind, n, 0.0, tun, 2.0,
                                   seed=21, replications=2000)
        assert rep.meta["sup"] >= 0.45
        assert rep.meta["bound"] >= 0.4999

    def test_bootstrap_fooled_near_zero(self):
        n = 10_000
        tun = TuningPlan(CONSISTENT_PATH.eta(n))
        spec = MOutOfNBootstrap(path=CONSISTENT_PATH)
        rep = estimator_worst_case(spec, EstimatorKind.HARD, n, 0.0, tun, 2.0,
                                   seed=31, replications=2000)
        assert rep.meta["sup"] >= 0.45

    def test_consistent_bootstrap_beats_full_n_in_worst_case(self):
        # the m-out-of-n bootstrap is consistent yet has the larger worst-case error
        n = 100_000
        tun = TuningPlan(CONSISTENT_PATH.eta(n))
        small_m = MOutOfNBootstrap(path=CONSISTENT_PATH)
        full_n = MOutOfNBootstrap(path=CONSISTENT_PATH, m_rule=lambda n: n)
        rep_small = estimator_worst_case(small_m, EstimatorKind.HARD, n, 0.0, tun, 2.0,
                                         seed=41, replications=1500)
        rep_full = estimator_worst_case(full_n, EstimatorKind.HARD, n, 0.0, tun, 2.0,
                                        seed=41, replications=1500)
        assert rep_small.meta["sup"] >= rep_full.meta["sup"]

    def test_worst_case_deterministic_under_seed(self):
        tun = TuningPlan(CONSISTENT_PATH.eta(1000))
        a = estimator_worst_case(PretestPlugin(), EstimatorKind.HARD, 1000, 0.0, tun, 2.0,
                                 seed=55, replications=400)
        b = estimator_worst_case(PretestPlugin(), EstimatorKind.HARD, 1000, 0.0, tun, 2.0,
                                 seed=55, replications=400)
        assert a.rows == b.rows

    @pytest.mark.parametrize("kind", KINDS)
    def test_truth_is_the_scalar_law_cdf(self, kind):
        seen = []

        class Recorder:
            name = "recorder"

            def estimate_cdf(self, ybar, ctx):
                seen.append(ctx.true_value)
                return np.full(len(ybar), ctx.true_value)

        n, t = 1000, 0.7
        tun = TuningPlan(CONSISTENT_PATH.eta(n), 3.7)
        rep = estimator_worst_case(Recorder(), kind, n, t, tun, 2.0, seed=3, replications=10)
        thetas = rep.column("theta")
        assert seen == [finite_sample_dist(kind, ModelPoint(n, th), tun).cdf(t) for th in thetas]
        assert all(type(v) is float for v in thetas + seen)

    @pytest.mark.parametrize("reps", [0, -5, True])
    def test_replications_must_be_positive(self, reps):
        with pytest.raises(ValueError, match="replications"):
            estimator_worst_case(OracleCheat(), EstimatorKind.HARD, 100, 0.0, CONSERVATIVE, 2.0,
                                 seed=1, replications=reps)

    def test_radius_must_cover_t(self):
        with pytest.raises(ValueError):
            estimator_worst_case(OracleCheat(), EstimatorKind.HARD, 100, 3.0, CONSERVATIVE, 2.0,
                                 seed=1, replications=10)

    def test_conservative_pretest_uses_threshold_substitution(self):
        # conservative branch plugs sqrt(n)*eta into the zero-parameter limit law
        n = 100
        tun = TuningPlan(0.196)
        spec = PretestPlugin(consistent=False)
        rep = estimator_worst_case(spec, EstimatorKind.SOFT, n, 0.0, tun, 2.0,
                                   seed=61, replications=1500)
        assert rep.meta["sup"] >= 0.45


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "conservative"])
@pytest.mark.parametrize("kind", KINDS)
def test_pretest_equals_four_formula_reference_bit_for_bit(kind, consistent):
    spec = PretestPlugin(consistent=consistent)
    for n in (1, 4, 100, 10_000, 1_000_000):
        cut = n ** -0.25
        # accept, reject up and reject down: both zeros, the cutoffs and the floats just past them
        ybar = np.concatenate([np.linspace(-3.0, 3.0, 401), [0.0, -0.0, cut, -cut],
                               np.nextafter([cut, -cut], [np.inf, -np.inf])])
        for eta in (0.01, 0.196, 0.5):
            for a in (2.01, 3.7):
                tuning = TuningPlan(eta, a)
                for t in (-2.5, -1.0, -0.0, 0.0, 0.3, 1.0, 2.5):
                    got = spec.estimate_cdf(ybar, _HarnessContext(kind, n, t, tuning, true_value=0.0))
                    want = reference_pretest_cdf(kind, consistent, n, tuning, t, ybar)
                    assert got.tobytes() == want.tobytes(), (n, eta, a, t)


BOOT_N = 10_000
RESAMPLES = 20_000


def binomial_band(p):
    """4 binomial SDs of a resampled fraction, plus one resample of slack.

    The slack covers values of p so near 0 or 1 that the expected number of
    resamples on the rare side is below one, where the SD alone is no band.
    """
    return 4.0 * np.sqrt(p * (1.0 - p) / RESAMPLES) + 1.0 / RESAMPLES


def bootstrap_problem(kind, full_n: bool, t: float):
    """(spec, ctx, m, tuning at m) of the exact bootstrap at n = BOOT_N."""
    tuning = TuningPlan(CONSISTENT_PATH.eta(BOOT_N), 3.7)
    spec = MOutOfNBootstrap(path=CONSISTENT_PATH, m_rule=lambda n: n) if full_n \
        else MOutOfNBootstrap(path=CONSISTENT_PATH)
    m = spec.m_rule(BOOT_N)
    ctx = _HarnessContext(kind=kind, n=BOOT_N, t=t, tuning=tuning, true_value=math.nan)
    return spec, ctx, m, TuningPlan(CONSISTENT_PATH.eta(m), 3.7)


class TestExactBootstrap:
    @pytest.mark.parametrize("full_n", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_matches_resampler_within_binomial_band(self, kind, full_n):
        # ybar on both sides of +-eta_n, +-eta_m and 0, where theta_hat or the
        # resampled estimate changes branch
        spec, ctx, m, tuning_m = bootstrap_problem(kind, full_n, 0.0)
        half_gap = 1e-3
        cuts = (ctx.tuning.eta, tuning_m.eta)
        ybar = np.array(sorted({s * c + d for c in cuts for s in (-1.0, 1.0) for d in (-half_gap, half_gap)}
                               | {-half_gap, half_gap}))
        for seed, t in enumerate((-1.0, 0.0, 0.5)):
            exact = spec.estimate_cdf(ybar, replace(ctx, t=t))
            resampled = resampled_bootstrap_cdf(kind, ybar, m, t, ctx.tuning, tuning_m, RESAMPLES, seed)
            assert np.all(np.abs(exact - resampled) <= binomial_band(exact)), (t, exact, resampled)

    @pytest.mark.parametrize("kind", KINDS)
    def test_atom_counted_like_resampler_at_zero(self, kind):
        # theta_hat = 0 and t = 0 put t exactly on the bootstrap law's atom;
        # the resampler's <= counts the resamples estimated at 0, and so must
        # the exact value
        spec, ctx, m, tuning_m = bootstrap_problem(kind, False, 0.0)
        ybar = np.array([-0.5, 0.5]) * ctx.tuning.eta
        exact = spec.estimate_cdf(ybar, ctx)
        resampled = resampled_bootstrap_cdf(kind, ybar, m, 0.0, ctx.tuning, tuning_m, RESAMPLES, 99)
        band = binomial_band(exact)
        assert np.all(np.abs(exact - resampled) <= band)
        atom = atom_weight(ModelPoint(m, ybar), tuning_m)
        assert np.all(atom > 10.0 * band)

    @pytest.mark.parametrize("full_n", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_is_the_finite_sample_law_at_m_and_ybar(self, kind, full_n):
        spec, ctx, m, tuning_m = bootstrap_problem(kind, full_n, 0.0)
        ybar = np.linspace(-3.0, 3.0, 41) * ctx.tuning.eta
        theta_hat = estimate(kind, ybar, ctx.tuning)
        laws = finite_sample_dist(kind, ModelPoint(m, ybar), tuning_m)
        for t in (-1.0, 0.0, 0.5):
            want = laws.cdf(t - math.sqrt(m) * (ybar - theta_hat))
            assert spec.estimate_cdf(ybar, replace(ctx, t=t)).tobytes() == want.tobytes()

    def test_exact_rejects_empty_or_2d_ybar(self):
        spec, ctx, _, _ = bootstrap_problem(EstimatorKind.HARD, False, 0.0)
        for ybar in (np.array([]), [], np.zeros((2, 3))):
            with pytest.raises(ValueError, match="ybar"):
                spec.estimate_cdf(ybar, ctx)

    def test_resample_count_is_ignored(self):
        _, ctx, _, _ = bootstrap_problem(EstimatorKind.SCAD, False, 0.3)
        ybar = np.linspace(-0.2, 0.2, 11)
        few = MOutOfNBootstrap(path=CONSISTENT_PATH, n_boot=1).estimate_cdf(ybar, ctx)
        many = MOutOfNBootstrap(path=CONSISTENT_PATH, n_boot=10_000).estimate_cdf(ybar, ctx)
        assert few.tobytes() == many.tobytes()
