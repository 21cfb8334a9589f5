import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from oracles import (
    map_tails,
    mapped_point_reference,
    reference_pretest_cdf,
    resampled_bootstrap_cdf,
    swept_lower_bound,
)

from shrinkdist import finite_dist, impossibility
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
EPS = 2.0**-52
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

    def test_worst_case_takes_a_0d_scad_a(self):
        # a 0-d array field is stored as a float, so the pretest's memo can hash the tuning
        run = lambda a: estimator_worst_case(PretestPlugin(), EstimatorKind.HARD, 100, 0.0, TuningPlan(0.1, a), 2.0,
                                             seed=1, replications=10)
        assert run(np.array(3.7)) == run(3.7)

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


def test_pretest_builds_its_three_limit_laws_once(monkeypatch):
    # 15 grid points per op used to build 3 limit laws each; the values are
    # fixed per (kind, e, a, t), so one op builds 3 and a repeat builds none
    built, limit_law = [], impossibility._limit_law

    def counting_limit_law(*args):
        built.append(args)
        return limit_law(*args)

    monkeypatch.setattr(impossibility, "_limit_law", counting_limit_law)
    impossibility._pretest_values.cache_clear()
    n = 10_000
    run = lambda: estimator_worst_case(PretestPlugin(), EstimatorKind.SCAD, n, 0.0,
                                       TuningPlan(CONSISTENT_PATH.eta(n), 3.7), 2.0, seed=3, replications=200)
    first = run()
    assert len(first.rows) == 15 and len(built) <= 3
    assert run().rows == first.rows and len(built) <= 3


BOOT_N = 10_000
RESAMPLES = 20_000


def binomial_band(p, count=RESAMPLES):
    """4 binomial SDs of a fraction of count resamples, plus one resample of slack.

    The slack covers values of p so near 0 or 1 that the expected number of
    resamples on the rare side is below one, where the SD alone is no band.
    """
    return 4.0 * np.sqrt(p * (1.0 - p) / count) + 1.0 / count


@pytest.mark.parametrize("n", [1000, 10_000])
@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "conservative"])
@pytest.mark.parametrize("kind", KINDS)
def test_pretest_worst_case_rows_match_their_exact_error_probabilities(kind, consistent, n):
    # the pretest takes one value below -n**-0.25, one up to n**-0.25 and one above, so a row's exact
    # error probability is the N(theta, 1/n) mass of the regions whose value misses the true cdf by more
    # than epsilon: a sum of at most three Phi differences
    path = CONSISTENT_PATH if consistent else PowerTuningPath(1.0, 0.5)
    tuning = TuningPlan(path.eta(n))
    rep = estimator_worst_case(PretestPlugin(consistent=consistent), kind, n, 0.0, tuning, 2.0, seed=7)
    values = reference_pretest_cdf(kind, consistent, n, tuning, 0.0, np.array([-np.inf, 0.0, np.inf]))
    thetas = np.array(rep.column("theta"))
    truths = finite_sample_dist(kind, ModelPoint(n, thetas), tuning).cdf(0.0)
    below, up_to = (norm_cdf(math.sqrt(n) * (end - thetas)) for end in (-n**-0.25, n**-0.25))
    masses = np.stack([below, up_to - below, 1.0 - up_to])
    exact = np.sum(masses, axis=0, where=np.abs(values[:, None] - truths) > rep.meta["epsilon"])
    assert np.all(np.abs(np.array(rep.column("err_prob")) - exact) <= binomial_band(exact, 10_000))


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
        # the bootstrap cdf is Phi of the mapped point of the law F_{m,ybar}: bit for bit the law's own cdf
        # where its walk adds a single term, bit for bit Phi of the law's mapped point everywhere, and
        # within the law test's bound of the estimator-map oracle wherever the law's shifts and ends stay
        # below 16 (the sweep of test_cdf_equals_estimator_map_oracle_over_extreme_inputs)
        spec, ctx, m, tuning_m = bootstrap_problem(kind, full_n, 0.0)
        ybar = np.linspace(-3.0, 3.0, 41) * ctx.tuning.eta
        theta_hat = estimate(kind, ybar, ctx.tuning)
        laws = finite_sample_dist(kind, ModelPoint(m, ybar), tuning_m)
        loc = laws.atoms[0].loc
        # law i's shifts and finite ends all below 16
        small = np.all([np.broadcast_to((abs(v) < 16.0) | np.isinf(v), ybar.shape) for p in laws.pieces
                        for v in p[1:]], axis=0)
        single_terms = oracle_points = 0
        for t in (-1.0, 0.0, 0.5):
            x = t - math.sqrt(m) * (ybar - theta_hat)
            got = spec.estimate_cdf(ybar, replace(ctx, t=t))
            # the first piece alone, or hard's gap below the atom, where the law's cdf is Phi of one value
            single = (x < loc) & ((x <= laws.pieces[0].upper) | (kind is EstimatorKind.HARD))
            assert got[single].tobytes() == laws.cdf(x)[single].tobytes()
            assert got.tobytes() == norm_cdf(mapped_point_reference(laws, x)).tobytes()
            single_terms += int(np.sum(single))
            for y, v, a, value, keep in zip(ybar.tolist(), x.tolist(), loc.tolist(), got.tolist(), small.tolist()):
                if not keep or abs(v - a) <= 1e-12 * max(1.0, abs(a)):  # the atom's float may sit an ulp off
                    continue
                want, want_sf = map_tails(kind, m, y, tuning_m.eta, tuning_m.scad_a, v, "sqrt_n")
                if want < 1e-290:
                    assert abs(value - want) <= 1e-300
                else:
                    assert abs(value - want) <= 4 * EPS * (1 - 2 * mpmath.log(want)) * want, (y, v, value, want)
                assert abs(1.0 - value - want_sf) <= 4 * EPS
                oracle_points += 1
        # scad's first piece ends at loc - a*se, below every x here (test_mapped_point_is_the_laws_cdf in
        # test_finite_dist takes points there), and at m = n every scad law has ends past 16
        assert single_terms > 0 or kind is EstimatorKind.SCAD
        assert oracle_points > 0 or not any(small)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_calls_phi_only_where_a_batch_needs_it(self, monkeypatch, kind):
        # one normal-cdf point per ybar, at its mapped point; the mass check adds points only for laws whose
        # mapped ends could miss at a join, and none does here
        spec, ctx, _, _ = bootstrap_problem(kind, False, 0.0)
        ybar = np.linspace(-3.0, 3.0, 10_000) * ctx.tuning.eta
        points = []

        def counting_norm_cdf(z):
            points.append(np.size(z))
            return norm_cdf(z)

        for module in (finite_dist, impossibility):
            monkeypatch.setattr(module, "norm_cdf", counting_norm_cdf)
        for t in (-1.0, 0.0, 0.5):
            points.clear()
            spec.estimate_cdf(ybar, replace(ctx, t=t))
            assert sum(points) <= ybar.size

    @pytest.mark.parametrize("full_n", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_builds_no_law(self, monkeypatch, kind, full_n):
        built = []
        init = finite_dist.MixtureDistribution.__post_init__
        monkeypatch.setattr(finite_dist.MixtureDistribution, "__post_init__",
                            lambda law, phi: built.append(law) or init(law, phi))
        build = finite_dist._mixture
        monkeypatch.setattr(finite_dist, "_mixture", lambda *args: built.append(args) or build(*args))
        spec, ctx, _, _ = bootstrap_problem(kind, full_n, 0.0)
        for t in (-1.0, 0.0, 0.5):
            spec.estimate_cdf(np.linspace(-3.0, 3.0, 101) * ctx.tuning.eta, replace(ctx, t=t))
        assert built == []

    @pytest.mark.parametrize("ybar", [-1e307, 1e307])
    @pytest.mark.parametrize("kind", [EstimatorKind.HARD, EstimatorKind.SCAD])
    def test_exact_past_the_float_range_is_quiet(self, kind, ybar):
        # -sqrt(m)*ybar overflows: the atom sits at -+inf, the estimate is ybar itself and the
        # law is the standard normal, so the cdf at t = 0 is 1/2, with no warning
        n = 10**8
        spec = MOutOfNBootstrap(path=CONSISTENT_PATH)
        ctx = _HarnessContext(kind=kind, n=n, t=0.0, tuning=TuningPlan(CONSISTENT_PATH.eta(n)), true_value=math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spec.estimate_cdf(np.array([ybar, ybar]), ctx)
        assert got.tolist() == [0.5, 0.5]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP live defect: soft estimate at |ybar| >= 2**53*eta returns ybar itself, so the exact bootstrap "
        "reads ybar - theta_hat as 0 and loses its shift: at n = 1e8, ybar = -1e307 it returns Phi(-10) = 7.6e-24"))
    def test_exact_soft_keeps_its_shift_at_a_huge_ybar(self):
        # at m = 1e4 the law is sqrt(m)*(ybar* + eta_m - ybar) ~ N(sqrt(m)*eta_m, 1) = N(10, 1), read at
        # t - sqrt(m)*(ybar - theta_hat) = sqrt(m)*eta_n = 1, since theta_hat = ybar + eta_n: Phi(-9)
        n = 10**8
        spec = MOutOfNBootstrap(path=CONSISTENT_PATH)
        ctx = _HarnessContext(kind=EstimatorKind.SOFT, n=n, t=0.0, tuning=TuningPlan(CONSISTENT_PATH.eta(n)),
                              true_value=math.nan)
        got = spec.estimate_cdf(np.array([-1e307]), ctx)
        assert got[0] == pytest.approx(float(mpmath.ncdf(-9)), rel=1e-12, abs=0)

    def test_exact_keeps_the_builds_mass_check(self):
        # at m = 1e30 the scad law's float shifts miss at its joins, so its mass reads 1.0016 and the build
        # rejects it (the strict xfail on the scad law at n = 1e30 in test_finite_dist); so does the bootstrap
        class FixedPath:
            def eta(self, m):
                return 0.05

        spec = MOutOfNBootstrap(path=FixedPath(), m_rule=lambda n: 10**30)
        ctx = _HarnessContext(kind=EstimatorKind.SCAD, n=100, t=0.0, tuning=TuningPlan(0.05), true_value=math.nan)
        with pytest.raises(ValueError, match="mixture mass .* is not 1 within"):
            spec.estimate_cdf(np.array([-0.1]), ctx)
        with pytest.raises(ValueError, match="mixture mass"):
            finite_sample_dist(EstimatorKind.SCAD, ModelPoint(10**30, -0.1), TuningPlan(0.05))
        # at ybar = 0 the law builds, and the bootstrap reads it: all its mass is on the atom at 0
        law = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(10**30, 0.0), TuningPlan(0.05))
        assert spec.estimate_cdf(np.array([0.0]), ctx).tolist() == [law.cdf(0.0)] == [1.0]

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
