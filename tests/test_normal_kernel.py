import math
import re
import warnings

import numpy as np
import pytest
from oracles import negated_norm_cdf

from shrinkdist.estimators import EstimatorKind, TuningPlan, penalized_objective
from shrinkdist.finite_dist import ModelPoint
from shrinkdist.impossibility import (
    MOutOfNBootstrap,
    OracleCheat,
    TwoPointProblem,
    estimator_worst_case,
    minimax_lower_bound,
)
from shrinkdist.montecarlo import SimConfig, simulate_estimates
from shrinkdist.normal_kernel import gaussian_tv, norm_cdf, norm_pdf
from shrinkdist.selection import PowerTuningPath, ThetaRule

MAX_FLOAT = float(np.finfo(float).max)
# frozen against a 40-digit mpmath evaluation
PHI_0 = 0.3989422804014327
CDF_196 = 0.9750021048517795
CDF_TABLE = {
    -5.0: 2.8665157187919391e-07,
    -2.0: 0.022750131948179195,
    -1.0: 0.15865525393145705,
    0.0: 0.5,
    0.5: 0.6914624612740131,
    1.3: 0.9031995154143897,
    1.96: 0.9750021048517795,
    6.0: 0.9999999990134124,
}


def test_pdf_at_zero():
    assert norm_pdf(0.0) == pytest.approx(PHI_0, rel=1e-14)


def test_pdf_even():
    assert norm_pdf(1.3) == norm_pdf(-1.3)
    assert norm_pdf(1.3) == pytest.approx(0.17136859204780736, rel=1e-14)


def test_pdf_deep_tail_positive():
    v = norm_pdf(38.0)
    assert 0.0 <= v < 1e-300


def test_pdf_is_zero_without_a_warning_where_the_square_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm_pdf(1e200) == 0.0 and norm_pdf(-1.7976931348623157e308) == 0.0
        np.testing.assert_array_equal(norm_pdf(np.array([1e200, -1e200, math.inf, -math.inf, 40.0])), 0.0)


def test_pdf_rejects_nonfinite():
    for value in (math.inf, -math.inf, math.nan):
        for form in (float, np.float64, np.array, FloatSubclass):
            with pytest.raises(ValueError, match="norm_pdf requires finite input"):
                norm_pdf(form(value))


class FloatSubclass(float):
    """A float that is not a plain float, so `norm_cdf` takes it through numpy's array path."""


# beside the draws of `test_a_float_gives_the_bits_of_one_array_call`: signed zeros, subnormals, the far
# tails of both kernels, and the last four, whose squares overflow
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.7e308, -1.7e308, MAX_FLOAT, -MAX_FLOAT, 37.5,
               -37.5, 38.5, -38.5, 8.3, -8.3, 1.35e154, -1.4e154, 1e200]


def test_a_float_gives_the_bits_of_one_array_call():
    rng = np.random.default_rng(46)
    xs = np.concatenate([rng.normal(0.0, 1.0, 33_333), rng.normal(0.0, 10.0, 33_333), rng.uniform(-40.0, 40.0, 33_333),
                         EDGE_FLOATS])
    floats = xs.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (norm_cdf, norm_pdf):
            got = [kernel(x) for x in floats]
            assert {type(v) for v in got} == {float}
            assert np.array(got).tobytes() == kernel(xs).tobytes()
        assert math.isnan(norm_cdf(math.nan)) and np.isnan(norm_cdf(np.array([math.nan])))
        assert [norm_pdf(x) for x in EDGE_FLOATS[-3:] + [-MAX_FLOAT]] == [0.0] * 4


@pytest.mark.parametrize("form", [np.float64, np.array, FloatSubclass])
def test_a_numpy_real_or_0_d_array_gives_the_float_result(form):
    for kernel in (norm_cdf, norm_pdf):
        for x in (0.3, -8.3, 0.0, -0.0, 1e200, -39.0):
            got = kernel(form(x))
            assert type(got) is float and got.hex() == kernel(x).hex()


@pytest.mark.parametrize("x,expected", sorted(CDF_TABLE.items()))
def test_cdf_pinned_values(x, expected):
    assert norm_cdf(x) == pytest.approx(expected, abs=1e-15)


def test_cdf_boundaries():
    assert norm_cdf(-math.inf) == 0.0
    assert norm_cdf(math.inf) == 1.0


def test_cdf_reflection_identity():
    xs = np.linspace(-10, 10, 2001)
    assert np.max(np.abs(norm_cdf(xs) + norm_cdf(-xs) - 1.0)) <= 1e-15


def test_cdf_equals_the_negated_argument_form_bit_for_bit():
    # norm_cdf divides x by -sqrt(2); division rounds symmetrically in sign, so every non-NaN x gives the
    # bits of -x / sqrt(2), and NaN stays NaN
    rng = np.random.default_rng(2008)
    patterns = np.frombuffer(rng.bytes(8 * 1_000_000), dtype=float)
    edges = [0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, math.inf, -math.inf]
    x = np.concatenate([patterns[~np.isnan(patterns)], np.linspace(-40.0, 40.0, 1_000_001), edges])
    assert np.array_equal(norm_cdf(x).view(np.uint64), negated_norm_cdf(x).view(np.uint64))
    assert [norm_cdf(v).hex() for v in edges] == [float(negated_norm_cdf(v)).hex() for v in edges]
    nans = np.concatenate([patterns[np.isnan(patterns)], [math.nan, -math.nan]])
    with np.errstate(invalid="ignore"):  # a signaling NaN warns in either form's division
        assert nans.size > 2 and np.isnan(norm_cdf(nans)).all() and math.isnan(norm_cdf(math.nan))


def test_cdf_monotone():
    xs = np.linspace(-40, 40, 4001)
    assert np.all(np.diff(norm_cdf(xs)) >= 0.0)


def test_cdf_derivative_matches_pdf():
    h = 1e-5
    for x in np.linspace(-4, 4, 41):
        num = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        assert num == pytest.approx(norm_pdf(x), abs=1e-6)


def test_gaussian_tv_identical_measures():
    assert gaussian_tv(7, 0.3, 0.3) == 0.0


def test_gaussian_tv_pinned():
    # TV(N(0, 1/4), N(1, 1/4)) = 2*cdf(1) - 1
    assert gaussian_tv(4, 0.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)


def test_gaussian_tv_grid_oracle():
    # densities of N(0,1/n) and N(d,1/n) on a fine grid: TV = 0.5 * L1 distance
    n, d = 4, 1.0
    xs = np.linspace(-8, 9, 1_000_001)
    sd = 1 / math.sqrt(n)
    f = np.exp(-0.5 * (xs / sd) ** 2)
    g = np.exp(-0.5 * ((xs - d) / sd) ** 2)
    norm = 1 / (sd * math.sqrt(2 * math.pi))
    l1 = np.trapezoid(np.abs(f - g) * norm, xs)
    assert gaussian_tv(n, 0.0, d) == pytest.approx(0.5 * l1, abs=1e-6)


def test_gaussian_tv_monotone_and_bounded():
    deltas = np.linspace(0.0, 5.0, 101)
    vals = [gaussian_tv(9, 0.0, d) for d in deltas]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gaussian_tv_depends_on_scaled_separation():
    assert gaussian_tv(16, 0.0, 1.0) == gaussian_tv(4, 0.0, 2.0)
    assert gaussian_tv(16, 1.0, 2.0) == gaussian_tv(16, -3.0, -2.0)


def test_gaussian_tv_rejects_bad_n():
    with pytest.raises(ValueError):
        gaussian_tv(0, 0.0, 1.0)


# each site that takes a count: (the name its error gives, a call passing the count)
SAMPLE_SIZE_SITES = {
    "ModelPoint": ("n", lambda n: ModelPoint(n, 0.0)),
    "TwoPointProblem": ("n", lambda n: TwoPointProblem(n, 0.0, 0.1, TuningPlan(0.5), EstimatorKind.HARD)),
    "gaussian_tv": ("n", lambda n: gaussian_tv(n, 0.0, 1.0)),
    "penalized_objective": ("n", lambda n: penalized_objective(EstimatorKind.HARD, 0.0, 0.0, n, TuningPlan(0.5))),
    "SimConfig": ("replications", lambda r: SimConfig(1, r, ModelPoint(40, 0.1), TuningPlan(0.05))),
    "estimator_worst_case": ("replications", lambda r: estimator_worst_case(
        OracleCheat(), EstimatorKind.HARD, 100, 0.0, TuningPlan(0.5), 2.0, seed=1, replications=r)),
    "minimax_lower_bound": ("sweep_steps", lambda k: minimax_lower_bound(
        TwoPointProblem(100, 0.0, 0.1, TuningPlan(0.5), EstimatorKind.HARD), sweep_steps=k)),
    "PowerTuningPath.eta": ("n", lambda n: PowerTuningPath(1.0, 0.25).eta(n)),
    "ThetaRule.theta": ("n", lambda n: ThetaRule.local(1.0).theta(n, 0.1)),
    "MOutOfNBootstrap": ("m", lambda m: estimator_worst_case(
        MOutOfNBootstrap(PowerTuningPath(1.0, 0.25), m_rule=lambda n: m), EstimatorKind.HARD, 100, 0.0,
        TuningPlan(0.5), 2.0, seed=1, replications=10)),
}


@pytest.mark.parametrize("n", [True, 2.5, 0, -3, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("site", SAMPLE_SIZE_SITES)
def test_every_sample_size_is_a_positive_integer(site, n):
    name, call = SAMPLE_SIZE_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer \(got {n!r}\)$"):
        call(n)


@pytest.mark.parametrize("n", [10**400, 2**1024, int(np.finfo(float).max) + 1])
@pytest.mark.parametrize("site", SAMPLE_SIZE_SITES)
def test_a_count_past_the_largest_float_names_itself(site, n):
    # every count is used as a float somewhere: past the largest float, float(n) would raise OverflowError
    name, call = SAMPLE_SIZE_SITES[site]
    message = rf"^{name} must be at most the largest float, 1\.7976931348623157e\+308 \(got {n!r}\)$"
    with pytest.raises(ValueError, match=message):
        call(n)


@pytest.mark.parametrize("site, field", [("ModelPoint", "n"), ("TwoPointProblem", "n"), ("SimConfig", "replications")])
def test_a_whole_float_count_is_stored_as_an_int(site, field):
    count = getattr(SAMPLE_SIZE_SITES[site][1](40.0), field)
    assert type(count) is int and count == 40


@pytest.mark.parametrize("site", ["PowerTuningPath.eta", "ThetaRule.theta", "MOutOfNBootstrap"])
def test_a_whole_float_count_argument_gives_the_int_result(site):
    call = SAMPLE_SIZE_SITES[site][1]
    assert call(40.0) == call(np.float64(40)) == call(40)


# each site that takes a seed: a call passing the seed
SEED_SITES = {
    "SimConfig": lambda s: SimConfig(s, 10, ModelPoint(40, 0.1), TuningPlan(0.05)),
    "estimator_worst_case": lambda s: estimator_worst_case(
        OracleCheat(), EstimatorKind.HARD, 100, 0.0, TuningPlan(0.5), 2.0, seed=s, replications=10),
}


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.7, "1", math.nan, math.inf, None])
@pytest.mark.parametrize("site", SEED_SITES)
def test_every_seed_is_a_nonnegative_integer(site, seed):
    with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer \(got {re.escape(repr(seed))}\)$"):
        SEED_SITES[site](seed)


@pytest.mark.parametrize("seed", [-1, 2**64, 1e20, -1.0])
@pytest.mark.parametrize("site", SEED_SITES)
def test_every_seed_fits_in_64_unsigned_bits(site, seed):
    with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
        SEED_SITES[site](seed)


def test_a_whole_float_seed_gives_the_int_seed_result():
    config = SEED_SITES["SimConfig"]
    assert type(config(7.0).seed) is int and config(2**64 - 1).seed == 2**64 - 1
    draws = simulate_estimates(EstimatorKind.HARD, config(7.0)).values
    np.testing.assert_array_equal(draws, simulate_estimates(EstimatorKind.HARD, config(np.uint64(7))).values)
    assert SEED_SITES["estimator_worst_case"](7.0) == SEED_SITES["estimator_worst_case"](7)


def test_a_whole_float_count_gives_the_int_count_result():
    config = SAMPLE_SIZE_SITES["SimConfig"][1]
    draws = simulate_estimates(EstimatorKind.HARD, config(200.0)).values
    np.testing.assert_array_equal(draws, simulate_estimates(EstimatorKind.HARD, config(200)).values)
    worst_case = SAMPLE_SIZE_SITES["estimator_worst_case"][1]
    assert worst_case(200.0) == worst_case(200)
