import math
import warnings

import numpy as np
import pytest

from shrinkdist.estimators import EstimatorKind, TuningPlan, penalized_objective
from shrinkdist.finite_dist import ModelPoint
from shrinkdist.impossibility import OracleCheat, TwoPointProblem, estimator_worst_case, minimax_lower_bound
from shrinkdist.montecarlo import SimConfig, simulate_estimates
from shrinkdist.normal_kernel import gaussian_tv, norm_cdf, norm_pdf

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
    with pytest.raises(ValueError):
        norm_pdf(math.inf)
    with pytest.raises(ValueError):
        norm_pdf(math.nan)


@pytest.mark.parametrize("x,expected", sorted(CDF_TABLE.items()))
def test_cdf_pinned_values(x, expected):
    assert norm_cdf(x) == pytest.approx(expected, abs=1e-15)


def test_cdf_boundaries():
    assert norm_cdf(-math.inf) == 0.0
    assert norm_cdf(math.inf) == 1.0


def test_cdf_reflection_identity():
    xs = np.linspace(-10, 10, 2001)
    assert np.max(np.abs(norm_cdf(xs) + norm_cdf(-xs) - 1.0)) <= 1e-15


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
}


@pytest.mark.parametrize("n", [True, 2.5, 0, -3, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("site", SAMPLE_SIZE_SITES)
def test_every_sample_size_is_a_positive_integer(site, n):
    name, call = SAMPLE_SIZE_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer \(got {n!r}\)$"):
        call(n)



@pytest.mark.parametrize("site, field", [("ModelPoint", "n"), ("TwoPointProblem", "n"), ("SimConfig", "replications")])
def test_a_whole_float_count_is_stored_as_an_int(site, field):
    count = getattr(SAMPLE_SIZE_SITES[site][1](40.0), field)
    assert type(count) is int and count == 40


def test_a_whole_float_count_gives_the_int_count_result():
    config = SAMPLE_SIZE_SITES["SimConfig"][1]
    draws = simulate_estimates(EstimatorKind.HARD, config(200.0)).values
    np.testing.assert_array_equal(draws, simulate_estimates(EstimatorKind.HARD, config(200)).values)
    worst_case = SAMPLE_SIZE_SITES["estimator_worst_case"][1]
    assert worst_case(200.0) == worst_case(200)
