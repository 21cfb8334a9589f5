import mpmath
import numpy as np
import pytest
from oracles import estimator_map_lower, estimator_map_upper, objective_argmin, scad_estimate_reference

from shrinkdist.estimators import (
    EstimatorKind,
    TuningPlan,
    estimate,
    penalized_objective,
)

KINDS = list(EstimatorKind)
TUNING = TuningPlan(0.5, 3.7)
BRANCH_TUNINGS = [(0.05, 3.7), (0.08, 2.5), (0.0316, 5.0), (1e-300, 2.0 + 1e-12)]  # (eta, scad a)


def _branch_points(eta: float, a: float) -> np.ndarray:
    """+-0.0 and each branch end +-eta, +-2*eta, +-a*eta with its neighbours one ulp either side."""
    ends = np.array([eta, 2.0 * eta, a * eta])
    ends = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf)])
    return np.concatenate([[0.0, -0.0], ends, -ends])


def test_hard_below_threshold():
    assert estimate(EstimatorKind.HARD, 0.3, TUNING) == 0.0


def test_hard_above_threshold_keeps_mean():
    assert estimate(EstimatorKind.HARD, 0.81, TUNING) == 0.81


def test_soft_shrinks_by_eta():
    assert estimate(EstimatorKind.SOFT, 0.7, TUNING) == pytest.approx(0.2)
    assert estimate(EstimatorKind.SOFT, -0.7, TUNING) == pytest.approx(-0.2)


def test_scad_blend_branch():
    # (2.7*1.5 - 3.7*0.5) / 1.7
    assert estimate(EstimatorKind.SCAD, 1.5, TUNING) == pytest.approx(1.2941176470588236, abs=1e-12)


def test_scad_outer_branch_is_identity():
    assert estimate(EstimatorKind.SCAD, 2.0, TUNING) == 2.0
    assert estimate(EstimatorKind.SCAD, -5.1, TUNING) == -5.1


@pytest.mark.parametrize("kind", KINDS)
def test_zero_exactly_on_boundary(kind):
    assert estimate(kind, 0.5, TUNING) == 0.0
    assert estimate(kind, -0.5, TUNING) == 0.0
    assert estimate(kind, 0.5000001, TUNING) != 0.0
    assert estimate(kind, -0.5000001, TUNING) != 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_zero_set_matches_threshold(kind):
    eta = TUNING.eta
    ys = np.linspace(-2.0, 2.0, 20_001)
    vals = estimate(kind, ys, TUNING)
    np.testing.assert_array_equal(vals == 0.0, np.abs(ys) <= eta)


@pytest.mark.parametrize("kind", KINDS)
def test_odd_symmetry(kind):
    ys = np.linspace(-3.0, 3.0, 10_001)
    np.testing.assert_array_equal(estimate(kind, -ys, TUNING), -estimate(kind, ys, TUNING))


def test_soft_hard_relation_exact():
    rng = np.random.default_rng(2024)
    ys = rng.uniform(-4, 4, size=100_000)
    for eta in (0.05, 0.5, 1.3):
        tun = TuningPlan(eta)
        hard = estimate(EstimatorKind.HARD, ys, tun)
        soft = estimate(EstimatorKind.SOFT, ys, tun)
        np.testing.assert_array_equal(soft, hard - np.sign(hard) * eta)


def test_sandwich_ordering():
    rng = np.random.default_rng(7)
    ys = np.linspace(-5.0, 5.0, 100_001)
    for _ in range(5):
        a = float(rng.uniform(2.05, 8.0))
        eta = float(rng.uniform(0.05, 1.5))
        tun = TuningPlan(eta, a)
        hard = estimate(EstimatorKind.HARD, ys, tun)
        soft = estimate(EstimatorKind.SOFT, ys, tun)
        scad = estimate(EstimatorKind.SCAD, ys, tun)
        pos = soft >= 0
        assert np.all(soft[pos] <= scad[pos] + 1e-15)
        assert np.all(scad[pos] <= hard[pos] + 1e-15)
        neg = soft <= 0
        assert np.all(hard[neg] <= scad[neg] + 1e-15)
        assert np.all(scad[neg] <= soft[neg] + 1e-15)


@pytest.mark.parametrize("kind", [EstimatorKind.SOFT, EstimatorKind.SCAD])
def test_continuity(kind):
    ys = np.arange(-2.0, 2.0, 1e-6)
    vals = estimate(kind, ys, TUNING)
    assert np.max(np.abs(np.diff(vals))) <= 1e-5


def test_hard_discontinuous_only_at_threshold():
    eps = 1e-12
    assert abs(estimate(EstimatorKind.HARD, 0.5 + eps, TUNING) - 0.0) > 0.49
    ys = np.arange(0.51, 3.0, 1e-4)
    vals = estimate(EstimatorKind.HARD, ys, TUNING)
    assert np.max(np.abs(np.diff(vals))) < 2e-4


def test_hodges_instance():
    for n in (16, 10_000):
        eta = n ** -0.25
        tun = TuningPlan(eta)
        ys = np.linspace(-1.0, 1.0, 4001)
        expected = np.where(np.abs(ys) > eta, ys, 0.0)
        np.testing.assert_array_equal(estimate(EstimatorKind.HARD, ys, tun), expected)


@pytest.mark.parametrize("eta, a", BRANCH_TUNINGS)
def test_scad_estimate_bytes_equal_per_branch_expression(eta, a):
    ys = np.concatenate([_branch_points(eta, a), eta * np.random.default_rng(7).normal(0.0, 3.0, 4096)])
    got = estimate(EstimatorKind.SCAD, ys, TuningPlan(eta, a))
    assert got.tobytes() == scad_estimate_reference(ys, eta, a).tobytes()  # bytes, so -0.0 and 0.0 differ


@pytest.mark.parametrize("eta, a", BRANCH_TUNINGS)
@pytest.mark.parametrize("kind", KINDS)
def test_estimator_map_inverts_estimate_at_branch_ends(kind, eta, a):
    # g-(c) <= y <= g+(c) for c = g(y); off the zero set g+ = g- is y up to the estimate's rounding,
    # a few ulps of max(|y|, a*eta); at a = 2 + 1e-12 the clamp of the scad blend keeps it so at the ends
    ys = _branch_points(eta, a)
    with mpmath.workdps(60):
        mp_eta, mp_a = mpmath.mpf(eta), mpmath.mpf(a)
        for y, c in zip(ys.tolist(), estimate(kind, ys, TuningPlan(eta, a)).tolist()):
            upper, lower = (f(kind, mpmath.mpf(c), mp_eta, mp_a) for f in (estimator_map_upper, estimator_map_lower))
            if c == 0.0:
                assert abs(y) <= eta and (lower, upper) == (-mp_eta, mp_eta)
            else:
                assert abs(y) > eta and upper == lower
                assert abs(upper - y) <= 4 * 2.0**-52 * max(abs(y), a * eta)


def test_estimate_rejects_nonfinite():
    with pytest.raises(ValueError):
        estimate(EstimatorKind.HARD, np.inf, TUNING)


def test_objective_hard_zero_penalty_at_origin():
    val = penalized_objective(EstimatorKind.HARD, 0.0, 0.0, 10, TUNING)
    assert val == 0.0


def test_objective_soft_pinned():
    # 10*(0.7-0.2)^2 + 2*10*0.5*0.2
    val = penalized_objective(EstimatorKind.SOFT, 0.2, 0.7, 10, TUNING)
    assert val == pytest.approx(4.5, abs=1e-12)


# 2*p(|theta|) at eta = 0.5, a = 3.7 with ybar = theta, one theta per branch:
# 2*eta*t, then -(t^2 - 2*a*eta*t + eta^2)/(a - 1) = 2.07/2.7, then (a + 1)*eta^2
@pytest.mark.parametrize("theta, expected", [(0.3, 0.3), (-0.8, 2.07 / 2.7), (2.0, 1.175)])
def test_objective_scad_pinned_on_each_branch(theta, expected):
    val = penalized_objective(EstimatorKind.SCAD, theta, theta, 1, TUNING)
    assert val == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimate_is_objective_argmin(kind):
    rng = np.random.default_rng(11)
    for _ in range(100):
        ybar = float(rng.uniform(-2, 2))
        eta = float(rng.uniform(0.05, 1.0))
        tun = TuningPlan(eta)
        assert estimate(kind, ybar, tun) == objective_argmin(kind, ybar, 7, tun)


@pytest.mark.parametrize("a", [2.1, 6.0])
def test_scad_estimate_is_objective_argmin_for_each_shape(a):
    rng = np.random.default_rng(12)
    for _ in range(200):
        tun = TuningPlan(float(rng.uniform(0.05, 0.5)), a)
        ybar = float(rng.uniform(-1.2, 1.2)) * a * tun.eta
        assert estimate(EstimatorKind.SCAD, ybar, tun) == objective_argmin(EstimatorKind.SCAD, ybar, 3, tun)


def test_tuning_validation():
    with pytest.raises(ValueError, match="eta > 0"):
        TuningPlan(0.0)
    with pytest.raises(ValueError, match="scad_a > 2"):
        TuningPlan(0.5, 1.5)
    with pytest.raises(ValueError, match="eta > 0"):
        TuningPlan(True)
    with pytest.raises(ValueError, match="scad_a > 2"):
        TuningPlan(0.5, True)


def test_tuning_stores_its_fields_as_floats():
    tuning = TuningPlan(np.array(0.1), np.array(3.7))
    assert type(tuning.eta) is float and type(tuning.scad_a) is float
    assert tuning == TuningPlan(0.1, 3.7) and hash(tuning) == hash(TuningPlan(0.1, 3.7))
    assert type(TuningPlan(1, 3).scad_a) is float


def test_kind_parse():
    assert EstimatorKind.parse("Hard") is EstimatorKind.HARD
    with pytest.raises(ValueError):
        EstimatorKind.parse("ridge")


@pytest.mark.parametrize("name", [3, None, ["hard"], b"hard"])
def test_kind_parse_rejects_a_non_string_naming_it(name):
    with pytest.raises(ValueError, match="unknown estimator kind") as err:
        EstimatorKind.parse(name)
    assert repr(name) in str(err.value)
