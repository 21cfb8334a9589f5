import numpy as np
import pytest
from oracles import objective_argmin

from shrinkdist.estimators import (
    EstimatorKind,
    TuningPlan,
    estimate,
    penalized_objective,
)

KINDS = list(EstimatorKind)
TUNING = TuningPlan(0.5, 3.7)


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


def test_objective_scad_unavailable():
    with pytest.raises(ValueError, match="argmin verified against closed form"):
        penalized_objective(EstimatorKind.SCAD, 0.1, 0.2, 5, TUNING)


@pytest.mark.parametrize("kind", [EstimatorKind.HARD, EstimatorKind.SOFT])
def test_estimate_is_objective_argmin(kind):
    rng = np.random.default_rng(11)
    for _ in range(100):
        ybar = float(rng.uniform(-2, 2))
        eta = float(rng.uniform(0.05, 1.0))
        tun = TuningPlan(eta)
        assert estimate(kind, ybar, tun) == objective_argmin(kind, ybar, 7, tun)


def test_tuning_validation():
    with pytest.raises(ValueError, match="eta > 0"):
        TuningPlan(0.0)
    with pytest.raises(ValueError, match="scad_a > 2"):
        TuningPlan(0.5, 1.5)
    with pytest.raises(ValueError, match="eta > 0"):
        TuningPlan(True)
    with pytest.raises(ValueError, match="scad_a > 2"):
        TuningPlan(0.5, True)


def test_kind_parse():
    assert EstimatorKind.parse("Hard") is EstimatorKind.HARD
    with pytest.raises(ValueError):
        EstimatorKind.parse("ridge")
