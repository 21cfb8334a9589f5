"""One rule for every real parameter, one for every array of reals, and one for every list of sample sizes.

A real parameter is an int, a float or a numpy real (a 0-d array too) in
its range, stored and used as a Python float; a bool, a string, NaN, a
value out of range and an infinity where the parameter is not a limit each
raise a ValueError that names the parameter and the value.  An array of
reals (a batch theta, a ybar, the delta of `estimand_gap`, each theta of
`gaussian_tv`) is a finite real number or a nonempty 1-d list, tuple or
array of them, each item by the real rule.  A list of sample sizes is
nonempty, each item a count, and strictly increasing.
"""

import math
import re

import numpy as np
import pytest

from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate, penalized_objective
from shrinkdist.finite_dist import ModelPoint
from shrinkdist.impossibility import (
    MOutOfNBootstrap,
    OracleCheat,
    PretestPlugin,
    TwoPointProblem,
    _HarnessContext,
    estimand_gap,
    estimator_worst_case,
    minimax_lower_bound,
    rescaled_lower_bound,
)
from shrinkdist.limits import (
    canonical_scenarios,
    conservative_limit,
    consistent_limit,
    rescaled_limit,
    weak_convergence_check,
)
from shrinkdist.montecarlo import uniform_rate_experiment
from shrinkdist.normal_kernel import _check_reals, gaussian_tv
from shrinkdist.selection import PowerTuningPath, RegimeSpec, ThetaRule, selection_convergence_table

HARD, SCAD = EstimatorKind.HARD, EstimatorKind.SCAD
PATH = PowerTuningPath(1.0, 0.25)
PROBLEM = TwoPointProblem(100, 0.0, 0.1, TuningPlan(0.5), HARD)


def _worst_case(t=0.0, c=2.0):
    report = estimator_worst_case(OracleCheat(), HARD, 100, t, TuningPlan(0.5), c, seed=1, replications=10)
    return report.meta, report.rows


def _law(law):
    return law.to_json()


# site: (the name its error gives, a call passing the value, what the call stores or returns from it,
#        a valid whole value, values out of range, whether the value is a limit and so may be infinite)
REAL_SITES = {
    "TuningPlan.eta": ("eta", TuningPlan, lambda t: t.eta, 1, [0, -0.5], False),
    "TuningPlan.scad_a": ("scad_a", lambda a: TuningPlan(0.1, a), lambda t: t.scad_a, 3, [2, 1.5, 0], False),
    "ModelPoint.theta": ("theta", lambda v: ModelPoint(40, v), lambda p: p.theta, 1, [], False),
    "RegimeSpec.e": ("e", RegimeSpec, lambda r: r.e, 1, [-0.5, -math.inf], True),
    "RegimeSpec.nu": ("nu", lambda v: RegimeSpec(1.0, nu=v), lambda r: r.nu, 1, [], True),
    "RegimeSpec.zeta": ("zeta", lambda v: RegimeSpec(1.0, zeta=v), lambda r: r.zeta, 1, [], True),
    "RegimeSpec.r": ("r", lambda v: RegimeSpec(math.inf, zeta=1.0, r=v), lambda r: r.r, 1, [], True),
    "PowerTuningPath.scale": ("scale", lambda v: PowerTuningPath(v, 0.25), lambda p: p.scale, 2, [0, -1.0], False),
    "PowerTuningPath.exponent": ("exponent", lambda v: PowerTuningPath(1.0, v), lambda p: p.exponent, 0.5,
                                 [0, -0.25, 0.75, 1], False),
    "ThetaRule.local.nu": ("nu", ThetaRule.local, lambda r: r.offset, 2, [], False),
    "ThetaRule.local.perturb": ("perturb", lambda v: ThetaRule.local(0.0, v), lambda r: r.perturb, 1, [], False),
    "ThetaRule.eta_multiple": ("zeta", ThetaRule.eta_multiple, lambda r: r.zeta, 3, [], False),
    "ThetaRule.boundary.zeta": ("zeta", lambda v: ThetaRule.boundary(v, 0.5), lambda r: r.zeta, -1, [], False),
    "ThetaRule.boundary.r": ("r", lambda v: ThetaRule.boundary(1.0, v), lambda r: r.offset, 2, [], False),
    "ThetaRule.fixed": ("value", ThetaRule.fixed, lambda r: r.value, 1, [], False),
    "ThetaRule.offset": ("offset", lambda v: ThetaRule(offset=v), lambda r: r.offset, 1, [], False),
    "ThetaRule.theta": ("eta_n", lambda v: ThetaRule.eta_multiple(2.0).theta(100, v), lambda t: t, 1, [0, -0.5],
                        False),
    "conservative_limit.nu": ("nu", lambda v: conservative_limit(HARD, v, 1.0), _law, 1, [], True),
    "conservative_limit.e": ("e", lambda v: conservative_limit(HARD, 0.5, v), _law, 1, [-1.0], False),
    "conservative_limit.scad_a": ("scad_a", lambda a: conservative_limit(SCAD, 0.5, 1.0, a), _law, 3, [2, 1],
                                  False),
    "consistent_limit.scad_a": ("scad_a", lambda a: consistent_limit(SCAD, RegimeSpec(math.inf, zeta=3.0, r=0.5), a),
                                _law, 3, [2, 1], False),
    "rescaled_limit.scad_a": ("scad_a", lambda a: rescaled_limit(SCAD, RegimeSpec(math.inf, zeta=2.5), a),
                              _law, 3, [2, 1], False),
    "canonical_scenarios": ("scad_a", canonical_scenarios, lambda scs: scs, 3, [2, 1], False),
    "TwoPointProblem.t": ("t", lambda v: TwoPointProblem(100, v, 0.1, TuningPlan(0.5), HARD), lambda p: p.t, 1, [],
                          False),
    "TwoPointProblem.delta": ("delta", lambda v: TwoPointProblem(100, 0.0, v, TuningPlan(0.5), HARD),
                              lambda p: p.delta, 1, [0, -0.1], False),
    "minimax_lower_bound.epsilon": ("epsilon", lambda v: minimax_lower_bound(PROBLEM, epsilon=v), lambda b: b, 0,
                                    [-0.1], False),
    "rescaled_lower_bound.t": ("t", lambda v: rescaled_lower_bound(HARD, 100, v, TuningPlan(0.05)), lambda b: b, 1,
                               [], False),
    "estimator_worst_case.t": ("t", lambda v: _worst_case(t=v), lambda out: out, 1, [], False),
    "estimator_worst_case.c": ("c", lambda v: _worst_case(c=v), lambda out: out, 2, [0, -1.0], False),
    "uniform_rate_experiment.M": ("M", lambda m: uniform_rate_experiment(HARD, PATH, m, [100]),
                                  lambda rep: (rep.meta, rep.rows), 7, [2, 1.5, -3], False),
    "penalized_objective.theta": ("theta", lambda v: penalized_objective(HARD, v, 0.0, 10, TuningPlan(0.5)),
                                  lambda f: f, 1, [], False),
    "penalized_objective.ybar": ("ybar", lambda v: penalized_objective(HARD, 0.0, v, 10, TuningPlan(0.5)),
                                 lambda f: f, 1, [], False),
}

class FloatSubclass(float):
    """A float that is not a plain float: the real rule takes it as a numbers.Real and stores a plain float."""


BAD_VALUES = [("true", True), ("false", False), ("str", "1"), ("nan", math.nan), ("np-nan", np.float64("nan")),
              ("subclass-nan", FloatSubclass("nan")), ("none", None), ("list", [1.0]), ("complex", 1j),
              ("bool-array", np.array(True)), ("huge-int", 10**400)]
OPTIONAL = {"RegimeSpec.nu", "RegimeSpec.zeta", "RegimeSpec.r", "minimax_lower_bound.epsilon"}  # None leaves it unset


def _rejects(site, value):
    name, call, *_ = REAL_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be .* \(got {re.escape(repr(value))}\)$"):
        call(value)


# a list of theta is a batch of points, not a bad theta
@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{label}") for site in REAL_SITES for label, value in BAD_VALUES
    if not (value is None and site in OPTIONAL or label == "list" and site == "ModelPoint.theta")])
def test_a_real_parameter_that_is_not_a_real_number_names_itself(site, value):
    _rejects(site, value)


@pytest.mark.parametrize("site", REAL_SITES)
def test_a_real_parameter_out_of_its_range_names_itself(site):
    _, _, _, _, out_of_range, limit = REAL_SITES[site]
    for value in out_of_range + ([] if limit else [math.inf, -math.inf]):
        _rejects(site, value)


@pytest.mark.parametrize("site", [s for s in REAL_SITES if REAL_SITES[s][5]])
def test_a_limit_may_be_infinite(site):
    _, call, stored, _, out_of_range, _ = REAL_SITES[site]
    for value in [v for v in (math.inf, -math.inf) if v not in out_of_range]:
        assert stored(call(np.float64(value))) == stored(call(value))


# an int where a whole value lies in the range
@pytest.mark.parametrize("site, form", [
    pytest.param(site, form, id=f"{site}-{label}") for site in REAL_SITES
    for label, form in (("int", int), ("float64", np.float64), ("0-d", np.array), ("float32", np.float32),
                        ("float-subclass", FloatSubclass))
    if form is not int or REAL_SITES[site][3] == int(REAL_SITES[site][3])])
def test_a_real_parameter_is_stored_as_the_float_built_one(site, form):
    _, call, stored, whole, _, _ = REAL_SITES[site]
    got, want = stored(call(form(whole))), stored(call(float(whole)))
    assert got == want
    if isinstance(want, float):
        assert type(got) is float


def test_each_stored_coefficient_is_a_python_float():
    assert all(type(v) is float for v in vars(ThetaRule.boundary(np.array(2), 1, perturb=np.float32(0.5))).values())
    assert all(type(v) is float for v in vars(RegimeSpec(np.array(1), nu=2, zeta=np.float64(0.5), r=3)).values())
    assert type(TwoPointProblem(100, 0, 1, TuningPlan(0.5), HARD).delta) is float
    meta, _ = _worst_case(t=0, c=2)
    assert type(meta["t"]) is float


CTX = _HarnessContext(kind=EstimatorKind.SOFT, n=100, t=0.0, tuning=TuningPlan(0.196), true_value=0.5)
# site: (the name its error gives, a call passing the array of reals)
ARRAY_SITES = {
    "ModelPoint.theta": ("theta", lambda v: ModelPoint(10, v).theta),
    "PretestPlugin.ybar": ("ybar", lambda v: PretestPlugin().estimate_cdf(v, CTX)),
    "MOutOfNBootstrap.ybar": ("ybar", lambda v: MOutOfNBootstrap(path=PATH).estimate_cdf(v, CTX)),
    "OracleCheat.ybar": ("ybar", lambda v: OracleCheat().estimate_cdf(v, CTX)),
    "estimand_gap.delta": ("delta", lambda v: estimand_gap(PROBLEM, v)),
    "estimate.ybar": ("ybar", lambda v: estimate(HARD, v, TuningPlan(0.25))),  # of any shape
    "gaussian_tv.theta1": ("theta1", lambda v: gaussian_tv(100, v, 0.0)),
    "gaussian_tv.theta2": ("theta2", lambda v: gaussian_tv(100, 0.0, v)),
}
SHAPE_FREE_SITES = {"estimate.ybar"}
BAD_ARRAYS = [
    ("empty", []), ("empty-array", np.array([])), ("nested", [[0.1, 0.2]]), ("nan-item", [0.1, math.nan]),
    ("bool-array", np.array([True, False])), ("bool-item", [0.5, True]), ("np-bool-item", [0.5, np.True_]),
    ("str-items", ["0.5", "1"]), ("none-item", [None, 1.0]), ("huge-int-item", [10**400, 1]),
    ("complex-item", [1 + 2j, 0.5]), ("ragged-first", [[0.1], 0.2]), ("ragged-last", [0.1, [0.2, 0.3]]),
    ("true", True), ("bytes", b"0.5"), ("str", "x"), ("none", None), ("complex", 1 + 2j), ("nan", math.nan),
    ("inf", math.inf), ("-inf", -math.inf), ("inf-item", [0.1, math.inf]), ("-inf-item", [-math.inf]),
    ("2-d", np.zeros((2, 3))), ("bools", [True, False]), ("ragged-int", [1, [2, 3]]),
    ("ragged-arrays", [np.zeros((2, 2)), np.zeros((2, 3))]), ("str-array", np.array(["0.5"])),
]
SHAPE_ROWS = {"empty", "empty-array", "nested", "2-d"}  # bad for a 1-d array only


# a scalar theta keeps the real rule's own message, which starts the same way; a delta of None is the problem's;
# a ybar of `estimate` may have any shape
@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{label}") for site in ARRAY_SITES for label, value in BAD_ARRAYS
    if not (value is None and site == "estimand_gap.delta" or site in SHAPE_FREE_SITES and label in SHAPE_ROWS)])
def test_an_array_of_reals_that_is_not_one_names_itself(site, value):
    name, call = ARRAY_SITES[site]
    with pytest.raises(ValueError, match=rf"^{name} must be a finite real number"):
        call(value)


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_an_array_of_reals_takes_any_real_form(site):
    _, call = ARRAY_SITES[site]
    want = call(np.array([0.0, 1.0, -2.0]))
    for form in ([0, 1, -2], (0.0, np.float32(1), np.array(-2)), np.array([0, 1, -2]), np.array([0, 1, -2], "f4")):
        assert np.array_equal(np.asarray(call(form)), np.asarray(want))


def test_the_array_rule_keeps_a_float64_array_and_gives_a_number_0_d():
    arr = np.linspace(-1.0, 1.0, 5)
    assert _check_reals(arr, "x") is arr
    column = arr.reshape(5, 1)
    assert _check_reals(column, "x", shaped=False) is column
    for number in (2, 2.0, np.float32(2), np.array(2)):
        got = _check_reals(number, "x")
        assert got.dtype == np.float64 and got.shape == () and got == 2.0


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimate_takes_reals_of_any_shape(kind):
    tuning, grid = TuningPlan(0.25), np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    for form in (grid.tolist(), [tuple(row) for row in grid.tolist()], [list(row) for row in grid.astype("f4")]):
        want = estimate(kind, np.asarray(form, dtype=float), tuning)
        assert want.shape == (3, 4) and estimate(kind, form, tuning).tolist() == want.tolist()
    for empty in ([], np.zeros((0, 3)), [[]]):
        assert estimate(kind, empty, tuning).shape == np.shape(empty)


# site: (the name its error gives, a call passing the list of sample sizes, the sizes it reports)
SIZE_LIST_SITES = {
    "selection_convergence_table": ("n_list", lambda ns: selection_convergence_table(PATH, ThetaRule.local(0.0), ns),
                                    lambda rep: rep.column("n")),
    "uniform_rate_experiment": ("n_list", lambda ns: uniform_rate_experiment(HARD, PATH, 6.0, ns),
                                lambda rep: rep.column("n")),
    "weak_convergence_check": ("n_probe", lambda ns: weak_convergence_check(
        lambda n: conservative_limit(HARD, 0.5, 1.0), conservative_limit(HARD, 0.5, 1.0), [-2.0, 2.0], ns),
        lambda rep: rep.column("n")),
    "ConvergenceScenario.check": ("n_probe", lambda ns: canonical_scenarios()[0].check(ns),
                                  lambda rep: rep.column("n")),
}


@pytest.mark.parametrize("sizes", [[], (), [100, 100], [1000, 100], [100, 1000, 999], 100, "100", None],
                         ids=["empty", "empty-tuple", "repeated", "decreasing", "late-drop", "scalar", "str", "none"])
@pytest.mark.parametrize("site", SIZE_LIST_SITES)
def test_a_size_list_is_nonempty_and_strictly_increasing(site, sizes):
    name, call, _ = SIZE_LIST_SITES[site]
    message = rf"^{name} must be a nonempty, strictly increasing list of sample sizes \(got {re.escape(repr(sizes))}\)$"
    with pytest.raises(ValueError, match=message):
        call(sizes)


@pytest.mark.parametrize("item", [True, 2.5, 0, -3, math.inf, math.nan, "10"])
@pytest.mark.parametrize("site", SIZE_LIST_SITES)
def test_each_sample_size_is_a_count(site, item):
    name, call, _ = SIZE_LIST_SITES[site]
    with pytest.raises(ValueError, match=rf"^each {name} item must be a positive integer \(got {re.escape(repr(item))}\)$"):
        call([10, item])


@pytest.mark.parametrize("site", SIZE_LIST_SITES)
def test_whole_float_sizes_are_reported_as_ints(site):
    _, call, sizes = SIZE_LIST_SITES[site]
    got = sizes(call(np.array([100.0, 1000.0])))
    assert got == [100, 1000] and all(type(n) is int for n in got)
