import dataclasses
import math

import numpy as np
import pytest
from oracles import reference_theta

from shrinkdist.estimators import EstimatorKind, TuningPlan
from shrinkdist.finite_dist import ModelPoint, atom_weight, finite_sample_dist
from shrinkdist.selection import (
    PowerTuningPath,
    RegimeError,
    RegimeSpec,
    ThetaRule,
    derive_regime,
    limit_selection_probability,
    selection_convergence_table,
)

TWO_PHI_196 = 0.9500042097035591


def test_probability_pinned_value():
    p = atom_weight(ModelPoint(100, 0.0), TuningPlan(0.196))
    assert p == pytest.approx(TWO_PHI_196, abs=1e-12)


def test_probability_far_alternative_vanishes():
    assert atom_weight(ModelPoint(100, 10.0), TuningPlan(0.196)) < 1e-15


def test_probability_figure_config():
    p = atom_weight(ModelPoint(40, 0.16), TuningPlan(0.05))
    assert p == pytest.approx(0.15124483648953546, abs=1e-12)
    assert p == pytest.approx(0.15, abs=0.005)


def test_probability_equals_atom_weight_exactly():
    for n, theta, eta in [(7, 0.3, 0.2), (500, -0.01, 0.05), (40, 0.16, 0.05)]:
        point, tun = ModelPoint(n, theta), TuningPlan(eta)
        for kind in EstimatorKind:
            assert finite_sample_dist(kind, point, tun).atoms[0].weight == atom_weight(point, tun)


def test_probability_symmetric_in_theta():
    tun = TuningPlan(0.2)
    for theta in (0.0, 0.13, 1.5):
        assert atom_weight(ModelPoint(30, theta), tun) == pytest.approx(
            atom_weight(ModelPoint(30, -theta), tun), abs=1e-15
        )


def test_probability_monotone_in_abs_theta():
    tun = TuningPlan(0.2)
    vals = [atom_weight(ModelPoint(30, th), tun) for th in np.linspace(0, 3, 60)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_probability_monotone_in_eta():
    point = ModelPoint(30, 0.1)
    vals = [atom_weight(point, TuningPlan(e)) for e in np.linspace(0.01, 2, 60)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestLimitProbability:
    def test_conservative_formula(self):
        regime = RegimeSpec(e=1.96, nu=0.0)
        assert limit_selection_probability(regime) == pytest.approx(TWO_PHI_196, abs=1e-12)

    def test_conservative_infinite_nu(self):
        regime = RegimeSpec(e=1.0, nu=math.inf)
        assert limit_selection_probability(regime) == 0.0

    def test_consistent_interior(self):
        assert limit_selection_probability(RegimeSpec(e=math.inf, zeta=0.5)) == 1.0

    def test_consistent_exterior(self):
        assert limit_selection_probability(RegimeSpec(e=math.inf, zeta=1.5)) == 0.0
        assert limit_selection_probability(RegimeSpec(e=math.inf, zeta=-math.inf)) == 0.0

    def test_consistent_boundary_uses_r(self):
        regime = RegimeSpec(e=math.inf, zeta=1.0, r=0.0)
        assert limit_selection_probability(regime) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_without_r_is_underdetermined(self):
        with pytest.raises(RegimeError, match="underdetermined"):
            limit_selection_probability(RegimeSpec(e=math.inf, zeta=-1.0))

    def test_conservative_without_nu_is_underdetermined(self):
        with pytest.raises(RegimeError, match="underdetermined"):
            limit_selection_probability(RegimeSpec(e=1.0))


class TestRegimeSpec:
    def test_negative_e_rejected(self):
        with pytest.raises(RegimeError):
            RegimeSpec(e=-0.5)

    def test_nu_forced_by_nonzero_zeta(self):
        regime = RegimeSpec(e=math.inf, zeta=0.5)
        assert regime.nu == math.inf
        regime = RegimeSpec(e=math.inf, zeta=-3.0)
        assert regime.nu == -math.inf

    def test_contradictory_nu_rejected(self):
        with pytest.raises(RegimeError, match="forced"):
            RegimeSpec(e=math.inf, zeta=0.5, nu=2.0)

    @pytest.mark.parametrize("field", ["e", "nu", "zeta", "r"])
    def test_nan_rejected(self, field):
        values = {"e": 1.0, field: math.nan}
        with pytest.raises(RegimeError, match="NaN"):
            RegimeSpec(**values)

    def test_plain_numbers_coerced(self):
        regime = RegimeSpec(e=math.inf, zeta=2.0)
        assert regime.consistent
        assert regime.zeta == 2.0


class TestTuningPath:
    def test_eta_values(self):
        path = PowerTuningPath(2.0, 0.5)
        assert path.eta(4) == 1.0
        assert path.e_limit == 2.0

    def test_consistent_exponent(self):
        path = PowerTuningPath(1.0, 0.25)
        assert path.e_limit == math.inf
        ns = [10, 10**3, 10**6]
        etas = [path.eta(n) for n in ns]
        assert all(b < a for a, b in zip(etas, etas[1:]))
        assert all(math.sqrt(n) * path.eta(n) > s for n, s in zip(ns, [1.0, 5.0, 30.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerTuningPath(0.0, 0.5)
        with pytest.raises(ValueError):
            PowerTuningPath(1.0, 0.75)


class TestDeriveRegime:
    def test_local_conservative(self):
        regime = derive_regime(PowerTuningPath(1.96, 0.5), ThetaRule.local(1.0))
        assert (float(regime.e), float(regime.nu), float(regime.zeta)) == (1.96, 1.0, 1.0 / 1.96)

    def test_local_consistent(self):
        regime = derive_regime(PowerTuningPath(1.0, 0.25), ThetaRule.local(2.0))
        assert regime.consistent and regime.zeta == 0.0 and regime.nu == 2.0

    def test_eta_multiple_consistent(self):
        regime = derive_regime(PowerTuningPath(1.0, 0.25), ThetaRule.eta_multiple(-0.5))
        assert regime.zeta == -0.5 and regime.nu == -math.inf

    def test_eta_multiple_boundary_gets_exact_r(self):
        regime = derive_regime(PowerTuningPath(1.0, 0.25), ThetaRule.eta_multiple(1.0))
        assert regime.r == 0.0

    def test_boundary_rule(self):
        path = PowerTuningPath(1.0, 0.25)
        rule = ThetaRule.boundary(1.0, 0.7)
        regime = derive_regime(path, rule)
        assert regime.r == 0.7
        # the defining combination is exact at every n, not only in the limit
        for n in (100, 10**6):
            eta = path.eta(n)
            theta = rule.theta(n, eta)
            assert math.sqrt(n) * (eta - 1.0 * theta) == pytest.approx(0.7, abs=1e-9)

    def test_scad_boundary_rule(self):
        path = PowerTuningPath(1.0, 0.25)
        a = 3.7
        rule = ThetaRule.boundary(a, 1.2)
        for n in (100, 10**6):
            eta = path.eta(n)
            theta = rule.theta(n, eta)
            assert math.sqrt(n) * (a * eta - theta) == pytest.approx(1.2, abs=1e-8)

    def test_fixed_rule(self):
        regime = derive_regime(PowerTuningPath(1.0, 0.25), ThetaRule.fixed(0.1))
        assert regime.zeta == math.inf and regime.nu == math.inf

    def test_conservative_boundary_rule_reads_zeta_off_the_sequence(self):
        path, rule = PowerTuningPath(1.0, 0.5), ThetaRule.boundary(1.0, 0.5)
        regime = derive_regime(path, rule)
        assert (regime.nu, regime.zeta, regime.r) == (0.5, 0.5, None)
        for n in (1, 100, 10**6):
            assert rule.theta(n, path.eta(n)) / path.eta(n) == pytest.approx(0.5, rel=1e-12)


CONSERVATIVE, CONSISTENT = PowerTuningPath(2.0, 0.5), PowerTuningPath(1.0, 0.25)
INF = math.inf

# (rule, path, nu, zeta, r), each derived by hand from theta_n and eta_n:
# conservative sqrt(n)*eta_n = 2 at every n, consistent sqrt(n)*eta_n = n**(1/4)
REGIME_TABLE = [
    (ThetaRule.local(1.0), CONSERVATIVE, 1.0, 0.5, None),
    (ThetaRule.local(-0.6, perturb=0.5), CONSERVATIVE, -0.6, -0.3, None),
    (ThetaRule.eta_multiple(0.0), CONSERVATIVE, 0.0, 0.0, None),
    (ThetaRule.eta_multiple(0.5), CONSERVATIVE, 1.0, 0.5, None),
    (ThetaRule.eta_multiple(-3.7), CONSERVATIVE, -7.4, -3.7, None),
    (ThetaRule.boundary(1.0, 0.5), CONSERVATIVE, 1.5, 0.75, None),
    (ThetaRule.boundary(-3.7, 1.0, perturb=0.5), CONSERVATIVE, -6.4, -3.2, None),
    (ThetaRule.fixed(0.0), CONSERVATIVE, 0.0, 0.0, None),
    (ThetaRule.fixed(0.1), CONSERVATIVE, INF, INF, None),
    (ThetaRule.fixed(-2.0), CONSERVATIVE, -INF, -INF, None),
    (ThetaRule.local(1.0), CONSISTENT, 1.0, 0.0, None),
    (ThetaRule.local(-0.6, perturb=0.5), CONSISTENT, -0.6, 0.0, None),
    (ThetaRule.eta_multiple(0.0), CONSISTENT, 0.0, 0.0, None),
    (ThetaRule.eta_multiple(0.5), CONSISTENT, INF, 0.5, 0.0),
    (ThetaRule.eta_multiple(-3.7), CONSISTENT, -INF, -3.7, 0.0),
    (ThetaRule.eta_multiple(2.5), CONSISTENT, INF, 2.5, 0.0),
    (ThetaRule.eta_multiple(3.7), CONSISTENT, INF, 3.7, 0.0),
    (ThetaRule.boundary(1.0, 0.5), CONSISTENT, INF, 1.0, 0.5),
    (ThetaRule.boundary(-3.7, 1.0, perturb=0.5), CONSISTENT, -INF, -3.7, 1.0),
    (ThetaRule.fixed(0.0), CONSISTENT, 0.0, 0.0, None),
    (ThetaRule.fixed(0.1), CONSISTENT, INF, INF, None),
    (ThetaRule.fixed(-2.0), CONSISTENT, -INF, -INF, None),
]


@pytest.mark.parametrize("rule, path, nu, zeta, r", REGIME_TABLE)
def test_derive_regime_matches_hand_derived_limits(rule, path, nu, zeta, r):
    regime = derive_regime(path, rule)
    assert regime.e == path.e_limit
    assert regime.nu == pytest.approx(nu, rel=1e-15, abs=0.0)
    assert regime.zeta == pytest.approx(zeta, rel=1e-15, abs=0.0)
    assert regime.r == (None if r is None else pytest.approx(r, rel=1e-15, abs=0.0))


def test_theta_rule_has_four_coefficients():
    assert [f.name for f in dataclasses.fields(ThetaRule)] == ["value", "zeta", "offset", "perturb"]
    assert ThetaRule.boundary(-3.7, 1.2) == ThetaRule(zeta=-3.7, offset=1.2)
    with pytest.raises(ValueError, match="zeta != 0"):
        ThetaRule.boundary(0.0, 1.0)


# (constructor name, its arguments), perturb in {0, 0.5} where the constructor takes one
THETA_CASES = [
    ("local", (nu, p)) for nu in (-2.0, 0.7, 1.0) for p in (0.0, 0.5)
] + [
    ("eta_multiple", (z,)) for z in (-3.7, -1.0, 0.5, 1.0, 2.5)
] + [
    ("boundary", (z, r, p)) for z in (-3.7, -1.0, 1.0, 2.5) for r in (-1.2, 0.0, 0.5) for p in (0.0, 0.5)
] + [
    ("fixed", (v,)) for v in (-0.3, 0.1, 2.0)
]


@pytest.mark.parametrize("path", [CONSERVATIVE, CONSISTENT], ids=["conservative", "consistent"])
@pytest.mark.parametrize("kind, args", THETA_CASES)
def test_theta_equals_per_kind_formula_bit_for_bit(kind, args, path):
    rule = getattr(ThetaRule, kind)(*args)
    for n in (1, 7, 100, 10**4, 10**6, 10**9):
        eta_n = path.eta(n)
        want, got = reference_theta(kind, args, n, eta_n), rule.theta(n, eta_n)
        # a zero theta may come out with the other sign; every other value bit for bit
        assert got.hex() == want.hex() or got == want == 0.0


class TestConvergenceTable:
    def test_consistent_interior_gaps_shrink(self):
        path = PowerTuningPath(1.0, 0.25)
        rep = selection_convergence_table(path, ThetaRule.eta_multiple(0.5), [100, 10_000, 1_000_000])
        gaps = [abs(g) for g in rep.column("gap")]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 1e-6
        assert rep.column("limit") == [1.0, 1.0, 1.0]

    def test_conservative_local_gap_identically_zero(self):
        # sqrt(n)*eta and sqrt(n)*theta constant along the path: no gap at any n
        path = PowerTuningPath(1.0, 0.5)
        rep = selection_convergence_table(path, ThetaRule.local(1.0), [10, 1000, 100_000])
        assert all(abs(g) <= 1e-12 for g in rep.column("gap"))
        expected = limit_selection_probability(RegimeSpec(e=1.0, nu=1.0))
        assert rep.column("prob") == pytest.approx([expected] * 3, abs=1e-14)

    def test_fixed_theta_probability_vanishes(self):
        path = PowerTuningPath(1.0, 0.25)
        rep = selection_convergence_table(path, ThetaRule.fixed(0.1), [100, 10_000, 1_000_000])
        probs = rep.column("prob")
        assert rep.column("limit") == [0.0, 0.0, 0.0]
        assert probs[-1] < 1e-12
        assert probs[-1] < probs[0]

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            selection_convergence_table(PowerTuningPath(1.0, 0.25), ThetaRule.local(0.0), [100, 100])

    def test_rejects_empty_n_list(self):
        with pytest.raises(ValueError, match="n_list"):
            selection_convergence_table(PowerTuningPath(1.0, 0.25), ThetaRule.local(0.0), [])

    def test_csv_columns(self):
        rep = selection_convergence_table(PowerTuningPath(1.0, 0.25), ThetaRule.local(0.0), [10, 100])
        assert rep.to_csv().splitlines()[0] == "n,theta,eta,prob,limit,gap"
