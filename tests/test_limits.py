import json
import math

import numpy as np
import pytest

from shrinkdist.estimators import EstimatorKind, TuningPlan
from shrinkdist.finite_dist import Atom, MixtureDistribution, ModelPoint, finite_sample_dist
from shrinkdist.limits import (
    ConvergenceScenario,
    LimitLaw,
    MASS_ESCAPE,
    TOTAL_VARIATION,
    WEAK,
    canonical_scenarios,
    conservative_limit,
    consistent_limit,
    rescaled_limit,
    weak_convergence_check,
)
from shrinkdist.normal_kernel import norm_cdf
from shrinkdist.selection import PowerTuningPath, RegimeError, RegimeSpec, ThetaRule

HARD, SOFT, SCAD = EstimatorKind.HARD, EstimatorKind.SOFT, EstimatorKind.SCAD
BOUNDARY_XS = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])


def regime(e=math.inf, **kw):
    return RegimeSpec(e=e, **kw)


class TestConservative:
    def test_hard_cdf_at_zero(self):
        law = conservative_limit(HARD, 0.0, 1.96)
        assert law.cdf(0.0) == pytest.approx(0.9750021048517795, abs=1e-12)
        assert law.mode == WEAK

    def test_hard_zero_e_degenerates_to_normal(self):
        law = conservative_limit(HARD, 1.3, 0.0)
        assert not law.dist.atoms
        xs = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(law.cdf(xs), norm_cdf(xs), atol=1e-15)
        assert law.mode == TOTAL_VARIATION

    def test_soft_infinite_nu_is_shifted_normal(self):
        law = conservative_limit(SOFT, math.inf, 1.0)
        assert law.cdf(-1.0) == pytest.approx(0.5, abs=1e-15)
        xs = np.linspace(-4, 2, 25)
        np.testing.assert_allclose(law.cdf(xs), norm_cdf(xs + 1.0), atol=1e-15)

    def test_hard_infinite_nu_is_standard_normal(self):
        law = conservative_limit(HARD, -math.inf, 1.2)
        np.testing.assert_allclose(law.cdf(np.array([0.0, 1.0])), [0.5, norm_cdf(1.0)], atol=1e-15)

    @pytest.mark.parametrize("kind", [HARD, SOFT, SCAD])
    def test_nan_nu_rejected(self, kind):
        with pytest.raises(ValueError, match="NaN"):
            conservative_limit(kind, math.nan, 1.0)

    @pytest.mark.parametrize("kind", [HARD, SOFT, SCAD])
    def test_mass_one(self, kind):
        law = conservative_limit(kind, -0.7, 1.5, 3.7)
        assert abs(law.dist.total_mass() - 1.0) <= 1e-10

    def test_matches_fixed_parameter_zero_limit(self):
        # nu = 0 structure: atom at 0 with weight 2*cdf(e)-1 plus excised density
        law = conservative_limit(HARD, 0.0, 1.5)
        atom = law.dist.atoms[0]
        assert atom.loc == 0.0
        assert atom.weight == pytest.approx(2 * norm_cdf(1.5) - 1, abs=1e-15)
        bounds = sorted(float(b) for p in law.dist.pieces for b in (p.lower, p.upper))
        assert bounds == [-math.inf, -1.5, 1.5, math.inf]

    def test_agrees_with_finite_sample_substitution(self):
        # the limit equals the finite-sample law with sqrt(n)eta = e, sqrt(n)theta = nu
        n = 64
        e, nu = 1.2, 0.8
        point = ModelPoint(n, nu / math.sqrt(n))
        tun = TuningPlan(e / math.sqrt(n), 3.7)
        xs = np.linspace(-5, 5, 81)
        for kind in (HARD, SOFT, SCAD):
            law = conservative_limit(kind, nu, e, 3.7)
            np.testing.assert_allclose(law.cdf(xs), finite_sample_dist(kind, point, tun).cdf(xs), atol=1e-12)
            # at n = 1 the substitution is exact: the same constructor builds both laws
            exact = finite_sample_dist(kind, ModelPoint(1, nu), TuningPlan(e, 3.7))
            assert law.dist.atoms == exact.atoms and law.dist.pieces == exact.pieces

    def test_rejects_infinite_e(self):
        with pytest.raises(ValueError):
            conservative_limit(HARD, 0.0, math.inf)


class TestConsistent:
    def test_hard_interior_pointmass(self):
        law = consistent_limit(HARD, regime(zeta=0.0, nu=1.5))
        assert law.mode == WEAK
        assert law.cdf(-1.5001) == 0.0 and law.cdf(-1.5) == 1.0

    def test_hard_interior_escape(self):
        law = consistent_limit(HARD, regime(zeta=0.5))
        assert law.mode == MASS_ESCAPE
        xs = np.linspace(-8, 8, 7)
        np.testing.assert_array_equal(law.cdf(xs), np.ones(7))

    def test_hard_boundary_half_mass(self):
        law = consistent_limit(HARD, regime(zeta=1.0, r=0.0))
        assert law.mode == MASS_ESCAPE
        assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # cdf(x) = cdf(r) + integral over (r, x]
        assert law.cdf(1.0) == pytest.approx(norm_cdf(1.0), abs=1e-15)
        assert law.cdf(-2.0) == pytest.approx(0.5, abs=1e-15)

    def test_hard_boundary_negative_zeta(self):
        law = consistent_limit(HARD, regime(zeta=-1.0, r=0.5))
        # escape at +inf with weight cdf(0.5); density on u < -0.5
        assert law.cdf(10.0) == pytest.approx(1.0 - norm_cdf(0.5), abs=1e-15)
        assert law.cdf(-0.5) == pytest.approx(norm_cdf(-0.5), abs=1e-15)

    def test_hard_boundary_r_infinite(self):
        # r = +inf: every bit of mass rides the atom to -inf, so the cdf pins at one
        law_up = consistent_limit(HARD, regime(zeta=1.0, r=math.inf))
        assert law_up.mode == MASS_ESCAPE
        assert law_up.cdf(-50.0) == 1.0 and law_up.cdf(50.0) == 1.0
        law = consistent_limit(HARD, regime(zeta=1.0, r=-math.inf))
        assert law.mode == TOTAL_VARIATION
        np.testing.assert_allclose(law.cdf(np.array([0.0])), [0.5], atol=1e-15)

    def test_hard_boundary_requires_r(self):
        with pytest.raises(RegimeError, match="underdetermined"):
            consistent_limit(HARD, regime(zeta=1.0))

    def test_hard_exterior_standard_normal(self):
        law = consistent_limit(HARD, regime(zeta=2.0))
        assert law.mode == TOTAL_VARIATION
        assert law.cdf(0.0) == 0.5

    def test_hard_boundary_approaches_exterior_as_r_drops(self):
        # representation continuity across the regime edge
        exterior = consistent_limit(HARD, regime(zeta=1.5))
        xs = np.linspace(-3, 3, 25)
        for r, tol in [(-4.0, 1e-4), (-8.0, 1e-14)]:
            law = consistent_limit(HARD, regime(zeta=1.0, r=r))
            assert np.max(np.abs(law.cdf(xs) - exterior.cdf(xs))) < tol

    def test_soft_pointmass(self):
        law = consistent_limit(SOFT, regime(nu=2.0, zeta=0.0))
        assert law.cdf(-2.0) == 1.0 and law.cdf(-2.0 - 1e-12) == 0.0

    def test_soft_escape(self):
        # nu = -inf: mass flees to -nu = +inf, so the cdf pins at zero
        law = consistent_limit(SOFT, regime(nu=-math.inf, zeta=0.0))
        assert law.mode == MASS_ESCAPE
        assert law.cdf(100.0) == 0.0
        # the atom at +inf never enters the cdf on the real line, not even at x = +inf
        assert law.cdf(math.inf) == 0.0 and law.dist.cdf_left(math.inf) == 0.0
        down = consistent_limit(SOFT, regime(nu=math.inf, zeta=0.0))
        assert down.cdf(-100.0) == 1.0
        assert down.cdf(-math.inf) == 1.0 and down.dist.cdf_left(-math.inf) == 1.0

    def test_scad_boundary_mass_one(self):
        law = consistent_limit(SCAD, regime(zeta=3.7, r=1.0), 3.7)
        assert abs(law.dist.total_mass() - 1.0) <= 1e-10
        assert law.mode == TOTAL_VARIATION
        assert not law.dist.atoms
        # blend piece carries cdf(r) of the mass, the normal tail the rest
        assert law.dist.cdf(1.0) == pytest.approx(norm_cdf(1.0), abs=1e-12)

    def test_scad_boundary_negative_zeta_mirrors(self):
        a = 3.7
        pos = consistent_limit(SCAD, regime(zeta=a, r=1.0), a)
        neg = consistent_limit(SCAD, regime(zeta=-a, r=1.0), a)
        xs = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(neg.cdf(xs), 1.0 - pos.cdf(-xs), atol=1e-12)

    def test_scad_boundary_r_plus_inf_escapes(self):
        law = consistent_limit(SCAD, regime(zeta=3.7, r=math.inf), 3.7)
        assert law.mode == MASS_ESCAPE
        assert law.cdf(-100.0) == 1.0

    def test_scad_interior_pointmass_finite(self):
        law = consistent_limit(SCAD, regime(zeta=0.0, nu=1.0), 3.7)
        assert law.cdf(-1.0) == 1.0 and law.cdf(-1.0 - 1e-9) == 0.0

    def test_scad_exterior(self):
        law = consistent_limit(SCAD, regime(zeta=5.0), 3.7)
        assert law.cdf(0.0) == 0.5

    def test_requires_consistent_regime(self):
        with pytest.raises(RegimeError):
            consistent_limit(HARD, regime(e=1.0, nu=0.0, zeta=0.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kind, boundary", [(HARD, 1.0), (SCAD, 3.7)])
    def test_boundary_r_plus_inf_escapes_with_the_atom(self, kind, boundary, sign):
        # all mass rides the atom at -nu = -sign(zeta)*inf
        law = consistent_limit(kind, regime(zeta=sign * boundary, r=math.inf), 3.7)
        assert law.mode == MASS_ESCAPE
        assert law.dist.atoms == (Atom(-sign * math.inf, 1.0),) and law.dist.pieces == ()
        np.testing.assert_array_equal(law.cdf(BOUNDARY_XS), np.full(5, 1.0 if sign > 0 else 0.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kind, boundary", [(HARD, 1.0), (SCAD, 3.7)])
    def test_boundary_r_minus_inf_is_standard_normal(self, kind, boundary, sign):
        law = consistent_limit(kind, regime(zeta=sign * boundary, r=-math.inf), 3.7)
        assert law.mode == TOTAL_VARIATION
        assert law.dist == consistent_limit(kind, regime(zeta=2.0 * sign * boundary), 3.7).dist
        np.testing.assert_array_equal(law.cdf(BOUNDARY_XS), norm_cdf(BOUNDARY_XS))


class TestRescaled:
    def test_hard_cases(self):
        assert rescaled_limit(HARD, regime(zeta=0.5)).cdf(-0.5) == 1.0
        assert rescaled_limit(HARD, regime(zeta=2.0)).cdf(0.0) == 1.0
        law = rescaled_limit(HARD, regime(zeta=1.0, r=0.0))
        locs = sorted(float(a.loc) for a in law.dist.atoms)
        weights = [a.weight for a in sorted(law.dist.atoms, key=lambda a: float(a.loc))]
        assert locs == [-1.0, 0.0]
        assert weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_hard_boundary_requires_r(self):
        with pytest.raises(RegimeError):
            rescaled_limit(HARD, regime(zeta=-1.0))

    def test_soft_clipped_location(self):
        assert rescaled_limit(SOFT, regime(zeta=5.0)).cdf(-1.0) == 1.0
        assert rescaled_limit(SOFT, regime(zeta=5.0)).cdf(-1.0 - 1e-12) == 0.0
        assert rescaled_limit(SOFT, regime(zeta=-0.3)).dist.atoms[0].loc == pytest.approx(0.3)
        assert rescaled_limit(SOFT, regime(zeta=math.inf)).dist.atoms[0].loc == -1.0

    def test_scad_three_zones(self):
        a = 3.7
        assert rescaled_limit(SCAD, regime(zeta=1.5), a).dist.atoms[0].loc == -1.0
        blend = rescaled_limit(SCAD, regime(zeta=3.0), a)
        assert float(blend.dist.atoms[0].loc) == pytest.approx(-(a - 3.0) / (a - 2.0), abs=1e-15)
        assert float(blend.dist.atoms[0].loc) == pytest.approx(-0.4117647058823529, abs=1e-12)
        assert rescaled_limit(SCAD, regime(zeta=4.0), a).dist.atoms[0].loc == 0.0
        assert rescaled_limit(SCAD, regime(zeta=-math.inf), a).dist.atoms[0].loc == 0.0

    @pytest.mark.parametrize("zeta", [-6.0, -3.7, -3.0, -2.0, -1.0, -0.4, 0.0, 0.4, 1.0, 2.0, 3.0, 3.7, 6.0])
    def test_purely_atomic_inside_unit_interval(self, zeta):
        for kind in (HARD, SOFT, SCAD):
            kw = {"zeta": zeta}
            if kind is HARD and abs(zeta) == 1.0:
                kw["r"] = 0.3
            law = rescaled_limit(kind, regime(**kw), 3.7)
            assert not law.dist.pieces
            assert 1 <= len(law.dist.atoms) <= 2
            assert all(-1.0 <= float(a.loc) <= 1.0 for a in law.dist.atoms)
            assert abs(law.dist.total_mass() - 1.0) <= 1e-15


class TestWeakConvergenceCheck:
    def test_limit_as_its_own_sequence(self):
        law = conservative_limit(HARD, 0.5, 1.0)
        rep = weak_convergence_check(lambda n: law.dist, law, np.array([-2.0, 0.0, 2.0]), [10, 100])
        assert rep.column("sup_gap") == [0.0, 0.0]

    def test_grid_collision_rejected(self):
        law = consistent_limit(SOFT, regime(nu=2.0, zeta=0.0))
        with pytest.raises(ValueError, match="collides"):
            weak_convergence_check(lambda n: law.dist, law, np.array([-2.0]), [10])

    def test_rejects_empty_n_probe(self):
        law = conservative_limit(HARD, 0.5, 1.0)
        with pytest.raises(ValueError, match="n_probe"):
            weak_convergence_check(lambda n: law.dist, law, np.array([-2.0, 0.0, 2.0]), [])

    def test_conservative_scenario_small_gap(self):
        # sqrt(n)*theta = 1 and sqrt(n)*eta = 1.96 at every n: finite law equals the limit
        law = conservative_limit(HARD, 1.0, 1.96)
        def seq(n):
            s = math.sqrt(n)
            return finite_sample_dist(HARD, ModelPoint(n, 1.0 / s), TuningPlan(1.96 / s))
        grid = np.linspace(-6, 6, 49)
        grid = grid[np.abs(grid + 1.0) >= 0.05]
        rep = weak_convergence_check(seq, law, grid, [10**6])
        assert rep.column("sup_gap")[0] < 0.01

    def test_soft_escape_scenario(self):
        # fixed theta != 0 under consistent tuning: cdf drifts to one everywhere
        path = PowerTuningPath(1.0, 0.25)
        def seq(n):
            return finite_sample_dist(SOFT, ModelPoint(n, 2.0 / math.sqrt(n)), TuningPlan(path.eta(n)))
        dist = seq(10**6)
        assert dist.cdf(-2.1) < 0.01
        assert dist.cdf(-1.9) > 0.99


class TestScenarios:
    def test_covers_every_branch(self):
        names = {s.name for s in canonical_scenarios()}
        assert len(names) == 15
        for frag in ("conservative", "consistent-boundary", "rescaled", "blend"):
            assert any(frag in n for n in names)

    @pytest.mark.parametrize("scenario", canonical_scenarios(), ids=lambda s: s.name)
    def test_gap_shrinks(self, scenario):
        rep = scenario.check([1000, 100_000])
        g_small, g_large = rep.column("sup_gap")
        assert g_large < 0.05
        assert g_large < g_small

    @pytest.mark.parametrize("a", [2.5, 3.7])
    def test_scad_eta_multiple_at_the_boundary(self, a):
        # theta_n = a*eta_n sits on the scad boundary with r = 0 at every n, so
        # the finite-sample law equals its limit up to rounding
        sc = ConvergenceScenario("scad-consistent-eta-multiple", SCAD, PowerTuningPath(1.0, 0.25),
                                 ThetaRule.eta_multiple(a), scad_a=a)
        assert sc.regime().r == 0.0
        assert max(sc.check([1000, 10**6, 10**9]).column("sup_gap")) <= 1e-14

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ValueError, match="'sqrt_n' or 'inv_eta'"):
            ConvergenceScenario("hard-rescaled-boundary", HARD, PowerTuningPath(1.0, 0.25),
                                ThetaRule.boundary(1.0, 0.0), scaling="inv-eta")


def test_limit_law_mode_validation():
    from shrinkdist.finite_dist import Atom, MixtureDistribution

    escaped = MixtureDistribution(atoms=(Atom(-math.inf, 1.0),), pieces=())
    with pytest.raises(ValueError, match="mass-escape"):
        LimitLaw(escaped, WEAK)
    with pytest.raises(ValueError, match="mode"):
        LimitLaw(escaped, "sideways")


def test_limit_law_json_round_trip():
    law = consistent_limit(HARD, regime(zeta=1.0, r=0.25))
    clone = LimitLaw.from_json(law.to_json())
    assert clone == law
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_array_equal(clone.cdf(xs), law.cdf(xs))


def test_mass_escape_law_json_string_round_trip():
    law = consistent_limit(HARD, regime(zeta=1.0, r=0.25))
    assert law.mode == MASS_ESCAPE and law.dist.atoms[0].loc == -math.inf
    blob = law.dist.to_json_str()
    assert json.loads(blob)["atoms"][0]["loc"] == "-inf"
    clone = MixtureDistribution.from_json(blob)
    assert clone == law.dist
    assert clone.atoms[0].loc == -math.inf
