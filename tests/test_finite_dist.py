import hashlib
import itertools
import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    MAP_SF_BOUND,
    map_cdf_bound,
    map_probe_points,
    map_tails,
    mapped_point_reference,
    mpmath_hard_rescaled_risk,
    mpmath_second_moment,
    point_values,
    quadrature_cdf,
    reference_masses,
    reference_second_moment,
)

from shrinkdist import finite_dist
from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate
from shrinkdist.finite_dist import (
    _GL_NODES,
    _GL_WEIGHTS,
    LAWS,
    Atom,
    GaussPiece,
    MixtureDistribution,
    ModelPoint,
    atom_weight,
    finite_sample_dist,
    rescaled_dist,
    scaled_risk,
)
from shrinkdist.limits import conservative_limit, consistent_limit
from shrinkdist.normal_kernel import norm_cdf, norm_pdf
from shrinkdist.selection import PowerTuningPath, RegimeSpec

KINDS = list(EstimatorKind)
FIG_POINT = ModelPoint(40, 0.16)
FIG_TUNING = TuningPlan(0.05, 3.7)
FIG1_WEIGHT = 0.15124483648953546

CONFIGS = [
    (ModelPoint(40, 0.16), TuningPlan(0.05, 3.7)),
    (ModelPoint(100, 0.0), TuningPlan(0.196, 3.7)),
    (ModelPoint(1, -0.7), TuningPlan(1.1, 2.5)),
    (ModelPoint(10_000, 0.05), TuningPlan(0.1, 3.7)),   # consistent: eta = n**-0.25
    (ModelPoint(1000, 0.002), TuningPlan(0.03, 5.0)),
]


CRITERION_02 = [  # (n, theta, eta, scad a); the golden dist configuration is the fourth
    (40, 0.16, 0.05, 3.7),
    (10_000, 0.05, 0.1, 3.7),
    (100, 0.0, 0.196, 3.7),
    (25, -0.3, 0.08, 2.5),
    (1000, 0.02, 0.0316, 5.0),
]
EPS = 2.0**-52


def test_atom_weight_figure_configuration():
    assert atom_weight(FIG_POINT, FIG_TUNING) == pytest.approx(FIG1_WEIGHT, abs=1e-12)
    assert atom_weight(FIG_POINT, FIG_TUNING) == pytest.approx(0.15, abs=0.005)


def test_atom_weight_symmetric_at_origin():
    point = ModelPoint(25, 0.0)
    tun = TuningPlan(0.3)
    expected = 2.0 * norm_cdf(5 * 0.3) - 1.0
    assert atom_weight(point, tun) == pytest.approx(expected, abs=1e-15)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP live defect, mended by the knot table: at theta = -1 the weight is Phi(loc + se) - Phi(loc - se) "
    "with both values near 1, and reads 0.0"))
def test_atom_weight_is_reflection_symmetric_in_the_far_tail():
    # the zero event |ybar| <= eta has one probability at +-theta; at theta = +1 it reads 1.0494e-21
    far_left, far_right = (atom_weight(ModelPoint(100, theta), TuningPlan(0.05)) for theta in (-1.0, 1.0))
    assert abs(far_left - far_right) <= 1e-12 * far_right


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP defect under the knot table, mended by its one-product knots sqrt(n)*(+-eta - theta): at n = 1e6, "
    "theta = -+1e307, eta = 1.7e308 both loc and se overflow, loc -+ se is inf - inf, and the weight reads NaN"))
@pytest.mark.parametrize("theta", [1e307, -1e307])
def test_atom_weight_past_the_float_range_is_one_inside_eta(theta):
    # |theta| < eta, and sqrt(n)*(eta - |theta|) is about 1.6e311, so the zero event has probability 1
    point, tuning = ModelPoint(10**6, theta), TuningPlan(1.7e308)
    assert atom_weight(point, tuning) == 1.0
    assert finite_sample_dist(EstimatorKind.HARD, point, tuning).atoms[0].weight == 1.0


def test_atom_weight_monte_carlo():
    rng = np.random.default_rng(314159)
    ybar = 0.16 + rng.standard_normal(2_000_000) / math.sqrt(40)
    frac = np.mean(np.abs(ybar) <= 0.05)
    se = math.sqrt(FIG1_WEIGHT * (1 - FIG1_WEIGHT) / 2_000_000)
    assert abs(frac - FIG1_WEIGHT) <= 3 * se


@pytest.mark.parametrize("point,tuning", CONFIGS)
@pytest.mark.parametrize("kind", KINDS)
def test_mass_conservation(kind, point, tuning):
    dist = finite_sample_dist(kind, point, tuning)
    assert abs(dist.total_mass() - 1.0) <= 1e-10


@pytest.mark.parametrize("kind,n_pieces", [(EstimatorKind.HARD, 2), (EstimatorKind.SOFT, 2), (EstimatorKind.SCAD, 6)])
def test_structure(kind, n_pieces):
    dist = finite_sample_dist(kind, FIG_POINT, FIG_TUNING)
    assert len(dist.pieces) == n_pieces
    assert len(dist.atoms) == 1
    atom = dist.atoms[0]
    assert atom.loc == -FIG_POINT.sqrt_n * FIG_POINT.theta
    assert atom.weight == pytest.approx(atom_weight(FIG_POINT, FIG_TUNING), abs=1e-15)


def test_scad_breakpoints():
    s = FIG_POINT.sqrt_n
    loc = -s * 0.16
    se = s * 0.05
    a = 3.7
    dist = finite_sample_dist(EstimatorKind.SCAD, FIG_POINT, FIG_TUNING)
    expected = sorted({loc - a * se, loc - se, loc, loc + se, loc + a * se})
    assert dist.breakpoints() == pytest.approx(expected, abs=1e-12)


def test_soft_cdf_matches_closed_form():
    s = FIG_POINT.sqrt_n
    se = s * FIG_TUNING.eta
    loc = -s * FIG_POINT.theta
    dist = finite_sample_dist(EstimatorKind.SOFT, FIG_POINT, FIG_TUNING)
    xs = np.linspace(-6.0, 6.0, 100)
    expected = np.where(xs >= loc, norm_cdf(xs + se), norm_cdf(xs - se))
    assert np.max(np.abs(dist.cdf(xs) - expected)) <= 1e-12


def test_hard_density_excision():
    dist = finite_sample_dist(EstimatorKind.HARD, FIG_POINT, FIG_TUNING)
    s = FIG_POINT.sqrt_n
    lo = -s * (0.16 + 0.05)
    hi = s * (0.05 - 0.16)
    mid = 0.5 * (lo + hi)
    assert dist.density_ac(mid) == 0.0
    assert dist.density_ac(hi + 3.0) == pytest.approx(norm_pdf(hi + 3.0), rel=1e-14)
    assert dist.density_ac(lo - 2.0) == pytest.approx(norm_pdf(lo - 2.0), rel=1e-14)


def test_soft_density_right_of_atom():
    dist = finite_sample_dist(EstimatorKind.SOFT, FIG_POINT, FIG_TUNING)
    s = FIG_POINT.sqrt_n
    x = -s * 0.16 + 0.1
    assert dist.density_ac(x) == pytest.approx(norm_pdf(x + s * 0.05), rel=1e-14)


def test_hard_piece_mass_complements_atom():
    for eta in (0.01, 0.2, 1.0):
        point = ModelPoint(50, 0.0)
        tun = TuningPlan(eta)
        dist = finite_sample_dist(EstimatorKind.HARD, point, tun)
        ac = dist.total_mass() - dist.atoms[0].weight
        expected = 1.0 - (2.0 * norm_cdf(math.sqrt(50) * eta) - 1.0)
        assert ac == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_cdf_against_quadrature(kind):
    dist = finite_sample_dist(kind, FIG_POINT, FIG_TUNING)
    for x in np.linspace(-4.5, 4.5, 20):
        assert dist.cdf(float(x)) == pytest.approx(quadrature_cdf(dist, float(x)), abs=1e-10)


def test_cdf_limits_and_atom_jump():
    dist = finite_sample_dist(EstimatorKind.HARD, FIG_POINT, FIG_TUNING)
    assert dist.cdf(60.0) == pytest.approx(1.0, abs=1e-12)
    assert dist.cdf(-60.0) == pytest.approx(0.0, abs=1e-12)
    loc = dist.atoms[0].loc
    jump = dist.cdf(loc) - dist.cdf_left(loc)
    assert jump == pytest.approx(dist.atoms[0].weight, abs=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_reflection_identity(kind):
    # law under -theta at x mirrors one minus the left limit under theta at -x
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(1, 400))
        theta = float(rng.uniform(-1, 1))
        eta = float(rng.uniform(0.02, 0.8))
        tun = TuningPlan(eta, 3.7)
        d_pos = finite_sample_dist(kind, ModelPoint(n, theta), tun)
        d_neg = finite_sample_dist(kind, ModelPoint(n, -theta), tun)
        for x in rng.uniform(-5, 5, size=25):
            assert d_neg.cdf(float(x)) == pytest.approx(1.0 - d_pos.cdf_left(float(-x)), abs=1e-12)
        loc = -math.sqrt(n) * -theta
        assert d_neg.cdf(loc) == pytest.approx(1.0 - d_pos.cdf_left(-loc), abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_restricted_estimator_conditional_law(kind):
    # conditional on selecting zero, the scaled error is the point mass at -sqrt(n)*theta
    dist = finite_sample_dist(kind, FIG_POINT, FIG_TUNING)
    atom = dist.atoms[0]
    assert atom.loc == -FIG_POINT.sqrt_n * FIG_POINT.theta
    assert atom.weight == pytest.approx(atom_weight(FIG_POINT, FIG_TUNING), abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_monte_carlo_cdf_agreement(kind):
    rng = np.random.default_rng(271828)
    n, theta, eta = 40, 0.16, 0.05
    tun = TuningPlan(eta, 3.7)
    ybar = theta + rng.standard_normal(500_000) / math.sqrt(n)
    vals = math.sqrt(n) * (estimate(kind, ybar, tun) - theta)
    dist = finite_sample_dist(kind, ModelPoint(n, theta), tun)
    xs = np.linspace(-5, 5, 50)
    emp = np.searchsorted(np.sort(vals), xs, side="right") / vals.size
    assert np.max(np.abs(emp - dist.cdf(xs))) < 0.003


def test_rescaled_matches_cdf_substitution():
    tun = TuningPlan(0.1)
    point = ModelPoint(400, 0.15)
    scale = point.sqrt_n * tun.eta
    for kind in KINDS:
        f = finite_sample_dist(kind, point, tun)
        g = rescaled_dist(kind, point, tun)
        xs = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(g.cdf(xs), f.cdf(scale * xs), atol=1e-13)
        assert g.atoms[0].loc == pytest.approx(-point.theta / tun.eta, rel=1e-12)
        assert abs(g.total_mass() - 1.0) <= 1e-10


def test_rescaled_soft_concentrates_at_minus_one():
    # theta = 2*eta with sqrt(n)*eta large: unit-scale error piles up near -1
    tun = TuningPlan(0.1)
    point = ModelPoint(10**6, 0.2)
    g = rescaled_dist(EstimatorKind.SOFT, point, tun)
    assert g.cdf(-0.95) - g.cdf(-1.05) >= 0.99


def test_risk_maximum_likelihood_degenerate():
    assert scaled_risk(EstimatorKind.HARD, ModelPoint(4, 0.0), TuningPlan(1e-8)) == pytest.approx(1.0, abs=1e-6)


def test_risk_shrinkage_helps_at_origin():
    n = 100
    tun = TuningPlan(0.3)  # sqrt(n)*eta = 3
    at_zero = scaled_risk(EstimatorKind.HARD, ModelPoint(n, 0.0), tun)
    at_2eta = scaled_risk(EstimatorKind.HARD, ModelPoint(n, 0.6), tun)
    assert at_zero == pytest.approx(0.029290886534888232, abs=1e-12)
    assert at_zero < 1.0 < at_2eta


@pytest.mark.parametrize("kind", KINDS)
def test_risk_against_quadrature(kind):
    from scipy.integrate import quad  # imported here, not at collection: it takes most of a second

    dist = finite_sample_dist(kind, FIG_POINT, FIG_TUNING)
    total = dist.atoms[0].weight * dist.atoms[0].loc ** 2
    for p in dist.pieces:
        lo = max(float(p.lower), -40.0)
        hi = min(float(p.upper), 40.0)
        val, _ = quad(lambda t: t * t * p.slope * norm_pdf(p.slope * t + p.shift), lo, hi,
                      epsabs=1e-12, epsrel=1e-12, limit=300)
        total += val
    assert scaled_risk(kind, FIG_POINT, FIG_TUNING) == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_risk_against_monte_carlo(kind):
    rng = np.random.default_rng(5150)
    n, theta, eta = 40, 0.16, 0.05
    tun = TuningPlan(eta, 3.7)
    reps = 2_000_000
    ybar = theta + rng.standard_normal(reps) / math.sqrt(n)
    losses = n * (estimate(kind, ybar, tun) - theta) ** 2
    mc = float(np.mean(losses))
    se = float(np.std(losses) / math.sqrt(reps))
    assert abs(scaled_risk(kind, ModelPoint(n, theta), tun) - mc) <= 3 * se


def test_gauss_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(_GL_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(_GL_WEIGHTS - weights)) <= 1e-15
    for k in range(16):  # exact on polynomials up to degree 15
        assert np.dot(_GL_WEIGHTS, _GL_NODES**k) == pytest.approx((1 + (-1) ** k) / (k + 1), abs=1e-15)


@pytest.mark.parametrize("excess", [1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("n, theta, eta", [(100, 0.1, 0.05), (40, 0.16, 0.05), (10_000, 0.02, 0.01), (100, 0.1, 0.3)])
def test_scad_second_moment_near_a_two_against_mpmath(n, theta, eta, excess):
    # as a -> 2 the blend pieces' slope (a-2)/(a-1) vanishes and their closed form cancels; at eta = 0.3 the
    # blend at a = 2.001 maps to a width of about 0.003, which the short-piece quadrature must still cover
    dist = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(n, theta), TuningPlan(eta, 2.0 + excess))
    exact = mpmath_second_moment(dist)
    assert abs(dist.second_moment() - exact) <= 1e-13 * abs(exact)


EXTREME_SCALES = {  # laws of (estimate - theta)/eta, rescaled by sqrt(n)*eta
    # 1e-299: the moment, about 1e598, overflows; the atom sits at -3e299 and at 0
    "eta-1e-300": (ModelPoint(100, 0.3), TuningPlan(1e-300)),
    "eta-1e-300-theta-0": (ModelPoint(100, 0.0), TuningPlan(1e-300)),
    # 1e-120: slope**3 underflows, and the moment is about 1e240
    "eta-1e-120": (ModelPoint(1, 0.0), TuningPlan(1e-120)),
    # 1e120: slope**3 overflows, and the atom at -1e-120 gives a moment of about 1e-240
    "eta-1e120-theta-1": (ModelPoint(1, 1.0), TuningPlan(1e120)),
}


def _assert_moment(law, exact):
    """The law's second moment is `exact` within 1e-14, or exactly the float it rounds to when that is 0 or inf."""
    got, want = law.second_moment(), float(exact)
    if want in (0.0, math.inf):
        assert got == want
    else:
        assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("point, tuning", EXTREME_SCALES.values(), ids=EXTREME_SCALES.keys())
def test_second_moment_at_extreme_scales_against_mpmath(kind, point, tuning):
    law = rescaled_dist(kind, point, tuning)
    if kind is EstimatorKind.HARD:
        _assert_moment(law, mpmath_hard_rescaled_risk(point.n, point.theta, tuning.eta))
    else:
        _assert_moment(law, mpmath_second_moment(law))


# the laws of the benchmark's risk sweep (eta = n**-0.25, a = 3.7), every eighth theta of its 81, and one
# narrower law; each finite piece maps to a width of 1.5 or more, where second_moment takes the closed form
WIDE_PIECE_LAWS = {f"n{n}-theta{theta:+.1f}": (n, theta, n**-0.25)
                   for n in (10, 100, 1000) for theta in np.linspace(-1.0, 1.0, 81)[::8].tolist()}
WIDE_PIECE_LAWS["n1000-theta0-eta0.05"] = (1000, 0.0, 0.05)
# at theta = 0 half the law sits in the upper tail, whose piece masses are differences of Phi values near 1:
# the mass past 5.85 at n = 1000, eta = 0.05 is 2e-8 relative off, and the moment 1.7e-14 (1.5e-6 at eta = n**-0.25)
UPPER_TAIL_MASSES = pytest.mark.xfail(strict=True, reason="upper-tail piece masses lose their relative precision")


@pytest.mark.parametrize("n, theta, eta", [pytest.param(*law, id=name, marks=UPPER_TAIL_MASSES if law[1] == 0.0 else ())
                                           for name, law in WIDE_PIECE_LAWS.items()])
def test_scad_second_moment_on_wide_pieces_against_mpmath(n, theta, eta):
    # 8-point Gauss-Legendre in place of the closed form moves most of these moments far past 1e-14
    law = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(n, theta), TuningPlan(eta, 3.7))
    assert min(s * (hi - lo) for s, _, lo, hi in law.pieces) > 1.5
    _assert_moment(law, mpmath_second_moment(law))


def test_second_moment_below_the_smallest_float_is_zero():
    # at theta = 0, |soft| and |scad| are at most |hard|, so their moments are at most hard's,
    # whose 50-digit value is about 1e-(2e239)
    point, tuning = ModelPoint(1, 0.0), TuningPlan(1e120)
    exact = mpmath_hard_rescaled_risk(point.n, point.theta, tuning.eta)
    assert 0.0 < exact < mpmath.mpf(10) ** -400
    assert [rescaled_dist(kind, point, tuning).second_moment() for kind in KINDS] == [0.0] * 3


FAR_SHORT_BLENDS = ((10**30, 1e141, 1e125, 3.7), (1, 1e307, 1e300, 2.0 + 1e-12))  # (n, |theta|, eta, a)


@pytest.mark.parametrize("point, tuning", [(ModelPoint(n, sign * far), TuningPlan(eta, a))
                                           for n, far, eta, a in FAR_SHORT_BLENDS for sign in (1.0, -1.0)])
def test_scad_second_moment_past_a_eta_is_one_where_a_short_blend_lies_far_out(point, tuning):
    # |theta| > a*eta, so the estimate is ybar up to mass far below 1e-300 and the moment is 1; a blend piece
    # whose mapped ends round together is integrated by quadrature at nodes near 1e156, where x**2 overflows
    # but the pdf is 0.0 (the mpmath oracle overflows there too)
    law = finite_sample_dist(EstimatorKind.SCAD, point, tuning)
    assert any(lo < hi and abs(zb - za) < finite_dist._SHORT_PIECE
               for (za, zb), (_, _, lo, hi) in zip(law._ends, law.pieces))
    assert law.second_moment() == 1.0


@pytest.mark.parametrize("point, tuning", [(ModelPoint(1, 0.0), TuningPlan(1e120)),
                                           (ModelPoint(4, 0.0), TuningPlan(0.25))], ids=["eta-1e120", "eta-0.25"])
def test_mpmath_second_moment_equals_the_estimator_risk_oracle(point, tuning):
    # both mapped ends of the upper piece are positive: at eta = 1e120 the primitive's 1 - Phi(1e120)
    # cancels in any precision unless it is written as the tail Phi(-1e120); at eta = 0.25 every
    # piece record is exact in binary and the atom sits at 0, so its rounded weight adds nothing
    law = rescaled_dist(EstimatorKind.HARD, point, tuning)
    exact = mpmath_hard_rescaled_risk(point.n, point.theta, tuning.eta)
    assert abs(mpmath_second_moment(law) - exact) <= mpmath.mpf(10) ** -40 * exact


@pytest.mark.parametrize("kind", KINDS)
def test_second_moment_with_a_shift_whose_square_overflows(kind):
    # sqrt(n)*eta = 1e202: the estimate is 0 but with a probability below exp(-1e404), so the law
    # is the atom at -sqrt(n)*theta = 100 and the moment is 1e4; the soft and scad shifts square past the floats
    law = finite_sample_dist(kind, ModelPoint(10**4, -1.0), TuningPlan(1e200))
    assert law.atoms[0] == (100.0, 1.0)
    assert law.second_moment() == 1e4


@pytest.mark.parametrize("theta", [1e300, -1e300])
def test_second_moment_with_an_atom_at_an_infinity(theta):
    # mass on an atom at an infinity makes the moment inf; an atom there that holds no mass adds nothing:
    # at sqrt(n)*theta = 1e315 the atom sits at -+inf with weight 0, hard is the standard normal and
    # soft the normal shifted by -+sqrt(n)*eta = -+5e13
    assert consistent_limit(EstimatorKind.HARD, RegimeSpec(math.inf, zeta=1.0, r=0.5)).second_moment() == math.inf
    point, tuning = ModelPoint(10**30, theta), TuningPlan(0.05)
    hard, soft = (finite_sample_dist(kind, point, tuning) for kind in (EstimatorKind.HARD, EstimatorKind.SOFT))
    assert hard.atoms == soft.atoms == (Atom(-math.copysign(math.inf, theta), 0.0),)
    assert hard.second_moment() == 1.0
    assert soft.second_moment() == 1.0 + (1e15 * 0.05) ** 2


def _assert_cdf_matches_map_oracle(kind, n, theta, eta, a, scaling, grid, offsets=()):
    """The law's cdf and 1 - cdf against the two halves of `map_tails` at its `map_probe_points`, within
    `map_cdf_bound` and `MAP_SF_BOUND`."""
    dist = LAWS[scaling](kind, ModelPoint(n, theta), TuningPlan(eta, a))
    xs = map_probe_points(dist, n, eta, scaling, grid, offsets)
    for x, got in zip(xs.tolist(), dist.cdf(xs).tolist()):
        want, want_sf = map_tails(kind, n, theta, eta, a, x, scaling)
        assert abs(got - want) <= map_cdf_bound(want), (x, got, want)
        assert abs(1.0 - got - want_sf) <= MAP_SF_BOUND


@pytest.mark.parametrize("scaling", LAWS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, theta, eta, a", CRITERION_02)
def test_cdf_equals_estimator_map_oracle(n, theta, eta, a, kind, scaling):
    # points out to 37 standard units, where the cdf is about 1e-300, and at the piece ends
    _assert_cdf_matches_map_oracle(kind, n, theta, eta, a, scaling, np.linspace(-37.0, 37.0, 49))


# A piece's mapped point z = s*x + b keeps only the absolute precision of its float shift and ends, about
# ulp(sqrt(n)*max(|theta|, a*eta)); the bound allows a few ulps of z.  So the sweep keeps every shift and
# end below 16 in magnitude: sqrt(n)*eta = 10**se_exp <= 1.78 and |theta| <= 5*eta.  The strict xfails
# below pin the larger shifts, ends that cancel near theta = -+eta, and the scad build at theta = -+2*eta.
SWEEP_RATIOS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]  # |theta|/eta


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), scaling=st.sampled_from(list(LAWS)), a=st.sampled_from([2.0 + 1e-12, 2.01, 3.7]),
       n=st.sampled_from([1, 40, 10**12, 10**30]) | st.integers(1, 10**30), se_exp=st.floats(-285.0, 0.25),
       ratio=st.sampled_from(SWEEP_RATIOS), negative=st.booleans())
def test_cdf_equals_estimator_map_oracle_over_extreme_inputs(kind, scaling, a, n, se_exp, ratio, negative):
    # n up to 1e30, and eta = 10**se_exp/sqrt(n) down to 1e-300
    eta = min(10.0, max(1e-300, 10.0**se_exp / math.sqrt(n)))
    theta = (-ratio if negative else ratio) * eta
    steps = [-10.0, -2.0, -0.5, 0.5, 2.0, 10.0]
    _assert_cdf_matches_map_oracle(kind, n, theta, eta, a, scaling, steps, steps)


def test_map_oracle_takes_its_precision_from_its_inputs():
    # at a fixed 60 digits theta + x/sqrt(n) = 1e150 + 10 rounds to eta, and the oracle read (0.5, 0.5) at x = 10;
    # at 60 + 151 digits it holds the 10, and the hard law's cdf of 1.0 is the float of 1 - Phi(-10)
    kind, n, theta, eta, a, x = EstimatorKind.HARD, 1, 1e150, 1e150, 3.7, 10.0
    want, want_sf = map_tails(kind, n, theta, eta, a, x, "sqrt_n")
    with mpmath.workdps(40):
        tail = mpmath.ncdf(-10)
        assert abs(want_sf - tail) <= 1e-30 * tail and abs(1 - want - tail) <= 1e-30 * tail
    assert finite_sample_dist(kind, ModelPoint(n, theta), TuningPlan(eta, a)).cdf(x) == float(want) == 1.0


_SHIFT_FOUND = ("FOUND: a piece's mapped point keeps only the absolute precision of its float shift and ends, "
                "about ulp(sqrt(n)*max(|theta|, a*eta)), against the few ulps of z that the bound allows")


@pytest.mark.xfail(strict=True, reason=_SHIFT_FOUND + (
    ": at n = 40, theta = eta = 10 the soft cdf one ulp above the atom at -63.2 reads 0.5000000000000029 "
    "for 0.5000000000000006"))
def test_cdf_with_a_shift_of_63_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.SOFT, 40, 10.0, 10.0, 3.7, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, reason=_SHIFT_FOUND + (
    ": at n = 1e18, theta = -eta*(1 - 1e-12) the atom's lower end loc - se = -0.001 is the difference of two "
    "floats near 1e9, and the hard cdf between it and the atom is off by 4e-8 relative"))
def test_cdf_at_theta_next_to_minus_eta_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.HARD, 10**18, -(1.0 - 1e-12), 1.0, 3.7, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the scad law at n = 1e30, theta = -+2*eta does not build: the blend piece's mapped upper end carries "
    "a rounding error of order |loc|*eps, so the pieces overlap in Phi and the mass reads 1.0016"))
def test_scad_law_at_theta_minus_two_eta_and_n_1e30_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.SCAD, 10**30, -0.1, 0.05, 3.7, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the scad law at the blend join theta = +-2*eta with a huge shift does not build: at n = 1, "
    "eta = 1e150 the build reads its mixture mass as 1.5"))
def test_scad_law_at_the_blend_join_with_eta_1e150_equals_estimator_map_oracle():
    for theta in (2e150, -2e150):
        _assert_cdf_matches_map_oracle(EstimatorKind.SCAD, 1, theta, 1e150, 3.7, "sqrt_n", [0.5])


# One cell per raise class of the domain scan (`tools/domain_scan.py`) with no pin of its own, each the scan's
# first cell of its class (a plays no part in hard and soft).  The laws exist: `map_tails` reads a step from 0 to 1 at the atom 0 (soft, hard on
# 1/eta) and at about 1e303 (scad), and reads 0 at every float for the hard law, whose mass sits at
# -sqrt(n)*theta = 5e308, past the largest float.
@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the soft law at n = 1e18, theta = 0, eta = 1e300 does not build: sqrt(n)*eta overflows, and the "
    "build raises 'shift must be finite'"))
def test_soft_law_where_sqrt_n_eta_overflows_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.SOFT, 10**18, 0.0, 1e300, 3.7, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the hard law on the 1/eta scale at n = 1e18, theta = 0, eta = 1e300 does not build: sqrt(n)*eta "
    "overflows, and the build raises 'scale must be a finite real number with scale > 0 (got inf)'"))
def test_hard_inv_eta_law_where_sqrt_n_eta_overflows_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.HARD, 10**18, 0.0, 1e300, 3.7, "inv_eta", [0.5])


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the scad law at n = 1e6, theta = -1e306, eta = 1e300, a = 1e10 does not build: a*eta overflows, and "
    "the build raises 'piece interval requires lower < upper'"))
def test_scad_law_where_a_eta_and_the_shift_overflow_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.SCAD, 10**6, -1e306, 1e300, 1e10, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "FOUND: the hard law at n = 1e18, theta = -5e299, eta = 1e300 does not build: sqrt(n)*eta overflows, "
    "loc +- se is inf - inf, and the build raises 'atom weight must be finite and nonnegative'"))
def test_hard_law_where_the_atom_ends_overflow_equals_estimator_map_oracle():
    _assert_cdf_matches_map_oracle(EstimatorKind.HARD, 10**18, -5e299, 1e300, 3.7, "sqrt_n", [0.5])


@pytest.mark.xfail(strict=True, raises=AttributeError, reason=(
    "ROADMAP live defect, mended by the sf of the cdf as Phi of the mapped point: a law has no upper tail, and "
    "for hard at n = 100, theta = 0, eta = 0.05, 1 - F(9) reads 0.0 where F(-9) reads 1.1285884059538408e-19"))
def test_hard_upper_tail_equals_estimator_map_oracle():
    law = finite_sample_dist(EstimatorKind.HARD, ModelPoint(100, 0.0), TuningPlan(0.05))
    _, want = map_tails(EstimatorKind.HARD, 100, 0.0, 0.05, 3.7, 9.0, "sqrt_n")
    assert abs(law.sf(9.0) - want) <= 4 * EPS * (1 - 2 * mpmath.log(want)) * want


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "ROADMAP live defect: where a*eta overflows the scad law does not build; at n = 1, theta = 1e307, "
    "eta = 1e300, a = 1e10 the build reads its mixture mass as 0.0"))
def test_scad_law_where_a_eta_overflows_builds_and_equals_estimator_map_oracle():
    # ybar ~ N(1e307, 1) lies in the blend, so the law is about N(-9.99e299, 1); at float resolution its cdf steps
    # from 0 to 1 there, and each point keeps about 1e-10 relative from the step
    n, theta, eta, a = 1, 1e307, 1e300, 1e10
    law = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(n, theta), TuningPlan(eta, a))
    assert law.total_mass() == pytest.approx(1.0, rel=0, abs=4 * EPS)
    xs = [-1e306, -1e300, -9.9e299, 0.0, 1e300]
    for x, got in zip(xs, law.cdf(np.array(xs)).tolist()):
        want, want_sf = map_tails(EstimatorKind.SCAD, n, theta, eta, a, x, "sqrt_n")
        assert (got, 1.0 - got) == (float(want), float(want_sf)), x


def _assert_arrays_match_points(dist):
    """cdf, cdf_left and density_ac at floats and at an array equal `point_values`, bit for bit.

    The grids: a fixed grid through +-inf, every breakpoint and both its
    neighbouring floats, the same grid shuffled, the shuffled grid trimmed
    to 2-d, an empty array, a grid strictly inside the first piece, and a
    grid past every finite end.  An array x gives an array of its shape.
    """
    cuts = np.asarray(dist.breakpoints())  # atoms and piece ends
    grid = np.concatenate([np.linspace(-6.0, 6.0, 41), cuts, [-math.inf, math.inf],
                           np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
    lo, hi = dist.pieces[0].lower, dist.pieces[0].upper
    start, stop = (lo if math.isfinite(lo) else hi - 2.0), (hi if math.isfinite(hi) else lo + 2.0)
    shuffled = np.random.default_rng(7).permutation(grid)
    grids = {
        "grid": grid,
        "shuffled": shuffled,
        "2-d": shuffled[:shuffled.size // 3 * 3].reshape(3, -1),
        "empty": np.array([]),
        "inside-one-piece": np.linspace(start, stop, 9)[1:-1],
        "past-every-end": max(cuts.tolist(), default=0.0) + np.array([0.5, 1.0, 10.0, 1e3]),
    }
    for name, xs in grids.items():
        flat = xs.ravel().tolist()
        for method, expected in zip((dist.cdf, dist.cdf_left, dist.density_ac), point_values(dist, flat)):
            for form in (float, np.array):  # a float x and a 0-d array x
                points = [method(form(x)) for x in flat]
                assert all(type(v) is float for v in points)
                assert np.array(points).tobytes() == expected.tobytes(), f"{method.__name__} at points of {name}"
            out = method(xs)
            assert out.shape == xs.shape and out.tobytes() == expected.tobytes(), f"{method.__name__} on {name}"


@pytest.mark.parametrize("builder", [finite_sample_dist, rescaled_dist])
@pytest.mark.parametrize("kind", KINDS)
def test_array_evaluation_matches_scalar_bit_for_bit(kind, builder):
    dist = builder(kind, ModelPoint(25, -0.3), TuningPlan(0.08, 2.5))
    _assert_arrays_match_points(dist)
    atom = dist.atoms[0]
    assert dist.cdf(atom.loc) - dist.cdf_left(atom.loc) == pytest.approx(atom.weight, abs=1e-15)


@pytest.mark.parametrize("dist", [
    consistent_limit(EstimatorKind.HARD, RegimeSpec(math.inf, zeta=1.0, r=0.5)),
    consistent_limit(EstimatorKind.HARD, RegimeSpec(math.inf, zeta=-1.0, r=0.5)),
    MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0, -math.inf, 0.3),
                                          GaussPiece(1.0, 0.0, 0.3, math.inf))),
    finite_sample_dist(EstimatorKind.SCAD, ModelPoint(100, 0.1), TuningPlan(1e-17)),
    conservative_limit(EstimatorKind.SCAD, 0.3, 1e-300),
    finite_sample_dist(EstimatorKind.SCAD, ModelPoint(25, -0.3), TuningPlan(0.08, 2 + 1e-9)),
], ids=["atom-at-minus-inf", "atom-at-plus-inf", "no-atoms", "one-empty-piece", "four-empty-pieces",
        "short-blend-pieces"])
def test_array_evaluation_of_other_laws_matches_scalar_bit_for_bit(dist):
    # the scad laws have pieces with lower == upper (1 at se = 1e-16, 4 in the limit at e = 1e-300)
    # or blend pieces of slope (a - 2)/(a - 1) about 1e-9, so short in the mapped variable
    _assert_arrays_match_points(dist)


def test_cdf_evaluates_phi_once_per_point(monkeypatch):
    # six scad pieces on 10,000 ascending points: Phi at each point inside
    # the one piece holding it, and at most the lower end and the upper end
    # of each piece on top
    dist = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(25, -0.3), TuningPlan(0.08, 2.5))
    xs = np.linspace(-6.0, 6.0, 10_000)
    evaluated = []

    def counting_norm_cdf(z):
        evaluated.append(np.size(z))
        return norm_cdf(z)

    monkeypatch.setattr(finite_dist, "norm_cdf", counting_norm_cdf)
    dist.cdf(xs)
    assert len(dist.pieces) == 6 and sum(evaluated) <= xs.size + 12


@pytest.mark.parametrize("method", ["cdf", "cdf_left", "density_ac"])
def test_nan_x_raises(method):
    law = finite_sample_dist(EstimatorKind.SCAD, FIG_POINT, FIG_TUNING)
    batch = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, [0.1, 0.2]), FIG_TUNING)
    for dist, x in ((law, math.nan), (law, [math.nan]), (law, [0.0, 1.0, math.nan]),
                    (law, [math.nan, 1.0, 0.0]), (batch, [0.0, math.nan])):
        with pytest.raises(ValueError, match="NaN"):
            getattr(dist, method)(x)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_of_laws_matches_scalar_laws_bit_for_bit(kind):
    # law i of the batch at x[i], where x[i] runs over both sides of law i's
    # atom and every breakpoint; theta = 40 puts the atom weight at exactly 0
    n, tun = 40, TuningPlan(0.05, 3.7)
    assert atom_weight(ModelPoint(n, 40.0), tun) == 0.0
    thetas, xs = [], []
    for theta in (-0.3, -0.05, 0.0, 0.02, 0.16, 40.0):
        cuts = np.asarray(finite_sample_dist(kind, ModelPoint(n, theta), tun).breakpoints())
        pts = np.concatenate([cuts - 1.0, cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
        thetas += [theta] * pts.size
        xs += pts.tolist()
    batch = finite_sample_dist(kind, ModelPoint(n, np.array(thetas)), tun)
    laws = [finite_sample_dist(kind, ModelPoint(n, theta), tun) for theta in thetas]
    for method in ("cdf", "cdf_left", "density_ac"):
        scalar = [getattr(law, method)(x) for law, x in zip(laws, xs)]
        np.testing.assert_array_equal(getattr(batch, method)(np.array(xs)), np.array(scalar))
    np.testing.assert_array_equal(batch.total_mass(), [law.total_mass() for law in laws])
    np.testing.assert_array_equal(batch.atoms[0].weight, [law.atoms[0].weight for law in laws])


def _assert_batch_matches_laws(builder, kind, n, thetas, tuning):
    """A batch's cdf, cdf_left and density_ac equal the per-law walk at each law's x, bit for bit.

    Each law is probed at +-inf, its atom, a point inside each nonempty
    piece, and every finite piece end with both its neighbouring floats.
    The batch holds one law per probe in shuffled order, so its x is
    unsorted.
    """
    probes = []
    for theta in thetas:
        law = builder(kind, ModelPoint(n, theta), tuning)
        ends = np.array([e for p in law.pieces for e in (p.lower, p.upper) if math.isfinite(e)])
        inner = [0.5 * (lo + hi) if math.isfinite(lo + hi) else (hi - 1.0 if math.isfinite(hi) else lo + 1.0)
                 for _, _, lo, hi in law.pieces if lo < hi]
        pts = np.concatenate([[-math.inf, math.inf, law.atoms[0].loc], inner,
                              ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
        probes += [(theta, law, x) for x in pts.tolist()]
    probes = [probes[i] for i in np.random.default_rng(11).permutation(len(probes))]
    thetas, laws, xs = zip(*probes)
    batch = builder(kind, ModelPoint(n, np.array(thetas)), tuning)
    for method in ("cdf", "cdf_left", "density_ac"):
        want = np.array([getattr(law, method)(x) for law, x in zip(laws, xs)])
        assert getattr(batch, method)(np.array(xs)).tobytes() == want.tobytes(), method


@pytest.mark.parametrize("builder", [finite_sample_dist, rescaled_dist])
@pytest.mark.parametrize("kind", KINDS)
def test_batch_evaluates_each_point_in_its_own_piece_bit_for_bit(kind, builder):
    # theta = 40 puts the atom weight at exactly 0; a = 2.01 makes the blend pieces short
    for n, tuning in ((40, TuningPlan(0.05, 3.7)), (10_000, TuningPlan(0.1, 2.01))):
        _assert_batch_matches_laws(builder, kind, n, (-0.3, -0.05, 0.0, 0.02, 0.16, 40.0), tuning)


MAX_FLOAT = float(np.finfo(float).max)


@pytest.mark.parametrize("builder", [finite_sample_dist, rescaled_dist])
@pytest.mark.parametrize("kind", KINDS)
def test_float_extremes_give_the_limit_values_without_overflow(kind, builder):
    # +-max float is the nextafter neighbour of +-inf, and 1.4e154 squares past it; at sqrt(n)*eta = 0.4
    # the inv_eta slopes are below 1, at 5 they are above 1, so there s*x overflows
    huge = np.array([MAX_FLOAT, np.nextafter(MAX_FLOAT, 0.0), 1e200, 1.4e154])
    for n, theta, tuning in ((25, -0.3, TuningPlan(0.08, 2.5)), (100, -0.3, TuningPlan(0.5, 3.7))):
        law = builder(kind, ModelPoint(n, theta), tuning)
        batch = builder(kind, ModelPoint(n, [theta, -theta, 0.0, 1.0]), tuning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dist in (law, batch):
                for x, limit in ((huge, dist.cdf(math.inf)), (-huge, 0.0)):
                    for method, want in ((dist.cdf, limit), (dist.cdf_left, limit), (dist.density_ac, 0.0)):
                        assert np.all(method(x) == want)
                        assert all(np.all(method(v) == want) for v in x.tolist())


def test_cdf_where_slope_times_x_overflows_is_exact():
    # why `_evaluate` keeps np.errstate(over="ignore"): at slope 5, s*x overflows to inf at x = 1e308, where
    # Phi is exactly 1 and the pdf 0, so the cdf reads its value at +inf and the density 0, with no warning
    law = rescaled_dist(EstimatorKind.HARD, ModelPoint(100, 0.0), TuningPlan(0.5))
    assert [p.slope for p in law.pieces] == [5.0, 5.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.cdf(1e308) == law.cdf(math.inf) == 1.0 and law.density_ac(1e308) == 0.0
        assert law.cdf(-1e308) == 0.0 and law.density_ac(-1e308) == 0.0


@pytest.mark.parametrize("builder", [finite_sample_dist, rescaled_dist])
@pytest.mark.parametrize("kind", KINDS)
def test_only_a_batch_build_enters_np_errstate(kind, builder, monkeypatch):
    # a single law's float arithmetic never warns, so its build (through `_mixture`, and `rescaled` for
    # rescaled_dist) enters no context manager; a batch's array arithmetic does need one
    def refuse(*args, **kwargs):
        raise AssertionError("np.errstate entered")

    monkeypatch.setattr(np, "errstate", refuse)
    law = builder(kind, ModelPoint(40, 0.16), FIG_TUNING)
    assert law.second_moment() > 0.0
    with pytest.raises(AssertionError, match="np.errstate entered"):
        builder(kind, ModelPoint(40, [0.16, -0.3]), FIG_TUNING)


def test_only_a_batch_atom_weight_enters_np_errstate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.errstate entered")

    monkeypatch.setattr(np, "errstate", refuse)
    assert 0.0 < atom_weight(ModelPoint(40, 0.16), FIG_TUNING) < 1.0
    with pytest.raises(AssertionError, match="np.errstate entered"):
        atom_weight(ModelPoint(40, [0.16, -0.3]), FIG_TUNING)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_past_the_float_range_equals_the_scalar_laws(kind):
    # sqrt(n)*theta = -+1e315 is past the float range, so loc is -+inf for a batch as for one law, with no
    # overflow warning; scad's empty blend pieces then take the largest float as their shift
    thetas, tuning = [1e300, -1e300], TuningPlan(0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = finite_sample_dist(kind, ModelPoint(10**30, thetas), tuning)
        laws = [finite_sample_dist(kind, ModelPoint(10**30, theta), tuning) for theta in thetas]
    assert len(batch.atoms) == 1 and len(batch.pieces) == len(laws[0].pieces)
    for i, law in enumerate(laws):
        for got, want in zip((*batch.atoms, *batch.pieces), (*law.atoms, *law.pieces)):
            assert np.array([np.broadcast_to(v, (2,))[i] for v in got]).tobytes() == np.array(want).tobytes()
    if kind is not EstimatorKind.SOFT:  # soft keeps a normal shifted by -+sqrt(n)*eta; hard and scad the standard one
        x = np.linspace(-8.0, 8.0, 321)
        for law in laws:
            assert law.atoms[0].weight == 0.0 and _bits(law.cdf(x)) == _bits(norm_cdf(x))


def _law_or_error(builder, kind, point, tuning):
    """The law, or the message of its ValueError with a mass total (a float or an array) left out."""
    try:
        return builder(kind, point, tuning)
    except ValueError as err:
        return re.sub(r"mass .* is not", "mass is not", str(err))


# (n, pair of thetas, eta, a) cells whose knots, mapped ends and rescaled ends reach the float extremes
FLOAT_EXTREMES = list(itertools.product((1, 10**6, 10**30), ((0.3, 0.3), (1e150, -1e150), (-1e307, 1e307)),
                                        (1e-300, 1.0, 1e300, 1.7e308), (2.0 + 1e-12, 3.7, 1e10)))
# digests of the single-law path's bits and errors, captured before its one-pass build and moment
RISK_SWEEP_SHA256 = "fabc3773815644c1cee58ee3086aeee19bca698cccd538d0f2407f499b7cb796"
FLOAT_EXTREMES_SHA256 = "538df74f0dd2ee17ef20b0f9f7e6d948f029b4379b04cb1c4c376ee21b1c3b48"


@pytest.mark.parametrize("scaling", LAWS)
@pytest.mark.parametrize("kind", KINDS)
def test_batch_at_float_extremes_is_as_quiet_as_its_single_laws(kind, scaling):
    # knots, mapped ends and rescaled ends overflow to -+inf or turn NaN (inf - inf) in a single law's float
    # arithmetic without a warning; a batch must build as quietly (any RuntimeWarning fails a test), and then
    # equal its laws record for record, or raise the ValueError they raise
    builder = LAWS[scaling]
    for n, pair, eta, a in FLOAT_EXTREMES:
        tuning = TuningPlan(eta, a)
        laws = [_law_or_error(builder, kind, ModelPoint(n, theta), tuning) for theta in pair]
        batch = _law_or_error(builder, kind, ModelPoint(n, list(pair)), tuning)
        errors = [law for law in laws if isinstance(law, str)]
        if errors or isinstance(batch, str):
            assert batch in errors, (n, pair, eta, a)
            continue
        for i, law in enumerate(laws):
            for got, want in zip((*batch.atoms, *batch.pieces), (*law.atoms, *law.pieces)):
                assert _bits([np.broadcast_to(v, (2,))[i] for v in got]) == _bits(want), (n, pair, eta, a)
        assert _bits(batch.cdf(0.5)) == _bits([law.cdf(0.5) for law in laws])


def test_batch_atom_weight_at_float_extremes_is_as_quiet_as_its_single_points():
    # at (-1e307, 1e307) the zero event's ends loc -+ se are inf - inf for n*eta large enough, NaN for a
    # batch as for a single point (test_atom_weight_past_the_float_range_is_one_inside_eta), and with no warning
    for n, pair, eta, a in FLOAT_EXTREMES:
        tuning = TuningPlan(eta, a)
        want = _bits([atom_weight(ModelPoint(n, theta), tuning) for theta in pair])
        assert _bits(atom_weight(ModelPoint(n, list(pair)), tuning)) == want, (n, pair, eta, a)


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_risk_sweep_keeps_its_bits():
    # the risk sweep's single-law path (n in {10, 100, 1000}, 81 theta in [-1, 1], eta = n**-0.25, a = 3.7):
    # every scaled_risk of the three kinds and every atom_weight, as one sha256 over their .hex()
    path, lines = PowerTuningPath(1.0, 0.25), []
    for n in (10, 100, 1000):
        tuning = TuningPlan(path.eta(n), 3.7)
        for theta in np.linspace(-1.0, 1.0, 81).tolist():
            point = ModelPoint(n, theta)
            lines += [scaled_risk(kind, point, tuning).hex() for kind in KINDS] + [atom_weight(point, tuning).hex()]
    assert _sha256(lines) == RISK_SWEEP_SHA256


def _law_bits_or_error(builder, kind, point, tuning) -> str:
    """The .hex() of a single law's record fields, masses, total mass and second moment, or its ValueError's message."""
    try:
        law = builder(kind, point, tuning)
    except ValueError as err:
        return str(err)
    fields = [v for r in (*law.atoms, *law.pieces) for v in r]
    values = [*fields, *law._masses, law.total_mass(), law.second_moment()]
    return f"{len(law.atoms)} {len(law.pieces)} " + " ".join(float(v).hex() for v in values)


def test_single_laws_at_float_extremes_keep_their_bits_and_errors():
    # each single point of FLOAT_EXTREMES, for every kind and scaling: a change in any bit of a law, or in
    # which ValueError a faulty one raises first, moves the digest
    lines = [_law_bits_or_error(LAWS[scaling], kind, ModelPoint(n, theta), TuningPlan(eta, a))
             for n, pair, eta, a in FLOAT_EXTREMES for theta in pair for kind in KINDS for scaling in LAWS]
    assert _sha256(lines) == FLOAT_EXTREMES_SHA256


def test_batch_with_empty_pieces_matches_laws_bit_for_bit():
    # at se = sqrt(n)*eta = 1e-16, loc - se rounds to loc = -1, and some scad pieces are empty
    empty = [lo == hi for _, _, lo, hi in finite_sample_dist(EstimatorKind.SCAD, ModelPoint(100, 0.1),
                                                               TuningPlan(1e-17)).pieces]
    assert any(empty)
    _assert_batch_matches_laws(finite_sample_dist, EstimatorKind.SCAD, 100, (0.1, -0.1, 0.0, 0.3), TuningPlan(1e-17))


@pytest.mark.parametrize("method", ["cdf", "cdf_left", "density_ac"])
@pytest.mark.parametrize("kind", KINDS)
def test_batch_at_a_scalar_x_evaluates_every_law_there(kind, method):
    batch = finite_sample_dist(kind, ModelPoint(40, [0.1, 0.2, -0.05]), FIG_TUNING)
    for x in (0.0, np.float64(-0.4), np.array(1.3)):
        np.testing.assert_array_equal(getattr(batch, method)(x), getattr(batch, method)(np.full(3, x)))


@pytest.mark.parametrize("method", ["cdf", "cdf_left", "density_ac"])
def test_batch_rejects_x_of_another_shape(method):
    batch = finite_sample_dist(EstimatorKind.HARD, ModelPoint(40, [0.1, 0.2]), FIG_TUNING)
    for x in (np.zeros((2, 2)), np.zeros(3), np.zeros(1), np.zeros((1, 2)), []):
        shape = re.escape(str(np.shape(x)))
        with pytest.raises(ValueError, match=rf"{shape}.*\(2,\)"):
            getattr(batch, method)(x)


@pytest.mark.parametrize("method", ["second_moment", "breakpoints", "to_json"])
def test_single_law_methods_reject_a_batch(method):
    batch = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, [0.1, 0.2]), FIG_TUNING)
    with pytest.raises(ValueError, match="single law"):
        getattr(batch, method)()


def test_batch_equality_compares_every_record_field():
    law = lambda kind, theta: finite_sample_dist(kind, ModelPoint(40, theta), FIG_TUNING)
    batch = law(EstimatorKind.HARD, [0.1, 0.2])
    same = batch == law(EstimatorKind.HARD, np.array([0.1, 0.2]))
    assert same is True
    assert (batch != law(EstimatorKind.HARD, [0.1, 0.2])) is False
    for other in (law(EstimatorKind.HARD, [0.1, 0.3]), law(EstimatorKind.HARD, [0.1, 0.2, 0.3]),
                  law(EstimatorKind.SOFT, [0.1, 0.2]), law(EstimatorKind.SCAD, [0.1, 0.2]),
                  law(EstimatorKind.HARD, 0.1), law(EstimatorKind.HARD, [0.1])):
        assert (batch == other) is False and (other == batch) is False
    assert batch != "not a law"


def test_batch_field_shared_by_every_law_is_one_value():
    # a field given once (as a float or a length-1 array) serves every law: same totals, values
    # and equality as the field given per law
    normal = (GaussPiece(1.0, 0.0, -math.inf, 0.3), GaussPiece(1.0, 0.0, 0.3, math.inf))
    laws = [MixtureDistribution(atoms=(Atom(np.array([0.0, 1.0]), form(0.0)),),
                                pieces=tuple(GaussPiece(*(form(v) for v in p)) for p in normal))
            for form in (float, lambda v: np.full(1, v), lambda v: np.full(2, v))]
    assert laws[0].pieces[0].slope.shape == () and laws[0] == laws[1] == laws[2] == laws[0]
    x = np.array([0.0, 1.0])
    for law in laws:
        np.testing.assert_array_equal(law.total_mass(), [1.0, 1.0])
        for method in ("cdf", "cdf_left", "density_ac"):
            assert getattr(law, method)(x).tobytes() == getattr(laws[2], method)(x).tobytes()


def _fields(law) -> list:
    return [v for r in (*law.atoms, *law.pieces) for v in r]


@pytest.mark.parametrize("kind", KINDS)
def test_batch_fields_are_read_only(kind):
    # every field of a batch from the library's builders is a read-only array: an in-place write raises and
    # leaves the law as it was (the exact bootstrap builds no law; see test_exact_builds_no_law)
    point, tuning = ModelPoint(100, [0.0, 0.1]), TuningPlan(0.1)
    laws = [finite_sample_dist(kind, point, tuning), rescaled_dist(kind, point, tuning)]
    for law in laws:
        cdf, mass = law.cdf(0.5), law.total_mass()
        for v in _fields(law):
            assert isinstance(v, np.ndarray) and not v.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                v[...] = 0.9
        assert law.cdf(0.5).tobytes() == cdf.tobytes() and law.total_mass().tobytes() == mass.tobytes()


def test_batch_from_a_callers_arrays_does_not_follow_later_writes():
    # a writable array, a read-only view of one, and an array of another dtype are each copied once
    loc, base = np.array([0.0, 1.0]), np.array([0.3, 1.2])
    view = base[:]
    view.flags.writeable = False
    weight, slope = np.zeros(2, dtype=np.float32), np.ones(2)
    law = MixtureDistribution(atoms=(Atom(loc, weight),), pieces=(
        GaussPiece(slope, 0.0, -math.inf, view), GaussPiece(slope, 0.0, view, math.inf)))
    x = np.array([0.5, 1.5])
    cdf, mass, fields = law.cdf(x), law.total_mass(), [v.copy() for v in _fields(law)]
    loc[:], base[:], weight[:], slope[:] = 7.0, -1.0, 0.5, 3.0
    assert law.cdf(x).tobytes() == cdf.tobytes() and law.total_mass().tobytes() == mass.tobytes()
    assert all(u.tobytes() == v.tobytes() for u, v in zip(_fields(law), fields))
    owned = np.array([0.0, 1.0])  # an owned read-only array is copied too, read-only
    owned.flags.writeable = False
    kept = MixtureDistribution(atoms=(Atom(owned, 0.0),), pieces=law.pieces).atoms[0].loc
    assert kept is not owned and not kept.flags.writeable and kept.tobytes() == owned.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_no_array_a_caller_passes_comes_back_read_only(kind):
    theta, loc = np.array([0.0, 0.1]), np.array([-1.0, 0.0, 2.0])
    law = finite_sample_dist(kind, ModelPoint(100, theta), FIG_TUNING)
    built = finite_dist._mixture(kind, loc, 0.5, 3.7)
    field = np.array([0.2, 0.4])
    records = MixtureDistribution(atoms=(Atom(field, 0.0),), pieces=(GaussPiece(1.0, 0.0, -math.inf, math.inf),))
    assert theta.flags.writeable and loc.flags.writeable and field.flags.writeable
    assert built.atoms[0].loc is not loc and records.atoms[0].loc is not field
    for batch in (law, built, records):  # what a batch returns is the caller's to write
        assert batch.cdf(0.5).flags.writeable and batch.total_mass().flags.writeable


# peak and kept bytes of one build of B laws from a caller's writable loc, in arrays of B floats; the slack is
# for the Python objects of the records, under a fifth of one such array
BUILD_ARRAYS = {EstimatorKind.HARD: (14, 7), EstimatorKind.SOFT: (12, 7), EstimatorKind.SCAD: (40, 25)}


@pytest.mark.parametrize("kind", KINDS)
def test_batch_build_memory_budget(kind):
    count, slack = 10_000, 16_384
    loc = np.linspace(-3.0, 3.0, count)
    finite_dist._mixture(kind, loc, 0.5, 3.7)
    tracemalloc.start()
    try:
        law = finite_dist._mixture(kind, loc, 0.5, 3.7)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_arrays, kept_arrays = BUILD_ARRAYS[kind]
    assert peak <= peak_arrays * 8 * count + slack and kept <= kept_arrays * 8 * count + slack
    assert law.atoms[0].weight.size == count


@pytest.mark.parametrize("kind", KINDS)
def test_mapped_point_is_the_laws_cdf(kind):
    # Phi of `_mapped_point` is the batch law's cdf: bit for bit where the walk adds a single term (the
    # first piece, and hard's gap below the atom), within 4 eps everywhere, and bit for bit Phi of
    # the law's own mapped point (`mapped_point_reference`) at every piece end, its float neighbours,
    # the atom and a grid; with no warning at the infinite ends and x
    se, a = 1.3, 3.7
    offsets = np.array([c * se for c in (-a, -1.0, 0.0, 1.0, a)])
    ends = np.concatenate([offsets, np.nextafter(offsets, -np.inf), np.nextafter(offsets, np.inf),
                           np.linspace(-12.0, 12.0, 49), [-1e-9, 1e-9]])
    centres = np.array([-40.0, -3.0, -0.0, 0.7, 5.0, 37.0])
    loc = np.repeat(centres, ends.size)
    x = np.concatenate([np.tile(ends, centres.size) + loc, [-np.inf, np.inf]])
    loc = np.concatenate([loc, [0.5, 0.5]])
    law = finite_dist._mixture(kind, loc, se, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_cdf(finite_dist._mapped_point(kind, x, loc, se, a))
    cdf = law.cdf(x)
    single = (x < loc) & ((x <= law.pieces[0].upper) | (kind is EstimatorKind.HARD))
    assert np.sum(single) >= 6 * centres.size
    assert got[single].tobytes() == cdf[single].tobytes()
    assert np.max(np.abs(got - cdf)) <= 4 * EPS
    assert got.tobytes() == norm_cdf(mapped_point_reference(law, x)).tobytes()


def test_batch_of_laws_is_unhashable():
    batch = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, [0.1, 0.2]), FIG_TUNING)
    with pytest.raises(TypeError, match="batch of laws is unhashable"):
        hash(batch)


def test_single_laws_keep_equality_and_hash():
    law = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, 0.1), FIG_TUNING)
    twin = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, 0.1), FIG_TUNING)
    assert law == twin and hash(law) == hash(twin) == hash((law.atoms, law.pieces))
    assert law != finite_sample_dist(EstimatorKind.SCAD, ModelPoint(40, 0.2), FIG_TUNING)
    assert law == MixtureDistribution.from_json(json.loads(json.dumps(law.to_json())))
    assert len({law, twin}) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 10**8), theta=st.floats(-2.0, 2.0),
       eta=st.floats(1e-3, 3.0), log_excess=st.floats(-9.0, 1.0))
def test_build_and_second_moment_equal_per_piece_reference_bit_for_bit(kind, n, theta, eta, log_excess):
    # scad a = 2 + 10**log_excess reaches down to 2 + 1e-9, where the blend
    # pieces are short and second_moment integrates them by Gauss-Legendre
    point, tuning = ModelPoint(n, theta), TuningPlan(eta, 2.0 + 10.0**log_excess)
    for dist in (finite_sample_dist(kind, point, tuning), rescaled_dist(kind, point, tuning)):
        phi_lower, masses = reference_masses(dist.pieces)
        assert [m.hex() for m in dist._masses] == [m.hex() for m in masses]
        assert [p.hex() for p in dist._phi_lower] == [p.hex() for p in phi_lower]
        assert dist.total_mass().hex() == (sum(a.weight for a in dist.atoms) + sum(masses)).hex()
        assert dist.second_moment().hex() == reference_second_moment(dist).hex()
    risk = scaled_risk(kind, point, tuning)
    assert risk.hex() == reference_second_moment(finite_sample_dist(kind, point, tuning)).hex()
    loc, se = -point.sqrt_n * theta, point.sqrt_n * eta
    weight = atom_weight(point, tuning)
    assert type(weight) is float and weight.hex() == (norm_cdf(loc + se) - norm_cdf(loc - se)).hex()
    batch = finite_sample_dist(kind, ModelPoint(n, [theta, -theta]), tuning)
    laws = [finite_sample_dist(kind, ModelPoint(n, th), tuning) for th in (theta, -theta)]
    for i, law in enumerate(laws):
        assert [m[i].hex() for m in batch._masses] == [m.hex() for m in law._masses]
        assert batch.atoms[0].weight[i].hex() == law.atoms[0].weight.hex()


ZERO_EVENT_CASES = {  # (n, a batch of theta, eta, scad a)
    "n-1e30": (10**30, [0.3, -0.07, 0.05, -0.05, 1e-16], 0.05, 3.7),
    "eta-1e-300": (1, [1e-300, -2e-300, 0.0, 5.0], 1e-300, 3.7),
    "n-1e30-eta-1e-300": (10**30, [1e-300, -3e-300, 1e-290], 1e-300, 3.7),
    "a-2+1e-12": (100, [0.1, -0.2, 0.05, 0.0], 0.05, 2.0 + 1e-12),
    "theta-signed-zero": (25, [0.0, -0.0], 0.08, 2.5),
}


def _bits(values) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _assert_atom_is_the_zero_event(law, loc, se):
    """The atom weight `_mixture` takes from the build's Phi values is `_zero_mass(loc, se)`, and those
    Phi values and masses are the public constructor's from the same records, bit for bit."""
    assert _bits([law.atoms[0].weight]) == _bits([finite_dist._zero_mass(loc, se)])
    twin = MixtureDistribution(law.atoms, law.pieces)
    for name in ("_phi_lower", "_masses"):
        assert _bits(getattr(law, name)) == _bits(getattr(twin, name)), name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, thetas, eta, a", ZERO_EVENT_CASES.values(), ids=ZERO_EVENT_CASES.keys())
def test_atom_weight_from_the_build_is_the_zero_event_mass_bit_for_bit(kind, n, thetas, eta, a):
    tuning = TuningPlan(eta, a)
    for theta in [*thetas, np.array(thetas)]:
        point = ModelPoint(n, theta)
        law = finite_sample_dist(kind, point, tuning)
        _assert_atom_is_the_zero_event(law, *finite_dist._cut_points(point, tuning))


@pytest.mark.parametrize("kind", KINDS)
def test_atom_weight_at_an_infinite_loc_is_the_zero_event_mass_bit_for_bit(kind):
    # sqrt(n)*theta past the float range puts the atom at -+inf; a batch of such locs is built from loc itself,
    # and a batch whose middle ends are infinite for every law takes Phi there without a kernel call
    se, tuning = math.sqrt(10**30) * 0.05, TuningPlan(0.05)
    locs = (-math.inf, math.inf, np.array([math.inf, -math.inf]), np.array([math.inf, -math.inf, 0.3]))
    points = [ModelPoint(10**30, theta) for theta in (1e300, -1e300)]
    for loc in locs:
        _assert_atom_is_the_zero_event(finite_dist._mixture(kind, loc, se, 3.7), loc, se)
    for point in points:
        law = finite_sample_dist(kind, point, tuning)
        _assert_atom_is_the_zero_event(law, *finite_dist._cut_points(point, tuning))


def _count_kernel_calls(monkeypatch):
    calls = {"norm_cdf": 0, "norm_pdf": 0}
    for name, kernel in (("norm_cdf", norm_cdf), ("norm_pdf", norm_pdf)):
        def counting(z, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(z)
        monkeypatch.setattr(finite_dist, name, counting)
    return calls


@pytest.mark.parametrize("n", [25, 400])  # at n = 25 the soft-type pieces are short
def test_scalar_law_calls_the_normal_kernel_once_per_job(monkeypatch, n):
    law = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(n, -0.3), TuningPlan(0.08, 2.5))
    short = [abs(s * (hi - lo)) < finite_dist._SHORT_PIECE for s, _, lo, hi in law.pieces]
    assert any(short) == (n == 25)
    calls = _count_kernel_calls(monkeypatch)
    MixtureDistribution(law.atoms, law.pieces)
    assert calls == {"norm_cdf": 1, "norm_pdf": 0}
    calls.update(norm_cdf=0, norm_pdf=0)
    law.second_moment()
    assert calls["norm_cdf"] == 0 and calls["norm_pdf"] == 1 + any(short)
    calls.update(norm_cdf=0, norm_pdf=0)
    atom_weight(ModelPoint(n, -0.3), TuningPlan(0.08))
    assert calls == {"norm_cdf": 2, "norm_pdf": 0}  # one call per end


@pytest.mark.parametrize("kind, finite_ends", [(EstimatorKind.HARD, 2), (EstimatorKind.SOFT, 2),
                                               (EstimatorKind.SCAD, 10)])
def test_law_build_takes_the_atom_weight_from_its_own_kernel_calls(monkeypatch, kind, finite_ends):
    # a law makes one call over every mapped end, and a batch one call per end finite for some law
    calls = _count_kernel_calls(monkeypatch)
    finite_sample_dist(kind, ModelPoint(25, -0.3), TuningPlan(0.08, 2.5))
    assert calls == {"norm_cdf": 1, "norm_pdf": 0}
    points = []
    monkeypatch.setattr(finite_dist, "norm_cdf", lambda z: points.append(np.size(z)) or norm_cdf(z))
    finite_sample_dist(kind, ModelPoint(25, np.linspace(-0.3, 0.3, 10_000)), TuningPlan(0.08, 2.5))
    assert points == [10_000] * finite_ends


@pytest.mark.parametrize("n", [25, 400])  # at n = 25 scad's soft-type pieces are short
@pytest.mark.parametrize("kind", KINDS)
def test_scaled_risk_builds_one_exact_law_within_its_kernel_budget(monkeypatch, kind, n):
    # one normal-cdf call over the 2P mapped ends of the P pieces, one normal-pdf call over the same array and one
    # more over 8 nodes per short piece; the one law built keeps the records `_mixture` made with no type test
    point, tuning = ModelPoint(n, -0.3), TuningPlan(0.08, 2.5)
    law = finite_sample_dist(kind, point, tuning)
    want = law.second_moment()
    short = sum(lo < hi and abs(zb - za) < finite_dist._SHORT_PIECE
                for (za, zb), (_, _, lo, hi) in zip(law._ends.tolist(), law.pieces))
    assert bool(short) == (n == 25 and kind is EstimatorKind.SCAD)
    points, exact = {"norm_cdf": [], "norm_pdf": []}, []
    for name, kernel in (("norm_cdf", norm_cdf), ("norm_pdf", norm_pdf)):
        monkeypatch.setattr(finite_dist, name, lambda z, name=name, kernel=kernel: points[name].append(np.size(z))
                            or kernel(z))
    init = MixtureDistribution.__init__  # records whether the law comes with its mapped ends: no type test
    monkeypatch.setattr(MixtureDistribution, "__init__", lambda law, atoms, pieces, _phi=None:
                        exact.append(_phi is not None and _phi[0] is not None) or init(law, atoms, pieces, _phi))
    assert scaled_risk(kind, point, tuning).hex() == want.hex()
    ends = 2 * len(law.pieces)
    assert points == {"norm_cdf": [ends], "norm_pdf": [ends] + [8 * short] * bool(short)}
    assert exact == [True]


def _risk_or_error(risk):
    """The bits of risk(), or the type and message of its ValueError."""
    try:
        return risk().hex()
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("kind", KINDS)
def test_scaled_risk_raises_or_returns_as_the_law_does(kind):
    # the float extremes of the batch tables (n = 1e30, eta = 1e-300 and se past the float range, a = 2 + 1e-12),
    # alone and as a batch: the same bits as the law's second_moment, or the same ValueError
    for n, pair, eta, a in itertools.product((1, 10**6, 10**30), ((0.3, -0.07), (1e150, -1e150), (-1e307, 1e307)),
                                             (1e-300, 1.0, 1e300, 1.7e308), (2.0 + 1e-12, 3.7, 1e10)):
        tuning = TuningPlan(eta, a)
        for point in (ModelPoint(n, pair[0]), ModelPoint(n, pair[1]), ModelPoint(n, list(pair))):
            want = _risk_or_error(lambda: finite_sample_dist(kind, point, tuning).second_moment())
            assert _risk_or_error(lambda: scaled_risk(kind, point, tuning)) == want, (n, point.theta, eta, a)


TINY_SE = {
    # se = sqrt(n)*eta is so small that loc - se rounds to loc
    "eta-1e-17": (ModelPoint(100, 0.1), TuningPlan(1e-17)),
    "e-1e-300": (ModelPoint(1, -0.3), TuningPlan(1e-300)),
}


def _mpmath_phi(xs) -> np.ndarray:
    with mpmath.workdps(50):
        return np.array([float(mpmath.ncdf(mpmath.mpf(x))) for x in xs])


def _assert_standard_normal(law):
    """A scad law at se ~ 0 is Phi up to rounding: the estimate is within a*eta of ybar, so a*se*pdf(0) < 2e-16."""
    xs = np.linspace(-5.0, 5.0, 201)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(law.cdf(xs) - _mpmath_phi(xs))) <= 4 * np.finfo(float).eps
    exact = mpmath_second_moment(law)
    assert abs(exact - 1) <= 1e-15 and abs(law.second_moment() - exact) <= 1e-15


@pytest.mark.parametrize("point, tuning", TINY_SE.values(), ids=TINY_SE.keys())
def test_scad_law_at_a_tiny_se_has_empty_pieces_and_is_standard_normal(point, tuning):
    law = finite_sample_dist(EstimatorKind.SCAD, point, tuning)
    empty = [m for m, (_, _, lo, hi) in zip(law._masses, law.pieces) if lo == hi]
    assert empty and set(empty) == {0.0}
    _assert_standard_normal(law)


def test_conservative_scad_limit_at_a_tiny_e_is_standard_normal():
    law = conservative_limit(EstimatorKind.SCAD, 0.3, 1e-300)
    assert sum(lo == hi for _, _, lo, hi in law.pieces) == 4
    _assert_standard_normal(law)


@pytest.mark.parametrize("point, tuning", TINY_SE.values(), ids=TINY_SE.keys())
def test_scad_batch_at_a_tiny_se_is_standard_normal(point, tuning):
    thetas = [point.theta, -point.theta, 0.0, 2.5]
    batch = finite_sample_dist(EstimatorKind.SCAD, ModelPoint(point.n, thetas), tuning)
    for x in (-5.0, -1.0, -0.3, 0.0, 0.3, 1.0, 5.0):
        np.testing.assert_allclose(batch.cdf(x), _mpmath_phi([x] * len(thetas)), rtol=0, atol=4 * np.finfo(float).eps)
    for i in range(len(thetas)):  # law i, read out of the batch's records
        law = [[np.broadcast_to(f, len(thetas))[i] for f in r] for r in (*batch.atoms, *batch.pieces)]
        _assert_standard_normal(MixtureDistribution(atoms=(Atom(*law[0]),), pieces=[GaussPiece(*p) for p in law[1:]]))


def test_a_law_and_a_batch_report_the_same_fault():
    # piece 1 has an infinite shift and piece 2 a negative slope: the first faulty record decides
    pieces = (GaussPiece(1.0, math.inf, -math.inf, 0.0), GaussPiece(-1.0, 0.0, 0.0, math.inf))
    with pytest.raises(ValueError, match="shift must be finite"):
        MixtureDistribution(atoms=(Atom(0.0, 0.0),), pieces=pieces)
    batch = (GaussPiece(1.0, np.array([0.0, math.inf]), -math.inf, 0.0),
             GaussPiece(np.array([1.0, -1.0]), 0.0, 0.0, math.inf))
    with pytest.raises(ValueError, match="shift must be finite"):
        MixtureDistribution(atoms=(Atom(np.array([0.0, 1.0]), 0.0),), pieces=batch)


def test_batch_validation_rejects_any_bad_law():
    # each of the eight record faults, planted in one law's field and in a field every law shares,
    # raises the message the single bad law raises; an infinite weight is the record rule's, not the mass check's
    law = [Atom(0.0, 0.0), Atom(1.0, 0.0), GaussPiece(1.0, 0.0, -math.inf, math.inf)]
    faults = [(0, "loc", math.nan, "NaN"), (0, "weight", -0.5, "weight"), (0, "weight", math.inf, "weight"),
              (2, "slope", -1.0, "slope"), (2, "slope", 0.0, "slope"), (2, "shift", math.inf, "shift"),
              (2, "lower", math.nan, "lower < upper"), (1, "loc", 0.0, "distinct")]
    for record, field, bad, match in faults:
        single = list(law)
        single[record] = single[record]._replace(**{field: bad})
        with pytest.raises(ValueError, match=match) as alone:
            MixtureDistribution(atoms=single[:2], pieces=single[2:])
        for value in (np.array([getattr(law[record], field), bad]), np.array(bad)):
            batch = list(law)
            batch[2] = batch[2]._replace(upper=np.full(2, math.inf))  # two laws, whatever is planted
            batch[record] = batch[record]._replace(**{field: value})
            with pytest.raises(ValueError) as err:
                MixtureDistribution(atoms=batch[:2], pieces=batch[2:])
            assert str(err.value) == str(alone.value)
    good = GaussPiece(1.0, 0.0, -math.inf, math.inf)
    with pytest.raises(ValueError, match="weight"):
        MixtureDistribution(atoms=(Atom(np.array([0.0, 1.0]), np.array([0.0, -0.5])),), pieces=(good,))
    with pytest.raises(ValueError, match="lower < upper"):
        MixtureDistribution(atoms=(), pieces=(GaussPiece(1.0, 0.0, np.array([-math.inf, 2.0]), 1.0),))
    with pytest.raises(ValueError, match="distinct"):
        MixtureDistribution(atoms=(Atom(np.array([0.0, 1.0]), 0.0), Atom(np.array([2.0, 1.0]), 0.0)),
                            pieces=(good,))
    with pytest.raises(ValueError, match="mass"):
        MixtureDistribution(atoms=(Atom(np.array([0.0, 1.0]), np.array([0.0, 0.5])),), pieces=(good,))


def test_json_round_trip():
    # at both scalings every piece keeps a "coeff" key equal to its slope, and the law reads back equal
    for kind in KINDS:
        for build in finite_dist.LAWS.values():
            dist = build(kind, FIG_POINT, FIG_TUNING)
            blob = dist.to_json()
            assert all(p["coeff"] == p["slope"] for p in blob["pieces"])
            clone = MixtureDistribution.from_json(json.loads(json.dumps(blob)))
            assert clone == dist
            xs = np.linspace(-4, 4, 17)
            np.testing.assert_array_equal(clone.cdf(xs), dist.cdf(xs))


def test_from_json_rejects_coeff_other_than_slope():
    blob = json.loads(json.dumps(finite_sample_dist(EstimatorKind.SCAD, FIG_POINT, FIG_TUNING).to_json()))
    blob["pieces"][1]["coeff"] = 2.0 * blob["pieces"][1]["slope"]
    with pytest.raises(ValueError, match="coeff .* must equal its slope"):
        MixtureDistribution.from_json(blob)


def test_json_encodes_infinities_as_strings():
    dist = finite_sample_dist(EstimatorKind.HARD, FIG_POINT, FIG_TUNING)
    blob = dist.to_json()
    bounds = {p["lower"] for p in blob["pieces"]} | {p["upper"] for p in blob["pieces"]}
    assert "-inf" in bounds and "+inf" in bounds


def test_from_json_rejects_nan_loc():
    blob = finite_sample_dist(EstimatorKind.HARD, FIG_POINT, FIG_TUNING).to_json()
    blob["atoms"][0]["loc"] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        MixtureDistribution.from_json(json.loads(json.dumps(blob)))


def test_atom_rejects_nan_loc():
    with pytest.raises(ValueError, match="NaN"):
        MixtureDistribution(atoms=(Atom(math.nan, 1.0),), pieces=())


def test_rescaled_rejects_nonpositive_or_nonfinite_scale():
    dist = finite_sample_dist(EstimatorKind.SCAD, FIG_POINT, FIG_TUNING)
    # a subnormal scale has no finite inverse; a bool, a string, a list or an array is no real parameter
    for s in (0.0, -1.0, math.inf, math.nan, 1e-310, 5e-324, True, "2.0", [2.0], np.array([2.0, 3.0])):
        with pytest.raises(ValueError, match="scale"):
            dist.rescaled(s)
    for kind in KINDS:
        with pytest.raises(ValueError, match="scale"):
            rescaled_dist(kind, ModelPoint(1, 0.0), TuningPlan(1e-310))
        assert rescaled_dist(kind, ModelPoint(1, 0.0), TuningPlan(1e-300)).total_mass() == pytest.approx(1.0)


def test_gauss_piece_validation():
    # lower == upper is an empty piece; lower above upper or a NaN end is not, in a law or a batch
    for lower, upper in ((2.0, 1.0), (1.0, 1.0 - 1e-16), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="lower < upper"):
            MixtureDistribution(atoms=(Atom(0.0, 1.0),), pieces=(GaussPiece(1.0, 0.0, lower, upper),))
        with pytest.raises(ValueError, match="lower < upper"):
            MixtureDistribution(atoms=(Atom(np.zeros(2), 1.0),),
                                pieces=(GaussPiece(1.0, 0.0, np.array([0.0, lower]), upper),))
    # a slope of 0 or below (or not finite) is rejected with one message, in a law or a batch
    for slope in (0.0, -0.0, -1.0, -5e-324, math.inf, math.nan):
        with pytest.raises(ValueError, match="^slope must be finite and positive$"):
            MixtureDistribution(atoms=(), pieces=(GaussPiece(slope, 0.0, -math.inf, math.inf),))
        with pytest.raises(ValueError, match="^slope must be finite and positive$"):
            MixtureDistribution(atoms=(), pieces=(GaussPiece(np.array([1.0, slope]), 0.0, -math.inf, math.inf),))


def test_mixture_validation():
    good = GaussPiece(1.0, 0.0, -math.inf, math.inf)
    with pytest.raises(ValueError, match="mass"):
        MixtureDistribution(atoms=(Atom(0.0, 0.5),), pieces=(good,))
    with pytest.raises(ValueError, match="distinct"):
        MixtureDistribution(atoms=(Atom(0.0, 0.0), Atom(0.0, 0.0)), pieces=(good,))


def _whole_to_int(v: float):
    return int(v) if math.isfinite(v) and v.is_integer() else v


RECORD_FORMS = {  # each rewrites one record; all keep its values
    "tuple": tuple,
    "float64": lambda r: type(r)(*map(np.float64, r)),
    "int": lambda r: type(r)(*map(_whole_to_int, r)),
    "0-d-array": lambda r: type(r)(*map(np.array, r)),
}


@pytest.mark.parametrize("form", RECORD_FORMS.values(), ids=RECORD_FORMS.keys())
@pytest.mark.parametrize("kind", KINDS)
def test_records_of_other_numbers_build_the_float_law_bit_for_bit(kind, form):
    # a law of float records keeps them as they are; records of other numbers are coerced to the same law
    law = finite_sample_dist(kind, ModelPoint(25, -0.3), TuningPlan(0.08, 2.5))
    twin = MixtureDistribution(law.atoms, law.pieces)
    assert all(r is q for r, q in zip((*twin.atoms, *twin.pieces), (*law.atoms, *law.pieces)))
    other = MixtureDistribution([form(a) for a in law.atoms], [form(p) for p in law.pieces])
    assert [type(r) for r in other.atoms] == [Atom] and {type(r) for r in other.pieces} == {GaussPiece}
    assert {type(v) for r in (*other.atoms, *other.pieces) for v in r} == {float}
    xs = np.array([*law.breakpoints(), *np.linspace(-6.0, 6.0, 49)])

    def hexes(d):
        values = [*d._masses, *d._phi_lower, *d.cdf(xs), *d.cdf_left(xs), *d.density_ac(xs), d.second_moment()]
        return [float(v).hex() for v in values]

    assert other == law and hexes(other) == hexes(law)


def test_model_point_validation():
    with pytest.raises(ValueError):
        ModelPoint(0, 0.1)
    with pytest.raises(ValueError):
        ModelPoint(True, 0.1)
    with pytest.raises(ValueError):
        ModelPoint(10, math.inf)
    with pytest.raises(ValueError):
        ModelPoint(10, True)


def test_model_point_batch_is_an_immutable_value():
    point = ModelPoint(10, np.array([0.1, -0.2]))
    assert point.theta == (0.1, -0.2)
    assert point == ModelPoint(10, [0.1, -0.2])
    assert hash(point) == hash(ModelPoint(10, (0.1, -0.2)))


def test_model_point_stores_a_scalar_theta_as_a_float():
    for theta in (np.array(0.1), np.float64(0.1), np.array([0.1])[0]):
        point = ModelPoint(40, theta)
        assert type(point.theta) is float
        assert point == ModelPoint(40, 0.1) and hash(point) == hash(ModelPoint(40, 0.1))


def test_tiny_atoms_are_kept():
    point = ModelPoint(10_000, 5.0)  # atom weight far below 1e-300
    dist = finite_sample_dist(EstimatorKind.HARD, point, TuningPlan(0.01))
    assert len(dist.atoms) == 1
    assert dist.atoms[0].weight == 0.0
