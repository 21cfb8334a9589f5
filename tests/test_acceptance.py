"""Acceptance gate: every release criterion at its pinned tolerance.

One test per criterion; each prints a PASS line (visible with -s or -rP)
and fails loudly if the tolerance is missed.
"""

import json
import math

import numpy as np
import pytest
from oracles import quadrature_cdf

from shrinkdist.cli import main as cli_main
from shrinkdist.estimators import EstimatorKind, TuningPlan, estimate
from shrinkdist.finite_dist import ModelPoint, atom_weight, finite_sample_dist, rescaled_dist
from shrinkdist.impossibility import (
    MOutOfNBootstrap,
    PretestPlugin,
    TwoPointProblem,
    estimand_gap,
    estimator_worst_case,
    minimax_lower_bound,
)
from shrinkdist.limits import canonical_scenarios, conservative_limit, consistent_limit, rescaled_limit
from shrinkdist.montecarlo import SimConfig, ks_distance, simulate_estimates, uniform_rate_experiment
from shrinkdist.selection import PowerTuningPath, RegimeSpec

KINDS = list(EstimatorKind)

MC_CONFIGS = [
    (ModelPoint(40, 0.16), TuningPlan(0.05, 3.7)),       # the figure configuration
    (ModelPoint(10_000, 0.05), TuningPlan(0.1, 3.7)),    # consistent tuning: eta = n**-0.25
    (ModelPoint(100, 0.0), TuningPlan(0.196, 3.7)),
    (ModelPoint(25, -0.3), TuningPlan(0.08, 2.5)),
    (ModelPoint(1000, 0.02), TuningPlan(0.0316, 5.0)),
]


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


def test_criterion_01_figure_atom_weight():
    w = atom_weight(ModelPoint(40, 0.16), TuningPlan(0.05))
    assert w == pytest.approx(0.1513, abs=0.005)
    report(1, f"atom weight {w:.6f} within 0.1513 +- 0.005")


def test_criterion_02_monte_carlo_agreement():
    reps = 1_000_000
    band = 1.63e-3 + 0.001
    worst_ks, worst_frac_dev = 0.0, 0.0
    for seed_offset, (point, tuning) in enumerate(MC_CONFIGS):
        for kind in KINDS:
            cfg = SimConfig(seed=9000 + seed_offset, replications=reps, point=point, tuning=tuning)
            emp = simulate_estimates(kind, cfg)
            dist = finite_sample_dist(kind, point, tuning)
            ks = ks_distance(emp, dist)
            assert ks <= band, (kind, point, tuning, ks)
            worst_ks = max(worst_ks, ks)
            w = atom_weight(point, tuning)
            frac = emp.fraction_at(-point.sqrt_n * point.theta)
            se = math.sqrt(w * (1 - w) / reps)
            dev = abs(frac - w) / se if se > 0 else 0.0
            assert dev <= 4.0, (kind, point, tuning, frac, w)
            worst_frac_dev = max(worst_frac_dev, dev)
    report(2, f"15 configs x 1e6 reps: max KS {worst_ks:.5f} <= {band:.5f}, "
              f"max atom deviation {worst_frac_dev:.2f} binomial SDs")


def test_criterion_03_structural_identities():
    rng = np.random.default_rng(33)
    ys = rng.uniform(-5, 5, size=100_000)
    eta = float(rng.uniform(0.05, 1.2))
    a = float(rng.uniform(2.05, 8.0))
    tun = TuningPlan(eta, a)
    hard = estimate(EstimatorKind.HARD, ys, tun)
    soft = estimate(EstimatorKind.SOFT, ys, tun)
    scad = estimate(EstimatorKind.SCAD, ys, tun)
    np.testing.assert_array_equal(soft, hard - np.sign(hard) * eta)
    pos, neg = soft >= 0, soft <= 0
    assert np.all(soft[pos] <= scad[pos] + 1e-15) and np.all(scad[pos] <= hard[pos] + 1e-15)
    assert np.all(hard[neg] <= scad[neg] + 1e-15) and np.all(scad[neg] <= soft[neg] + 1e-15)
    zero = np.abs(ys) <= eta
    for vals in (hard, soft, scad):
        np.testing.assert_array_equal(vals == 0.0, zero)
    for kind in KINDS:
        np.testing.assert_array_equal(estimate(kind, -ys, tun), -estimate(kind, ys, tun))
    # reflection identity on 1000 (theta, x) pairs
    worst = 0.0
    for kind in KINDS:
        for _ in range(14):
            n = int(rng.integers(1, 500))
            theta = float(rng.uniform(-1, 1))
            tun2 = TuningPlan(float(rng.uniform(0.02, 0.6)), 3.7)
            d_pos = finite_sample_dist(kind, ModelPoint(n, theta), tun2)
            d_neg = finite_sample_dist(kind, ModelPoint(n, -theta), tun2)
            for x in rng.uniform(-6, 6, size=24):
                err = abs(d_neg.cdf(float(x)) - (1.0 - d_pos.cdf_left(float(-x))))
                assert err <= 1e-12
                worst = max(worst, err)
    report(3, f"identities exact on 1e5 grid; reflection max error {worst:.2e} <= 1e-12 on 1008 pairs")


def test_criterion_04_mass_conservation_and_quadrature():
    bank = []
    for point, tuning in MC_CONFIGS:
        for kind in KINDS:
            bank.append(finite_sample_dist(kind, point, tuning))
            bank.append(rescaled_dist(kind, point, tuning))
    for kind in KINDS:
        bank.append(conservative_limit(kind, 0.7, 1.5, 3.7))
        bank.append(conservative_limit(kind, math.inf, 1.5, 3.7))
    bank.append(consistent_limit(EstimatorKind.HARD, RegimeSpec(e=math.inf, zeta=1.0, r=0.3)))
    bank.append(consistent_limit(EstimatorKind.SCAD, RegimeSpec(e=math.inf, zeta=3.7, r=1.0), 3.7))
    bank.append(consistent_limit(EstimatorKind.SOFT, RegimeSpec(e=math.inf, zeta=0.0, nu=1.0)))
    bank.append(rescaled_limit(EstimatorKind.SCAD, RegimeSpec(e=math.inf, zeta=3.0), 3.7))
    worst_mass = max(abs(d.total_mass() - 1.0) for d in bank)
    assert worst_mass <= 1e-10
    # 100 quadrature spot checks across the first six finite-sample laws
    rng = np.random.default_rng(44)
    worst_quad = 0.0
    for dist in bank[:6]:
        for x in rng.uniform(-6, 6, size=17):
            err = abs(dist.cdf(float(x)) - quadrature_cdf(dist, float(x)))
            assert err <= 1e-10
            worst_quad = max(worst_quad, err)
    report(4, f"{len(bank)} laws: max |mass-1| {worst_mass:.2e} <= 1e-10; "
              f"cdf vs quadrature max {worst_quad:.2e} <= 1e-10 on 102 spots")


def test_criterion_05_limit_theorem_convergence():
    scenarios = canonical_scenarios()
    assert len(scenarios) >= 12
    lines = []
    for sc in scenarios:
        rep = sc.check([1000, 1_000_000])
        g_small, g_large = rep.column("sup_gap")
        assert g_large < 0.02, (sc.name, g_large)
        assert g_large < g_small, (sc.name, g_small, g_large)
        lines.append(f"{sc.name}:{g_large:.1e}")
    report(5, f"{len(scenarios)} regimes converge; sup gaps at n=1e6 all < 0.02 and below n=1e3")


def test_criterion_06_uniform_rate():
    path = PowerTuningPath(1.0, 0.25)
    bound = 0.025449928011439396
    for kind in KINDS:
        rep = uniform_rate_experiment(kind, path, 6.0, [100, 10_000, 1_000_000])
        sups = rep.column("sup_prob")
        assert all(p <= bound for p in sups), (kind, sups)
    counter = uniform_rate_experiment(
        EstimatorKind.HARD, path, 6.0, [1_000_000],
        theta_grid_rule=lambda n, eta, M, a_n: [eta / 2.0], scaling="sqrt_n",
    )
    escape = counter.column("sup_prob")[0]
    assert escape >= 0.99
    report(6, f"a_n-scale sup <= {bound:.4f} for all kinds at n in 1e2,1e4,1e6; "
              f"sqrt(n)-scale counterexample escape prob {escape:.4f} >= 0.99")


def test_criterion_07_impossibility():
    # remainder decay
    tun_cons = TuningPlan(0.196)
    for kind in KINDS:
        prob = TwoPointProblem(n=100, t=0.0, delta=0.1, tuning=tun_cons, kind=kind)
        rems = [abs(estimand_gap(prob, d)[2]) for d in (0.1, 0.01, 1e-3, 1e-4)]
        assert all(a >= b for a, b in zip(rems, rems[1:]))
        assert rems[-1] < 0.01
    # two-point bound at delta = 1e-6
    prob = TwoPointProblem(n=10_000, t=0.0, delta=1e-6, tuning=TuningPlan(0.1), kind=EstimatorKind.HARD)
    _, bound = minimax_lower_bound(prob, sweep_steps=1)
    assert bound >= 0.4999
    # worst-case error of the two concrete estimators, increasing in n
    path = PowerTuningPath(1.0, 0.25)
    sups = {}
    for name, make_spec in [
        ("pretest", lambda: PretestPlugin(consistent=True)),
        ("bootstrap", lambda: MOutOfNBootstrap(path=path)),
    ]:
        curve = []
        for n in (1000, 10_000, 100_000):
            tun = TuningPlan(path.eta(n), 3.7)
            rep = estimator_worst_case(make_spec(), EstimatorKind.HARD, n, 0.0, tun, 2.0,
                                       seed=7100 + n, replications=10_000)
            curve.append(rep.meta["sup"])
        sups[name] = curve
        assert curve[1] >= 0.45, (name, curve)
        # Monte Carlo noise allowance on the monotone-increase check
        assert all(b >= a - 0.02 for a, b in zip(curve, curve[1:])), (name, curve)
    report(7, f"remainder decays; (1-TV)/2 = {bound:.6f} >= 0.4999; "
              f"worst-case curves pretest={sups['pretest']} bootstrap={sups['bootstrap']}")


def test_criterion_08_rescaled_scad_pointmass():
    a, zeta = 3.7, 3.0
    target = -(a - zeta) / (a - 2.0)
    path = PowerTuningPath(1.0, 0.125)   # consistent tuning with enough concentration at n=1e8
    n = 10**8
    eta = path.eta(n)
    g = rescaled_dist(EstimatorKind.SCAD, ModelPoint(n, zeta * eta), TuningPlan(eta, a))
    mass = g.cdf(target + 0.01) - g.cdf_left(target - 0.01)
    assert mass >= 0.999
    limit = rescaled_limit(EstimatorKind.SCAD, RegimeSpec(e=math.inf, zeta=zeta), a)
    assert float(limit.atoms[0].loc) == pytest.approx(target, abs=1e-15)
    assert target == pytest.approx(-0.41176, abs=5e-6)
    report(8, f"mass {mass:.6f} >= 0.999 within +-0.01 of {target:.5f} at n=1e8 (closed form)")


def test_criterion_09_cli_determinism(tmp_path):
    runs = [
        (["figure", "2"], "fig"),
        (["dist", "--kind", "scad", "--n", "40", "--theta", "0.16", "--eta", "0.05"], "dist"),
        (["experiment", "selection"], "sel"),
        (["experiment", "impossibility", "--seed", "123", "--reps", "400"], "imp"),
    ]
    checked = 0
    for argv, tag in runs:
        first = tmp_path / tag
        second = tmp_path / f"{tag}_replay"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        for name in manifest["outputs"]:
            if name.endswith((".csv", ".json")):
                assert (first / name).read_bytes() == (second / name).read_bytes(), (tag, name)
                checked += 1
    report(9, f"{checked} CSV/JSON outputs byte-identical across manifest reruns")
