"""The three benchmark workloads: inputs from a seed, ops, and their checks.

Every op calls shrinkdist through module attributes looked up at call time
(`montecarlo.ks_distance(...)`), so the traced run sees each call through
the wrappers `tracing.install` puts in place.  Checks use oracles that share
no code with the program (normal cdf from `math.erfc`), the acceptance
criteria's statistical bands, and, for the default seed of
`closed_form_tables`, tables captured from the program at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from harness import CheckFailed, Op, compare_tables, sample_table
from shrinkdist import cli, finite_dist, impossibility, montecarlo
from shrinkdist.estimators import EstimatorKind, TuningPlan
from shrinkdist.finite_dist import ModelPoint
from shrinkdist.montecarlo import SimConfig
from shrinkdist.selection import PowerTuningPath

DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference" / f"closed_form_tables-seed{DEFAULT_SEED}.json"
REFERENCE_TOL = 1e-12

KINDS = list(EstimatorKind)
CONSISTENT_PATH = PowerTuningPath(1.0, 0.25)


def _phi(x: float) -> float:
    """Standard normal cdf, independent of shrinkdist.normal_kernel."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _oracle_atom_weight(n: int, theta: float, eta: float) -> float:
    s = math.sqrt(n)
    return _phi(-s * theta + s * eta) - _phi(-s * theta - s * eta)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


# -- mc_agreement: acceptance criterion 02 ------------------------------------

MC_CONFIGS = [  # (n, theta, eta, scad a), as in acceptance criterion 02
    (40, 0.16, 0.05, 3.7),
    (10_000, 0.05, 0.1, 3.7),
    (100, 0.0, 0.196, 3.7),
    (25, -0.3, 0.08, 2.5),
    (1000, 0.02, 0.0316, 5.0),
]
MC_DRAWS = 1_000_000
KS_BAND = 1.63e-3 + 0.001
ATOM_SDS = 4.0


def _mc_run(kind, cfg):
    emp = montecarlo.simulate_estimates(kind, cfg)
    dist = finite_dist.finite_sample_dist(kind, cfg.point, cfg.tuning)
    ks = montecarlo.ks_distance(emp, dist)
    weight = finite_dist.atom_weight(cfg.point, cfg.tuning)
    frac = emp.fraction_at(-cfg.point.sqrt_n * cfg.point.theta)
    return ks, weight, frac


def _mc_check(cfg, out) -> int:
    ks, weight, frac = out
    _require(ks <= KS_BAND, f"KS distance {ks} above the band {KS_BAND}")
    se = math.sqrt(weight * (1.0 - weight) / cfg.replications)
    dev = abs(frac - weight) / se if se > 0 else 0.0
    _require(dev <= ATOM_SDS, f"atom fraction {frac} is {dev:.2f} binomial SDs from weight {weight}")
    return cfg.replications


def mc_agreement(seed: int, workdir: Path) -> list:
    draw_seeds = iter(_seeds(seed, len(MC_CONFIGS) * len(KINDS)))
    ops = []
    for n, theta, eta, a in MC_CONFIGS:
        for kind in KINDS:
            cfg = SimConfig(seed=next(draw_seeds), replications=MC_DRAWS,
                            point=ModelPoint(n, theta), tuning=TuningPlan(eta, a))
            ops.append(Op(f"{kind.value}-n{n}-theta{theta}",
                          lambda kind=kind, cfg=cfg: _mc_run(kind, cfg),
                          lambda out, cfg=cfg: _mc_check(cfg, out)))
    return ops


# -- cdf_estimation: acceptance criterion 07 ----------------------------------

CDF_N = (1_000, 10_000, 100_000)
CDF_REPS = 10_000
CDF_C, CDF_T = 2.0, 0.0
SUP_MIN, SUP_AT_N = 0.45, 10_000
MONOTONE_SLACK = 0.02


def cdf_estimation(seed: int, workdir: Path) -> list:
    specs = [("pretest", impossibility.PretestPlugin(consistent=True)),
             ("bootstrap", impossibility.MOutOfNBootstrap(path=CONSISTENT_PATH, n_boot=200))]
    run_seeds = iter(_seeds(seed, len(specs) * len(CDF_N)))
    curves = {}
    ops = []
    for label, spec in specs:
        for i, n in enumerate(CDF_N):
            tuning = TuningPlan(CONSISTENT_PATH.eta(n), 3.7)

            def run(spec=spec, n=n, tuning=tuning, s=next(run_seeds)):
                return impossibility.estimator_worst_case(
                    spec, EstimatorKind.HARD, n, CDF_T, tuning, CDF_C, seed=s, replications=CDF_REPS)

            def check(report, label=label, i=i, n=n):
                # the curve over n restarts at its first point in every pass
                curve = curves.setdefault(label, [])
                if i == 0:
                    curve.clear()
                _require(len(curve) == i, f"{label}: an earlier point of the curve over n failed")
                sup = report.meta["sup"]
                if i > 0:
                    _require(sup >= curve[-1] - MONOTONE_SLACK,
                             f"{label}: sup {sup} at n={n} drops below {curve[-1]} - {MONOTONE_SLACK}")
                if n == SUP_AT_N:
                    _require(sup >= SUP_MIN, f"{label}: sup {sup} at n={n} below {SUP_MIN}")
                curve.append(sup)
                return len(report.rows) * CDF_REPS

            ops.append(Op(f"{label}-n{n}", run, check))
    return ops


# -- closed_form_tables: CLI commands and scalar sweeps -------------------------

SWEEP_N = (100, 10_000, 1_000_000)
SWEEP_M = 6.0
SWEEP_THETAS = 151
RISK_N = (10, 100, 1000)
RISK_THETAS = np.linspace(-1.0, 1.0, 81)
MASS_TOL = 1e-10
# The cdf is a rounded sum of up to seven nonnegative terms: it is exactly
# monotone and nonnegative, but may overshoot 1 by a few units in the last
# place (seed 10 gives 1 + 2.2e-16 for scad on the inv_eta scale).
CDF_ROUNDING = 8 * 2.0**-52


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [[float(v) for v in row] for row in list(csv.reader(lines))[1:]]


def _cli_run(argv, out_dir: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out_dir)])
    return code, out_dir


def _cli_tables(out) -> dict:
    code, out_dir = out
    _require(code == 0, f"exit code {code}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {name: _read_csv(out_dir / name) for name in manifest["outputs"] if name.endswith(".csv")}


def _piece_mass(p: dict) -> float:
    def bound(v):
        return {"+inf": math.inf, "-inf": -math.inf}.get(v, v)

    z_lo = p["slope"] * bound(p["lower"]) + p["shift"]
    z_hi = p["slope"] * bound(p["upper"]) + p["shift"]
    return p["coeff"] / p["slope"] * (_phi(z_hi) - _phi(z_lo))


def _check_figure(n, theta, eta):
    def check(tables, out):
        (rows,) = tables.values()
        atoms = [r for r in rows if r[2] == 1]
        _require(len(atoms) == 1, f"{len(atoms)} atom rows, expected 1")
        want = _oracle_atom_weight(n, theta, eta)
        _require(abs(atoms[0][1] - want) <= 1e-12, f"atom weight {atoms[0][1]} vs oracle {want}")
        _require(all(r[1] >= 0.0 for r in rows), "negative density")
        _require(all(a[0] <= b[0] for a, b in zip(rows, rows[1:])), "x column not sorted")
    return check


def _check_dist(tables, out):
    _, out_dir = out
    (rows,) = tables.values()
    cdf = [r[1] for r in rows]
    _require(all(0.0 <= v <= 1.0 + CDF_ROUNDING for v in cdf),
             f"cdf outside [0, 1]: min {min(cdf)!r}, max {max(cdf)!r}")
    _require(all(a <= b for a, b in zip(cdf, cdf[1:])), "cdf decreases")
    (law_file,) = out_dir.glob("dist_*.json")
    law = json.loads(law_file.read_text())
    mass = sum(a["weight"] for a in law["atoms"]) + sum(_piece_mass(p) for p in law["pieces"])
    _require(abs(mass - 1.0) <= MASS_TOL, f"mixture mass {mass}")


def _check_verdict(tables, out):
    _, out_dir = out
    verdict = json.loads((out_dir / "verdict.json").read_text())
    _require(verdict["pass"] is True, f"verdict {verdict}")


def _dense_theta_grid(n, eta_n, M, a_n):
    width = 3.0 * max(eta_n, M / a_n)
    return np.union1d(montecarlo.default_adversarial_grid(n, eta_n, M, a_n),
                      np.linspace(-width, width, SWEEP_THETAS))


def _uniform_rate_run(kind):
    return montecarlo.uniform_rate_experiment(kind, CONSISTENT_PATH, SWEEP_M, SWEEP_N,
                                              theta_grid_rule=_dense_theta_grid)


def _uniform_rate_tables(report) -> dict:
    return {"uniform_rate": [list(r) for r in report.rows]}


def _check_uniform_rate(tables, report):
    for row in tables["uniform_rate"]:
        _require(0.0 <= row[3] <= 1.0, f"sup probability {row[3]} outside [0, 1]")
        _require(row[6] == 1.0, f"sup probability {row[3]} above the bound {row[5]} at n={row[0]}")


def _risk_run():
    rows = []
    for n in RISK_N:
        eta = CONSISTENT_PATH.eta(n)
        tuning = TuningPlan(eta, 3.7)
        for theta in RISK_THETAS:
            point = ModelPoint(n, float(theta))
            risks = [finite_dist.scaled_risk(kind, point, tuning) for kind in KINDS]
            rows.append([n, float(theta), eta, finite_dist.atom_weight(point, tuning), *risks])
    return rows


def _check_risk(tables, rows):
    for n, theta, eta, weight, *risks in tables["risk"]:
        want = _oracle_atom_weight(int(n), theta, eta)
        _require(abs(weight - want) <= 1e-12, f"atom weight {weight} vs oracle {want} at n={n}, theta={theta}")
        _require(all(math.isfinite(r) and r > 0.0 for r in risks), f"risk {risks} at n={n}, theta={theta}")


def _dist_configs(seed: int) -> dict:
    """One (n, theta, eta, a) per kind, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return {kind: (int(round(10 ** rng.uniform(1.0, 4.0))), float(rng.uniform(-0.5, 0.5)),
                   float(rng.uniform(0.02, 0.3)), float(rng.uniform(2.5, 5.0)))
            for kind in KINDS}


def closed_form_specs(seed: int, workdir: Path) -> list:
    """(name, run, tables, validate) per op; `tables(out)` gives the op's
    output tables and `validate(tables, out)` raises `CheckFailed`."""
    specs = []
    fig = cli.FIGURE_DEFAULTS
    for which in sorted(cli.FIGURE_KINDS):
        name = f"figure-{which}"
        specs.append((name, lambda w=which, d=workdir / name: _cli_run(["figure", str(w)], d),
                      _cli_tables, _check_figure(fig["n"], fig["theta"], fig["eta"])))
    for kind, (n, theta, eta, a) in _dist_configs(seed).items():
        for scaling in ("sqrt_n", "inv_eta"):
            name = f"dist-{kind.value}-{scaling}"
            argv = ["dist", "--kind", kind.value, "--n", str(n), "--theta", repr(theta),
                    "--eta", repr(eta), "--a", repr(a), "--scaling", scaling]
            specs.append((name, lambda argv=argv, d=workdir / name: _cli_run(argv, d),
                          _cli_tables, _check_dist))
    for experiment in ("selection", "limits", "uniform-rate"):
        name = f"experiment-{experiment}"
        specs.append((name, lambda e=experiment, d=workdir / name: _cli_run(["experiment", e], d),
                      _cli_tables, _check_verdict))
    for kind in KINDS:
        specs.append((f"uniform-rate-sweep-{kind.value}", lambda kind=kind: _uniform_rate_run(kind),
                      _uniform_rate_tables, _check_uniform_rate))
    specs.append(("risk-sweep", _risk_run, lambda rows: {"risk": rows}, _check_risk))
    return specs


def closed_form_tables(seed: int, workdir: Path) -> list:
    reference = json.loads(REFERENCE.read_text()) if seed == DEFAULT_SEED else None
    ops = []
    for name, run, tables, validate in closed_form_specs(seed, workdir):
        def check(out, name=name, tables=tables, validate=validate):
            got = tables(out)
            validate(got, out)
            if reference is not None:
                problems = compare_tables(got, reference[name], REFERENCE_TOL)
                _require(not problems, "; ".join(problems))
            return sum(len(rows) for rows in got.values())
        ops.append(Op(name, run, check))
    return ops


def capture_reference(workdir: Path) -> dict:
    """Sampled output tables of every closed_form_tables op at the default seed."""
    captured = {}
    for name, run, tables, validate in closed_form_specs(DEFAULT_SEED, workdir):
        out = run()
        got = tables(out)
        validate(got, out)
        captured[name] = {table: sample_table(rows) for table, rows in got.items()}
    return captured


# Wall time of one pass, checks and probes included, at the commit that
# introduced the benchmark.  A run of --seconds s makes int(seconds / PASS_S)
# passes (at least one): the count depends on --seconds alone, so every
# commit is measured on the same number of samples.
PASS_S = {
    "mc_agreement": 11.0,
    "cdf_estimation": 5.5,
    "closed_form_tables": 1.09,
}

WORKLOADS = {
    "mc_agreement": mc_agreement,
    "cdf_estimation": cdf_estimation,
    "closed_form_tables": closed_form_tables,
}
