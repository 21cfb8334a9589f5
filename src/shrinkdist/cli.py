"""Command-line front door: figures, distribution tables, experiments.

Every command writes its data files plus a run manifest into --out; the
`rerun` command replays a manifest and must reproduce the CSV/JSON outputs
byte for byte.  SVG output is drawn directly (polyline plus a dotted
vertical atom marker), with no timestamps or other nondeterminism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan
from .finite_dist import LAWS, MixtureDistribution, ModelPoint, finite_sample_dist
from .impossibility import MOutOfNBootstrap, OracleCheat, PretestPlugin, estimator_worst_case
from .limits import canonical_scenarios
from .montecarlo import uniform_rate_experiment
from .normal_kernel import _check_count
from .report import ExperimentReport
from .selection import PowerTuningPath, ThetaRule, selection_convergence_table

DEFAULT_SEED = 20090301
FIGURE_DEFAULTS = {"n": 40, "theta": 0.16, "eta": 0.05, "a": DEFAULT_SCAD_A}
FIGURE_KINDS = {1: "hard", 2: "soft", 3: "scad"}
LIST_KEYS = ("n_list", "n_probe", "scenario")  # the only config keys that take a list
# the config keys that hold counts, each with the name its error message gives
_COUNT_NAMES = {"n": "n", "reps": "reps (replications)", "n_list": "each n_list item", "n_probe": "each n_probe item"}


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_manifest(out_dir: Path, command: str, params: dict, seed, outputs: list) -> None:
    manifest = {
        "tool": "shrinkdist",
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "outputs": sorted(outputs),
    }
    _write(out_dir / "manifest.json", _json_dumps(manifest))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("SHRINKDIST_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _svg_polyline(xs, ys, x_range, y_range, width, height, pad) -> str:
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - x0) * sx
        py = height - pad - (y - y0) * sy
        pts.append(f"{px:.3f},{py:.3f}")
    return " ".join(pts)


def write_density_svg(path: Path, xs, ys, atoms, title: str) -> None:
    """Density curve plus one dotted vertical marker per atom."""
    width, height, pad = 720, 480, 50.0
    x0, x1 = float(min(xs)), float(max(xs))
    y1 = max(float(max(ys)), max((w for _, w in atoms), default=0.0)) * 1.08 or 1.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
    ]
    pts = _svg_polyline(xs, ys, (x0, x1), (0.0, y1), width, height, pad)
    lines.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for loc, _weight in atoms:
        px = pad + (loc - x0) * (width - 2 * pad) / (x1 - x0)
        lines.append(
            f'<line x1="{px:.3f}" y1="{pad}" x2="{px:.3f}" y2="{height-pad}" '
            f'stroke="black" stroke-dasharray="4 4"/>'
        )
    lines.append("</svg>")
    _write(path, "\n".join(lines) + "\n")


def _density_table(dist: MixtureDistribution, lo: float, hi: float, count: int) -> ExperimentReport:
    grid = np.linspace(lo, hi, count)
    cuts = [b for b in dist.breakpoints() if lo <= b <= hi]
    # sample both sides of each density jump so consumers see the discontinuity
    cuts += [np.nextafter(b, np.inf) for b in cuts]
    xs = np.unique(np.concatenate([grid, np.asarray(cuts, dtype=float)]))
    rows = [(x, density, 0) for x, density in zip(xs.tolist(), dist.density_ac(xs).tolist())]
    rows += [(a.loc, a.weight, 1) for a in dist.atoms if math.isfinite(a.loc)]
    rows.sort(key=lambda r: (r[0], -r[2]))  # an atom row precedes the density row at its own x
    return ExperimentReport(columns=("x", "density", "is_atom"), rows=rows)


def _point_and_tuning(params: dict) -> tuple:
    _check_count(params["n"])  # a replayed manifest may hold any number here
    return (ModelPoint(int(params["n"]), float(params["theta"])),
            TuningPlan(float(params["eta"]), float(params["a"])))


def run_figure(params: dict, out_dir: Path) -> list:
    which = int(params["which"])
    kind = EstimatorKind.parse(FIGURE_KINDS[which])
    point, tuning = _point_and_tuning(params)
    dist = finite_sample_dist(kind, point, tuning)
    table = _density_table(dist, -5.0, 5.0, 2000)
    csv_name = f"figure{which}.csv"
    svg_name = f"figure{which}.svg"
    table.write_csv(out_dir / csv_name)
    curve = [(r[0], r[1]) for r in table.rows if r[2] == 0]
    atoms = [(r[0], r[1]) for r in table.rows if r[2] == 1]
    write_density_svg(
        out_dir / svg_name,
        [c[0] for c in curve],
        [c[1] for c in curve],
        atoms,
        f"{kind.value} estimator, n={point.n}, theta={point.theta}, eta={tuning.eta}",
    )
    return [csv_name, svg_name]


def run_dist(params: dict, out_dir: Path) -> list:
    kind = EstimatorKind.parse(params["kind"])
    point, tuning = _point_and_tuning(params)
    scaling = params["scaling"]
    dist = LAWS[scaling](kind, point, tuning)
    lo, hi, count = params["grid"]
    grid = np.linspace(float(lo), float(hi), int(count))
    rows = list(zip(grid.tolist(), dist.cdf(grid).tolist(), dist.density_ac(grid).tolist()))
    table = ExperimentReport(columns=("x", "cdf", "ac_density"), rows=rows)
    csv_name = f"dist_{kind.value}_{scaling}.csv"
    json_name = f"dist_{kind.value}_{scaling}.json"
    table.write_csv(out_dir / csv_name)
    _write(out_dir / json_name, _json_dumps(dist.to_json()))
    return [csv_name, json_name]


def _parse_config_file(path: str) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    config = {}
    for line in text.splitlines():
        line = line.partition("#")[0].strip()  # a comment runs from "#" to the end of its line
        if line:
            key, _, raw = line.partition("=")
            config[key.strip()] = _parse_scalar(raw.strip())
    return config


def _parse_scalar(raw: str):
    if "," in raw:
        return [_parse_scalar(part.strip()) for part in raw.split(",") if part.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _check_config(config: dict) -> None:
    """Every value is a number or a string; only the LIST_KEYS take a list of them.

    Every item of a count key (a sample size or a replication count) is a
    positive integer.
    """
    for key, value in config.items():
        items = value if key in LIST_KEYS and isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in items):
            listed = ", or a list of them" if key in LIST_KEYS else ""
            raise ValueError(f"config key {key!r} takes a number or a string{listed}, not {value!r}")
        if key in _COUNT_NAMES:
            for v in items:
                _check_count(v, _COUNT_NAMES[key])


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


def _theta_rule_from_config(cfg: dict) -> ThetaRule:
    rule = cfg.get("rule", "local")
    perturb = float(cfg.get("perturb", 0.0))
    if rule == "local":
        return ThetaRule.local(float(cfg.get("nu", 0.0)), perturb=perturb)
    if rule == "eta_multiple":
        return ThetaRule.eta_multiple(float(cfg["zeta"]))
    if rule == "boundary":
        return ThetaRule.boundary(float(cfg["zeta"]), float(cfg["r"]), perturb=perturb)
    if rule == "fixed":
        return ThetaRule.fixed(float(cfg["theta"]))
    raise ValueError(f"unknown theta rule {rule!r}")


def _power_path(cfg: dict) -> PowerTuningPath:
    return PowerTuningPath(float(cfg.get("scale", 1.0)), float(cfg.get("gamma", 0.25)))


def _experiment_selection(cfg: dict, out_dir: Path, seed: int) -> tuple:
    path = _power_path(cfg)
    rule = _theta_rule_from_config(cfg)
    n_list = [int(n) for n in _as_list(cfg.get("n_list", [100, 10_000, 1_000_000]))]
    report = selection_convergence_table(path, rule, n_list)
    report.write_csv(out_dir / "selection.csv")
    gaps = report.column("gap")
    ok = abs(gaps[-1]) < abs(gaps[0]) or abs(gaps[-1]) <= 1e-12
    checks = [{"name": "gap-shrinks", "pass": bool(ok),
               "first_gap": gaps[0], "last_gap": gaps[-1]}]
    return ["selection.csv"], checks


def _experiment_limits(cfg: dict, out_dir: Path, seed: int) -> tuple:
    wanted = cfg.get("scenario", "all")
    n_probe = [int(n) for n in _as_list(cfg.get("n_probe", [1000, 1_000_000]))]
    scenarios = canonical_scenarios(float(cfg.get("a", DEFAULT_SCAD_A)))
    if wanted != "all":
        names = set(_as_list(wanted))
        unknown = names - {s.name for s in scenarios}
        if unknown:
            raise ValueError(f"no convergence scenario named {sorted(map(str, unknown))}")
        scenarios = [s for s in scenarios if s.name in names]
    outputs, checks = [], []
    for sc in scenarios:
        rep = sc.check(n_probe)
        fname = f"limits_{sc.name}.csv"
        rep.write_csv(out_dir / fname)
        outputs.append(fname)
        gaps = rep.column("sup_gap")
        ok = gaps[-1] < 0.02 and gaps[-1] < gaps[0]
        checks.append({"name": sc.name, "pass": bool(ok),
                       "gap_small_n": gaps[0], "gap_large_n": gaps[-1]})
    return outputs, checks


def _experiment_uniform_rate(cfg: dict, out_dir: Path, seed: int) -> tuple:
    kind = EstimatorKind.parse(cfg.get("kind", "hard"))
    path = _power_path(cfg)
    n_list = [int(n) for n in _as_list(cfg.get("n_list", [100, 10_000, 1_000_000]))]
    report = uniform_rate_experiment(
        kind, path, float(cfg.get("M", 6.0)), n_list,
        scaling=cfg.get("scaling", "a_n"), scad_a=float(cfg.get("a", DEFAULT_SCAD_A)),
    )
    report.write_csv(out_dir / "uniform_rate.csv", include_meta=True)
    ok = all(report.column("within_bound"))
    checks = [{"name": "sup-below-bound", "pass": bool(ok)}]
    return ["uniform_rate.csv"], checks


def _experiment_impossibility(cfg: dict, out_dir: Path, seed: int) -> tuple:
    kind = EstimatorKind.parse(cfg.get("kind", "hard"))
    n = int(cfg.get("n", 10_000))
    path = _power_path(cfg)
    tuning = TuningPlan(path.eta(n), float(cfg.get("a", DEFAULT_SCAD_A)))
    name = cfg.get("estimator", "pretest")
    specs = {"oracle": OracleCheat(), "pretest": PretestPlugin(consistent=path.exponent < 0.5),
             "bootstrap": MOutOfNBootstrap(path=path)}
    if name not in specs:
        raise ValueError(f"unknown cdf estimator {name!r}")
    report = estimator_worst_case(
        specs[name], kind, n, float(cfg.get("t", 0.0)), tuning, float(cfg.get("c", 2.0)),
        seed=seed, replications=int(cfg.get("reps", 10_000)),
    )
    report.write_csv(out_dir / "impossibility.csv", include_meta=True)
    summary = {k: report.meta[k] for k in ("epsilon", "epsilon_range", "bound", "sup", "witness_theta")}
    _write(out_dir / "impossibility_summary.json", _json_dumps(summary))
    if name == "oracle":
        ok = report.meta["sup"] <= float(cfg.get("oracle_tol", 0.05))
    else:
        ok = report.meta["sup"] >= float(cfg.get("threshold", 0.45))
    checks = [{"name": f"{name}-worst-case", "pass": bool(ok), "sup": report.meta["sup"]}]
    return ["impossibility.csv", "impossibility_summary.json"], checks


# each runner takes (config, out_dir, seed) and returns (output file names, checks)
EXPERIMENTS = {"selection": _experiment_selection, "limits": _experiment_limits,
               "uniform-rate": _experiment_uniform_rate, "impossibility": _experiment_impossibility}


def run_experiment(params: dict, out_dir: Path) -> list:
    name = params["name"]
    _check_config(params["config"])  # a config from a file, --reps or a replayed manifest
    outputs, checks = EXPERIMENTS[name](params["config"], out_dir, int(params["seed"]))
    verdict = {"experiment": name, "pass": all(c["pass"] for c in checks), "checks": checks}
    _write(out_dir / "verdict.json", _json_dumps(verdict))
    return outputs + ["verdict.json"]


RUNNERS = {"figure": run_figure, "dist": run_dist, "experiment": run_experiment}


def _dispatch(command: str, params: dict, out_dir: Path, seed) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = RUNNERS[command](params, out_dir)
    _write_manifest(out_dir, command, params, seed, outputs)
    if command == "experiment":
        verdict = json.loads((out_dir / "verdict.json").read_text())
        status = "PASS" if verdict["pass"] else "FAIL"
        print(f"{status}: experiment {params['name']} -> {out_dir}")
        return 0 if verdict["pass"] else 1
    print(f"wrote {', '.join(outputs)} -> {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shrinkdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"shrinkdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit a density figure as CSV + SVG")
    fig.add_argument("which", type=int, choices=tuple(FIGURE_KINDS))
    for key, default in FIGURE_DEFAULTS.items():
        fig.add_argument(f"--{key}", type=type(default), default=default)
    fig.add_argument("--out", default="out")

    dist = sub.add_parser("dist", help="emit cdf/density table and JSON mixture")
    dist.add_argument("--kind", required=True, choices=[k.value for k in EstimatorKind])
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--theta", type=float, required=True)
    dist.add_argument("--eta", type=float, required=True)
    dist.add_argument("--a", type=float, default=DEFAULT_SCAD_A)
    dist.add_argument("--scaling", choices=tuple(LAWS), default="sqrt_n")
    dist.add_argument("--grid", default="-5:5:401", help="lo:hi:count")
    dist.add_argument("--out", default="out")

    exp = sub.add_parser("experiment", help="run a named experiment from a config file")
    exp.add_argument("name", choices=tuple(EXPERIMENTS))
    exp.add_argument("--config", default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--reps", type=int, default=None)
    exp.add_argument("--out", default="out")

    rer = sub.add_parser("rerun", help="replay a run manifest")
    rer.add_argument("manifest")
    rer.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    seed = None
    try:
        if args.command == "rerun":
            manifest = json.loads(Path(args.manifest).read_text())
            out_dir = Path(args.out) if args.out else Path(args.manifest).parent
            return _dispatch(manifest["command"], manifest["params"], out_dir, manifest["seed"])
        if args.command == "dist":
            lo, hi, count = args.grid.split(":")
            params["grid"] = [float(lo), float(hi), int(count)]
        if args.command == "experiment":
            cfg = _parse_config_file(args.config) if args.config else {}
            if args.reps is not None:
                cfg["reps"] = args.reps
            seed = _resolve_seed(args)
            params = {"name": args.name, "config": cfg, "seed": seed}
        return _dispatch(args.command, params, Path(args.out), seed)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
