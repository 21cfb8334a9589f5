"""Command-line front door: figures, distribution tables, experiments.

Every command computes its data files first, then writes them plus a run
manifest into --out, so a command that fails creates nothing.  The `rerun`
command replays a manifest and must reproduce the CSV/JSON outputs byte for
byte.  SVG output is drawn directly (polyline plus a dotted vertical atom
marker), with no timestamps or other nondeterminism.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan
from .finite_dist import LAWS, MixtureDistribution, ModelPoint, finite_sample_dist
from .impossibility import MOutOfNBootstrap, OracleCheat, PretestPlugin, estimator_worst_case
from .limits import canonical_scenarios
from .montecarlo import uniform_rate_experiment
from .normal_kernel import _check_count, _check_real, _check_seed, _one_of
from .report import ExperimentReport
from .selection import PowerTuningPath, ThetaRule, selection_convergence_table

DEFAULT_SEED = 20090301
FIGURE_DEFAULTS = {"n": 40, "theta": 0.16, "eta": 0.05, "a": DEFAULT_SCAD_A}
FIGURE_KINDS = {1: "hard", 2: "soft", 3: "scad"}
# each experiment's config keys, as the README lists them, with their defaults: a list default marks a key
# that takes a list, and None a key that only some theta rules read and that they require
CONFIG_DEFAULTS = {
    "selection": {"rule": "local", "nu": 0.0, "zeta": None, "r": None, "theta": None, "perturb": 0.0,
                  "scale": 1.0, "gamma": 0.25, "n_list": [100, 10_000, 1_000_000]},
    "limits": {"scenario": ["all"], "n_probe": [1000, 1_000_000], "a": DEFAULT_SCAD_A},
    "uniform-rate": {"kind": "hard", "M": 6.0, "scaling": "a_n", "scale": 1.0, "gamma": 0.25, "a": DEFAULT_SCAD_A,
                     "n_list": [100, 10_000, 1_000_000]},
    "impossibility": {"estimator": "pretest", "kind": "hard", "n": 10_000, "scale": 1.0, "gamma": 0.25,
                      "a": DEFAULT_SCAD_A, "t": 0.0, "c": 2.0, "reps": 10_000, "threshold": 0.45,
                      "oracle_tol": 0.05},
}


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_manifest(out_dir: Path, command: str, params: dict, outputs: list) -> None:
    manifest = {
        "tool": "shrinkdist",
        "version": __version__,
        "command": command,
        "params": params,
        "seed": params.get("seed"),  # null for a figure or dist, which draw nothing
        "outputs": sorted(outputs),
        "versions": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    _write(out_dir / "manifest.json", _json_dumps(manifest))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return _check_seed(args.seed)
    env = os.environ.get("SHRINKDIST_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return _check_seed(int(env))
    except ValueError:  # int() of a fraction or a word, or a seed out of range
        raise ValueError(f"SHRINKDIST_SEED must hold a seed, an integer in [0, 2**64) (got {env!r})") from None


def _svg_polyline(xs, ys, x_range, y_range, width, height, pad) -> str:
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    px = pad + (np.asarray(xs, dtype=float) - x0) * sx
    py = height - pad - (np.asarray(ys, dtype=float) - y0) * sy
    return " ".join(["%.3f,%.3f"] * px.size) % tuple(np.column_stack((px, py)).ravel().tolist())


def density_svg(xs, ys, atoms, title: str) -> str:
    """An SVG text: the density curve plus one dotted vertical marker per atom."""
    width, height, pad = 720, 480, 50.0
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y1 = max(float(np.max(ys)), max((w for _, w in atoms), default=0.0)) * 1.08 or 1.0
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
    return "\n".join(lines) + "\n"


def _density_table(dist: MixtureDistribution, lo: float, hi: float, count: int) -> tuple:
    """A figure's table, plus the density curve (x, density) and the finite atoms merged into it.

    Each atom row, its weight in the density column, goes just before the density row at its x.
    """
    grid = np.linspace(lo, hi, count)
    cuts = [b for b in dist.breakpoints() if lo <= b <= hi]
    # sample both sides of each density jump so consumers see the discontinuity
    cuts += [np.nextafter(b, np.inf) for b in cuts]
    xs = np.unique(np.concatenate([grid, np.asarray(cuts, dtype=float)]))
    ys = dist.density_ac(xs)
    atoms = sorted(a for a in dist.atoms if math.isfinite(a.loc))
    locs, weights = np.array(atoms, dtype=float).reshape(-1, 2).T
    at = np.searchsorted(xs, locs)
    columns = (np.insert(xs, at, locs), np.insert(ys, at, weights), np.insert(np.zeros(xs.size, dtype=int), at, 1))
    table = ExperimentReport(columns=("x", "density", "is_atom"), rows=list(zip(*(c.tolist() for c in columns))))
    return table, (xs, ys), atoms


def _point_and_tuning(params: dict) -> tuple:
    # a replayed manifest may hold any value; ModelPoint and TuningPlan check each and store an int or floats,
    # and theta is one number, since a figure or a table shows one law, not a batch
    return ModelPoint(params["n"], _check_real(params["theta"], "theta")), TuningPlan(params["eta"], params["a"])


def run_figure(params: dict) -> tuple:
    which = _one_of(_check_count(params["which"], "which"), FIGURE_KINDS, "which")
    kind = EstimatorKind.parse(FIGURE_KINDS[which])
    point, tuning = _point_and_tuning(params)
    dist = finite_sample_dist(kind, point, tuning)
    table, (xs, ys), atoms = _density_table(dist, -5.0, 5.0, 2000)
    svg = density_svg(xs, ys, atoms, f"{kind.value} estimator, n={point.n}, theta={point.theta}, eta={tuning.eta}")
    return {f"figure{which}.csv": table, f"figure{which}.svg": svg}, True


def run_dist(params: dict) -> tuple:
    kind = EstimatorKind.parse(params["kind"])
    point, tuning = _point_and_tuning(params)
    scaling, grid = _one_of(params["scaling"], LAWS, "scaling"), params["grid"]
    if not (isinstance(grid, list) and len(grid) == 3):
        raise ValueError(f"grid must be a list [lo, hi, count] (got {grid!r})")
    dist = LAWS[scaling](kind, point, tuning)
    lo, hi, count = grid
    grid = np.linspace(_check_real(lo, "grid lo"), _check_real(hi, "grid hi"), _check_count(count, "grid count"))
    rows = list(zip(grid.tolist(), dist.cdf(grid).tolist(), dist.density_ac(grid).tolist()))
    table = ExperimentReport(columns=("x", "cdf", "ac_density"), rows=rows)
    stem = f"dist_{kind.value}_{scaling}"
    return {f"{stem}.csv": table, f"{stem}.json": _json_dumps(dist.to_json())}, True


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


def _config_with_defaults(name: str, config: dict) -> dict:
    """The named experiment's defaults updated by config, whose keys are the experiment's own or `reps`.

    Every value is a number or a string, and only a key with a list default takes a list of them (a
    single value is wrapped in one); `reps`, which --reps writes into any config, is a count even where
    the experiment does not read it, and the library checks every other value where it reads it.
    """
    if not isinstance(config, dict):
        raise ValueError(f"config must map keys to values (got {config!r})")
    defaults = CONFIG_DEFAULTS[name]
    cfg = dict(defaults)
    for key, value in config.items():
        if key not in defaults and key != "reps":
            raise ValueError(f"unknown config key {key!r}: the {name} experiment does not read it")
        listed = ", or a list of them" if isinstance(defaults.get(key), list) else ""
        items = value if listed and isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in items):
            raise ValueError(f"config key {key!r} takes a number or a string{listed}, not {value!r}")
        cfg[key] = items if listed else value
    if "reps" in config:
        _check_count(config["reps"], "reps (replications)")
    return cfg


# each theta rule's reader of the selection config
THETA_RULES = {"local": lambda cfg: ThetaRule.local(cfg["nu"], perturb=cfg["perturb"]),
               "eta_multiple": lambda cfg: ThetaRule.eta_multiple(cfg["zeta"]),
               "boundary": lambda cfg: ThetaRule.boundary(cfg["zeta"], cfg["r"], perturb=cfg["perturb"]),
               "fixed": lambda cfg: ThetaRule.fixed(cfg["theta"])}


def _power_path(cfg: dict) -> PowerTuningPath:
    return PowerTuningPath(cfg["scale"], cfg["gamma"])


def _experiment_selection(cfg: dict, seed: int) -> tuple:
    path = _power_path(cfg)
    rule = THETA_RULES[_one_of(cfg["rule"], THETA_RULES, "rule")](cfg)
    report = selection_convergence_table(path, rule, cfg["n_list"])
    gaps = report.column("gap")
    ok = abs(gaps[-1]) < abs(gaps[0]) or abs(gaps[-1]) <= 1e-12
    checks = [{"name": "gap-shrinks", "pass": bool(ok),
               "first_gap": gaps[0], "last_gap": gaps[-1]}]
    return {"selection.csv": report}, checks


def _experiment_limits(cfg: dict, seed: int) -> tuple:
    scenarios = canonical_scenarios(cfg["a"])
    if cfg["scenario"] != ["all"]:
        names = [_one_of(name, [s.name for s in scenarios], "scenario") for name in cfg["scenario"]]
        scenarios = [s for s in scenarios if s.name in names]
    files, checks = {}, []
    for sc in scenarios:
        rep = sc.check(cfg["n_probe"])
        files[f"limits_{sc.name}.csv"] = rep
        gaps = rep.column("sup_gap")
        ok = gaps[-1] < 0.02 and gaps[-1] < gaps[0]
        checks.append({"name": sc.name, "pass": bool(ok),
                       "gap_small_n": gaps[0], "gap_large_n": gaps[-1]})
    return files, checks


def _experiment_uniform_rate(cfg: dict, seed: int) -> tuple:
    kind = EstimatorKind.parse(cfg["kind"])
    path = _power_path(cfg)
    report = uniform_rate_experiment(kind, path, cfg["M"], cfg["n_list"], scaling=cfg["scaling"], scad_a=cfg["a"])
    ok = all(report.column("within_bound"))
    checks = [{"name": "sup-below-bound", "pass": bool(ok)}]
    return {"uniform_rate.csv": report}, checks


def _experiment_impossibility(cfg: dict, seed: int) -> tuple:
    kind = EstimatorKind.parse(cfg["kind"])
    n = cfg["n"]
    path = _power_path(cfg)
    tuning = TuningPlan(path.eta(n), cfg["a"])
    name = cfg["estimator"]
    tol = _check_real(cfg["oracle_tol"], "oracle_tol")
    threshold = _check_real(cfg["threshold"], "threshold")
    specs = {"oracle": OracleCheat(), "pretest": PretestPlugin(consistent=path.e_limit == math.inf),
             "bootstrap": MOutOfNBootstrap(path=path)}
    report = estimator_worst_case(specs[_one_of(name, specs, "estimator")], kind, n, cfg["t"], tuning, cfg["c"],
                                  seed=seed, replications=cfg["reps"])
    summary = {k: report.meta[k] for k in ("epsilon", "epsilon_range", "bound", "sup", "witness_theta")}
    ok = report.meta["sup"] <= tol if name == "oracle" else report.meta["sup"] >= threshold
    checks = [{"name": f"{name}-worst-case", "pass": bool(ok), "sup": report.meta["sup"]}]
    return {"impossibility.csv": report, "impossibility_summary.json": _json_dumps(summary)}, checks


# each runner takes (config with defaults, seed) and returns ({file name: report or text}, checks)
EXPERIMENTS = {"selection": _experiment_selection, "limits": _experiment_limits,
               "uniform-rate": _experiment_uniform_rate, "impossibility": _experiment_impossibility}


def run_experiment(params: dict) -> tuple:
    name = _one_of(params["name"], EXPERIMENTS, "experiment name")
    cfg = _config_with_defaults(name, params["config"])  # a config from a file, --reps or a replayed manifest
    files, checks = EXPERIMENTS[name](cfg, _check_seed(params["seed"]))
    verdict = {"experiment": name, "pass": all(c["pass"] for c in checks), "checks": checks}
    files["verdict.json"] = _json_dumps(verdict)
    return files, verdict["pass"]


# each runner takes params and returns ({file name: report or text}, whether every check passed)
RUNNERS = {"figure": run_figure, "dist": run_dist, "experiment": run_experiment}
# the params keys that each command writes into its manifest, all of which a rerun requires
PARAMS_KEYS = {"figure": ("which", *FIGURE_DEFAULTS), "dist": ("kind", "n", "theta", "eta", "a", "scaling", "grid"),
               "experiment": ("name", "config", "seed")}


def _with_keys(mapping, keys, name: str) -> dict:
    """mapping if it is a dict holding each of keys, else a ValueError naming the first it lacks."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{name} must map keys to values (got {mapping!r})")
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{name} must hold the key {key!r}")
    return mapping


def _dispatch(command: str, params: dict, out_dir: Path) -> int:
    """Run the command, then write its files and manifest: a run that raises creates nothing."""
    files, passed = RUNNERS[command](params)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, ExperimentReport):
            content.write_csv(out_dir / name)
        else:
            _write(out_dir / name, content)
    _write_manifest(out_dir, command, params, list(files))
    if command == "experiment":
        print(f"{'PASS' if passed else 'FAIL'}: experiment {params['name']} -> {out_dir}")
    else:
        print(f"wrote {', '.join(files)} -> {out_dir}")
    return 0 if passed else 1


@functools.cache  # built on the first command, not at import
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
    try:
        if args.command == "rerun":
            manifest = json.loads(Path(args.manifest).read_text())
            _with_keys(manifest, ("command", "params", "seed"), "manifest")
            command = _one_of(manifest["command"], RUNNERS, "manifest command")
            params = _with_keys(manifest["params"], PARAMS_KEYS[command], "manifest params")
            for key in params:
                _one_of(key, PARAMS_KEYS[command], "manifest params key")
            seed, params_seed = manifest["seed"], params.get("seed")
            if seed != params_seed:
                raise ValueError(f"manifest seed {seed!r} differs from its params seed {params_seed!r}")
            out_dir = Path(args.out) if args.out else Path(args.manifest).parent
            return _dispatch(command, params, out_dir)
        if args.command == "dist":
            try:
                lo, hi, count = args.grid.split(":")
                params["grid"] = [float(lo), float(hi), int(count)]
            except ValueError:  # too few or too many fields, or one that is not a number
                raise ValueError(
                    f"--grid must be lo:hi:count, two numbers and a whole count (got {args.grid!r})") from None
        if args.command == "experiment":
            cfg = _parse_config_file(args.config) if args.config else {}
            if args.reps is not None:
                cfg["reps"] = args.reps
            params = {"name": args.name, "config": cfg, "seed": _resolve_seed(args)}
        return _dispatch(args.command, params, Path(args.out))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
