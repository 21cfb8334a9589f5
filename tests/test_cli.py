import ast
import json
import math
import re
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import scipy

from oracles import density_rows_reference, svg_polyline_reference

from shrinkdist import finite_dist
from shrinkdist.cli import (
    CONFIG_DEFAULTS,
    EXPERIMENTS,
    RUNNERS,
    _build_parser,
    _density_table,
    _parse_config_file,
    _svg_polyline,
    main,
    run_experiment,
)
from shrinkdist.estimators import DEFAULT_SCAD_A, EstimatorKind, TuningPlan
from shrinkdist.finite_dist import MixtureDistribution, ModelPoint, finite_sample_dist
from shrinkdist.limits import canonical_scenarios
from shrinkdist.normal_kernel import norm_cdf

DIST = ["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08"]
SCENARIO_NAMES = [s.name for s in canonical_scenarios()]
MISSING = object()  # a manifest edit that deletes its key


def read_csv(path):
    lines = path.read_text().splitlines()
    start = 1 if lines[0].startswith("#") else 0
    header = lines[start].split(",")
    rows = [line.split(",") for line in lines[start + 1:]]
    return header, rows


def test_figure_one_atom_row(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out / "figure1.csv")
    assert header == ["x", "density", "is_atom"]
    atoms = [r for r in rows if r[2] == "1"]
    assert len(atoms) == 1
    assert float(atoms[0][0]) == pytest.approx(-math.sqrt(40) * 0.16, abs=1e-12)
    assert float(atoms[0][1]) == pytest.approx(0.1513, abs=1e-4)
    assert (out / "figure1.svg").read_text().startswith("<svg")
    assert "dasharray" in (out / "figure1.svg").read_text()


def test_figure_two_truncated_branches(tmp_path):
    out = tmp_path / "fig2"
    assert main(["figure", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out / "figure2.csv")
    loc = -math.sqrt(40) * 0.16
    se = math.sqrt(40) * 0.05
    curve = [(float(r[0]), float(r[1])) for r in rows if r[2] == "0"]
    left = [d for x, d in curve if abs(x - (loc - 0.4)) < 5e-3]
    right = [d for x, d in curve if abs(x - (loc + 0.4)) < 5e-3]
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    assert left[0] == pytest.approx(phi(loc - 0.4 - se), abs=1e-3)
    assert right[-1] == pytest.approx(phi(loc + 0.4 + se), abs=1e-3)


def test_figure_three_override_integrates(tmp_path):
    out = tmp_path / "fig3"
    assert main(["figure", "3", "--a", "2.5", "--out", str(out)]) == 0
    _, rows = read_csv(out / "figure3.csv")
    curve = [(float(r[0]), float(r[1])) for r in rows if r[2] == "0"]
    atom_w = [float(r[1]) for r in rows if r[2] == "1"][0]
    xs = np.array([x for x, _ in curve])
    ds = np.array([d for _, d in curve])
    integral = np.trapezoid(ds, xs)
    # [-5, 5] window loses ~6e-7 of tail mass; trapezoid on the 2000-point grid
    # adds ~1e-6 more, so a 1e-5 check is the honest tolerance here
    assert integral == pytest.approx(1.0 - atom_w, abs=1e-5)


def test_dist_csv_matches_closed_form(tmp_path):
    out = tmp_path / "dist"
    assert main(["dist", "--kind", "soft", "--n", "40", "--theta", "0.16", "--eta", "0.05",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "dist_soft_sqrt_n.csv")
    s = math.sqrt(40)
    for r in rows:
        x, cdf = float(r[0]), float(r[1])
        expected = norm_cdf(x + s * 0.05) if x >= -s * 0.16 else norm_cdf(x - s * 0.05)
        assert cdf == pytest.approx(expected, abs=1e-12)


def test_dist_inv_eta_is_rescaled_sqrt_n(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    scale = math.sqrt(400) * 0.1
    main(["dist", "--kind", "hard", "--n", "400", "--theta", "0.05", "--eta", "0.1",
          "--grid=-2:2:9", "--out", str(out1), "--scaling", "inv_eta"])
    main(["dist", "--kind", "hard", "--n", "400", "--theta", "0.05", "--eta", "0.1",
          f"--grid={-2 * scale}:{2 * scale}:9", "--out", str(out2), "--scaling", "sqrt_n"])
    _, rows1 = read_csv(out1 / "dist_hard_inv_eta.csv")
    _, rows2 = read_csv(out2 / "dist_hard_sqrt_n.csv")
    for r1, r2 in zip(rows1, rows2):
        assert float(r1[1]) == pytest.approx(float(r2[1]), abs=1e-12)


def test_dist_json_round_trip_reproduces_csv(tmp_path):
    out = tmp_path / "dist"
    main(["dist", "--kind", "scad", "--n", "40", "--theta", "0.16", "--eta", "0.05",
          "--out", str(out)])
    blob = json.loads((out / "dist_scad_sqrt_n.json").read_text())
    dist = MixtureDistribution.from_json(blob)
    _, rows = read_csv(out / "dist_scad_sqrt_n.csv")
    for r in rows:
        x = float(r[0])
        assert format(dist.cdf(x), ".17g") == r[1]
        assert format(dist.density_ac(x), ".17g") == r[2]


def test_invalid_tuning_names_invariant(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(["dist", "--kind", "scad", "--n", "10", "--theta", "0.0", "--eta", "0.1",
                 "--a", "1.5", "--out", str(out)])
    assert code == 2
    assert "scad_a > 2" in capsys.readouterr().err


def test_experiment_selection_verdict(tmp_path):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("rule=eta_multiple\nzeta=0.5\ngamma=0.25\nn_list=100,10000,1000000\n")
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["pass"] is True


def test_experiment_limits_scenario(tmp_path):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("scenario=hard-consistent-boundary\nn_probe=1000,100000\n")
    out = tmp_path / "lim"
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["checks"][0]["gap_large_n"] < 0.02


def test_experiment_unknown_scenario_errors(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("scenario=no-such-regime\n")
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_experiment_limits_runs_every_listed_scenario(tmp_path):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("scenario=hard-conservative-local, soft-consistent-local\nn_probe=1000,100000\n")
    out = tmp_path / "lim"
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(out)]) == 0
    checks = json.loads((out / "verdict.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["hard-conservative-local", "soft-consistent-local"]


def test_experiment_limits_unknown_name_in_list_errors(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("scenario=hard-conservative-local,no-such-regime\n")
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "no-such-regime" in capsys.readouterr().err


def test_experiment_unknown_scaling_errors(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("scaling=a_m\n")
    assert main(["experiment", "uniform-rate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "scaling" in capsys.readouterr().err


@pytest.mark.parametrize("text, status", [("scaling=sqrt_n\nM=3\n", 1), ("scaling=sqrt_n\ngamma=0.5\n", 0)],
                         ids=["consistent-escapes", "conservative-within"])
def test_experiment_uniform_rate_sqrt_n_verdict_reads_the_bound(tmp_path, text, status):
    # sqrt(n) is the uniform rate under conservative tuning only
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(text)
    out = tmp_path / "rate"
    assert main(["experiment", "uniform-rate", "--config", str(cfg), "--out", str(out)]) == status
    header, rows = read_csv(out / "uniform_rate.csv")
    sup, bound, within = (header.index(c) for c in ("sup_prob", "bound", "within_bound"))
    assert [int(r[within]) for r in rows] == [float(r[sup]) <= float(r[bound]) for r in rows]


@pytest.mark.parametrize("name, key", [("uniform-rate", "n_list"), ("selection", "n_list"), ("limits", "n_probe")])
def test_experiment_empty_n_list_errors(tmp_path, capsys, name, key):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(json.dumps({key: []}))
    assert main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("name, text, named", [
    ("uniform-rate", "M=7,8\n", "config key 'M'"),
    ("impossibility", "estimator=oracle\nreps=true\n", "'true'"),  # "true" stays a string
    ("uniform-rate", "n_list=true\n", "'true'"),
    ("impossibility", '{"estimator": "oracle", "reps": true}', "config key 'reps'"),
    ("impossibility", '{"n": null}', "config key 'n'"),
    ("uniform-rate", '{"M": [7, 8]}', "config key 'M'"),
], ids=["text-list", "text-reps-true", "text-n_list-true", "json-bool", "json-null", "json-list"])
def test_experiment_wrong_type_config_value_exits_2(tmp_path, capsys, name, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "PASS" not in captured.out


def test_rerun_rejects_wrong_type_config_value(tmp_path, capsys):
    cfg = tmp_path / "imp.cfg"
    cfg.write_text("estimator=oracle\nkind=hard\nn=100\nreps=50\n")
    out = tmp_path / "imp"
    assert main(["experiment", "impossibility", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["params"]["config"]["reps"] = True
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 2
    captured = capsys.readouterr()
    assert "config key 'reps'" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("name, text, named", [
    ("impossibility", "estimator=oracle\nn=inf\n", "n must be a positive integer (got inf)"),
    ("uniform-rate", "n_list=100,inf\n", "each n_list item must be a positive integer (got inf)"),
    ("impossibility", '{"estimator": "oracle", "n": 1e400}', "n must be a positive integer (got inf)"),
    ("impossibility", "estimator=oracle\nn=100.7\n", "n must be a positive integer (got 100.7)"),
    ("impossibility", "estimator=oracle\nn=100\nreps=50.9\n", "reps (replications) must be a positive integer"),
    ("limits", "n_probe=1000.5\n", "each n_probe item must be a positive integer (got 1000.5)"),
    ("selection", "n_list=100,nan\n", "each n_list item must be a positive integer (got nan)"),
    ("impossibility", f"estimator=oracle\nn={10**400}\n", f"n must be at most the largest float, {sys.float_info.max!r}"),
    ("uniform-rate", f"n_list=100,{10**400}\n", "each n_list item must be at most the largest float"),
], ids=["n-inf", "n_list-inf", "json-n-overflows", "n-fraction", "reps-fraction", "n_probe-fraction", "n_list-nan",
        "n-past-the-floats", "n_list-past-the-floats"])
def test_experiment_count_that_is_not_a_positive_integer_exits_2(tmp_path, capsys, name, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x"
    assert main(["experiment", name, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "PASS" not in captured.out and not (out / "manifest.json").exists()


def test_rerun_rejects_fractional_count(tmp_path, capsys):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("n_list=100,1000\nrule=fixed\ntheta=0.5\n")
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["params"]["config"]["n_list"] = [100, 1000.5]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 2
    assert "each n_list item must be a positive integer (got 1000.5)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.5, True, "1", -1])
def test_rerun_rejects_a_seed_that_is_not_a_64_bit_integer(tmp_path, capsys, seed):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("n_list=100,1000\nrule=fixed\ntheta=0.5\n")
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["params"]["seed"] = manifest["seed"] = seed
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 2
    assert "error: seed must" in capsys.readouterr().err and not (replay / "manifest.json").exists()


def test_rerun_rejects_a_manifest_whose_seed_differs_from_its_params(tmp_path, capsys):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("n_list=100,1000\nrule=fixed\ntheta=0.5\n")
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["seed"] = 5
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    replay = tmp_path / "replay"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 2
    assert "error: manifest seed 5 differs from its params seed 1" in capsys.readouterr().err
    assert not replay.exists()


@pytest.mark.parametrize("env", ["abc", "1.5", "-1"])
def test_seed_env_that_is_not_a_seed_names_the_variable(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("SHRINKDIST_SEED", env)
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: SHRINKDIST_SEED must hold a seed, an integer in [0, 2**64) (got {env!r})\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["figure", "1"], ["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08"]],
                         ids=["figure", "dist"])
def test_rerun_rejects_fractional_n(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["params"]["n"] += 0.9
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 2
    assert "n must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, value, message", [
    (["figure", "1"], "which", 1.5, "which must be a positive integer (got 1.5)"),
    (["figure", "1"], "theta", "0.16", "theta must be a finite real number (got '0.16')"),
    (["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08"], "grid", [-5.0, 5.0, 9.5],
     "grid count must be a positive integer (got 9.5)"),
    (["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08"], "eta", True,
     "eta must be a finite real number with eta > 0 (got True)"),
    (["figure", "1"], "which", 4, "which must be one of 1, 2, 3 (got 4)"),
    (["figure", "1"], "theta", [0.1, 0.2], "theta must be a finite real number (got [0.1, 0.2])"),
    (["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08"], "theta", [-0.3],
     "theta must be a finite real number (got [-0.3])"),
    (DIST, "kind", 3, "unknown estimator kind 3; expected hard, soft, or scad"),
    (DIST, "scaling", ["sqrt_n"], "scaling must be one of sqrt_n, inv_eta (got ['sqrt_n'])"),
    (DIST, "scaling", "inv", "scaling must be one of sqrt_n, inv_eta (got 'inv')"),
    (DIST, "grid", 5, "grid must be a list [lo, hi, count] (got 5)"),
    (DIST, "grid", [1, 2], "grid must be a list [lo, hi, count] (got [1, 2])"),
    (["experiment", "selection"], "name", ["selection"],
     "experiment name must be one of selection, limits, uniform-rate, impossibility (got ['selection'])"),
    (["experiment", "selection"], "name", "foo",
     "experiment name must be one of selection, limits, uniform-rate, impossibility (got 'foo')"),
    (["experiment", "selection"], "config", [1], "config must map keys to values (got [1])"),
    (DIST, "command", ["dist"], "manifest command must be one of figure, dist, experiment (got ['dist'])"),
    (DIST, "command", "plot", "manifest command must be one of figure, dist, experiment (got 'plot')"),
    (DIST, "params", [1], "manifest params must map keys to values (got [1])"),
    (DIST, None, [1], "manifest must map keys to values (got [1])"),
    (DIST, None, None, "manifest must map keys to values (got None)"),
    (DIST, None, "dist", "manifest must map keys to values (got 'dist')"),
    (DIST, "command", MISSING, "manifest must hold the key 'command'"),
    (DIST, "params", MISSING, "manifest must hold the key 'params'"),
    (["figure", "1"], "seed", MISSING, "manifest must hold the key 'seed'"),
    (DIST, "grid", MISSING, "manifest params must hold the key 'grid'"),
    (["figure", "1"], "bogus", 1, "manifest params key must be one of which, n, theta, eta, a (got 'bogus')"),
    (DIST, "bogus", 1, "manifest params key must be one of kind, n, theta, eta, a, scaling, grid (got 'bogus')"),
    (["experiment", "selection"], "bogus", 1, "manifest params key must be one of name, config, seed (got 'bogus')"),
], ids=["which-fraction", "theta-str", "grid-count-fraction", "eta-bool", "which-4", "figure-theta-list",
        "dist-theta-list", "kind-int", "scaling-list", "scaling-unknown", "grid-int", "grid-two-items",
        "name-list", "name-unknown", "config-list", "command-list", "command-unknown", "params-list",
        "manifest-list", "manifest-null", "manifest-string", "no-command", "no-params", "no-seed", "no-grid",
        "figure-unknown-key", "dist-unknown-key", "experiment-unknown-key"])
def test_rerun_rejects_a_manifest_value_it_would_have_cast(tmp_path, capsys, argv, key, value, message):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # key None stands for the whole manifest; "command", "params" and "seed" are the manifest's own keys,
    # the rest keys of its params; the value MISSING deletes the key
    where = manifest if key in ("command", "params", "seed") else manifest["params"]
    if key is None:
        manifest = value
    elif value is MISSING:
        del where[key]
    else:
        where[key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("grid", ["-5:5:9.5", "-5:5", "-5:5:9:1", "lo:5:9"])
def test_dist_grid_that_does_not_parse_exits_2_naming_the_grid(tmp_path, capsys, grid):
    out = tmp_path / "run"
    argv = ["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08", f"--grid={grid}"]
    assert main([*argv, "--out", str(out)]) == 2
    message = f"--grid must be lo:hi:count, two numbers and a whole count (got {grid!r})"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_experiment_uniform_rate_rejects_nan_m(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("M=nan\n")
    assert main(["experiment", "uniform-rate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "error: M must be a finite real number with M > 2 (got nan)\n" == capsys.readouterr().err


def test_experiment_limits_rejects_scad_a_at_one(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("a=1\n")
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "error: scad_a must be a finite real number with scad_a > 2 (got 1)\n" == capsys.readouterr().err


@pytest.mark.parametrize("argv, params", [
    (["figure", "1"], {"which": 1, "n": 40, "theta": 0.16, "eta": 0.05, "a": 3.7}),
    (["dist", "--kind", "hard", "--n", "25", "--theta", "-0.3", "--eta", "0.08", "--scaling", "inv_eta",
      "--grid=-2:2:9"],
     {"kind": "hard", "n": 25, "theta": -0.3, "eta": 0.08, "a": 3.7, "scaling": "inv_eta", "grid": [-2.0, 2.0, 9]}),
    (["experiment", "selection", "--seed", "3", "--reps", "5"],
     {"name": "selection", "config": {"n_list": [100, 1000], "rule": "fixed", "theta": 0.5, "reps": 5}, "seed": 3}),
])
def test_manifest_params_pinned(tmp_path, argv, params):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("n_list=100,1000\nrule=fixed\ntheta=0.5\n")
    config = ["--config", str(cfg)] if argv[0] == "experiment" else []
    assert main([*argv, *config, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # compared as JSON text, so an int written as a float (or the reverse) fails too
    assert json.dumps(manifest["params"], sort_keys=True) == json.dumps(params, sort_keys=True)


def test_readme_config_example_parses_as_written(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"`imp\.cfg`:\n\n```\n(.*?)```", readme, re.DOTALL).group(1)
    assert "#" in block  # the example carries comments after its values
    cfg = tmp_path / "imp.cfg"
    cfg.write_text(f"# impossibility example\n{block}")
    assert _parse_config_file(str(cfg)) == {"estimator": "bootstrap", "kind": "hard", "n": 10000, "gamma": 0.25,
                                            "t": 0.0, "c": 2.0, "reps": 10000}


@pytest.mark.parametrize("name", ["limits", "uniform-rate", "impossibility"])
def test_readme_experiment_keys_state_the_defaults(tmp_path, name):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(rf"The `{name}` experiment .*?```\n(.*?)```", readme, re.DOTALL).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    written, default = tmp_path / "written", tmp_path / "default"
    main(["experiment", name, "--config", str(cfg), "--reps", "200", "--out", str(written)])
    main(["experiment", name, "--reps", "200", "--out", str(default)])
    data = sorted(p.name for p in default.iterdir() if p.name != "manifest.json")
    assert sorted(p.name for p in written.iterdir() if p.name != "manifest.json") == data
    for fname in data:
        assert (written / fname).read_bytes() == (default / fname).read_bytes(), fname


def test_readme_claims_ledger_names_existing_checks():
    # one row per claim of the abstract; each check a row names is an acceptance criterion test, or a verdict
    # check that its experiment writes at its defaults (impossibility: with each of its estimators)
    tests = Path(__file__).resolve().parent
    readme = (tests.parent / "README.md").read_text()
    section = readme.split("## Paper claims and their checks\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")][1:]  # after the header
    assert len(rows) == 5
    criteria = {node.name for node in ast.parse((tests / "test_acceptance.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}
    written = {name: set() for name in EXPERIMENTS}
    for name in EXPERIMENTS:
        configs = [{"estimator": e} for e in ("oracle", "pretest", "bootstrap")] if name == "impossibility" else [{}]
        for config in configs:
            files = run_experiment({"name": name, "config": config, "seed": 1})[0]
            written[name].update(check["name"] for check in json.loads(files["verdict.json"])["checks"])
    for claim, checks, status in rows:
        names = re.findall(r"`([^`]+)`", checks)
        assert names or (checks.strip(), status.strip()) == ("nothing", "unchecked"), claim
        for name in names:
            experiment, _, check = name.partition("/")
            assert name in criteria or check in written.get(experiment, ()) or check == "*" and written[experiment], \
                name


def test_config_keys_are_the_readme_experiment_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(CONFIG_DEFAULTS) == set(EXPERIMENTS)
    for name, defaults in CONFIG_DEFAULTS.items():
        block = re.search(rf"The `{name}` experiment .*?```\n(.*?)```", readme, re.DOTALL).group(1)
        keys = [line.partition("=")[0].strip() for line in block.splitlines() if line.strip()]
        assert sorted(keys) == sorted(defaults), name


@pytest.mark.parametrize("name, text, message", [
    ("selection", "gama=0.5\n", "unknown config key 'gama': the selection experiment does not read it"),
    ("impossibility", '{"estimator": "oracle", "Reps": 50}',
     "unknown config key 'Reps': the impossibility experiment does not read it"),
    ("uniform-rate", "n=1000\n", "unknown config key 'n': the uniform-rate experiment does not read it"),
    ("selection", "M=3\n", "unknown config key 'M': the selection experiment does not read it"),
    ("limits", "n_list=100,1000\n", "unknown config key 'n_list': the limits experiment does not read it"),
    ("impossibility", "estimator=oracle\nn=100\nreps=50\noracle_tol=abc\n",
     "oracle_tol must be a finite real number (got 'abc')"),
    ("impossibility", "n=100\nreps=50\nthreshold=nan\n", "threshold must be a finite real number (got nan)"),
    ("limits", "n_probe=1000000,1000\n",
     "n_probe must be a nonempty, strictly increasing list of sample sizes (got [1000000, 1000])"),
    ("selection", "n_list=100,100\n",
     "n_list must be a nonempty, strictly increasing list of sample sizes (got [100, 100])"),
    ("uniform-rate", "M=abc\n", "M must be a finite real number with M > 2 (got 'abc')"),
    ("selection", "gamma=0.75\n",
     "exponent must be a finite real number with exponent > 0 and exponent <= 0.5 (got 0.75)"),
    ("selection", "rule=fixed\ntheta=inf\n", "value must be a finite real number (got inf)"),
    ("limits", "a=abc\n", "scad_a must be a finite real number with scad_a > 2 (got 'abc')"),
    ("impossibility", "estimator=oracle\nn=100\nreps=50\nc=0.5\nt=1\n",
     "c must be a finite real number with c > 1.0 (got 0.5)"),
    ("selection", "rule=eta_multiple\n", "zeta must be a finite real number (got None)"),
    ("selection", "rule=boundary\nzeta=1\n", "r must be a finite real number (got None)"),
    ("selection", "rule=fixed\n", "value must be a finite real number (got None)"),
    ("selection", "rule=constant\n", "rule must be one of local, eta_multiple, boundary, fixed (got 'constant')"),
    ("impossibility", "estimator=jackknife\nn=100\nreps=50\n",
     "estimator must be one of oracle, pretest, bootstrap (got 'jackknife')"),
    ("limits", "scenario=foo\n", f"scenario must be one of {', '.join(SCENARIO_NAMES)} (got 'foo')"),
    ("uniform-rate", "scaling=inv\n", "scaling must be one of a_n, sqrt_n (got 'inv')"),
    ("uniform-rate", "kind=3\n", "unknown estimator kind 3; expected hard, soft, or scad"),
    ("impossibility", "kind=3\n", "unknown estimator kind 3; expected hard, soft, or scad"),
], ids=["misspelt-key", "json-misspelt-key", "n-for-uniform-rate", "M-for-selection", "n_list-for-limits",
        "oracle_tol-abc", "threshold-nan", "n_probe-decreasing", "n_list-repeated", "M-abc", "gamma-above-half",
        "theta-inf", "a-abc", "c-inside-t", "eta_multiple-without-zeta", "boundary-without-r", "fixed-without-theta",
        "unknown-rule", "unknown-estimator", "unknown-scenario", "unknown-scaling", "uniform-rate-kind-int",
        "impossibility-kind-int"])
def test_experiment_bad_value_exits_2_naming_the_key(tmp_path, capsys, name, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "x"
    assert main(["experiment", name, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_rerun_rejects_an_unknown_config_key(tmp_path, capsys):
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["params"]["config"]["gama"] = 0.5
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "replay")]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'gama': the selection experiment does not read it\n"


@pytest.mark.parametrize("name, text", [
    ("selection", "reps=5\nn_list=100,1000\n"),
    ("limits", "reps=5\nn_probe=1000,100000\nscenario=hard-consistent-boundary\n"),
    ("uniform-rate", "reps=5\nn_list=100,1000\n"),
], ids=["selection", "limits", "uniform-rate"])
def test_reps_is_a_known_key_for_every_experiment(tmp_path, name, text):
    cfg = tmp_path / "reps.cfg"
    cfg.write_text(text)
    assert main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_selection_boundary_rule_reaches_its_limit(tmp_path):
    # theta_n = eta_n - 0.5/sqrt(n) under consistent tuning: the zero-selection probability tends to Phi(r)
    cfg = tmp_path / "sel.cfg"
    cfg.write_text("rule=boundary\nzeta=1\nr=0.5\nn_list=100,10000,1000000\n")
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "selection.csv")
    n, theta, eta, limit = np.array(rows, dtype=float)[:, [header.index(k) for k in ("n", "theta", "eta", "limit")]].T
    np.testing.assert_allclose(theta, eta - 0.5 / np.sqrt(n), rtol=1e-15)
    np.testing.assert_allclose(limit, NormalDist().cdf(0.5), rtol=1e-15)


def test_experiment_impossibility_oracle(tmp_path):
    cfg = tmp_path / "imp.cfg"
    cfg.write_text(json.dumps({"estimator": "oracle", "kind": "hard", "n": 1000, "reps": 300}))
    out = tmp_path / "imp"
    assert main(["experiment", "impossibility", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    summary = json.loads((out / "impossibility_summary.json").read_text())
    assert summary["sup"] <= 0.05
    assert summary["bound"] >= 0.4999


def test_experiment_impossibility_bootstrap_passes_and_replays(tmp_path):
    cfg = tmp_path / "imp.cfg"
    cfg.write_text("estimator=bootstrap\nkind=hard\nn=10000\nreps=2000\n")
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(["experiment", "impossibility", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    check = json.loads((first / "verdict.json").read_text())["checks"][0]
    assert check["name"] == "bootstrap-worst-case" and check["sup"] >= 0.45
    for name in ("impossibility.csv", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_experiment_impossibility_zero_reps_errors(tmp_path, capsys):
    cfg = tmp_path / "imp.cfg"
    cfg.write_text("estimator=oracle\nkind=hard\nn=100\n")
    out = tmp_path / "imp"
    assert main(["experiment", "impossibility", "--config", str(cfg), "--reps", "0", "--out", str(out)]) == 2
    assert "replications" in capsys.readouterr().err


def test_experiment_failures_exit_nonzero(tmp_path):
    cfg = tmp_path / "imp.cfg"
    # oracle passes only the <= tolerance gate; force a failure via threshold on pretest at tiny reps
    cfg.write_text("estimator=oracle\nkind=hard\nn=100\nreps=50\noracle_tol=-1\n")
    out = tmp_path / "imp"
    assert main(["experiment", "impossibility", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 1


def test_manifest_rerun_byte_identical(tmp_path):
    out = tmp_path / "first"
    main(["figure", "1", "--out", str(out)])
    replay = tmp_path / "second"
    assert main(["rerun", str(out / "manifest.json"), "--out", str(replay)]) == 0
    for name in ("figure1.csv", "figure1.svg", "manifest.json"):
        assert (out / name).read_bytes() == (replay / name).read_bytes()


def test_replayed_manifest_carries_the_same_versions(tmp_path):
    # the versions are the same on a rerun on one machine; a manifest from another machine replays to the same
    # data bytes, and its replay records this machine's versions
    out = tmp_path / "first"
    assert main([*DIST, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    here = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__, "scipy": scipy.__version__}
    assert manifest["versions"] == here
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "second")]) == 0
    assert json.loads((tmp_path / "second" / "manifest.json").read_text())["versions"] == here
    manifest["versions"] = {"python": "3.10.0", "numpy": "1.24.0", "scipy": "1.10.0"}
    (tmp_path / "elsewhere.json").write_text(json.dumps(manifest))
    assert main(["rerun", str(tmp_path / "elsewhere.json"), "--out", str(tmp_path / "third")]) == 0
    assert json.loads((tmp_path / "third" / "manifest.json").read_text())["versions"] == here
    for name in manifest["outputs"]:
        assert (out / name).read_bytes() == (tmp_path / "third" / name).read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "imp.cfg"
    cfg.write_text("estimator=oracle\nkind=hard\nn=500\nreps=100\n")
    monkeypatch.setenv("SHRINKDIST_SEED", "777")
    out = tmp_path / "env"
    main(["experiment", "impossibility", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 777
    out2 = tmp_path / "flag"
    main(["experiment", "impossibility", "--config", str(cfg), "--seed", "42", "--out", str(out2)])
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 42


def test_commands_write_only_into_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sandbox"
    main(["figure", "1", "--out", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sandbox"]
    assert sorted(p.name for p in out.iterdir()) == ["figure1.csv", "figure1.svg", "manifest.json"]

@pytest.mark.parametrize("seed", range(6))
def test_svg_polyline_equals_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.normal(scale=10.0 ** rng.integers(-3, 4), size=rng.integers(2, 400)))
    xs[rng.integers(0, xs.size, size=xs.size // 4)] = xs[-1]  # repeated x, out of order unless sorted again
    xs = np.sort(xs) if seed % 2 else xs
    ys = np.abs(rng.standard_cauchy(xs.size))
    ys[: xs.size // 3] = 0.0
    x_range = (float(np.min(xs)), float(np.max(xs)))
    for y_range in ((0.0, float(np.max(ys)) * 1.08 or 1.0), (0.0, 0.0), (-1.0, 2.0)):
        args = (x_range, y_range, 720, 480, 50.0)
        assert _svg_polyline(xs, ys, *args) == svg_polyline_reference(xs.tolist(), ys.tolist(), *args)


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("theta", [0.16, -0.3, 2.0, 0.0])
def test_density_table_equals_sorted_row_reference(kind, theta):
    dist = finite_sample_dist(kind, ModelPoint(40, theta), TuningPlan(0.05))
    table, (xs, ys), atoms = _density_table(dist, -5.0, 5.0, 2000)
    rows = density_rows_reference(dist, -5.0, 5.0, 2000)
    assert table.rows == rows
    assert [tuple(map(type, r)) for r in table.rows] == [tuple(map(type, r)) for r in rows]
    assert (xs.tolist(), ys.tolist()) == tuple(map(list, zip(*[r[:2] for r in rows if r[2] == 0])))
    assert [tuple(a) for a in atoms] == [r[:2] for r in rows if r[2] == 1]


@pytest.mark.parametrize("where", ["grid point", "grid end", "outside"])
def test_density_table_puts_an_atom_row_before_the_density_row_at_its_x(where):
    grid = np.linspace(-5.0, 5.0, 2001)
    loc = {"grid point": grid[1234], "grid end": grid[0], "outside": 7.5}[where]
    dist = finite_dist._mixture(EstimatorKind.HARD, loc, 0.7, DEFAULT_SCAD_A)
    assert loc in dist.breakpoints()
    table, _, _ = _density_table(dist, -5.0, 5.0, 2001)
    assert table.rows == density_rows_reference(dist, -5.0, 5.0, 2001)
    i = table.column("is_atom").index(1)
    assert table.rows[i][0] == loc
    if where != "outside":
        assert table.rows[i + 1][0] == loc and table.rows[i + 1][2] == 0


def test_density_table_without_finite_atoms():
    dist = MixtureDistribution(atoms=((math.inf, 0.0),), pieces=((1.0, 0.0, -math.inf, math.inf),))
    table, _, atoms = _density_table(dist, -1.0, 1.0, 11)
    assert atoms == [] and table.column("is_atom") == [0] * 11
    assert table.rows == density_rows_reference(dist, -1.0, 1.0, 11)


def test_density_table_orders_atoms_that_share_a_place():
    # the atoms below lo and above hi go in before the first and after the last density row, in x order;
    # the piece holds the other 0.65 of the mass on (-inf, 1]
    locs = (-7.0, 0.07, 9.0, -8.0, 0.05, 8.0, -1.0)
    dist = MixtureDistribution(atoms=tuple((loc, 0.05) for loc in locs),
                               pieces=((1.0, NormalDist().inv_cdf(0.65) - 1.0, -math.inf, 1.0),))
    table, _, atoms = _density_table(dist, -1.0, 1.0, 11)
    assert table.rows == density_rows_reference(dist, -1.0, 1.0, 11)
    assert [a.loc for a in atoms] == sorted(locs)


def test_parser_is_built_once_per_process(tmp_path):
    main(["figure", "1", "--out", str(tmp_path / "a")])
    main(["figure", "2", "--out", str(tmp_path / "b")])
    assert _build_parser.cache_info().currsize == 1
    assert _build_parser() is _build_parser()


def test_experiment_prints_verdict_and_exits_on_it(tmp_path, capsys):
    out = tmp_path / "sel"
    assert main(["experiment", "selection", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"PASS: experiment selection -> {out}\n"
    cfg = tmp_path / "imp.cfg"
    cfg.write_text("estimator=oracle\nkind=hard\nn=100\nreps=50\noracle_tol=-1\n")
    out = tmp_path / "imp"
    assert main(["experiment", "impossibility", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"FAIL: experiment impossibility -> {out}\n"
    assert json.loads((out / "verdict.json").read_text())["pass"] is False


def _edited_manifest(tmp_path, argv, edit):
    """The path of the manifest of a run of argv, edited in place."""
    source = tmp_path / "source"
    assert main([*argv, "--out", str(source)]) == 0
    manifest = json.loads((source / "manifest.json").read_text())
    edit(manifest)
    (source / "manifest.json").write_text(json.dumps(manifest))
    return str(source / "manifest.json")


def _config(tmp_path, text):
    (tmp_path / "run.cfg").write_text(text)
    return str(tmp_path / "run.cfg")


def _raising_runner(command, argv):
    """A case whose runner computes its files and then raises."""
    def case(tmp_path, monkeypatch):
        def raising(params, runner=RUNNERS[command]):
            runner(params)
            raise ValueError("fails after computing")
        monkeypatch.setitem(RUNNERS, command, raising)
        return argv
    return case


# each case: (tmp_path, monkeypatch) -> the argv, less --out, of a command that exits 2
FAILING_COMMANDS = {
    "figure-scad-a": lambda tmp, mp: ["figure", "3", "--a", "1.5"],
    "dist-n-0": lambda tmp, mp: [*DIST[:3], "--n", "0", *DIST[5:]],
    "dist-n-past-the-floats": lambda tmp, mp: [*DIST[:3], "--n", str(10**400), *DIST[5:]],
    "dist-bad-grid": lambda tmp, mp: [*DIST, "--grid=-5:5"],
    "experiment-unknown-key": lambda tmp, mp: ["experiment", "uniform-rate", "--config", _config(tmp, "n=1000\n")],
    "rerun-which-4": lambda tmp, mp: ["rerun", _edited_manifest(
        tmp, ["figure", "1"], lambda m: m["params"].update(which=4))],
    "rerun-two-seeds": lambda tmp, mp: ["rerun", _edited_manifest(
        tmp, ["experiment", "selection", "--seed", "1"], lambda m: m.update(seed=5))],
    **{f"{command}-raises-after-computing": _raising_runner(command, argv)
       for command, argv in (("figure", ["figure", "1"]), ("dist", DIST), ("experiment", ["experiment", "selection"]))},
}


@pytest.mark.parametrize("case", FAILING_COMMANDS)
def test_a_failed_command_creates_nothing(tmp_path, capsys, monkeypatch, case):
    argv = FAILING_COMMANDS[case](tmp_path, monkeypatch)
    capsys.readouterr()
    out = tmp_path / "out" / "nested"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()
