import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from shrinkdist.cli import _parse_config_file, main
from shrinkdist.finite_dist import MixtureDistribution
from shrinkdist.normal_kernel import norm_cdf


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


def test_experiment_limits_rejects_scad_a_at_one(tmp_path, capsys):
    cfg = tmp_path / "lim.cfg"
    cfg.write_text("a=1\n")
    assert main(["experiment", "limits", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "scad_a > 2 required" in capsys.readouterr().err


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