"""The verdicts of `tools/bench_pairs.py` on hand-made paired values."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0, 28.0, 29.0]  # median 24.5, quartiles 22.25 and 26.75


def test_quartiles_interpolate_and_a_single_value_is_its_own():
    assert bench_pairs.quartiles(PARENT) == (22.25, 24.5, 26.75)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_wins_nine_of_ten_pairs_and_clears_the_parent_spread():
    change = [p - 5.0 for p in PARENT]  # every pair won, the median 5 below against a spread of 4.5
    v = verdict(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["pairs"], v["gain"], v["regression"]) == (10, 10, True, "ok")
    assert v["worse_by"] == pytest.approx(-5.0 / 24.5)
    # a tie counts for neither side: with one tie the change still wins 9 of 10, with two only 8
    for ties, gain in ((1, True), (2, False)):
        v = verdict(PARENT, change[:10 - ties] + PARENT[10 - ties:], "lower", 0.25)
        assert (v["wins"], v["gain"]) == (10 - ties, gain)


def test_no_gain_within_the_parent_spread_or_on_ties():
    close = verdict(PARENT, [p - 4.0 for p in PARENT], "lower", 0.25)  # medians 4 apart against a spread of 4.5
    assert (close["wins"], close["gain"]) == (10, False)
    same = verdict(PARENT, list(PARENT), "lower", 0.25)
    assert (same["wins"], same["gain"], same["worse_by"], same["regression"]) == (0, False, 0.0, "ok")


def test_a_higher_is_better_metric_counts_the_other_way():
    up = verdict(PARENT, [p + 5.0 for p in PARENT], "higher", 0.25)
    assert (up["wins"], up["gain"], up["regression"]) == (10, True, "ok")
    down = verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)
    assert (down["wins"], down["gain"], down["regression"]) == (0, False, "worse")
    assert down["worse_by"] == pytest.approx(0.3)


def test_a_regression_is_worse_past_the_bound_and_unresolved_past_the_spread():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["regression"] == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["regression"] == "ok"
    # the parent's spread, 4.5 of 24.5, is wider than a bound of 0.1: a change within it cannot be told
    assert verdict(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)["regression"] == "unresolved"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1)["regression"] == "worse"
    flat = [10.0] * 10
    wide = [5.0, 15.0] * 5  # the change's own spread, 10 around a median of 10
    assert verdict(flat, wide, "lower", 0.25)["regression"] == "unresolved"
    assert verdict([0.0] * 10, [0.0] * 10, "lower", 0.25)["regression"] == "ok"
    assert verdict([0.0] * 10, [1.0] * 10, "lower", 0.25)["regression"] == "worse"


def test_a_wide_spread_is_resolved_where_every_change_run_beats_every_parent_run():
    # both spreads, 4.5 of 24.5 and of 14.5 or 34.5, are wider than a bound of 0.1
    assert verdict(PARENT, [p - 10.0 for p in PARENT], "lower", 0.1)["regression"] == "ok"  # 19 < 20
    assert verdict(PARENT, [p - 9.0 for p in PARENT], "lower", 0.1)["regression"] == "unresolved"  # 20 ties 20
    assert verdict(PARENT, [p + 10.0 for p in PARENT], "higher", 0.1)["regression"] == "ok"
    assert verdict(PARENT, [p + 9.0 for p in PARENT], "higher", 0.1)["regression"] == "unresolved"


def test_no_gain_counts_where_the_change_fails_more_operations():
    change = [p - 5.0 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.25)["gain"]
    assert not verdict(PARENT, change, "lower", 0.25, more_failures=True)["gain"]


@pytest.mark.parametrize("failed,gain", [((0, 0), "yes"), ((2, 2), "yes"), ((0, 1), "no")])
def test_main_voids_the_gain_where_the_change_fails_more_operations(tmp_path, monkeypatch, capsys, failed, gain):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "op_tail_ms", "better": "lower", "bound": 0.25}]}')
    values = {parent: iter(PARENT), change: iter([p - 5.0 for p in PARENT])}
    fails = dict(zip((parent, change), failed))

    def run_once(checkout, workload, seconds, seed):
        f = fails[checkout]
        fails[checkout] = 0  # the side's failures fall in its first run
        value = next(values[checkout])
        return {"failed": f, "attempted": 10, "correct": True, "metrics": {"op_tail_ms": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("op_tail_ms"))
    assert row.split()[-3:-1] == [gain, "-20.4%"]


def test_paired_values_need_one_per_pair():
    with pytest.raises(ValueError, match="one value each per pair"):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError, match="one value each per pair"):
        verdict([], [], "lower", 0.25)


def _benchmark(tmp_path, workloads):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}))
    return parent, change


def _fake_runs(monkeypatch, parent, fail_at=None):
    """Patch run_once with a recorder of (side, workload) that gives the change 1.0 s and the parent 2.0 s,
    raising RunFailed at the call numbered fail_at (from 1)."""
    calls = []

    def run_once(checkout, workload, seconds, seed):
        calls.append(("parent" if checkout == parent else "change", workload))
        if len(calls) == fail_at:
            raise bench_pairs.RunFailed("exited with status 2; the end of its stderr:\nTraceback\nKeyError: 'x'")
        value = 2.0 if checkout == parent else 1.0
        return {"failed": 0, "attempted": 1, "correct": True, "metrics": {"run_s": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_main_runs_every_workload_of_the_benchmark_when_none_is_given(tmp_path, monkeypatch, capsys):
    parent, change = _benchmark(tmp_path, ["a", "b"])
    calls = _fake_runs(monkeypatch, parent)
    assert bench_pairs.main([str(parent), str(change), "--pairs", "2"]) == 0
    # each pair runs every workload on both sides, the parent first in even pairs and the change in odd ones
    assert calls == [("parent", "a"), ("change", "a"), ("parent", "b"), ("change", "b"),
                     ("change", "a"), ("parent", "a"), ("change", "b"), ("parent", "b")]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("==")] == ["== a: 2 pairs", "== b: 2 pairs"]
    assert [json.loads(line)["workload"] for line in out if line.startswith("{")] == ["a", "b"]


def test_main_takes_workload_more_than_once(tmp_path, monkeypatch, capsys):
    parent, change = _benchmark(tmp_path, ["a", "b", "c"])
    calls = _fake_runs(monkeypatch, parent)
    assert bench_pairs.main([str(parent), str(change), "--workload", "c", "--workload", "a", "--pairs", "1"]) == 0
    assert calls == [("parent", "c"), ("change", "c"), ("parent", "a"), ("change", "a")]
    tables = [line for line in capsys.readouterr().out.splitlines() if line.startswith("==")]
    assert tables == ["== c: 1 pairs", "== a: 1 pairs"]


def test_a_failed_run_names_its_side_and_keeps_the_pairs_before_it(tmp_path, monkeypatch, capsys):
    parent, change = _benchmark(tmp_path, ["a", "b"])
    calls = _fake_runs(monkeypatch, parent, fail_at=11)  # pair 3: a on both sides, then b fails on the parent
    assert bench_pairs.main([str(parent), str(change), "--pairs", "10"]) == 1
    assert len(calls) == 11 and calls[-1] == ("parent", "b")
    captured = capsys.readouterr()
    tables = [line for line in captured.out.splitlines() if line.startswith("==")]
    assert tables == ["== a: 3 pairs", "== b: 2 pairs"]  # pair 3 of a is complete, that of b is not
    assert captured.err.splitlines()[-3:] == [
        "pair 3: the parent run of b exited with status 2; the end of its stderr:", "Traceback", "KeyError: 'x'"]


def test_run_once_reads_the_last_line_or_raises_with_the_end_of_stderr(monkeypatch):
    done = {}
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda command, **kwargs: subprocess.CompletedProcess(command, **done))
    done.update(returncode=0, stdout='progress\n{"metrics": {}}\n', stderr="")
    assert bench_pairs.run_once(Path("."), "a", 1.0, 1) == {"metrics": {}}
    done.update(returncode=3, stdout="", stderr="\n".join(f"line {i}" for i in range(30)))
    with pytest.raises(bench_pairs.RunFailed) as err:
        bench_pairs.run_once(Path("."), "a", 1.0, 1)
    lines = str(err.value).splitlines()
    assert lines[0] == "exited with status 3; the end of its stderr:"
    assert lines[1:] == [f"line {i}" for i in range(30 - bench_pairs.STDERR_TAIL, 30)]
