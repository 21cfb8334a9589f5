"""The verdicts of `tools/bench_pairs.py` on hand-made paired values."""

import importlib.util
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
