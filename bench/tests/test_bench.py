"""Tests of the benchmark's own rules: python3 -m pytest bench/tests"""

import math
import random

import numpy as np
import pytest

from harness import (PROBE_REF_S, CheckFailed, Op, OpRecord, compare_tables, fail_frac, run_passes,
                     sample_table, tail_percentile)
from tracing import Tracer, install, self_times, uninstall


# -- op_tail_ms percentile rule ------------------------------------------------

def beyond(xs, value):
    return sum(x > value for x in xs)


@pytest.mark.parametrize("n, pct", [(20, 50), (30, 66), (45, 77), (100, 90), (320, 96), (1000, 99), (5000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    xs = list(range(n, 0, -1))  # distinct, unsorted
    p, value = tail_percentile(xs)
    assert p == pct
    assert value == math.ceil(p * n / 100)
    assert beyond(xs, value) >= 10
    if p < 99:  # one percentile higher leaves fewer than ten beyond
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_random_sizes():
    rng = random.Random(5)
    for n in range(20, 400, 7):
        xs = [rng.random() for _ in range(n)]
        p, value = tail_percentile(xs)
        assert beyond(xs, value) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_few_samples_falls_back_to_median():
    assert tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)
    assert tail_percentile(list(range(1, 20))) == (50, 10)
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time from spans ---------------------------------------------------------

def test_self_times_on_nested_spans():
    #        0: root [0, 10]
    #        1: child of 0 [1, 4], with 3: grandchild [2, 3]
    #        2: child of 0 [3, 6], overlapping child 1 on [3, 4]
    #        4: child of 0 [9, 12], sticking out of its parent
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    # root: children cover [1, 6] and [9, 10]
    assert got == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_self_time_matches_sleep_free_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("lib.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("app.outer", outer_body)
    outer()
    tracer.close_pass()
    (summary,) = tracer.passes
    # outer spans clock ticks 0..5, each inner call one tick (1..2 and 3..4)
    assert summary["incl"]["app.outer"] == 5.0
    assert summary["self"]["app.outer"] == 3.0
    assert summary["self"]["lib.inner"] == 2.0
    assert summary["counters"]["lib.calls"] == 2
    assert summary["spans"] == 3


# -- fail_frac counting -------------------------------------------------------------

def failing_check(out):
    raise CheckFailed("wrong answer")


def raising_run():
    raise RuntimeError("boom")


def test_fail_frac_counts_raises_and_failed_checks():
    ops = [
        Op("good", lambda: 1, lambda out: 7),
        Op("raises", raising_run, lambda out: 1),
        Op("wrong", lambda: 2, failing_check),
        Op("check-crashes", lambda: None, lambda out: out["missing"]),
    ]
    log = run_passes(ops, passes=0)  # a count below one still runs one whole pass
    assert len(log.passes) == 1
    records = log.records
    assert [r.ok for r in records] == [True, False, False, False]
    assert records[0].work == 7
    assert "boom" in records[1].error and "wrong answer" in records[2].error
    assert fail_frac(records) == 0.75
    assert all(r.probe_s > 0.0 for r in records)
    with pytest.raises(ValueError):
        fail_frac([])


def test_rescaling_to_the_reference_speed():
    slow = OpRecord("op", seconds=2.0, ok=True, probe_s=2.0 * PROBE_REF_S)
    assert slow.scaled == pytest.approx(1.0)
    assert OpRecord("op", seconds=2.0, ok=True).scaled == 2.0


# -- reference comparison ------------------------------------------------------------

def test_reference_comparison():
    rows = [[float(i), i * 0.5, math.exp(-i)] for i in range(100)]
    ref = {"t": sample_table(rows)}
    assert len(ref["t"]["index"]) == 32 and ref["t"]["index"][0] == 0 and ref["t"]["index"][-1] == 99
    assert compare_tables({"t": rows}, ref, 1e-12) == []

    i = ref["t"]["index"][5]
    nudged = [list(r) for r in rows]
    nudged[i][2] += 5e-13
    assert compare_tables({"t": nudged}, ref, 1e-12) == []
    nudged[i][2] += 2e-12
    assert compare_tables({"t": nudged}, ref, 1e-12) == [f"t row {i}: {nudged[i]} vs reference {rows[i]}"]
    nudged[i][2] = float("nan")
    assert len(compare_tables({"t": nudged}, ref, 1e-12)) == 1

    assert compare_tables({"t": rows[:-1]}, ref, 1e-12) == ["t: 99 rows, reference has 100"]
    assert compare_tables({}, ref, 1e-12) == ["t: table missing"]
    short = [[1.0, 2.0]]
    assert sample_table(short) == {"rows_total": 1, "index": [0], "rows": [[1.0, 2.0]]}


# -- wrapping the package -----------------------------------------------------------

def test_install_wraps_every_reference_and_uninstall_restores():
    import shrinkdist
    from shrinkdist import cli, finite_dist, montecarlo, selection
    from shrinkdist.estimators import EstimatorKind, TuningPlan

    originals = (finite_dist.finite_sample_dist, montecarlo.finite_sample_dist, selection.atom_weight,
                 finite_dist.norm_cdf, cli.RUNNERS["figure"], finite_dist.MixtureDistribution.cdf)
    tracer = Tracer()
    undo = install(tracer, shrinkdist)
    try:
        assert montecarlo.finite_sample_dist is finite_dist.finite_sample_dist is shrinkdist.finite_sample_dist
        assert montecarlo.finite_sample_dist is not originals[0]
        assert cli.RUNNERS["figure"] is cli.run_figure is not originals[4]
        point = finite_dist.ModelPoint(40, 0.16)
        finite_dist.scaled_risk(EstimatorKind.HARD, point, TuningPlan(0.05))
        tracer.close_pass()
    finally:
        uninstall(undo)
    assert (finite_dist.finite_sample_dist, montecarlo.finite_sample_dist, selection.atom_weight,
            finite_dist.norm_cdf, cli.RUNNERS["figure"], finite_dist.MixtureDistribution.cdf) == originals
    (summary,) = tracer.passes
    counters = summary["counters"]
    assert counters["finite_dist.laws_built"] == 1
    assert counters["normal_kernel.evals"] == counters["normal_kernel.calls"] > 0
    assert {"finite_dist.scaled_risk", "finite_dist.finite_sample_dist", "normal_kernel.norm_cdf",
            "finite_dist.MixtureDistribution.second_moment"} <= set(summary["self"])


def test_nested_law_evaluation_counts_once():
    import shrinkdist
    from shrinkdist import finite_dist
    from shrinkdist.estimators import EstimatorKind, TuningPlan

    dist = finite_dist.finite_sample_dist(EstimatorKind.HARD, finite_dist.ModelPoint(40, 0.16), TuningPlan(0.05))
    tracer = Tracer()
    undo = install(tracer, shrinkdist)
    try:
        dist.cdf_left(0.0)  # calls cdf inside
        dist.cdf(np.array([0.0, 1.0]))
        tracer.close_pass()
    finally:
        uninstall(undo)
    counters = tracer.passes[0]["counters"]
    assert counters["finite_dist.eval_calls"] == 2
    assert counters["finite_dist.eval_points"] == 3
    assert counters["finite_dist.scalar_evals"] == 1
