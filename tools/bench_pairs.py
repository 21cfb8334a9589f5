"""Paired benchmark runs of two checkouts, with a gain and a regression verdict per end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload mc_agreement --workload cdf_estimation --pairs 10 --seed 1

Each pair runs `bench/run.py --workload W --seed S --seconds T --trace 0` once in each checkout, in its own
directory, for each workload given (every workload of the change's `BENCHMARK.json` when none is), the
parent first in even pairs and the change first in odd ones, so a drift of the host's speed weighs on both
sides alike.  Per workload, and per end-to-end metric of `BENCHMARK.json`, it prints each side's median and
quartiles, the number of pairs the change wins (a tie counts for neither side), a gain verdict and a
regression verdict (see `verdict`), then each side's raw values as one JSON line: a regression on any
workload counts.  A run that exits non-zero ends the series: the tables cover the pairs completed before
it, and the exit status is 1 after a message naming the run and the end of its stderr.  Standard library
only; it imports nothing from either checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

STDERR_TAIL = 20  # lines of a failed run's stderr that are printed


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of values, by linear interpolation between order statistics."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better: str, bound: float, more_failures: bool = False) -> dict:
    """The change's paired record against the parent's on one metric.

    parent[i] and change[i] come from pair i; `better` is "lower" or "higher", and `bound` the relative amount
    by which the metric may worsen; `more_failures` says the change failed more operations than the parent.
      wins        pairs in which the change is strictly better; a tie counts for neither side;
      gain        the change wins at least 9 of 10 pairs, and its median is better than the parent's by more
                  than the parent's interquartile range, and it failed no more operations than the parent;
      worse_by    how much worse the change's median is, relative to the parent's (negative: better);
      regression  "worse" where worse_by exceeds the bound, else "unresolved" where either side's
                  interquartile range exceeds the bound relative to its median, unless every run of the
                  change is better than every run of the parent, else "ok".
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need one value each per pair, and at least one pair")
    sign = {"lower": -1.0, "higher": 1.0}[better]  # sign * (change - parent) > 0: the change is better
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    (p1, p_med, p3), (c1, c_med, c3) = quartiles(parent), quartiles(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (c_med - p_med) > p3 - p1 and not more_failures
    worse = -sign * (c_med - p_med)
    worse_by = worse / abs(p_med) if p_med else math.copysign(math.inf, worse) if worse else 0.0
    wide = any(q3 - q1 > bound * abs(med) for q1, med, q3 in ((p1, p_med, p3), (c1, c_med, c3)))
    apart = all(sign * (c - p) > 0.0 for p in parent for c in change)  # every change run beats every parent run
    regression = "worse" if worse > bound * abs(p_med) else "unresolved" if wide and not apart else "ok"
    return {"parent": (p1, p_med, p3), "change": (c1, c_med, c3), "wins": wins, "pairs": len(parent),
            "gain": gain, "worse_by": worse_by, "regression": regression}


class RunFailed(Exception):
    """A benchmark run that exited non-zero; the message gives its exit status and the tail of its stderr."""


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result object (the last line of standard output) of one untraced benchmark run in checkout."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"exited with status {done.returncode}; the end of its stderr:\n{tail}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(args, workloads) -> tuple:
    """({workload: {side: [result per pair]}}, None), or the pairs run so far and a message naming the failed run.

    Pair i runs every workload once on each side, the parent first in even pairs; a pair counts only once
    both of its runs are in.
    """
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        for w in workloads:
            pair = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                try:
                    pair[side] = run_once(getattr(args, side), w, args.seconds, args.seed)
                except RunFailed as err:
                    return runs, f"pair {i + 1}: the {side} run of {w} {err}"
            for side, result in pair.items():
                runs[w][side].append(result)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    return runs, None


def report(workload: str, runs: dict, metrics: list, args) -> None:
    """Print the verdict table of one workload's pairs, then each side's raw values as one JSON line."""
    print(f"== {workload}: {len(runs['parent'])} pairs")
    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    for side, results in runs.items():
        print(f"{side}: {failed[side]} of {sum(r['attempted'] for r in results)} ops failed, "
              f"correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
    if failed["change"] > failed["parent"]:
        print("the change failed more ops than the parent: no gain counts")
    print(f"{'metric':12s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'wins':>6s} {'gain':>5s} {'worse_by':>9s} regression")
    values = {}
    for m in metrics:
        name = m["name"]
        values[name] = {side: [r["metrics"][name]["value"] for r in results] for side, results in runs.items()}
        v = verdict(values[name]["parent"], values[name]["change"], m["better"], m["bound"],
                    failed["change"] > failed["parent"])
        parent, change = (f"{med:.4g} [{q1:.4g}, {q3:.4g}]" for q1, med, q3 in (v["parent"], v["change"]))
        print(f"{name:12s} {parent:>30s} {change:>30s} {v['wins']:>3d}/{v['pairs']:<2d} "
              f"{'yes' if v['gain'] else 'no':>5s} {v['worse_by']:>+9.1%} {v['regression']}")
    print(json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds, "values": values}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", help="repeatable; every workload of BENCHMARK.json if none")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs, failure = run_pairs(args, workloads)
    for w in workloads:
        if runs[w]["parent"]:
            report(w, runs[w], benchmark["end_to_end"], args)
    if failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
