"""Repeat the benchmark over seeds and record one point of the performance trajectory.

    python3 bench/trajectory.py --label seed --runs 10

For each workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed (1..runs) and `run.py --trace 1` once at run.py's default seed (the
seed of the stored-reference check of closed_form_tables), then writes
bench/results/BENCH_<label>.json with each end-to-end metric's median, quartiles, spread (interquartile range
over the median) and values, the same for the timings before rescaling to
the reference machine speed, the per-layer metrics of the traced run,
op counts and the environment block.  It prints each spread next to a third
of the metric's bound, the steadiness target.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RAW = ("run_s", "op_p50_ms", "op_tail_ms", "work_per_s")
ROOT = BENCH.parent


def run_once(workload: str, seconds: int, trace: int, seed=None) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(range(1, args.runs + 1))
        runs = [run_once(workload, seconds, 0, seed) for seed in seeds]
        out.setdefault("environment", runs[0][0]["environment"])
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "correct": all(r["correct"] for _, r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for _, r in runs]) for name in bounds},
            "details": [d["details"] for d, _ in runs],
        }
        raw = {name: summarize([d["details"]["raw"][name] for d, _ in runs]) for name in RAW}
        entry["raw_wall_time"] = raw
        detail, result = run_once(workload, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["trace_details"] = detail["details"]
        out["workloads"][workload] = entry
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed")
        for name, s in entry["end_to_end"].items():
            target = bounds[name] / 3
            flag = "" if s["spread"] is not None and s["spread"] < target else "  <-- above bound/3"
            unscaled = f"  (raw wall time: spread {raw[name]['spread']:.4f})" if name in raw else ""
            print(f"  {name:14s} median {s['median']:12.6g}  spread {s['spread']:.4f}  "
                  f"bound/3 {target:.4f}{flag}{unscaled}")
    path = BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
