"""shrinkdist benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload mc_agreement --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  With `--trace 0` the run reports the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it runs half its passes untraced
and half with every layer's public API wrapped, and reports the per-layer
metrics plus the tracing overhead.  The number of passes follows from
`--seconds` alone (see workloads.PASS_S), never from measured time.  Times are rescaled to a reference
machine speed by the probe in harness.py; the details line also carries the
raw wall times.  Every op's output is checked.  The last
line of standard output is the result object; the line before it carries
the environment block and run details.  Work stays in one process and one
thread.
"""

import os

THREAD_VARS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_VARS)  # before numpy loads a BLAS or OpenMP runtime

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import PROBE_REF_S, Op, fail_frac, probe, run_passes, tail_percentile  # noqa: E402
from tracing import Tracer, install, layer_metrics, uninstall  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_REPEATS = 5
BUILD_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the measured passes; fixes their number (see workloads.PASS_S)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import_seconds() -> tuple:
    """Median wall time, rescaled and raw, of a new interpreter that imports shrinkdist.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import shrinkdist.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)  # writes bytecode caches
    raw, scaled = [], []
    before = probe()
    for _ in range(IMPORT_REPEATS):
        # no timeout here: with one, the wait polls and rounds the time up to 50 ms steps
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        after = probe()
        scaled.append(raw[-1] * PROBE_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "thread_vars": THREAD_VARS,
    }


def _timings(log, scaled: bool) -> dict:
    latencies = [r.scaled if scaled else r.seconds for r in log.records]
    pass_s = log.pass_seconds(scaled)
    pct, tail = tail_percentile(latencies)
    return {
        "run_s": statistics.median(pass_s),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "work_per_s": sum(r.work for r in log.records) / sum(pass_s),
        "op_tail_percentile": pct,
    }


def _end_to_end(log, setup_s: float) -> tuple:
    metrics = _timings(log, scaled=True)
    pct = metrics.pop("op_tail_percentile")
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {"op_tail_percentile": pct, "op_samples": len(log.records),
               "probe_median_s": statistics.median(r.probe_s for r in log.records),
               "raw": _timings(log, scaled=False)}
    return metrics, details


def _per_layer(ops, passes: int, workload: str, shrinkdist) -> tuple:
    half = -(-passes // 2)
    untraced = run_passes(ops, half)
    tracer = Tracer()
    undo = install(tracer, shrinkdist)
    try:
        traced_ops = [Op(op.name, tracer.wrap("bench.op", op.run), op.check) for op in ops]
        traced = run_passes(traced_ops, half, after_pass=tracer.close_pass)
    finally:
        uninstall(undo)
    untraced_s = statistics.median(untraced.pass_seconds())
    traced_s = statistics.median(traced.pass_seconds())
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    spans_path = OUT / f"spans-{workload}.npz"
    tracer.write_spans(spans_path)
    details = {"untraced_run_s": untraced_s, "traced_run_s": traced_s, "untraced_passes": len(untraced.passes),
               "spans_per_pass": [p["spans"] for p in tracer.passes],
               "spans_file": str(spans_path.relative_to(ROOT))}
    return untraced.records + traced.records, metrics, details, len(traced.passes)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads_named = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads_named:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads_named}", file=sys.stderr)
        return 2
    if not (SRC / "shrinkdist" / "__init__.py").is_file():
        print(f"error: no shrinkdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shrinkdist
    from workloads import DEFAULT_SEED, PASS_S, WORKLOADS

    if Path(shrinkdist.__file__).resolve().parent != SRC / "shrinkdist":
        print(f"error: imported shrinkdist from {shrinkdist.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    passes = max(1, int(args.seconds / PASS_S[args.workload]))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        import_s, raw_import_s = _fresh_import_seconds()
        build_times = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            ops = WORKLOADS[args.workload](seed, workdir)
            build_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_times)
        details = {"import_s": import_s, "raw_import_s": raw_import_s, "build_s": statistics.median(build_times)}

        if args.trace:
            records, metrics, extra, passes = _per_layer(ops, passes, args.workload, shrinkdist)
            wanted = spec["per_layer"]
        else:
            log = run_passes(ops, passes)
            records = log.records
            metrics, extra = _end_to_end(log, setup_s)
            wanted = spec["end_to_end"]
        details.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{r.name}: {r.error}" for r in records if not r.ok]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    details.update(passes=passes, fail_frac=fail_frac(records), failures=failures[:5])
    print(json.dumps({"workload": args.workload, "trace": args.trace, "environment": _environment(seed),
                      "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
