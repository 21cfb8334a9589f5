"""Op runner and statistics shared by every workload.

An op is one unit of user-visible work: a call sequence into shrinkdist
(timed) followed by a correctness check (untimed).  A pass runs every op of
a workload once, in order; a run makes a fixed number of passes.  Nothing here imports shrinkdist, so the rules can be tested alone.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from scipy import special

# Machine-speed probe.  The host's CPU speed swings by up to 2x over seconds
# to minutes (measured on a 2-vCPU KVM guest, 2.1 GHz Xeon: pass times of
# one workload ranged 0.51-1.29 s with CPU time tracking wall time), which
# no amount of repetition within a run averages out.  A fixed kernel of
# interpreter work and vectorised special functions, sharing no code with
# shrinkdist, runs between ops; each op's time is rescaled by
# PROBE_REF_S / probe time (see run_passes), so times read as seconds on a
# machine where the probe takes PROBE_REF_S.  Raw wall times are kept next
# to the rescaled ones.
PROBE_REF_S = 0.003
PROBE_SPAN = 3
_PROBE_X = np.linspace(-4.0, 4.0, 20_000)


def probe() -> float:
    """Wall time of the fixed machine-speed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += math.erfc(i * 1e-3)
    for _ in range(3):
        np.sort(special.ndtri(special.ndtr(_PROBE_X)))
    return time.perf_counter() - t0


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


@dataclass
class Op:
    """`run` calls the program and returns its output; `check` validates that
    output, raises `CheckFailed` when it is wrong, and returns the op's work
    units (draws checked, replications judged or output rows)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    work: int = 0
    error: Optional[str] = None
    probe_s: float = PROBE_REF_S

    @property
    def scaled(self) -> float:
        """`seconds` rescaled to the reference machine speed."""
        return self.seconds * PROBE_REF_S / self.probe_s


def run_op(op: Op) -> OpRecord:
    """Time `op.run`, then check its output; any exception marks the op failed."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # a failing op is counted, not fatal to the run
        return OpRecord(op.name, time.perf_counter() - t0, False, error=traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    try:
        work = int(op.check(out))
    except Exception as exc:  # CheckFailed, or a crash inside the check itself
        return OpRecord(op.name, seconds, False, error=f"{type(exc).__name__}: {exc}")
    return OpRecord(op.name, seconds, True, work=work)


@dataclass
class PassLog:
    """Records of every op run, grouped by pass."""

    passes: list

    @property
    def records(self) -> list:
        return [r for p in self.passes for r in p]

    def pass_seconds(self, scaled: bool = True) -> list:
        """Program time per pass: the sum of its op latencies, checks excluded."""
        return [sum(r.scaled if scaled else r.seconds for r in p) for p in self.passes]


def run_passes(ops, passes: int, after_pass=None) -> PassLog:
    """Run `passes` whole passes over `ops` (at least one).

    The count is fixed by the caller, never by measured wall time, so every
    run of a workload has the same samples behind its percentiles and
    medians however fast the program or the machine happens to be.
    The machine-speed probe runs between consecutive ops; an op's probe time
    is the median of the PROBE_SPAN probes on each side of it, which smooths
    the probe's own jitter while following the slower swings of the host.
    """
    log = []
    probes = [probe()]
    for _ in range(max(1, passes)):
        records = []
        for op in ops:
            records.append(run_op(op))
            probes.append(probe())
        log.append(records)
        if after_pass is not None:
            after_pass()
    for i, record in enumerate(r for p in log for r in p):
        record.probe_s = statistics.median(probes[max(0, i - PROBE_SPAN + 1):i + PROBE_SPAN + 1])
    return PassLog(log)


def fail_frac(records) -> float:
    """Ops that raised or failed their check, over ops attempted."""
    if not records:
        raise ValueError("no ops were attempted")
    return sum(not r.ok for r in records) / len(records)


def tail_percentile(samples, min_beyond: int = 10):
    """(percentile, value) of the highest integer percentile with at least
    `min_beyond` samples ranked beyond it, by the nearest-rank rule.

    The nearest-rank p-th percentile of N sorted samples is the k-th smallest
    with k = ceil(p*N/100), which leaves N - k samples beyond it.  The search
    runs from p = 99 down to p = 50; with fewer than 2*min_beyond samples no
    percentile from 50 up qualifies and the median (p = 50) is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        k = -(-p * n // 100)
        if n - k >= min_beyond:
            return p, xs[k - 1]
    return 50, xs[-(-n // 2) - 1]


REFERENCE_ROWS = 32


def sample_table(rows, keep: int = REFERENCE_ROWS) -> dict:
    """Row count plus `keep` evenly spaced rows (all rows of a short table)."""
    n = len(rows)
    if n <= keep:
        index = list(range(n))
    else:
        index = sorted({round(i * (n - 1) / (keep - 1)) for i in range(keep)})
    return {"rows_total": n, "index": index, "rows": [[float(v) for v in rows[i]] for i in index]}


def compare_tables(got: dict, ref: dict, tol: float) -> list:
    """Problems found comparing output tables with their stored samples.

    `got` maps a table name to its rows; `ref` maps a table name to the
    output of `sample_table`.  Every referenced table must be present with
    the same row count, and each sampled value must lie within `tol`
    (absolute) of the stored one.
    """
    problems = []
    for name, sample in sorted(ref.items()):
        rows = got.get(name)
        if rows is None:
            problems.append(f"{name}: table missing")
            continue
        if len(rows) != sample["rows_total"]:
            problems.append(f"{name}: {len(rows)} rows, reference has {sample['rows_total']}")
            continue
        for i, want in zip(sample["index"], sample["rows"]):
            have = [float(v) for v in rows[i]]
            if len(have) != len(want) or any(not abs(h - w) <= tol for h, w in zip(have, want)):
                problems.append(f"{name} row {i}: {have} vs reference {want}")
                break
    return problems
