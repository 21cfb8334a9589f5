"""A scan of the declared input domain: every law's cdf against the estimator-map oracle.

    python3 tools/domain_scan.py

The grid is 3 kinds x 2 scalings x n in {1, 40, 1e6, 1e18, 1e30} x eta in {1e-300, 1e-150, 1e-8, 0.05, 1,
1e150, 1e300} x scad a in {2 + 1e-12, 3.7, 1e10} x theta/eta in {0, -+0.5, -+(1 - 1e-12), -+1, -+(1 + 1e-12),
-+2, -+3.7, -+5, -+1e6}: 10,710 laws.  Each law is probed as the tests probe it, at the
`tests/oracles.map_probe_points` of 6 points in standard units: each piece end and its two neighbouring floats,
and 1e-9 either side of the atom, against `map_tails` within `map_cdf_bound` (and `MAP_SF_BOUND` on 1 - cdf).
A law meets the bound at every probe, misses it at one probe at least, or raises a ValueError as it is built.

It prints (meet, miss, raise) by (kind, scaling) and in total, the misses by how many times the bound they
reach, the worst miss, and each raise message with its count and its first cell.  It takes about a minute or
more on one core, and imports the library from `src/` and the oracle from `tests/` of its own checkout.
"""

from __future__ import annotations

import collections
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from oracles import MAP_SF_BOUND, map_cdf_bound, map_probe_points, map_tails  # noqa: E402

from shrinkdist.estimators import EstimatorKind, TuningPlan  # noqa: E402
from shrinkdist.finite_dist import LAWS, ModelPoint  # noqa: E402

STEPS = (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0)  # probe points in standard units
RATIOS = (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 3.7, 5.0, 1e6)  # |theta|/eta
GRID = {"n": (1, 40, 10**6, 10**18, 10**30), "eta": (1e-300, 1e-150, 1e-8, 0.05, 1.0, 1e150, 1e300),
        "a": (2.0 + 1e-12, 3.7, 1e10), "ratio": (0.0, *(r * sign for r in RATIOS[1:] for sign in (-1.0, 1.0)))}


def cells():
    """The grid's (kind, scaling, n, theta, eta, a) cells, in a fixed order."""
    for kind in EstimatorKind:
        for scaling in LAWS:
            for n in GRID["n"]:
                for eta in GRID["eta"]:
                    for a in GRID["a"]:
                        for ratio in GRID["ratio"]:
                            yield kind, scaling, n, ratio * eta, eta, a


def probe(kind, scaling, n, theta, eta, a):
    """The ValueError's message where the law does not build; else the largest multiple of the bound its cdf
    reaches at any probe (at most 1 where it meets the bound everywhere)."""
    try:
        dist = LAWS[scaling](kind, ModelPoint(n, theta), TuningPlan(eta, a))
    except ValueError as err:
        return str(err)
    with np.errstate(over="ignore", invalid="ignore"):  # unit and the atom's neighbours may leave the floats
        xs = map_probe_points(dist, n, eta, scaling, STEPS)
    worst = 0.0
    for x, got in zip(xs.tolist(), dist.cdf(xs).tolist()):
        want, want_sf = map_tails(kind, n, theta, eta, a, x, scaling)
        worst = max(worst, float(abs(got - want) / map_cdf_bound(want)),
                    float(abs(1.0 - got - want_sf) / MAP_SF_BOUND))
    return worst


def scan(grid) -> dict:
    """Counts by (kind, scaling, status), the misses by size, the worst miss and the raises by message.

    A raise's class is its message with any mass total left out; its cell is the first in grid order.
    """
    counts, sizes = collections.Counter(), collections.Counter()
    worst, raises = (0.0, None), {}
    for cell in grid:
        kind, scaling = cell[:2]
        result = probe(*cell)
        if isinstance(result, str):  # one class per message, whatever mass total it reads
            counts[kind.value, scaling, "raise"] += 1
            raises.setdefault(re.sub(r"mass \S+ is not", "mass ... is not", result), [0, cell])[0] += 1
        elif result <= 1.0:
            counts[kind.value, scaling, "meet"] += 1
        else:
            counts[kind.value, scaling, "miss"] += 1
            sizes["<= 4x" if result <= 4.0 else "<= 1000x" if result <= 1000.0 else "> 1000x"] += 1
            worst = max(worst, (result, cell), key=lambda w: w[0])
    return {"counts": counts, "miss_sizes": sizes, "worst_miss": worst, "raises": raises}


def _cell(cell) -> str:
    kind, scaling, n, theta, eta, a = cell
    return f"{kind.value} {scaling} n={n:g} theta={theta!r} eta={eta!r} a={a!r}"


def report(result) -> str:
    counts, lines = result["counts"], []
    statuses = ("meet", "miss", "raise")
    for kind in EstimatorKind:
        for scaling in LAWS:
            row = " ".join(f"{counts[kind.value, scaling, s]:6}" for s in statuses)
            lines.append(f"{kind.value:5} {scaling:7} {row}")
    totals = [sum(v for k, v in counts.items() if k[2] == s) for s in statuses]
    lines.append(f"total (meet, miss, raise) = ({', '.join(map(str, totals))})")
    lines.append("misses by multiple of the bound: " + ", ".join(f"{k} {result['miss_sizes'][k]}"
                                                                 for k in ("<= 4x", "<= 1000x", "> 1000x")))
    factor, cell = result["worst_miss"]
    if cell is not None:
        lines.append(f"worst miss: {factor:.3g}x the bound at {_cell(cell)}")
    for message, (count, cell) in sorted(result["raises"].items(), key=lambda r: -r[1][0]):
        lines.append(f"raise {count}: {message} (first at {_cell(cell)})")
    return "\n".join(lines)


def main() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a law that warns is a finding, not a count
        print(report(scan(cells())))


if __name__ == "__main__":
    main()
