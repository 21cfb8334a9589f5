"""In-memory spans and counters around shrinkdist's public API, per layer.

`install` replaces every public function and public class method of each
layer module, at every place a shrinkdist module (or the package) refers to
it, with a wrapper that records a span (name, start, end, parent) and
bumps counters.  `ndtri` is wrapped as layer L0 where `montecarlo` and
`impossibility` import it.  Self time is computed afterwards from the spans:
a span's duration minus the part of it that its child spans cover.

Two public names are deliberately left unwrapped:
  * `normal_kernel.ExtReal`, a value type whose methods run inside every
    comparison of extended reals; it is not a kernel evaluation;
  * `MixtureDistribution.atom_mass_at`, the per-point scalar lookup that
    `ks_distance` calls once per distinct sample value (1e6 per op on
    `mc_agreement`); a span per call would swamp the run, and its time stays
    in the caller's self time, `montecarlo.ks_self_s`, where the per-value
    Python loop lives.  `montecarlo.ks_points` counts those calls.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("normal_kernel", "estimators", "finite_dist", "selection", "limits",
          "montecarlo", "impossibility", "report", "cli")
UNWRAPPED = {"normal_kernel.ExtReal", "finite_dist.MixtureDistribution.atom_mass_at"}
NDTRI_SITES = ("montecarlo", "impossibility")
LAW_EVALS = ("cdf", "cdf_left", "density_ac")
LAW_SCALAR_EVALS = ("second_moment", "total_mass")
LAW_EVAL_SPANS = {f"finite_dist.MixtureDistribution.{m}" for m in LAW_EVALS + LAW_SCALAR_EVALS}


def self_times(start, end, parent) -> list:
    """Per-span duration minus the union of its children's intervals.

    `parent[i]` is the index of span i's parent, or -1 for a root.  Child
    intervals are clipped to the parent's interval and overlaps between
    children are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Spans and counters of one pass, kept in memory.

    Spans are stored column-wise in typed arrays.  `close_pass` turns the
    pass's spans into per-name self and inclusive times, keeps that summary
    and the counters, and clears the spans (keeping the last pass's spans
    for `write_spans`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack = [-1]
        self.counters = Counter()
        self.law_keys = set()
        self.passes = []
        self.last_spans = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped to record a span named `name`; `count(tracer, args, kwargs,
        out)` runs after the span closes."""
        nid = self.name_id(name)
        layer_calls = name.split(".", 1)[0] + ".calls"
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self.stack
        counters, clock = self.counters, self.clock

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            counters[layer_calls] += 1
            if count is not None:
                count(self, args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def current(self) -> str:
        """Name of the innermost open span ('' at the root)."""
        i = self.stack[-1]
        return self.names[self.name[i]] if i >= 0 else ""

    def close_pass(self) -> None:
        selfs = self_times(self.start, self.end, self.parent)
        self_by, incl_by = Counter(), Counter()
        for i, s in enumerate(selfs):
            name = self.names[self.name[i]]
            self_by[name] += s
            incl_by[name] += self.end[i] - self.start[i]
        counters = Counter(self.counters)
        counters["finite_dist.distinct_laws"] = len(self.law_keys)
        self.passes.append({"self": self_by, "incl": incl_by, "counters": counters,
                            "spans": len(selfs)})
        self.last_spans = (np.frombuffer(self.start, dtype=float).copy(),
                           np.frombuffer(self.end, dtype=float).copy(),
                           np.frombuffer(self.parent, dtype=np.int64).copy(),
                           np.frombuffer(self.name, dtype=np.int64).copy())
        for arr in (self.start, self.end, self.parent, self.name):
            del arr[:]
        self.counters.clear()
        self.law_keys.clear()

    def write_spans(self, path) -> None:
        """Write the last closed pass's spans as columns of an .npz file."""
        start, end, parent, name = self.last_spans
        np.savez(path, start=start, end=end, parent=parent, name=name,
                 names=np.asarray(self.names))


# -- counters ---------------------------------------------------------------

def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _size(x) -> int:
    return getattr(x, "size", 1)  # Python scalars and ExtReal count as one point


def _is_scalar(x) -> bool:
    return getattr(x, "ndim", 0) == 0


def _count_kernel(tr, args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    tr.counters["normal_kernel.evals"] += 1
    tr.counters["normal_kernel.points"] += _size(x)
    tr.counters["normal_kernel.scalar_evals"] += _is_scalar(x)


def _count_kernel_scalar(tr, args, kwargs, out):
    tr.counters["normal_kernel.evals"] += 1
    tr.counters["normal_kernel.points"] += 1
    tr.counters["normal_kernel.scalar_evals"] += 1


def _ndtri_counter(site: str):
    def count(tr, args, kwargs, out):
        size = _size(out)
        tr.counters["normal_kernel.draws"] += size
        tr.counters[f"{site}.draws"] += size
        if tr.current() == "impossibility.MOutOfNBootstrap.estimate_cdf":
            tr.counters["impossibility.bootstrap_draws"] += size
    return count


def _count_estimate(tr, args, kwargs, out):
    tr.counters["estimators.points"] += _size(_arg(args, kwargs, 1, "ybar"))


def _count_law_built(tr, args, kwargs, out):
    kind, point, tuning = (_arg(args, kwargs, i, k) for i, k in enumerate(("kind", "point", "tuning")))
    tr.counters["finite_dist.laws_built"] += 1
    tr.law_keys.add((kind, point.n, point.theta, tuning.eta, tuning.scad_a))


def _count_law_eval(tr, args, kwargs, out):
    # Only the outermost evaluation counts: cdf_left calls cdf, and inlining
    # that call must not read as less work.  The span is closed here, so
    # current() is the caller.
    if tr.current() in LAW_EVAL_SPANS:
        return
    x = _arg(args, kwargs, 1, "x")
    tr.counters["finite_dist.eval_calls"] += 1
    tr.counters["finite_dist.eval_points"] += _size(x)
    tr.counters["finite_dist.scalar_evals"] += _is_scalar(x)


def _count_law_scalar_eval(tr, args, kwargs, out):
    if tr.current() in LAW_EVAL_SPANS:
        return
    tr.counters["finite_dist.eval_calls"] += 1
    tr.counters["finite_dist.eval_points"] += 1
    tr.counters["finite_dist.scalar_evals"] += 1


def _count_ks(tr, args, kwargs, out):
    values = _arg(args, kwargs, 0, "emp").values
    tr.counters["montecarlo.ks_points"] += int(np.count_nonzero(np.diff(values))) + 1


def _count_bootstrap(tr, args, kwargs, out):
    tr.counters["impossibility.bootstrap_estimates"] += _size(out)


def _count_write_csv(tr, args, kwargs, out):
    tr.counters["report.rows"] += len(args[0].rows)
    tr.counters["report.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _counter(key: str):
    def count(tr, args, kwargs, out):
        tr.counters[key] += 1
    return count


COUNTERS = {
    "normal_kernel.norm_cdf": _count_kernel,
    "normal_kernel.norm_pdf": _count_kernel,
    "normal_kernel.norm_quantile": _count_kernel_scalar,
    "normal_kernel.gaussian_tv": _count_kernel_scalar,
    "estimators.estimate": _count_estimate,
    "finite_dist.finite_sample_dist": _count_law_built,
    **{f"finite_dist.MixtureDistribution.{m}": _count_law_eval for m in LAW_EVALS},
    **{f"finite_dist.MixtureDistribution.{m}": _count_law_scalar_eval for m in LAW_SCALAR_EVALS},
    "montecarlo.ks_distance": _count_ks,
    "impossibility.MOutOfNBootstrap.estimate_cdf": _count_bootstrap,
    **{f"limits.{f}": _counter("limits.laws_built")
       for f in ("conservative_limit", "consistent_limit", "rescaled_limit")},
    "limits.weak_convergence_check": _counter("limits.check_calls"),
    "report.ExperimentReport.write_csv": _count_write_csv,
    "cli.main": _counter("cli.commands"),
}


# -- installation -----------------------------------------------------------

def _public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:  # cli: every public name the module itself defines
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
    return names


def _targets(package):
    """(span name, owner, attribute, original) for every public callable."""
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for name in _public_names(module):
            obj = getattr(module, name)
            qual = f"{layer}.{name}"
            if qual in UNWRAPPED:
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield qual, module, name, obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") or f"{qual}.{attr}" in UNWRAPPED:
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, classmethod):
                        yield f"{qual}.{attr}", obj, attr, raw


def install(tracer: Tracer, package) -> list:
    """Wrap the package's public API in `tracer`; returns the undo list for `uninstall`."""
    modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
    undo = []

    def patch_references(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli.RUNNERS
                    for key, item in value.items():
                        if item is original:
                            undo.append((value, key, item))
                            value[key] = wrapper

    for qual, owner, attr, raw in _targets(package):
        count = COUNTERS.get(qual)
        if isinstance(raw, classmethod):
            wrapper = classmethod(tracer.wrap(qual, raw.__func__, count))
        else:
            wrapper = tracer.wrap(qual, raw, count)
        if inspect.isclass(owner):
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
        else:
            patch_references(raw, wrapper)
    for site in NDTRI_SITES:
        module = sys.modules[f"{package.__name__}.{site}"]
        undo.append((module, "ndtri", module.ndtri))
        module.ndtri = tracer.wrap("normal_kernel.ndtri", module.ndtri, _ndtri_counter(site))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

def _layer_self(p, layer):
    return sum(v for k, v in p["self"].items() if k.split(".", 1)[0] == layer)


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(p: dict) -> dict:
    """Per-layer metric values of one traced pass."""
    c = p["counters"]
    slf, incl = p["self"], p["incl"]
    kernel_evals = c["normal_kernel.evals"]
    return {
        "montecarlo.ks_self_s": slf["montecarlo.ks_distance"],
        "montecarlo.ks_points": c["montecarlo.ks_points"],
        "montecarlo.sample_s": incl["montecarlo.sample_ybar"],
        "montecarlo.simulate_self_s": slf["montecarlo.simulate_estimates"],
        "montecarlo.draws": c["montecarlo.draws"],
        "impossibility.estimate_cdf_self_s": sum(v for k, v in slf.items()
                                                 if k.startswith("impossibility.") and k.endswith(".estimate_cdf")),
        "impossibility.harness_self_s": slf["impossibility.estimator_worst_case"],
        "impossibility.bound_s": incl["impossibility.minimax_lower_bound"],
        "impossibility.draws_per_estimate": _ratio(c["impossibility.bootstrap_draws"],
                                                   c["impossibility.bootstrap_estimates"]),
        "normal_kernel.calls": c["normal_kernel.calls"],
        "normal_kernel.points": c["normal_kernel.points"],
        "normal_kernel.draws": c["normal_kernel.draws"],
        "normal_kernel.scalar_frac": _ratio(c["normal_kernel.scalar_evals"], kernel_evals),
        "normal_kernel.self_s": _layer_self(p, "normal_kernel"),
        "finite_dist.laws_built": c["finite_dist.laws_built"],
        "finite_dist.distinct_law_frac": _ratio(c["finite_dist.distinct_laws"], c["finite_dist.laws_built"]),
        "finite_dist.eval_calls": c["finite_dist.eval_calls"],
        "finite_dist.eval_points": c["finite_dist.eval_points"],
        "finite_dist.scalar_frac": _ratio(c["finite_dist.scalar_evals"], c["finite_dist.eval_calls"]),
        "finite_dist.self_s": _layer_self(p, "finite_dist"),
        "estimators.calls": c["estimators.calls"],
        "estimators.points": c["estimators.points"],
        "estimators.self_s": _layer_self(p, "estimators"),
        "selection.calls": c["selection.calls"],
        "selection.self_s": _layer_self(p, "selection"),
        "limits.laws_built": c["limits.laws_built"],
        "limits.check_calls": c["limits.check_calls"],
        "limits.self_s": _layer_self(p, "limits"),
        "report.rows": c["report.rows"],
        "report.bytes": c["report.bytes"],
        "report.write_s": incl["report.ExperimentReport.write_csv"],
        "cli.commands": c["cli.commands"],
        "cli.self_s": _layer_self(p, "cli"),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Median over the traced passes of each per-layer metric."""
    per_pass = [pass_metrics(p) for p in tracer.passes]
    return {k: float(statistics.median(m[k] for m in per_pass)) for k in per_pass[0]}
