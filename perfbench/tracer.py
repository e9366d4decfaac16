"""Span tracer that wraps the package's public functions from outside.

While a Tracer is active, every public function of the layer modules is
replaced, in every trotter_shuffle module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent) in memory. Leaving the
context puts every original back. Self time of a span is its duration minus
the durations of its direct children, so the self times of all spans sum to
the durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("linalg", "rows", "products", "tails", "words", "evolution", "experiments")

# as_matrix coerces every matrix the package touches (hundreds of thousands of
# calls per evolution run); a span around it would cost more than the work it
# measures, so its time stays with its caller.
UNTRACED = frozenset({"linalg.as_matrix"})


def _matrices(args, kwargs) -> int:
    batch = np.asarray(args[0] if args else kwargs["batch"])
    return batch.size // (batch.shape[-1] ** 2) if batch.size else 0


def _emitted_bytes(result) -> int:
    path = Path(result)
    return path.stat().st_size + path.with_suffix(".json").stat().st_size


# span name -> (counter name, work measured from (args, kwargs, result)).
COUNTERS = {
    "linalg.op_norms": ("linalg.op_norms.matrices", lambda a, k, r: _matrices(a, k)),
    "linalg.exp_stack": ("linalg.exp_stack.matrices", lambda a, k, r: _matrices(a, k)),
    "tails.block_deviation_samples": (
        "tails.block_deviation_samples.trials",
        lambda a, k, r: int(a[2] if len(a) > 2 else k["trials"])),
    "words.transposition_distance": ("words.letters", lambda a, k, r: int(a[0].length)),
    "experiments.emit": ("experiments.emit.bytes", lambda a, k, r: _emitted_bytes(r)),
}


def layer_functions() -> dict[str, object]:
    """Span name ("layer.function") -> original function, for every traced
    public function defined in a layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"trotter_shuffle.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                out[name] = obj
    return out


class Tracer:
    """Context manager that records spans and counters while it is active.

    spans[i] = (name, start_ns, end_ns, parent index or -1).
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in layer_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "trotter_shuffle" and not modname.startswith("trotter_shuffle."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span in ns: duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def root_total(spans) -> int:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def by_name(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls and self ns."""
    agg: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        agg[name]["calls"] += 1
        agg[name]["self_ns"] += own
    return dict(agg)


def share(spans, parts, fold_linalg: bool = False) -> float:
    """Share of the traced total spent in the own code of `parts`: layers
    ("tails") or functions ("rows.row_stats"). With fold_linalg the self time
    of a linalg kernel counts for its nearest caller outside linalg, so
    "tails" includes the norms tails asks for."""
    own = 0
    for (name, _, _, parent), self_ns in zip(spans, self_times(spans)):
        while fold_linalg and name.startswith("linalg.") and parent >= 0:
            name, parent = spans[parent][0], spans[parent][3]
        if any(name == p or name.startswith(p + ".") for p in parts):
            own += self_ns
    return own / (root_total(spans) or 1)


def unit_of(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def per_layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """The benchmark's per-layer metrics, each per repetition (one
    experiments.run + experiments.emit) unless it is a ratio."""
    spans = tracer.spans
    agg = by_name(spans)

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_ns", 0) / 1e9 / reps

    def calls(name: str) -> int:
        return agg.get(name, {}).get("calls", 0)

    rows_built = sum(e["calls"] for n, e in agg.items() if n.startswith("rows.gen_"))

    def per_row(name: str) -> float:
        return calls(name) / rows_built if rows_built else 0.0

    stacked = tracer.counts["linalg.exp_stack.matrices"]
    fallback = sum(1 for name, _, _, parent in spans
                   if name == "linalg.mat_exp" and parent >= 0
                   and spans[parent][0] == "linalg.exp_stack")
    metrics = {
        "products.partial_products.s": self_s("products.partial_products"),
        "products.reference_path.s": self_s("products.reference_path"),
        "products.reference_path.calls_per_row": per_row("products.reference_path"),
        "products.path_deviation.s": self_s("products.path_deviation"),
        "products.exp_factors.s": self_s("products.exp_factors"),
        "products.exp_factors.calls_per_row": per_row("products.exp_factors"),
        "linalg.exp_stack.s": self_s("linalg.exp_stack"),
        "linalg.exp_stack.batched_share": 1.0 - fallback / stacked if stacked else 0.0,
        "linalg.mat_exp.calls": calls("linalg.mat_exp") / reps,
        "linalg.mat_exp.s": self_s("linalg.mat_exp"),
        "linalg.op_norms.s": self_s("linalg.op_norms"),
        "linalg.op_norms.matrices": tracer.counts["linalg.op_norms.matrices"] / reps,
        "tails.block_deviation_samples.s": self_s("tails.block_deviation_samples"),
        "tails.block_deviation_samples.trials":
            tracer.counts["tails.block_deviation_samples.trials"] / reps,
        "tails.variance_proxy.s": self_s("tails.variance_proxy"),
        "tails.block_bernstein_bound.s": self_s("tails.block_bernstein_bound"),
        "rows.row_stats.s": self_s("rows.row_stats"),
        "rows.row_stats.calls_per_row": per_row("rows.row_stats"),
        "words.transposition_distance.s": self_s("words.transposition_distance"),
        "words.tau.s": self_s("words.tau"),
        "words.random_word.s": self_s("words.random_word"),
        "words.letters": tracer.counts["words.letters"] / reps,
        "rows.gen_riemann.s": self_s("rows.gen_riemann"),
        "rows.gen_spiked.s": self_s("rows.gen_spiked"),
        "evolution.propagate.s": self_s("evolution.propagate"),
        "evolution.riemann_integral.s": self_s("evolution.riemann_integral"),
        "experiments.run.s": self_s("experiments.run"),
        "experiments.emit.s": self_s("experiments.emit"),
        "experiments.emit.bytes": tracer.counts["experiments.emit.bytes"] / reps,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = share(spans, [layer])
    return metrics
