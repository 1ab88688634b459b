"""Span tracing of the hwnas layers from outside the package.

A :class:`Tracer` replaces named functions, in every loaded ``hwnas`` module
that binds them, with timing wrappers; :func:`traced` restores the originals
on exit. Each call records a span ``(id, parent id, name, start, end)`` in
memory. Calls in the benchmark run one after another in one thread, so a
span's children never overlap and self time is its duration minus the sum of
its children's durations.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer -> public functions traced in that layer. The span of a function is
# named ``<layer>.<function>``; ``search.oracle`` stands for the ``evaluate``
# method of both synthetic oracles.
LAYER_FUNCTIONS = {
    "controller": ("sample", "reinforce_step", "entropy", "reward", "most_likely"),
    "search": ("run_search", "arch_hash", "latency_of", "resolve_budget",
               "median_madds", "exhaustive_best", "write_log"),
    "space": ("decode", "random_sample", "build_space"),
    "analysis": ("network_units", "network_cost", "net_feature_counts", "space_buckets"),
    "cost": ("simulate_latency", "generate_benchmarks", "fit", "predict", "r2",
             "save_benchmarks", "load_benchmarks", "load_device"),
    "arch": ("serialize", "deserialize", "validate", "derive_shapes", "save_file",
             "load_file"),
    "cli": ("main", "cmd_bench_generate", "cmd_cost_fit"),
}
ORACLE_SPAN = "search.oracle"
ORACLE_CLASSES = ("LinearFeatureOracle", "CapacityOracle")

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
) + (ORACLE_SPAN,)


@dataclass
class Tracer:
    """In-memory span recorder; spans are ``(id, parent, name, start, end)``.

    A span is stored when its call returns, so children precede parents.
    """

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [-1])
    _ids: itertools.count = field(default_factory=itertools.count)

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, name, start, clock()))
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, tuple[int, float]] = {}
        for sid, _, name, start, end in self.spans:
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_time.get(sid, 0.0))
        return out

    def coverage(self, root_prefix: str) -> float:
        """Share of root-span time covered by their direct child spans."""
        root_ids = {s[0] for s in self.spans if s[2].startswith(root_prefix)}
        total = sum(s[4] - s[3] for s in self.spans if s[0] in root_ids)
        covered = sum(s[4] - s[3] for s in self.spans if s[1] in root_ids)
        return covered / total if total > 0 else 0.0

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def _hwnas_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "hwnas" or n.startswith("hwnas.")) and m is not None]


def _patch_targets():
    """(owner, attribute, span name, original) for every name to replace."""
    modules = _hwnas_modules()
    by_name = {m.__name__: m for m in modules}
    targets = []
    for layer, fns in LAYER_FUNCTIONS.items():
        home = by_name[f"hwnas.{layer}"]
        for fn in fns:
            original = getattr(home, fn)
            for mod in modules:
                if getattr(mod, fn, None) is original:
                    targets.append((mod, fn, f"{layer}.{fn}", original))
    search = by_name["hwnas.search"]
    for cls_name in ORACLE_CLASSES:
        cls = getattr(search, cls_name)
        targets.append((cls, "evaluate", ORACLE_SPAN, cls.__dict__["evaluate"]))
    return targets


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers; restore every original on exit."""
    targets = _patch_targets()
    try:
        for owner, attr, name, original in targets:
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, _, original in targets:
            setattr(owner, attr, original)
