#!/usr/bin/env python3
"""Benchmark of the hwnas package: one workload per run, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload search_toy2 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

Each run starts fresh child processes one after another, each of which sets
up, runs one unit of the workload and reports. Children are started until
their measured work reaches ``--seconds`` of wall-clock time and the minimum
number of units has run. Every metric is a median over children or
operations (the latency-model quality is a mean over its data sets), and
timed metrics are in nominal seconds (see ``speed.py``). ``--trace 1``
alternates traced and untraced children and reports per-layer metrics
instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, and the full result is written under ``bench/out``.
See ``bench/README.md`` for the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPAN_NAMES
from workloads import WORKLOADS, run_unit, unit_seeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# BLAS and OpenMP pools are pinned in every child, before numpy is imported.
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MIN_CHILDREN = 3          # set-up time is a median over at least this many
START_LIMIT_S = 120.0     # no child is started after this much wall time
EXIT_LIMIT_S = 170.0      # a child still running at this point is killed

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "finish_s": "s",
    "quality": "score",
    "peak_rss_mb": "MB",
}
# What each end-to-end metric measures, per kind of workload.
MEANING = {
    "search": {
        "setup_s": "fresh process start to the first search step",
        "throughput_per_s": "search_samples_per_s: samples per second of run_search + write_log",
        "finish_s": "time to finish one search: run_search + write_log",
        "quality": "final_reward (toy2) or last-half mean sampled reward (default), "
                   "median over seeds",
        "peak_rss_mb": "peak resident set of a child process",
    },
    "latency_model": {
        "setup_s": "fresh process start to the first bench generate call",
        "throughput_per_s": "bench_records_per_s: records generated and written per second",
        "finish_s": "fit_wall_s: cost fit wall time (load + fit + held-out r2)",
        "quality": "holdout_r2, mean over the data sets",
        "peak_rss_mb": "peak resident set of a child process",
    },
}


PER_LAYER = {
    **{f"{name}.{part}": unit for name in SPAN_NAMES
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "search.cache.hit_ratio": "share",
    "search.unique_archs": "count",
    "analysis.network_units.hit_ratio": "share",
    "analysis.network_cost.hit_ratio": "share",
    "cost.buckets": "count",
    "cost.records_per_weight": "records",
    "cost.train_r2": "score",
    "arch.bytes_written": "bytes",
    "trace.coverage": "share",
    "trace.overhead_pct": "%",
}


def _spawn(spec: dict, deadline: float) -> tuple[float, dict | None, str]:
    """Run one child to completion; (start time, report or None, error)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--child", json.dumps(spec)],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, **{var: str(THREADS) for var in THREAD_VARS}},
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return started, None, "child timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return started, None, f"child exited {proc.returncode}: {tail[0]}"
    return started, json.loads(lines[-1]), ""


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return _median(values), _median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, params: dict, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT) -> dict:
    """Run children for one workload and aggregate their reports."""
    keys = unit_seeds(params, seed)
    # every key runs at least once and one unit repeats, for the replay check
    per_unit = len(keys) if params["kind"] == "search" else 1
    min_units = max(MIN_CHILDREN, len(keys) // per_unit + 1)
    if trace:
        min_units = 2
    workdir = out_dir / "work" / name
    start = time.monotonic()
    children = []
    work = 0.0
    unit = 0
    while ((work < seconds or unit < min_units)
           and time.monotonic() - start < START_LIMIT_S):
        for traced_child in ((True, False) if trace else (False,)):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            spans = (out_dir / f"spans-{name}-seed{seed}-unit{unit}.csv.gz"
                     if traced_child else None)
            spec = {"params": params, "seed": seed, "unit": unit,
                    "workdir": str(workdir), "spans": str(spans) if spans else None}
            started, report, error = _spawn(spec, start + EXIT_LIMIT_S)
            children.append({"unit": unit, "traced": traced_child, "started": started,
                             "report": report, "error": error})
            if report is None:
                break
            work += sum(op.get("work_wall_s", 0.0) for op in report["ops"])
        if children[-1]["report"] is None:
            break
        unit += 1
    shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(params, children, trace)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  wall_s=time.monotonic() - start)
    return result


def _check(params: dict, children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every child."""
    attempted = failed = 0
    problems: list[str] = []
    first_replay: dict = {}
    for child in children:
        report = child["report"]
        if report is None:
            planned = params["seeds_per_unit"] if params["kind"] == "search" else 2
            attempted += planned
            failed += planned
            problems.append(child["error"])
            continue
        for op in report["ops"]:
            attempted += 1
            found = list(op["problems"])
            if "replay" in op:
                first = first_replay.setdefault(op["key"], op["replay"])
                if op["replay"] != first:
                    found.append(f"replay of {op['key']} differs: {first} != {op['replay']}")
            if found:
                failed += 1
                problems.extend(found)
    return attempted, failed, problems


def _throughput(ops: list[dict], suffix: str) -> list[float]:
    """Items per second of each operation that produces items."""
    return [op["items"] / op[f"work{suffix}"] for op in ops
            if "items" in op and op.get(f"work{suffix}")]


def _end_to_end(params: dict, plain: list[dict]) -> tuple[dict, dict]:
    """Samples of each end-to-end metric from untraced children, and the
    wall-clock medians of the timed ones (the metrics are in nominal seconds)."""
    reports = [c["report"] for c in plain]
    ops = [op for r in reports for op in r["ops"]]
    per_key: dict = {}
    for op in ops:
        if "quality" in op:
            per_key.setdefault(op["key"], op["quality"])
    quality = list(per_key.values())
    if params["kind"] == "search":
        quality = [_median(quality)]
    else:
        quality = [statistics.fmean(quality)] if quality else [0.0]
    samples = {
        # interpreter and numpy start-up, before the probe runs, count at wall speed
        "setup_s": [r["probe_start"] - c["started"] + r["setup_s"]
                    for c, r in zip(plain, reports)],
        "throughput_per_s": _throughput(ops, "_s"),
        "finish_s": [op["finish_s"] for op in ops if "finish_s" in op],
        "quality": quality,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    wall_clock = {
        "setup_s": _median([r["setup_end"] - c["started"] for c, r in zip(plain, reports)]),
        "throughput_per_s": _median(_throughput(ops, "_wall_s")),
        "finish_s": _median([op["finish_wall_s"] for op in ops if "finish_wall_s" in op]),
    }
    return samples, wall_clock


def _per_layer(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over traced children."""
    traced = [c for c in children if c["traced"] and c["report"]]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for child in traced:
        report = child["report"]
        spans = report["spans"]
        for name in SPAN_NAMES:
            calls, self_s = spans.get(name, (0, 0.0))
            samples[f"{name}.calls"].append(calls)
            samples[f"{name}.self_s"].append(self_s)
        drawn = spans.get("controller.sample", (0, 0.0))[0]
        misses = spans.get("search.arch_hash", (0, 0.0))[0]
        searches = spans.get("search.run_search", (0, 0.0))[0]
        samples["search.cache.hit_ratio"].append(1 - misses / drawn if drawn else 0.0)
        samples["search.unique_archs"].append(misses / searches if searches else 0.0)
        for name, ratio in report["cache_hit_ratio"].items():
            samples[name].append(ratio)
        for op in report["ops"]:
            for field in ("buckets", "records_per_weight", "train_r2"):
                if field in op:
                    samples[f"cost.{field}"].append(op[field])
            if "bytes_written" in op:
                samples["arch.bytes_written"].append(op["bytes_written"])
        samples["trace.coverage"].append(report["coverage"])
    # tracing overhead: work time of each traced child against its untraced twin
    work = {(c["unit"], c["traced"]): sum(op.get("work_s", 0.0) for op in c["report"]["ops"])
            for c in children if c["report"]}
    samples["trace.overhead_pct"] = [
        100.0 * (work[(u, True)] / work[(u, False)] - 1.0)
        for (u, is_traced) in work if is_traced and work.get((u, False))
    ]
    return {name: _median(values) for name, values in samples.items()}


def summarize(params: dict, children: list[dict], trace: bool) -> dict:
    attempted, failed, problems = _check(params, children)
    plain = [c for c in children if not c["traced"] and c["report"]]
    reports = [c["report"] for c in children if c["report"]]
    result = {
        "correct": failed == 0 and bool(reports),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "machine": reports[0]["machine"] if reports else {},
        "children": children,
    }
    if trace:
        values = _per_layer(children)
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}
        return result
    samples, result["wall_clock"] = _end_to_end(params, plain)
    result["samples"] = samples
    result["metrics"] = {n: {"value": _median(samples[n]), "unit": u}
                         for n, u in END_TO_END.items()}
    matches = [op["argmax_match"] for c in plain for op in c["report"]["ops"]
               if op.get("argmax_match") is not None]
    if matches:
        result["argmax_match_rate"] = sum(matches) / len(matches)
    return result


def machine_info() -> dict:
    """CPU, core count, thread pins and Python, numpy and BLAS versions."""
    import platform

    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _child_main(spec: dict) -> int:
    from speed import SpeedProbe  # imports numpy, after the thread pins are set

    probe = SpeedProbe()
    probe.start()  # before hwnas is imported, which is part of set-up
    sys.path.insert(0, str(SRC))
    import hwnas

    if Path(hwnas.__file__).resolve().parent != (SRC / "hwnas").resolve():
        print(f"error: imported hwnas from {hwnas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spans = Path(spec["spans"]) if spec["spans"] else None
    report = run_unit(spec["params"], spec["seed"], spec["unit"], Path(spec["workdir"]),
                      spans, probe)
    probe.stop()
    report["machine"] = machine_info()
    print(json.dumps(report))
    return 0


def _print_report(result: dict, kind: str) -> None:
    m = result["machine"]
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}  "
          f"children {len(result['children'])}  wall {result['wall_s']:.1f} s")
    print(f"# machine: {m.get('cpu')}, nproc {m.get('nproc')}, BLAS threads {THREADS}, "
          f"python {m.get('python')}, numpy {m.get('numpy')}, {m.get('blas')}")
    for name, metric in result["metrics"].items():
        line = f"{name:44s} {metric['value']:14.6g} {metric['unit']}"
        if "samples" in result:
            q1, q3 = _quartiles(result["samples"][name])
            line += f"  n={len(result['samples'][name])}, q1 {q1:.6g}, q3 {q3:.6g}"
            if name in result["wall_clock"]:
                line += f", wall-clock {result['wall_clock'][name]:.6g}"
            line += f"; {MEANING[kind][name]}"
        print(line)
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'error_rate':44s} {rate:14.6g} share  "
          f"({result['failed']} failed of {result['attempted']} operations)")
    if "argmax_match_rate" in result:
        print(f"{'argmax_match_rate':44s} {result['argmax_match_rate']:14.6g} share")
    for problem in result["problems"]:
        print(f"# problem: {problem}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=json.loads, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # raising here makes subprocess.run kill and reap the running child
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return _child_main(args.child)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "hwnas" / "__init__.py").is_file():
        print(f"error: hwnas sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8")
        _print_report(result, WORKLOADS[name]["kind"])
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": v for r in results for n, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
