"""Workloads of the hwnas benchmark; each unit of work runs in a fresh process.

A unit is what one child process does after its set-up: the fixed list of
search seeds of a search workload, or one generated data set of the latency
model workload. The child reports its set-up time, one record per
operation it attempted (with the problems found when checking its outputs)
and, when traced, per-span totals. Times named ``*_s`` are in nominal
seconds (see ``speed.py``); ``*_wall_s`` are the raw wall-clock figures.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path
from typing import TYPE_CHECKING

from tracing import Tracer, traced

if TYPE_CHECKING:
    from speed import SpeedProbe

# Parameters of each workload. Search workloads take their search seeds, and
# search_default its landscape seed, from the workload seed; toy2 keeps the
# fixed landscape of acceptance criterion 4 (linear oracle seed 1, budget from
# seed 1). ``quality`` names what a search run contributes to the quality
# metric: the noiseless reward of the final architecture, or the mean sampled
# reward over the last half of the steps.
WORKLOADS = {
    "search_toy2": {
        "kind": "search", "layout": "toy2", "variant": "ibn",
        "device": "cpu_sim", "noise_sigma": 0.0, "oracle": "linear",
        "tau": -2.0, "lr": 0.02, "steps": 5000, "seeds_per_unit": 4,
        "exhaustive": True, "quality": "final_reward",
    },
    "search_default": {
        "kind": "search", "layout": "default", "variant": "ibn_fused_tucker",
        "device": "accel_sim", "noise_sigma": 0.01, "oracle": "capacity",
        "tau": -0.3, "lr": 5e-3, "steps": 1000, "seeds_per_unit": 3,
        "exhaustive": False, "quality": "late_reward",
    },
    "latency_model_default": {
        "kind": "latency_model", "layout": "default", "variant": "ibn_fused_tucker",
        "device": "accel_sim", "noise_sigma": 0.01, "records": 2000,
        "holdout_frac": 0.2, "datasets": 8,
    },
}


def unit_seeds(params: dict, seed: int) -> list[int]:
    """Search seeds (search workloads) or data-set seeds (latency model)."""
    n = params["seeds_per_unit"] if params["kind"] == "search" else params["datasets"]
    return [seed * 100 + k for k in range(n)]


def _device_profile(cost, params: dict, workdir: Path) -> Path:
    """Write the built-in rates with the workload's noise as a profile file."""
    base = cost.BUILTIN_DEVICES[params["device"]]
    path = workdir / "device.json"
    cost.save_device(
        cost.DeviceSimulator(
            name=f"{base.name}_noise{params['noise_sigma']:g}",
            regular_conv=base.regular_conv,
            depthwise_conv=base.depthwise_conv,
            pointwise_conv=base.pointwise_conv,
            se_block=base.se_block,
            overhead_ms=base.overhead_ms,
            noise_sigma=params["noise_sigma"],
        ),
        path,
    )
    return path


def _timed(op: dict, probe: SpeedProbe, name: str, t0: float, t1: float) -> None:
    op[f"{name}_s"] = probe.nominal(t0, t1)
    op[f"{name}_wall_s"] = t1 - t0


def _search_unit(params: dict, seeds: list[int], landscape_seed: int, workdir: Path,
                 probe: SpeedProbe) -> dict:
    from hwnas import arch, controller, cost, search, space

    sp = space.build_space(params["variant"], "neutral",
                           arch.BUILTIN_LAYOUTS[params["layout"]]())
    device = cost.load_device(_device_profile(cost, params, workdir))
    if params["oracle"] == "linear":
        oracle = search.LinearFeatureOracle.random_for_space(sp, seed=1)
        budget = search.resolve_budget(sp, device, seed=1)
    else:
        oracle = search.CapacityOracle(
            scale_madds=search.median_madds(sp, landscape_seed),
            noise_sigma=params["noise_sigma"],
        )
        budget = search.resolve_budget(sp, device, landscape_seed)
    best_signature = None
    if params["exhaustive"]:
        best_net, _ = search.exhaustive_best(
            sp, oracle, device, controller.RewardConfig(params["tau"], budget))
        best_signature = arch.functional_signature(best_net)
    setup_end = time.monotonic()

    ops = []
    for seed in seeds:
        cfg = search.SearchConfig(steps=params["steps"], tau=params["tau"],
                                  budget_ms=budget, seed=seed, lr=params["lr"])
        log_path = workdir / f"search-{seed}.ndjson"
        op = {"key": seed, "items": params["steps"] * cfg.samples_per_step, "problems": []}
        try:
            t0 = time.monotonic()
            net, log = search.run_search(sp, oracle, device, cfg)
            search.write_log(log, log_path)
            t1 = time.monotonic()
        except Exception as exc:  # a failed operation is counted, not fatal
            op["problems"].append(f"{type(exc).__name__}: {exc}")
            ops.append(op)
            continue
        rewards = [r.reward for r in log.steps[len(log.steps) // 2:]]
        written = sum('"type": "step"' in line
                      for line in log_path.read_text(encoding="utf-8").splitlines())
        if len(log.steps) != params["steps"] or written != params["steps"]:
            op["problems"].append(
                f"log has {len(log.steps)} steps ({written} written), "
                f"expected {params['steps']}")
        bad = [r.latency_ms for r in log.steps if not r.latency_ms > 0]
        if bad or not log.final_latency_ms > 0:
            op["problems"].append(f"non-positive latency: {bad[:3] or log.final_latency_ms}")
        _timed(op, probe, "work", t0, t1)
        _timed(op, probe, "finish", t0, t1)
        op.update(
            quality={"final_reward": log.final_reward,
                     "late_reward": sum(rewards) / len(rewards)}[params["quality"]],
            replay=[list(log.final_dv), log.final_reward],
            argmax_match=(None if best_signature is None
                          else arch.functional_signature(net) == best_signature),
        )
        ops.append(op)
    return {"setup_end": setup_end, "ops": ops}


def _latency_unit(params: dict, data_seed: int, workdir: Path, probe: SpeedProbe) -> dict:
    from hwnas import cli, cost

    device_path = _device_profile(cost, params, workdir)
    setup_end = time.monotonic()

    space_args = ["--variant", params["variant"], "--layout", params["layout"]]
    bench_csv, model_path = workdir / "bench.csv", workdir / "model.json"
    gen = {"key": f"generate:{data_seed}", "items": params["records"], "problems": []}
    t0 = time.monotonic()
    rc = cli.main(["bench", "generate", *space_args, "--device", str(device_path),
                   "-n", str(params["records"]), "--seed", str(data_seed),
                   "-o", str(bench_csv)])
    _timed(gen, probe, "work", t0, time.monotonic())
    if rc != 0:
        gen["problems"].append(f"bench generate returned {rc}")
        return {"setup_end": setup_end, "ops": [gen]}
    rows = [row for row in bench_csv.read_text(encoding="utf-8").splitlines()
            if row and not row.startswith("#")]
    latencies = [float(row.split(",")[1]) for row in rows[1:]]  # after the header
    if len(latencies) != params["records"] or not all(x > 0 for x in latencies):
        gen["problems"].append(
            f"{len(latencies)} records, {sum(not x > 0 for x in latencies)} non-positive")
    # the CLI's default architecture directory for bench.csv
    gen["bytes_written"] = sum(p.stat().st_size for p in (workdir / "bench_archs").iterdir())

    fit = {"key": f"fit:{data_seed}", "problems": []}
    t0 = time.monotonic()
    rc = cli.main(["cost", "fit", *space_args, "--bench", str(bench_csv),
                   "--holdout-frac", str(params["holdout_frac"]),
                   "--seed", str(data_seed), "-o", str(model_path)])
    t1 = time.monotonic()
    _timed(fit, probe, "work", t0, t1)
    _timed(fit, probe, "finish", t0, t1)
    if rc != 0:
        fit["problems"].append(f"cost fit returned {rc}")
        return {"setup_end": setup_end, "ops": [gen, fit]}
    model = json.loads(model_path.read_text(encoding="utf-8"))
    n_train = params["records"] - int(params["records"] * params["holdout_frac"])
    fit.update(
        quality=model["holdout_r2"],
        replay=[model["holdout_r2"], model["train_r2"]],
        buckets=len(model["buckets"]),
        records_per_weight=n_train / len(model["buckets"]),
        train_r2=model["train_r2"],
    )
    return {"setup_end": setup_end, "ops": [gen, fit]}


def _hit_ratio(info) -> float:
    return info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0


def run_unit(params: dict, seed: int, unit: int, workdir: Path,
             spans_path: Path | None, probe: SpeedProbe) -> dict:
    """Run one unit in this (fresh) process and return its report.

    ``probe`` has been running since the process started. With
    ``spans_path`` set the unit runs traced and its spans are written there
    once it has finished.
    """
    from hwnas import analysis, arch, cli, controller, cost, search, space  # noqa: F401

    seeds = unit_seeds(params, seed)
    tracer = Tracer()
    if params["kind"] == "search":
        run, args, root = _search_unit, (params, seeds, seed, workdir, probe), "search.run_search"
    else:
        run, args, root = (_latency_unit, (params, seeds[unit % len(seeds)], workdir, probe),
                           "cli.cmd_")
    if spans_path is not None:
        with traced(tracer):
            report = run(*args)
    else:
        report = run(*args)
    report["probe_start"] = probe.started
    report["setup_s"] = probe.nominal(probe.started, report["setup_end"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans_path is not None:
        report["spans"] = {name: list(v) for name, v in tracer.totals().items()}
        report["coverage"] = tracer.coverage(root)
        report["cache_hit_ratio"] = {
            "analysis.network_units.hit_ratio": _hit_ratio(analysis.network_units.cache_info()),
            "analysis.network_cost.hit_ratio": _hit_ratio(analysis.network_cost.cache_info()),
        }
        tracer.write(spans_path)
    return report
