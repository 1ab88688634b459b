"""Tests of the benchmark itself: tracing wrappers and short workload runs.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import ORACLE_CLASSES, Tracer, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from hwnas import analysis, arch, cli, controller, cost, search, space, tucker  # noqa: E402,F401

MODULES = (analysis, arch, cli, controller, cost, search, space, tucker)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Shortened workloads: same code paths, a few seconds in all.
SMOKE = {
    "search_toy2": {**WORKLOADS["search_toy2"], "steps": 1000, "seeds_per_unit": 2},
    "search_default": {**WORKLOADS["search_default"], "steps": 150, "seeds_per_unit": 2},
    "latency_model_default": {**WORKLOADS["latency_model_default"], "records": 120,
                              "datasets": 2},
}


def _bindings() -> dict:
    out = {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}
    for cls_name in ORACLE_CLASSES:
        out[(cls_name, "evaluate")] = getattr(search, cls_name).__dict__["evaluate"]
    return out


def test_traced_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    with traced(tracer):
        assert search.sample is not controller.sample  # wrapped where it is called
        assert search.decode.__wrapped__ is before[("hwnas.space", "decode")]
        sp = space.build_space("ibn", "neutral", arch.toy2_layout())
        search.resolve_budget(sp, cost.BUILTIN_DEVICES["cpu_sim"], seed=0, samples=4)
    assert _bindings().items() == before.items()
    totals = tracer.totals()
    assert totals["space.build_space"][0] == 1
    assert totals["search.resolve_budget"][0] == 1
    assert totals["space.decode"][0] == 4


def test_traced_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("boom")
    assert _bindings().items() == before.items()


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        (3, 1, "leaf", 2.0, 3.0),
        (1, 0, "inner", 1.0, 4.0),
        (2, 0, "inner", 5.0, 6.0),
        (0, -1, "outer", 0.0, 10.0),
    ]
    totals = tracer.totals()
    assert totals["outer"] == (1, 6.0)
    assert totals["inner"] == (2, 3.0)
    assert totals["leaf"] == (1, 1.0)
    assert tracer.coverage("outer") == pytest.approx(0.4)


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    return {
        (name, trace): run.run_workload(name, params, seed=3, seconds=0.0, trace=trace,
                                        out_dir=out)
        for name, params in SMOKE.items() for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_emits_every_metric_with_its_unit(smoke_results, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = smoke_results[(name, trace)]
        assert result["correct"], result["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    plain = smoke_results[(name, False)]["metrics"]
    # quality is not checked: a 120-record latency model scores r2 below 0
    assert all(plain[n]["value"] > 0 for n in ("setup_s", "throughput_per_s", "finish_s",
                                               "peak_rss_mb"))


def test_cache_hit_ratio_splits_the_search_workloads(smoke_results):
    toy2 = smoke_results[("search_toy2", True)]["metrics"]
    default = smoke_results[("search_default", True)]["metrics"]
    assert toy2["search.cache.hit_ratio"]["value"] > 0.85
    assert default["search.cache.hit_ratio"]["value"] < 0.05
    for metrics in (toy2, default):
        assert metrics["trace.coverage"]["value"] > 0.9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search_toy2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
