"""The names the bench harness patches and reads still exist in hwnas.

``bench/tracing.py`` replaces the functions its ``LAYER_FUNCTIONS`` lists,
by name, and ``bench/workloads.py`` reads the ``cache_info()`` of two
``lru_cache``s, and the fields of a ``run_search`` log and the step lines of
its log file. A rename here breaks the benchmark only when it runs; these
tests read the tables and the reads from the bench source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hwnas.arch import toy2_layout
from hwnas.cost import BUILTIN_DEVICES
from hwnas.search import CapacityOracle, SearchConfig, run_search, write_log
from hwnas.space import build_space

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _constants() -> dict:
    """The literal module-level assignments of ``bench/tracing.py``."""
    out = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except (AttributeError, ValueError):
                pass  # not a name bound to a literal
    return out


CONSTANTS = _constants()


def test_every_traced_function_resolves():
    missing = [f"hwnas.{layer}.{name}"
               for layer, names in CONSTANTS["LAYER_FUNCTIONS"].items() for name in names
               if not callable(getattr(importlib.import_module(f"hwnas.{layer}"), name, None))]
    assert missing == []


def test_traced_oracles_define_evaluate():
    search = importlib.import_module("hwnas.search")
    for cls_name in CONSTANTS["ORACLE_CLASSES"]:
        assert "evaluate" in vars(getattr(search, cls_name))


@pytest.mark.parametrize("name", ["network_units", "network_cost"])
def test_bench_reads_the_analysis_cache_counters(name):
    info = getattr(importlib.import_module("hwnas.analysis"), name).cache_info()
    assert info.maxsize > 0


def _search_unit_reads() -> tuple[set, set, set]:
    """What the search unit of ``bench/workloads.py`` reads: the attributes of ``log``,
    those of the step rows ``r`` it iterates, and the string constants it finds in lines."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    unit = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_search_unit")
    attrs = {"log": set(), "r": set()}
    marks = set()
    for node in ast.walk(unit):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in attrs:
            attrs[node.value.id].add(node.attr)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) and isinstance(
                node.left, ast.Constant):
            marks.add(node.left.value)
    return attrs["log"], attrs["r"], marks


def test_the_bench_reads_these_from_a_search():
    """The reads the next test checks; a bench that reads more extends both."""
    assert _search_unit_reads() == ({"steps", "final_dv", "final_reward", "final_latency_ms"},
                                    {"reward", "latency_ms"}, {'"type": "step"'})


def test_bench_reads_work_on_a_search_and_its_log_file(tmp_path):
    space = build_space("ibn", "neutral", toy2_layout())
    _, log = run_search(space, CapacityOracle(3e6), BUILTIN_DEVICES["cpu_sim"],
                        SearchConfig(steps=5, budget_ms=1.0))
    write_log(log, tmp_path / "log.ndjson")
    log_reads, row_reads, marks = _search_unit_reads()
    assert len(log.steps) == 5
    late = log.steps[len(log.steps) // 2:]  # the late-reward slice
    assert len(late) == 3
    for row in (*late, *log.steps):
        assert all(isinstance(getattr(row, name), float) for name in row_reads)
    assert all(hasattr(log, name) for name in log_reads)
    assert list(log.final_dv) == [int(i) for i in log.final_dv]
    assert log.final_reward == float(log.final_reward) and log.final_latency_ms > 0
    lines = (tmp_path / "log.ndjson").read_text(encoding="utf-8").splitlines()
    assert [sum(mark in line for line in lines) for mark in marks] == [5] * len(marks)
