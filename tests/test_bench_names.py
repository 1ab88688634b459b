"""The names the bench harness patches and reads still exist in hwnas.

``bench/tracing.py`` replaces the functions its ``LAYER_FUNCTIONS`` lists,
by name, and ``bench/workloads.py`` reads the ``cache_info()`` of two
``lru_cache``s. A rename here breaks the benchmark only when it runs; this
test reads the tables from the bench source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
