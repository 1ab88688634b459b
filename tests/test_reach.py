"""Nothing in ``src/hwnas`` serves only its own tests.

Every public function, class, method and property that a module of the
package defines must be referenced somewhere outside its own definition:
by an identifier in ``src/hwnas``, by an identifier in ``bench/*.py``, or
by a name ``bench/tracing.py`` patches (its ``LAYER_FUNCTIONS``). The test
reads the sources with :mod:`ast`, without importing the bench; names
are matched as names, so a method is reached by any attribute of its name.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from test_bench_names import CONSTANTS  # bench/tracing.py's literal tables

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "hwnas").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Reached by no code, each kept for a workflow that needs it.
ALLOWED = {
    "apply_sequence": "acceptance criterion 6 runs the three-stage 1x1, KxK, 1x1 sequence",
    "save_kernel": "the one writer of the kernel files that 'decomp demo' reads",
    "random_search_baseline": "the baseline the controller must beat on spaces beyond one block",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(tree: ast.AST) -> Counter:
    """Names, attribute names and imported names used in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _definitions(tree: ast.Module):
    """Each public module-level function and class, and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body
                            if isinstance(item, _DEFS) and not item.name.startswith("_"))


def _references() -> dict:
    """Public name -> (where it is defined, references outside its own definition)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}
    used = sum(map(_identifiers, trees.values()), Counter())
    used.update(name for names in CONSTANTS["LAYER_FUNCTIONS"].values() for name in names)
    out = {}
    for path in SRC:
        for node in _definitions(trees[path]):
            where, count = out.get(node.name, ((), used[node.name]))
            out[node.name] = (where + (f"{path.stem}:{node.lineno}",),
                              count - _identifiers(node)[node.name])
    return out


REFERENCES = _references()


def test_every_public_name_is_reached_outside_the_tests():
    unreached = sorted(f"{name} ({', '.join(where)})"
                       for name, (where, count) in REFERENCES.items()
                       if count <= 0 and name not in ALLOWED)
    assert unreached == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_an_allowed_name_exists_and_is_still_unreached(name):
    """An allowed name that gains a reference, or goes, leaves the list."""
    assert name in REFERENCES
    assert REFERENCES[name][1] == 0
