"""The benchmark's tracer wraps package entry points by name; each must exist.

``tailbench/spans.py`` is read as text, not imported, so this test needs
nothing from the benchmark beyond its two name tables.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "tailbench" / "spans.py"


def _tables() -> dict[str, tuple]:
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("ENTRY_POINTS", "COUNTED_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
WRAPPED = [(module, attr) for entries in TABLES.values() for module, attr, *_ in entries]


def test_spans_declares_both_tables():
    assert set(TABLES) == {"ENTRY_POINTS", "COUNTED_METHODS"}
    assert all(TABLES.values())


@pytest.mark.parametrize("module, attr", WRAPPED)
def test_wrapped_entry_point_resolves(module, attr):
    owner = importlib.import_module(f"tailtwist.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
