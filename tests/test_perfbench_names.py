"""The benchmark's layer tracer patches names that exist.

``perfbench/layers.py`` wraps public functions of the package by name. A
renamed or deleted function would otherwise surface only when the
benchmark runs; this check reads the tracer's table without importing
``perfbench`` as a package, so nothing is written under it.
"""

import types
from pathlib import Path

import gbnlearn

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_to_a_callable():
    table = _load_layers().patch_table(gbnlearn)
    assert table
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in table if not callable(getattr(mod, attr, None))]
    assert missing == []
