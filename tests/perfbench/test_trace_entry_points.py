"""The benchmark tracer's entry points all resolve in the program.

``perfbench/tracing.py`` wraps the program's layers by name.  A refactor
that renames or moves one of them must fail here, not in the benchmark:
each ``ENTRY_POINTS`` row is resolved exactly as ``Tracer.installed``
resolves it — ``getattr`` on the module for a module function, the
owning class's own ``__dict__`` for a method.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(row):
    """The callable ``Tracer.installed`` would wrap for ``row``."""
    _, module_name, class_name, attr, _, _ = row
    module = importlib.import_module(module_name)
    if class_name is None:
        return getattr(module, attr)
    owner = getattr(module, class_name)
    assert attr in owner.__dict__, (
        f"{class_name}.{attr} is not defined on the class itself")
    return owner.__dict__[attr]


@pytest.mark.parametrize(
    "row", tracing.ENTRY_POINTS,
    ids=[f"{row[0]}:{row[2] or row[1]}.{row[3]}"
         for row in tracing.ENTRY_POINTS],
)
def test_entry_point_resolves(row):
    assert callable(resolve(row))


def test_installed_restores_every_original():
    before = [resolve(row) for row in tracing.ENTRY_POINTS]
    with tracing.Tracer().installed():
        pass
    assert [resolve(row) for row in tracing.ENTRY_POINTS] == before
