"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark's files are read with ``ast`` and never imported, so the
check runs in the tier-1 suite without running the benchmark itself.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from csmulmod import BitVec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every ``csmulmod`` import in a file; name is None
    for a plain ``import csmulmod.<module>``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "csmulmod"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "csmulmod":
                found += [(node.module, a.name) for a in node.names]
    return found


def test_perfbench_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "tracing.py", "workloads.py"}
    assert any(package_imports(p) for p in SOURCES)


def resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_imported_name_resolves():
    missing = [
        f"{path.name}: {module_name} {name}"
        for path in SOURCES
        for module_name, name in package_imports(path)
        if not resolves(module_name, name)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "module_name, name",
    [("csmulmod.harness", "mulmod_checked"), ("csmulmod.pipeline", "shift_right_result")],
)
def test_swapped_globals_exist(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


def test_bitvec_init_is_swappable():
    assert inspect.isfunction(BitVec.__dict__["__init__"])
