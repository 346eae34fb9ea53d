"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark's files are read with ``ast`` and never imported, so the
check runs in the tier-1 suite without running the benchmark itself.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from csmulmod import (
    BitVec,
    fold_pair,
    precompute,
    qcu_apply,
    ref_mulmod,
    run_loop,
    run_shrink,
    shift_left_operand,
    shift_right_result,
    squeeze_topup,
)
from csmulmod.cli import main as cli_main

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


def test_replay_call_shapes():
    # the stage-by-stage replay in perfbench/tracing.py, on one instance
    # with a shifted modulus (k=6 at n=9)
    A, B, R, n = 37, 50, 53, 9
    params = precompute(R, n)
    # tracing.py reads params.k and test_perfbench.py params.modulus
    assert (params.k, params.modulus) == (6, R)
    b = shift_left_operand(B, params)
    result = run_loop(A, b, params)
    assert isinstance(result, tuple) and len(result) == 2 and result[1] is None
    acc = result[0]
    assert type(acc.p) is int and type(acc.q) is int
    acc, shrink = run_shrink(acc, params)
    assert type(acc.p) is int and type(acc.q) is int
    assert isinstance(shrink.cycles, int)
    acc, squeeze = qcu_apply(squeeze_topup(acc), params)
    assert type(acc.p) is int and type(acc.q) is int
    assert isinstance(squeeze.rule, int)
    p, q = shift_right_result(acc.p, acc.q, params)
    assert p < R and q < R and fold_pair(p, q, R) == ref_mulmod(A, B, R)


def test_traced_cli_call_shape(capsys):
    # the cli-traced-n64 call in perfbench/workloads.py: cli_call reads
    # main's return code and stdout, and cli_answer_ok parses the stdout as
    # one JSON object whose p and q are hex below R that fold to A*B mod R
    R, A, B = 0xE3F1_7B2D_9A04_C5E1, 0x1234_5678_9ABC_DEF0, 0x9E37_79B9_7F4A_7C15
    argv = ["mulmod", "--n", "64", "--mod", f"{R:X}", "--a", f"{A:X}", "--b", f"{B:X}",
            "--trace", "--json"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert isinstance(doc, dict)
    p, q = int(doc["p"], 16), int(doc["q"], 16)
    assert p < R and q < R and fold_pair(p, q, R) == ref_mulmod(A, B, R)
