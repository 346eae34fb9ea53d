"""Output bytes pinned across versions.

The sweep reports and the traced JSON stream are compared with the
digests that ``perfbench/digests.json`` records for the benchmark's
golden configurations; the text worksheet of the known three-cycle
instance is compared with a recorded copy in ``tests/data``.
"""

import hashlib
import json
import random
from pathlib import Path

from csmulmod import SweepConfig, exhaustive_sweep, random_sweep
from csmulmod.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE.parent / "perfbench" / "digests.json").read_text())
GOLDEN_SEED = 20221017


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_exhaustive_report_bytes():
    report = exhaustive_sweep(SweepConfig(k_min=3, k_max=4))
    assert sha256(report.to_json_bytes()) == DIGESTS["exhaustive_sweep k=3..4"]


def test_random_report_bytes():
    report = random_sweep(SweepConfig(n=256, count=4, seed=GOLDEN_SEED))
    key = f"random_sweep n=256 count=4 seed={GOLDEN_SEED}"
    assert sha256(report.to_json_bytes()) == DIGESTS[key]


def test_traced_json_stream_bytes(capsys):
    # full-width n=64 instances drawn as R, A, B from one generator
    rng = random.Random(GOLDEN_SEED)
    stream = hashlib.sha256()
    for _ in range(4):
        R = rng.randrange(1 << 63, 1 << 64)
        A = rng.randrange(R)
        B = rng.randrange(R)
        argv = ["mulmod", "--n", "64", "--mod", format(R, "X"),
                "--a", format(A, "X"), "--b", format(B, "X"), "--trace", "--json"]
        stream.update(cli_stdout(capsys, argv).encode())
    key = f"cli mulmod --trace --json n=64 count=4 seed={GOLDEN_SEED}"
    assert stream.hexdigest() == DIGESTS[key]


def test_trace_text_bytes(capsys):
    argv = ["mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79", "--trace"]
    expected = (HERE / "data" / "mulmod_trace_n8_AD_3F_79.txt").read_text()
    assert cli_stdout(capsys, argv) == expected
