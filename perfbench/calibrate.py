"""A fixed reference task that shows how fast the machine runs Python now.

The machine this benchmark was built on is shared, and its speed changes
in phases that last from a second to minutes: every piece of Python code
on it runs up to 2x slower in a slow phase. Each timed call is therefore
paired with the time of this task around it, and ``at_reference_speed``
scales the call's time by ``PROBE_REF_S`` over that. The ratio of a
call's time to the task's held within about 5% across phases that moved
the raw times by 2x.

- The single-process workloads run ``probe_s`` before their first call and
  after every one, and pair each call with the mean of the two around it.
- The pool workload runs ``sampling`` during each sweep, and pairs the
  sweep with the mean of the samples: the sweep's time adds up the
  slowness of every moment, as a mean does.
- Each set-up probe (setup_probe.py) runs the task after the set-up.

The task mixes what the program spends its time on: 256-bit integer
arithmetic through small ``__slots__`` objects, and formatting, JSON
rendering and parsing of small documents. It uses no csmulmod code, so a
change to the program cannot change it. Its objects are freed as soon as
they are dropped, so it leaves nothing behind for the garbage collector.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Iterator

__all__ = ["PROBE_REF_S", "at_reference_speed", "probe_s", "sampling"]

# The task's median time on the machine the baseline was measured on, in a
# fast phase (see README.md). It only sets the scale of the scaled times.
PROBE_REF_S = 4.0e-4
# How often ``sampling`` runs the task: often enough to follow phases of a
# second, rarely enough to take about 1% of one CPU from the pool.
SAMPLE_EVERY_S = 0.05


class _Reg:
    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        if value >> width:
            raise ValueError(f"{value:#x} does not fit in {width} bits")
        self.width = width
        self.value = value


def _task(rounds: int = 40) -> int:
    mask = (1 << 256) - 1
    x = (1 << 255) + 12345
    acc = 0
    for i in range(rounds):
        r = _Reg(256, x)
        y = _Reg(256, (r.value << 1) & mask)
        x = (r.value ^ y.value ^ (r.value & y.value) ^ i) & mask
        quarters = [format(x >> k & 0xFFFF, "x") for k in range(0, 64, 16)]
        doc = {"step": i, "p": format(x, "X"), "q": quarters}
        text = json.dumps(doc, sort_keys=True)
        acc += len(json.loads(text)["q"]) + text.count("a")
    return acc


def probe_s() -> float:
    """Seconds that one run of the reference task takes."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


def at_reference_speed(time_s: float, probe_time_s: float) -> float:
    """A time taken while the task took ``probe_time_s``, scaled to the
    speed at which the task takes PROBE_REF_S."""
    return time_s * PROBE_REF_S / probe_time_s


@contextlib.contextmanager
def sampling() -> Iterator[list[float]]:
    """Run the task on a background thread, at once and then every
    SAMPLE_EVERY_S, while the body runs; yield the list its times go into.

    This is for work done in other processes, while this one waits.
    """
    times: list[float] = []
    stop = threading.Event()

    def sample() -> None:
        times.append(probe_s())
        while not stop.wait(SAMPLE_EVERY_S):
            times.append(probe_s())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield times
    finally:
        stop.set()
        thread.join()
