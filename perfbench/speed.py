"""Timings scaled to a fixed machine speed.

The benchmark shares a few cores with other programs.  Their load slows
every instruction for seconds to minutes at a time: on a 2-vCPU Intel Xeon
(Sapphire Rapids) KVM guest, one-second passes over the same prose-port jobs
took up to 1.9 times as long as the fastest pass of the same run, and the
middle half of ten 30-second runs spread by 10 to 27 per cent of their
median.  No median over a run removes that.

So the benchmark measures the machine's speed as it goes.  Between pieces of
timed work it runs a reference slice: a fixed, sub-millisecond mix of the
kinds of work launchport does (dicts, string formatting, a regex, small
objects, sorting), none of it launchport code.  The machine's speed is
``REFERENCE_NS`` over a slice's time, and a time multiplied by the speed is
the time the work would have taken on a machine where a slice takes
``REFERENCE_NS``.  A change to launchport changes the work, not the slices,
so it moves the scaled time as much as the raw one.

Each piece of timed work is scaled by the speed measured just before and
just after it (``factor``): a chunk of about 25 ms of in-process jobs, or one
CLI process.  The process and its children are kept on one CPU, because the
CPUs of a shared host are not equally loaded and a slice only tells the speed
of the CPU it ran on.  A measurement after a CLI process takes the median of
five slices: one slice there tracks the process's speed too loosely.
``setup_s`` and the start-up probe of a traced run are scaled by a median
speed over many measurements (``median_speed``).

Each measured slice follows an untimed one, so it runs with warm caches
whatever ran before it (a chunk of jobs or a whole CLI process), and the
garbage collector is off during a slice: a slice's time does not depend on
what launchport does or how many objects it keeps alive.
"""

from __future__ import annotations

import gc
import re
import statistics
from time import perf_counter_ns

# About the time of one slice on an unloaded 2-vCPU Intel Xeon (Sapphire Rapids)
# KVM guest with CPython 3.11.  Any fixed value serves: it only sets the
# speed that scaled timings refer to.
REFERENCE_NS = 550_000

_WORDS = ("train a model with deepspeed on four nodes and eight gpus per node "
          "using master port 29500 and run train.py").split()
_PATTERN = re.compile(r"(\d+)\s+(?:nodes?|gpus?)\b|port\s+(\d+)")
_TEXT = " ".join(f"{w} {i % 97} nodes port {i}" for i, w in enumerate(_WORDS * 4))


class _Item:
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value

    def key(self) -> tuple:
        return (self.value % 5, self.name)


def reference_slice() -> int:
    """Run the fixed reference work once; its wall time in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        acc = 0
        for r in range(6):
            table = {f"{w}{i + r}": i * r for i, w in enumerate(_WORDS)}
            items = sorted((_Item(k, v) for k, v in table.items()), key=_Item.key)
            acc += len(items) + sum(table.values())
            acc += len(_PATTERN.findall(_TEXT))
            acc += len("-".join(f"{k}={v}" for k, v in table.items()).split("="))
            x = 0
            for i in range(100):
                x += (i * r) % 7
            acc += x
        elapsed = perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
    if acc <= 0:
        raise AssertionError("reference slice computed nothing")
    return elapsed


class Scale:
    """Reference slices taken between pieces of timed work.

    ``mark()`` takes a slice before a piece of timed work; ``factor()`` takes a
    slice and returns the speed over the work done since the previous one;
    ``sample()`` only records a slice, for ``median_speed``.
    """

    def __init__(self, repeat: int = 1):
        self.repeat = repeat  # slices per measurement, of which the median counts
        self.slices: list[int] = []
        self.mark()

    def mark(self) -> None:
        self._last = self._measure()

    def sample(self) -> None:
        self._last = self._measure()
        self.slices.append(self._last)

    def _measure(self) -> int:
        reference_slice()  # warms the caches the timed slices use
        return statistics.median_low([reference_slice() for _ in range(self.repeat)])

    def factor(self) -> float:
        before = self._last
        self.sample()
        return 2 * REFERENCE_NS / (before + self._last)

    def median_speed(self, first: int = 0) -> float:
        """The median speed of the slices from index ``first`` on."""
        return REFERENCE_NS / statistics.median(self.slices[first:])
