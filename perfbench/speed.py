"""Host speed probe: wall times scaled to a reference speed of the host.

The host this benchmark shares changes speed by up to 1.5x between states
that last from a second to minutes, so raw wall times of two identical
runs can differ by far more than a code change would.  A short fixed task
(no fnlab code, so no change to the program can alter it) is timed between
operations; its time over its reference time is the host's slowness factor
at that moment.  The operation times of a repetition are divided by the
mean factor over the repetition, or each by the factor of the probes on
either side of it when a probe follows every operation, raised to the
probe's sensitivity; that gives them at the reference speed.  Set-up is
gauged the same way by an interpreter start.  The raw wall times are kept beside the
scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time


class Probe:
    """A fixed task timed as the host's speed gauge.

    ``ref_s`` is the task's median time on the 2-core x86 host where the
    benchmark was written (Python 3.11); it only sets the scale of the
    reported seconds.  ``sensitivity`` is how a workload's time follows the
    probe's across host states: the slope of log(wall time) on log(probe
    factor), measured on that host.  A probe is taken after an operation
    once ``every_s`` has passed since the last one, so short operations
    share a probe and long ones get their own.  With ``per_operation`` a
    probe follows every operation and each operation is scaled by the
    probes on either side of it rather than by the repetition's mean.
    """

    def __init__(self, task, ref_s: float, sensitivity: float, every_s: float, tries: int,
                 per_operation: bool = False):
        self.task, self.ref_s, self.sensitivity = task, ref_s, sensitivity
        self.every_s, self.tries, self.per_operation = every_s, tries, per_operation

    def factor(self) -> float:
        """The host's slowness factor now: the fastest of a few timings of
        the task over ``ref_s`` (1.0 at the reference speed)."""
        best = float("inf")
        for _ in range(self.tries):
            t = time.perf_counter()
            self.task()
            best = min(best, time.perf_counter() - t)
        return best / self.ref_s


def _reference_task(loops: int = 6000) -> int:
    """Bit counts, list indexing and a small dict: the instruction mix of
    the program's own inner loops."""
    rows = list(range(1, 257))
    seen = {}
    acc = 0
    for i in range(loops):
        m = rows[i & 255] ^ (acc & 0xFFFF)
        acc = (acc * 31 + m.bit_count() + i) & 0xFFFFFFFF
        seen[acc & 511] = m
    return acc


def _interpreter_start() -> None:
    subprocess.run([sys.executable, "-c", "import json, random"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


# In-process work.  Across the repetitions of ten runs the slope was 0.72
# on frontier, 0.73 on oracle and 0.69 on transport; dividing by the full
# factor over-corrected.
PYTHON = Probe(_reference_task, ref_s=0.0022, sensitivity=0.7, every_s=0.1, tries=3)
# A fnlab command is mostly interpreter start and imports, which the host
# slows in ways plain Python does not show, and from one command to the
# next: scaling each command by the probes beside it cut the spread of
# repeated commands from 0.126 to 0.077 of their mean (slope 0.8 per
# command, against 0.5 for PYTHON).
INTERPRETER_START = Probe(_interpreter_start, ref_s=0.057, sensitivity=0.8, every_s=0.0, tries=2,
                          per_operation=True)


class ScaledClock:
    """Collects operation wall times and probes between them.

    ``start()`` takes the first probe; ``add(seconds)`` records one
    operation and probes once the probe's ``every_s`` has passed since the
    last probe; ``finish()`` takes the closing probe.  Each stretch of
    operations between two probes gets the mean of their factors, and
    ``factor`` is the mean of those over the repetition, weighted by the
    stretches' wall time: one probe is too short to say much, but many,
    averaged over the same time as the operations, follow the host.
    """

    def __init__(self, probe: Probe = PYTHON):
        self.every_s = probe.every_s
        self.sensitivity = probe.sensitivity
        self.per_operation = probe.per_operation
        self._probe = probe.factor
        self.probes: list[float] = []
        self.raw: list[float] = []
        self._stretch_of: list[int] = []  # operation -> its stretch
        self._stretches: list[tuple[float, float]] = []  # (wall seconds, factor)
        self._pending = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.probes.append(self._probe())
        self._last = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._stretch_of.append(len(self._stretches))
        self._pending += seconds
        if time.perf_counter() - self._last >= self.every_s:
            self._close_stretch()

    def finish(self) -> None:
        if self._pending or not self._stretches:
            self._close_stretch()

    def _close_stretch(self) -> None:
        self.probes.append(self._probe())
        self._stretches.append((self._pending, (self.probes[-2] + self.probes[-1]) / 2))
        self._pending = 0.0
        self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """The host's mean slowness factor over the recorded operations."""
        wall = sum(w for w, _ in self._stretches)
        if wall == 0:
            return self.probes[0]
        return sum(w * f for w, f in self._stretches) / wall

    def scaled(self, seconds: float) -> float:
        return seconds / self.factor ** self.sensitivity

    def scaled_ops(self) -> list[float]:
        """Each recorded operation's time at the reference speed."""
        if not self.per_operation:
            return [self.scaled(t) for t in self.raw]
        return [t / self._stretches[k][1] ** self.sensitivity
                for t, k in zip(self.raw, self._stretch_of)]
