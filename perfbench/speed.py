"""Machine-speed sampling, so that timings taken minutes apart compare.

On a shared virtual machine the speed of a vCPU drifts by up to a factor of
two within minutes: within one 30-second run a fixed pure-Python loop took
between 1.4 and 3.3 ms of processor time. Medians over more work do not
remove a drift that lasts longer than a run. So the sampler runs that loop
in the benchmark's own main thread, from a SIGALRM handler every PERIOD_S,
while the program works, on the same vCPU as the work it corrects; a loop
sampled on the other vCPU does not follow the drift. A unit's processor
time, less the handler's, is divided by the loop's mean slowdown against
REFERENCE_S over the samples from WINDOW_S before the unit to WINDOW_S after
it. Single samples are too noisy to correct a 0.1 s ``analyze`` call, and
the mean over a whole 20 s pass misses the drift within it. Serial work is
timed in processor time rather than wall time, because time the hypervisor
steals from the vCPU is not spent on the program.

Parallel work is timed in wall time, so that workers left waiting count:
the wall time, less the time stolen per vCPU and less the handler's time
shared over the workers, divided by the same slowdown. Worker processes
inherit no timer, so they are not sampled; the parent samples whichever vCPU
it is scheduled on while the workers run.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

PERIOD_S = 0.1
WINDOW_S = 2.0
REFERENCE_S = 0.0025  # median of the loop on the 2-vCPU machine the baseline was recorded on


def calibration_loop() -> None:
    """Fixed work of the program's kind: integer bit operations, a dict, calls."""
    table: dict[int, int] = {}
    x = 0
    for _ in range(5000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 7).bit_count()


def stolen_seconds() -> float:
    """Time the hypervisor has stolen from the usable vCPUs so far, per vCPU (0 when unknown)."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(f[8]) for f in (line.split() for line in fh) if f[0] in cpus and len(f) > 8]
    except OSError:
        return 0.0
    return sum(ticks) / os.sysconf("SC_CLK_TCK") / len(cpus)


class SpeedSampler:
    """Samples the calibration loop while active; scales intervals afterwards."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, wall s, thread cpu s)
        self.handler_ns = 0  # thread processor time spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time_ns()
        calibration_loop()
        cpu = time.thread_time_ns() - cpu
        self.handler_ns += cpu
        self.samples.append((start, time.perf_counter() - start, cpu / 1e9))

    def clock_ns(self) -> int:
        """Thread processor time without the handler's, for spans timed while sampling."""
        return time.thread_time_ns() - self.handler_ns

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown against the reference over [start - WINDOW_S, end + WINDOW_S]."""
        near = [s[2] for s in self.samples if start - WINDOW_S <= s[0] < end + WINDOW_S]
        near = near or [s[2] for s in self.samples]
        return statistics.mean(near) / REFERENCE_S if near else 1.0

    def _handler_s(self, start: float, end: float) -> float:
        return sum(s[2] for s in self.samples if start <= s[0] < end)

    def scaled(self, start: float, end: float, cpu: float) -> float:
        """Processor seconds spent in [start, end], less the handler's, at the reference speed."""
        return (cpu - self._handler_s(start, end)) / self.slowdown(start, end)

    def scaled_wall(self, start: float, end: float, stolen: float, workers: int) -> float:
        """Wall seconds of parallel work in [start, end] at the reference speed.

        ``stolen`` is the time stolen per vCPU meanwhile. The handler's
        processor time is shared over the ``workers`` the work keeps busy.
        """
        handler = self._handler_s(start, end)
        return (end - start - stolen - handler / workers) / self.slowdown(start, end)
