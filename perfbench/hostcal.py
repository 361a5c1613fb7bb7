"""Host-speed calibration: a fixed kernel timed right next to each op.

The benchmark host is a shared VM whose co-tenants slow every operation
by up to ~1.8x, in phases that switch within a few hundred milliseconds.
An op's wall time therefore says as much about the neighbours as about
the program.  Like the paper's contention model, which accounts for the
interference a contender adds to each request, the benchmark accounts
for the host, in two parts:

* *Slower execution* (a busy sibling hyperthread, a throttled core): a
  fixed calibration kernel is timed in the same thread right before the
  op, every ``SAMPLE_PERIOD`` seconds during it (from an interval-timer
  signal handler, whose CPU time is taken out of the op's) and right
  after it.  A sample runs the kernel twice and times the second run,
  so it reads warm caches whatever the op left in them.  The op is
  reported at a nominal host speed, ``t_nominal = t_op * C_nominal /
  t_cal``, with ``t_cal`` the mean kernel time over those samples.
  Sampling during the op matters: with the kernel run only before the
  op the per-op spread of matrix rows fell from 21% to 13%; with
  samples during it, to 5%.
* *Lost turns on the CPU* (another process preempting the benchmark):
  the kernel is timed in thread CPU time, and the op's time excludes
  the time its thread sat runnable on the run queue, read from
  ``/proc/self/task/<tid>/schedstat``.  Voluntary waits (I/O, sleeps,
  locks) still count.  Where the file does not exist the wall time is
  used as it is.

The kernel mixes the instruction types the program itself spends its
time on (tuple-keyed dict updates, small-tuple allocation, short NumPy
slice reductions) and runs with the garbage collector disabled, so the
program's heap size cannot change its cost.  It must never call the
program under test: a later change to the program would otherwise move
the yardstick along with the thing it measures.

One blind spot remains: a thread of the program itself that competes
for the CPU would slow the kernel and add run-queue time too, and the
normalisation would hide it.  ``host.bg_cpu_s`` (process CPU minus the
main thread's during ops) exposes that case.  And a process in the same
machine that preempts the op evicts its caches: the op pays for the
refill, the warmed samples do not: a pinned busy loop that makes an
op 2.7x slower in wall time still moves its normalised time by ~13%.
"""

from __future__ import annotations

import dataclasses
import gc
import signal
import statistics
import threading
import time
from typing import Any, Callable

import numpy as np

#: Loop trips of one kernel repetition (about 2.5 ms on a 2020s x86 core).
KERNEL_TRIPS = 3600
#: Repetitions per calibration; their median is the reading, which
#: discards a repetition hit by a one-off stall.
KERNEL_REPS = 3
#: Seconds between kernel samples taken during an op.
SAMPLE_PERIOD = 0.02
#: Loop trips of one sample (a twelfth of a repetition, ~0.2 ms).
SAMPLE_TRIPS = KERNEL_TRIPS // 12

#: The kernel's array: 256 KiB, an L2-sized working set.  A kernel that
#: stays in L1 slowed under co-tenant load by 4% per millisecond of
#: calibration time more than the matrix rows did; this one by 2%.
_ARRAY = np.arange(32 * 1024, dtype=np.int64)


def kernel(trips: int = KERNEL_TRIPS) -> int:
    """One repetition of the calibration workload; returns a checksum."""
    table: dict[tuple[int, int], int] = {}
    array = _ARRAY
    span = len(array) - 96
    checksum = 0
    for i in range(trips):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + i
        pair = (key, i)
        if i & 3 == 0:
            start = (i * 506_816) % span
            checksum += int(array[start:start + 96].sum()) + pair[1]
    return checksum + len(table)


def _kernel_seconds(trips: int) -> float:
    """Thread CPU time of one kernel run of ``trips``, gc disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time_ns()
        kernel(trips)
        return (time.thread_time_ns() - start) / 1e9
    finally:
        if was_enabled:
            gc.enable()


def sample() -> tuple[float, float]:
    """One in-op sample: the kernel repetition time it reads, and the
    CPU time it took.

    The untimed first run touches exactly the lines the timed one does,
    so the reading is taken on warm caches whatever ran before it.
    """
    started = time.thread_time_ns()
    _kernel_seconds(SAMPLE_TRIPS)
    elapsed = _kernel_seconds(SAMPLE_TRIPS)
    spent = (time.thread_time_ns() - started) / 1e9
    return elapsed * KERNEL_TRIPS / SAMPLE_TRIPS, spent


def calibrate(reps: int = KERNEL_REPS) -> float:
    """Median CPU time of ``reps`` kernel repetitions, in seconds."""
    return statistics.median(_kernel_seconds(KERNEL_TRIPS) for _ in range(reps))


def run_queue_ns() -> int:
    """Nanoseconds the calling thread has waited on a run queue (0 where
    the kernel does not report it)."""
    path = f"/proc/self/task/{threading.get_native_id()}/schedstat"
    try:
        with open(path) as handle:
            return int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0


@dataclasses.dataclass
class Timing:
    """One timed call: its result, its time (see :func:`timed`), the
    kernel time ``cal`` over it, and its perf_counter_ns start and end."""

    result: Any
    seconds: float
    cal: float
    start: int
    end: int

    @property
    def wall(self) -> float:
        """The call's raw wall time, samples and run-queue waits included."""
        return (self.end - self.start) / 1e9


def timed(fn: Callable[[], Any], normalise: bool = True) -> Timing:
    """Run ``fn()`` between calibrations and return its :class:`Timing`.

    With ``normalise``, ``seconds`` is the call's wall time less its
    run-queue wait and less the CPU time of the kernel samples taken
    during it, and ``cal`` is the mean kernel repetition time over the
    calibrations before and after the call and those samples (scaled to
    a full repetition).  Without it, ``seconds`` is the raw wall time and
    ``cal`` the calibration before the call.  An exception from ``fn``
    propagates after the sampling timer is stopped.
    """
    readings = [calibrate()]
    spent = 0.0

    def take_sample(signum, frame) -> None:
        nonlocal spent
        reading, cost = sample()
        spent += cost
        readings.append(reading)

    previous = None
    queued = 0
    if normalise:
        previous = signal.signal(signal.SIGALRM, take_sample)
        queued = run_queue_ns()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
    start = time.perf_counter_ns()
    try:
        result = fn()
    finally:
        end = time.perf_counter_ns()
        if normalise:
            signal.setitimer(signal.ITIMER_REAL, 0)
            queued = run_queue_ns() - queued
            signal.signal(signal.SIGALRM, previous)
    seconds = (end - start) / 1e9
    if normalise:
        seconds -= queued / 1e9 + spent
        readings.append(calibrate())
    return Timing(result, seconds, statistics.fmean(readings), start, end)
