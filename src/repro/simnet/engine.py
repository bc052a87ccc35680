"""The discrete-event queue and simulated clock.

A classic calendar-based DES core: events are ``(time, seq, callback)``
tuples; ties break by insertion order so runs are deterministic for a
given seed.  The whole interface is timestamp-ordered scheduling,
:meth:`Simulator.peek_time` and :meth:`Simulator.run` up to a horizon --
what the single-heap and the conservative parallel runs need.

The hot path is built around two ideas:

* **Slim heap entries.**  Entries are plain tuples, so ``heapq`` orders
  them with C-level tuple comparison -- no dataclass ``__lt__``
  dispatch, no attribute chasing.  ``seq`` is unique, so the comparison
  never reaches the callback.
* **A bucketed near-future event wheel.**  High-rate homogeneous timers
  (poll loops, NIC DMA ticks, link serialization) go through
  :meth:`Simulator.schedule_timer_at`, which files them into per-quantum
  mini-heap buckets instead of the main heap.  Most such timers land a
  fixed small delay ahead of ``now``, so each bucket stays tiny and the
  wheel replaces ``O(log n)`` heap churn with near-``O(1)`` dict pushes.
  The run loop merges the wheel head and the heap head by ``(time,
  seq)``, so global execution order is exactly what a single heap would
  produce.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Optional

from ..errors import SimulationError

_INF = float("inf")


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    ``metrics`` (or the active :mod:`repro.obs` registry, when enabled)
    receives a ``sim_events`` timeline of executed events -- the event-
    rate trajectory bottleneck reports bin everything else against --
    plus an ``engine_wall_seconds`` counter of real time spent inside
    :meth:`run` (what the BENCH engine-speed fields are built from).
    When the registry carries a :class:`~repro.obs.profile.SpanProfiler`
    the engine also resets its span stack at each event boundary, so
    frames pushed by one callback can never leak into the next.  All
    hooks are resolved once at construction and :meth:`run` dispatches
    to a pre-bound loop, so an un-instrumented run pays nothing per
    event for observability.
    """

    def __init__(self, metrics=None):
        from ..obs.metrics import active_registry
        self._heap = []
        # The wheel: bucket index -> mini-heap of entries, plus a
        # min-heap of live bucket indices.  The quantum is learned from
        # the first timer filed strictly after ``now`` (deterministic).
        self._buckets = {}
        self._bucket_keys = []
        self._quantum = 0.0
        self._seq = itertools.count()
        self.now = 0.0
        self.events_run = 0
        registry = metrics if metrics is not None else active_registry()
        if registry.enabled:
            self._obs_events = registry.timeline("sim_events")
            self._obs_wall = registry.counter(
                "engine_wall_seconds",
                help="real time spent inside Simulator.run")
            self._profiler = registry.profiler
        else:
            self._obs_events = None
            self._obs_wall = None
            self._profiler = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)"
                                  % delay)
        heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                "cannot schedule at %r, clock already at %r" % (time, self.now))
        heappush(self._heap, (time, next(self._seq), callback))

    def schedule_timer(self, delay: float,
                       callback: Callable[[], None]) -> None:
        """Relative-time variant of :meth:`schedule_timer_at`."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)"
                                  % delay)
        self.schedule_timer_at(self.now + delay, callback)

    def schedule_timer_at(self, time: float,
                          callback: Callable[[], None]) -> None:
        """File ``callback`` at absolute ``time`` on the event wheel.

        The fast path for high-rate homogeneous timers, and the one
        routine every wheel entry goes through.  Execution order
        relative to heap events is still globally (time, seq).  Until
        the wheel's quantum is known, a timer at ``now`` goes to the
        heap (always correct); the first timer strictly after ``now``
        sets the quantum to its delay.
        """
        now = self.now
        if time < now:
            raise SimulationError(
                "cannot schedule at %r, clock already at %r" % (time, now))
        quantum = self._quantum
        if quantum == 0.0:
            if time <= now:
                heappush(self._heap, (time, next(self._seq), callback))
                return
            self._quantum = quantum = time - now
        index = int(time / quantum)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [(time, next(self._seq), callback)]
            heappush(self._bucket_keys, index)
        else:
            heappush(bucket, (time, next(self._seq), callback))

    def preschedule_timers(self, times, callback: Callable[[], None]) -> None:
        """File ``callback`` at every time in ``times`` on the event wheel.

        The batch arrival path schedules an entire run's worth of
        identical arrival events up front, before :meth:`run` starts.
        Each entry gets a fresh sequence number in list order, exactly
        as per-event :meth:`schedule_timer_at` calls would.
        """
        file_at = self.schedule_timer_at
        for time in times:
            file_at(time, callback)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or None if the queue is empty."""
        heap = self._heap
        if self._bucket_keys:
            wheel_time = self._buckets[self._bucket_keys[0]][0][0]
            if heap and heap[0][0] <= wheel_time:
                return heap[0][0]
            return wheel_time
        return heap[0][0] if heap else None

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run events up to and including ``until``, or until the queue
        drains.

        ``until`` advances the clock to exactly that time even if the
        queue drains earlier, so rate computations over a fixed window
        are exact.
        """
        horizon = _INF if until is None else until
        if self._obs_wall is None:
            self._run_plain(horizon)
        else:
            start = perf_counter()
            try:
                self._run_instrumented(horizon)
            finally:
                self._obs_wall.inc(perf_counter() - start)
        if until is not None and self.now < until:
            self.now = until

    def _run_plain(self, horizon: float) -> None:
        """Merged heap+wheel loop with every hot name bound to a local."""
        heap = self._heap
        buckets = self._buckets
        keys = self._bucket_keys
        pop = heappop
        executed = 0
        try:
            while True:
                if keys:
                    bucket = buckets[keys[0]]
                    entry = bucket[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > horizon:
                            return
                        pop(heap)
                    else:
                        if entry[0] > horizon:
                            return
                        pop(bucket)
                        if not bucket:
                            del buckets[keys[0]]
                            pop(keys)
                elif heap:
                    entry = heap[0]
                    if entry[0] > horizon:
                        return
                    pop(heap)
                else:
                    return
                self.now = entry[0]
                entry[2]()
                executed += 1
        finally:
            self.events_run += executed

    def _run_instrumented(self, horizon: float) -> None:
        """Same loop with the observability hooks inlined (no per-event
        attribute chasing or closure calls; the ``is None`` checks ran
        once, here).  The span-stack reset and the ``sim_events``
        timeline's bin update are open-coded: both touch stable objects
        (the profiler's stack list, the timeline's bin dict), so binding
        them once is exactly equivalent to calling per event."""
        heap = self._heap
        buckets = self._buckets
        keys = self._bucket_keys
        pop = heappop
        profiler = self._profiler
        # Truthiness doubles as the None check: an empty stack and a
        # missing profiler both skip the clear.
        prof_stack = profiler._stack if profiler is not None else None
        timeline = self._obs_events
        bin_sec = timeline.bin_sec
        # Bin dict of the unlabeled sim_events series; resolved after the
        # first record() so the series is created only by an event.
        ebins = None
        executed = 0
        try:
            while True:
                if keys:
                    bucket = buckets[keys[0]]
                    entry = bucket[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > horizon:
                            return
                        pop(heap)
                    else:
                        if entry[0] > horizon:
                            return
                        pop(bucket)
                        if not bucket:
                            del buckets[keys[0]]
                            pop(keys)
                elif heap:
                    entry = heap[0]
                    if entry[0] > horizon:
                        return
                    pop(heap)
                else:
                    return
                now = entry[0]
                self.now = now
                if prof_stack:
                    del prof_stack[:]
                entry[2]()
                executed += 1
                if ebins is not None:
                    index = int(now / bin_sec)
                    cell = ebins.get(index)
                    if cell is None:
                        ebins[index] = [1.0, 1, 1.0]
                    else:
                        cell[0] += 1.0
                        cell[1] += 1
                else:
                    timeline.record(now)
                    ebins = timeline._series[()].bins
        finally:
            self.events_run += executed
