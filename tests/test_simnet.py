"""Tests for the discrete-event simulation engine."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.net import Packet
from repro.obs.metrics import Reservoir
from repro.simnet import FiniteQueue, Link, Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(0.5, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 1.5]

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_past_drained_queue(self):
        """The run() contract: ``until`` lands the clock on the horizon
        even when the queue drains first."""
        sim = Simulator()
        fired = []
        for i in range(2):
            sim.schedule(i + 1.0, lambda i=i: fired.append(i))
        sim.run(until=10.0)
        assert fired == [0, 1]
        assert sim.now == 10.0
        assert sim.peek_time() is None

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_events_run_counts_executions(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_timer(3.0, lambda: None)
        sim.run()
        assert sim.events_run == 2

    def test_schedule_timer_interleaves_with_heap_events(self):
        sim = Simulator()
        order = []
        sim.schedule_timer(1.0, lambda: order.append("w1"))
        sim.schedule(1.0, lambda: order.append("h1"))
        sim.schedule_timer(1.0, lambda: order.append("w2"))
        sim.schedule(2.0, lambda: order.append("h2"))
        sim.schedule_timer_at(2.0, lambda: order.append("w3"))
        sim.run()
        assert order == ["w1", "h1", "w2", "h2", "w3"]
        assert sim.now == 2.0

    def test_schedule_timer_rejects_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_timer(-0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_timer_at(0.5, lambda: None)

    def test_peek_time_covers_wheel(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_timer(0.5, lambda: None)
        assert sim.peek_time() == 0.5
        sim.run()
        assert sim.peek_time() is None


class _ReferenceQueue:
    """The ordering contract with no engine in it: pending events kept
    in a plain list and run in ``sorted((time, insertion_index))``
    order, re-sorted after every callback."""

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._inserted = 0

    def add(self, time, callback):
        self._pending.append((time, self._inserted, callback))
        self._inserted += 1

    def run(self):
        while self._pending:
            self._pending = sorted(self._pending, key=lambda e: e[:2])
            time, _, callback = self._pending.pop(0)
            self.now = time
            callback()


_KINDS = ("schedule", "schedule_at", "schedule_timer", "schedule_timer_at",
          "preschedule_timers")
#: Binary-exact grid offsets make ties common; 0.1 and 0.3 are not on the
#: grid, and 0.0 exercises the heap fallback before the wheel's quantum
#: is known.
_OFFSETS = st.lists(st.sampled_from([0.0, 0.0625, 0.125, 0.25, 0.1, 0.3,
                                     1.0]), min_size=1, max_size=3)
_CALL = st.tuples(st.sampled_from(_KINDS), _OFFSETS)
_PROGRAM = st.lists(st.tuples(_CALL, st.lists(_CALL, max_size=3)),
                    min_size=1, max_size=12)


def _file(sim, kind, offsets, make_callback):
    """Make one scheduling call of ``kind`` on ``sim`` (engine or
    reference); ``make_callback(i)`` builds the callback for the
    ``i``-th time the call files."""
    now = sim.now
    if kind == "preschedule_timers":
        times = sorted(now + offset for offset in offsets)
    else:
        times = [now + offsets[0]]
    callbacks = [make_callback(i) for i in range(len(times))]
    if isinstance(sim, _ReferenceQueue):
        for time, callback in zip(times, callbacks):
            sim.add(time, callback)
    elif kind == "preschedule_timers":
        # The engine files one shared callback; its k-th run is the k-th
        # filed time (ascending times, ascending seq).
        runs = itertools.count()
        sim.preschedule_timers(times, lambda: callbacks[next(runs)]())
    elif kind in ("schedule", "schedule_timer"):
        getattr(sim, kind)(offsets[0], callbacks[0])
    else:
        getattr(sim, kind)(times[0], callbacks[0])


def _execute(sim, program, log):
    for top, ((kind, offsets), children) in enumerate(program):
        def make_parent(i, top=top, children=children):
            def parent():
                log.append((sim.now, (top, i)))
                for child, (child_kind, child_offsets) in enumerate(children):
                    _file(sim, child_kind, child_offsets,
                          lambda j, child=child: (
                              lambda: log.append((sim.now, (top, i, child, j)))))
            return parent
        _file(sim, kind, offsets, make_parent)


class TestDifferentialOrder:
    """The heap+wheel engine against the sorted-list reference."""

    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAM,
           epoch=st.sampled_from([None, 0.05, 0.0625, 0.125, 0.3, 1.0]))
    def test_order_matches_sorted_reference(self, program, epoch):
        reference = _ReferenceQueue()
        expected = []
        _execute(reference, program, expected)
        reference.run()

        sim = Simulator()
        got = []
        _execute(sim, program, got)
        horizon = 2.5  # past every filed time (1.0 + 1.0 at most)
        if epoch is None:
            sim.run(until=horizon)
        else:
            t = 0.0
            while t < horizon:
                t = min(t + epoch, horizon)
                sim.run(until=t)
        assert got == expected
        assert sim.events_run == len(expected)
        assert sim.peek_time() is None
        assert sim.now == horizon

class TestFiniteQueue:
    def test_fifo_order(self):
        q = FiniteQueue(capacity=3)
        for i in range(3):
            assert q.offer(i)
        assert [q.poll(), q.poll(), q.poll()] == [0, 1, 2]

    def test_overflow_drops(self):
        q = FiniteQueue(capacity=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.dropped == 1
        assert q.drop_rate() == pytest.approx(1 / 3)

    def test_poll_empty(self):
        assert FiniteQueue(capacity=1).poll() is None

    def test_batch_poll(self):
        q = FiniteQueue(capacity=10)
        for i in range(5):
            q.offer(i)
        assert q.poll_batch(3) == [0, 1, 2]
        assert len(q) == 2

    def test_high_watermark(self):
        q = FiniteQueue(capacity=10)
        for i in range(4):
            q.offer(i)
        q.poll()
        assert q.high_watermark == 4

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            FiniteQueue(capacity=0)


class TestLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        got = []
        link = Link(sim, "l", rate_bps=8e6, deliver=lambda p: got.append(sim.now),
                    propagation_sec=1e-3)
        packet = Packet.udp("1.1.1.1", "2.2.2.2", length=1000)  # 8000 bits
        assert link.send(packet)
        sim.run()
        # 8000 bits at 8 Mbps = 1 ms serialization + 1 ms propagation.
        assert got == [pytest.approx(2e-3)]

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        times = []
        link = Link(sim, "l", rate_bps=8e6, deliver=lambda p: times.append(sim.now),
                    propagation_sec=0.0)
        for _ in range(3):
            link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=1000))
        sim.run()
        assert times == [pytest.approx(1e-3), pytest.approx(2e-3),
                         pytest.approx(3e-3)]

    def test_fifo_no_reordering_on_one_link(self):
        sim = Simulator()
        got = []
        link = Link(sim, "l", rate_bps=1e9, deliver=lambda p: got.append(p.flow_seq))
        for seq in range(20):
            packet = Packet.udp("1.1.1.1", "2.2.2.2", length=100)
            packet.flow_seq = seq
            link.send(packet)
        sim.run()
        assert got == list(range(20))

    def test_queue_overflow(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e3, deliver=lambda p: None,
                    queue_packets=2)
        results = [link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))
                   for _ in range(5)]
        # One in flight + 2 queued; the rest dropped.
        assert results.count(False) >= 1
        assert link.queue.dropped >= 1

    def test_utilization(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=8e6, deliver=lambda p: None)
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=1000))
        sim.run()
        assert link.utilization(2e-3) == pytest.approx(0.5)

    def test_queued_bits(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e3, deliver=lambda p: None)
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))  # in flight
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))  # queued
        assert link.queued_bits() == 800
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=60))  # queued
        assert link.queued_bits() == 1280
        assert link.flush() == 2
        assert link.queued_bits() == 0
        link.send(Packet.udp("1.1.1.1", "2.2.2.2", length=100))  # queued
        sim.run()
        assert link.queued_bits() == 0


class TestStats:
    """The exact-quantile reservoir behind the DES reports' latencies."""

    def test_histogram_percentiles(self):
        h = Reservoir()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99
        assert h.min() == 1
        assert h.percentile(100) == 100
        assert h.mean() == pytest.approx(50.5)

    def test_histogram_unsorted_input(self):
        h = Reservoir()
        for v in (5, 1, 3, 2, 4):
            h.observe(v)
        assert h.percentile(100) == 5
        assert h.percentile(60) == 3

    def test_histogram_empty_raises(self):
        with pytest.raises(ValueError):
            Reservoir().mean()
        with pytest.raises(ValueError):
            Reservoir().percentile(50)

    def test_histogram_bad_percentile(self):
        h = Reservoir()
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)
