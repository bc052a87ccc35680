"""Batch-native dataplane: PacketBatch semantics, scalar/batch
equivalence across every preset pipeline, drop accounting, and the
timed forwarding loop against its scalar-loop goldens.

The equivalence tests are the contract the fast path lives under:
batching may only change wall-clock time.  Every forwarded/dropped
count, per-element counter, and compiled load vector must be *equal*
(integers) or byte-identical (floats follow the same operation chains).
``TimedPipelineRun`` still keeps its scalar loop as the in-process
reference; ``TimedForwardingRun`` has only the batch loop, so it is held
to goldens recorded from the scalar loop it replaced.
"""

import json
from pathlib import Path

import pytest

from repro.click import (
    CheckIPHeader,
    Discard,
    PollDevice,
    Scheduler,
    ToDevice,
)
from repro.click.element import Element
from repro.click.elements.standard import Paint
from repro.click.pipelines import PRESET_PIPELINES
from repro.click.simrun import TimedForwardingRun, TimedPipelineRun
from repro.costs import compile_loads
from repro.hw import nehalem_server
from repro.net import Packet
from repro.net.batch import NO_PAINT, PacketBatch
from repro.obs.metrics import MetricsRegistry, _label_str, use_registry

PACKET_BYTES = 64


def _udp(dst="10.1.0.5", length=64, ttl=64):
    return Packet.udp("192.168.0.1", dst, length=length, ttl=ttl)


class _ScalarSink(Element):
    """A sink with no batch override: batches reaching it go through the
    base-class fallback, which syncs column mutations into the packets."""

    n_outputs = 0

    def process(self, packet: Packet, port: int) -> None:
        self.drop(packet, "sink")


# -- PacketBatch unit tests --------------------------------------------------

class TestPacketBatch:
    def test_from_packets_gathers_columns(self):
        packets = [_udp(dst="10.%d.0.1" % i, length=64 + i, ttl=10 + i)
                   for i in range(4)]
        batch = PacketBatch.from_packets(packets)
        assert len(batch) == 4
        assert batch.total_bytes == sum(p.length for p in packets)
        assert list(batch.lengths) == [p.length for p in packets]
        assert list(batch.ttl) == [p.ip.ttl for p in packets]
        assert list(batch.dst) == [p.ip.dst.value for p in packets]
        assert batch.has_ip.all()

    def test_non_ip_rows_zeroed(self):
        batch = PacketBatch.from_packets([_udp(), Packet(length=64)])
        assert list(batch.has_ip) == [True, False]
        assert batch.dst[1] == 0

    def test_packet_returns_underlying_object(self):
        packets = [_udp(), _udp()]
        batch = PacketBatch.from_packets(packets)
        assert batch.packet(1) is packets[1]
        assert batch.materialize_all() == packets

    def test_select_by_mask_preserves_order(self):
        packets = [_udp(length=64 + i) for i in range(5)]
        batch = PacketBatch.from_packets(packets)
        sub = batch.select(batch.lengths >= 66)
        assert list(sub.lengths) == [66, 67, 68]
        assert sub.packet(0) is packets[2]

    def test_sync_flushes_ip_columns(self):
        packets = [_udp(ttl=9), _udp(ttl=5)]
        batch = PacketBatch.from_packets(packets)
        batch.ttl -= 1
        batch.checksum[:] = 7
        batch.mark_ip_dirty()
        out = batch.sync()
        assert [p.ip.ttl for p in out] == [8, 4]
        assert all(p.ip.checksum == 7 for p in out)

    def test_sync_flushes_paint_annotation(self):
        packets = [_udp(), _udp()]
        batch = PacketBatch.from_packets(packets)
        paint = batch.paint_column()
        assert (paint == NO_PAINT).all()
        paint[1] = 3
        batch.sync()
        assert "paint" not in packets[0].annotations
        assert packets[1].annotations["paint"] == 3

    def test_from_columns_materializes_lazily(self):
        made = []

        def materialize(i):
            made.append(i)
            return _udp(length=100 + i)

        batch = PacketBatch.from_columns(
            lengths=[100, 101], dst=[1, 2], src=[3, 4], ttl=[64, 64],
            proto=[17, 17], total_length=[86, 87],
            materialize=materialize)
        assert made == []
        assert batch.packet(1).length == 101
        assert made == [1]


# -- drop accounting ---------------------------------------------------------

class TestDropAccounting:
    def _bad(self):
        return Packet(length=64)  # no IP header -> invalid_header

    def test_scalar_drop_tags_cause(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            check = CheckIPHeader()
        check.connect_to(Discard())
        check.receive(self._bad())
        check.receive(_udp())
        assert check.packets_dropped == 1
        series = registry._metrics["element_drops"].series()
        assert len(series) == 1
        (key, count), = series.items()
        assert "invalid_header" in key and count == 1

    def test_batch_drop_matches_scalar(self):
        def feed(batched):
            registry = MetricsRegistry(enabled=True)
            with use_registry(registry):
                check = CheckIPHeader()
            check.connect_to(Discard())
            packets = [self._bad(), _udp(), self._bad(), _udp(ttl=0)]
            if batched:
                check.receive_batch(PacketBatch.from_packets(packets), 0)
            else:
                for packet in packets:
                    check.receive(packet)
            return (check.packets_in, check.packets_dropped, check.invalid,
                    registry._metrics["element_drops"].series())

        assert feed(batched=False) == feed(batched=True)
        assert feed(batched=True)[1] == 3


# -- scheduler rounds --------------------------------------------------------

class TestSchedulerBatchRounds:
    def _forwarding(self):
        server = nehalem_server(num_ports=2, queues_per_port=8)
        scheduler = Scheduler()
        thread = scheduler.spawn(server.cores[0])
        poll = PollDevice(server.port(0), queue_id=0)
        to_dev = ToDevice(server.port(1), queue_id=0)
        poll.connect_to(to_dev)
        thread.add_poll_task(poll)
        thread.own(to_dev)
        return server, scheduler, poll, to_dev

    def test_batch_round_matches_scalar(self):
        """Rounds are batch-native; the counts and cycle charge are the
        ones the per-packet scalar round produced on the same input."""
        server, scheduler, poll, to_dev = self._forwarding()
        for _ in range(10):
            server.port(0).rx_queues[0].push(_udp())
        moved = scheduler.run_rounds(2)
        assert (moved, poll.packets_in, poll.bytes_in, poll.empty_polls,
                len(to_dev.drain())) == (10, 10, 640, 1, 10)
        assert server.cores[0].cycles_used == 11735.5


# -- state extraction shared by the equivalence and golden tests -------------

def _jsonable(value):
    """The JSON round trip the goldens went through (tuples become lists;
    floats survive bit for bit)."""
    return json.loads(json.dumps(value))


def _report_row(report):
    return [report.offered_packets, report.forwarded_packets,
            report.dropped_packets, report.empty_polls, report.total_polls,
            report.residual_backlog, report.achieved_bps]


def _registry_state(registry, trace_ids=True):
    """Everything ``registry`` recorded except ``engine_wall_seconds`` (the
    one wall-clock number).  Packet ids come from a process-global
    counter, so ``trace_ids`` rebases them to the first trace's id."""
    metrics = {}
    for name, metric in sorted(registry._metrics.items()):
        if name == "engine_wall_seconds":
            continue
        if metric.kind == "timeline":
            metrics[name] = {_label_str(key): sorted(series.bins.items())
                             for key, series in sorted(metric._series.items())}
        else:
            metrics[name] = metric.series()
    tracer = registry.tracer
    base = tracer.traces[0].packet_id if tracer.traces else 0
    traces = [[[hop.site, hop.time, hop.note] for hop in trace.hops]
              for trace in tracer.traces]
    if trace_ids:
        traces = [[trace.packet_id - base] + hops
                  for trace, hops in zip(tracer.traces, traces)]
    profile = (registry.profiler.to_dict(max_rows=10 ** 6)
               if registry.profiler is not None else None)
    return _jsonable({"metrics": metrics,
                      "tracer": [tracer.seen, tracer.sampled],
                      "traces": traces, "profile": profile})


# -- scalar/batch equivalence over every preset pipeline ---------------------

def _pipeline_state(preset, batch, metrics=None):
    server = nehalem_server(num_ports=1, queues_per_port=2)
    run = TimedPipelineRun(server, preset, packet_bytes=PACKET_BYTES,
                           kp=8, kn=4, batch=batch, metrics=metrics)
    report = run.run(4e9, duration_sec=1e-3, seed=1)
    counters = {}
    for index, replica in enumerate(run.replicas):
        for element in replica.elements:
            counters[(index, element.name)] = (
                element.packets_in, element.bytes_in,
                element.packets_out, element.packets_dropped)
    loads = compile_loads(run.replicas[0].graph, packet_bytes=PACKET_BYTES)
    cycles = [core.cycles_used for core in server.cores]
    return (report.offered_packets, report.forwarded_packets,
            report.dropped_packets, report.empty_polls, report.total_polls,
            report.residual_backlog), counters, loads, cycles


@pytest.mark.parametrize("preset", sorted(PRESET_PIPELINES))
def test_preset_pipeline_scalar_batch_equivalence(preset):
    scalar = _pipeline_state(preset, batch=False)
    batched = _pipeline_state(preset, batch=True)
    assert scalar[0] == batched[0]   # report scalars
    assert scalar[1] == batched[1]   # every per-element counter
    assert scalar[2] == batched[2]   # compiled load vector
    assert scalar[3] == batched[3]   # per-core cycle charges
    assert scalar[0][1] > 0          # and the run actually forwarded


@pytest.mark.parametrize("preset", sorted(PRESET_PIPELINES))
def test_preset_pipeline_equivalence_under_observability(preset):
    """The same comparison under the registry ``obs explain`` uses:
    metrics, profile and traces must match too."""
    states = []
    for batch in (False, True):
        registry = MetricsRegistry(enabled=True, profile=True,
                                   trace_sample_every=16)
        states.append((_pipeline_state(preset, batch, metrics=registry),
                       _registry_state(registry)))
    (scalar, scalar_obs), (batched, batched_obs) = states
    assert scalar == batched
    assert scalar_obs == batched_obs
    assert scalar_obs["traces"]      # the sampler actually fired


# -- the forwarding loop against the scalar loop's goldens -------------------

#: Recorded from the event-per-arrival scalar ``TimedForwardingRun`` loop
#: before it was retired, with the state helpers in this module; see
#: ``tests/golden/README.md``.
GOLDEN = json.loads((Path(__file__).parent / "golden"
                     / "timed_forwarding_scalar.json").read_text())


def _forwarding_state():
    """The observed run: registry on, default 1-in-64 trace sampling.

    Trace hops are compared without packet ids: the scalar loop built
    one packet (one id) per arrival, the batch loop materializes only
    the sampled ones.  Each trace's arrival hop pins its position.
    """
    registry = MetricsRegistry(enabled=True)
    server = nehalem_server()
    run = TimedForwardingRun(server, packet_bytes=PACKET_BYTES,
                             kp=32, kn=16, metrics=registry)
    report = run.run(5e9, duration_sec=1e-3, seed=3)
    return _jsonable({"report": _report_row(report),
                      "registry": _registry_state(registry,
                                                  trace_ids=False),
                      "cycles": [core.cycles_used for core in server.cores]})


def _grid_state():
    """Sizes x (kp, kn) x offered rates, no registry: below, at and far
    above saturation, so empty polls, backlog and ring drops all occur."""
    rows = []
    for packet_bytes in (64, 128, 512, 1024):
        for kp, kn in ((1, 1), (32, 1), (32, 16)):
            for gbps in (1, 5, 12, 30):
                server = nehalem_server()
                run = TimedForwardingRun(server, packet_bytes=packet_bytes,
                                         kp=kp, kn=kn)
                report = run.run(gbps * 1e9, duration_sec=2e-4)
                rows.append({"config": [packet_bytes, kp, kn, gbps],
                             "report": _report_row(report),
                             "cycles": [core.cycles_used
                                        for core in server.cores]})
    return _jsonable(rows)


def test_forwarding_run_bit_identical_under_observability():
    state = _forwarding_state()
    golden = GOLDEN["observed"]
    assert state["report"] == golden["report"]
    assert state["cycles"] == golden["cycles"]
    assert state["registry"] == golden["registry"]
    assert state["report"][1] > 0


def test_forwarding_grid_matches_scalar_golden():
    rows = _grid_state()
    assert len(rows) == len(GOLDEN["grid"]) == 48
    for row, golden in zip(rows, GOLDEN["grid"]):
        assert row == golden, row["config"]
    assert any(row["report"][2] for row in rows)   # some ring drops


def test_batch_paint_column_equals_scalar_annotation():
    """A Paint->CheckIPHeader chain run as columns leaves the same
    annotations the scalar chain writes."""
    def run(batched):
        paint = Paint(5)
        paint.connect_to(_ScalarSink())
        packets = [_udp(), _udp()]
        if batched:
            paint.receive_batch(PacketBatch.from_packets(packets), 0)
        else:
            for packet in packets:
                paint.receive(packet)
        return [p.annotations.get("paint") for p in packets]

    assert run(batched=False) == run(batched=True) == [5, 5]
