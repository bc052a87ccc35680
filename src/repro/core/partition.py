"""The cluster simulation: one partition of it, and the merge step.

:class:`ClusterPartition` is the one shard of a cluster run.  It builds
the subset of a :class:`~repro.core.router.RouteBricksRouter` cluster
assigned to it -- local nodes, local-to-local mesh links, and
:class:`~repro.simnet.partition.CrossLink` boundaries for every directed
cable whose receive side lives elsewhere -- on a private
:class:`~repro.simnet.engine.Simulator`, and owns the outbox of
transit records (:class:`~repro.simnet.partition.TransitRecord`) its
cross-links fill.  The single-heap run *is* the one-partition case:
:meth:`RouteBricksRouter.simulate` builds one partition owning every
node, advances it to the horizon and reports its :meth:`finish`.  Node
seeds come from one :func:`~repro.simnet.rng.node_seeds` chain, so node
``i`` rolls identical dice no matter how the cluster is sharded -- the
keystone of the workers-independence guarantee.

:meth:`ClusterPartition.finish` returns a
:class:`~repro.core.router.SimulationReport` covering the partition's
own nodes; :func:`merge_reports` folds those reports in partition-id
order, so merged scalars are bit-identical run to run and -- for
fault-free runs -- bit-identical at any partition count.

:func:`realize_arrivals` validates and realizes a run's traffic for both
entry points.  The driving epoch loop of a multi-partition run lives in
:mod:`repro.parallel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet
from ..obs.hooks import ClusterObserver
from ..obs.metrics import MetricsRegistry
from ..simnet.engine import Simulator
from ..simnet.links import Link
from ..simnet.partition import CrossLink, TransitRecord
from ..simnet.rng import node_seeds
from ..units import to_usec
from .node import ClusterNode
from .reordering import ReorderingMeter
from .router import SimulationReport

#: ``registry_config`` layout: (enabled, timeline_bin_sec,
#: trace_sample_every, profile, max_traces) -- enough to rebuild a
#: worker-local registry shaped exactly like the parent's.
RegistryConfig = Tuple[bool, float, int, bool, int]

#: Observer placement: ``"event"`` keeps the self-rearming tick chain
#: inside the partition's own event queue (exactly one partition runs
#: this, preserving the single-heap event count); ``"barrier"``
#: partitions are sampled by the runner at epoch barriers that land on
#: the same tick grid; ``None`` disables observation.
OBSERVER_EVENT = "event"
OBSERVER_BARRIER = "barrier"


def registry_config_of(registry: MetricsRegistry) -> RegistryConfig:
    """The shape of ``registry``, as a picklable worker-side recipe."""
    return (registry.enabled, registry.timeline_bin_sec,
            registry.tracer.sample_every,
            registry.profiler is not None,
            registry.tracer.max_traces)


def realize_arrivals(router, events, until: Optional[float],
                     route_via_fib: bool = False) -> Iterator[tuple]:
    """Validate a run's traffic and realize it as arrivals.

    ``events`` yields ``(time, ingress node, egress node, packet)`` or is
    a :class:`~repro.workloads.WorkloadSpec` carrying a traffic matrix,
    realized over the ``until`` horizon.  The horizon must be positive
    when given.  An egress of ``None`` is allowed only with
    ``route_via_fib``, where the ingress node's FIB picks the egress and
    the field is ignored.  Returns an iterator of validated arrival
    tuples; the per-arrival checks run as it is consumed.
    """
    from ..workloads.spec import WorkloadSpec

    if until is not None and until <= 0:
        raise ConfigurationError(
            "the horizon must be positive (until=%r)" % (until,))
    n = router.num_nodes
    if isinstance(events, WorkloadSpec):
        if until is None:
            raise ConfigurationError(
                "simulating a WorkloadSpec needs an explicit horizon "
                "(until=...)")
        workload = events
        events = workload.events(until)
        if workload.matrix.n != n:
            raise ConfigurationError(
                "workload matrix is %dx%d but the cluster has %d nodes"
                % (workload.matrix.n, workload.matrix.n, n))
    return _checked_arrivals(events, n, route_via_fib)


def _checked_arrivals(events, n: int, route_via_fib: bool):
    for arrival in events:
        ingress, egress = arrival[1], arrival[2]
        if not 0 <= ingress < n:
            raise ConfigurationError("bad ingress node %r" % ingress)
        if not route_via_fib and (egress is None or not 0 <= egress < n):
            raise ConfigurationError("bad egress node %r" % egress)
        yield arrival


@dataclass(frozen=True)
class PartitionSpec:
    """Everything needed to build and drive one partition.

    A multi-partition run's spec is fully picklable: the router carries
    only plain configuration, arrivals are pre-realized ``(time, ingress,
    egress, wire)`` tuples (the parent rolls the arrival process once, so
    the offered traffic is identical at any worker count), and the fault
    schedule is shared data every partition filters for itself.  A
    single-heap run never crosses a process boundary: its arrivals are
    live ``Packet`` tuples, consumed once as they are scheduled.
    Build specs with :meth:`checked`.
    """

    router: object                      # RouteBricksRouter
    assignment: Tuple[int, ...]         # node id -> partition id
    partition_id: int = 0
    rate_limited_egress: bool = False
    failed_links: Tuple[Tuple[int, int], ...] = ()
    faults: Optional[object] = None     # FaultSchedule
    detection_latency_sec: Optional[float] = None
    fib_push_latency_sec: float = 0.0
    arrivals: Tuple[Tuple[float, int, int, tuple], ...] = ()
    observer_mode: Optional[str] = None
    observer_interval_sec: float = 1e-4
    registry_config: RegistryConfig = (False, 1e-4, 64, False, 256)

    @classmethod
    def checked(cls, router, *, failed_links=(), faults=None,
                **fields) -> "PartitionSpec":
        """A spec with validated ``failed_links`` and ``faults`` (a
        :class:`~repro.faults.FaultSchedule` or its dict/JSON-dict form);
        ``assignment`` defaults to one partition owning every node."""
        n = router.num_nodes
        for src, dst in failed_links:
            if not (0 <= src < n and 0 <= dst < n):
                raise ConfigurationError("bad failed link (%r, %r)"
                                         % (src, dst))
        if faults is not None:
            from ..faults.schedule import FaultSchedule
            if not isinstance(faults, FaultSchedule):
                faults = FaultSchedule.from_dict(faults)
            faults.validate(n)
        fields.setdefault("assignment", (0,) * n)
        return cls(router=router,
                   failed_links=tuple(tuple(pair) for pair in failed_links),
                   faults=faults, **fields)


class ClusterPartition:
    """The live simulation island for one :class:`PartitionSpec`.

    Construction builds the model -- nodes, links, failed links, the
    fault injector and egress accounting -- and :meth:`start` schedules
    the arrivals and starts the observer.  A single-heap run arms its
    own extras (churn, resequencer expiry) between the two, so events
    landing at equal simulated times keep one schedule-order tie-break
    at any partition count.

    A multi-partition runner alternates :meth:`inject` and
    :meth:`advance` under a barrier protocol.  ``keep_alive`` is a
    runner-maintained hint that other partitions still have pending
    work, which keeps the self-rearming observer tick chain going when
    the local queue drains.  ``lookahead_sec`` is the minimum
    propagation over the partition's cross-links, or ``None`` when it
    has none (a one-partition run may advance straight to the horizon).

    ``registry`` makes the partition record into that registry (the
    single-heap run's own); by default it builds a worker-local registry
    from ``spec.registry_config`` and never falls back to the
    process-global active one.  ``manager`` attaches a
    :class:`~repro.core.control.ClusterManager` to the fault injector,
    which needs the partition to own every node.
    """

    def __init__(self, spec: PartitionSpec,
                 registry: Optional[MetricsRegistry] = None,
                 manager=None):
        router = spec.router
        if registry is None:
            enabled, bin_sec, sample_every, profile, max_traces = \
                spec.registry_config
            registry = MetricsRegistry(
                enabled=enabled, timeline_bin_sec=bin_sec,
                trace_sample_every=sample_every, profile=profile)
            registry.tracer.max_traces = max_traces
        self.registry = registry
        self.spec = spec
        self.sim = sim = Simulator(metrics=registry)
        self.outbox: List[TransitRecord] = []
        self.keep_alive = False
        self._seq = 0
        n = router.num_nodes
        seeds = node_seeds(router.seed, n)
        local = [i for i in range(n)
                 if spec.assignment[i] == spec.partition_id]
        self.nodes: Dict[int, ClusterNode] = {
            i: ClusterNode(
                node_id=i, sim=sim, num_nodes=n,
                rng=random.Random(seeds[i]),
                use_flowlets=router.use_flowlets,
                link_busy_threshold_sec=router.link_busy_threshold_sec,
                metrics=self.registry)
            for i in local}
        cross_links = []
        for src_id in local:
            src = self.nodes[src_id]
            for dst_id in range(n):
                if dst_id == src_id:
                    continue
                name = "link-%d-%d" % (src_id, dst_id)
                if spec.assignment[dst_id] == spec.partition_id:
                    link = Link(sim, name=name,
                                rate_bps=router.internal_link_bps,
                                deliver=self.nodes[dst_id].receive_internal,
                                propagation_sec=router.propagation_sec)
                else:
                    link = CrossLink(self, name, router.internal_link_bps,
                                     src_id, dst_id,
                                     propagation_sec=router.propagation_sec)
                    cross_links.append(link)
                src.connect(dst_id, link)
        self.lookahead_sec: Optional[float] = min(
            (link.propagation_sec for link in cross_links), default=None)
        if spec.rate_limited_egress:
            for node in self.nodes.values():
                node.egress_link = Link(
                    sim, name="ext-%d" % node.node_id,
                    rate_bps=router.port_rate_bps,
                    deliver=node._egress_done,
                    queue_packets=256)

        for src_id, dst_id in spec.failed_links:
            if spec.assignment[src_id] == spec.partition_id:
                self.nodes[src_id].failed_hops.add(dst_id)

        self.injector = None
        if spec.faults is not None:
            from ..faults.inject import (DEFAULT_DETECTION_LATENCY_SEC,
                                         FaultInjector)
            self.injector = FaultInjector(
                sim, self.nodes.values(), spec.faults, manager=manager,
                detection_latency_sec=(
                    DEFAULT_DETECTION_LATENCY_SEC
                    if spec.detection_latency_sec is None
                    else spec.detection_latency_sec),
                fib_push_latency_sec=spec.fib_push_latency_sec,
                num_nodes=n)

        self.offered_packets = 0
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.direct_packets = 0
        self.indirect_packets = 0
        self.latency_usec: List[float] = []
        self.meter = ReorderingMeter()
        for node in self.nodes.values():
            node.egress_callback = self.count_egress
        self.observer = None

    def count_egress(self, packet: Packet, now: float) -> None:
        """Account one packet leaving the cluster on an external line."""
        self.delivered_packets += 1
        self.delivered_bytes += packet.length
        self.meter.observe(packet)
        self.latency_usec.append(to_usec(now - packet.arrival_time))
        if len(packet.path) <= 2:
            self.direct_packets += 1
        else:
            self.indirect_packets += 1

    def start(self, ingress=None) -> None:
        """Schedule the spec's arrivals, then start observing.

        ``ingress(node, item, egress)`` admits one arrival at its time;
        by default ``item`` is a live ``Packet`` handed to
        ``node.ingress``.
        """
        sim = self.sim
        nodes = self.nodes
        if ingress is None:
            ingress = ClusterNode.ingress
        for time, node_id, egress, item in self.spec.arrivals:
            self.offered_packets += 1
            sim.schedule_timer_at(
                time, lambda n=nodes[node_id], p=item, e=egress:
                ingress(n, p, e))

        mode = self.spec.observer_mode
        if mode is not None:
            self.observer = ClusterObserver(
                sim, list(nodes.values()), self.registry,
                interval_sec=self.spec.observer_interval_sec,
                keep_alive=lambda: self.keep_alive)
            if mode == OBSERVER_EVENT:
                self.observer.start()
            else:
                # Barrier-driven partitions still take the t=0 sample;
                # later samples come from the runner at epoch barriers
                # landing exactly on the tick grid.
                self.observer.sample()

    # -- record exchange -----------------------------------------------------

    def _emit(self, src_node: int, dst_node: int, send_time: float,
              deliver_time: float, packet) -> None:
        """Queue one cross-link delivery (called by :class:`CrossLink`)."""
        self.outbox.append(TransitRecord(deliver_time, send_time, src_node,
                                         self._seq, dst_node,
                                         packet.to_wire()))
        self._seq += 1

    def inject(self, records: List[TransitRecord]) -> None:
        """Schedule incoming transit records as local delivery events.

        Records are sorted by their full tie-break key first, so the
        injection order (and hence local event seq order among equal-time
        deliveries) is independent of how the runner batched them.
        """
        for record in sorted(records):
            node = self.nodes.get(record.dst_node)
            if node is None:
                raise ConfigurationError(
                    "partition %d has no destination for node %d"
                    % (self.spec.partition_id, record.dst_node))
            self.sim.schedule_at(
                record.deliver_time,
                lambda receive=node.receive_wire, w=record.wire: receive(w))

    def advance(self, until: Optional[float]) -> List[TransitRecord]:
        """Run local events up to ``until`` (``None`` drains the queue);
        return (and clear) the records produced since the last call."""
        self.sim.run(until=until)
        out = self.outbox
        self.outbox = []
        return out

    def sample_barrier(self) -> None:
        """Take one observer sample at an epoch barrier (no-op unless
        this partition is in barrier-observation mode)."""
        if (self.observer is not None
                and self.spec.observer_mode == OBSERVER_BARRIER):
            self.observer.sample()

    def finish(self) -> SimulationReport:
        """Stop observing and report on this partition's own nodes."""
        if self.observer is not None:
            self.observer.stop()
        report = SimulationReport(
            offered_packets=self.offered_packets,
            delivered_packets=self.delivered_packets,
            delivered_bytes=self.delivered_bytes,
            direct_packets=self.direct_packets,
            indirect_packets=self.indirect_packets,
            reordered_sequences=self.meter.reordered_count(),
            duration_sec=self.sim.now,
            events_run=self.sim.events_run)
        report.latency_usec.extend(self.latency_usec)
        for node in self.nodes.values():            # in node-id order
            # node.dropped counts failed sends on internal links and the
            # external line, and fault flushes (links double-book them).
            report.dropped_packets += node.dropped
            report.node_stats.append({
                "node": node.node_id,
                "ingress": node.ingress_packets,
                "egress": node.egress_packets,
                "intermediate": node.intermediate_packets,
            })
            if node.flowlets is not None:
                report.flowlet_switches += node.flowlets.switches
                report.flowlet_spills += node.flowlets.spills
        if self.injector is not None:
            report.fault_events = self.injector.log.events_applied
            report.fault_flushed_packets = self.injector.log.flushed_packets
            report.convergence = list(self.injector.log.convergence)
        report.reordered_fraction = (
            report.reordered_sequences / report.delivered_packets
            if report.delivered_packets else 0.0)
        return report


#: Counters a merge sums across partition reports.
_SUMMED = ("offered_packets", "delivered_packets", "delivered_bytes",
           "direct_packets", "indirect_packets", "reordered_sequences",
           "dropped_packets", "flowlet_switches", "flowlet_spills",
           "fault_events", "fault_flushed_packets", "events_run")


def merge_reports(reports: List[SimulationReport]) -> SimulationReport:
    """Fold per-partition reports, in partition-id order, into one.

    Counters sum, latencies pool into one reservoir, node rows sort by
    node id and the duration is the latest partition clock.  The caller
    fills in how the run executed (``workers``, ``epochs``,
    per-partition timings).
    """
    merged = SimulationReport()
    for report in reports:
        for name in _SUMMED:
            setattr(merged, name, getattr(merged, name) + getattr(report, name))
        merged.duration_sec = max(merged.duration_sec, report.duration_sec)
        merged.latency_usec.extend(report.latency_usec.values)
        merged.node_stats.extend(report.node_stats)
    merged.node_stats.sort(key=lambda row: row["node"])
    merged.reordered_fraction = (
        merged.reordered_sequences / merged.delivered_packets
        if merged.delivered_packets else 0.0)
    return merged
