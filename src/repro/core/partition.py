"""One shard of a partitioned cluster simulation, and the merge step.

:class:`ClusterPartition` builds the subset of a
:class:`~repro.core.router.RouteBricksRouter` cluster assigned to one
partition: local nodes, local-to-local mesh links, and
:class:`~repro.simnet.partition.CrossLink` boundaries for every directed
cable whose receive side lives elsewhere.  Node seeds come from the same
:func:`~repro.simnet.rng.node_seeds` chain the single-sim build uses, so
node ``i`` rolls identical dice no matter how the cluster is sharded --
the keystone of the workers-independence guarantee.

Everything a partition measures lands in a :class:`PartitionFragment`
(a picklable result bundle); :func:`merge_fragments` folds fragments
into one :class:`~repro.core.router.SimulationReport` in partition-id
order, so merged scalars are bit-identical run to run and -- for
fault-free runs -- bit-identical to the single-heap engine.

The driving epoch loop lives in :mod:`repro.parallel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..obs.hooks import ClusterObserver
from ..obs.metrics import MetricsRegistry
from ..simnet.links import Link
from ..simnet.partition import Partition, TransitRecord
from ..simnet.rng import node_seeds
from ..units import to_usec
from .node import ClusterNode
from .reordering import ReorderingMeter
from .router import SimulationReport

#: ``registry_config`` layout: (enabled, timeline_bin_sec,
#: trace_sample_every, profile, max_traces) -- enough to rebuild a
#: worker-local registry shaped exactly like the parent's.
RegistryConfig = Tuple[bool, float, int, bool, int]

#: Observer placement: ``"event"`` keeps the legacy self-rearming tick
#: chain inside the partition's own event queue (exactly one partition
#: runs this, preserving the single-sim event count); ``"barrier"``
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


@dataclass(frozen=True)
class PartitionSpec:
    """Everything a worker needs to build and drive one partition.

    The spec is fully picklable: the router carries only plain
    configuration, arrivals are pre-realized ``(time, ingress, egress,
    wire)`` tuples (the parent rolls the arrival process once, so the
    offered traffic is identical at any worker count), and the fault
    schedule is shared data every partition filters for itself.
    """

    router: object                      # RouteBricksRouter
    assignment: Tuple[int, ...]         # node id -> partition id
    partition_id: int
    rate_limited_egress: bool = False
    failed_links: Tuple[Tuple[int, int], ...] = ()
    faults: Optional[object] = None     # FaultSchedule
    detection_latency_sec: Optional[float] = None
    fib_push_latency_sec: float = 0.0
    arrivals: Tuple[Tuple[float, int, int, tuple], ...] = ()
    observer_mode: Optional[str] = None
    observer_interval_sec: float = 1e-4
    registry_config: RegistryConfig = (False, 1e-4, 64, False, 256)


@dataclass
class PartitionFragment:
    """One partition's share of the run results (picklable)."""

    partition_id: int
    delivered_packets: int = 0
    delivered_bytes: int = 0
    direct_packets: int = 0
    indirect_packets: int = 0
    #: Raw latency observations in local egress order; the merge refills
    #: a histogram whose scalars are multiset-determined.
    latency_usec: List[float] = field(default_factory=list)
    reordered_sequences: int = 0
    reorder_packets: int = 0
    dropped_packets: int = 0
    node_stats: List[dict] = field(default_factory=list)
    flowlet_switches: int = 0
    flowlet_spills: int = 0
    fault_events: int = 0
    fault_flushed_packets: int = 0
    events_run: int = 0
    busy_seconds: float = 0.0
    registry: Optional[MetricsRegistry] = None


class ClusterPartition:
    """The live simulation island for one :class:`PartitionSpec`.

    Construction mirrors :meth:`RouteBricksRouter.simulate` step for
    step (build, failed links, fault injector, egress accounting,
    arrival scheduling, observer) so that events landing at equal
    simulated times keep the single-sim engine's schedule-order
    tie-break within the partition.
    """

    def __init__(self, spec: PartitionSpec):
        router = spec.router
        enabled, bin_sec, sample_every, profile, max_traces = \
            spec.registry_config
        # Always an explicit registry (possibly disabled): partitions
        # must never fall back to the process-global active registry,
        # which in an inline run would be the parent's.
        self.registry = MetricsRegistry(
            enabled=enabled, timeline_bin_sec=bin_sec,
            trace_sample_every=sample_every, profile=profile)
        self.registry.tracer.max_traces = max_traces
        self.spec = spec
        self.partition = Partition(spec.partition_id, seed=router.seed,
                                   metrics=self.registry)
        sim = self.partition.sim
        self.sim = sim
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
                    link = self.partition.cross_link(
                        name, router.internal_link_bps, src_id, dst_id,
                        propagation_sec=router.propagation_sec)
                src.connect(dst_id, link)
        for node_id, node in self.nodes.items():
            self.partition.register_destination(node_id, node.receive_wire)
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
                                         PartitionFaultInjector)
            self.injector = PartitionFaultInjector(
                sim, self.nodes, spec.faults, num_nodes=n,
                detection_latency_sec=(
                    DEFAULT_DETECTION_LATENCY_SEC
                    if spec.detection_latency_sec is None
                    else spec.detection_latency_sec),
                fib_push_latency_sec=spec.fib_push_latency_sec)

        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.direct_packets = 0
        self.indirect_packets = 0
        self.latency_usec: List[float] = []
        self.meter = ReorderingMeter()

        def on_egress(packet: Packet, now: float) -> None:
            self.delivered_packets += 1
            self.delivered_bytes += packet.length
            self.meter.observe(packet)
            self.latency_usec.append(to_usec(now - packet.arrival_time))
            if len(packet.path) <= 2:
                self.direct_packets += 1
            else:
                self.indirect_packets += 1

        for node in self.nodes.values():
            node.egress_callback = on_egress

        for time, ingress, egress, wire in spec.arrivals:
            sim.schedule_timer_at(
                time, lambda node=self.nodes[ingress], w=wire, e=egress:
                node.ingress(Packet.from_wire(w), e))

        self.observer = None
        if spec.observer_mode is not None:
            self.observer = ClusterObserver(
                sim, [self.nodes[i] for i in local], self.registry,
                interval_sec=spec.observer_interval_sec,
                keep_alive=((lambda: self.partition.keep_alive)
                            if spec.observer_mode == OBSERVER_EVENT
                            else None))
            if spec.observer_mode == OBSERVER_EVENT:
                self.observer.start()
            else:
                # Barrier-driven partitions still take the legacy t=0
                # sample; later samples come from the runner at epoch
                # barriers landing exactly on the tick grid.
                self.observer.sample()

    # -- runner protocol -----------------------------------------------------

    @property
    def lookahead_sec(self) -> Optional[float]:
        return self.partition.lookahead_sec

    def peek_time(self) -> Optional[float]:
        return self.sim.peek_time()

    def set_keep_alive(self, flag: bool) -> None:
        self.partition.keep_alive = flag

    def inject(self, records: List[TransitRecord]) -> None:
        self.partition.inject(records)

    def advance(self, until: float) -> List[TransitRecord]:
        return self.partition.advance(until)

    def sample_barrier(self) -> None:
        """Take one observer sample at an epoch barrier (no-op unless
        this partition is in barrier-observation mode)."""
        if (self.observer is not None
                and self.spec.observer_mode == OBSERVER_BARRIER):
            self.observer.sample()

    def finish(self) -> PartitionFragment:
        """Stop observing and bundle up this partition's results."""
        if self.observer is not None:
            self.observer.stop()
        frag = PartitionFragment(partition_id=self.spec.partition_id)
        frag.delivered_packets = self.delivered_packets
        frag.delivered_bytes = self.delivered_bytes
        frag.direct_packets = self.direct_packets
        frag.indirect_packets = self.indirect_packets
        frag.latency_usec = self.latency_usec
        frag.reordered_sequences = self.meter.reordered_count()
        frag.reorder_packets = self.meter.packets_observed()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            frag.dropped_packets += node.dropped
            frag.node_stats.append({
                "node": node.node_id,
                "ingress": node.ingress_packets,
                "egress": node.egress_packets,
                "intermediate": node.intermediate_packets,
            })
            if node.flowlets is not None:
                frag.flowlet_switches += node.flowlets.switches
                frag.flowlet_spills += node.flowlets.spills
        if self.injector is not None:
            frag.fault_events = self.injector.log.events_applied
            frag.fault_flushed_packets = self.injector.log.flushed_packets
        frag.events_run = self.sim.events_run
        frag.registry = self.registry if self.registry.enabled else None
        return frag


def merge_fragments(fragments: List[PartitionFragment], *,
                    offered_packets: int, duration_sec: float,
                    workers: int, epochs: int,
                    registry: Optional[MetricsRegistry] = None) \
        -> SimulationReport:
    """Fold partition fragments into one :class:`SimulationReport`.

    Fragments are processed in partition-id order, so every sum, the
    latency histogram's backing multiset, and the merged metrics
    registry come out identical regardless of which worker finished
    first.  When ``registry`` is given, each fragment's worker-local
    registry is merged into it.
    """
    report = SimulationReport()
    report.offered_packets = offered_packets
    report.duration_sec = duration_sec
    report.workers = workers
    report.epochs = epochs
    reordered = 0
    reorder_packets = 0
    for frag in sorted(fragments, key=lambda f: f.partition_id):
        report.delivered_packets += frag.delivered_packets
        report.delivered_bytes += frag.delivered_bytes
        report.direct_packets += frag.direct_packets
        report.indirect_packets += frag.indirect_packets
        report.latency_usec.extend(frag.latency_usec)
        reordered += frag.reordered_sequences
        reorder_packets += frag.reorder_packets
        report.dropped_packets += frag.dropped_packets
        report.node_stats.extend(frag.node_stats)
        report.flowlet_switches += frag.flowlet_switches
        report.flowlet_spills += frag.flowlet_spills
        report.fault_events += frag.fault_events
        report.fault_flushed_packets += frag.fault_flushed_packets
        report.events_run += frag.events_run
        report.partition_busy_seconds.append(frag.busy_seconds)
        if registry is not None and frag.registry is not None:
            registry.merge(frag.registry)
    report.node_stats.sort(key=lambda row: row["node"])
    report.reordered_fraction = (reordered / reorder_packets
                                 if reorder_packets else 0.0)
    return report
