"""The RouteBricks cluster router: RB4 and beyond.

Two complementary views:

* :meth:`RouteBricksRouter.max_throughput` -- the analytic operating point:
  per-node CPU budget against the VLB workload (ingress routing + egress
  forwarding + intermediate forwarding + reordering-avoidance overhead)
  and the per-NIC payload ceiling.  Reproduces RB4's 12 Gbps (64 B) and
  35 Gbps (Abilene) results (Sec. 6.2).
* :meth:`RouteBricksRouter.simulate` -- the packet-level DES: full-mesh
  links, Direct VLB with flowlets (or per-packet balancing), per-role
  latencies; measures reordering, latency, loss.  It runs the cluster as
  the one-partition case of :mod:`repro.core.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .. import calibration as cal
from ..errors import ConfigurationError
from ..hw.presets import NEHALEM
from ..hw.server import ServerSpec
from ..net.packet import Packet
from ..obs.metrics import Reservoir
from ..obs.trace import TRACE_ANNOTATION
from ..perfmodel.loads import DEFAULT_CONFIG, ServerConfig
from ..results import RunResult
from ..simnet.engine import Simulator
from ..units import gbps, rate_pps_to_bps, to_usec
from .node import ClusterNode

#: Effective per-NIC payload limit observed in cluster operation
#: (Sec. 6.2: the external-line NIC sustains ~8.75 Gbps external + ~3 Gbps
#: internal = 11.67 Gbps, slightly under the 12.3 Gbps single-direction
#: traffic-generation figure because both ports move payload and
#: descriptors concurrently).
RB4_NIC_EFFECTIVE_BPS = gbps(11.67)


@dataclass(frozen=True)
class ClusterThroughput(RunResult):
    """Analytic throughput of the cluster for one workload."""

    _summary_fields = ("aggregate_gbps", "per_port_bps", "binding")

    aggregate_bps: float
    per_port_bps: float
    binding: str                      # "cpu" | "nic" | "link"
    cycles_per_ingress_packet: float
    limits_bps: Dict[str, float]

    @property
    def aggregate_gbps(self) -> float:
        return self.aggregate_bps / 1e9


@dataclass
class SimulationReport(RunResult):
    """Results of a packet-level cluster run."""

    _summary_fields = ("offered_packets", "delivered_packets",
                       "dropped_packets", "reordered_fraction")

    offered_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    reordered_fraction: float = 0.0
    latency_usec: Reservoir = field(default_factory=Reservoir)
    direct_packets: int = 0
    indirect_packets: int = 0
    flowlet_switches: int = 0
    flowlet_spills: int = 0
    resequencer_held: int = 0
    resequencer_timeouts: int = 0
    node_stats: List[dict] = field(default_factory=list)
    delivered_bytes: int = 0
    duration_sec: float = 0.0
    fault_events: int = 0
    fault_flushed_packets: int = 0
    convergence: List = field(default_factory=list)
    #: Packets whose destination had no route in the ingress node's FIB
    #: at arrival time (only populated by FIB-routed runs, where the
    #: egress node is resolved by a live per-node lookup instead of
    #: being precomputed -- see ``route_via_fib``).
    fib_miss_packets: int = 0
    #: How the run was executed (filled in by repro.parallel): number of
    #: worker partitions, conservative-lookahead epochs, and total DES
    #: events across all partitions.  A single-sim run reports workers=1
    #: and epochs=0.
    workers: int = 1
    epochs: int = 0
    events_run: int = 0
    #: CPU seconds each partition spent advancing its event loop
    #: (index = partition id).  ``max`` of this list is the parallel
    #: critical path; empty for single-sim runs.
    partition_busy_seconds: List[float] = field(default_factory=list)
    #: Wall seconds each partition spent stalled at epoch barriers
    #: waiting for the slowest sibling (index = partition id; empty for
    #: single-sim runs).  ``busy + wait`` per partition approximates the
    #: run's wall clock under the process backend.
    barrier_wait_seconds: List[float] = field(default_factory=list)
    #: Mean epoch length over the conservative-lookahead window ``W``
    #: (1.0 = every epoch spans the full window; 0 for single-sim runs).
    lookahead_efficiency: float = 0.0
    #: Busiest partition's busy seconds over the mean (1.0 = perfectly
    #: balanced; 0 for single-sim runs).
    load_imbalance: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        return (self.delivered_packets / self.offered_packets
                if self.offered_packets else 0.0)

    @property
    def indirect_fraction(self) -> float:
        total = self.direct_packets + self.indirect_packets
        return self.indirect_packets / total if total else 0.0

    @property
    def delivered_bps(self) -> float:
        """Goodput over the measured window (external-line bits out)."""
        return (self.delivered_bytes * 8 / self.duration_sec
                if self.duration_sec > 0 else 0.0)


class RouteBricksRouter:
    """An N-node full-mesh RouteBricks cluster (RB4 when N = 4)."""

    def __init__(self, num_nodes: int = cal.RB4_NODES,
                 port_rate_bps: float = cal.PORT_RATE_BPS,
                 internal_link_bps: float = cal.PORT_RATE_BPS,
                 spec: ServerSpec = NEHALEM,
                 config: ServerConfig = DEFAULT_CONFIG,
                 use_flowlets: bool = True,
                 resequence: bool = False,
                 resequence_timeout_sec: float = 1e-3,
                 nic_effective_bps: float = RB4_NIC_EFFECTIVE_BPS,
                 link_busy_threshold_sec: float = 50e-6,
                 seed: int = 0,
                 propagation_sec: float = 1e-6):
        if num_nodes < 2:
            raise ConfigurationError("cluster needs >= 2 nodes")
        if propagation_sec <= 0:
            raise ConfigurationError("propagation delay must be positive")
        self.num_nodes = num_nodes
        self.port_rate_bps = port_rate_bps
        self.internal_link_bps = internal_link_bps
        self.spec = spec
        self.config = config
        self.use_flowlets = use_flowlets
        self.resequence = resequence
        self.resequence_timeout_sec = resequence_timeout_sec
        self.nic_effective_bps = nic_effective_bps
        self.link_busy_threshold_sec = link_busy_threshold_sec
        self.seed = seed
        #: Cable propagation delay on every internal link; it is also the
        #: conservative-lookahead window of a partitioned run (see
        #: :mod:`repro.parallel`), since cross-partition packets cannot
        #: arrive sooner than this after leaving their source.
        self.propagation_sec = propagation_sec

    # -- analytic model ------------------------------------------------------

    def _cycles_per_ingress_packet(self, packet_bytes: float,
                                   indirect_fraction: float,
                                   ingress_app: cal.AppCost = None) -> float:
        """CPU work one ingress packet induces across the cluster, charged
        per node (symmetric traffic): the ingress application at the input
        node (full IP routing by default, as in RB4), minimal forwarding
        at the output node, minimal forwarding at an intermediate for the
        balanced share, plus flowlet bookkeeping."""
        if ingress_app is None:
            ingress_app = cal.IP_ROUTING
        book = cal.bookkeeping_cycles(self.config.kp, self.config.kn)
        ingress = ingress_app.cpu_cycles(packet_bytes) + book
        forwarding = cal.MINIMAL_FORWARDING.cpu_cycles(packet_bytes) + book
        overhead = cal.REORDER_AVOIDANCE_CYCLES if self.use_flowlets else 0.0
        return (ingress + forwarding
                + indirect_fraction * forwarding + overhead)

    def max_throughput(self, workload,
                       uniform: bool = True,
                       ingress_app: cal.AppCost = None) -> ClusterThroughput:
        """Analytic loss-free throughput for a workload.

        ``workload`` is a :class:`~repro.workloads.WorkloadSpec` (its
        size mix supplies the mean packet size and its ``app`` the
        ingress application; an explicit ``ingress_app`` overrides).

        With a close-to-uniform matrix and adaptive Direct VLB, per-pair
        demand R/(N-1) stays below the internal link rate, so everything
        routes directly (``indirect_fraction = 0``) -- the regime both RB4
        experiments ran in.  A worst-case matrix forces the full two-phase
        tax (one extra forwarding per packet, links carry 2R/N each way).
        """
        from ..workloads.spec import WorkloadSpec

        if not isinstance(workload, WorkloadSpec):
            raise TypeError(
                "max_throughput() takes a repro.workloads.WorkloadSpec; "
                "the bare packet-size form was removed -- use "
                "WorkloadSpec.fixed(packet_bytes)")
        packet_bytes = workload.mean_packet_bytes
        if ingress_app is None:
            ingress_app = workload.app
        n = self.num_nodes
        indirect = 0.0 if uniform else 1.0
        cycles = self._cycles_per_ingress_packet(packet_bytes, indirect,
                                                 ingress_app)
        cpu_pps = self.spec.cycles_per_second / cycles
        cpu_bps = rate_pps_to_bps(cpu_pps, packet_bytes)

        # NIC ceiling: the external-line NIC carries R (external) plus the
        # busiest internal port's share.
        if uniform:
            internal_share = 1.0 / (n - 1)     # direct mesh spreading
        else:
            internal_share = 2.0 / n           # VLB two-phase per-link load
        nic_bps = self.nic_effective_bps / (1.0 + internal_share)

        # Internal links must carry their share at rate R.
        link_bps = self.internal_link_bps / internal_share

        limits = {"cpu": cpu_bps, "nic": nic_bps, "link": link_bps,
                  "port": self.port_rate_bps}
        binding = min(limits, key=limits.get)
        per_port = limits[binding]
        return ClusterThroughput(
            aggregate_bps=per_port * n,
            per_port_bps=per_port,
            binding=binding,
            cycles_per_ingress_packet=cycles,
            limits_bps=limits,
        )

    # -- packet-level simulation ----------------------------------------------

    def build_simulation(self, rate_limited_egress: bool = False,
                         metrics=None) \
            -> Tuple[Simulator, List[ClusterNode]]:
        """Instantiate the DES: nodes plus full-mesh internal links.

        With ``rate_limited_egress`` each node's external line is a real
        R-bps link: contended outputs serialize and drop, which the
        fairness experiments need.  ``metrics`` (or an enabled active
        :mod:`repro.obs` registry) turns on per-hop latency, drop-cause,
        and link-occupancy instrumentation.
        """
        from ..obs.metrics import active_registry
        from .partition import ClusterPartition, PartitionSpec
        registry = metrics if metrics is not None else active_registry()
        spec = PartitionSpec.checked(self,
                                     rate_limited_egress=rate_limited_egress)
        part = ClusterPartition(spec, registry=registry)
        return part.sim, list(part.nodes.values())

    def simulate(self,
                 events,
                 until: Optional[float] = None,
                 rate_limited_egress: bool = False,
                 failed_links: Iterable[Tuple[int, int]] = (),
                 faults=None,
                 manager=None,
                 detection_latency_sec: Optional[float] = None,
                 fib_push_latency_sec: float = 0.0,
                 route_via_fib: bool = False,
                 churn=None,
                 metrics=None) -> SimulationReport:
        """Run traffic through the cluster.

        ``events`` yields (time, ingress node, egress node, packet) -- or
        is a :class:`~repro.workloads.WorkloadSpec` carrying a traffic
        matrix, realized over the ``until`` horizon.  ``until=None`` runs
        until the event queue drains.  The report covers reordering (per
        the Sec. 6.2 metric), latency, goodput, and path statistics.

        The run is the one-partition case of the partitioned engine
        (:class:`~repro.core.partition.ClusterPartition`), so it computes
        exactly what :func:`repro.parallel.simulate_parallel` computes at
        any worker count; the features below need the global view and
        exist only here.

        ``failed_links`` marks directed (src, dst) internal cables as
        down from the start.  ``faults`` scripts *timed* failures: a
        :class:`~repro.faults.FaultSchedule` (or its dict/JSON-dict
        form).  Crashed nodes lose their queued and in-flight packets;
        peers detect the failure after ``detection_latency_sec`` and
        Direct VLB re-balances around it with local information only.
        With a :class:`~repro.core.control.ClusterManager` as
        ``manager``, node failures also trigger the control-plane
        reaction (reprovision + FIB re-push) and each reaction's
        convergence record lands in ``report.convergence``.

        ``route_via_fib`` makes forwarding consult the control plane's
        per-node FIBs *live*: each event's egress field is ignored and
        the ingress node instead looks up the packet's IP destination in
        its own FIB at arrival time, so control-plane churn applied on
        the simulation clock (``churn``) changes where packets go
        mid-run.  Destinations without a route are dropped and counted
        in ``report.fib_miss_packets``.  ``churn`` is an armable driver
        (see :class:`~repro.control.ChurnDriver`) whose scheduled
        update/sync callbacks interleave with forwarding events.
        """
        from ..obs.hooks import observer_interval
        from ..obs.metrics import active_registry
        from .partition import (OBSERVER_EVENT, ClusterPartition,
                                PartitionSpec, merge_fragments,
                                realize_arrivals)

        if route_via_fib and manager is None:
            raise ConfigurationError(
                "route_via_fib needs a ClusterManager supplying per-node "
                "FIBs (manager=...)")
        arrivals = realize_arrivals(self, events, until,
                                    route_via_fib=route_via_fib)
        registry = metrics if metrics is not None else active_registry()
        interval = observer_interval(until)
        spec = PartitionSpec.checked(
            self, rate_limited_egress=rate_limited_egress,
            failed_links=failed_links, faults=faults,
            detection_latency_sec=detection_latency_sec,
            fib_push_latency_sec=fib_push_latency_sec,
            arrivals=arrivals,
            observer_mode=OBSERVER_EVENT if registry.enabled else None,
            observer_interval_sec=interval)
        part = ClusterPartition(spec, registry=registry, manager=manager)
        sim = part.sim
        # Extras are armed after the model and before the arrivals, so
        # equal-time ties break in one schedule order.
        if churn is not None:
            churn.arm(sim)
        count_egress = part.count_egress
        if registry.enabled and (route_via_fib or churn is not None):
            # Forwarding-latency tail timeline, recorded only for control-
            # plane runs (churn / FIB-routed).
            latency_tl = registry.timeline(
                "cluster_latency_usec", bin_sec=interval,
                help="end-to-end forwarding latency during churn "
                     "(max per bin = the tail)").bind()

            def count_egress(packet: Packet, now: float,
                             count=part.count_egress) -> None:
                count(packet, now)
                latency_tl(now, to_usec(now - packet.arrival_time))

        resequencers = []
        for node in part.nodes.values():
            if self.resequence:
                reseq = self._resequencer(node, sim, count_egress, registry)
                resequencers.append(reseq)
                node.egress_callback = (
                    lambda packet, now, reseq=reseq:
                    reseq.offer(packet.five_tuple(), packet, now))
            else:
                node.egress_callback = count_egress
        if resequencers:
            def expire_all():
                for reseq in resequencers:
                    reseq.expire(sim.now)
                if sim.peek_time() is not None:
                    sim.schedule(self.resequence_timeout_sec / 2, expire_all)

            sim.schedule(self.resequence_timeout_sec / 2, expire_all)

        fib_misses = 0
        ingress = None
        if route_via_fib:
            fib_of = manager.fib_of

            def ingress(node, packet, egress):
                # The egress node is whatever the ingress node's *own*
                # FIB says right now -- churn applied on the simulation
                # clock changes the answer mid-run.
                nonlocal fib_misses
                route = fib_of(node.node_id).lookup(int(packet.ip.dst))
                if route is None:
                    fib_misses += 1
                    node._count_drop("fib_miss")
                    return
                node.ingress(packet, route.port)

        offered = part.start(ingress)
        part.advance(until)
        if churn is not None:
            churn.finalize()
        for reseq in resequencers:
            # Final flush: release anything still held back.
            reseq.expire(sim.now + self.resequence_timeout_sec * 2)

        report = merge_fragments([part.finish()], offered_packets=offered,
                                 duration_sec=sim.now, workers=1, epochs=0)
        report.resequencer_held = sum(r.held for r in resequencers)
        report.resequencer_timeouts = sum(r.timed_out for r in resequencers)
        report.fib_miss_packets = fib_misses
        if part.injector is not None:
            report.convergence = list(part.injector.log.convergence)
        return report

    def _resequencer(self, node, sim, count_egress, registry):
        """The output-node reorder buffer (the rejected alternative, Sec.
        6.1): hold out-of-order arrivals and release flows in order."""
        from .resequencer import Resequencer

        def deliver(packet: Packet) -> None:
            if registry.enabled:
                # Attribute the hold time before crediting egress: the
                # reorder buffer is a latency stage of its own.
                profiler = registry.profiler
                if profiler is not None:
                    last = packet.annotations.get("prof_t")
                    if last is not None and sim.now > last:
                        profiler.charge(to_usec(sim.now - last),
                                        "node%d" % node.node_id, "reorder")
                    packet.annotations["prof_t"] = sim.now
                trace = packet.annotations.get(TRACE_ANNOTATION)
                if trace is not None:
                    trace.hop("reorder.release", sim.now)
            count_egress(packet, sim.now)

        return Resequencer(deliver=deliver,
                           timeout_sec=self.resequence_timeout_sec)

    def replay_pair(self, timed_packets: Iterable[Tuple[float, Packet]],
                    ingress: int = 0, egress: int = 1) -> SimulationReport:
        """The Sec. 6.2 reordering setup: a whole trace through one
        input/output pair (overloading the direct path so balancing kicks
        in)."""
        events = ((time, ingress, egress, packet)
                  for time, packet in timed_packets)
        return self.simulate(events)
