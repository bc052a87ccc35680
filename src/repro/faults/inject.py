"""DES integration: apply a fault schedule to a running cluster.

The injector turns :class:`~repro.faults.schedule.FaultSchedule` events
into simulator callbacks against the live :class:`~repro.core.node.ClusterNode`
objects, modelling what each failure physically does:

* **node_down** -- the server halts *now*: its transmit queues are
  flushed (those packets are counted as losses), anything scheduled
  inside it drops on arrival.  Peers only notice after
  ``detection_latency_sec`` (timeout-driven local detection -- VLB needs
  no global view), then stop choosing it as a next hop.
* **node_up** -- the server reboots with fresh state; peers re-admit it
  after the same detection latency.
* **link_down / link_up** -- carrier loss on a directed cable is detected
  locally and immediately by the transmitting NIC; queued packets on the
  cut cable are lost.
* **nic_stall** -- the node's transmit rings wedge for a while: packets
  queue (and overflow) but nothing is unplugged and no detour happens.

If a :class:`~repro.core.control.ClusterManager` is attached, node
failures/recoveries also drive the control plane after the detection
latency plus ``fib_push_latency_sec``, and each reaction's
:class:`~repro.core.control.ProvisionUpdate` is recorded with its
convergence timestamp -- making control-plane convergence a measurable
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ConfigurationError
from ..results import RunResult
from .schedule import (
    FaultEvent,
    FaultSchedule,
    LINK_DOWN,
    LINK_UP,
    NIC_STALL,
    NODE_DOWN,
    NODE_UP,
)

#: Default peer-failure detection latency (timeout-based heartbeating at
#: cluster RTT scales; tens of microseconds in-rack would be aggressive,
#: a millisecond is conservative).
DEFAULT_DETECTION_LATENCY_SEC = 1e-3


@dataclass(frozen=True)
class ConvergenceRecord(RunResult):
    """One control-plane reaction, timestamped."""

    _summary_fields = ("event", "node", "failed_at", "converged_at")

    event: str                 # node_down | node_up
    node: int
    failed_at: float           # when the fault happened
    detected_at: float         # when peers / control plane saw it
    converged_at: float        # when fresh FIBs finished distributing
    live_nodes: int

    @property
    def convergence_sec(self) -> float:
        return self.converged_at - self.failed_at


@dataclass
class FaultLog(RunResult):
    """What the injector actually did to the running simulation."""

    _summary_fields = ("events_applied", "flushed_packets")

    events_applied: int = 0
    flushed_packets: int = 0
    applied: List[FaultEvent] = field(default_factory=list)
    convergence: List[ConvergenceRecord] = field(default_factory=list)


class FaultInjector:
    """Wire a cluster-wide :class:`FaultSchedule` into the nodes one
    simulator owns.

    ``nodes`` are the live nodes of this simulator: the whole cluster in
    a single-heap run, one shard of it in a partitioned run
    (``num_nodes`` is the cluster size, by default ``len(nodes)``).
    Events are armed by ownership:

    * The simulator that **owns** a faulted node (or a cut link's source)
      applies the physical effect (fail/recover/flush/stall) and counts
      it in its log, so summed ``events_applied`` / ``flushed_packets``
      are the same at any sharding (each event is counted once, by its
      owner).
    * **Every** simulator tracks cluster-wide node aliveness, driven
      purely by the schedule, because ``link_up`` must know whether the
      far end is alive even when that node is remote.
    * Peer detection (``failed_hops`` updates after the detection
      latency) runs on every simulator for its own peers, which together
      cover every peer of the failed node.

    A :class:`~repro.core.control.ClusterManager` is a global observer,
    so ``manager`` is accepted only when this simulator owns every node.
    """

    def __init__(self, sim, nodes, schedule: FaultSchedule,
                 manager=None,
                 detection_latency_sec: float = DEFAULT_DETECTION_LATENCY_SEC,
                 fib_push_latency_sec: float = 0.0,
                 num_nodes: int = None):
        if detection_latency_sec < 0 or fib_push_latency_sec < 0:
            raise ConfigurationError("latencies cannot be negative")
        self.nodes = {node.node_id: node for node in nodes}
        if num_nodes is None:
            num_nodes = len(self.nodes)
        schedule.validate(num_nodes)
        if manager is not None and len(self.nodes) < num_nodes:
            raise ConfigurationError(
                "a cluster manager needs the global view: the injector "
                "must own every node")
        self.sim = sim
        self.schedule = schedule
        self.manager = manager
        self.detection_latency_sec = detection_latency_sec
        self.fib_push_latency_sec = fib_push_latency_sec
        self.log = FaultLog()
        #: Cluster-wide crashed nodes, kept by every simulator.
        self._nodes_down = set()
        #: Directed links currently cut by an explicit link fault --
        #: a node recovery must not resurrect an independently cut cable.
        self._links_down = set()
        for event in schedule.events():
            # Node events run everywhere (aliveness bookkeeping and local
            # peer detection); the rest only where their node lives.
            if (event.kind in (NODE_DOWN, NODE_UP)
                    or self._owner(event) in self.nodes):
                sim.schedule_at(event.time, lambda e=event: self._apply(e))

    @staticmethod
    def _owner(event: FaultEvent) -> int:
        """The node whose server applies ``event``."""
        if event.kind in (LINK_DOWN, LINK_UP):
            return event.target[0]
        return event.target

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            NODE_DOWN: self._node_event,
            NODE_UP: self._node_event,
            LINK_DOWN: self._link_down,
            LINK_UP: self._link_up,
            NIC_STALL: self._nic_stall,
        }[event.kind]
        handler(event)
        if self._owner(event) in self.nodes:
            self.log.events_applied += 1
            self.log.applied.append(event)

    # -- handlers ------------------------------------------------------------

    def _node_event(self, event: FaultEvent) -> None:
        node_id = event.target
        down = event.kind == NODE_DOWN
        failed_at = self.sim.now
        node = self.nodes.get(node_id)
        if down:
            self._nodes_down.add(node_id)
            if node is not None:
                self.log.flushed_packets += node.fail()
        else:
            self._nodes_down.discard(node_id)
            if node is not None:
                node.recover()

        def peers_detect():
            for peer_id, peer in self.nodes.items():
                if peer_id == node_id:
                    continue
                if down:
                    peer.failed_hops.add(node_id)
                elif (peer_id, node_id) not in self._links_down:
                    peer.failed_hops.discard(node_id)

        detect = self.detection_latency_sec
        self.sim.schedule(detect, peers_detect)
        if node is not None and self.manager is not None:
            self.sim.schedule(detect + self.fib_push_latency_sec,
                              lambda: self._converge(event.kind, node_id,
                                                     failed_at))

    def _converge(self, kind: str, node_id: int, failed_at: float) -> None:
        react = (self.manager.handle_node_failure if kind == NODE_DOWN
                 else self.manager.handle_node_recovery)
        update = react(node_id)
        self.log.convergence.append(ConvergenceRecord(
            event=kind, node=node_id, failed_at=failed_at,
            detected_at=failed_at + self.detection_latency_sec,
            converged_at=self.sim.now,
            live_nodes=update.live_nodes))

    def _link_down(self, event: FaultEvent) -> None:
        src, dst = event.target
        node = self.nodes[src]
        self._links_down.add((src, dst))
        node.failed_hops.add(dst)          # carrier loss: local, immediate
        link = node.links.get(dst)
        if link is not None:
            flushed = link.flush()
            node.dropped += flushed
            self.log.flushed_packets += flushed

    def _link_up(self, event: FaultEvent) -> None:
        src, dst = event.target
        self._links_down.discard((src, dst))
        # Only clear the hop if the far-end server is not itself down.
        if dst not in self._nodes_down:
            self.nodes[src].failed_hops.discard(dst)

    def _nic_stall(self, event: FaultEvent) -> None:
        node = self.nodes[event.target]
        for link in node.links.values():
            link.stall(event.duration_sec)
        if node.egress_link is not None:
            node.egress_link.stall(event.duration_sec)
