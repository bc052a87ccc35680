"""Partitioned simulation islands with conservative lookahead.

A :class:`Partition` wraps a :class:`Simulator` (its own heap and timer
wheel) plus the machinery to exchange packets with other
partitions: a :class:`CrossLink` keeps the shared queueing/serialization
semantics of :class:`Link` but, instead of scheduling a delivery event on
the (remote) peer, appends a timestamped :class:`TransitRecord` to the
partition outbox.  A runner drains outboxes at epoch barriers and injects
the records into the destination partitions.

Conservative lookahead: every cross delivery takes at least
``serialization + propagation > propagation`` seconds after its send is
committed, so with ``W = min(propagation over all cross-links)`` a
partition may safely run to ``min(next pending event time across all
partitions) + W`` -- any send committed in that window delivers strictly
after it.  ``W`` is exposed as :attr:`Partition.lookahead_sec`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..errors import ConfigurationError
from .engine import Simulator
from .links import Link


class TransitRecord(NamedTuple):
    """A packet in flight between partitions.

    Sorting records compares ``(deliver_time, send_time, src_node, seq)``,
    which reproduces the single-heap engine's tie order: the global engine
    breaks equal-time ties by schedule order, and a cross delivery is
    scheduled at its send time.  ``wire`` is an opaque picklable payload
    (``Packet.to_wire()`` for the cluster) and is never reached by the
    comparison -- ``(src_node, seq)`` is already unique.
    """

    deliver_time: float
    send_time: float
    src_node: int
    seq: int
    dst_node: int
    wire: tuple

    def frame_bytes(self) -> int:
        """Frame length of the carried packet, for barrier byte-volume
        accounting: ``Packet.to_wire()``'s length field."""
        return self.wire[1]


class CrossLink(Link):
    """A link whose receive side lives on another partition.

    Send-side behavior (bounded FIFO, serialization at the link rate,
    stalls, flush-on-crash accounting) is inherited unchanged from
    :class:`Link`; only delivery differs -- the serialized packet becomes
    a :class:`TransitRecord` in the owning partition's outbox.
    """

    def __init__(self, partition: "Partition", name: str, rate_bps: float,
                 src_node: int, dst_node: int,
                 propagation_sec: float = 1e-6,
                 queue_packets: int = 1024):
        if propagation_sec <= 0:
            raise ConfigurationError(
                "cross-link propagation must be positive: it is the "
                "conservative lookahead window")
        super().__init__(partition.sim, name, rate_bps,
                         deliver=self._no_local_deliver,
                         propagation_sec=propagation_sec,
                         queue_packets=queue_packets)
        self.partition = partition
        self.src_node = src_node
        self.dst_node = dst_node

    @staticmethod
    def _no_local_deliver(packet) -> None:
        raise RuntimeError("CrossLink delivers via transit records, "
                           "never locally")

    def _schedule_delivery(self, packet, tx_time: float) -> None:
        now = self.sim.now
        # Associate exactly as Link._schedule_delivery's
        # ``schedule_timer(tx_time + propagation)`` does (``now + (tx +
        # prop)``): float addition is not associative, and the delivery
        # timestamp must be bit-identical to the single-sim engine's.
        self.partition._emit(self.src_node, self.dst_node, now,
                             now + (tx_time + self.propagation_sec), packet)


class Partition:
    """One shard of a partitioned simulation.

    Owns a private :class:`Simulator`, an outbox of transit records, and
    the table of local delivery callbacks for records addressed to its
    nodes.  The runner alternates :meth:`inject` / :meth:`advance` under
    a barrier protocol; ``keep_alive`` is a runner-maintained hint that
    other partitions still have pending work (used by self-rearming
    observation loops that would otherwise stop when the local queue
    drains).
    """

    def __init__(self, partition_id: int, *, metrics=None):
        self.partition_id = partition_id
        self.sim = Simulator(metrics=metrics)
        self.outbox: List[TransitRecord] = []
        self.keep_alive = False
        self._seq = 0
        self._destinations: Dict[int, Callable[[tuple], None]] = {}
        self._cross_links: List[CrossLink] = []

    # -- topology wiring ---------------------------------------------------

    def cross_link(self, name: str, rate_bps: float, src_node: int,
                   dst_node: int, propagation_sec: float = 1e-6,
                   queue_packets: int = 1024) -> CrossLink:
        """Create (and track) a boundary link from a local node."""
        link = CrossLink(self, name, rate_bps, src_node, dst_node,
                         propagation_sec=propagation_sec,
                         queue_packets=queue_packets)
        self._cross_links.append(link)
        return link

    def register_destination(self, node_id: int,
                             callback: Callable[[tuple], None]) -> None:
        """Route incoming records for ``node_id`` to ``callback(wire)``."""
        self._destinations[node_id] = callback

    @property
    def lookahead_sec(self) -> Optional[float]:
        """Minimum propagation over this partition's cross-links.

        ``None`` when the partition has no boundary (a single-partition
        run may advance straight to the horizon).
        """
        if not self._cross_links:
            return None
        return min(link.propagation_sec for link in self._cross_links)

    # -- record exchange ---------------------------------------------------

    def _emit(self, src_node: int, dst_node: int, send_time: float,
              deliver_time: float, packet) -> None:
        self.outbox.append(TransitRecord(deliver_time, send_time, src_node,
                                         self._seq, dst_node,
                                         packet.to_wire()))
        self._seq += 1

    def inject(self, records) -> None:
        """Schedule incoming transit records as local delivery events.

        Records are sorted by their full tie-break key first, so the
        injection order (and hence local event seq order among equal-time
        deliveries) is independent of how the runner batched them.
        """
        for record in sorted(records):
            callback = self._destinations.get(record.dst_node)
            if callback is None:
                raise ConfigurationError(
                    "partition %d has no destination for node %d"
                    % (self.partition_id, record.dst_node))
            self.sim.schedule_at(record.deliver_time,
                                 lambda cb=callback, w=record.wire: cb(w))

    # -- time advancement --------------------------------------------------

    def advance(self, until: float) -> List[TransitRecord]:
        """Run local events up to ``until``; return (and clear) the
        records produced since the last call."""
        self.sim.run(until=until)
        out = self.outbox
        self.outbox = []
        return out
