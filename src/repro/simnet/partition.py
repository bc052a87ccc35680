"""Boundary primitives of a partitioned simulation.

A partitioned run gives each shard its own
:class:`~repro.simnet.engine.Simulator` (heap and timer wheel); the
shard itself is the cluster model's
:class:`~repro.core.partition.ClusterPartition`.  Packets cross shards
through the two types here: a :class:`CrossLink` keeps the shared
queueing/serialization semantics of :class:`Link` but, instead of
scheduling a delivery event on the (remote) peer, appends a timestamped
:class:`TransitRecord` to its owning partition's outbox.  A runner
drains outboxes at epoch barriers and injects the records into the
destination partitions.

Conservative lookahead: every cross delivery takes at least
``serialization + propagation > propagation`` seconds after its send is
committed, so with ``W = min(propagation over all cross-links)`` a
partition may safely run to ``min(next pending event time across all
partitions) + W`` -- any send committed in that window delivers strictly
after it.  ``W`` is exposed as ``ClusterPartition.lookahead_sec``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ConfigurationError
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
    a :class:`TransitRecord` in the owning partition's outbox, via its
    ``_emit``.  ``partition`` is the owning
    :class:`~repro.core.partition.ClusterPartition`.
    """

    def __init__(self, partition, name: str, rate_bps: float,
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
