"""A small discrete-event simulation engine.

Drives the packet-level cluster simulation (`repro.core`): an event queue
with a simulated clock, rate-limited links with propagation delay, bounded
FIFO queues, per-node seeds, and the cross-partition link and transit
record a sharded run exchanges packets through (the shard itself is
:class:`repro.core.partition.ClusterPartition`).  Run statistics live in
:mod:`repro.obs.metrics`.
"""

from .engine import Simulator
from .links import Link
from .partition import CrossLink, TransitRecord
from .queues import FiniteQueue
from .rng import node_seeds

__all__ = [
    "Simulator",
    "Link",
    "CrossLink",
    "TransitRecord",
    "FiniteQueue",
    "node_seeds",
]
