"""A small discrete-event simulation engine.

Drives the packet-level cluster simulation (`repro.core`): an event queue
with a simulated clock, rate-limited links with propagation delay, bounded
FIFO queues, and seeded random streams.  Run statistics live in
:mod:`repro.obs.metrics`.
"""

from .engine import Event, Simulator
from .links import Link
from .partition import CrossLink, Partition, TransitRecord
from .queues import FiniteQueue
from .rng import RngStreams, node_seeds

__all__ = [
    "Event",
    "Simulator",
    "Link",
    "Partition",
    "CrossLink",
    "TransitRecord",
    "FiniteQueue",
    "RngStreams",
    "node_seeds",
]
