"""Per-node random seeds for the cluster simulation."""

from __future__ import annotations

import random
from typing import List


def node_seeds(seed: int, count: int) -> List[int]:
    """The per-node RNG seeds the cluster derives from a root seed.

    This is *the* derivation both the single-heap cluster build and every
    partition build share: a root :class:`random.Random` seeded with
    ``seed`` draws one 32-bit seed per node, in node-id order.  A
    partition re-derives the full chain and uses only its local indices,
    so node RNG streams are identical regardless of how the cluster is
    sharded or which worker hosts a node.
    """
    root = random.Random(seed)
    return [root.getrandbits(32) for _ in range(count)]
