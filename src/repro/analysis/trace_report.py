"""Trace characterization: the statistics that drive router performance.

Given a packet stream (from the generators or a pcap file), compute the
quantities the evaluation cares about: packet-size distribution (which
sets the bps/pps ratio and hence every NIC-limited rate), flow counts and
lengths (which set flowlet behavior), and burstiness (which sets queueing
delay).  Used by the CLI's ``trace info`` and by workload sanity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..errors import ConfigurationError
from ..net.flows import FiveTuple
from ..net.packet import Packet
from ..obs.metrics import Reservoir


@dataclass
class TraceReport:
    """Summary statistics of a packet stream."""

    packets: int = 0
    total_bytes: int = 0
    duration_sec: float = 0.0
    #: Packets per distinct size in bytes.
    size_counts: Dict[int, int] = field(default_factory=dict)
    gaps: Reservoir = field(default_factory=Reservoir)
    flows: Dict[FiveTuple, int] = field(default_factory=dict)

    @property
    def mean_bytes(self) -> float:
        return self.total_bytes / self.packets if self.packets else 0.0

    @property
    def rate_bps(self) -> float:
        if self.duration_sec <= 0:
            return 0.0
        return self.total_bytes * 8 / self.duration_sec

    @property
    def flow_count(self) -> int:
        return len(self.flows)

    @property
    def mean_flow_packets(self) -> float:
        if not self.flows:
            return 0.0
        return self.packets / len(self.flows)

    def burstiness(self) -> float:
        """Coefficient of variation of inter-arrival gaps (1.0 = Poisson,
        higher = burstier)."""
        if len(self.gaps) < 2:
            raise ConfigurationError("need >= 2 gaps for burstiness")
        mean = self.gaps.mean()
        if mean == 0:
            return float("inf")
        return self.gaps.stddev() / mean

    def size_shares(self) -> Dict[int, float]:
        """Fraction of packets per distinct size (for small mixtures)."""
        return {size: count / self.packets
                for size, count in sorted(self.size_counts.items())}


def characterize(timed_packets: Iterable[Tuple[float, Packet]]) -> TraceReport:
    """Build a :class:`TraceReport` from (time, packet) pairs."""
    report = TraceReport()
    last_time = None
    for time, packet in timed_packets:
        report.packets += 1
        report.total_bytes += packet.length
        report.size_counts[packet.length] = \
            report.size_counts.get(packet.length, 0) + 1
        if last_time is not None:
            if time < last_time:
                raise ConfigurationError("timestamps must be non-decreasing")
            report.gaps.observe(time - last_time)
        last_time = time
        report.duration_sec = time
        if packet.ip is not None:
            key = packet.five_tuple()
            report.flows[key] = report.flows.get(key, 0) + 1
    return report


def characterize_pcap(path: str) -> TraceReport:
    """Characterize a pcap file on disk."""
    from ..workloads.pcapio import load_trace
    return characterize(load_trace(path))
