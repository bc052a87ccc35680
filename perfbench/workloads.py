"""The benchmark's three workloads, each driven through public APIs only.

A workload splits one repetition into four phases that the harness in
``run.py`` times separately:

``setup(metrics)``
    Builds the model state the program needs before its first simulated
    event.  Timed as ``setup_s``.
``inputs(state)``
    The benchmark's own input generation from the seed.  Not timed.
``run(state, inputs, metrics)``
    The single call into the program whose host wall time is ``run_s``.
``checks(state, inputs, result)``
    Output checks against an independent oracle.  Not timed.

``outputs(result)`` returns the run's *simulated* outputs: deterministic
values that must repeat exactly for one seed, which the harness compares
across repetitions.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Tuple

#: The paper's Sec. 5.1 loss-free IP-routing rate at 64 B.
PAPER_ROUTING_GBPS = 6.35
#: Largest model-vs-DES disagreement the repo's validation suite accepts.
ANALYTIC_AGREEMENT = 0.12

#: Share of churn-workload destinations drawn from the RIB (run_churn's).
HIT_FRACTION = 0.95

Check = Tuple[str, bool]


class Workload:
    """Defaults for the optional per-layer hooks.

    ``tiny`` holds constructor sizes small enough for a warm-up or a
    test, large enough that every layer the workload stresses still
    does work and every check still passes.
    """

    tiny: Dict[str, float] = {}

    @staticmethod
    def simulated(result) -> Dict[str, float]:
        """Deterministic per-layer values the run's reports carry."""
        return {}

    @staticmethod
    def host_metrics(result) -> Dict[str, float]:
        """Host-time per-layer values the run's reports carry."""
        return {}


class ServerRouting(Workload):
    """``server_routing_64B``: the Sec. 5.1 loss-free-rate binary search
    of the ``routing`` Click preset on an 8-queue, 1-port Nehalem server,
    batch-native.  Stresses Click elements, ``PacketBatch``, batched
    DIR-24-8 lookups and the engine's timer wheel; bypasses the cluster,
    parallel and control layers."""

    name = "server_routing_64B"
    tiny = {"step_sec": 3e-4, "tolerance_bps": 1e9}

    def __init__(self, seed: int, step_sec: float = 2e-3,
                 tolerance_bps: float = 0.25e9):
        from repro.analysis.bottleneck import pipeline_breakdown
        from repro.click.pipelines import build_pipeline

        self.seed = seed
        self.step_sec = step_sec
        self.tolerance = tolerance_bps
        graph = build_pipeline("routing", self._server())
        self.analytic_gbps = pipeline_breakdown(graph,
                                                packet_bytes=64)["rate_gbps"]

    @staticmethod
    def _server():
        from repro.hw.presets import nehalem_server
        return nehalem_server(num_ports=1, queues_per_port=8)

    def setup(self, metrics=None):
        from repro.click.simrun import TimedPipelineRun
        return TimedPipelineRun(self._server(), "routing", packet_bytes=64,
                                batch=True, metrics=metrics)

    def inputs(self, state):
        return self.seed

    def run(self, state, inputs, metrics=None):
        # find_loss_free_rate's bracket and sustainability rule, driven
        # step by step so every step's report can be checked.
        low, high = 0.5e9, 30e9
        max_backlog = 2 * state.kp * sum(len(r.polls) for r in state.replicas)
        steps = []
        while high - low > self.tolerance:
            mid = (low + high) / 2
            report = state.run(mid, duration_sec=self.step_sec, seed=inputs)
            steps.append(report)
            if report.sustainable(max_backlog):
                low = mid
            else:
                high = mid
        return low, steps

    @staticmethod
    def offered(result) -> int:
        return sum(step.offered_packets for step in result[1])

    @staticmethod
    def outputs(result) -> Dict[str, object]:
        rate, steps = result
        return {
            "loss_free_bps": rate,
            "steps": [(s.offered_packets, s.forwarded_packets,
                       s.dropped_packets, s.residual_backlog,
                       s.total_polls, s.empty_polls) for s in steps],
        }

    def checks(self, state, inputs, result) -> List[Check]:
        rate, steps = result
        out = [("conservation[%d]" % i,
                s.offered_packets == s.forwarded_packets + s.dropped_packets
                + s.residual_backlog)
               for i, s in enumerate(steps)]
        error = abs(rate / 1e9 - self.analytic_gbps) / self.analytic_gbps
        out.append(("analytic_rate", error <= ANALYTIC_AGREEMENT))
        return out

    def simulated(self, result) -> Dict[str, float]:
        rate, steps = result
        polls = sum(s.total_polls for s in steps)
        return {
            "sim.paper_error_pct": abs(rate / 1e9 - PAPER_ROUTING_GBPS)
            / PAPER_ROUTING_GBPS * 100,
            "click.polls": polls,
            "click.empty_poll_frac": (sum(s.empty_polls for s in steps)
                                      / polls if polls else 0.0),
        }


class Rb8Uniform(Workload):
    """``rb8_uniform_64B_2w``: RB8 under a uniform 64 B matrix at 50%
    load, sharded over two worker processes.  Stresses the engine,
    per-packet ``Packet`` and VLB work in ``core.node``, and the parallel
    epoch/barrier/transit path; bypasses Click and FIB lookups (egress
    is precomputed)."""

    name = "rb8_uniform_64B_2w"
    tiny = {"until_sec": 5e-5}
    nodes = 8
    workers = 2
    load = 0.5

    def __init__(self, seed: int, until_sec: float = 0.6e-3):
        self.seed = seed
        self.until = until_sec
        #: The traced run switches this to "inline".
        self.backend = "process"
        # The single-heap engine is the oracle every partitioned run
        # must match bit for bit.
        router = self.setup()
        events = self.inputs(router)
        start = perf_counter()
        report = router.simulate(events, until=self.until)
        self.single_heap_s = perf_counter() - start
        self.oracle = self.scalars(report)

    def setup(self, metrics=None):
        from repro.core import RouteBricksRouter
        return RouteBricksRouter(num_nodes=self.nodes, seed=self.seed)

    def inputs(self, state):
        from repro.workloads import WorkloadSpec
        from repro.workloads.matrices import uniform_matrix
        spec = WorkloadSpec.fixed(64, seed=self.seed).with_matrix(
            uniform_matrix(self.nodes, state.port_rate_bps * self.load))
        return list(spec.events(self.until))

    def run(self, state, inputs, metrics=None):
        from repro.parallel import simulate_parallel
        return simulate_parallel(state, inputs, until=self.until,
                                 workers=self.workers, backend=self.backend,
                                 metrics=metrics)

    @staticmethod
    def offered(result) -> int:
        return result.offered_packets

    @staticmethod
    def scalars(report) -> Dict[str, object]:
        return {"offered": report.offered_packets,
                "delivered": report.delivered_packets,
                "dropped": report.dropped_packets,
                "delivered_bytes": report.delivered_bytes,
                "latency_p99_usec": report.latency_usec.percentile(99)}

    def outputs(self, result) -> Dict[str, object]:
        out = self.scalars(result)
        out.update(events=result.events_run, epochs=result.epochs,
                   indirect=result.indirect_packets,
                   flowlet_switches=result.flowlet_switches)
        return out

    def checks(self, state, inputs, result) -> List[Check]:
        got = self.scalars(result)
        return [("single_heap." + key, got[key] == want)
                for key, want in self.oracle.items()]

    @staticmethod
    def simulated(result) -> Dict[str, float]:
        routed = result.direct_packets + result.indirect_packets
        return {
            "engine.events": result.events_run,
            "cluster.indirect_frac": (result.indirect_packets / routed
                                      if routed else 0.0),
            "cluster.flowlet_switches": result.flowlet_switches,
            "parallel.epochs": result.epochs,
            "parallel.lookahead_efficiency": result.lookahead_efficiency,
        }

    @staticmethod
    def host_metrics(result) -> Dict[str, float]:
        return {"parallel.busy_s_max": max(result.partition_busy_seconds),
                "parallel.barrier_wait_s": sum(result.barrier_wait_seconds),
                "parallel.imbalance": result.load_imbalance}


class Rb4Churn(Workload):
    """``rb4_churn_64B``: RB4 forwarding through live per-node FIBs
    (``route_via_fib=True``) while a Poisson churn stream updates them.
    The same ``Dir24_8`` serves writes beside reads; bypasses Click and
    the parallel layer."""

    name = "rb4_churn_64B"
    tiny = {"routes": 500, "duration_sec": 2e-4, "probes": 64}
    nodes = 4
    update_rate = 1e6
    load = 0.5

    def __init__(self, seed: int, routes: int = 20_000,
                 duration_sec: float = 2e-3, probes: int = 256):
        self.seed = seed
        self.routes = routes
        self.duration = duration_sec
        self.probes = probes

    def setup(self, metrics=None):
        from repro.control.runner import announce_rib, build_cluster
        router, manager = build_cluster(self.nodes, seed=self.seed)
        announce_rib(manager, self.routes, seed=self.seed + 1)
        manager.push_fibs()
        return router, manager

    def inputs(self, state):
        from repro.control.churn import ChurnSchedule
        from repro.net.packet import Packet
        router, manager = state
        schedule = ChurnSchedule.measured_rate(
            manager.rib, rate_per_sec=self.update_rate,
            duration_sec=self.duration, num_ports=self.nodes,
            seed=self.seed + 2)
        # The traffic run_churn offers: destinations mostly drawn from
        # the initial RIB with host bits randomized (the rest uniform,
        # likely FIB misses), evenly paced, ingress round-robin; egress
        # is left to each ingress node's live FIB.
        per_node_pps = self.load * router.port_rate_bps / (8.0 * 64)
        count = max(1, int(per_node_pps * self.nodes * self.duration))
        spacing = self.duration / count
        rng = random.Random(self.seed + 3)
        prefixes = list(manager.rib)
        events = []
        for i in range(count):
            if rng.random() < HIT_FRACTION:
                prefix = prefixes[rng.randrange(len(prefixes))]
                host_bits = 32 - prefix.length
                dst = prefix.network.value | (rng.getrandbits(host_bits)
                                              if host_bits else 0)
            else:
                dst = rng.getrandbits(32)
            packet = Packet.udp((10 << 24) | (i & 0xFFFF), dst, length=64)
            events.append((i * spacing, i % self.nodes, None, packet))
        return schedule, events

    def run(self, state, inputs, metrics=None):
        from repro.control.driver import DEFAULT_SYNC_INTERVAL_SEC, ChurnDriver
        router, manager = state
        schedule, events = inputs
        driver = ChurnDriver(manager, schedule, metrics=metrics)
        horizon = self.duration + max(1e-3, 2 * DEFAULT_SYNC_INTERVAL_SEC)
        report = router.simulate(events, until=horizon, manager=manager,
                                 route_via_fib=True, churn=driver,
                                 metrics=metrics)
        return report, driver

    @staticmethod
    def offered(result) -> int:
        return result[0].offered_packets

    @staticmethod
    def outputs(result) -> Dict[str, object]:
        report, driver = result
        return {"offered": report.offered_packets,
                "delivered": report.delivered_packets,
                "dropped": report.dropped_packets,
                "fib_miss": report.fib_miss_packets,
                "events": report.events_run,
                "latency_p99_usec": report.latency_usec.percentile(99),
                "updates_applied": driver.updates_applied,
                "fib_ops": driver.fib_ops,
                "rebuilds": driver.rebuilds,
                "convergence_mean_sec": driver.mean_convergence_sec}

    def probe_addresses(self, manager) -> List[int]:
        from repro.control.runner import probe_addresses
        return probe_addresses(manager, self.probes, seed=self.seed + 4)

    def checks(self, state, inputs, result) -> List[Check]:
        from repro.control.runner import verify_fibs
        manager = state[1]
        return [("fibs_match_trie",
                 verify_fibs(manager, self.probe_addresses(manager))),
                ("converged", result[1].unconverged == 0)]

    @staticmethod
    def simulated(result) -> Dict[str, float]:
        report, driver = result
        routed = report.direct_packets + report.indirect_packets
        return {
            "engine.events": report.events_run,
            "cluster.indirect_frac": (report.indirect_packets / routed
                                      if routed else 0.0),
            "cluster.flowlet_switches": report.flowlet_switches,
            "control.fib_ops": driver.fib_ops,
            "control.rebuilds": driver.rebuilds,
            "control.updates_applied": driver.updates_applied,
            "control.convergence_mean_usec":
                driver.mean_convergence_sec * 1e6,
        }


WORKLOADS = {cls.name: cls for cls in (ServerRouting, Rb8Uniform, Rb4Churn)}
