"""The single-heap cluster run against its recorded outputs.

``RouteBricksRouter.simulate`` runs the cluster as one partition of the
partitioned engine.  ``tests/test_parallel.py`` compares that run with
multi-partition runs, so it cannot notice a change to the model code
both share.  These goldens pin the features only a single-heap run has:

* ``manager_crash_recover`` -- a crash/recover schedule with a
  ``ClusterManager``, and its convergence records;
* ``resequence`` -- output-node resequencing with a profiling registry;
* ``fib_churn`` -- ``route_via_fib`` forwarding under a ``ChurnDriver``
  with a registry on (the ``cluster_latency_usec`` timeline included);
* ``replay_pair_open`` -- an open-ended (``until=None``) pair replay.

See ``tests/golden/README.md`` for how they were recorded.
"""

import json
from pathlib import Path

import pytest

from repro.control import run_churn
from repro.core import RouteBricksRouter
from repro.core.control import ClusterManager
from repro.faults import FaultSchedule
from repro.obs.metrics import MetricsRegistry
from repro.workloads import FlowGenerator, WorkloadSpec
from repro.workloads.matrices import uniform_matrix

from tests.test_parallel import _normalize, _report_scalars

GOLDEN_PATH = Path(__file__).parent / "golden" / "cluster_single_heap.json"


def _jsonable(value):
    """The JSON round trip the goldens went through (tuples become
    lists; floats round-trip exactly)."""
    return json.loads(json.dumps(value))


def _report(report):
    scalars = _report_scalars(report)
    scalars.update(
        flowlet_switches=report.flowlet_switches,
        flowlet_spills=report.flowlet_spills,
        resequencer_held=report.resequencer_held,
        resequencer_timeouts=report.resequencer_timeouts,
        fib_miss_packets=report.fib_miss_packets,
        workers=report.workers,
        epochs=report.epochs,
        convergence=[[r.event, r.node, r.failed_at, r.detected_at,
                      r.converged_at, r.live_nodes]
                     for r in report.convergence])
    return scalars


def _uniform(router, load_bps=3e9, size=740, seed=5):
    return WorkloadSpec.fixed(size, app="forwarding", seed=seed).with_matrix(
        uniform_matrix(router.num_nodes, load_bps))


def _flows(seed=1, packets_per_flow=240):
    # Heavy enough to overload the direct 0 -> 1 path, so balancing (and
    # with it reordering) kicks in.
    return FlowGenerator(num_flows=60, packets_per_flow=packets_per_flow,
                         packet_bytes=740,
                         burst_size=8, burst_gap_sec=1e-4,
                         intra_burst_gap_sec=4e-7, seed=seed)


def manager_crash_recover():
    router = RouteBricksRouter(seed=5)
    manager = ClusterManager()
    for port in range(router.num_nodes):
        manager.add_node(external_port=port)
        manager.announce("10.%d.0.0/16" % port, port)
    manager.push_fibs()
    schedule = (FaultSchedule()
                .crash_node(at=0.2e-3, node=2)
                .recover_node(at=0.5e-3, node=2))
    report = router.simulate(_uniform(router), until=1e-3, faults=schedule,
                             manager=manager, detection_latency_sec=50e-6,
                             fib_push_latency_sec=20e-6)
    return _jsonable({"report": _report(report)})


def resequence():
    router = RouteBricksRouter(use_flowlets=False, resequence=True, seed=3)
    registry = MetricsRegistry(enabled=True, trace_sample_every=16,
                               profile=True)
    events = [(time, 0, 1, packet)
              for time, packet in _flows().timed_packets()]
    report = router.simulate(events, until=2e-3, metrics=registry)
    return _jsonable({"report": _report(report),
                      "snapshot": _normalize(registry.snapshot())})


def fib_churn():
    registry = MetricsRegistry(enabled=True, trace_sample_every=16)
    churn = run_churn(num_nodes=4, routes=400, update_rate_per_sec=400_000.0,
                      duration_sec=2e-4, tail_sec=2e-4, load=0.2,
                      packet_bytes=256, seed=7, verify_probes=16,
                      metrics=registry)
    return _jsonable({
        "report": _report(churn.forwarding),
        "driver": [churn.updates_applied, churn.fib_ops, churn.rebuilds,
                   churn.sync_ticks, churn.mean_convergence_sec,
                   churn.unconverged],
        "snapshot": _normalize(registry.snapshot())})


def replay_pair_open():
    report = RouteBricksRouter(seed=1).replay_pair(_flows(seed=4)
                                                   .timed_packets())
    return _jsonable({"report": _report(report)})


CASES = {case.__name__: case for case in (manager_crash_recover, resequence,
                                          fib_churn, replay_pair_open)}


def record() -> dict:
    """Every case's outputs, in the layout of the golden file."""
    return {name: case() for name, case in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_heap_reproduces_golden(golden, name):
    assert CASES[name]() == golden[name]


def test_goldens_exercise_their_features(golden):
    crash = golden["manager_crash_recover"]["report"]
    assert [row[0] for row in crash["convergence"]] == ["node_down",
                                                        "node_up"]
    reseq = golden["resequence"]["report"]
    assert reseq["resequencer_held"] > 0
    assert reseq["reordered_fraction"] == 0.0
    churn = golden["fib_churn"]
    assert churn["report"]["fib_miss_packets"] > 0
    assert "cluster_latency_usec" in churn["snapshot"]["timelines"]
    assert golden["replay_pair_open"]["report"]["indirect"] > 0
