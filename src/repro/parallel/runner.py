"""Conservative-lookahead epoch loop driving partitioned cluster runs.

:func:`simulate_parallel` shards a
:class:`~repro.core.router.RouteBricksRouter` cluster across
``workers`` partitions and runs them in lock-stepped epochs:

1. ``m`` = earliest pending event time across every partition (counting
   transit records not yet injected);
2. the epoch ends at ``min(m + W, next observer tick, horizon)`` where
   ``W`` is the minimum cross-link propagation delay -- any cross-partition
   send committed during the epoch delivers strictly after it (its
   delivery time is its send time plus serialization plus at least
   ``W``), so no partition can receive a message from its past;
3. every partition advances to the epoch end, producing transit records;
4. the parent routes the records to their destination partitions, where
   they are sorted by the full ``(deliver_time, send_time, src_node,
   seq)`` key and injected as future events before the next epoch.

Epoch boundaries are forced onto the observer's tick grid (computed by
the same cumulative float addition the in-queue tick chain performs), so
barrier-sampled partitions observe their links at exactly the timestamps
the single-sim observer would have used.

Two backends share this loop: ``"inline"`` runs every partition in the
parent process (records still make a pickle round-trip, so inline and
process runs execute identically), ``"process"`` gives each partition a
dedicated worker process that keeps its simulation state alive between
epochs.  Results merge in partition-id order either way, which makes the
outcome independent of worker scheduling.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from time import perf_counter, process_time
from typing import List, Optional

from ..core.partition import (
    OBSERVER_BARRIER,
    OBSERVER_EVENT,
    ClusterPartition,
    PartitionFragment,
    PartitionSpec,
    merge_fragments,
    realize_arrivals,
    registry_config_of,
)
from ..core.router import RouteBricksRouter, SimulationReport
from ..core.topology import balanced_partitions
from ..errors import ConfigurationError, SimulationError
from ..net.packet import Packet
from ..obs.hooks import observer_interval
from ..obs.metrics import active_registry

BACKENDS = ("inline", "process")


def _tick_grid(interval: float, horizon: float) -> List[float]:
    """Observer tick times by cumulative addition -- the exact floats the
    in-queue tick chain hits (each tick schedules the next at ``now +
    interval``), not ``k * interval``, which can differ in the last ulp."""
    ticks = []
    t = interval
    while t <= horizon:
        ticks.append(t)
        t += interval
    return ticks


# -- worker-process protocol --------------------------------------------------
#
# Each partition gets its own single-process pool; the partition object
# lives in that process's module global between epoch calls.  Everything
# crossing the boundary (spec, transit records, fragments) is picklable.

_WORKER: Optional[ClusterPartition] = None


def _ingress_wire(node, wire, egress) -> None:
    # Arrivals cross the process boundary wire-encoded and are decoded
    # lazily, one per arrival event.
    node.ingress(Packet.from_wire(wire), egress)


def _open_partition(spec: PartitionSpec) -> ClusterPartition:
    part = ClusterPartition(spec)
    part.start(_ingress_wire)
    return part


def _worker_init(spec: PartitionSpec):
    global _WORKER
    _WORKER = _open_partition(spec)
    return _WORKER.peek_time(), _WORKER.lookahead_sec


def _advance(part: ClusterPartition, until: float, records,
             keep_alive: bool, sample: bool):
    """One partition's share of an epoch: inject, run, sample.
    Returns (outbox, next event time, CPU seconds spent running)."""
    part.set_keep_alive(keep_alive)
    if records:
        part.inject(records)
    start = process_time()
    outbox = part.advance(until)
    busy = process_time() - start
    if sample:
        part.sample_barrier()
    return outbox, part.peek_time(), busy


def _worker_advance(until: float, records, keep_alive: bool, sample: bool):
    return _advance(_WORKER, until, records, keep_alive, sample)


def _worker_finish() -> PartitionFragment:
    return _WORKER.finish()


class _InlineBackend:
    """All partitions in the parent process (debugging, determinism
    tests, and ``workers`` > cores).  Transit records still make a
    pickle round-trip so execution is bit-identical to the process
    backend."""

    def __init__(self, specs: List[PartitionSpec]):
        self.partitions = [_open_partition(spec) for spec in specs]

    def init_state(self):
        return [(p.peek_time(), p.lookahead_sec) for p in self.partitions]

    def advance_all(self, until, inboxes, keep_alive, sample):
        return [_advance(part, until, pickle.loads(pickle.dumps(inboxes[pid])),
                         keep_alive[pid], sample)
                for pid, part in enumerate(self.partitions)]

    def finish(self) -> List[PartitionFragment]:
        return [part.finish() for part in self.partitions]

    def close(self):
        pass


class _ProcessBackend:
    """One dedicated worker process per partition.

    A single-worker pool per partition pins the partition's simulation
    state to one process across epochs; submissions to different pools
    run concurrently, which is where the wall-clock speedup comes from
    on a multi-core host.  A worker that dies or raises surfaces as a
    :class:`~repro.errors.SimulationError` naming the partition and the
    epoch, with the original error chained.
    """

    def __init__(self, specs: List[PartitionSpec]):
        self.pools = [ProcessPoolExecutor(max_workers=1) for _ in specs]
        self.specs = specs
        self.epoch = 0

    @staticmethod
    def _result(pid: int, future, during: str):
        try:
            return future.result()
        except Exception as exc:
            raise SimulationError(
                "partition %d failed %s: %s: %s"
                % (pid, during, type(exc).__name__, exc)) from exc

    def init_state(self):
        futures = [pool.submit(_worker_init, spec)
                   for pool, spec in zip(self.pools, self.specs)]
        return [self._result(pid, future, "while starting")
                for pid, future in enumerate(futures)]

    def advance_all(self, until, inboxes, keep_alive, sample):
        futures = [pool.submit(_worker_advance, until, inboxes[pid],
                               keep_alive[pid], sample)
                   for pid, pool in enumerate(self.pools)]
        during = "in epoch %d (advancing to t=%r s)" % (self.epoch,
                                                          float(until))
        self.epoch += 1
        return [self._result(pid, future, during)
                for pid, future in enumerate(futures)]

    def finish(self) -> List[PartitionFragment]:
        futures = [pool.submit(_worker_finish) for pool in self.pools]
        return [self._result(pid, future, "while finishing")
                for pid, future in enumerate(futures)]

    def close(self):
        for pool in self.pools:
            pool.shutdown(cancel_futures=True)


def simulate_parallel(router: RouteBricksRouter,
                      events,
                      until: float,
                      workers: int = 1,
                      backend: str = "process",
                      rate_limited_egress: bool = False,
                      failed_links=(),
                      faults=None,
                      manager=None,
                      detection_latency_sec: Optional[float] = None,
                      fib_push_latency_sec: float = 0.0,
                      metrics=None) -> SimulationReport:
    """Run :meth:`RouteBricksRouter.simulate`'s workload sharded across
    ``workers`` partitions under conservative lookahead.

    ``workers=1`` delegates to the single-heap engine unchanged (and so
    still supports a cluster manager and resequencing).  For ``workers >
    1`` the cluster is split into contiguous balanced node ranges; a
    fault schedule is applied partition-locally with owner-side
    accounting, but a control-plane ``manager`` (a global observer) and
    ``router.resequence`` (whose expiry chain rides the global queue)
    are not supported -- use ``workers=1`` for those.

    Fault-free runs merge to bit-identical reports and metric snapshots
    at any worker count (modulo the wall-clock ``engine_wall_seconds``
    counter); see ``tests/test_parallel.py`` for the enforced guarantee.
    """
    if until is None:
        raise ConfigurationError(
            "parallel simulation needs a horizon (until=...)")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if backend not in BACKENDS:
        raise ConfigurationError(
            "unknown backend %r (choose from %s)" % (backend,
                                                     ", ".join(BACKENDS)))
    if workers == 1:
        return router.simulate(
            events, until=until,
            rate_limited_egress=rate_limited_egress,
            failed_links=failed_links, faults=faults, manager=manager,
            detection_latency_sec=detection_latency_sec,
            fib_push_latency_sec=fib_push_latency_sec, metrics=metrics)
    if manager is not None:
        raise ConfigurationError(
            "a cluster manager needs the global view; run workers=1")
    if router.resequence:
        raise ConfigurationError(
            "resequencing timers ride the global event queue; run workers=1")

    registry = metrics if metrics is not None else active_registry()
    assignment = balanced_partitions(router.num_nodes, workers)
    interval = observer_interval(until)
    observe = registry.enabled
    base = PartitionSpec.checked(
        router, failed_links=failed_links, faults=faults,
        assignment=tuple(assignment),
        rate_limited_egress=rate_limited_egress,
        detection_latency_sec=detection_latency_sec,
        fib_push_latency_sec=fib_push_latency_sec,
        observer_interval_sec=interval,
        registry_config=registry_config_of(registry))
    # Roll the arrival process once, in the parent, so the offered
    # traffic, packet ids and flow sequence numbers match a single-heap
    # run at any worker count.
    arrivals = [[] for _ in range(workers)]
    for time, ingress, egress, packet in realize_arrivals(router, events,
                                                          until):
        arrivals[assignment[ingress]].append(
            (time, ingress, egress, packet.to_wire()))
    offered = sum(len(part) for part in arrivals)
    specs = [replace(
        base, partition_id=pid, arrivals=tuple(arrivals[pid]),
        observer_mode=((OBSERVER_EVENT if pid == 0 else OBSERVER_BARRIER)
                       if observe else None))
        for pid in range(workers)]

    driver = (_InlineBackend(specs) if backend == "inline"
              else _ProcessBackend(specs))

    # -- epoch/barrier telemetry ------------------------------------------
    # Totals feed the report unconditionally (they cost one float add per
    # partition per epoch); the per-epoch timelines and cumulative gauges
    # are charged only when a registry is observing.  Barrier wait is
    # reconstructed from the epoch's wall clock: under the process
    # backend a partition stalls for ``epoch_wall - its busy``; under the
    # inline backend the same formula charges each partition the time its
    # siblings ran, i.e. the stall an actual parallel run would have hit.
    busy_totals = [0.0] * workers
    wait_totals = [0.0] * workers
    sim_covered = 0.0
    if observe:
        epoch_busy_rec = [registry.timeline(
            "parallel_epoch_busy_seconds",
            help="per-epoch CPU seconds per partition, binned at the "
                 "epoch's end time").bind(workers=workers, partition=pid)
            for pid in range(workers)]
        epoch_wait_rec = [registry.timeline(
            "parallel_epoch_barrier_seconds",
            help="per-epoch barrier-stall wall seconds per partition")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        transit_rec = [registry.timeline(
            "parallel_transit_records",
            help="cross-partition transit records delivered into each "
                 "partition, binned at the carrying barrier")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        transit_bytes_rec = [registry.timeline(
            "parallel_transit_bytes",
            help="frame bytes riding cross-partition transit records")
            .bind(workers=workers, partition=pid)
            for pid in range(workers)]
        busy_gauge = [registry.gauge(
            "parallel_busy_seconds",
            help="cumulative CPU seconds per partition")
            .bind(workers=workers, partition=pid) for pid in range(workers)]
        wait_gauge = [registry.gauge(
            "parallel_barrier_wait_seconds",
            help="cumulative barrier-stall wall seconds per partition")
            .bind(workers=workers, partition=pid) for pid in range(workers)]
        epoch_len_obs = registry.histogram(
            "parallel_epoch_sim_seconds",
            help="simulated seconds covered per epoch (<= the lookahead "
                 "window W)").bind(workers=workers)

    def charge_epoch(results, epoch_wall, epoch_end):
        for pid, (_, _, busy) in enumerate(results):
            wait = max(0.0, epoch_wall - busy)
            busy_totals[pid] += busy
            wait_totals[pid] += wait
            if observe:
                epoch_busy_rec[pid](epoch_end, busy)
                epoch_wait_rec[pid](epoch_end, wait)
                busy_gauge[pid](busy_totals[pid])
                wait_gauge[pid](wait_totals[pid])

    try:
        state = driver.init_state()
        peeks: List[Optional[float]] = [peek for peek, _ in state]
        lookaheads = [la for _, la in state if la is not None]
        if not lookaheads:
            raise ConfigurationError(
                "no cross-partition links: nothing to parallelize")
        window = min(lookaheads)
        ticks = _tick_grid(interval, until) if observe else []
        next_tick = 0
        inboxes: List[List] = [[] for _ in range(workers)]
        epochs = 0
        while True:
            candidates = [peek for peek in peeks if peek is not None]
            candidates.extend(record.deliver_time
                              for inbox in inboxes for record in inbox)
            if not candidates:
                break
            earliest = min(candidates)
            if earliest > until:
                break
            epoch_end = min(earliest + window, until)
            sample = False
            if next_tick < len(ticks) and ticks[next_tick] <= epoch_end:
                epoch_end = ticks[next_tick]
                sample = True
                next_tick += 1
            keep_alive = [
                any(peeks[q] is not None for q in range(workers) if q != pid)
                or any(inboxes[q] for q in range(workers) if q != pid)
                for pid in range(workers)]
            wall_start = perf_counter()
            results = driver.advance_all(epoch_end, inboxes, keep_alive,
                                         sample)
            epoch_wall = perf_counter() - wall_start
            epochs += 1
            sim_covered += max(0.0, epoch_end - earliest)
            charge_epoch(results, epoch_wall, epoch_end)
            if observe:
                epoch_len_obs(max(0.0, epoch_end - earliest))
            inboxes = [[] for _ in range(workers)]
            for pid, (outbox, peek, _) in enumerate(results):
                peeks[pid] = peek
                for record in outbox:
                    inboxes[assignment[record.dst_node]].append(record)
            if observe:
                for pid, inbox in enumerate(inboxes):
                    if inbox:
                        transit_rec[pid](epoch_end, len(inbox))
                        transit_bytes_rec[pid](
                            epoch_end,
                            sum(r.frame_bytes() for r in inbox))
        # Tail barrier: no executable events remain at or before the
        # horizon, so advancing everyone to it runs nothing -- it only
        # pins each clock to ``until`` (undelivered records, if any, are
        # injected as future events exactly as the single sim would
        # leave them pending).  Charged as a final (non-epoch) barrier so
        # the telemetry sums match each fragment's ``busy_seconds``.
        wall_start = perf_counter()
        results = driver.advance_all(until, inboxes, [False] * workers,
                                     False)
        charge_epoch(results, perf_counter() - wall_start, until)
        fragments = driver.finish()
    finally:
        driver.close()
    for frag in fragments:
        frag.busy_seconds = busy_totals[frag.partition_id]

    report = merge_fragments(
        fragments, offered_packets=offered, duration_sec=until,
        workers=workers, epochs=epochs,
        registry=registry if observe else None)
    report.barrier_wait_seconds = wait_totals
    report.lookahead_efficiency = (
        sim_covered / (epochs * window) if epochs else 0.0)
    mean_busy = sum(busy_totals) / workers
    report.load_imbalance = (max(busy_totals) / mean_busy
                             if mean_busy > 0 else 0.0)
    if observe:
        run_info = registry.gauge(
            "run_workers", help="partitions driving this run")
        run_info.set(workers)
        registry.gauge(
            "run_epochs",
            help="conservative-lookahead epochs executed").set(epochs)
        registry.gauge(
            "parallel_lookahead_efficiency",
            help="mean epoch length over the lookahead window W").set(
                report.lookahead_efficiency, workers=workers)
        registry.gauge(
            "parallel_imbalance",
            help="busiest partition busy seconds over the mean").set(
                report.load_imbalance, workers=workers)
    return report
