"""A dead worker process surfaces as a clear error, never a hang.

The process backend gives each partition its own worker.  When one dies
mid-run, the error must name the partition and the epoch it died in.
"""

import functools
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter

import pytest

from repro.core import RouteBricksRouter
from repro.errors import SimulationError
from repro.parallel import runner, simulate_parallel
from repro.workloads import WorkloadSpec
from repro.workloads.matrices import uniform_matrix

_ADVANCE = runner._worker_advance
_CALLS = 0


def _die_at_fifth_advance(until, records, keep_alive, sample):
    """``_worker_advance`` that kills partition 1's worker process at its
    fifth call (each worker process counts its own calls)."""
    global _CALLS
    _CALLS += 1
    if runner._WORKER.spec.partition_id == 1 and _CALLS == 5:
        os._exit(1)
    return _ADVANCE(until, records, keep_alive, sample)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_dead_worker_names_partition_and_epoch(monkeypatch):
    # Forked workers inherit the patched module attribute, which the
    # parent pickles by reference when it submits each epoch.
    monkeypatch.setattr(runner, "_worker_advance", _die_at_fifth_advance)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    router = RouteBricksRouter(num_nodes=4, seed=11)
    workload = WorkloadSpec.fixed(64).with_matrix(
        uniform_matrix(4, router.port_rate_bps * 0.3))
    start = perf_counter()
    with pytest.raises(SimulationError) as info:
        simulate_parallel(router, workload, until=2e-4, workers=2,
                          backend="process")
    elapsed = perf_counter() - start
    message = str(info.value)
    assert re.search(r"partition 1 failed in epoch 4 \(advancing to "
                     r"t=[0-9.e-]+ s\)", message), message
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert elapsed < 30.0
