"""Self-test of the benchmark harness, on tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = run.load_spec()


def _tiny(cls):
    class Tiny(cls):
        def __init__(self, seed, **sizes):
            super().__init__(seed, **{**cls.tiny, **sizes})
    return Tiny


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Every workload at its tiny size; spans written to ``tmp_path``."""
    for name, cls in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, _tiny(cls))
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


def bench(name, trace=False, seed=3):
    return run.benchmark(name, seed, 0, trace)


def tamper(monkeypatch, name, corrupt):
    """Make ``corrupt(workload, state, result)`` run on every
    repetition's outputs just before they are checked."""
    cls = run.WORKLOADS[name]
    checks = cls.checks

    def corrupted(self, state, inputs, result):
        corrupt(self, state, result)
        return checks(self, state, inputs, result)

    monkeypatch.setattr(cls, "checks", corrupted)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    out = bench(name, trace=trace)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["record"]
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    assert out["record"]["seed"] == 3
    json.dumps(result)
    if trace:
        assert (tmp_path / ("spans-%s-seed3.npz" % name)).exists()


def test_traced_counts_show_each_workloads_layers():
    server = bench("server_routing_64B", trace=True)["result"]["metrics"]
    rb8 = bench("rb8_uniform_64B_2w", trace=True)["result"]["metrics"]
    assert server["fib.lookup_batch_calls"]["value"] > 0
    assert server["click.process_batch_calls"]["value"] > 0
    assert server["cluster.choose_path_calls"]["value"] == 0
    assert rb8["parallel.transit_records"]["value"] > 0
    assert rb8["fib.lookup_batch_calls"]["value"] == 0


def _corrupt_fib(workload, state, result):
    """Overwrite node 0's answer for the first probe address."""
    from repro.net.addresses import Prefix
    from repro.routing.table import Route

    manager = state[1]
    probe = workload.probe_addresses(manager)[0]
    fib = manager.fib_of(0)
    route = fib.lookup(probe)
    wrong = 1 if route is not None and route.port == 0 else 0
    fib.add_route(Prefix(probe, 32), Route(port=wrong, next_hop=probe))


def _perturb_oracle(workload, state, result):
    workload.oracle["delivered"] += 1


def _break_conservation(workload, state, result):
    result[1][0].forwarded_packets += 1


@pytest.mark.parametrize("name,corrupt", [
    ("rb4_churn_64B", _corrupt_fib),
    ("rb8_uniform_64B_2w", _perturb_oracle),
    ("server_routing_64B", _break_conservation),
], ids=["fib_entry", "single_heap_scalar", "conservation"])
def test_corrupted_output_is_counted_as_failure(monkeypatch, name, corrupt):
    tamper(monkeypatch, name, corrupt)
    result = bench(name)["result"]
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_nondeterministic_output_is_counted_as_failure(monkeypatch):
    calls = []

    def drift(workload, state, result):
        # Calls: the warm-up, then measured repetitions 0, 1, 2.
        calls.append(1)
        if len(calls) == 3:
            result[1][-1].empty_polls += 1

    tamper(monkeypatch, "server_routing_64B", drift)
    out = bench("server_routing_64B")
    assert not out["result"]["correct"]
    assert out["record"]["failed_checks"] == ["deterministic[1]"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rb4_churn_64B",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
