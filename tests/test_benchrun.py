"""Tests for the benchmark runner, BENCH schema, and regression gate."""

import copy
import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import compare, make_baseline, run_benchmark, write_bench_json
from repro.obs.benchrun import QUICK_BENCHMARKS, discover, normalize
from repro.obs.schema import BASELINE_SCHEMA, BENCH_SCHEMA, validate_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# One cheap, fully-analytic scenario reused across tests.
BENCH_NAME = "fig6_queues"


@pytest.fixture(scope="module")
def bench_doc():
    return run_benchmark(BENCH_NAME)


class TestNaming:
    def test_normalize_accepts_all_spellings(self):
        assert normalize("bench_fig6_queues") == "fig6_queues"
        assert normalize("fig6_queues") == "fig6_queues"
        assert normalize("bench_fig6_queues.py") == "fig6_queues"

    def test_discover_finds_the_quick_subset(self):
        names = discover()
        for name in QUICK_BENCHMARKS:
            assert name in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(FileNotFoundError):
            run_benchmark("no_such_scenario")


class TestRunBenchmark:
    def test_document_is_schema_valid(self, bench_doc):
        assert validate_bench(bench_doc) == []
        assert bench_doc["schema"] == BENCH_SCHEMA
        assert bench_doc["name"] == BENCH_NAME
        assert bench_doc["status"] == "passed"

    def test_rate_scalars_present(self, bench_doc):
        kinds = {cell["kind"] for cell in bench_doc["scalars"].values()}
        assert "rate" in kinds and "time" in kinds

    def test_written_file_round_trips(self, bench_doc, tmp_path):
        path = write_bench_json(bench_doc, tmp_path)
        assert path.name == "BENCH_%s.json" % BENCH_NAME
        assert validate_bench(json.loads(path.read_text())) == []

    def test_non_time_scalars_reproducible(self, bench_doc):
        """Seeded scenarios must emit identical rates run-to-run (time
        and perf kinds measure the host machine, not the model)."""
        again = run_benchmark(BENCH_NAME)
        stable = {k: v for k, v in bench_doc["scalars"].items()
                  if v["kind"] not in ("time", "perf")}
        stable_again = {k: v for k, v in again["scalars"].items()
                        if v["kind"] not in ("time", "perf")}
        assert stable == stable_again

    def test_perf_scalars_present(self, bench_doc):
        assert bench_doc["scalars"]["run.wall_clock_s"]["kind"] == "perf"
        assert bench_doc["scalars"]["run.events_per_sec"]["kind"] == "perf"
        # fig6_queues is fully analytic -- no DES runs, so the engine
        # wall clock is legitimately zero; it still must be present and
        # bounded by the whole run's wall time.
        assert bench_doc["wall_clock_s"] >= 0.0
        assert bench_doc["events_per_sec"] >= 0.0
        assert bench_doc["wall_clock_s"] <= bench_doc["wall_time_sec"]

    def test_perf_fields_nonzero_for_des_scenario(self):
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.simnet import Simulator
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        wall = registry.get("engine_wall_seconds")
        assert wall is not None and wall.total() > 0.0


class TestCompare:
    def test_classify_directions(self):
        assert compare.classify("rate", 10.0, 8.0, 0.10)[1] == "regressed"
        assert compare.classify("rate", 10.0, 12.0, 0.10)[1] == "improved"
        assert compare.classify("time", 1.0, 1.5, 0.10)[1] == "regressed"
        assert compare.classify("time", 1.0, 0.5, 0.10)[1] == "improved"
        assert compare.classify("rate", 10.0, 9.5, 0.10)[1] == "ok"
        # Wall-clock perf never gates, however large the swing.
        assert compare.classify("perf", 100.0, 10.0, 0.10)[1] == "info"
        assert compare.classify("perf", 10.0, 100.0, 0.10)[1] == "info"

    def test_make_baseline_and_compare(self, bench_doc):
        baseline = make_baseline([bench_doc], created_unix=0.0)
        assert baseline["schema"] == BASELINE_SCHEMA
        deltas = compare.compare_docs(baseline, bench_doc)
        assert deltas and all(d.status == "ok" for d in deltas)

    def test_degraded_rates_regress(self, bench_doc):
        baseline = make_baseline([bench_doc], created_unix=0.0)
        degraded = copy.deepcopy(bench_doc)
        for cell in degraded["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        deltas = compare.compare_docs(baseline, degraded)
        assert any(d.regressed for d in deltas)

    def test_counts_gate_exactly(self):
        """Seeded counts regress on any change, whatever the tolerance,
        including a change from a 0 baseline."""
        assert compare.classify("count", 100.0, 100.0, 0.10)[1] == "ok"
        assert compare.classify("count", 100.0, 101.0, 0.10)[1] == \
            "regressed"
        assert compare.classify("count", 100.0, 99.0, 0.10)[1] == \
            "regressed"
        assert compare.classify("count", 0.0, 0.0, 0.10)[1] == "ok"
        assert compare.classify("count", 0.0, 3.0, 0.10) == \
            (None, "regressed")

    def test_missing_benchmark_raises(self, bench_doc):
        baseline = make_baseline([bench_doc], created_unix=0.0)
        other = copy.deepcopy(bench_doc)
        other["name"] = "something_else"
        with pytest.raises(ValueError):
            compare.compare_docs(baseline, other)

    def test_invalid_document_raises(self, bench_doc):
        baseline = make_baseline([bench_doc], created_unix=0.0)
        with pytest.raises(ValueError):
            compare.compare_docs(baseline, {"schema": "bogus"})


class TestCliObs:
    def test_run_and_report(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME,
                     "--out-dir", str(tmp_path)]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        assert validate_bench(json.loads(bench.read_text())) == []
        assert main(["obs", "report", str(bench)]) == 0
        out = capsys.readouterr().out
        assert BENCH_NAME in out and "passed" in out

    def test_diff_exit_codes(self, tmp_path, capsys):
        assert main(["obs", "run", BENCH_NAME, "--out-dir", str(tmp_path),
                     "--update-baseline", str(tmp_path / "base.json")]) == 0
        bench = tmp_path / ("BENCH_%s.json" % BENCH_NAME)
        base = tmp_path / "base.json"
        assert main(["obs", "diff", str(base), str(bench)]) == 0
        # Degrade every rate by 15% -> exit 1.
        doc = json.loads(bench.read_text())
        for cell in doc["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        degraded = tmp_path / "degraded.json"
        degraded.write_text(json.dumps(doc))
        assert main(["obs", "diff", str(base), str(degraded)]) == 1
        # Garbage input -> exit 2.
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "diff", str(base), str(bad)]) == 2
        capsys.readouterr()

    def test_run_rejects_unknown_name(self, tmp_path, capsys):
        assert main(["obs", "run", "nope",
                     "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_timeline_preset(self, tmp_path, capsys):
        from repro.obs.schema import validate_trace

        assert main(["obs", "timeline", "rb4", "--out-dir", str(tmp_path),
                     "--duration-ms", "0.4"]) == 0
        doc = json.loads((tmp_path / "TRACE_rb4.json").read_text())
        assert validate_trace(doc) == []
        assert doc["traceEvents"]
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()

    def test_timeline_from_bench_json(self, bench_doc, tmp_path, capsys):
        from repro.obs.schema import validate_trace

        path = write_bench_json(bench_doc, tmp_path)
        assert main(["obs", "timeline", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads(
            (tmp_path / ("TRACE_%s.json" % BENCH_NAME)).read_text())
        assert validate_trace(doc) == []
        capsys.readouterr()

    def test_timeline_rejects_bad_targets(self, tmp_path, capsys):
        assert main(["obs", "timeline", "nope",
                     "--out-dir", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "timeline", str(bad),
                     "--out-dir", str(tmp_path)]) == 2
        assert main(["obs", "timeline"]) == 2
        capsys.readouterr()


class TestRegressionScript:
    SCRIPT = str(REPO_ROOT / "scripts" / "check_bench_regression.py")

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, self.SCRIPT, *argv],
            capture_output=True, text=True)

    def test_clean_results_pass(self, bench_doc, tmp_path):
        write_bench_json(bench_doc, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([bench_doc], created_unix=0.0)))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_15pct_degraded_fails(self, bench_doc, tmp_path):
        """The ISSUE's acceptance check: a 15%-degraded copy must fail."""
        degraded = copy.deepcopy(bench_doc)
        for cell in degraded["scalars"].values():
            if cell["kind"] == "rate":
                cell["value"] *= 0.85
        write_bench_json(degraded, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([bench_doc], created_unix=0.0)))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_perturbed_sim_events_fails(self, bench_doc, tmp_path):
        """One executed event more than the baseline's is event-order
        drift: exit 1, although it is far inside the rate tolerance."""
        counted = copy.deepcopy(bench_doc)
        counted["scalars"]["run.sim_events"] = {"value": 1129694.0,
                                                "kind": "count"}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([counted], created_unix=0.0)))
        write_bench_json(counted, tmp_path)
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        counted["scalars"]["run.sim_events"]["value"] += 1
        write_bench_json(counted, tmp_path)
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "run.sim_events" in proc.stdout

    def test_unknown_scalar_keys_warn_without_failing(self, bench_doc,
                                                      tmp_path):
        """Scalars absent from the baseline entry surface as warnings
        (all kinds), and never flip the exit code."""
        extended = copy.deepcopy(bench_doc)
        extended["scalars"]["test_extra.fresh_mpps.mean"] = {
            "value": 1.0, "kind": "rate"}
        extended["scalars"]["test_extra.oddball_events"] = {
            "value": 3.0, "kind": "count"}
        write_bench_json(extended, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([bench_doc], created_unix=0.0)))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "warning:" in proc.stdout
        assert "test_extra.fresh_mpps.mean" in proc.stdout
        # Non-gated kinds used to vanish silently; now they warn too.
        assert "test_extra.oddball_events" in proc.stdout

    def test_unknown_scalar_keys_helper(self, bench_doc):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression", self.SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        baseline = make_baseline([bench_doc], created_unix=0.0)
        extended = copy.deepcopy(bench_doc)
        extended["scalars"]["test_x.sneaky_seconds"] = {
            "value": 1.0, "kind": "time"}
        assert module.unknown_scalar_keys(baseline, bench_doc) == []
        assert module.unknown_scalar_keys(baseline, extended) == \
            ["test_x.sneaky_seconds"]
        # No baseline entry for this benchmark: nothing to warn about
        # (compare_docs already hard-errors on that case).
        renamed = copy.deepcopy(bench_doc)
        renamed["name"] = "unseen"
        assert module.unknown_scalar_keys(baseline, renamed) == []

    def test_unknown_benchmark_warns_only_with_flag(self, bench_doc,
                                                    tmp_path):
        """Artifacts with no baseline entry hard-error by default (the
        PR gate) but downgrade to a warning under
        --ignore-unknown-benchmarks (the nightly full-suite run)."""
        renamed = copy.deepcopy(bench_doc)
        renamed["name"] = "unbaselined"
        write_bench_json(renamed, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([bench_doc], created_unix=0.0)))
        strict = self._run("--baseline", str(baseline),
                           "--results-dir", str(tmp_path))
        assert strict.returncode == 2
        relaxed = self._run("--baseline", str(baseline),
                            "--results-dir", str(tmp_path),
                            "--ignore-unknown-benchmarks")
        assert relaxed.returncode == 0, relaxed.stdout + relaxed.stderr
        assert "warning: unbaselined has no baseline entry" \
            in relaxed.stdout

    def test_missing_baseline_is_exit_2(self, tmp_path):
        proc = self._run("--baseline", str(tmp_path / "absent.json"),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 2

    def test_committed_baseline_matches_fresh_run(self):
        """The baseline in git must describe what the code produces
        today -- otherwise the CI gate drifts into noise."""
        committed = compare.load_json(
            str(REPO_ROOT / "benchmarks" / "results" / "baseline.json"))
        doc = run_benchmark(BENCH_NAME)
        deltas = compare.compare_docs(committed, doc)
        assert deltas, "baseline has no rate scalars for %s" % BENCH_NAME
        assert all(not d.regressed for d in deltas)

    def test_perf_section_reports_parallel_scalars(self, bench_doc,
                                                   tmp_path):
        """Satellite: barrier/lookahead/imbalance perf scalars show up
        in the informational perf section and never gate."""
        doc = copy.deepcopy(bench_doc)
        doc["scalars"]["run.barrier_wait_seconds{workers=2}"] = {
            "value": 0.5, "kind": "perf"}
        doc["scalars"]["run.lookahead_efficiency{workers=2}"] = {
            "value": 0.97, "kind": "perf"}
        doc["scalars"]["run.imbalance{workers=2}"] = {
            "value": 1.2, "kind": "perf"}
        write_bench_json(doc, tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            make_baseline([doc], created_unix=0.0)))
        proc = self._run("--baseline", str(baseline),
                         "--results-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "parallel-runtime perf (informational, never gates)" \
            in proc.stdout
        for key in ("barrier_wait_seconds", "lookahead_efficiency",
                    "imbalance"):
            assert key in proc.stdout


class TestParallelTelemetryHarvest:
    def _parallel_registry(self):
        from repro.core import RouteBricksRouter
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel import simulate_parallel
        from repro.workloads import WorkloadSpec
        from repro.workloads.matrices import uniform_matrix

        router = RouteBricksRouter(num_nodes=4, seed=7)
        workload = WorkloadSpec.fixed(64).with_matrix(
            uniform_matrix(4, router.port_rate_bps * 0.3))
        registry = MetricsRegistry(enabled=True)
        simulate_parallel(router, workload, until=4e-4, workers=2,
                          backend="inline", metrics=registry)
        return registry

    def test_parallel_perf_scalars_harvested(self):
        from repro.obs.benchrun import _parallel_perf_scalars

        scalars = _parallel_perf_scalars(self._parallel_registry())
        assert scalars["run.barrier_wait_seconds{workers=2}"] > 0.0
        assert 0.0 < scalars["run.lookahead_efficiency{workers=2}"] <= 1.0
        assert scalars["run.imbalance{workers=2}"] >= 1.0

    def test_empty_registry_harvests_nothing(self):
        from repro.obs.benchrun import _parallel_perf_scalars
        from repro.obs.metrics import MetricsRegistry

        assert _parallel_perf_scalars(MetricsRegistry(enabled=True)) == {}


class TestTraceSidecar:
    def test_analytic_scenario_skips_trace_sidecar(self, bench_doc,
                                                   tmp_path):
        # fig6 charges no timelines, profile frames, or sampled traces:
        # an all-empty timeline would only confuse Perfetto users.
        write_bench_json(bench_doc, tmp_path)
        assert not list(tmp_path.glob("TRACE_*.json"))

    def test_sidecar_written_when_snapshot_has_events(self, bench_doc,
                                                      tmp_path):
        from repro.obs.schema import validate_trace

        doc = copy.deepcopy(bench_doc)
        doc["name"] = "mini_parallel"
        registry = TestParallelTelemetryHarvest()._parallel_registry()
        doc["metrics"] = registry.snapshot()
        write_bench_json(doc, tmp_path)
        trace = tmp_path / "TRACE_mini_parallel.json"
        assert trace.exists()
        exported = json.loads(trace.read_text())
        assert validate_trace(exported) == []
        assert any(e["ph"] == "X" for e in exported["traceEvents"])
