#!/usr/bin/env python3
"""Repository benchmark: simulator run time, set-up and memory.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats set-up, input generation, the timed call and the
output checks while the next repetition is expected to end within
``--seconds`` (at least three times), and reports the end-to-end metrics of ``BENCHMARK.json``: medians over the
repetitions.  ``--trace 1`` runs the workload untraced, with an enabled
metrics registry, and with every layer entry point wrapped in spans, and
reports the per-layer metrics.  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the seed, the per-repetition
samples and any failed checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import memory  # noqa: E402
from tracer import SpanTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: A set-up cheaper than this is timed as a batch lasting about this
#: long: a few microseconds of work swing by 2x over tenths of a second
#: on a shared host, and a long batch averages over the swings.
SETUP_SAMPLE_S = 0.5
#: Traced repetitions in a ``--trace 1`` run; their counts must agree.
TRACED_REPS = 2
#: Where a traced run writes its spans.
TRACE_DIR = ROOT / ".perfbench_out"


@dataclass
class Rep:
    """What one repetition leaves behind once its state is dropped."""

    setup_s: float
    run_s: float
    run_cpu_s: float
    offered: int
    outputs: Dict[str, object]
    checks: List[tuple]
    simulated: Dict[str, float]
    host: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    #: Span self time inside the run phase: "all", "ex_engine".
    explained_s: Dict[str, float] = field(default_factory=dict)


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped worker processes."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def one_rep(workload, metrics=None,
            tracer: Optional[SpanTracer] = None) -> Rep:
    """Set up, generate inputs, time the run, then check the outputs."""
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    # The previous repetition's state holds reference cycles; free it
    # before building the next so memory peaks do not stack.
    gc.collect()
    with phase("phase.setup"):
        start = process_time()
        state = workload.setup(metrics)
        setup_s = process_time() - start
    if tracer is None and setup_s < SETUP_SAMPLE_S:
        # Time a batch of cheap set-ups with one pair of clock reads, so
        # the clock's own cost does not dominate.
        count = max(1, int(SETUP_SAMPLE_S / max(setup_s, 1e-7)))
        start = process_time()
        for _ in range(count):
            state = workload.setup(metrics)
        setup_s = (process_time() - start) / count
    with phase("phase.inputs"):
        inputs = workload.inputs(state)
    with phase("phase.run"):
        cpu0 = _cpu_s()
        start = perf_counter()
        result = workload.run(state, inputs, metrics)
        run_s = perf_counter() - start
        run_cpu_s = _cpu_s() - cpu0
    with phase("phase.checks"):
        checks = workload.checks(state, inputs, result)
    return Rep(setup_s=setup_s, run_s=run_s, run_cpu_s=run_cpu_s,
               offered=workload.offered(result),
               outputs=workload.outputs(result), checks=checks,
               simulated=workload.simulated(result),
               host=workload.host_metrics(result))


def tally(reps: List[Rep], extra=()) -> dict:
    """Checks attempted and the names of those failed: each repetition's
    own, ``extra``, and one per repetition after the first, which must
    repeat the first one's simulated outputs exactly (seeded
    bit-identical replay)."""
    checks = [check for rep in reps for check in rep.checks] + list(extra)
    checks += [("deterministic[%d]" % i, rep.outputs == reps[0].outputs)
               for i, rep in enumerate(reps) if i]
    return {"attempted": len(checks),
            "failed": [name for name, ok in checks if not ok]}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds: float, checked=()) -> dict:
    """The untraced run: end-to-end metrics over repeated repetitions.

    Memory: the peak resident set of this process over the timed
    repetitions plus, if they ran worker processes, the workers' own
    growth, sampled in one more, untimed repetition (see ``memory.py``).  Repetitions,
    that one included, go on while the next is expected to end within
    ``seconds``; at least :data:`MIN_REPS` are timed.  ``checked`` are
    outcomes of checks made before (the warm-up's)."""
    gc.collect()
    reset = memory.reset_peak()
    workers_cpu = _children_cpu_s()
    reps = []
    sampled = 0
    start = perf_counter()
    while len(reps) < MIN_REPS or (perf_counter() - start) * (
            len(reps) + 1 + sampled) / len(reps) <= seconds:
        reps.append(one_rep(workload))
        sampled = int(_children_cpu_s() > workers_cpu)
    timed = list(reps)
    own_mb = memory.own_peak_mb()
    workers_mb = 0.0
    peak_mb = own_mb
    if sampled:
        with memory.Sampler() as sampler:
            reps.append(one_rep(workload))
        workers_mb = sampler.growth_mb
        peak_mb += workers_mb
    run_cpu_s = statistics.median(rep.run_cpu_s for rep in timed)
    values = {
        "run_cpu_s": run_cpu_s,
        "setup_s": statistics.median(rep.setup_s for rep in timed),
        "sim_pkts_per_s": timed[0].offered / run_cpu_s,
        "peak_rss_mb": peak_mb,
    }
    detail = {"run_cpu_s": [rep.run_cpu_s for rep in timed],
              "run_wall_s": [rep.run_s for rep in timed],
              "setup_s": [rep.setup_s for rep in timed],
              "measured_s": perf_counter() - start,
              "peak_rss_reset": reset,
              "peak_rss_own_mb": own_mb,
              "peak_rss_workers_growth_mb": workers_mb,
              "offered_packets": timed[0].offered,
              "simulated": timed[0].simulated}
    return {"values": values, "detail": detail, **tally(reps, checked)}


def traced(workload, checked=()) -> dict:
    """The traced run: per-layer metrics.

    Repetitions: untraced (the baseline and the parallel layer's own
    busy/barrier split), with an enabled ``MetricsRegistry`` (obs
    overhead), and :data:`TRACED_REPS` with every layer entry point
    spanned.  A partitioned workload is traced on the inline backend so
    worker code runs in this process, against an untraced inline
    baseline.  The spans are written to :data:`TRACE_DIR`.
    """
    from repro.obs.metrics import MetricsRegistry

    plain = one_rep(workload)
    # An enabled registry adds observer events, so this repetition is
    # checked but not compared with the others.
    observed = one_rep(workload, metrics=MetricsRegistry())
    reps = [plain]
    baseline = plain
    if getattr(workload, "backend", None) == "process":
        workload.backend = "inline"
        baseline = one_rep(workload)
        reps.append(baseline)
    tracer = SpanTracer()
    tables = layers.instrument(tracer)
    traced_reps = []
    try:
        for run_id in range(TRACED_REPS):
            tracer.run_id = run_id
            tables.clear()
            rep = one_rep(workload, tracer=tracer)
            spans = tracer.summary(run_id, ("phase.setup", "phase.run"))
            amounts = tracer.amount_totals(run_id,
                                           ("phase.setup", "phase.run"))
            rep.layers = layers.layer_metrics(spans, amounts, tables)
            run_spans = tracer.summary(run_id, ("phase.run",))
            rep.explained_s = {
                key: sum(s["self_s"] for name, s in run_spans.items()
                         if name not in skip)
                for key, skip in (("all", ("phase.run",)),
                                  ("ex_engine", ("phase.run", "engine.run")))}
            traced_reps.append(rep)
    finally:
        tracer.restore()
        tables.clear()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(TRACE_DIR / ("spans-%s-seed%d.npz"
                             % (workload.name, workload.seed)))
    reps += traced_reps
    extra = [*checked, *observed.checks] + [
        ("trace_counts_repeat[%d]" % i,
         all(rep.layers[k] == traced_reps[0].layers[k] for k in layers.COUNTS))
        for i, rep in enumerate(traced_reps) if i]

    # Counts repeat exactly (checked above); times are medians.
    values = {key: (value if key in layers.COUNTS else
                    statistics.median(r.layers[key] for r in traced_reps))
              for key, value in traced_reps[0].layers.items()}
    values.update(plain.simulated)
    values.update(plain.host)
    # Spans are wall time, so the explained shares are too; overheads
    # compare CPU seconds, like run_cpu_s.  engine.run encloses the whole
    # simulation, so its self time holds every unwrapped model function
    # and the first share is near 1 by construction; the second leaves
    # it out and shows how much the named layers alone account for.
    values["trace.explained_frac"] = statistics.median(
        r.explained_s["all"] / r.run_s for r in traced_reps)
    values["trace.explained_frac_ex_engine"] = statistics.median(
        r.explained_s["ex_engine"] / r.run_s for r in traced_reps)
    values["trace.overhead_frac"] = statistics.median(
        r.run_cpu_s for r in traced_reps) / baseline.run_cpu_s - 1
    values["obs.overhead_frac"] = observed.run_cpu_s / plain.run_cpu_s - 1
    single_heap_s = getattr(workload, "single_heap_s", None)
    if single_heap_s is not None:
        values["parallel.run_wall_s"] = plain.run_s
        values["parallel.speedup_vs_single_heap"] = single_heap_s / plain.run_s

    def samples(attr):
        return {"plain": getattr(plain, attr),
                "observed": getattr(observed, attr),
                "baseline": getattr(baseline, attr),
                "traced": [getattr(r, attr) for r in traced_reps]}

    detail = {"run_wall_s": samples("run_s"),
              "run_cpu_s": samples("run_cpu_s")}
    return {"values": values, "detail": detail, **tally(reps, extra)}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def benchmark(workload_name: str, seed: int, seconds: float,
              trace: bool) -> dict:
    """Run one workload; returns the record and the result object (see
    the module doc)."""
    spec = load_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    cls = WORKLOADS[workload_name]
    # A warm-up repetition at the tiny size first, so lazy imports and
    # first-call costs land outside everything measured.
    warm = one_rep(cls(seed + 1, **cls.tiny))
    gc.collect()  # free the warm-up's state before building anything
    workload = cls(seed)
    if trace:
        measured = traced(workload, warm.checks)
    else:
        measured = measure(workload, seconds, warm.checks)
    values = measured["values"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s"
                       % sorted(unknown))
    # A layer this workload bypasses reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in listed}
    failed = measured["failed"]
    record = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "error_rate": len(failed) / measured["attempted"],
              "failed_checks": failed, **measured["detail"]}
    return {"record": record,
            "result": {"correct": not failed,
                       "attempted": measured["attempted"],
                       "failed": len(failed), "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the checkout it sits in.
        sys.exit("error: no program source at %s" % (ROOT / "src" / "repro"))
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["record"], default=float))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
