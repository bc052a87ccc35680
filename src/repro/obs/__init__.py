"""Observability: metrics, packet-path tracing, and the benchmark harness.

Three layers:

* :mod:`repro.obs.metrics` -- :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timeline` behind a
  :class:`MetricsRegistry`; :class:`Reservoir` is the exact-quantile
  store behind every histogram series and every report's latency
  distribution.  The DES hot paths (``simnet.engine``,
  ``click.simrun``, the cluster nodes) charge the *active* registry,
  which is disabled by default; enable one to get per-core cycle
  attribution, per-queue occupancy/drop timelines, per-bus bytes, and
  per-hop VLB latency out of any run.
* :mod:`repro.obs.trace` -- 1-in-N sampled :class:`PathTrace` logs of
  individual packets' element/hop journeys.
* :mod:`repro.obs.profile` / :mod:`repro.obs.explain` -- the attribution
  layer: a deterministic :class:`SpanProfiler` (hierarchical cycle/
  latency spans with collapsed-stack output), per-packet latency
  decomposition with a conservation check (:func:`decompose_trace`),
  and :func:`explain_pipeline`, which joins the profile with the
  analytic solver to name the binding resource and cross-check the
  DES-observed bottleneck against the model's prediction
  (``python -m repro obs explain``).
* :mod:`repro.obs.benchrun` -- runs ``benchmarks/bench_*.py`` scenarios
  outside pytest and emits schema-versioned ``BENCH_<name>.json``
  artifacts (:mod:`repro.obs.schema`), which
  :mod:`repro.obs.compare` diffs against a committed baseline -- the
  CI perf-regression gate and ``python -m repro obs {run,report,diff}``
  both consume exactly these.
* :mod:`repro.obs.timeline` -- :func:`chrome_trace` renders any metrics
  snapshot (live or from a BENCH document) as a Perfetto-loadable
  Chrome-trace-event ``TRACE_<name>.json``: parallel epoch/barrier
  spans, profiler flame charts, and stitched packet journeys
  (``python -m repro obs timeline``).

Metric names charged by the built-in instrumentation:

=============================  ==========================================
``sim_events``                 timeline of DES events executed
``core_cycles{core,kind}``     cycles per core, ``kind=busy|empty``
``core_polls{core,kind}``      poll counts per core, same split
``bus_bytes{bus}``             bytes over memory/io/pcie/qpi
``rxq_occupancy{queue}``       RX-ring occupancy timeline (sampled)
``rxq_drops{queue}``           RX-ring drops per bin (delta)
``vlb_hop_latency_usec{role}`` per-hop latency, ``role`` = the hop's
                               receiving role (intermediate/output)
``vlb_path_hops``              nodes touched per delivered packet
``link_*{link}``               cluster cable occupancy/drops/bytes
``ext_occupancy{node}``        rate-limited external line backlog
=============================  ==========================================
"""

from .benchrun import (
    QUICK_BENCHMARKS,
    discover,
    run_benchmark,
    write_bench_json,
)
from .compare import Delta, compare_docs, make_baseline
from .explain import (
    ExplainReport,
    explain_from_registry,
    explain_pipeline,
    format_explain,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    Timeline,
    active_registry,
    set_active_registry,
    use_registry,
)
from .profile import (
    STAGES,
    LatencyBreakdown,
    SpanProfiler,
    aggregate_breakdowns,
    decompose_trace,
    trace_delivered,
)
from .timeline import chrome_trace, write_trace_json
from .trace import PathTrace, TraceSampler, trace_of

from .schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    TRACE_SCHEMA,
    validate_bench,
    validate_trace,
)

__all__ = [
    "BASELINE_SCHEMA",
    "BENCH_SCHEMA",
    "TRACE_SCHEMA",
    "Counter",
    "Delta",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "LatencyBreakdown",
    "MetricsRegistry",
    "PathTrace",
    "QUICK_BENCHMARKS",
    "Reservoir",
    "STAGES",
    "SpanProfiler",
    "Timeline",
    "TraceSampler",
    "active_registry",
    "aggregate_breakdowns",
    "chrome_trace",
    "compare_docs",
    "decompose_trace",
    "discover",
    "explain_from_registry",
    "explain_pipeline",
    "format_explain",
    "make_baseline",
    "run_benchmark",
    "set_active_registry",
    "trace_delivered",
    "trace_of",
    "use_registry",
    "validate_bench",
    "validate_trace",
    "write_bench_json",
    "write_trace_json",
]
