"""Benchmark-to-baseline comparison: the perf-regression arithmetic.

One code path serves ``python -m repro obs diff`` and CI's
``scripts/check_bench_regression.py``: load two documents (a committed
baseline and a fresh BENCH artifact, or two BENCH artifacts), compare
the scalar metrics they share, and classify each delta.  ``rate``
scalars regress downward, ``time`` scalars regress upward, and
``count`` scalars regress on *any* change, including a change from a 0
baseline: they are seeded integers (``run.sim_events``,
``run.node_drops``), so a different value means the simulation's event
order or behaviour drifted.

By default ``rate`` and ``count`` scalars gate: they derive from the
analytic model and the seeded DES, so they are deterministic on any
machine, while wall-clock timings on shared CI runners are not.  Add
``"time"`` to ``kinds`` for a local, quiet-machine check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    validate_baseline,
    validate_bench,
)

#: Fractional change beyond which a gated scalar fails (ISSUE: >10%).
DEFAULT_TOLERANCE = 0.10

#: Scalar kinds that gate by default (see module docstring).
DEFAULT_KINDS = ("rate", "count")


@dataclass(frozen=True)
class Delta:
    """One scalar's baseline-vs-current comparison."""

    benchmark: str
    metric: str
    kind: str
    baseline: Optional[float]
    current: Optional[float]
    change: Optional[float]          # fractional; None when undefined
    status: str                      # ok|regressed|improved|missing|new

    @property
    def regressed(self) -> bool:
        return self.status == "regressed"

    def describe(self) -> str:
        if self.change is None:
            return "%-10s %s/%s: %s (baseline %s, current %s)" % (
                self.status, self.benchmark, self.metric,
                self.kind, self.baseline, self.current)
        # Counts gate exactly, so print them exactly.
        value = "%.0f" if self.kind == "count" else "%.6g"
        return "%-10s %s/%s: %s -> %s (%+.1f%%, %s)" % (
            self.status, self.benchmark, self.metric,
            value % self.baseline, value % self.current,
            self.change * 100, self.kind)


def classify(kind: str, baseline: float, current: float,
             tolerance: float) -> Tuple[Optional[float], str]:
    """Fractional change and verdict for one scalar pair."""
    if kind == "count" and current != baseline:
        # Seeded integers gate exactly; ``tolerance`` does not apply.
        change = (current - baseline) / abs(baseline) if baseline else None
        return change, "regressed"
    if baseline == 0:
        if current == 0:
            return 0.0, "ok"
        return None, "new"
    change = (current - baseline) / abs(baseline)
    if kind == "perf":
        # Wall-clock engine speed: purely informational.  Machines and
        # CI runners differ too much for a portable threshold, so perf
        # deltas are surfaced but can never regress a gate.
        return change, "info"
    if kind == "rate" and change < -tolerance:
        return change, "regressed"
    if kind == "time" and change > tolerance:
        return change, "regressed"
    if kind in ("rate", "time") and abs(change) > tolerance:
        return change, "improved"
    return change, "ok"


def compare_scalars(benchmark: str,
                    baseline: Dict[str, dict],
                    current: Dict[str, dict],
                    tolerance: float = DEFAULT_TOLERANCE,
                    kinds: Sequence[str] = DEFAULT_KINDS) -> List[Delta]:
    """Compare two scalar maps (metric -> {value, kind})."""
    deltas: List[Delta] = []
    for metric in sorted(baseline):
        cell = baseline[metric]
        kind = cell.get("kind", "count")
        if kind not in kinds:
            continue
        base_value = float(cell["value"])
        cur_cell = current.get(metric)
        if cur_cell is None:
            deltas.append(Delta(benchmark, metric, kind, base_value,
                                None, None, "missing"))
            continue
        cur_value = float(cur_cell["value"])
        change, status = classify(kind, base_value, cur_value, tolerance)
        deltas.append(Delta(benchmark, metric, kind, base_value,
                            cur_value, change, status))
    for metric in sorted(set(current) - set(baseline)):
        kind = current[metric].get("kind", "count")
        if kind in kinds:
            deltas.append(Delta(benchmark, metric, kind, None,
                                float(current[metric]["value"]), None,
                                "new"))
    return deltas


def baseline_scalars_for(baseline_doc: dict,
                         bench_name: str) -> Optional[Dict[str, dict]]:
    """Scalars recorded for one benchmark in either document shape."""
    if baseline_doc.get("schema") == BASELINE_SCHEMA:
        entry = baseline_doc.get("benchmarks", {}).get(bench_name)
        return entry["scalars"] if entry else None
    if baseline_doc.get("schema") == BENCH_SCHEMA:
        if baseline_doc.get("name") != bench_name:
            return None
        return baseline_doc.get("scalars", {})
    return None


def compare_docs(baseline_doc: dict, bench_doc: dict,
                 tolerance: float = DEFAULT_TOLERANCE,
                 kinds: Sequence[str] = DEFAULT_KINDS) -> List[Delta]:
    """Compare one BENCH document against a baseline (either shape).

    Raises ``ValueError`` when either document fails schema validation
    or the baseline has no entry for this benchmark.
    """
    problems = validate_bench(bench_doc)
    if problems:
        raise ValueError("current document is invalid: %s"
                         % "; ".join(problems))
    if baseline_doc.get("schema") == BASELINE_SCHEMA:
        problems = validate_baseline(baseline_doc)
    else:
        problems = validate_bench(baseline_doc)
    if problems:
        raise ValueError("baseline document is invalid: %s"
                         % "; ".join(problems))
    name = bench_doc["name"]
    base_scalars = baseline_scalars_for(baseline_doc, name)
    if base_scalars is None:
        raise ValueError("baseline has no entry for benchmark %r" % name)
    return compare_scalars(name, base_scalars, bench_doc["scalars"],
                           tolerance=tolerance, kinds=kinds)


def make_baseline(bench_docs: Iterable[dict],
                  created_unix: float,
                  tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Fold BENCH documents into a committable baseline file."""
    benchmarks = {}
    for doc in bench_docs:
        problems = validate_bench(doc)
        if problems:
            raise ValueError("refusing to bake invalid document %r: %s"
                             % (doc.get("name"), "; ".join(problems)))
        benchmarks[doc["name"]] = {"scalars": doc["scalars"]}
    return {
        "schema": BASELINE_SCHEMA,
        "created_unix": created_unix,
        "tolerance": tolerance,
        "benchmarks": benchmarks,
    }


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def summarize(deltas: Sequence[Delta]) -> str:
    """Human-readable digest, regressions first."""
    order = {"regressed": 0, "missing": 1, "new": 2, "improved": 3,
             "info": 4, "ok": 5}
    lines = [d.describe()
             for d in sorted(deltas, key=lambda d: (order[d.status],
                                                    d.benchmark, d.metric))]
    regressed = sum(1 for d in deltas if d.regressed)
    lines.append("%d scalar(s) compared, %d regressed, %d improved, "
                 "%d missing from current run"
                 % (len(deltas), regressed,
                    sum(1 for d in deltas if d.status == "improved"),
                    sum(1 for d in deltas if d.status == "missing")))
    return "\n".join(lines)
