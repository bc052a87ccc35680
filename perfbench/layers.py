"""What the traced run wraps, and how its spans become per-layer metrics.

Every wrapped callable is a public entry point of one layer; the span
name is ``<layer>.<call>``.  :func:`instrument` patches them all onto a
:class:`~tracer.SpanTracer`; :func:`layer_metrics` folds one traced
repetition's spans into the named per-layer metrics.
"""

from __future__ import annotations

import weakref
from typing import Dict

import numpy as np

#: Element classes of the ``routing`` Click preset, each reported as
#: ``click.process_batch_s.<class>``.
ROUTING_ELEMENTS = ("CheckIPHeader", "DecIPTTL", "LookupIPRoute",
                    "EtherEncap", "ToDevice", "Discard")


def _length_of_arg(index):
    return lambda args, result: len(args[index])


def _rows(args, result):
    return len(result)


class _EventDelta:
    """``amount`` hook for ``Simulator.run``: events that call ran.

    Weak keys, so a finished simulator (and the model state its pending
    callbacks reference) is freed between repetitions."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, args, result):
        sim = args[0]
        before = self.seen.get(sim, 0)
        self.seen[sim] = sim.events_run
        return sim.events_run - before


def instrument(tracer) -> list:
    """Patch every layer entry point onto ``tracer``; returns the list
    ``Dir24_8`` instances created while patched are appended to."""
    from repro.click.element import Element
    from repro.click.elements import device, ip, standard
    from repro.core.control import ClusterManager
    from repro.core.node import ClusterNode
    from repro.core.partition import ClusterPartition
    from repro.net.batch import PacketBatch
    from repro.net.packet import Packet
    from repro.routing.dir24_8 import Dir24_8
    from repro.simnet.engine import Simulator

    tables = []
    patch = tracer.patch
    patch(Simulator, "run", "engine.run", _EventDelta())
    patch(Packet, "udp", "packet.udp")
    patch(Packet, "five_tuple", "packet.five_tuple")
    patch(Packet, "to_wire", "packet.to_wire")
    patch(Packet, "from_wire", "packet.from_wire")
    patch(PacketBatch, "from_packets", "batch.from_packets",
          _length_of_arg(1))
    patch(PacketBatch, "from_columns", "batch.from_columns",
          _length_of_arg(1))
    patch(PacketBatch, "materialize_all", "batch.materialize_all", _rows)
    patch(PacketBatch, "sync", "batch.sync")
    patch(Dir24_8, "__init__", "fib.init",
          lambda args, result: tables.append(args[0]) or 0)
    patch(Dir24_8, "lookup", "fib.lookup")
    # Every batched lookup goes through lookup_batch_slots; lookup_batch
    # only maps its slots to values.
    patch(Dir24_8, "lookup_batch_slots", "fib.lookup_batch",
          _length_of_arg(1))
    patch(Dir24_8, "lookup_batch", "fib.lookup_batch_values")
    patch(Dir24_8, "insert", "fib.insert")
    patch(Dir24_8, "remove", "fib.remove")
    elements = {cls.__name__: cls for module in (device, ip, standard)
                for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, Element)}
    for name in ROUTING_ELEMENTS:
        patch(elements[name], "process_batch", "click.process_batch." + name)
    patch(device.PollDevice, "run_task_batch", "click.run_task_batch")
    patch(ClusterNode, "ingress", "cluster.ingress")
    patch(ClusterNode, "receive_internal", "cluster.receive_internal")
    patch(ClusterNode, "choose_path", "cluster.choose_path")
    patch(ClusterPartition, "__init__", "parallel.partition_init")
    patch(ClusterPartition, "advance", "parallel.advance")
    patch(ClusterPartition, "inject", "parallel.inject", _length_of_arg(1))
    patch(ClusterPartition, "finish", "parallel.finish")
    patch(ClusterManager, "announce", "control.announce")
    patch(ClusterManager, "build_fib", "control.build_fib")
    patch(ClusterManager, "sync_node", "control.sync_node")
    patch(ClusterManager, "push_fibs", "control.push_fibs")
    return tables


def _pct_us(durations, q):
    return float(np.percentile(durations, q)) * 1e6 if len(durations) else 0.0


def layer_metrics(spans: Dict[str, dict], amounts: Dict[str, float],
                  tables) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` is :meth:`~tracer.SpanTracer.summary` over the setup and
    run phases; times are self times in seconds unless the name says
    otherwise.  Layers a workload bypasses report 0.
    """
    empty = {"calls": 0, "self_s": 0.0, "durations": np.empty(0)}

    def get(name):
        return spans.get(name, empty)

    def calls(*names):
        return sum(get(n)["calls"] for n in names)

    def self_s(*names):
        return sum(get(n)["self_s"] for n in names)

    events = amounts.get("engine.run", 0)
    batches = calls("batch.from_packets", "batch.from_columns")
    process_batch = ["click.process_batch." + e for e in ROUTING_ELEMENTS]
    out = {
        "engine.events": events,
        "engine.self_s": self_s("engine.run"),
        "engine.us_per_event": (self_s("engine.run") / events * 1e6
                                if events else 0.0),
        "packet.udp_calls": calls("packet.udp"),
        "packet.udp_s": self_s("packet.udp"),
        "packet.five_tuple_calls": calls("packet.five_tuple"),
        "packet.five_tuple_s": self_s("packet.five_tuple"),
        "packet.wire_calls": calls("packet.to_wire", "packet.from_wire"),
        "packet.wire_s": self_s("packet.to_wire", "packet.from_wire"),
        "batch.batches": batches,
        "batch.pkts_per_batch": ((amounts.get("batch.from_packets", 0)
                                  + amounts.get("batch.from_columns", 0))
                                 / batches if batches else 0.0),
        "batch.materialized": amounts.get("batch.materialize_all", 0),
        "batch.self_s": self_s("batch.from_packets", "batch.from_columns",
                               "batch.materialize_all", "batch.sync"),
        "fib.lookup_calls": calls("fib.lookup"),
        "fib.lookup_us_p50": _pct_us(get("fib.lookup")["durations"], 50),
        "fib.lookup_us_p99": _pct_us(get("fib.lookup")["durations"], 99),
        "fib.lookup_batch_calls": calls("fib.lookup_batch"),
        "fib.lookup_batch_addrs": amounts.get("fib.lookup_batch", 0),
        "fib.lookup_batch_s": self_s("fib.lookup_batch",
                                     "fib.lookup_batch_values"),
        "fib.insert_calls": calls("fib.insert"),
        "fib.insert_us_p50": _pct_us(get("fib.insert")["durations"], 50),
        "fib.remove_calls": calls("fib.remove"),
        "fib.remove_us_p50": _pct_us(get("fib.remove")["durations"], 50),
        "fib.tables": len(tables),
        "fib.memory_mb": sum(t.memory_bytes() for t in tables) / 2 ** 20,
        "click.process_batch_calls": calls(*process_batch),
        "click.process_batch_s": self_s(*process_batch),
        "click.poll_s": self_s("click.run_task_batch"),
        "cluster.ingress_s": self_s("cluster.ingress"),
        "cluster.receive_internal_s": self_s("cluster.receive_internal"),
        "cluster.choose_path_calls": calls("cluster.choose_path"),
        "cluster.choose_path_s": self_s("cluster.choose_path"),
        "parallel.transit_records": amounts.get("parallel.inject", 0),
        "control.announce_s": self_s("control.announce"),
        "control.build_fib_s": self_s("control.build_fib"),
        "control.sync_node_calls": calls("control.sync_node"),
        "control.sync_node_s": self_s("control.sync_node"),
    }
    for element, name in zip(ROUTING_ELEMENTS, process_batch):
        out["click.process_batch_s." + element] = self_s(name)
    return out


#: Per-layer counts that must repeat exactly for one seed.
COUNTS = ("engine.events", "packet.udp_calls", "packet.five_tuple_calls",
          "packet.wire_calls", "batch.batches", "batch.materialized",
          "fib.lookup_calls", "fib.lookup_batch_calls",
          "fib.lookup_batch_addrs", "fib.insert_calls", "fib.remove_calls",
          "fib.tables", "click.process_batch_calls",
          "cluster.choose_path_calls", "parallel.transit_records",
          "control.sync_node_calls")
