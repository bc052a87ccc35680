"""In-memory span tracer that wraps public functions from the outside.

:meth:`SpanTracer.patch` replaces a class attribute with a timing
wrapper; :meth:`SpanTracer.restore` puts every original back.  Each call
records one span -- name, start, end, parent span, run id -- in flat
arrays (32 bytes a span), so a traced run of a million calls stays
small.  :meth:`SpanTracer.summary` derives per-name call counts, self
time (a span's duration minus the part its child spans cover) and raw
durations; :meth:`SpanTracer.dump` writes the spans out.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional

import numpy as np


class SpanTracer:
    """Records nested spans from wrapped callables (single-threaded)."""

    def __init__(self):
        self.names = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._run = array("i")
        self._stack = []
        #: Repetition the spans being recorded belong to.
        self.run_id = 0
        #: Sums of the ``amount`` hooks (items per call etc.), keyed by
        #: (run id, phase-root name id, span name).
        self._amounts: Dict[tuple, float] = defaultdict(int)
        self._patches = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for phase roots)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str,
             amount: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``amount(args, result)``,
        when given, is summed per call (see :meth:`amount_totals`)."""
        nid = self._name_id(name)
        opened, closed = self._open, self._close
        amounts, stack, span_names = self._amounts, self._stack, self._name

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if amount is not None:
                root = span_names[stack[0]] if stack else -1
                amounts[self.run_id, root, name] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str,
              amount: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a plain, class- or static method) with
        a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__.get(attr)
        if raw is None:
            # Inherited: wrap the resolved (original) function here.
            raw = getattr(owner, attr)
            raw = getattr(raw, "__wrapped__", raw)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, amount))
        else:
            wrapped = self.wrap(raw, name, amount)
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self._name, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        return names, start, end, parent

    def summary(self, run_id: int, roots: Iterable[str]) -> dict:
        """Per span name for one run id: ``calls``, ``self_s`` and
        ``durations`` (seconds), counting only spans under a phase-root
        span named in ``roots``."""
        if not self._start:
            return {}
        names, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        # Pointer jumping: each span's outermost ancestor.
        top = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        root_ids = [self._ids[r] for r in roots if r in self._ids]
        keep = ((np.frombuffer(self._run, dtype=np.int32) == run_id)
                & np.isin(names[top], root_ids))
        out = {}
        for nid, name in enumerate(self.names):
            mask = keep & (names == nid)
            if not mask.any():
                continue
            out[name] = {"calls": int(mask.sum()),
                         "self_s": float(self_time[mask].sum()),
                         "durations": dur[mask]}
        return out

    def amount_totals(self, run_id: int, roots: Iterable[str]) -> dict:
        """Per span name, the ``amount`` sums of one run id under the
        phase roots named in ``roots``."""
        root_ids = {self._ids.get(r) for r in roots}
        out = defaultdict(int)
        for (rid, root, name), value in self._amounts.items():
            if rid == run_id and root in root_ids:
                out[name] += value
        return dict(out)

    def dump(self, path) -> None:
        """Write every span (name, start, end, parent, run) as ``.npz``."""
        names, start, end, parent = self._arrays()
        np.savez(path, names=np.array(self.names), name=names, start=start,
                 end=end, parent=parent,
                 run=np.frombuffer(self._run, dtype=np.int32))
