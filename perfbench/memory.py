"""Resident memory of the benchmark process and its worker processes.

Linux only: everything is read from ``/proc``.

The benchmark process is measured by its resident high-water mark
(``VmHWM``), reset with :func:`reset_peak` once warm-up and any oracle
run are done, so the figure covers the measured repetitions only.

A worker process forked from the benchmark process starts out with the
parent's resident pages in its own resident set, and its ``VmHWM`` (like
``ru_maxrss``) counts them again.  A worker is therefore counted by its
own growth: its ``VmHWM`` less the parent's resident set at the fork,
which :class:`Sampler` records while a repetition runs.  Inherited pages
a worker later copies on write keep its resident set the same size, so
they are not counted; how many it copies depends on when its garbage
collector and reference counting touch them, which varies from run to
run.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

#: How often :class:`Sampler` reads the workers' ``VmHWM``.  A worker
#: runs for seconds, and ``VmHWM`` only grows, so only the last interval
#: of its life can be missed.
INTERVAL_S = 0.01


def _field_kb(path: str, *fields: str) -> int:
    """Sum of the ``Field:   N kB`` lines named ``fields`` in ``path``."""
    total = 0
    with open(path) as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in fields:
                total += int(rest.split()[0])
    return total


def _status_kb(pid, field: str) -> int:
    return _field_kb("/proc/%s/status" % pid, field)


def reset_peak() -> bool:
    """Reset this process's ``VmHWM`` to its current resident set.

    Returns False where the kernel does not allow it; ``VmHWM`` then
    still holds everything since the process started."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def own_peak_mb() -> float:
    """This process's resident high-water mark since the last reset."""
    return _status_kb("self", "VmHWM") / 1024.0


def children() -> List[int]:
    """Process ids of this process's live children."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                stat = handle.read()
        except OSError:
            continue  # ended since the listing
        # "pid (comm) state ppid ...": comm may hold spaces or parens.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


class Sampler:
    """Summed growth of the worker processes forked while the ``with``
    block runs; their ``VmHWM`` is read every :data:`INTERVAL_S`."""

    #: The running sampler, told of each fork (see :meth:`_before_fork`).
    active: Optional["Sampler"] = None

    def __init__(self):
        #: The parent's resident kB at each fork.
        self._fork_rss_kb: List[int] = []
        #: Largest VmHWM kB seen, per worker pid.
        self._hwm_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @classmethod
    def _before_fork(cls) -> None:
        if cls.active is not None:
            cls.active._fork_rss_kb.append(_status_kb("self", "VmRSS"))

    def _sample(self) -> None:
        pids = list(self._hwm_kb)
        if len(pids) < len(self._fork_rss_kb):
            pids = children()  # a fork since the last listing
        for pid in pids:
            try:
                hwm = _status_kb(pid, "VmHWM")
            except OSError:
                continue  # ended
            self._hwm_kb[pid] = max(self._hwm_kb.get(pid, 0), hwm)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    @property
    def growth_mb(self) -> float:
        """Summed growth of the workers, in MB."""
        return max(0, sum(self._hwm_kb.values())
                   - sum(self._fork_rss_kb)) / 1024.0

    def __enter__(self) -> "Sampler":
        Sampler.active = self
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        Sampler.active = None
        self._stop.set()
        self._thread.join()
        if len(self._hwm_kb) != len(self._fork_rss_kb):
            raise RuntimeError("saw %d of %d forked workers"
                               % (len(self._hwm_kb), len(self._fork_rss_kb)))


os.register_at_fork(before=Sampler._before_fork)
