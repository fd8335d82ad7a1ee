"""Deterministic simulated clock.

Every component in the reproduction costs its work (disk seeks, network
transfers, CPU work) in simulated seconds instead of reading the wall
clock.  This keeps all reported latencies and throughputs deterministic
and lets a multi-hour production scenario run in milliseconds.

Simulated time is accounted one way: a component *returns* the cost of
what it did (``Disk.read``, ``DataBus.transfer``, ``StoragePool.fetch``
...), and the caller that knows how the work overlaps moves the shared
:class:`SimClock` with :meth:`~SimClock.advance` — by the sum for serial
work, or by :func:`lpt_makespan` for a wave of tasks run over a worker
pool.  The clock itself keeps no per-resource state.
"""

from __future__ import annotations


class SimClock:
    """A monotonically increasing simulated clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move global time forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move global time forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def reset(self) -> None:
        """Reset time to zero."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


def lpt_makespan(costs: list[float], parallelism: int) -> float:
    """Makespan of tasks over ``parallelism`` workers (LPT greedy).

    The wave model shared by the table read/write paths and the sharded
    execution layer (:mod:`repro.parallel`): a batch of task costs
    scheduled longest-processing-time-first over a fixed worker pool
    takes the slowest worker's sum, not the total.  With one worker it
    degenerates to the serial sum, so adding workers never changes the
    amount of simulated work — only how it overlaps.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if not costs:
        return 0.0
    if parallelism == 1:
        return sum(costs)
    workers = [0.0] * parallelism
    for cost in sorted(costs, reverse=True):
        workers[workers.index(min(workers))] += cost
    return max(workers)
