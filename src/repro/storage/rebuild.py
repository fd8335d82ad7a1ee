"""Background re-replication/rebuild queue (recovery after faults).

When fault injection (or real node churn) leaves extents with missing
fragments, the :class:`RebuildQueue` restores full redundancy in the
background: degraded extents are queued, each op ships the surviving
fragments over the data bus (at background priority, with a per-op
timeout) and re-places the rebuilt fragments through
:meth:`StoragePool.rebuild_extent`.  Ops run one after another, so the
queue advances the clock by each transfer's and each rebuild's returned
cost.

Transient failures — dropped transfers, partitions, timeouts, a target
disk dying mid-rebuild — retry with exponential backoff up to a bounded
attempt count; an op that exhausts its retries is reported (and counted
in :func:`repro.common.stats.fault_stats`), never silently swallowed.
Extents that lost more fragments than the policy tolerates are reported
as unrecoverable immediately: retrying cannot resurrect data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common import stats
from repro.common.clock import SimClock
from repro.errors import (
    CapacityError,
    DiskFailedError,
    NetworkError,
    ObjectNotFoundError,
    UnrecoverableDataError,
)
from repro.storage.bus import DataBus
from repro.storage.pool import StoragePool

#: Bus priority note: rebuild traffic is background work; it rides the
#: bus as ordinary (non-urgent) transfers so foreground I/O aggregates
#: ahead of it.
DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_BASE_BACKOFF_S = 0.05
DEFAULT_OP_TIMEOUT_S = 5.0

#: Errors worth retrying: transient transport and placement failures.
_RETRYABLE = (NetworkError, DiskFailedError, CapacityError)


@dataclass
class RebuildReport:
    """Outcome of one :meth:`RebuildQueue.run` drain."""

    rebuilt_extents: int = 0
    rebuilt_fragments: int = 0
    retries: int = 0
    gave_up: list[str] = field(default_factory=list)
    unrecoverable: list[str] = field(default_factory=list)
    #: clock time the drain took: each op's bus transfer, survivor reads
    #: and rebuilt-fragment writes, plus retry backoffs
    sim_seconds: float = 0.0


class RebuildQueue:
    """Bounded-retry, exponential-backoff rebuild scheduler for one pool."""

    def __init__(self, pool: StoragePool, bus: DataBus, clock: SimClock,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 base_backoff_s: float = DEFAULT_BASE_BACKOFF_S,
                 op_timeout_s: float = DEFAULT_OP_TIMEOUT_S) -> None:
        if max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {max_attempts}")
        if base_backoff_s < 0:
            raise ValueError(f"negative backoff {base_backoff_s!r}")
        self.pool = pool
        self.bus = bus
        self._clock = clock
        self.max_attempts = max_attempts
        self.base_backoff_s = base_backoff_s
        self.op_timeout_s = op_timeout_s
        #: (extent_id, attempts already failed)
        self._queue: deque[tuple[str, int]] = deque()
        self._queued: set[str] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, extent_id: str) -> bool:
        """Queue one extent for rebuild; False if already queued."""
        if extent_id in self._queued:
            return False
        self._queued.add(extent_id)
        self._queue.append((extent_id, 0))
        return True

    def scan_and_enqueue(self) -> int:
        """Queue every extent the pool's redundancy oracle reports
        degraded; returns how many were newly queued."""
        added = 0
        for extent_id in self.pool.missing_fragments():
            if self.enqueue(extent_id):
                added += 1
        return added

    def run(self, max_ops: int | None = None) -> RebuildReport:
        """Drain the queue (up to ``max_ops`` attempts), retrying transient
        failures with exponential backoff.  Returns the drain report."""
        faults = stats.fault_stats()
        report = RebuildReport()
        started = self._clock.now
        ops = 0
        while self._queue and (max_ops is None or ops < max_ops):
            ops += 1
            extent_id, attempts = self._queue.popleft()
            try:
                # surviving fragments ship to the rebuilding node over the
                # bus before reconstruction; partitions/drops/slow links
                # surface here as typed transport errors
                length = self.pool.extent_length(extent_id)
                self._clock.advance(
                    self.bus.transfer(length, timeout_s=self.op_timeout_s))
                rebuilt, cost = self.pool.rebuild_extent(extent_id)
                self._clock.advance(cost)
            except ObjectNotFoundError:
                # deleted while queued: nothing left to rebuild
                self._queued.discard(extent_id)
                continue
            except UnrecoverableDataError:
                # > m fragments gone: no number of retries brings it back
                self._queued.discard(extent_id)
                report.unrecoverable.append(extent_id)
                continue
            except _RETRYABLE:
                attempts += 1
                if attempts >= self.max_attempts:
                    self._queued.discard(extent_id)
                    report.gave_up.append(extent_id)
                    faults.rebuilds_exhausted += 1
                    continue
                backoff = self.base_backoff_s * (2 ** (attempts - 1))
                self._clock.advance(backoff)
                faults.rebuild_retries += 1
                faults.rebuild_backoff_s += backoff
                report.retries += 1
                self._queue.append((extent_id, attempts))
                continue
            self._queued.discard(extent_id)
            if rebuilt:
                report.rebuilt_extents += 1
                report.rebuilt_fragments += rebuilt
                faults.rebuilds_completed += 1
        report.sim_seconds = self._clock.now - started
        return report
