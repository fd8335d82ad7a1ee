"""Data exchange and interworking bus.

Section III: all nodes are interconnected by a high-speed data bus with
RDMA support (bypassing the CPU and TCP/IP stack), intelligent stripe
aggregation and I/O priority scheduling.

The bus is a cost model: a transfer returns the simulated seconds

    latency + size / bandwidth        (+ per-message CPU cost for TCP)

Small-I/O aggregation (Section V-A "Efficient Transfer") batches requests
below a threshold into one transfer, trading a bounded queueing delay for
fewer round trips; latency-sensitive callers can bypass it.  Priority
scheduling drains the pending queue highest-priority-first, which the
tiering service uses so background migration never delays foreground I/O.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

from repro.common import stats
from repro.common.clock import SimClock
from repro.common.units import GiB, KiB
from repro.errors import (
    NetworkPartitionedError,
    TransferDroppedError,
    TransferTimeoutError,
)


class TransportKind(enum.Enum):
    """Transport selection for the interconnect."""

    RDMA = "rdma"
    TCP = "tcp"


@dataclass(frozen=True)
class TransportProfile:
    """Cost envelope of one transport."""

    latency_s: float
    bandwidth_bps: float
    per_message_cpu_s: float

    def cost(self, size: int, messages: int = 1) -> float:
        return (
            self.latency_s
            + size / self.bandwidth_bps
            + messages * self.per_message_cpu_s
        )


#: 10 GbE with kernel TCP: protocol-stack switching overhead per message
#: (amortized per record within producer batches).
TCP_PROFILE = TransportProfile(
    latency_s=50e-6, bandwidth_bps=1.1 * GiB, per_message_cpu_s=0.8e-6
)
#: RDMA over the same fabric: lower latency, negligible per-message CPU.
RDMA_PROFILE = TransportProfile(
    latency_s=6e-6, bandwidth_bps=1.1 * GiB, per_message_cpu_s=0.5e-6
)

_PROFILES = {TransportKind.TCP: TCP_PROFILE, TransportKind.RDMA: RDMA_PROFILE}

#: Requests below this size are candidates for aggregation.
SMALL_IO_THRESHOLD = 64 * KiB
#: Aggregated batch target size.
AGGREGATION_TARGET = 512 * KiB
#: Queue priority for background traffic (tier migration, cache
#: prefetch); foreground I/O submits at 0, so :meth:`DataBus.drain_queue`
#: always serves it first.
BACKGROUND_PRIORITY = 10


@dataclass(order=True)
class _QueuedTransfer:
    sort_key: tuple[int, int]
    size: int = field(compare=False)
    description: str = field(compare=False)


class DataBus:
    """Shared interconnect with aggregation and priority scheduling."""

    def __init__(self, clock: SimClock,
                 transport: TransportKind = TransportKind.RDMA,
                 aggregate_small_io: bool = True) -> None:
        # ``clock`` stays in the signature for existing callers: the bus
        # returns each transfer's cost and the caller advances the clock
        self.transport = transport
        self.profile = _PROFILES[transport]
        self.aggregate_small_io = aggregate_small_io
        self._pending: list[_QueuedTransfer] = []
        self._counter = itertools.count()
        self._small_backlog: list[int] = []
        self._small_backlog_bytes = 0  # running total: appends stay O(1)
        self.transfers = 0
        self.bytes_moved = 0
        self.aggregated_batches = 0
        # --- fault injection state (all neutral by default) ---
        self.slow_factor = 1.0     # multiplies every transfer's cost
        self._drop_next = 0        # pending injected in-flight drops
        self._partitioned = False
        self.drops = 0
        self.timeouts = 0

    # --- fault injection ----------------------------------------------------

    def inject_drops(self, count: int = 1) -> None:
        """Fault injection: the next ``count`` transfers are dropped in
        flight (:class:`TransferDroppedError`) before any bytes move."""
        if count < 0:
            raise ValueError(f"negative drop count {count!r}")
        self._drop_next += count

    def set_slow_factor(self, factor: float) -> None:
        """Fault injection: degrade the link — every transfer costs
        ``factor``x until reset to 1.0."""
        if factor <= 0:
            raise ValueError(f"slow factor must be positive, got {factor!r}")
        if factor > 1.0 >= self.slow_factor:
            stats.fault_stats().link_slowdowns += 1
        self.slow_factor = factor

    def partition(self) -> None:
        """Fault injection: partition the fabric — every transfer raises
        :class:`NetworkPartitionedError` until :meth:`heal_partition`."""
        if not self._partitioned:
            stats.fault_stats().partitions += 1
        self._partitioned = True

    def heal_partition(self) -> None:
        self._partitioned = False

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def _check_faults(self) -> None:
        """Raise if the fabric is partitioned or an injected drop
        consumes this transfer."""
        if self._partitioned:
            raise NetworkPartitionedError("data bus is partitioned")
        if self._drop_next > 0:
            self._drop_next -= 1
            self.drops += 1
            stats.fault_stats().transfers_dropped += 1
            raise TransferDroppedError("transfer dropped in flight")

    @property
    def pending_small_bytes(self) -> int:
        """Bytes buffered for small-I/O aggregation, awaiting a flush."""
        return self._small_backlog_bytes

    def transfer(self, size: int, urgent: bool = False,
                 timeout_s: float | None = None) -> float:
        """Move ``size`` bytes; returns simulated seconds on the wire.

        Non-urgent small I/O is buffered; when the backlog reaches the
        aggregation target it is flushed as one transfer whose cost is
        amortized over the batch.  Urgent requests always go immediately.

        ``timeout_s`` bounds one operation: if the wire time (including
        any injected slow-link factor) would exceed it, the caller gets a
        :class:`TransferTimeoutError`.
        Injected drops and partitions raise before any bytes move.
        """
        if size < 0:
            raise ValueError(f"negative transfer size {size!r}")
        self._check_faults()
        if (
            self.aggregate_small_io
            and not urgent
            and size < SMALL_IO_THRESHOLD
        ):
            self.bytes_moved += size
            self._small_backlog.append(size)
            self._small_backlog_bytes += size
            if self._small_backlog_bytes >= AGGREGATION_TARGET:
                return self.flush_small_io()
            return 0.0
        cost = self.profile.cost(size) * self.slow_factor
        if timeout_s is not None and cost > timeout_s:
            self.timeouts += 1
            stats.fault_stats().transfer_timeouts += 1
            raise TransferTimeoutError(
                f"transfer of {size} bytes needs {cost:.6f}s, "
                f"timeout {timeout_s:.6f}s"
            )
        self.bytes_moved += size
        self.transfers += 1
        return cost

    def flush_small_io(self) -> float:
        """Send the aggregated small-I/O backlog as one batch."""
        if not self._small_backlog:
            return 0.0
        total = self._small_backlog_bytes
        count = len(self._small_backlog)
        self._small_backlog.clear()
        self._small_backlog_bytes = 0
        self.transfers += 1
        self.aggregated_batches += 1
        # one latency + one bandwidth term for the whole batch
        return self.profile.cost(total, messages=count) * self.slow_factor

    # --- priority scheduling -----------------------------------------------

    def submit(self, size: int, priority: int, description: str = "") -> None:
        """Queue a transfer; lower ``priority`` value = more urgent."""
        entry = _QueuedTransfer(
            sort_key=(priority, next(self._counter)),
            size=size,
            description=description,
        )
        heapq.heappush(self._pending, entry)

    def drain_queue(self) -> list[tuple[str, float]]:
        """Run all queued transfers highest-priority-first.

        Returns (description, completion_time) per transfer, where the
        completion time accumulates — so low-priority work observably waits
        behind high-priority work.
        """
        completions = []
        elapsed = 0.0
        while self._pending:
            entry = heapq.heappop(self._pending)
            elapsed += self.profile.cost(entry.size) * self.slow_factor
            self.transfers += 1
            completions.append((entry.description, elapsed))
        return completions
