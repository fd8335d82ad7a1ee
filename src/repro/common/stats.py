"""Small statistics helpers used by the bench harness and services.

:class:`OnlineStats` keeps running mean/variance without storing samples
(Welford's algorithm); :class:`Percentiles` stores samples for quantile
reporting (latency p50/p99) — bench runs are small enough that storing is
fine and exact quantiles beat sketches for reproducibility.

Every counter family is a :class:`Counters` declaration: a slotted
dataclass whose fields are additive numbers (counts or accumulated
seconds), from which ``merge``, ``reset`` and ``snapshot`` are derived.
:data:`FAMILIES` names the families an
:class:`~repro.common.context.ExecutionContext` carries (plus its named
:class:`CacheStats` registry); a new family is one line there.  The
accessors (:func:`ingest_stats`, :func:`cache_stats`, ...) resolve
through the *current* context, so a shard worker that activates its own
context gets private counters that merge back on join, value-identical
to a single-stream run over the same work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass(slots=True)
class Counters:
    """Base of the additive counter families.

    Subclasses declare only their fields (all defaulting to zero) and
    list in :attr:`DERIVED` the read-only properties :meth:`snapshot`
    also reports.  Being slotted, a misspelled counter raises
    :class:`AttributeError` instead of silently becoming a new field.
    Every field is additive, so a parallel merge is plain addition —
    associative and commutative.
    """

    DERIVED: ClassVar[tuple[str, ...]] = ()

    def merge(self, other: "Counters") -> None:
        """Fold another instance's counters in, field by field."""
        for field in fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, field.default)

    def snapshot(self) -> dict[str, float]:
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out


@dataclass(slots=True)
class CacheStats(Counters):
    """Hit/miss/eviction/rejection counters for one cache."""

    DERIVED: ClassVar[tuple[str, ...]] = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: entries refused admission (larger than the whole capacity)
    rejections: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def record_hit(self, count: int = 1) -> None:
        self.hits += count

    def record_miss(self, count: int = 1) -> None:
        self.misses += count

    def record_eviction(self, count: int = 1) -> None:
        self.evictions += count

    def record_rejection(self, count: int = 1) -> None:
        self.rejections += count


@dataclass(slots=True)
class IngestStats(Counters):
    """Counters for the stream ingestion path (produce -> seal -> EC).

    Incremented by the stream object seal path, the PLog group commit
    and the Reed-Solomon codec; ``bench_ingest.py`` surfaces a snapshot
    the way ``QueryStats`` surfaces cache hits.
    """

    DERIVED: ClassVar[tuple[str, ...]] = ("compression_ratio",)

    records_appended: int = 0
    slices_sealed: int = 0
    bytes_encoded: int = 0        # slice bytes before compression
    bytes_compressed: int = 0     # slice bytes handed to the PLogs
    plog_group_commits: int = 0   # append_batch calls (group commits)
    plog_appends_acked: int = 0   # appends indexed (acknowledged)
    plog_bytes_acked: int = 0     # payload bytes behind those acks
    ec_encode_calls: int = 0      # ReedSolomon.encode/encode_batch calls
    ec_payloads_encoded: int = 0  # payloads erasure-coded in those calls
    legacy_slices_decoded: int = 0

    @property
    def compression_ratio(self) -> float:
        """Pre-compression bytes per stored byte (1.0 when nothing sealed)."""
        if not self.bytes_compressed:
            return 1.0
        return self.bytes_encoded / self.bytes_compressed


@dataclass(slots=True)
class ConversionStats(Counters):
    """Counters for the stream->table conversion path (the reunion path).

    Incremented by :class:`~repro.table.conversion.StreamTableConverter`
    and the vectorized column builder; ``bench_reunion.py`` surfaces a
    snapshot alongside the conversion throughput numbers.
    """

    cycles: int = 0               # run_cycle calls that converted data
    slices_consumed: int = 0      # sealed slices read whole via read_values
    rows_converted: int = 0
    rows_malformed: int = 0
    batch_parses: int = 0         # whole-batch JSON parses that succeeded
    row_parse_fallbacks: int = 0  # batches that fell back to per-row parse
    validation_s: float = 0.0     # wall seconds in parse+validate+build


@dataclass(slots=True)
class FaultStats(Counters):
    """Counters for injected faults and the recovery work they trigger.

    Incremented by the fault layer (:mod:`repro.faults`) on the
    injection side and by the storage layer (pool degraded reads,
    rebuild queue, bus) on the recovery side, so the chaos tests can
    assert that recovery machinery actually ran — not just that reads
    happened to succeed.
    """

    # --- injected faults ---
    disk_crashes: int = 0
    sector_errors_injected: int = 0
    fragments_erased: int = 0        # shard erasures injected into pools
    torn_commits: int = 0            # group commits torn mid-batch
    transfers_dropped: int = 0
    link_slowdowns: int = 0
    partitions: int = 0
    # --- recovery work ---
    degraded_reads: int = 0          # fetches that saw >= 1 missing fragment
    sector_errors_detected: int = 0  # latent errors surfaced by a read/scrub
    fragments_reconstructed: int = 0  # fragments rebuilt via ec.decode/repair
    reconstructed_bytes: int = 0
    rebuilds_completed: int = 0      # rebuild-queue ops that restored an extent
    rebuild_retries: int = 0
    rebuild_backoff_s: float = 0.0
    rebuilds_exhausted: int = 0      # ops that gave up after bounded retries
    transfer_timeouts: int = 0
    disks_repaired: int = 0


@dataclass(slots=True)
class AggregationStats(Counters):
    """Counters for the vectorized storage-side aggregation engine.

    Incremented by :mod:`repro.table.agg` (the GROUP BY kernel and
    footer fast path) and by ``TableObject.select``; ``bench_agg.py``
    surfaces a snapshot the way ``bench_ingest.py`` surfaces
    :class:`IngestStats`.
    """

    queries: int = 0                     # vectorized aggregate SELECTs
    row_groups_aggregated: int = 0       # row groups reduced from data chunks
    row_groups_footer_answered: int = 0  # answered from footer stats alone
    rows_aggregated: int = 0             # rows folded into partials
    partials_merged: int = 0             # group partials merged across files
    groups_emitted: int = 0              # result groups shipped over the bus


@dataclass(slots=True)
class JoinStats(Counters):
    """Counters for the vectorized join engine and cost-based planner.

    Incremented by :mod:`repro.table.join` (build/probe kernel),
    :mod:`repro.table.planner` (plan enumeration) and the SQL front
    end's snapshot-keyed result cache; ``bench_join.py`` surfaces a
    snapshot alongside the join timings.
    """

    joins_executed: int = 0       # hash_join kernel invocations
    build_rows: int = 0           # rows folded into build sides
    probe_rows: int = 0           # rows probed against build sides
    matches_emitted: int = 0      # output index pairs produced
    queries_planned: int = 0      # multi-table statements planned
    plans_considered: int = 0     # join orders enumerated and costed
    result_cache_hits: int = 0    # whole queries answered from cache
    result_cache_misses: int = 0


@dataclass(slots=True)
class ServingStats(Counters):
    """Counters for the multi-tenant serving front end.

    Incremented by :mod:`repro.serving` — admission control
    (:class:`~repro.serving.admission.AdmissionController`), the
    deficit-round-robin scheduler
    (:class:`~repro.serving.scheduler.FairScheduler`), backpressure and
    the SLO tracker; ``bench_serving.py`` asserts the merged sharded
    snapshot is value-identical to the serial one.
    """

    # --- admission control ---
    requests_admitted: int = 0    # admit() calls that returned a ticket
    records_admitted: int = 0
    bytes_admitted: int = 0
    queued_admissions: int = 0    # admissions that waited for tokens
    queue_delay_s: float = 0.0    # total token-wait across admissions
    rejected_quota: int = 0       # QuotaExceededError raised
    rejected_inflight: int = 0    # AdmissionRejectedError: in-flight cap
    # --- backpressure ---
    throttle_events: int = 0      # produces refused or delayed by lag
    throttle_delay_s: float = 0.0
    # --- fair scheduler ---
    batches_scheduled: int = 0    # batches dispatched by the DRR loop
    bytes_scheduled: int = 0
    scheduler_rounds: int = 0     # DRR tenant visits
    # --- SLO tracking ---
    slo_violations: int = 0       # latency samples above a tenant target


#: The counter families every execution context carries, by attribute
#: name (the context's named :class:`CacheStats` registry comes on top).
FAMILIES: dict[str, type[Counters]] = {
    "ingest": IngestStats,
    "conversion": ConversionStats,
    "aggregation": AggregationStats,
    "faults": FaultStats,
    "joins": JoinStats,
    "serving": ServingStats,
}


def _current():
    from repro.common.context import current_context

    return current_context()


def ingest_stats() -> IngestStats:
    """The current execution context's ingest counters."""
    return _current().ingest


def conversion_stats() -> ConversionStats:
    """The current execution context's stream->table conversion counters."""
    return _current().conversion


def aggregation_stats() -> AggregationStats:
    """The current execution context's vectorized-aggregation counters."""
    return _current().aggregation


def fault_stats() -> FaultStats:
    """The current execution context's fault/recovery counters."""
    return _current().faults


def join_stats() -> JoinStats:
    """The current execution context's join/planner counters."""
    return _current().joins


def serving_stats() -> ServingStats:
    """The current execution context's serving front-end counters."""
    return _current().serving


def cache_stats(name: str) -> CacheStats:
    """The current context's counters for the named cache (created on use)."""
    return _current().cache_stats(name)


class OnlineStats:
    """Running count/mean/variance/min/max over a stream of samples."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class Percentiles:
    """Sample store supporting exact quantile queries.

    ``add`` is O(1): samples append unsorted and a dirty flag defers the
    sort to the first quantile read (the ``KVEngine.put`` lazy-re-sort
    pattern).  Ingesting n samples is O(n) + one O(n log n) sort per
    read burst, instead of the O(n²) the per-sample ``insort`` cost —
    latency trackers record millions of samples and read p50/p99 once.

    Two interpolation rules are supported (``quantile``'s ``method``):

    * ``"linear"`` — the position ``q * (n - 1)`` on the sorted samples,
      linearly interpolated between the two bracketing samples (NumPy's
      default, Hyndman-Fan type 7).  Good for central quantiles, but it
      *underestimates extreme tails on small samples*: with fewer than
      ``1 / (1 - q)`` samples the position lands strictly inside the
      last inter-sample gap, so p999 over 10 samples reports a blend of
      the two largest latencies — a value that never occurred.
    * ``"exact"`` — the inverse empirical CDF (nearest-rank) rule: the
      ``ceil(q * n)``-th smallest sample.  Always an observed sample;
      for ``q > (n - 1) / n`` it is the maximum, which is the honest
      answer for p999 on small samples.

    ``p50``/``p99`` keep the linear rule (central quantiles, stable
    under merge splits); ``p999`` uses the exact rule so SLO tail
    reports never interpolate below the worst observed latency.
    Merging is sample-exact: folding shard stores together and then
    taking a quantile equals taking the quantile of all samples at once
    (both rules) — the merge-then-quantile agreement the sharded SLO
    tracker relies on.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._dirty = False

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._dirty = True

    def extend(self, values: list[float]) -> None:
        """Bulk append (one flag update for a whole latency batch)."""
        self._samples.extend(values)
        self._dirty = True

    def merge(self, other: "Percentiles") -> None:
        """Fold another store's samples in (parallel shard merge)."""
        self._samples.extend(other._samples)
        self._dirty = True

    def __len__(self) -> int:
        return len(self._samples)

    def _sorted(self) -> list[float]:
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return self._samples

    def quantile(self, q: float, method: str = "linear") -> float:
        """Quantile of the recorded samples; q in [0, 1].

        ``method="linear"`` interpolates at position ``q * (n - 1)``
        (type 7); ``method="exact"`` returns the ``ceil(q * n)``-th
        smallest sample (nearest-rank — always an observed value).  See
        the class docstring for when each rule is appropriate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self._samples:
            raise ValueError("no samples recorded")
        samples = self._sorted()
        if method == "exact":
            rank = math.ceil(q * len(samples))
            return samples[max(rank, 1) - 1]
        if method != "linear":
            raise ValueError(
                f"method must be 'linear' or 'exact', got {method!r}"
            )
        if len(samples) == 1:
            return samples[0]
        position = q * (len(samples) - 1)
        low = int(position)
        high = min(low + 1, len(samples) - 1)
        fraction = position - low
        return samples[low] * (1 - fraction) + samples[high] * fraction

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        """Tail quantile under the exact nearest-rank rule: on fewer
        than 1000 samples this is the observed maximum, never an
        interpolated value below it."""
        return self.quantile(0.999, method="exact")
