"""Table objects: lakehouse read/write operations (Section V-B).

A :class:`TableObject` implements CREATE TABLE / INSERT / SELECT / DELETE /
UPDATE / DROP over columnar data files in a storage pool, with:

* snapshot isolation + optimistic concurrency control (commit conflicts
  raise :class:`~repro.errors.CommitConflictError`);
* time travel (``select(as_of=timestamp)``);
* metadata through a pluggable :class:`~repro.table.metacache.MetadataStore`
  (file-based baseline vs StreamLake's acceleration);
* predicate + aggregate pushdown with file-level and row-group-level data
  skipping;
* a compute-side memory model for Fig 15(b): planning a query over a
  file-based catalog must materialize every manifest in compute memory and
  OOMs when the budget is too small, while the accelerated path keeps
  manifests storage-side.

:class:`Lakehouse` is the service owning the catalog and table registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cache.hierarchy import CacheHierarchy, default_hierarchy
from repro.common.clock import SimClock, lpt_makespan
from repro.common.context import ExecutionContext
from repro.common.stats import aggregation_stats
from repro.errors import (
    CommitConflictError,
    OutOfMemoryError,
    TableNotFoundError,
)
from repro.storage.bus import DataBus
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.table.agg import AggregateState, aggregate_file, footer_answerable
from repro.table.catalog import Catalog, TableInfo
from repro.table.chunkcache import ChunkCache, default_chunk_cache
from repro.table.columnar import ColumnarFile, ROW_GROUP_SIZE, gather_column
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.expr import Expression
from repro.table.join import ColumnSet, concat_column_sets
from repro.table.metacache import AcceleratedMetadataStore, MetadataStore
from repro.table.pushdown import (
    AggregateSpec,
    execute_pushdown_multi,
    result_size_bytes,
)
from repro.table.schema import PartitionSpec, Schema
from repro.table.snapshot import SnapshotLog
from repro.table.vector import ColumnVector, NumericVector

#: Compute-side memory to hold one file's manifest while planning (bytes).
PLANNING_BYTES_PER_FILE = 500
#: Compute-side memory per scanned row during execution (bytes).
EXECUTION_BYTES_PER_ROW = 64


@dataclass
class QueryStats:
    """Observability for one SELECT: what was pruned, moved and charged."""

    files_total: int = 0
    files_scanned: int = 0
    files_skipped: int = 0
    row_groups_skipped: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_scanned: int = 0
    bytes_skipped: int = 0
    bytes_transferred: int = 0
    metadata_cost_s: float = 0.0
    data_cost_s: float = 0.0
    chunk_cache_hits: int = 0
    chunk_cache_misses: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    footer_cache_hits: int = 0
    footer_cache_misses: int = 0

    @property
    def total_cost_s(self) -> float:
        return self.metadata_cost_s + self.data_cost_s


def count_tier_lookups(stats: QueryStats,
                       hierarchy: CacheHierarchy) -> Callable[[], None]:
    """Read the block/footer tier counters now; the returned callable
    charges the lookups made since then to ``stats``."""
    blocks, footers = hierarchy.blocks.stats, hierarchy.footers.stats
    before = (blocks.hits, blocks.misses, footers.hits, footers.misses)

    def fold() -> None:
        stats.block_cache_hits += blocks.hits - before[0]
        stats.block_cache_misses += blocks.misses - before[1]
        stats.footer_cache_hits += footers.hits - before[2]
        stats.footer_cache_misses += footers.misses - before[3]
    return fold


class TableObject:
    """One lakehouse table: data files + commit/snapshot metadata."""

    def __init__(self, info: TableInfo, catalog: Catalog, pool: StoragePool,
                 meta_store: MetadataStore, bus: DataBus, clock: SimClock,
                 row_group_size: int = ROW_GROUP_SIZE,
                 commit_protocol_s: float = 0.0,
                 chunk_cache: ChunkCache | None = None,
                 cache_hierarchy: CacheHierarchy | None = None,
                 write_parallelism: int = 1,
                 context: ExecutionContext | None = None) -> None:
        if write_parallelism < 1:
            raise ValueError("write_parallelism must be >= 1")
        self.info = info
        self._catalog = catalog
        self._pool = pool
        self._meta = meta_store
        self._bus = bus
        self._clock = clock
        self._row_group_size = row_group_size
        #: concurrent per-partition data-file write tasks (the write-side
        #: twin of ``select``'s ``read_parallelism``): write costs within
        #: one operation aggregate as a makespan over this many workers
        self.write_parallelism = write_parallelism
        #: decoded-chunk LRU shared across scans of this table (repeated
        #: SELECTs stop re-decompressing the same zlib blobs); defaults
        #: to the owning execution context's cache
        self._chunk_cache = (
            chunk_cache if chunk_cache is not None
            else default_chunk_cache(context)
        )
        #: block + footer tiers below the chunk cache: every data-file
        #: read goes through here, so repeated scans skip the pool (block
        #: hit) and footer-answerable aggregates skip IO entirely
        self._hierarchy = (
            cache_hierarchy if cache_hierarchy is not None
            else default_hierarchy(context)
        )
        #: fixed cost of the ACID commit protocol (OCC validation + durable
        #: snapshot publish) — the "extra metadata management" that makes
        #: StreamLake slower than HDFS on tiny workloads (Section VII-B)
        self.commit_protocol_s = commit_protocol_s
        self.snapshots = SnapshotLog()
        self._file_counter = 0

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def schema(self) -> Schema:
        return self.info.schema

    @property
    def partition_spec(self) -> PartitionSpec:
        return self.info.partition_spec

    @property
    def pool(self) -> StoragePool:
        """The persistence pool backing this table (read by the sharded
        execution layer, which fetches payloads itself)."""
        return self._pool

    @property
    def clock(self) -> SimClock:
        """The simulated clock this table charges its costs against."""
        return self._clock

    @property
    def bus(self) -> DataBus:
        """The data bus result rows are shipped over."""
        return self._bus

    @property
    def chunk_cache(self) -> ChunkCache:
        """The decoded-chunk cache bound to this table."""
        return self._chunk_cache

    @property
    def cache_hierarchy(self) -> CacheHierarchy:
        """The block/footer cache tiers bound to this table."""
        return self._hierarchy

    # --- write path ---------------------------------------------------------

    def begin(self) -> int:
        """Start an optimistic transaction: capture the snapshot version."""
        return self.snapshots.current_version

    def insert(self, rows: list[dict[str, object]],
               expected_version: int | None = None) -> float:
        """INSERT: persist data files per partition, then commit metadata.

        Returns simulated seconds.  Appends never conflict, so
        ``expected_version`` is accepted for symmetry but not enforced.
        """
        del expected_version  # appends are conflict-free
        if not rows:
            raise ValueError("insert requires at least one row")
        by_partition: dict[str, list[dict[str, object]]] = {}
        for row in rows:
            self.schema.validate_row(row)
            by_partition.setdefault(
                self.partition_spec.key_of(row), []
            ).append(row)
        added = []
        write_costs = []
        for partition, partition_rows in sorted(by_partition.items()):
            # rows were validated above; from_rows must not re-validate
            meta, write_cost = self._write_data_file(
                partition, partition_rows, pre_validated=True
            )
            added.append(meta)
            write_costs.append(write_cost)
        cost = self._advance_writes(write_costs)
        cost += self._commit("insert", added=added, removed=[])
        return cost

    def insert_columns(self,
                       columns: "dict[str, object]",
                       num_rows: int) -> float:
        """Vectorized INSERT from per-column data (the reunion write path).

        ``columns`` maps every schema column to a
        :class:`~repro.table.vector.NumericVector` or Python list exactly
        as :meth:`ColumnarFile.from_columns` accepts; values are trusted
        (validated during column construction).  Partition keys compute
        column-at-a-time — numeric day/hour transforms run as one NumPy
        floor-divide — and per-partition files build straight from column
        slices, so no row dicts exist anywhere on this path.
        """
        if num_rows < 1:
            raise ValueError("insert requires at least one row")
        added = []
        write_costs = []
        if not self.partition_spec.is_partitioned:
            meta, write_cost = self._write_columns_file(
                "all", columns, num_rows
            )
            added.append(meta)
            write_costs.append(write_cost)
        else:
            keys = self._partition_keys(columns, num_rows)
            groups: dict[str, list[int]] = {}
            for index, key in enumerate(keys):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                group.append(index)
            for partition in sorted(groups):
                indices = np.asarray(groups[partition], dtype=np.intp)
                part_columns = {
                    name: gather_column(data, indices)
                    for name, data in columns.items()
                }
                meta, write_cost = self._write_columns_file(
                    partition, part_columns, len(indices)
                )
                added.append(meta)
                write_costs.append(write_cost)
        cost = self._advance_writes(write_costs)
        cost += self._commit("insert", added=added, removed=[])
        return cost

    def _partition_keys(self, columns: "dict[str, object]",
                        num_rows: int) -> list[str]:
        """Per-row partition keys from column data (no row dicts)."""
        per_field: list[list[object]] = []
        labels: list[str] = []
        for field_ in self.partition_spec.fields:
            data = columns[field_.column]
            labels.append(field_.label)
            if (isinstance(data, NumericVector)
                    and field_.transform in ("day", "hour")):
                divisor = 86_400 if field_.transform == "day" else 3_600
                transformed = (
                    data.values.astype(np.int64) // divisor
                ).tolist()
                per_field.append([
                    value if ok else "__null__"
                    for value, ok in zip(transformed, data.valid().tolist())
                ])
            else:
                source = (
                    data.to_list() if isinstance(data, ColumnVector) else data
                )
                per_field.append([field_.apply_value(v) for v in source])
        if len(per_field) == 1:
            label = labels[0]
            return [f"{label}={value}" for value in per_field[0]]
        return [
            "/".join(
                f"{label}={value}" for label, value in zip(labels, values)
            )
            for values in zip(*per_field)
        ]

    def _advance_writes(self, write_costs: list[float]) -> float:
        """Charge a wave of data-file writes: the LPT makespan over the
        write task pool (``write_parallelism``), as read waves do over
        ``read_parallelism`` — the paper's conversion/compaction tasks
        write partitions concurrently."""
        cost = lpt_makespan(write_costs, self.write_parallelism)
        self._clock.advance(cost)
        return cost

    def _write_data_file(self, partition: str,
                         rows: list[dict[str, object]],
                         pre_validated: bool = False
                         ) -> tuple[DataFileMeta, float]:
        return self._store_data_file(
            partition,
            ColumnarFile.from_rows(
                self.schema, rows, self._row_group_size,
                pre_validated=pre_validated,
            ),
        )

    def _write_columns_file(self, partition: str,
                            columns: "dict[str, object]",
                            num_rows: int) -> tuple[DataFileMeta, float]:
        return self._store_data_file(
            partition,
            ColumnarFile.from_columns(
                self.schema, columns, num_rows, self._row_group_size
            ),
        )

    def _store_data_file(self, partition: str, data_file: ColumnarFile
                         ) -> tuple[DataFileMeta, float]:
        """Persist one built data file; the caller charges the clock."""
        path = f"{self.info.path}/data/{partition}/f{self._file_counter}.col"
        self._file_counter += 1
        payload = data_file.to_bytes()
        cost = self._pool.store(path, payload)
        meta = DataFileMeta(
            path=path,
            partition=partition,
            record_count=data_file.num_rows,
            size_bytes=len(payload),
            value_ranges=data_file.file_stats(),
        )
        return meta, cost

    def _commit(self, operation: str, added: list[DataFileMeta],
                removed: list[str],
                expected_version: int | None = None) -> float:
        if expected_version is not None and removed:
            current = self.snapshots.current_version
            if current != expected_version:
                live = {meta.path for meta in self.snapshots.live_files()}
                if any(path not in live for path in removed):
                    raise CommitConflictError(
                        f"{self.name}: commit removes files already replaced "
                        f"(expected v{expected_version}, at v{current})"
                    )
        commit = CommitFile(
            commit_id=self.snapshots.new_commit_id(),
            timestamp=self._clock.now,
            operation=operation,
            added=tuple(added),
            removed=tuple(removed),
        )
        snapshot = self.snapshots.record(commit)
        cost = self._meta.record_commit(self.info.path, commit, snapshot)
        cost += self.commit_protocol_s
        self._clock.advance(self.commit_protocol_s)
        self._catalog.update_snapshot(
            self.name, snapshot.snapshot_id, snapshot.summary, self._clock.now
        )
        return cost

    # --- read path -------------------------------------------------------------

    def scan_plan(self, predicate: Expression | None = None,
                  as_of: float | None = None,
                  memory_budget_bytes: int | None = None,
                  stats: QueryStats | None = None) -> list[DataFileMeta]:
        """Plan a scan: snapshot resolution, metadata cost, file pruning.

        Returns the data files surviving file-level skipping on commit
        value ranges, charging the metadata-read cost and populating
        ``stats``.  :meth:`select` runs this before fetching payloads;
        the sharded execution layer (:mod:`repro.parallel.query`) calls
        it directly, then partitions the surviving files over shard
        workers instead of scanning them inline.

        Raises :class:`~repro.errors.OutOfMemoryError` when planning
        over the file-based metadata path exceeds
        ``memory_budget_bytes`` (the Fig 15(b) compute-side model).
        """
        stats = stats if stats is not None else QueryStats()
        snapshot = (
            self.snapshots.snapshot_at(as_of) if as_of is not None else None
        )
        live = self.snapshots.live_files(snapshot)
        stats.files_total = len(live)
        stats.metadata_cost_s += self._meta.read_state_cost(
            self.info.path,
            num_commits=len(
                snapshot.commit_ids
                if snapshot is not None
                else (self.snapshots.current.commit_ids
                      if self.snapshots.current else ())
            ),
            num_live_files=len(live),
        )
        if (memory_budget_bytes is not None
                and not self.metadata_accelerated):
            planning = len(live) * PLANNING_BYTES_PER_FILE
            if planning > memory_budget_bytes:
                raise OutOfMemoryError(
                    f"{self.name}: planning needs {planning} bytes of compute "
                    f"memory for {len(live)} manifests, budget is "
                    f"{memory_budget_bytes}"
                )
        # file-level skipping on commit value ranges
        candidates = []
        for meta in live:
            if predicate is not None and not predicate.possibly_matches(
                meta.stats()
            ):
                stats.files_skipped += 1
                stats.bytes_skipped += meta.size_bytes
                continue
            candidates.append(meta)
        return candidates

    @property
    def metadata_accelerated(self) -> bool:
        """True when metadata stays storage-side (no compute-side OOM)."""
        return isinstance(self._meta, AcceleratedMetadataStore)

    def select(self, predicate: Expression | None = None,
               columns: list[str] | None = None,
               aggregate: "AggregateSpec | list[AggregateSpec] | None" = None,
               as_of: float | None = None,
               memory_budget_bytes: int | None = None,
               read_parallelism: int = 1,
               stats: QueryStats | None = None) -> list[dict[str, object]]:
        """SELECT with pushdown; populates ``stats`` when provided.

        ``aggregate`` accepts one :class:`AggregateSpec` or a list of
        specs sharing a GROUP BY (``SELECT COUNT(*), SUM(x) ...``).
        Aggregates run through the vectorized engine
        (:mod:`repro.table.agg`): each file folds into per-row-group
        partial aggregates that merge across files, so only group keys
        and partial scalars — never rows — exist on the compute side.
        Un-predicated, un-grouped COUNT/MIN/MAX queries are answered
        from row-group footers without decoding any data chunk.

        ``read_parallelism`` models the paper's parallel read tasks
        ("data is read from the persistence pool by read tasks",
        Section V-B): per-file read costs aggregate in waves of that many
        concurrent tasks instead of strictly serially.

        Raises :class:`~repro.errors.OutOfMemoryError` when the compute-side
        planning/working set exceeds ``memory_budget_bytes`` (only possible
        on the file-based metadata path — the acceleration cache
        "partially complements the allocated memory", Section VII-D).
        """
        if read_parallelism < 1:
            raise ValueError("read_parallelism must be >= 1")
        stats = stats if stats is not None else QueryStats()
        candidates = self.scan_plan(
            predicate, as_of=as_of,
            memory_budget_bytes=memory_budget_bytes, stats=stats,
        )
        rows: list[dict[str, object]] = []
        specs: list[AggregateSpec] | None = None
        state: AggregateState | None = None
        if aggregate is not None:
            specs = (
                [aggregate] if isinstance(aggregate, AggregateSpec)
                else list(aggregate)
            )
            state = AggregateState(specs)  # validates the shared GROUP BY
        read_costs: list[float] = []
        cache = self._chunk_cache
        hierarchy = self._hierarchy
        hits_before = cache.stats.hits
        misses_before = cache.stats.misses
        fold_tier_lookups = count_tier_lookups(stats, hierarchy)
        # metadata fast path: footer-answerable aggregates never need the
        # payload — a footer-tier hit answers a whole file with zero IO
        footer_only = state is not None and footer_answerable(
            specs, predicate  # type: ignore[arg-type]
        )
        for meta in candidates:
            now = self._clock.now
            stats.files_scanned += 1
            stats.bytes_scanned += meta.size_bytes
            if footer_only:
                footer, read_cost = hierarchy.load_footer(
                    self._pool, meta.path, now=now
                )
                read_costs.append(read_cost)
                stats.rows_scanned += footer.num_rows
                partial = AggregateState(specs, state.labels)
                for rows_in_group, group_stats, nulls in \
                        footer.group_summaries():
                    partial.update_from_stats(
                        rows_in_group, group_stats, nulls, footer.schema
                    )
                state.merge(partial)
                continue
            data_file, read_cost = hierarchy.load_file(
                self._pool, meta.path, now=now
            )
            read_costs.append(read_cost)
            if predicate is not None:
                stats.row_groups_skipped += data_file.skipped_row_groups(
                    predicate
                )
            stats.rows_scanned += data_file.num_rows
            if state is not None:
                state.merge(aggregate_file(
                    data_file, specs, state.labels, predicate, cache
                ))
            else:
                rows.extend(data_file.scan(predicate, columns, cache=cache))
        stats.chunk_cache_hits += cache.stats.hits - hits_before
        stats.chunk_cache_misses += cache.stats.misses - misses_before
        fold_tier_lookups()
        stats.data_cost_s += lpt_makespan(read_costs, read_parallelism)
        if memory_budget_bytes is not None and not self.metadata_accelerated:
            # aggregates hold group partials, never rows, on the compute side
            held = len(state.groups) if state is not None else len(rows)
            working = held * EXECUTION_BYTES_PER_ROW
            if working > memory_budget_bytes:
                raise OutOfMemoryError(
                    f"{self.name}: execution working set {working} bytes "
                    f"exceeds budget {memory_budget_bytes}"
                )
        if state is not None:
            aggregation_stats().queries += 1
            result = state.rows()
        else:
            result = rows
        stats.rows_returned = len(result)
        stats.bytes_transferred = result_size_bytes(result)
        stats.data_cost_s += self._bus.transfer(stats.bytes_transferred)
        self._clock.advance(stats.data_cost_s)
        return result

    def column_set(self, predicate: Expression | None = None,
                   columns: list[str] | None = None,
                   as_of: float | None = None,
                   memory_budget_bytes: int | None = None,
                   read_parallelism: int = 1,
                   stats: QueryStats | None = None) -> ColumnSet:
        """Scan into typed vectors — the join engine's table input.

        Runs the same plan/prune/fetch path as :meth:`select` (metadata
        cost, file- and row-group-level skipping, block/footer/chunk
        tiers, parallel read waves) but stops *before* row
        materialization: surviving rows stay decoded column vectors,
        concatenated across files into one :class:`ColumnSet`.  The
        planner joins these directly and only the final projection ever
        builds Python rows.
        """
        if read_parallelism < 1:
            raise ValueError("read_parallelism must be >= 1")
        stats = stats if stats is not None else QueryStats()
        candidates = self.scan_plan(
            predicate, as_of=as_of,
            memory_budget_bytes=memory_budget_bytes, stats=stats,
        )
        cache = self._chunk_cache
        hierarchy = self._hierarchy
        hits_before = cache.stats.hits
        misses_before = cache.stats.misses
        fold_tier_lookups = count_tier_lookups(stats, hierarchy)
        read_costs: list[float] = []
        parts: list[ColumnSet] = []
        for meta in candidates:
            stats.files_scanned += 1
            stats.bytes_scanned += meta.size_bytes
            data_file, read_cost = hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            read_costs.append(read_cost)
            if predicate is not None:
                stats.row_groups_skipped += data_file.skipped_row_groups(
                    predicate
                )
            stats.rows_scanned += data_file.num_rows
            parts.append(
                ColumnSet.from_file(data_file, columns, predicate, cache)
            )
        stats.chunk_cache_hits += cache.stats.hits - hits_before
        stats.chunk_cache_misses += cache.stats.misses - misses_before
        fold_tier_lookups()
        stats.data_cost_s += lpt_makespan(read_costs, read_parallelism)
        self._clock.advance(stats.data_cost_s)
        if not parts:
            return ColumnSet.from_rows(self.schema, [], columns)
        result = concat_column_sets(parts)
        stats.rows_returned = result.num_rows
        return result

    def current_snapshot_id(self) -> int:
        """The current snapshot id (``-1`` before the first commit).

        Result-cache keys embed this: a commit advances it, so stale
        cached results are never returned for the new state.
        """
        return self.snapshots.current_version

    def snapshot_id_at(self, as_of: float | None = None) -> int:
        """The snapshot id a query at ``as_of`` resolves to.

        Time travel resolves to the *historical* id — which is why an
        ``as_of`` query stays warm in the result cache across later
        commits: its key never changes.
        """
        if as_of is None:
            return self.snapshots.current_version
        return self.snapshots.snapshot_at(as_of).snapshot_id

    def select_rows(self, predicate: Expression | None = None,
                    columns: list[str] | None = None,
                    aggregate: "AggregateSpec | list[AggregateSpec] | None" = None,
                    as_of: float | None = None) -> list[dict[str, object]]:
        """Row-at-a-time SELECT (the pre-vectorization path).

        Kept as the equivalence oracle, matching the repo's ``scan_rows``
        / ``compact_rows`` pattern: every row materializes as a Python
        dict and aggregates run through the row-wise accumulator
        (:func:`~repro.table.pushdown.execute_pushdown_multi`).  Charges
        no simulated time — it exists to assert :meth:`select` returns
        identical rows, not to model a query.
        """
        snapshot = (
            self.snapshots.snapshot_at(as_of) if as_of is not None else None
        )
        specs: list[AggregateSpec] | None = None
        if aggregate is not None:
            specs = (
                [aggregate] if isinstance(aggregate, AggregateSpec)
                else list(aggregate)
            )
            columns = sorted(
                {name for spec in specs for name in spec.columns()}
            ) or []
        rows: list[dict[str, object]] = []
        for meta in self.snapshots.live_files(snapshot):
            if predicate is not None and not predicate.possibly_matches(
                meta.stats()
            ):
                continue
            payload, _ = self._pool.fetch(meta.path)
            rows.extend(
                ColumnarFile.from_bytes(payload).scan_rows(predicate, columns)
            )
        if specs is not None:
            return execute_pushdown_multi(rows, specs)
        return rows

    # --- mutations ----------------------------------------------------------------

    def delete(self, predicate: Expression) -> float:
        """DELETE rows matching ``predicate`` (Section V-B semantics).

        Files fully covered by the predicate are dropped metadata-only;
        partially matching files are rewritten without the doomed rows.
        """
        expected = self.begin()
        live = self.snapshots.live_files()
        removed: list[str] = []
        added: list[DataFileMeta] = []
        cost = 0.0
        write_costs: list[float] = []
        for meta in live:
            if not predicate.possibly_matches(meta.stats()):
                continue
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            cost += read_cost
            survivors = [
                row for row in data_file.scan(cache=self._chunk_cache)
                if not predicate.matches(row)
            ]
            if len(survivors) == data_file.num_rows:
                continue  # statistics overlapped but nothing matched
            removed.append(meta.path)
            if survivors:
                # survivors came straight out of a validated data file
                new_meta, write_cost = self._write_data_file(
                    meta.partition, survivors, pre_validated=True
                )
                added.append(new_meta)
                write_costs.append(write_cost)
        cost += self._advance_writes(write_costs)
        if not removed:
            return cost
        cost += self._commit(
            "delete", added=added, removed=removed, expected_version=expected
        )
        # removed files stay in the pool: older snapshots still reference
        # them (time travel); expire_snapshots reclaims the space later
        return cost

    def update(self, predicate: Expression,
               set_values: dict[str, object]) -> float:
        """UPDATE rows matching ``predicate`` with ``set_values``."""
        for column in set_values:
            self.schema.column(column)  # validates existence
        expected = self.begin()
        live = self.snapshots.live_files()
        removed: list[str] = []
        added: list[DataFileMeta] = []
        cost = 0.0
        write_costs: list[float] = []
        for meta in live:
            if not predicate.possibly_matches(meta.stats()):
                continue
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            cost += read_cost
            changed = False
            new_rows = []
            for row in data_file.scan(cache=self._chunk_cache):
                if predicate.matches(row):
                    row = {**row, **set_values}
                    changed = True
                new_rows.append(row)
            if not changed:
                continue
            removed.append(meta.path)
            # rows may move partitions when a partition column changes
            by_partition: dict[str, list[dict[str, object]]] = {}
            for row in new_rows:
                self.schema.validate_row(row)
                by_partition.setdefault(
                    self.partition_spec.key_of(row), []
                ).append(row)
            for partition, partition_rows in sorted(by_partition.items()):
                new_meta, write_cost = self._write_data_file(
                    partition, partition_rows, pre_validated=True
                )
                added.append(new_meta)
                write_costs.append(write_cost)
        cost += self._advance_writes(write_costs)
        if not removed:
            return cost
        cost += self._commit(
            "update", added=added, removed=removed, expected_version=expected
        )
        return cost

    def _compaction_plan(self, partition: str, target_file_bytes: int,
                         expected_version: int | None
                         ) -> tuple[int, list[DataFileMeta]]:
        """(expected version, files worth merging) for one compaction."""
        expected = (
            expected_version if expected_version is not None else self.begin()
        )
        # plan against the snapshot the caller observed: a concurrent
        # commit replacing these files then conflicts at commit time
        planning_snapshot = (
            self.snapshots.snapshot_by_id(expected) if expected >= 0 else None
        )
        if planning_snapshot is None:
            return expected, []
        live = [
            meta for meta in self.snapshots.live_files(planning_snapshot)
            if meta.partition == partition
            and meta.size_bytes < target_file_bytes
        ]
        return expected, live

    def compact(self, partition: str, target_file_bytes: int,
                expected_version: int | None = None,
                read_parallelism: int = 1) -> float:
        """Merge a partition's small files toward ``target_file_bytes``.

        The merge happens at the decoded-vector level: each input file
        decodes to per-column vectors (through the shared chunk cache, so
        recently scanned files merge without re-decompressing), columns
        concatenate with NumPy, and the merged file builds via
        ``from_columns`` — no Python row dict exists anywhere.  Reads
        aggregate as a makespan over ``read_parallelism`` tasks, writes
        over the table's ``write_parallelism``.

        Used by LakeBrain's auto-compaction; conflicts with concurrent
        commits that replaced the same files raise CommitConflictError.
        """
        if read_parallelism < 1:
            raise ValueError("read_parallelism must be >= 1")
        expected, live = self._compaction_plan(
            partition, target_file_bytes, expected_version
        )
        if len(live) < 2:
            return 0.0
        read_costs: list[float] = []
        merged: dict[str, list] = {name: [] for name in self.schema.names}
        num_rows = 0
        for meta in live:
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            read_costs.append(read_cost)
            for name, data in data_file.to_columns(
                cache=self._chunk_cache
            ).items():
                merged[name].append(data)
            num_rows += data_file.num_rows
        columns: dict[str, object] = {}
        for column in self.schema.columns:
            parts = merged[column.name]
            if parts and isinstance(parts[0], NumericVector):
                columns[column.name] = NumericVector(
                    np.concatenate([part.values for part in parts]),
                    np.concatenate([part.valid() for part in parts]),
                )
            else:
                columns[column.name] = [
                    value for part in parts for value in part
                ]
        cost = lpt_makespan(read_costs, read_parallelism)
        new_meta, write_cost = self._write_columns_file(
            partition, columns, num_rows
        )
        cost += self._advance_writes([write_cost])
        removed = [meta.path for meta in live]
        cost += self._commit(
            "compact", added=[new_meta], removed=removed,
            expected_version=expected,
        )
        return cost

    def compact_rows(self, partition: str, target_file_bytes: int,
                     expected_version: int | None = None) -> float:
        """Row-at-a-time compaction (the pre-vectorization path).

        Kept as the equivalence oracle: materializes every row as a
        Python dict via ``scan`` and rebuilds the merged file with
        ``from_rows``.  Tests assert :meth:`compact` leaves the table
        scanning identically to this.
        """
        expected, live = self._compaction_plan(
            partition, target_file_bytes, expected_version
        )
        if len(live) < 2:
            return 0.0
        rows: list[dict[str, object]] = []
        cost = 0.0
        for meta in live:
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            cost += read_cost
            rows.extend(data_file.scan(cache=self._chunk_cache))
        new_meta, write_cost = self._write_data_file(partition, rows)
        cost += self._advance_writes([write_cost])
        removed = [meta.path for meta in live]
        cost += self._commit(
            "compact", added=[new_meta], removed=removed,
            expected_version=expected,
        )
        return cost

    # --- maintenance -----------------------------------------------------------------

    def expire_snapshots(self, older_than: float) -> int:
        """Expire old snapshots; unreferenced data files are deleted.

        Physical deletion is the one event that must also evict the
        block/footer tiers: a later table could legitimately reuse the
        same path (the file counter is per table), and stale cached
        bytes would defeat the content-addressing guarantee the chunk
        cache gets for free.
        """
        dropped, unreferenced = self.snapshots.expire(older_than)
        for path in unreferenced:
            self._hierarchy.invalidate(self._pool, path)
            if self._pool.has_extent(path):
                self._pool.delete(path)
        return dropped

    def live_file_count(self) -> int:
        return len(self.snapshots.live_files())

    def partitions(self) -> dict[str, list[DataFileMeta]]:
        out: dict[str, list[DataFileMeta]] = {}
        for meta in self.snapshots.live_files():
            out.setdefault(meta.partition, []).append(meta)
        return out

    def total_bytes(self) -> int:
        return sum(meta.size_bytes for meta in self.snapshots.live_files())


class Lakehouse:
    """Service facade: catalog + table registry over shared storage."""

    def __init__(self, pool: StoragePool, bus: DataBus, clock: SimClock,
                 catalog_kv: KVEngine | None = None,
                 meta_store: MetadataStore | None = None,
                 row_group_size: int = ROW_GROUP_SIZE,
                 commit_protocol_s: float = 0.0,
                 chunk_cache: ChunkCache | None = None,
                 cache_hierarchy: CacheHierarchy | None = None,
                 write_parallelism: int = 1,
                 context: ExecutionContext | None = None) -> None:
        self._pool = pool
        self._bus = bus
        self._clock = clock
        #: decoded-chunk cache shared by every table in this lakehouse
        #: (the owning execution context's cache unless given explicitly)
        self.chunk_cache = (
            chunk_cache if chunk_cache is not None
            else default_chunk_cache(context)
        )
        #: block/footer tiers shared by every table in this lakehouse
        self.cache_hierarchy = (
            cache_hierarchy if cache_hierarchy is not None
            else default_hierarchy(context)
        )
        kv = catalog_kv if catalog_kv is not None else KVEngine("catalog")
        self.catalog = Catalog(kv)
        self.meta_store = (
            meta_store
            if meta_store is not None
            else AcceleratedMetadataStore(
                KVEngine("meta-cache"), pool, clock
            )
        )
        self._row_group_size = row_group_size
        self._commit_protocol_s = commit_protocol_s
        self._write_parallelism = write_parallelism
        self._tables: dict[str, TableObject] = {}

    def create_table(self, name: str, schema: Schema,
                     partition_spec: PartitionSpec | None = None,
                     path: str | None = None) -> TableObject:
        """CREATE TABLE: register in the catalog, create the directories."""
        spec = partition_spec if partition_spec is not None else PartitionSpec()
        info = self._catalog_create(name, schema, spec, path)
        table = TableObject(
            info, self.catalog, self._pool, self.meta_store, self._bus,
            self._clock, self._row_group_size, self._commit_protocol_s,
            chunk_cache=self.chunk_cache,
            cache_hierarchy=self.cache_hierarchy,
            write_parallelism=self._write_parallelism,
        )
        self._tables[name] = table
        return table

    def _catalog_create(self, name: str, schema: Schema, spec: PartitionSpec,
                        path: str | None) -> TableInfo:
        table_path = path if path is not None else f"tables/{name}"
        return self.catalog.create(
            name, table_path, schema, spec, self._clock.now
        )

    def table(self, name: str) -> TableObject:
        table = self._tables.get(name)
        if table is None or not self.catalog.exists(name):
            raise TableNotFoundError(f"no table {name!r}")
        return table

    def drop_table_soft(self, name: str) -> None:
        """Unregister but keep data/metadata for future restoration."""
        self.catalog.soft_delete(name, self._clock.now)

    def restore_table(self, name: str, new_name: str) -> TableObject:
        """Link a new table to a soft-deleted table's path (Section V-B)."""
        info = self.catalog.restore(name, new_name, self._clock.now)
        table = self._tables.pop(name)
        table.info = info
        self._tables[new_name] = table
        # the old name is free for reuse; a table recreated under it
        # restarts its snapshot counter, so its ids could alias cached
        # results of the restored table's history
        self.cache_hierarchy.invalidate_results(name)
        return table

    def drop_table_hard(self, name: str) -> None:
        """Remove data, metadata (cache first, then disk) and catalog entry."""
        table = self._tables.pop(name, None)
        if table is None:
            raise TableNotFoundError(f"no table {name!r}")
        self._meta_drop(table)
        self.catalog.hard_delete(name)

    def _meta_drop(self, table: TableObject) -> None:
        self.meta_store.drop(table.info.path)
        for meta in table.snapshots.live_files():
            table.cache_hierarchy.invalidate(self._pool, meta.path)
            if self._pool.has_extent(meta.path):
                self._pool.delete(meta.path)
        # cached results must not survive a physical drop: a recreated
        # table restarts snapshot ids, which would alias the dead keys
        table.cache_hierarchy.invalidate_results(table.name)
        self._pool.garbage_collect()
