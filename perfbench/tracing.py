"""Span tracer for the benchmark's traced passes.

The tracer wraps public entry points of ``repro`` from outside: each
wrapped call records one span (name, start, end, parent span, request
id) into compact in-memory columns that live until the run ends.  A
layer's self time is its spans' time minus the time of their child
spans, so the self times of one pass plus the time outside every span
(``untraced``) add up to the pass's wall time.

Wrappers are installed on the classes and modules for the length of a
:meth:`Tracer.installed` block and record only while :attr:`active` is
set, so set-up work inside the block adds no spans.  Hooks read sizes
and simulated costs off arguments and results; they only count, they
never change what a call does or returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

Hook = Callable[[dict, tuple, object, object], None]


def _disk_write(counts, args, result, _state):
    counts["disk.bytes_written"] += len(args[2])
    counts["disk.busy_sim_s"] += result


def _disk_read(counts, _args, result, _state):
    counts["disk.busy_sim_s"] += result[1]


def _bus_transfer(counts, args, result, _state):
    counts["bus.bytes"] += args[1]
    counts["bus.transfer_sim_s"] += result


def _encode_batch(counts, args, _result, _state):
    counts["ec.encode_bytes"] += sum(len(payload) for payload in args[1])


def _encode(counts, args, _result, _state):
    counts["ec.encode_bytes"] += len(args[1])


def _fetch_before(args):
    return args[0].stats.degraded_reads


def _fetch(counts, args, result, degraded_before):
    if args[0].stats.degraded_reads > degraded_before:
        counts["pool.degraded_read_sim_s"] += result[1]


def _ingest_wave(counts, _args, wave, _state):
    counts["parallel.ingest_makespan_sim_s"] += wave.sim_elapsed_s
    counts["parallel.ingest_serial_sim_s"] += wave.sim_serial_s


#: (span name, module, class or None for a module function, attribute,
#: hook after the call, hook before the call).  Several entry points may
#: share a span name; their self times add up under it.
ENTRY_POINTS: list[tuple[str, str, str | None, str, Hook | None,
                         Callable | None]] = [
    ("serving.produce_s", "repro.serving.frontend", "ServingFrontend",
     "produce", None, None),
    ("serving.drain_s", "repro.serving.frontend", "ServingFrontend",
     "drain", None, None),
    ("serving.select_s", "repro.serving.frontend", "ServingFrontend",
     "select", None, None),
    ("serving.backpressure_s", "repro.serving.frontend", "ServingFrontend",
     "sync_backpressure", None, None),
    ("stream.route_key_s", "repro.stream.dispatcher", "StreamDispatcher",
     "route_key", None, None),
    ("stream.send_batch_s", "repro.stream.producer", "Producer",
     "send_batch", None, None),
    ("stream.seal_s", "repro.stream.records", None, "repack_slices",
     None, None),
    ("stream.read_s", "repro.stream.object", "StreamObject", "read",
     None, None),
    ("stream.poll_s", "repro.stream.consumer", "Consumer", "poll",
     None, None),
    ("plog.append_batch_s", "repro.storage.plog", "PLogManager",
     "append_batch", None, None),
    ("pool.store_batch_s", "repro.storage.pool", "StoragePool",
     "store_batch", None, None),
    ("pool.fetch_s", "repro.storage.pool", "StoragePool", "fetch",
     _fetch, _fetch_before),
    ("ec.encode_s", "repro.storage.ec", "ReedSolomon", "encode_batch",
     _encode_batch, None),
    ("ec.encode_s", "repro.storage.ec", "ReedSolomon", "encode",
     _encode, None),
    ("ec.decode_s", "repro.storage.ec", "ReedSolomon", "decode",
     None, None),
    ("disk.write_s", "repro.storage.disk", "Disk", "write",
     _disk_write, None),
    ("disk.read_s", "repro.storage.disk", "Disk", "read",
     _disk_read, None),
    ("bus.transfer_s", "repro.storage.bus", "DataBus", "transfer",
     _bus_transfer, None),
    ("rebuild.run_s", "repro.storage.rebuild", "RebuildQueue", "run",
     None, None),
    ("conversion.run_cycle_s", "repro.table.conversion",
     "StreamTableConverter", "run_cycle", None, None),
    ("conversion.parse_s", "repro.table.colbuild", None,
     "columns_from_values", None, None),
    ("table.insert_columns_s", "repro.table.table", "TableObject",
     "insert_columns", None, None),
    ("table.scan_plan_s", "repro.table.table", "TableObject",
     "scan_plan", None, None),
    ("table.select_s", "repro.table.table", "TableObject", "select",
     None, None),
    ("sql.query_s", "repro.table.sql", None, "query", None, None),
    ("sql.parse_s", "repro.table.sql", None, "parse_select", None, None),
    ("join.plan_s", "repro.table.planner", None, "plan_join", None, None),
    ("join.hash_join_s", "repro.table.join", None, "hash_join",
     None, None),
    ("cache.load_s", "repro.cache.hierarchy", "CacheHierarchy",
     "load_payload", None, None),
    ("cache.load_s", "repro.cache.hierarchy", "CacheHierarchy",
     "load_footer", None, None),
    ("cache.load_s", "repro.cache.hierarchy", "CacheHierarchy",
     "lookup_result", None, None),
    ("parallel.select_s", "repro.parallel.query", None, "sharded_select",
     None, None),
    ("parallel.ingest_s", "repro.parallel.ingest", None,
     "sharded_append_batch", _ingest_wave, None),
]

#: every span name, in table order (each is a per-layer self-time metric)
SPAN_NAMES: list[str] = list(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: counters the hooks fill
HOOK_COUNTERS = (
    "disk.bytes_written", "disk.busy_sim_s", "bus.bytes",
    "bus.transfer_sim_s", "ec.encode_bytes", "pool.degraded_read_sim_s",
    "parallel.ingest_makespan_sim_s", "parallel.ingest_serial_sim_s",
)


class Tracer:
    """Records spans of wrapped entry points into in-memory columns."""

    def __init__(self) -> None:
        self.active = False
        #: id of the benchmark operation (request or query) in flight
        self.request_id = -1
        self._name_ids = {name: index for index, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the hook counters (each pass reads its own)."""
        self.counts = dict.fromkeys(HOOK_COUNTERS, 0.0)

    def __len__(self) -> int:
        return len(self.starts)

    def _wrap(self, name: str, fn: Callable, after: Hook | None,
              before: Callable | None) -> Callable:
        tracer = self
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.starts)
            tracer.names.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.requests.append(tracer.request_id)
            tracer.ends.append(0.0)
            state = before(args) if before is not None else None
            stack.append(index)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, result, state)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point; restore the originals on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, class_name, attr, after, before in \
                    ENTRY_POINTS:
                module = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr,
                            self._wrap(name, original, after, before))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, after, before)
                # a module function is also bound by name in every module
                # that imported it; rebind each of those references
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, attr, None) is original):
                        undo.append((loaded, attr, original))
                        setattr(loaded, attr, wrapped)
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self, first_span: int, stop: int
                   ) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and span counts per name for the spans in
        ``[first_span, stop)``, plus the seconds top-level spans cover."""
        names = np.frombuffer(self.names, dtype=np.int32)[first_span:stop]
        starts = np.frombuffer(self.starts)[first_span:stop]
        ends = np.frombuffer(self.ends)[first_span:stop]
        parents = np.frombuffer(self.parents, dtype=np.int32)[first_span:stop]
        durations = ends - starts
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested] - first_span, weights=durations[nested],
            minlength=len(durations),
        )
        own = durations - child_time
        per_name = np.bincount(names, weights=own, minlength=len(SPAN_NAMES))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        return (
            {name: float(per_name[i]) for i, name in enumerate(SPAN_NAMES)},
            {name: int(calls[i]) for i, name in enumerate(SPAN_NAMES)},
            float(durations[~nested].sum()),
        )
