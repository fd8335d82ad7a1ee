"""The message streaming service facade (Fig 6).

Wires together the dispatcher, stream workers, stream objects, transaction
manager and archive service over a shared storage substrate.  This is the
entry point producers/consumers talk to and the component benches drive.

Elasticity: :meth:`scale_workers` adds/removes serving capacity by
rewriting stream->worker mappings only — stream objects stay where they
are in the store layer, so no data moves (Fig 14(c)).
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.scm import SCMCache
from repro.stream.archive import ArchiveService
from repro.stream.config import TopicConfig
from repro.stream.dispatcher import StreamDispatcher
from repro.stream.object import ReadControl, StreamObject, StreamObjectStore
from repro.stream.records import MessageRecord, PackedRecordBatch
from repro.stream.txn import TransactionManager
from repro.stream.worker import StreamWorker


class MessageStreamingService:
    """Top-level streaming service: topics in, ordered messages out."""

    def __init__(self, plogs: PLogManager, bus: DataBus, clock: SimClock,
                 num_workers: int = 3,
                 scm_cache: SCMCache | None = None,
                 archive_pool: StoragePool | None = None,
                 slice_codec: str = "binary") -> None:
        self.clock = clock
        self.bus = bus
        self.plogs = plogs
        self.scm_cache = scm_cache
        self.objects = StreamObjectStore(plogs, clock, codec=slice_codec)
        self.dispatcher = StreamDispatcher(
            KVEngine("dispatcher-meta"), clock
        )
        self.transactions = TransactionManager(clock)
        self.archive = (
            ArchiveService(archive_pool, clock) if archive_pool is not None else None
        )
        self._workers: dict[str, StreamWorker] = {}
        for index in range(num_workers):
            self._add_worker(f"worker-{index}")

    # --- workers ----------------------------------------------------------

    def _add_worker(self, worker_id: str) -> StreamWorker:
        worker = StreamWorker(worker_id, self.bus, self.clock, self.scm_cache)
        self._workers[worker_id] = worker
        self.dispatcher.register_worker(worker_id)
        return worker

    @property
    def workers(self) -> dict[str, StreamWorker]:
        return dict(self._workers)

    def scale_workers(self, target: int) -> tuple[int, float]:
        """Grow/shrink the worker set; returns (streams remapped, sim s).

        Only KV mappings change — the disaggregated design's elasticity.
        """
        if target < 1:
            raise ValueError("need at least one worker")
        moved_total = 0
        elapsed_total = 0.0
        index = len(self._workers)
        while len(self._workers) < target:
            worker = StreamWorker(
                f"worker-{index}", self.bus, self.clock, self.scm_cache
            )
            self._workers[worker.worker_id] = worker
            moved, elapsed = self.dispatcher.add_worker(worker.worker_id)
            moved_total += moved
            elapsed_total += elapsed
            index += 1
        while len(self._workers) > target:
            worker_id = sorted(self._workers)[-1]
            moved, elapsed = self.dispatcher.remove_worker(worker_id)
            self._workers.pop(worker_id)
            moved_total += moved
            elapsed_total += elapsed
        self._sync_attachments()
        return moved_total, elapsed_total

    def _sync_attachments(self) -> None:
        """Make worker attachments match the dispatcher's KV assignments."""
        wanted: dict[str, str] = {}
        for topic in self.dispatcher.topics():
            for stream_id in self.dispatcher.streams_of(topic):
                wanted[stream_id] = self.dispatcher.worker_of(stream_id)
        for worker in self._workers.values():
            for stream_id in worker.streams():
                if wanted.get(stream_id) != worker.worker_id:
                    worker.detach_stream(stream_id)
        for stream_id, worker_id in wanted.items():
            worker = self._workers[worker_id]
            if stream_id not in worker.streams():
                obj = self.objects.get(self.dispatcher.object_of(stream_id))
                config = self.dispatcher.config_of(stream_id.rsplit("/", 1)[0])
                worker.attach_stream(stream_id, obj, config.quota_msgs_per_s)

    # --- topics --------------------------------------------------------------

    def create_topic(self, topic: str,
                     config: TopicConfig | None = None) -> list[str]:
        """Declare a topic: one stream object per stream, workers attached."""
        config = config if config is not None else TopicConfig()
        streams = self.dispatcher.create_topic(topic, config)
        for stream_id in streams:
            obj = self.objects.create(object_id=f"sobj:{stream_id}")
            self.dispatcher.bind_object(stream_id, obj.object_id)
            worker = self._workers[self.dispatcher.worker_of(stream_id)]
            worker.attach_stream(stream_id, obj, config.quota_msgs_per_s)
        return streams

    def scale_topic(self, topic: str, new_stream_num: int) -> float:
        """Grow a topic's partitions; metadata-only (Fig 14(c)).

        Returns the simulated seconds the scale-out took.
        """
        created, elapsed = self.dispatcher.scale_topic(topic, new_stream_num)
        config = self.dispatcher.config_of(topic)
        for stream_id in created:
            obj = self.objects.create(object_id=f"sobj:{stream_id}")
            self.dispatcher.bind_object(stream_id, obj.object_id)
            worker = self._workers[self.dispatcher.worker_of(stream_id)]
            worker.attach_stream(stream_id, obj, config.quota_msgs_per_s)
        return elapsed

    def drop_read_caches(self) -> None:
        """Evict every worker-local read cache (cache-pressure tests)."""
        for worker in self._workers.values():
            worker.drop_read_cache()

    def delete_topic(self, topic: str) -> None:
        for stream_id in self.dispatcher.streams_of(topic):
            worker_id = self.dispatcher.worker_of(stream_id)
            worker = self._workers[worker_id]
            if stream_id in worker.streams():
                worker.detach_stream(stream_id)
            self.objects.destroy(f"sobj:{stream_id}")
        self.dispatcher.delete_topic(topic)

    def object_for(self, stream_id: str) -> StreamObject:
        return self.objects.get(self.dispatcher.object_of(stream_id))

    # --- data path -------------------------------------------------------------

    def deliver(self, stream_id: str,
                records: "list[MessageRecord] | PackedRecordBatch",
                txn_id: str | None = None) -> float:
        """Producer -> worker -> stream object write path."""
        worker = self._workers[self.dispatcher.worker_of(stream_id)]
        if txn_id is not None:
            self.transactions.enlist(txn_id, worker.object_of(stream_id))
        _, cost = worker.produce(stream_id, records)
        return cost

    def fetch(self, stream_id: str, offset: int,
              control: ReadControl | None = None
              ) -> tuple[list[MessageRecord], float]:
        """Consumer read path (worker-local and SCM caches apply)."""
        worker = self._workers[self.dispatcher.worker_of(stream_id)]
        return worker.consume(stream_id, offset, control)

    # --- background services ------------------------------------------------------

    def run_archive_cycle(self, topic: str) -> int:
        """Apply the topic's archive policy to each of its stream objects."""
        if self.archive is None:
            return 0
        config = self.dispatcher.config_of(topic).archive
        archived = 0
        for stream_id in self.dispatcher.streams_of(topic):
            obj = self.object_for(stream_id)
            archived += self.archive.maybe_archive(
                obj, config, self.plogs.read_key
            )
        return archived

    def flush_all(self) -> float:
        """Seal every open slice (used before conversions/bench reads)."""
        cost = 0.0
        for worker in self._workers.values():
            for stream_id in worker.streams():
                cost += worker.object_of(stream_id).flush()
        return cost
