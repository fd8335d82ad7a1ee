"""Compaction environment: streaming ingestion into partitioned tables.

Section VI-A's environment: "data ingestion and transactions often result
in numerous small files".  Each step, partitions receive newly ingested
small files and queries arrive; the policy chooses per partition whether
to compact.  Compaction merges small files toward the target file size
(binpack), consumes compute resource, and can *fail* when its commit
conflicts with concurrent ingestion — the paper's motivation for learning
rather than a fixed schedule.

Block utilization of a partition (paper formula):

    U_t = sum(f_i) / (K * sum(ceil(f_i / K)))

Rewards follow the paper: on success, the improvement in the partition's
block utilization; on failure, -(1 - expected improvement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.units import MiB


def block_utilization(file_sizes: list[int], block_size: int) -> float:
    """The paper's block-utilization formula (1.0 for an empty partition)."""
    if not file_sizes:
        return 1.0
    total = sum(file_sizes)
    blocks = sum(math.ceil(size / block_size) for size in file_sizes)
    return total / (block_size * blocks)


@dataclass
class EnvConfig:
    """Knobs of the ingestion/compaction simulation."""

    num_partitions: int = 8
    block_size: int = 4 * MiB
    target_file_size: int = 64 * MiB
    #: mean small files ingested per partition per step
    ingestion_rate: float = 3.0
    #: mean size of an ingested small file
    small_file_mean: int = 2 * MiB
    #: mean queries arriving per step (each touches one partition)
    query_rate: float = 4.0
    #: base probability a compaction commit conflicts with ingestion;
    #: scales with the partition's instantaneous ingestion pressure
    conflict_base: float = 0.05
    conflict_per_ingest: float = 0.12
    #: per-file open overhead dominating query cost on merge-on-read tables
    query_cost_per_file: float = 1.0
    query_cost_per_mb: float = 0.01
    #: compute-resource cost of one compaction (enters the reward shaping
    #: indirectly by stalling ingestion for a step on that partition)
    steps_per_episode: int = 200


@dataclass
class PartitionState:
    """Mutable state of one partition."""

    files: list[int] = field(default_factory=list)
    access_frequency: float = 0.0
    steps_since_compaction: int = 0
    ingested_this_step: int = 0

    def utilization(self, block_size: int) -> float:
        return block_utilization(self.files, block_size)


@dataclass
class StepOutcome:
    """What happened to one partition in one step."""

    compacted: bool
    conflict: bool
    reward: float
    utilization: float
    query_cost: float


class CompactionEnv:
    """Multi-partition ingestion simulator with per-partition actions."""

    def __init__(self, config: EnvConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else EnvConfig()
        self._rng = np.random.default_rng(seed)
        self.partitions: list[PartitionState] = []
        self.step_index = 0
        self.total_query_cost = 0.0
        self.total_compactions = 0
        self.total_conflicts = 0
        self.reset()

    def reset(self) -> None:
        self.partitions = [
            PartitionState() for _ in range(self.config.num_partitions)
        ]
        self.step_index = 0
        self.total_query_cost = 0.0
        self.total_compactions = 0
        self.total_conflicts = 0
        # warm up with some initial small files
        for partition in self.partitions:
            for _ in range(int(self._rng.integers(2, 8))):
                partition.files.append(self._small_file_size())

    def _small_file_size(self) -> int:
        size = self._rng.exponential(self.config.small_file_mean)
        return max(64 * 1024, int(size))

    # --- dynamics --------------------------------------------------------------

    def ingest(self) -> None:
        """New small files arrive on every partition."""
        for partition in self.partitions:
            count = self._rng.poisson(self.config.ingestion_rate)
            partition.ingested_this_step = count
            for _ in range(count):
                partition.files.append(self._small_file_size())
            partition.steps_since_compaction += 1

    def serve_queries(self) -> float:
        """Queries hit random partitions; cost grows with file count."""
        config = self.config
        count = self._rng.poisson(config.query_rate)
        cost = 0.0
        for _ in range(count):
            index = int(self._rng.integers(len(self.partitions)))
            partition = self.partitions[index]
            partition.access_frequency = (
                0.8 * partition.access_frequency + 0.2
            )
            cost += (
                len(partition.files) * config.query_cost_per_file
                + sum(partition.files) / MiB * config.query_cost_per_mb
            )
        for partition in self.partitions:
            partition.access_frequency *= 0.95
        self.total_query_cost += cost
        return cost

    def expected_improvement(self, index: int) -> float:
        """Utilization gain if this partition's compaction succeeded."""
        partition = self.partitions[index]
        before = partition.utilization(self.config.block_size)
        merged = _binpack_sizes(partition.files, self.config.target_file_size)
        after = block_utilization(merged, self.config.block_size)
        return max(0.0, after - before)

    def compact(self, index: int) -> StepOutcome:
        """Attempt compaction on one partition (the paper's reward rules)."""
        config = self.config
        partition = self.partitions[index]
        expected = self.expected_improvement(index)
        conflict_p = min(
            0.95,
            config.conflict_base
            + config.conflict_per_ingest * partition.ingested_this_step,
        )
        self.total_compactions += 1
        if self._rng.random() < conflict_p:
            self.total_conflicts += 1
            return StepOutcome(
                compacted=False,
                conflict=True,
                reward=-(1.0 - expected),
                utilization=partition.utilization(config.block_size),
                query_cost=0.0,
            )
        before = partition.utilization(config.block_size)
        partition.files = _binpack_sizes(
            partition.files, config.target_file_size
        )
        partition.steps_since_compaction = 0
        after = partition.utilization(config.block_size)
        return StepOutcome(
            compacted=True,
            conflict=False,
            reward=after - before,
            utilization=after,
            query_cost=0.0,
        )

    def skip(self, index: int) -> StepOutcome:
        """No-op action: reward 0 (future utilization enters via gamma)."""
        partition = self.partitions[index]
        return StepOutcome(
            compacted=False,
            conflict=False,
            reward=0.0,
            utilization=partition.utilization(self.config.block_size),
            query_cost=0.0,
        )

    # --- observation helpers -----------------------------------------------------

    def global_utilization(self) -> float:
        sizes = [size for p in self.partitions for size in p.files]
        return block_utilization(sizes, self.config.block_size)


def _binpack_sizes(file_sizes: list[int], target: int) -> list[int]:
    """First-fit-decreasing binpack of file sizes into target-size files.

    This is the merge plan of the paper's binpack strategy [7]: small
    files are combined up to the target file size; files already at or
    above the target are left alone.
    """
    big = [size for size in file_sizes if size >= target]
    small = sorted(
        (size for size in file_sizes if size < target), reverse=True
    )
    bins: list[int] = []
    for size in small:
        for index, used in enumerate(bins):
            if used + size <= target:
                bins[index] = used + size
                break
        else:
            bins.append(size)
    return big + bins
