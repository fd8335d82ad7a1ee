"""Durability bench: rebuild throughput and the degraded-read penalty.

Two scenarios over an RS(4+2) pool on 8 simulated NVMe disks:

* **rebuild**: crash one disk under a populated pool, then drain the
  background :class:`~repro.storage.rebuild.RebuildQueue` and measure
  reconstruction throughput (logical MB restored per simulated second
  and per wall second) until the pool reports full redundancy again;
* **degraded reads**: read the full data set clean, then with one and
  with two fragments lost per extent — the paper's EC tolerance regime —
  verifying byte-identical results and measuring the reconstruction
  penalty (wall time, since GF(2^8) decode is real CPU in this repro).

Each phase's simulated time is read from what that phase returns — the
rebuild report's ``sim_seconds``, the summed costs of a scan's
``pool.fetch`` calls — so no phase inherits another's (or the preload's)
charges.  A degraded scan must cost at least the sim time of a clean one.

Results land in ``BENCH_recovery.json`` with an ``env`` block (commit,
Python/NumPy versions, cores available) so a changed number can be told
apart from a changed machine; ``--smoke`` shrinks the data set for CI's
chaos-smoke job.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import ResultTable
from repro.common import stats
from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.rebuild import RebuildQueue
from repro.storage.redundancy import erasure_coding_policy

NUM_EXTENTS = 64
EXTENT_BYTES = 1 << 20
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_recovery.json"


def _environment() -> dict:
    """Where the numbers were measured: commit, versions, cores."""
    root = RESULT_PATH.parent
    try:
        # "-dirty" marks a run from a working tree with uncommitted edits;
        # the ceiling keeps git from answering for an enclosing repository
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=root, capture_output=True, text=True, timeout=30, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores_available": len(os.sched_getaffinity(0)),
    }


def _build_pool(num_extents: int, extent_bytes: int):
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    bus = DataBus(clock, aggregate_small_io=False)
    payloads = {}
    for index in range(num_extents):
        payload = bytes([(index + j) % 251 for j in range(256)]) * (
            extent_bytes // 256)
        pool.store(f"e{index}", payload)
        payloads[f"e{index}"] = payload
    return clock, pool, bus, payloads


def _bench_rebuild(num_extents: int, extent_bytes: int) -> dict:
    clock, pool, bus, payloads = _build_pool(num_extents, extent_bytes)
    stats.fault_stats().reset()
    victim = pool.disks[0]
    victim.fail()
    queue = RebuildQueue(pool, bus, clock, op_timeout_s=120.0)
    degraded = queue.scan_and_enqueue()

    wall_before = time.perf_counter()
    report = queue.run()
    wall_s = time.perf_counter() - wall_before
    sim_s = report.sim_seconds

    if not pool.fully_redundant:
        raise AssertionError("rebuild did not restore full redundancy")
    if report.gave_up or report.unrecoverable:
        raise AssertionError(f"rebuild failed: {report}")
    for extent_id, expected in payloads.items():
        data, _ = pool.fetch(extent_id)
        if data != expected:
            raise AssertionError(f"extent {extent_id} corrupted by rebuild")
    restored_mb = report.rebuilt_extents * extent_bytes / 1e6
    return {
        "degraded_extents": degraded,
        "rebuilt_extents": report.rebuilt_extents,
        "rebuilt_fragments": report.rebuilt_fragments,
        "restored_logical_mb": restored_mb,
        "sim_seconds": sim_s,
        "wall_seconds": wall_s,
        "rebuild_mb_per_sim_s": restored_mb / sim_s if sim_s else 0.0,
        "rebuild_mb_per_wall_s": restored_mb / wall_s,
    }


def _timed_scan(pool, payloads) -> tuple[float, float]:
    """Read every extent back to back, verifying bytes; returns (sim s,
    wall s), the sim time being the sum of the fetches' costs."""
    sim_s = 0.0
    wall_before = time.perf_counter()
    for extent_id, expected in payloads.items():
        data, cost = pool.fetch(extent_id)
        if data != expected:
            raise AssertionError(f"read of {extent_id} not byte-identical")
        sim_s += cost
    return sim_s, time.perf_counter() - wall_before


def _bench_degraded_reads(num_extents: int, extent_bytes: int) -> dict:
    clock, pool, bus, payloads = _build_pool(num_extents, extent_bytes)
    stats.fault_stats().reset()
    clean_sim, clean_wall = _timed_scan(pool, payloads)

    for extent_id in payloads:
        pool.erase_fragment(extent_id, 0)
    one_sim, one_wall = _timed_scan(pool, payloads)

    for extent_id in payloads:
        pool.corrupt_fragment(extent_id, 3)
    two_sim, two_wall = _timed_scan(pool, payloads)

    faults = stats.fault_stats()
    if faults.degraded_reads < 2 * num_extents:
        raise AssertionError("degraded scans were not actually degraded")
    if not clean_sim <= one_sim <= two_sim:
        raise AssertionError(
            f"losing fragments made the scan cheaper: {clean_sim:.6f} clean, "
            f"{one_sim:.6f} one lost, {two_sim:.6f} two lost sim-s")
    total_mb = num_extents * extent_bytes / 1e6
    return {
        "scanned_mb": total_mb,
        "clean_wall_s": clean_wall,
        "one_lost_wall_s": one_wall,
        "two_lost_wall_s": two_wall,
        "clean_sim_s": clean_sim,
        "one_lost_sim_s": one_sim,
        "two_lost_sim_s": two_sim,
        "penalty_one_lost": one_wall / clean_wall,
        "penalty_two_lost": two_wall / clean_wall,
        "degraded_reads": faults.degraded_reads,
        "fragments_reconstructed": faults.fragments_reconstructed,
    }


def run_recovery_bench(num_extents: int = NUM_EXTENTS,
                       extent_bytes: int = EXTENT_BYTES,
                       result_path: Path | None = RESULT_PATH) -> dict:
    rebuild = _bench_rebuild(num_extents, extent_bytes)
    degraded = _bench_degraded_reads(num_extents, extent_bytes)
    results = {
        "env": _environment(),
        "num_extents": num_extents,
        "extent_bytes": extent_bytes,
        "policy": "RS(4+2) over 8 NVMe disks",
        "rebuild": rebuild,
        "degraded_reads": degraded,
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {result_path}")

    table = ResultTable(
        "Recovery: rebuild throughput and degraded-read penalty",
        ["scenario", "MB", "sim s", "wall s", "MB/wall-s"],
    )
    table.add_row(
        "rebuild after disk crash",
        f"{rebuild['restored_logical_mb']:.0f}",
        f"{rebuild['sim_seconds']:.4f}",
        f"{rebuild['wall_seconds']:.3f}",
        f"{rebuild['rebuild_mb_per_wall_s']:.0f}",
    )
    for label, key in (
        ("scan, no loss", "clean"),
        ("scan, 1 fragment lost", "one_lost"),
        ("scan, 2 fragments lost", "two_lost"),
    ):
        wall = degraded[f"{key}_wall_s"]
        table.add_row(
            label, f"{degraded['scanned_mb']:.0f}",
            f"{degraded[f'{key}_sim_s']:.4f}",
            f"{wall:.3f}", f"{degraded['scanned_mb'] / wall:.0f}",
        )
    table.show()
    print(
        f"degraded-read penalty: {degraded['penalty_one_lost']:.2f}x with "
        f"one fragment lost, {degraded['penalty_two_lost']:.2f}x with two"
    )
    return results


def test_recovery_bench(benchmark) -> None:
    from conftest import run_once

    results = run_once(
        benchmark,
        lambda: run_recovery_bench(num_extents=16, result_path=None),
    )
    assert results["rebuild"]["rebuilt_fragments"] > 0
    assert results["degraded_reads"]["degraded_reads"] > 0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_recovery_bench(num_extents=16 if smoke else NUM_EXTENTS)
    if outcome["rebuild"]["rebuilt_fragments"] == 0:
        raise SystemExit("rebuild bench reconstructed nothing")
