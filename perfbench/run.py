"""StreamLake benchmark: one command, four workloads, two kinds of metric.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (self times of each wrapped layer, layer counts and the
tracing overhead).  Every run checks the program's outputs and exits
non-zero if a check fails.  The last line of standard output is one JSON
object with the metrics named in ``BENCHMARK.json``; the lines before it
print every metric of the workload by name, with its unit, and the
environment.  ``--out FILE`` appends the full result record to FILE (JSON
lines) for comparison mode::

    python3 perfbench/run.py --compare base.jsonl new.jsonl [--workload W]

Wall metrics measure this Python program; sim metrics are read from the
simulated clock and measure the modelled StreamLake.  Settings live in
``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MiB = 1024 * 1024
HASH_SEED = "0"


def fingerprint(spec: dict) -> dict:
    """The environment every result records."""
    import numpy

    try:
        # the ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "executor_modes": spec["executor_modes"],
    }


def end_to_end(workload: str, passes: list, spec: dict) -> dict[str, float]:
    """The workload's end-to-end metrics from untraced passes.

    Rates and medians are medians over passes of each pass's value, so
    one pass slowed by a noisy neighbour moves them little; the 99th
    percentiles pool every pass's samples, so at least ten samples lie
    beyond them."""
    from workloads import percentile

    def per_pass(value) -> float:
        return statistics.median(value(p) for p in passes)

    def pooled(name: str, q: float) -> float:
        return percentile([x for p in passes for x in p.samples[name]], q)

    attempted = sum(p.attempted for p in passes)
    values = {
        "setup_s": per_pass(lambda p: p.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "failed_ratio": sum(p.failed for p in passes) / max(attempted, 1),
    }
    totals = passes[0].totals
    if "records" in totals:
        values["records_per_s"] = per_pass(
            lambda p: p.totals["records"] / p.wall_s)
        values["produce_wall_p50_ms"] = per_pass(
            lambda p: percentile(p.samples["produce_wall_ms"], 50))
        values["produce_wall_p99_ms"] = pooled("produce_wall_ms", 99)
    if totals.get("consume_wall_s"):
        values["consume_records_per_s"] = per_pass(
            lambda p: p.totals["consumed"] / p.totals["consume_wall_s"])
    if totals.get("queries"):
        values["queries_per_s"] = per_pass(
            lambda p: p.totals["queries"] / p.wall_s)
        values["query_wall_p50_ms"] = per_pass(
            lambda p: percentile(p.samples["query_wall_ms"], 50))
        values["query_wall_p99_ms"] = pooled("query_wall_ms", 99)
    values.update(passes[0].exact)
    return {name: values[name] for name, meta in spec["metrics"].items()
            if workload in meta["workloads"]}


def per_layer(passes: list, traced: list[int], tracer) -> dict[str, float]:
    """Per-layer metrics: mean self times over traced passes plus counts."""
    from tracing import SPAN_NAMES

    first = passes[traced[0]]
    _, calls, _ = tracer.self_times(*first.spans)
    metrics = {name: 0.0 for name in SPAN_NAMES}
    untraced = []
    for index in traced:
        result = passes[index]
        own, _, covered = tracer.self_times(*result.spans)
        for name in SPAN_NAMES:
            metrics[name] += own[name] / len(traced)
        untraced.append(result.wall_s - covered)
        # self times telescope: together they cover the top-level spans
        if abs(sum(own.values()) - covered) > 1e-6 * max(covered, 1.0):
            raise AssertionError(
                f"self times add up to {sum(own.values())} s, the spans "
                f"cover {covered} s")
    plain = [p.wall_s for i, p in enumerate(passes) if i not in traced]
    traced_walls = [passes[i].wall_s for i in traced]
    hooks = first.hook_counts
    user_bytes = first.layers["user_bytes"]
    metrics.update({
        name: value for name, value in first.layers.items()
        if name not in ("user_bytes", "table_bytes")
    })
    metrics.update({
        "trace.wall_s": statistics.mean(traced_walls),
        "trace.untraced_s": statistics.mean(untraced),
        "trace.overhead_ratio": statistics.median(traced_walls)
        / statistics.median(plain) - 1,
        "stream.route_key_calls": calls["stream.route_key_s"],
        "ec.decode_calls": calls["ec.decode_s"],
        "ec.encode_mib": hooks["ec.encode_bytes"] / MiB,
        "disk.bytes_written_per_user_byte":
            hooks["disk.bytes_written"] / user_bytes,
        "disk.busy_sim_s": hooks["disk.busy_sim_s"],
        "bus.bytes": hooks["bus.bytes"],
        "bus.transfer_sim_s": hooks["bus.transfer_sim_s"],
        "pool.degraded_read_sim_s": hooks["pool.degraded_read_sim_s"],
        "parallel.ingest_makespan_sim_s":
            hooks["parallel.ingest_makespan_sim_s"],
        "parallel.ingest_serial_sim_s": hooks["parallel.ingest_serial_sim_s"],
    })
    return metrics


def check_repeats(passes: list, traced: list[int]) -> None:
    """Sim metrics, counts and output digests must repeat on every pass."""
    from workloads import check

    first = passes[0]
    for index, result in enumerate(passes[1:], start=1):
        check(result.exact == first.exact,
              f"pass {index} sim metrics {result.exact} differ from pass 0 "
              f"{first.exact}")
        check(result.layers == first.layers,
              f"pass {index} layer counts differ from pass 0")
        check(not result.digest or not first.digest
              or result.digest == first.digest,
              f"pass {index} outputs differ from pass 0")
    for index in traced[1:]:
        check(passes[index].hook_counts == passes[traced[0]].hook_counts,
              f"traced pass {index} hook counts differ")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict):
    """Run passes until the timed phases add up to ``seconds``."""
    from tracing import Tracer
    from workloads import run_pass

    tracer = Tracer() if trace else None
    passes, traced = [], []
    min_passes = spec["run"]["min_passes"] + (1 if trace else 0)
    while (len(passes) < min_passes
           or sum(p.wall_s for p in passes) < seconds):
        verify = not passes
        if trace and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(workload, seed, tracer, verify))
            traced.append(len(passes) - 1)
        else:
            passes.append(run_pass(workload, seed, None, verify))
    check_repeats(passes, traced)
    return passes, traced, tracer


def emit(metrics: dict[str, float], units: dict[str, str], *,
         attempted: int, failed: int) -> None:
    """The result line: every metric BENCHMARK.json names, with its unit."""
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def pin_hash_seed() -> None:
    """Re-execute this process under a fixed string-hash seed.

    Set iteration order inside the program follows the hash seed, and on
    ``analytics`` it moves the chunk-cache hit count between two values;
    counts must repeat between runs of one seed.  ``execv`` replaces the
    process, so no second process exists."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def run(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import SPEC, WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = fingerprint(SPEC)
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; held-out seed "
          f"{SPEC['held_out_seed']}")
    print(f"# env {json.dumps(env)}")
    try:
        passes, traced, tracer = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), SPEC)
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    plain = [p for i, p in enumerate(passes) if i not in traced]
    e2e = end_to_end(args.workload, plain, SPEC)
    for index, result in enumerate(passes):
        print(f"# pass {index}{' (traced)' if index in traced else ''}: "
              f"setup {result.setup_s:.3f} s, timed {result.wall_s:.3f} s")
    print(f"# {len(passes)} passes ({len(traced)} traced), timed "
          f"{sum(p.wall_s for p in passes):.2f} s; output digest "
          f"{passes[0].digest or '-'}; checks passed")
    if "table_bytes" in passes[0].layers:
        workload = SPEC["workloads"]["analytics"]
        print(f"# compressed table {passes[0].layers['table_bytes']} B vs "
              f"block tier {workload['block_tier_bytes']} B; chunk tier "
              f"{workload['chunk_tier_bytes']} B")
    for name, value in e2e.items():
        meta = SPEC["metrics"][name]
        print(f"metric {name} {value:.6g} {meta['unit']} [{meta['kind']}]")
    layers = per_layer(passes, traced, tracer) if traced else {}
    for name, value in layers.items():
        print(f"layer {name} {value:.6g}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        values = layers
    else:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        aliases = SPEC["gated_metrics"]["aliases"]
        values = {name: e2e[aliases[name][args.workload]] for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "env": env,
        "digest": passes[0].digest, "end_to_end": e2e, "per_layer": layers,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    emit(values, units,
         attempted=sum(p.attempted for p in passes),
         failed=sum(p.failed for p in passes))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files written by --out")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, workload=args.workload, root=ROOT)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    pin_hash_seed()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
