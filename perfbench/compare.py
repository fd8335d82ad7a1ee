"""Comparison mode: two result sets, one verdict per workload x metric.

A result set is a file of JSON lines written by ``run.py --out``.  For
each workload and each end-to-end metric it reports ``better``,
``worse``, ``unchanged`` or ``unresolved``:

* sim metrics and counts are deterministic per seed, so runs are paired
  by seed and compared exactly: any difference is a real change;
* wall metrics compare medians against the metric's bound (from
  ``BENCHMARK.json`` through the alias map in ``spec.json``, else from
  ``spec.json``'s ``wall_bounds``).  When the base runs spread wider than
  the bound the verdict is ``unresolved``, unless every new run beats
  (or loses to) every base run.  A gain also needs the new side to win
  at least nine tenths of the seed pairs and to move by more than the
  base's own spread.

It then prints the per-layer medians of the traced runs side by side.
Returns 1 when any metric got worse, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: str) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def wall_verdict(base: dict[int, float], new: dict[int, float],
                 lower_better: bool, bound: float) -> str:
    sign = 1.0 if lower_better else -1.0
    # scores: lower is better whichever way the metric points
    old_scores = {seed: sign * value for seed, value in base.items()}
    new_scores = {seed: sign * value for seed, value in new.items()}
    old_median = statistics.median(base.values())
    # positive = worse, as a share of the base median
    change = (statistics.median(new_scores.values())
              - statistics.median(old_scores.values())) / abs(old_median)
    if max(new_scores.values()) < min(old_scores.values()):
        return "better"
    if (min(new_scores.values()) > max(old_scores.values())
            and change > bound):
        return "worse"
    base_spread = spread(list(base.values()))
    if base_spread > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(new_scores[s] < old_scores[s] for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and -change > base_spread:
        return "better"
    return "unchanged"


def exact_verdict(base: dict[int, float], new: dict[int, float],
                  lower_better: bool) -> str:
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return "unresolved"
    if all(base[s] == new[s] for s in seeds):
        return "unchanged"
    sign = 1.0 if lower_better else -1.0
    change = sum(sign * (new[s] - base[s]) for s in seeds)
    return "worse" if change > 0 else "better"


def _by_seed(runs: list[dict], metric: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for run in runs:
        out.setdefault(run["seed"], run["end_to_end"][metric])
    return out


def compare(base_path: str, new_path: str, workload: str | None = None,
            root: Path | None = None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    root = root if root is not None else HERE.parent
    contract = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    aliases = spec["gated_metrics"]["aliases"]
    base, new = load(base_path), load(new_path)
    names = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    if workload is not None:
        names = [name for name in names if name == workload]
    worse = False
    for name in names:
        old_runs = [r for r in base if r["workload"] == name and not r["trace"]]
        new_runs = [r for r in new if r["workload"] == name and not r["trace"]]
        print(f"== {name}: {len(old_runs)} base runs, {len(new_runs)} new runs")
        if old_runs and new_runs:
            print(f"{'metric':28s} {'base':>12s} {'new':>12s} {'change':>8s}"
                  "  verdict")
        for metric, meta in spec["metrics"].items():
            if name not in meta["workloads"] or not old_runs or not new_runs:
                continue
            old, now = _by_seed(old_runs, metric), _by_seed(new_runs, metric)
            lower_better = meta["better"] == "lower"
            if meta["kind"] == "wall":
                bound = next(
                    (bounds[alias] for alias, per in aliases.items()
                     if per[name] == metric),
                    spec["wall_bounds"]["bounds"].get(metric),
                )
                verdict = wall_verdict(old, now, lower_better, bound)
            else:
                verdict = exact_verdict(old, now, lower_better)
            worse |= verdict == "worse"
            old_median = statistics.median(old.values())
            new_median = statistics.median(now.values())
            change = ((new_median - old_median) / abs(old_median)
                      if old_median else 0.0)
            print(f"{metric:28s} {old_median:12.6g} {new_median:12.6g} "
                  f"{change:+8.2%}  {verdict}")
        old_traced = [r for r in base if r["workload"] == name and r["trace"]]
        new_traced = [r for r in new if r["workload"] == name and r["trace"]]
        if old_traced and new_traced:
            print(f"-- per-layer medians ({len(old_traced)} vs "
                  f"{len(new_traced)} traced runs)")
            for layer in old_traced[0]["per_layer"]:
                old_median = statistics.median(
                    r["per_layer"][layer] for r in old_traced)
                new_median = statistics.median(
                    r["per_layer"].get(layer, float("nan"))
                    for r in new_traced)
                change = ((new_median - old_median) / abs(old_median)
                          if old_median else 0.0)
                print(f"{layer:36s} {old_median:12.6g} {new_median:12.6g} "
                      f"{change:+8.2%}")
    return 1 if worse else 0
