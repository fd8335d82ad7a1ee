"""Computation pushdown (Sections V-B, VII-A).

"The three filters in the WHERE clause and the COUNT aggregate ... are
pushed down to compute in StreamLake, so as to accelerate the query."

Predicates and aggregates execute at the storage side, so only final
results cross the bus to the compute engine instead of raw rows.
:func:`execute_pushdown` / :func:`execute_pushdown_multi` evaluate
aggregates row-at-a-time over already-filtered rows; they are kept as
the equivalence oracle (matching the repo's ``scan_rows`` /
``run_cycle_rows`` pattern) for the vectorized aggregation engine in
:mod:`repro.table.agg`, which production queries use instead.

NULL semantics follow SQL: ``COUNT(*)`` counts every row, while
``COUNT(column)`` and ``AVG`` skip NULLs — the accumulator tracks row
and non-null counts separately.
"""

from __future__ import annotations

from dataclasses import dataclass


_AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregate function with optional GROUP BY columns.

    ``COUNT`` with ``column=None`` is COUNT(*) (counts every row);
    ``COUNT`` with a column counts only that column's non-null values.
    """

    function: str
    column: str | None = None
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.function not in _AGG_FUNCTIONS:
            raise ValueError(
                f"unsupported aggregate {self.function!r}; "
                f"use one of {_AGG_FUNCTIONS}"
            )
        if self.function != "COUNT" and not self.column:
            raise ValueError(f"{self.function} requires a column")

    def columns(self) -> set[str]:
        needed = set(self.group_by)
        if self.column:
            needed.add(self.column)
        return needed


def result_labels(specs: list[AggregateSpec]) -> list[str]:
    """Result-row keys for a list of aggregates.

    A single aggregate keeps the bare function name as its key (the
    original pushdown shape, e.g. ``{"COUNT": 3}``); multiple aggregates
    get ``FUNCTION(column)`` keys, deduplicated with a numeric suffix so
    every spec owns a distinct output column.
    """
    if len(specs) == 1:
        return [specs[0].function]
    labels = []
    seen: dict[str, int] = {}
    for spec in specs:
        base = f"{spec.function}({spec.column or '*'})"
        ordinal = seen.get(base, 0) + 1
        seen[base] = ordinal
        labels.append(base if ordinal == 1 else f"{base}_{ordinal}")
    return labels


@dataclass
class _Accumulator:
    rows: int = 0    # every input row (COUNT(*))
    count: int = 0   # non-null values (COUNT(column), AVG denominator)
    total: float = 0.0
    minimum: object = None
    maximum: object = None

    def add(self, value: object) -> None:
        self.rows += 1
        if value is None:
            return
        self.count += 1
        if isinstance(value, (int, float)):
            self.total += value
        if self.minimum is None or value < self.minimum:  # type: ignore[operator]
            self.minimum = value
        if self.maximum is None or value > self.maximum:  # type: ignore[operator]
            self.maximum = value

    def result(self, function: str, column: str | None) -> object:
        if function == "COUNT":
            return self.rows if column is None else self.count
        if function == "SUM":
            return self.total
        if function == "AVG":
            return self.total / self.count if self.count else None
        if function == "MIN":
            return self.minimum
        return self.maximum


def execute_pushdown_multi(rows: list[dict[str, object]],
                           specs: list[AggregateSpec],
                           labels: list[str] | None = None
                           ) -> list[dict[str, object]]:
    """Evaluate one or more aggregates sharing a GROUP BY, row-wise.

    Returns one result row per group, shaped like
    ``{*group_by, label_0: value_0, label_1: value_1, ...}`` with labels
    from :func:`result_labels` unless given explicitly.
    """
    if not specs:
        raise ValueError("at least one aggregate is required")
    group_by = specs[0].group_by
    for spec in specs[1:]:
        if spec.group_by != group_by:
            raise ValueError(
                "aggregates in one query must share GROUP BY columns"
            )
    labels = labels if labels is not None else result_labels(specs)
    groups: dict[tuple, list[_Accumulator]] = {}
    for row in rows:
        group_key = tuple(row.get(column) for column in group_by)
        accumulators = groups.get(group_key)
        if accumulators is None:
            accumulators = groups[group_key] = [
                _Accumulator() for _ in specs
            ]
        for spec, accumulator in zip(specs, accumulators):
            accumulator.add(row.get(spec.column) if spec.column else 1)
    if not groups and not group_by:
        groups[()] = [_Accumulator() for _ in specs]
    out = []
    for group_key in sorted(groups, key=repr):
        result_row: dict[str, object] = dict(zip(group_by, group_key))
        for spec, label, accumulator in zip(specs, labels, groups[group_key]):
            result_row[label] = accumulator.result(spec.function, spec.column)
        out.append(result_row)
    return out


def execute_pushdown(rows: list[dict[str, object]],
                     aggregate: AggregateSpec) -> list[dict[str, object]]:
    """Aggregate filtered rows storage-side (single-aggregate form).

    Returns one result row per group (a single row when there is no
    GROUP BY), shaped like ``{*group_by, aggregate.function: value}``.
    """
    return execute_pushdown_multi(rows, [aggregate], [aggregate.function])


def result_size_bytes(rows: list[dict[str, object]]) -> int:
    """Approximate wire size of a result set crossing the bus."""
    return sum(
        sum(len(str(value)) + 8 for value in row.values()) for row in rows
    )
