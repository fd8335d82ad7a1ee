"""Elastic serverless function engine (Section III).

"The elastic serverless function engine can be regarded as a lightweight
computation platform to serve the above components" — StreamLake's
background services (stream-to-table conversion, archiving, tiering
migration, compaction, remote replication) all run as functions on it.

Functions register with a trigger — a fixed period, a condition callable,
or both — and the engine's :meth:`~FunctionEngine.tick` runs whatever is
due, elastically growing its worker slots when a tick has more due work
than slots (and shrinking back when idle).  Each invocation's simulated
cost is taken from the function's return value when it returns a number,
so storage-side work done inside a function is accounted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.clock import SimClock

#: engine bookkeeping per invocation (dispatch + sandbox entry)
DISPATCH_OVERHEAD_S = 2e-3


@dataclass
class FunctionSpec:
    """One registered function."""

    name: str
    handler: Callable[[], object]
    period_s: float | None = None
    condition: Callable[[], bool] | None = None
    last_run_at: float | None = None

    def due(self, now: float) -> bool:
        periodic_due = (
            self.period_s is not None
            and (self.last_run_at is None
                 or now - self.last_run_at >= self.period_s)
        )
        condition_due = self.condition is not None and self.condition()
        if self.period_s is None and self.condition is None:
            return False  # manual-only function
        if self.period_s is not None and self.condition is not None:
            return periodic_due and condition_due
        return periodic_due or condition_due


@dataclass
class Invocation:
    """Record of one function run."""

    name: str
    started_at: float
    sim_seconds: float
    result: object
    failed: bool = False
    error: str = ""


class FunctionEngine:
    """Registers functions, runs due ones per tick, scales slots."""

    def __init__(self, clock: SimClock, initial_slots: int = 2,
                 max_slots: int = 16) -> None:
        if initial_slots < 1 or max_slots < initial_slots:
            raise ValueError("need 1 <= initial_slots <= max_slots")
        self._clock = clock
        self._functions: dict[str, FunctionSpec] = {}
        self.slots = initial_slots
        self.max_slots = max_slots
        self.history: list[Invocation] = []
        self.scale_events = 0

    # --- registration -------------------------------------------------------

    def register(self, name: str, handler: Callable[[], object],
                 period_s: float | None = None,
                 condition: Callable[[], bool] | None = None) -> FunctionSpec:
        """Register; a function may be periodic, conditional, or both
        (both = run on the period only while the condition holds)."""
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        spec = FunctionSpec(name=name, handler=handler, period_s=period_s,
                            condition=condition)
        self._functions[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        if name not in self._functions:
            raise KeyError(f"no function {name!r}")
        del self._functions[name]

    def functions(self) -> list[str]:
        return sorted(self._functions)

    # --- execution ---------------------------------------------------------------

    def invoke(self, name: str) -> Invocation:
        """Run one function immediately (manual trigger)."""
        spec = self._functions.get(name)
        if spec is None:
            raise KeyError(f"no function {name!r}")
        return self._run(spec)

    def _run(self, spec: FunctionSpec) -> Invocation:
        started = self._clock.now
        try:
            result = spec.handler()
            failed, error = False, ""
        except Exception as exc:  # functions must not kill the engine
            result, failed, error = None, True, repr(exc)
        cost = DISPATCH_OVERHEAD_S
        if isinstance(result, (int, float)) and not isinstance(result, bool):
            cost += float(result)
        invocation = Invocation(
            name=spec.name, started_at=started, sim_seconds=cost,
            result=result, failed=failed, error=error,
        )
        spec.last_run_at = started
        self._clock.advance(DISPATCH_OVERHEAD_S)
        self.history.append(invocation)
        return invocation

    def tick(self) -> list[Invocation]:
        """Run every due function, scaling slots elastically.

        Due functions beyond the current slot count still run this tick
        (they queue), but the engine grows toward the demand so the next
        burst is absorbed; an idle tick shrinks one slot.
        """
        due = [
            spec for spec in self._functions.values()
            if spec.due(self._clock.now)
        ]
        if len(due) > self.slots and self.slots < self.max_slots:
            self.slots = min(self.max_slots, len(due))
            self.scale_events += 1
        elif not due and self.slots > 1:
            self.slots -= 1
        return [self._run(spec) for spec in due]

    def run_for(self, duration_s: float, tick_every_s: float
                ) -> list[Invocation]:
        """Drive the engine over a simulated span (tests/benches)."""
        if tick_every_s <= 0:
            raise ValueError("tick interval must be positive")
        invocations: list[Invocation] = []
        deadline = self._clock.now + duration_s
        while self._clock.now < deadline:
            invocations.extend(self.tick())
            self._clock.advance(tick_every_s)
        return invocations
