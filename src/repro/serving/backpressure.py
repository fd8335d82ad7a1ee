"""Producer backpressure from sealed-slice conversion lag.

The reunion path (Section V-B) trails ingestion: sealed slices wait in
the store layer until a conversion cycle folds them into table row
groups.  If producers outrun the converter indefinitely, that backlog —
the *sealed-slice lag* — grows without bound, and with ``delete_msg``
retention the store holds every unconverted slice.  Backpressure closes
the loop: each stream's lag (sealed slices at or past the conversion
frontier) maps to a throttle signal in [0, 1] that first *delays*
producers (a ramp between the low and high water marks) and finally
*refuses* writes whose projected lag would break the high-water bound
(:class:`~repro.errors.BackpressureThrottledError`), so the lag
invariant ``lag <= high_water`` holds under any fault schedule — the
property the hypothesis machine in ``tests/serving`` pins.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common import stats
from repro.errors import BackpressureThrottledError
from repro.stream.object import StreamObject
from repro.stream.records import RECORDS_PER_SLICE


def sealed_lag(obj: StreamObject, converted_upto: int) -> int:
    """Sealed slices of ``obj`` not yet consumed by the converter.

    ``converted_upto`` is the converter's frontier offset for this
    stream (:meth:`repro.table.conversion.StreamTableConverter.
    positions`); a slice counts as lagging unless *all* its records are
    below the frontier.  Sealed slices are sorted by start offset, so
    one bisection finds the boundary.
    """
    slices = obj.sealed_slices()
    if not slices:
        return 0
    # first slice whose records are not fully converted: slices[i] lags
    # iff start + count > converted_upto; starts are ascending and
    # counts vary, but slices are disjoint and ordered, so the boundary
    # is where start >= converted_upto, adjusted for a partial slice
    index = bisect_right(slices, converted_upto - 1,
                         key=lambda entry: entry[0])
    # the slice before the boundary may still straddle the frontier
    if index > 0:
        start, count, _ = slices[index - 1]
        if start + count > converted_upto:
            index -= 1
    return len(slices) - index


class Backpressure:
    """Per-stream throttle signal derived from sealed-slice lag."""

    def __init__(self, high_water_slices: int = 64,
                 low_water_fraction: float = 0.5,
                 max_throttle_delay_s: float = 0.05) -> None:
        if high_water_slices < 1:
            raise ValueError(
                f"high_water_slices must be >= 1, got {high_water_slices!r}"
            )
        if not 0.0 <= low_water_fraction < 1.0:
            raise ValueError(
                f"low_water_fraction must be in [0, 1), got "
                f"{low_water_fraction!r}"
            )
        if max_throttle_delay_s < 0:
            raise ValueError("max_throttle_delay_s must be >= 0")
        self.high_water_slices = high_water_slices
        self.low_water_slices = int(high_water_slices * low_water_fraction)
        self.max_throttle_delay_s = max_throttle_delay_s
        self._lag: dict[str, int] = {}

    # --- signal -------------------------------------------------------------

    def observe(self, stream_id: str, lag_slices: int) -> None:
        """Record a stream's current sealed-slice lag."""
        if lag_slices < 0:
            raise ValueError(f"negative lag {lag_slices!r}")
        self._lag[stream_id] = lag_slices

    def lag_of(self, stream_id: str) -> int:
        return self._lag.get(stream_id, 0)

    def signal(self, stream_id: str) -> float:
        """Throttle strength in [0, 1]: 0 below the low-water mark,
        linear ramp to 1.0 at the high-water mark."""
        lag = self.lag_of(stream_id)
        if lag <= self.low_water_slices:
            return 0.0
        span = self.high_water_slices - self.low_water_slices
        return min(1.0, (lag - self.low_water_slices) / span)

    # --- enforcement --------------------------------------------------------

    def throttle(self, stream_id: str, incoming_records: int) -> float:
        """Gate a produce of ``incoming_records`` onto ``stream_id``.

        Returns the throttle delay (seconds) the producer must absorb;
        raises :class:`BackpressureThrottledError` when the write's
        projected lag would exceed the high-water mark.  The projection
        is conservative: every incoming record is assumed to seal
        (ceil(n / records-per-slice) new slices on top of current lag).
        """
        lag = self.lag_of(stream_id)
        projected = lag + -(-incoming_records // RECORDS_PER_SLICE)
        serving = stats.serving_stats()
        if projected > self.high_water_slices:
            serving.throttle_events += 1
            raise BackpressureThrottledError(
                f"stream {stream_id!r} conversion backlog at {lag} sealed "
                f"slices; {incoming_records} more records would reach "
                f"{projected} > high water {self.high_water_slices}",
                lag_slices=projected,
                high_water_slices=self.high_water_slices,
            )
        delay = self.signal(stream_id) * self.max_throttle_delay_s
        if delay > 0:
            serving.throttle_events += 1
            serving.throttle_delay_s += delay
        return delay
