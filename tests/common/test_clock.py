"""Unit tests for the simulated clock."""

import pytest

from repro.common.clock import SimClock


def test_starts_at_zero():
    assert SimClock().now == 0.0


def test_custom_start():
    assert SimClock(5.0).now == 5.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(2.5)
    assert clock.now == 4.0


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance(-0.1)


def test_advance_to_future():
    clock = SimClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_past_is_noop():
    clock = SimClock(10.0)
    clock.advance_to(3.0)
    assert clock.now == 10.0


def test_reset():
    clock = SimClock()
    clock.advance(7.0)
    clock.reset()
    assert clock.now == 0.0
