"""Time units and conversions for the simulation kernel.

All simulated time in this project is carried as **integer nanoseconds**.
Integers keep the discrete-event kernel fully deterministic: there is no
floating-point accumulation error when the kernel adds delays, and event
ordering is exact. Protocol code converts to floating-point seconds only at
the measurement/analysis boundary.

The constants here are the only place where the nanosecond convention is
encoded; all other modules import them instead of hard-coding powers of ten.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: One nanosecond (the kernel's base tick).
NANOSECOND: int = 1
#: One microsecond in nanoseconds.
MICROSECOND: int = 1_000
#: One millisecond in nanoseconds.
MILLISECOND: int = 1_000_000
#: One second in nanoseconds.
SECOND: int = 1_000_000_000
#: One minute in nanoseconds.
MINUTE: int = 60 * SECOND
#: One hour in nanoseconds.
HOUR: int = 60 * MINUTE


def seconds(value: float) -> int:
    """Convert a duration in seconds to integer nanoseconds (rounded)."""
    return round(value * SECOND)


def milliseconds(value: float) -> int:
    """Convert a duration in milliseconds to integer nanoseconds (rounded)."""
    return round(value * MILLISECOND)


def microseconds(value: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds (rounded)."""
    return round(value * MICROSECOND)


def to_seconds(value_ns: int) -> float:
    """Convert integer nanoseconds to floating-point seconds."""
    return value_ns / SECOND


def to_milliseconds(value_ns: int) -> float:
    """Convert integer nanoseconds to floating-point milliseconds."""
    return value_ns / MILLISECOND


def exact_in(value_ns: int, unit: int) -> float:
    """``value_ns`` as a float count of ``unit`` that specs turn back into
    exactly ``value_ns`` (they truncate ``value * unit``); an error if none does."""
    value = value_ns / unit
    for candidate in (value, math.nextafter(value, math.inf)):
        if int(candidate * unit) == value_ns:
            return candidate
    raise ConfigurationError(f"{value_ns} ns has no exact value in units of {unit} ns")


def format_duration(value_ns: int) -> str:
    """Render a nanosecond duration in a human-friendly unit.

    Picks the largest unit in which the duration is at least one, e.g.
    ``format_duration(1_590_000_000) == '1.590s'``.
    """
    sign = "-" if value_ns < 0 else ""
    magnitude = abs(value_ns)
    if magnitude >= HOUR:
        return f"{sign}{magnitude / HOUR:.3f}h"
    if magnitude >= MINUTE:
        return f"{sign}{magnitude / MINUTE:.3f}min"
    if magnitude >= SECOND:
        return f"{sign}{magnitude / SECOND:.3f}s"
    if magnitude >= MILLISECOND:
        return f"{sign}{magnitude / MILLISECOND:.3f}ms"
    if magnitude >= MICROSECOND:
        return f"{sign}{magnitude / MICROSECOND:.3f}us"
    return f"{sign}{magnitude}ns"
