"""Exact rational I/O helpers.

All arithmetic in this package is exact: quantities are ``int`` or
``fractions.Fraction``, never floats.  On the wire, rationals are JSON
integers or strings of the form ``"p/q"``.

An integral rational is held as an ``int`` and any other as a
``Fraction`` with denominator above 1: ``as_rational`` returns that form,
and the value types that store rationals (``CurveVertex``,
``FiberComponent``, ``FiberSpec``) normalize to it.  An ``int`` and the
equal ``Fraction`` compare and hash equal, and ``rational_to_json``
prints them alike; only their reprs differ (``-2`` against
``Fraction(-2, 1)``).
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value) -> int | Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational:
    an ``int`` when integral, else a ``Fraction``.  A bool is refused."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, str):
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    else:
        raise ValueError(f"not a rational: {value!r}")
    return q.numerator if q.denominator == 1 else q


def rational_to_json(q: int | Fraction):
    """Emit an int when integral, else a ``"p/q"`` string."""
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"
