"""Exact rational I/O helpers, and the one wire-type rule.

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

Every other typed field of a spec obeys one rule, ``typed``: a JSON
integer is an ``int`` and not a ``bool``, a flag is a ``bool``, and
nothing is coerced.  It leaves out ``gdp_atlas.parse_singularities``, as
the decision layer imports no other module; the boundary's ``k`` and the
fan rays, whose ``int()`` errors the ``perfbench`` digests record; and
checks with messages of another shape (an ``--apply`` script that is not
an array, the ``blowup_corner`` edge, the witness's multiplicities).
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


_PHRASE = {int: "an integer", str: "a string", list: "an array", dict: "an object",
           bool: "true or false"}


def typed(value, kind: type, label: str, error: type[Exception] = TypeError):
    """``value`` if its type is exactly ``kind``, so a ``bool`` is no ``int``; else ``error``."""
    if type(value) is not kind:
        raise error(f"{label} must be {_PHRASE[kind]}, got {value!r}")
    return value


def rational_to_json(q: int | Fraction):
    """Emit an int when integral, else a ``"p/q"`` string."""
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"
