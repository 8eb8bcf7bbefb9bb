"""Integral rationals are stored as ``int``, the rest as ``Fraction``.

Random surgery sequences must keep that form in every field, and return
what ``reference_core`` returns; random graph and fiber JSON must parse
to it, whichever wire form a rational takes, and keep each field's type
through a round trip.
"""

import random
import re
from fractions import Fraction

import pytest
import reference_core as ref
from helpers import random_balanced_seed, random_marked_seed, random_witness_fiber
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair.rationals import as_rational


def canonical(x) -> bool:
    """An ``int``, or a ``Fraction`` that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(g: bg.BoundaryGraph) -> None:
    for v in g.vertices:
        assert canonical(v.self_int) and canonical(v.coeff), v


def field_types(g: bg.BoundaryGraph) -> list:
    return [(type(v.self_int), type(v.coeff)) for v in g.vertices]


# -- surgery -------------------------------------------------------------------

SEEDS = (random_balanced_seed, random_marked_seed, random_witness_fiber)
OPS = ("corner", "interior", "blowdown", "contract")


def _call(rng: random.Random, g: bg.BoundaryGraph, op: str):
    """(fast, slow, args, kwargs) of one random operation of kind ``op``."""
    vid = rng.choice(g.ids())
    if op == "corner":
        targets = [{"edge": (e.a, e.b)} for e in g.edges]
        targets += [{"node": v.id} for v in g.vertices if v.nodes]
        kwargs = rng.choice(targets) if targets else {"node": vid}
        return bg.blowup_corner, ref.blowup_corner, (g,), kwargs
    if op == "interior":
        return bg.blowup_interior, ref.blowup_interior, (g, vid), {}
    if op == "blowdown":
        minus_one = [v.id for v in g.vertices if v.self_int == -1]
        return bg.blowdown, ref.blowdown, (g, rng.choice(minus_one or [vid])), {}
    return bg.contract_minus2_chains, ref.contract_minus2_chains, (g,), {}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.lists(st.sampled_from(OPS), max_size=10))
def test_surgery_keeps_the_canonical_form(seed, ops):
    rng = random.Random(seed)
    g = SEEDS[seed % len(SEEDS)](rng)
    assert_canonical(g)
    for op in ops:
        fast, slow, args, kwargs = _call(rng, g, op)
        try:
            want = slow(*args, **kwargs)
        except bg.GraphError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                fast(*args, **kwargs)
            continue
        got = fast(*args, **kwargs)
        assert got == want and repr(got) == repr(want)
        if isinstance(got, bg.ChainContraction):
            got = got.singular
        assert_canonical(got)
        if not got.vertices:
            return
        g = got


@pytest.mark.parametrize("coeffs", [
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)),
])
def test_corner_of_two_fractional_coefficients_is_an_int(coeffs):
    # b_a + b_b - 1 of two non-integral Fractions is integral
    b1, b2 = coeffs
    g = bg.BoundaryGraph.build([("C1", -1, b1), ("C2", -1, b2)], [("C1", "C2")], rho=2)
    up = bg.blowup_corner(g, edge=("C1", "C2"))
    assert type(up.vertex("E1").coeff) is int
    assert_canonical(up)


def test_contraction_with_an_integral_correction_is_an_int():
    # an A1 chain adds 1/2 per meeting point: two points add 1
    g = bg.BoundaryGraph.build([("B", 3, 1, 0), ("E1", -2, 1, 0)], [("B", "E1", 2)], rho=2)
    singular = bg.contract_minus2_chains(g).singular
    assert singular.vertex("B").self_int == 5
    assert_canonical(singular)


# -- wire input ----------------------------------------------------------------


FORMS = st.sampled_from(("p/q", "fraction", "int", "str"))


@st.composite
def rationals(draw, low=-30, high=30):
    """(wire or library value, its exact value), the value in [low, high]:
    a ``"p/q"`` string (integral when q divides p), a Fraction, a JSON
    integer or an integral string."""
    q = draw(st.integers(1, 6))
    p = draw(st.integers(low * q, high * q))
    form = draw(FORMS)
    if form == "p/q":
        return f"{p}/{q}", Fraction(p, q)
    if form == "fraction":
        return Fraction(p, q), Fraction(p, q)
    n = p // q
    return (n if form == "int" else str(n)), Fraction(n)


@st.composite
def graph_json(draw):
    n = draw(st.integers(1, 4))
    ids = [f"C{i}" for i in range(n)]
    vertices, values = [], []
    for vid in ids:
        sq, sq_value = draw(rationals())
        coeff, coeff_value = draw(rationals(-2, 1))
        vertices.append({"id": vid, "sq": sq, "coeff": coeff, "nodes": draw(st.integers(0, 1))})
        values.append((vid, sq_value, coeff_value))
    edges = [{"a": a, "b": b, "m": draw(st.integers(1, 2))} for a, b in zip(ids, ids[1:])]
    return {"rho": draw(st.integers(1, 4)), "vertices": vertices, "edges": edges}, values


@settings(max_examples=150, deadline=None)
@given(graph_json())
def test_graph_json_parses_to_the_canonical_form(spec):
    data, values = spec
    g = bg.graph_from_json(data)
    assert_canonical(g)
    assert [(v.id, v.self_int, v.coeff) for v in g.vertices] == sorted(values)
    again = bg.graph_from_json(bg.graph_to_json(g))
    assert again == g and field_types(again) == field_types(g)


@st.composite
def fiber_json(draw):
    rank = draw(st.integers(1, 2))
    comps = [draw(rationals()) for _ in range(rank)]
    volume, volume_value = draw(rationals(1, 30))
    present = draw(st.booleans())
    data = {
        "rank": rank,
        "components": [{"sq": sq, "irreducible": draw(st.booleans())} for sq, _ in comps],
        "node": {"present": present, "at": "smooth"},
        "volume": volume,
    }
    return data, [value for _, value in comps], volume_value


@settings(max_examples=150, deadline=None)
@given(fiber_json())
def test_fiber_json_parses_to_the_canonical_form(spec):
    data, sq_values, volume_value = spec
    f = fc.fiber_from_json(data)
    fields = [c.self_int for c in f.components] + [f.volume]
    assert all(map(canonical, fields))
    assert fields == sq_values + [volume_value]
    again = fc.fiber_from_json(fc.fiber_to_json(f))
    assert again == f
    assert [type(x) for x in fields] == [
        type(x) for x in [c.self_int for c in again.components] + [again.volume]
    ]
    if f.rel_picard_rank == 1 and f.has_node:
        reduced = fc.node_blowup_reduce(f)
        assert all(canonical(c.self_int) for c in reduced.components)


@pytest.mark.parametrize("value, want", [
    (3, 3), ("3", 3), ("6/3", 2), ("-4/1", -4), ("0/5", 0), (Fraction(8, 4), 2),
    ("1/2", Fraction(1, 2)), ("-6/4", Fraction(-3, 2)), (Fraction(5, 3), Fraction(5, 3)),
])
def test_as_rational_returns_the_canonical_form(value, want):
    got = as_rational(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value", [True, False, 1.0, None, "x", "1/0"])
def test_as_rational_refuses(value):
    with pytest.raises(ValueError, match="^not a rational: "):
        as_rational(value)
