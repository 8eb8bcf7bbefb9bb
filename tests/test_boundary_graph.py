import os
import random
import subprocess
import sys
from fractions import Fraction as Fr
from itertools import combinations
from pathlib import Path

import pytest
import reference_core as ref
from helpers import (
    COEFFS,
    random_balanced_seed,
    random_crepant_blowup,
    random_marked_seed,
    random_witness_fiber,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import boundary_graph as bg
from cypair import fixtures


def build(vs, es=(), mps=(), rho=1):
    return bg.BoundaryGraph.build(vs, es, mps, rho)


def product_intersection(u, v):
    """Intersection oracle on a product of two lines: (a,b).(c,d) = ad + bc."""
    return u[0] * v[1] + u[1] * v[0]


class TestValidateCy:
    def test_nodal_plane_cubic(self):
        g = build([("B", 9, 1, 1)])
        assert bg.validate_cy(g) == [("B", Fr(0))]

    def test_triangle_of_lines(self):
        g = fixtures.load_fixture("p2.triangle")
        assert all(r == 0 for _, r in bg.validate_cy(g))

    def test_half_coefficient_pair_on_a_product(self):
        # derive every number of the fixture from the product intersection form
        F, D = (0, 1), (2, 1)
        assert product_intersection(F, F) == 0
        assert product_intersection(D, D) == 4
        assert product_intersection(F, D) == 2
        assert product_intersection(D, D) == 4
        g = fixtures.load_fixture("ex64.pair")
        assert all(r == 0 for _, r in bg.validate_cy(g))

    def test_unbalanced_reported(self):
        g = build([("B", 9, 1, 0)])  # smooth plane cubic is not anticanonical-balanced
        assert bg.validate_cy(g) == [("B", Fr(-2))]


class TestBlowupCorner:
    def test_node_case_volume_five(self):
        g = build([("B", 5, 1, 1)])
        out = bg.blowup_corner(g, node="B")
        b, e = out.vertex("B"), out.vertex("E1")
        assert (b.self_int, b.nodes) == (Fr(1), 0)
        assert (e.self_int, e.coeff) == (Fr(-1), Fr(1))
        assert out.intersection("B", "E1") == 2
        assert out.picard_rank == 2

    def test_reduced_cycle_corner_keeps_complexity(self):
        g = fixtures.load_fixture("p2.triangle")
        out = bg.blowup_corner(g, edge=("L1", "L2"))
        assert out.vertex("E1").coeff == 1
        assert bg.complexity(out) == bg.complexity(g)
        assert out.intersection("L1", "L2") == 0
        assert out.vertex("L1").self_int == 0

    def test_half_coefficient_node(self):
        # residual 2*1 - 2 - s + s/2 vanishes at s = 0
        g = build([("C", 0, Fr(1, 2), 1)])
        assert bg.is_calabi_yau(g)
        out = bg.blowup_corner(g, node="C")
        assert out.vertex("E1").coeff == Fr(0)
        assert bg.is_calabi_yau(out)

    def test_missing_intersection(self):
        g = fixtures.load_fixture("p2.triangle")
        with pytest.raises(bg.NoSuchIntersection):
            bg.blowup_corner(g, node="L1")
        g2 = build([("A", 0, 1), ("B", 0, 1)])
        with pytest.raises(bg.NoSuchIntersection):
            bg.blowup_corner(g2, edge=("A", "B"))

    def test_marked_points_shield_their_crossings(self):
        g = fixtures.load_fixture("ex64.pair")
        # one of the two F-D1 crossings is free, the other sits at the
        # marked point; a second blow-up must be refused
        up = bg.blowup_corner(g, edge=("F", "D1"))
        assert bg.is_calabi_yau(up)
        with pytest.raises(bg.NoSuchIntersection):
            bg.blowup_corner(up, edge=("F", "D1"))

    def test_marked_points_sit_on_intersection_points(self):
        vs = [("A", 0, Fr(1, 2)), ("B", 0, Fr(1, 2)), ("C", 0, Fr(1, 2)), ("D", 0, Fr(1, 2))]
        # two branches that do not meet, and two marked points through A and B,
        # which meet once; a branch listed twice is one branch
        for es, mps in (
            ([("A", "B"), ("B", "C")], [("A", "B", "C")]),
            ([("A", "B"), ("B", "C"), ("A", "C"), ("A", "D"), ("B", "D")],
             [("A", "B", "C"), ("A", "B", "D")]),
            ([("A", "B")], [("A", "A", "C")]),
        ):
            with pytest.raises(bg.InvalidGraph, match="outnumber their intersection points"):
                build(vs, es, mps)
        g = build(vs, [("A", "B", 2), ("B", "C"), ("A", "C"), ("A", "D"), ("B", "D")],
                  [("A", "B", "C"), ("A", "B", "D")])
        assert len(g.marked_points) == 2
        assert build(vs, [("A", "C")], [("A", "A", "C")]).marked_points


class TestBlowupInterior:
    def test_coeff_one(self):
        g = build([("B", 9, 1, 1)])
        out = bg.blowup_interior(g, "B")
        assert out.vertex("E1").coeff == 0
        assert bg.complexity(out) == bg.complexity(g) + 1
        assert bg.is_calabi_yau(out)

    def test_coeff_zero_gives_sub_pair(self):
        g = build([("B", -2, 0, 0)])
        out = bg.blowup_interior(g, "B")
        assert out.vertex("E1").coeff == -1

    def test_missing_vertex(self):
        with pytest.raises(bg.NoSuchVertex):
            bg.blowup_interior(fixtures.load_fixture("p2.triangle"), "nope")


class TestBlowdown:
    def test_roundtrip_corner_edge(self):
        g = fixtures.load_fixture("p2.triangle")
        assert bg.blowdown(bg.blowup_corner(g, edge=("L1", "L3")), "E1") == g

    def test_roundtrip_corner_node(self):
        g = build([("B", 5, 1, 1)])
        assert bg.blowdown(bg.blowup_corner(g, node="B"), "E1") == g

    def test_roundtrip_interior(self):
        g = build([("B", 9, 1, 1)])
        assert bg.blowdown(bg.blowup_interior(g, "B"), "E1") == g

    def test_volume_four_contraction(self):
        out = bg.blowdown(fixtures.load_fixture("ex62.graph"), "C2")
        c1 = out.vertex("C1")
        assert (c1.self_int, c1.nodes) == (Fr(4), 1)
        assert out.picard_rank == 6

    def test_two_neighbours_gain_an_edge(self):
        g = build(
            [("C", -3, 1), ("Cp", -3, 1), ("E", -1, 1)],
            [("E", "C"), ("E", "Cp")],
            rho=3,
        )
        out = bg.blowdown(g, "E")
        assert out.intersection("C", "Cp") == 1
        assert out.vertex("C").self_int == -2
        assert out.vertex("Cp").self_int == -2

    def test_requires_minus_one(self):
        with pytest.raises(bg.NotMinusOneCurve):
            bg.blowdown(fixtures.load_fixture("p2.triangle"), "L1")

    def test_requires_no_nodes(self):
        g = build([("E", -1, 1, 1)])
        with pytest.raises(bg.VertexHasNodes):
            bg.blowdown(g, "E")

    def test_rank_one_refused(self):
        # contracting a curve would leave Picard rank zero
        g = build([("L", 1, 1), ("E", -1, 0)], [("L", "E")], rho=1)
        with pytest.raises(bg.InvalidGraph, match="^Picard rank must be positive$"):
            bg.blowdown(g, "E")

    def test_crepancy_predicate(self):
        g = fixtures.load_fixture("p2.triangle")
        up = bg.blowup_corner(g, edge=("L1", "L2"))
        assert bg.is_crepant_blowdown(up, "E1")
        skew = build(
            [("L", 1, 1), ("E", -1, Fr(1, 2))], [("L", "E")]
        )
        assert not bg.is_crepant_blowdown(skew, "E")  # crepant value would be 0


class TestComplexity:
    def test_examples(self):
        assert bg.complexity(build([("B", 9, 1, 1)])) == 2
        assert bg.complexity(fixtures.load_fixture("p2.triangle")) == 0
        assert bg.complexity(fixtures.load_fixture("ex64.pair")) == 2


class TestCoregularity:
    def test_nodal_coeff_one(self):
        assert bg.coregularity(build([("B", 9, 1, 1)])) == 0

    def test_marked_point_sum_two(self):
        assert bg.coregularity(fixtures.load_fixture("ex64.pair")) == 0

    def test_klt(self):
        g = build([("A", -4, Fr(1, 2)), ("B", -4, Fr(1, 2))], [("A", "B")])
        assert bg.coregularity(g) == 2

    def test_coeff_one_without_contact(self):
        g = build([("A", -2, 1), ("B", -8, Fr(1, 2))], [("A", "B", 2)])
        assert bg.coregularity(g) == 1

    def test_marked_point_above_two_rejected(self):
        g = build(
            [("A", 0, 1), ("B", 0, 1), ("C", 0, Fr(1, 2))],
            [("A", "B"), ("B", "C"), ("A", "C")],
            mps=[("A", "B", "C")],
        )
        with pytest.raises(bg.MarkedPointNotLC):
            bg.coregularity(g)

    def test_negative_coefficient_rejected(self):
        g = build([("A", -2, -1)])
        with pytest.raises(bg.InvalidCoefficient):
            bg.coregularity(g)


class TestIndexIntegral:
    def test_cases(self):
        assert bg.index_integral(fixtures.load_fixture("p2.triangle"))
        assert bg.index_integral(build([("A", -1, 0), ("B", 1, 1)], [("A", "B")]))
        assert not bg.index_integral(fixtures.load_fixture("ex64.pair"))


class TestResolveAnAtNode:
    def test_a1_on_cubic_volume_three(self):
        g = bg.resolve_An_at_node(3, 1)
        assert g.vertex("B").self_int == 1
        assert g.vertex("E1").self_int == -2
        assert g.intersection("B", "E1") == 2
        assert g.picard_rank == 2

    def test_balanced_for_many_parameters(self):
        for sq in (1, 2, 3, 6, 9):
            for n in (1, 2, 3, 5, 7):
                assert bg.is_calabi_yau(bg.resolve_An_at_node(sq, n))

    def test_iterated_blowdown_reaches_n_plus_one(self):
        g = bg.resolve_An_at_node(1, 5)
        for vid in ("B", "E1", "E2", "E3", "E4"):
            g = bg.blowdown(g, vid)
        (final,) = g.vertices
        assert (final.id, final.self_int, final.nodes) == ("E5", Fr(6), 1)


class TestContractChains:
    def test_single_minus_two(self):
        g = build([("B", 0, 1, 1), ("E", -2, 1)], [("B", "E", 2)], rho=2)
        res = bg.contract_minus2_chains(g)
        assert res.mark_ranks == [1]
        assert res.singular.vertex("B").self_int == Fr(2)  # 0 + 4 * (1/2)

    def test_figure_resolution_marks(self):
        res = bg.contract_minus2_chains(fixtures.load_fixture("fig9.A1A2A5"))
        assert res.mark_ranks == [1, 2, 5]
        assert res.singular.picard_rank == 1

    def test_minus_one_in_chain_rejected(self):
        g = build([("A", -2, 1), ("B", -1, 1)], [("A", "B")], rho=3)
        with pytest.raises(bg.NotMinusTwoChain):
            bg.contract_minus2_chains(g, chains=[["A", "B"]])

    def test_inverts_resolution(self):
        for sq in (1, 3, 5):
            for n in (1, 2, 4):
                g = bg.resolve_An_at_node(sq, n)
                res = bg.contract_minus2_chains(g)
                assert res.mark_ranks == [n]
                assert res.singular.vertex("B").self_int == Fr(sq)
                assert res.singular.picard_rank == g.picard_rank - n

    def test_mixed_coefficients_rejected(self):
        g = build([("A", -2, 1), ("B", -2, 0)], [("A", "B")], rho=3)
        with pytest.raises(bg.NotMinusTwoChain):
            bg.contract_minus2_chains(g, chains=[["A", "B"]])

    def test_minus_two_cycle_rejected(self):
        g = build(
            [("A", -2, 1), ("B", -2, 1), ("C", -2, 1)],
            [("A", "B"), ("B", "C"), ("A", "C")],
            rho=4,
        )
        with pytest.raises(bg.NotMinusTwoChain):
            bg.contract_minus2_chains(g)

    def test_branching_minus_two_rejected(self):
        g = build(
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0), ("D", -2, 0)],
            [("A", "B"), ("A", "C"), ("A", "D")],
            rho=5,
        )
        with pytest.raises(bg.NotMinusTwoChain):
            bg.contract_minus2_chains(g)

    def test_rational_correction_against_linear_solve(self):
        # independent oracle: the pull-back correction is v . x where x
        # solves M x = v for the chain intersection matrix M (diagonal 2,
        # off-diagonal -1, negated), computed here by Gaussian elimination
        def oracle_gain(k, vec):
            m = [[Fr(0)] * (k + 1) for _ in range(k)]
            for i in range(k):
                m[i][i] = Fr(2)
                if i + 1 < k:
                    m[i][i + 1] = m[i + 1][i] = Fr(-1)
                m[i][k] = Fr(vec[i])
            for col in range(k):
                piv = next(r for r in range(col, k) if m[r][col] != 0)
                m[col], m[piv] = m[piv], m[col]
                for r in range(k):
                    if r != col and m[r][col] != 0:
                        f = m[r][col] / m[col][col]
                        m[r] = [a - f * b for a, b in zip(m[r], m[col])]
            x = [m[i][k] / m[i][i] for i in range(k)]
            return sum(Fr(vec[i]) * x[i] for i in range(k))

        rng = random.Random(99)
        for k in range(1, 7):
            for _ in range(8):
                vec = [rng.randint(0, 2) for _ in range(k)]
                if not any(vec):
                    vec[0] = 1
                vs = [("C", 0, 0, 0)] + [(f"E{i}", -2, 0, 0) for i in range(1, k + 1)]
                es = [(f"E{i}", f"E{i+1}", 1) for i in range(1, k)]
                es += [("C", f"E{i+1}", vec[i]) for i in range(k) if vec[i]]
                g = build(vs, es, rho=k + 2)
                res = bg.contract_minus2_chains(g, chains=[[f"E{i}" for i in range(1, k + 1)]])
                assert res.singular.vertex("C").self_int == oracle_gain(k, vec), (k, vec)


class TestReducedVolume:
    def test_drops_by_m_squared(self):
        g = build([("B", 5, 1, 1)])
        assert bg.reduced_volume(g) == 5
        up = bg.blowup_corner(g, node="B")
        assert bg.reduced_volume(up, ["B"]) == 5 - 4
        g2 = build([("B", 9, 1, 1)])
        assert bg.reduced_volume(bg.blowup_interior(g2, "B"), ["B"]) == 9 - 1
        # an edge corner is also a double point of the reduced boundary
        tri = fixtures.load_fixture("p2.triangle")
        original = ["L1", "L2", "L3"]
        assert bg.reduced_volume(tri, original) == 9
        up2 = bg.blowup_corner(tri, edge=("L1", "L2"))
        assert bg.reduced_volume(up2, original) == 9 - 4

    def test_triangle(self):
        assert bg.reduced_volume(fixtures.load_fixture("p2.triangle")) == 9


class TestIsomorphism:
    def test_relabelled_graphs_match(self):
        g1 = fixtures.load_fixture("p2.triangle")
        g2 = build(
            [("X", 1, 1), ("Y", 1, 1), ("Z", 1, 1)],
            [("X", "Y"), ("Y", "Z"), ("X", "Z")],
        )
        assert bg.weighted_isomorphic(g1, g2)

    def test_weights_distinguish(self):
        g1 = build([("A", -1, 1), ("B", 0, 1)], [("A", "B")])
        g2 = build([("A", -1, 1), ("B", 1, 1)], [("A", "B")])
        assert not bg.weighted_isomorphic(g1, g2)

    def test_multiplicities_distinguish(self):
        g1 = build([("A", 0, 1), ("B", 0, 1)], [("A", "B", 1)])
        g2 = build([("A", 0, 1), ("B", 0, 1)], [("A", "B", 2)])
        assert not bg.weighted_isomorphic(g1, g2)

    def test_coefficients_optional(self):
        g1 = build([("A", 0, 1), ("B", 0, 1)], [("A", "B")])
        g2 = build([("A", 0, 0), ("B", 0, 1)], [("A", "B")])
        assert bg.weighted_isomorphic(g1, g2)
        assert not bg.weighted_isomorphic(g1, g2, with_coeff=True)


class TestJson:
    def test_roundtrip_all_graph_fixtures(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                g = fixtures.load_fixture(name)
                assert bg.graph_from_json(bg.graph_to_json(g)) == g

    def test_rational_strings(self):
        g = fixtures.load_fixture("ex64.pair")
        data = bg.graph_to_json(g)
        coeffs = {v["id"]: v["coeff"] for v in data["vertices"]}
        assert coeffs["D1"] == "1/2"

    @pytest.mark.parametrize("bad", [0.9, 1.0, "1", True, None])
    def test_counts_are_json_integers(self, bad):
        def spec(nodes=1, m=1, rho=1):
            return {"rho": rho, "vertices": [{"id": "L", "sq": 1, "nodes": nodes}, {"id": "M", "sq": 1}],
                    "edges": [{"a": "L", "b": "M", "m": m}]}

        g = bg.graph_from_json(spec())
        assert (g.vertex("L").nodes, g.edges[0].multiplicity, g.picard_rank) == (1, 1, 1)
        for field in ("nodes", "m", "rho"):
            with pytest.raises(bg.InvalidGraph, match=f"{field} must be an integer"):
                bg.graph_from_json(spec(**{field: bad}))

    @pytest.mark.parametrize("field, value, kind", [
        ("id", ["L"], "a string"), ("id", 1, "a string"), ("a", 1, "a string"),
        ("b", None, "a string"), ("branches", "LMN", "an array"), ("branch", 1, "a string"),
    ])
    def test_names_are_json_strings(self, field, value, kind):
        names = {"id": "L", "a": "L", "b": "M", "branches": ["L", "M", "N"], field: value}
        if field == "branch":
            names["branches"] = ["L", "M", value]
        spec = {
            "vertices": [{"id": names["id"], "sq": 1}, {"id": "M", "sq": 1}, {"id": "N", "sq": 1}],
            "edges": [{"a": names["a"], "b": names["b"]}, {"a": "L", "b": "N"},
                      {"a": "M", "b": "N"}],
            "marked_points": [{"branches": names["branches"]}],
        }
        with pytest.raises(bg.InvalidGraph, match=f"^malformed graph JSON: {field} must be {kind}"):
            bg.graph_from_json(spec)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_crepant_blowups_preserve_balance(seed, steps):
    rng = random.Random(seed)
    g = random_balanced_seed(rng)
    assert bg.is_calabi_yau(g)
    for _ in range(steps):
        before = g
        g, eid = random_crepant_blowup(rng, g)
        assert bg.is_calabi_yau(g)
        assert bg.blowdown(g, eid) == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 3))
def test_marked_point_blowups_round_trip(seed, steps):
    rng = random.Random(seed)
    g = random_marked_seed(rng)
    assert bg.is_calabi_yau(g)
    for step in range(steps + 1):
        eid = f"X{step}"
        allowed = []
        for e in g.edges:
            at_marked = sum(1 for p in g.marked_points if {e.a, e.b} <= set(p.branches))
            if e.multiplicity > at_marked:
                allowed.append(bg.blowup_corner(g, edge=(e.a, e.b), new_id=eid))
            else:
                with pytest.raises(bg.NoSuchIntersection):
                    bg.blowup_corner(g, edge=(e.a, e.b), new_id=eid)
        allowed += [bg.blowup_corner(g, node=v.id, new_id=eid) for v in g.vertices if v.nodes]
        allowed += [bg.blowup_interior(g, v.id, new_id=eid) for v in g.vertices]
        for up in allowed:
            assert up.marked_points == g.marked_points
            assert bg.is_calabi_yau(up)
            assert bg.blowdown(up, eid) == g
        g = rng.choice(allowed)
    # a smooth (-1)-curve through a marked point still cannot be contracted
    branch = rng.choice(g.marked_points[0].branches)
    vs = [bg.CurveVertex(v.id, Fr(-1), v.coeff, 0) if v.id == branch else v for v in g.vertices]
    with pytest.raises(bg.InvalidGraph):
        bg.blowdown(build(vs, g.edges, g.marked_points, g.picard_rank), branch)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_corner_blowup_never_raises_coregularity(seed):
    rng = random.Random(seed)
    g = random_balanced_seed(rng)
    # restrict to corners whose exceptional coefficient stays in [0, 1]:
    # blow-ups below that are sub-pair extractions where coregularity is
    # not defined
    targets = [
        ("edge", (e.a, e.b))
        for e in g.edges
        if g.vertex(e.a).coeff + g.vertex(e.b).coeff >= 1
    ]
    targets += [
        ("node", v.id) for v in g.vertices if v.nodes >= 1 and 2 * v.coeff >= 1
    ]
    if not targets:
        return
    kind, tgt = rng.choice(targets)
    out = (
        bg.blowup_corner(g, edge=tgt) if kind == "edge" else bg.blowup_corner(g, node=tgt)
    )
    assert bg.coregularity(out) <= bg.coregularity(g)


# -- fast paths against the reference implementation ---------------------------

SQ_NUDGES = (Fr(1), Fr(-1), Fr(1, 2), Fr(-1, 3), Fr(2, 5))


def _contracted_chain(rng: random.Random) -> bg.BoundaryGraph:
    """A singular model with non-integral self-intersections: a sub-chain of
    an A_n resolution contracted by ``contract_minus2_chains``."""
    n = rng.randint(1, 5)
    g = bg.resolve_An_at_node(rng.randint(-2, 9), n, base_rank=rng.randint(1, 2))
    i = rng.randint(1, n)
    j = rng.randint(i, n)
    return bg.contract_minus2_chains(g, [[f"E{k}" for k in range(i, j + 1)]]).singular


def _variants(rng: random.Random, g: bg.BoundaryGraph) -> list[bg.BoundaryGraph]:
    """g; g with one self-intersection or coefficient nudged, which mostly
    unbalances it; g at Picard rank one; g with its integral fields stored
    as ``int``, as a CurveVertex passed straight to ``build`` keeps them."""
    v = rng.choice(g.vertices)
    if rng.randrange(2):
        nudged = bg.CurveVertex(v.id, v.self_int + rng.choice(SQ_NUDGES), v.coeff, v.nodes)
    else:
        nudged = bg.CurveVertex(v.id, v.self_int, v.coeff - rng.choice(COEFFS[1:]), v.nodes)
    as_int = [
        bg.CurveVertex(w.id, int(w.self_int), int(w.coeff), w.nodes)
        if w.self_int.denominator == 1 and w.coeff.denominator == 1
        else w
        for w in g.vertices
    ]
    return [
        g,
        build([nudged if w.id == v.id else w for w in g.vertices], g.edges, g.marked_points,
              g.picard_rank),
        build(g.vertices, g.edges, g.marked_points, 1),
        build(as_int, g.edges, g.marked_points, g.picard_rank),
    ]


def _same_outcome(fast, slow, *args, **kwargs):
    """Run both; they must return the same repr or raise the same error.
    Returns the result, or the error for a refused input."""
    try:
        want = slow(*args, **kwargs)
    except bg.GraphError as exc:
        with pytest.raises(bg.GraphError) as got:
            fast(*args, **kwargs)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc)), args
        return got.value
    out = fast(*args, **kwargs)
    assert repr(out) == repr(want), args
    return out


def _check_against_reference(g: bg.BoundaryGraph) -> list:
    """Every fast path on g against the reference; returns what came out."""
    residuals = ref.validate_cy(g)
    assert repr(bg.validate_cy(g)) == repr(residuals)
    assert bg.is_calabi_yau(g) == all(r == 0 for _, r in residuals)
    used = g.vertices[0].id
    calls = [
        (bg.blowup_corner, ref.blowup_corner, (g,), {}),
        (bg.blowup_corner, ref.blowup_corner, (g,), {"edge": (used, "nowhere")}),
        (bg.blowup_corner, ref.blowup_corner, (g,), {"node": used, "new_id": used}),
        (bg.blowup_interior, ref.blowup_interior, (g, used), {"new_id": used}),
    ]
    for e in g.edges:
        for edge, new_id in (((e.a, e.b), None), ((e.b, e.a), "X"), ((e.a, e.b), used)):
            calls.append((bg.blowup_corner, ref.blowup_corner, (g,),
                          {"edge": edge, "new_id": new_id}))
    for vid in g.ids() + ["nowhere"]:
        calls.append((bg.blowup_corner, ref.blowup_corner, (g,), {"node": vid, "new_id": "X"}))
        calls.append((bg.blowup_interior, ref.blowup_interior, (g, vid), {}))
        calls.append((bg.blowdown, ref.blowdown, (g, vid), {}))
        calls.append((bg.is_crepant_blowdown, ref.is_crepant_blowdown, (g, vid), {}))
    outcomes = []
    for fast, slow, args, kwargs in calls:
        out = _same_outcome(fast, slow, *args, **kwargs)
        outcomes.append(out)
        if isinstance(out, bg.BoundaryGraph):
            assert out == build(out.vertices, out.edges, out.marked_points, out.picard_rank)
            if fast is not bg.blowdown:
                new = kwargs.get("new_id") or ref._fresh_id(g)
                assert _same_outcome(bg.blowdown, ref.blowdown, out, new) == g
    return outcomes


class TestFastPathsMatchReference:
    def test_graph_fixtures(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                _check_against_reference(fixtures.load_fixture(name))

    def test_random_graphs(self):
        rng = random.Random(20241019)
        sources = (random_balanced_seed, random_marked_seed, random_witness_fiber,
                   _contracted_chain)
        balanced = set()
        refusals = set()
        for i in range(100):
            for g in _variants(rng, sources[i % len(sources)](rng)):
                balanced.add(bg.is_calabi_yau(g))
                for out in _check_against_reference(g):
                    if isinstance(out, bg.GraphError):
                        refusals.add(str(out))
        assert balanced == {True, False}
        for phrase in ("lies at a marked point", "already in use", "not -1",
                       "Picard rank must be positive", "appears in a marked point"):
            assert any(phrase in message for message in refusals), phrase

    def test_int_fields(self):
        g = build([bg.CurveVertex("A", 1, 1, 1), bg.CurveVertex("B", -2, 0)], [("A", "B")], rho=2)
        assert bg.validate_cy(g) == ref.validate_cy(g) == [("A", Fr(0)), ("B", Fr(1))]
        assert not bg.is_calabi_yau(g)
        assert bg.is_calabi_yau(build([bg.CurveVertex("A", 9, 1, 1)]))

    def test_large_graphs(self):
        # the graphs of long surgery sequences: seeds grown past 20 vertices
        rng = random.Random(20261018)
        balanced, seen = set(), set()
        for i in range(16):
            g = (random_balanced_seed, _contracted_chain)[i % 2](rng)
            for _ in range(20):
                g, _ = random_crepant_blowup(rng, g)
            assert len(g.vertices) > 20
            # denominators that only the last vertex, past the twentieth, carries
            last = g.vertices[-1]
            tail = bg.CurveVertex(
                last.id, last.self_int + Fr(2, 5), last.coeff - Fr(1, 7), last.nodes
            )
            tail_nudged = build(g.vertices[:-1] + (tail,), g.edges, g.marked_points, g.picard_rank)
            for h in _variants(rng, g) + [tail_nudged]:
                residuals = ref.validate_cy(h)
                assert repr(bg.validate_cy(h)) == repr(residuals)
                cy = bg.is_calabi_yau(h)
                assert cy == all(r == 0 for _, r in residuals)
                balanced.add(cy)
                for v in h.vertices:
                    seen.add("int fields" if type(v.self_int) is int else "Fraction fields")
                    if v.coeff.denominator > 1:
                        seen.add("non-integral coefficient")
                    if v.self_int.denominator > 1:
                        seen.add("non-integral self-intersection")
        assert balanced == {True, False}
        assert seen == {"int fields", "Fraction fields", "non-integral coefficient",
                        "non-integral self-intersection"}


_RSS_PROBE = """
import random

from cypair import boundary_graph as bg
from helpers import random_balanced_seed

rng = random.Random(7)
sequences = [(random_balanced_seed(rng), [rng.randrange(1 << 30) for _ in range(24)])
             for _ in range(40)]


def one_pass():
    for g, choices in sequences:
        for step, r in enumerate(choices):
            moves = [("edge", e) for e in g.edges] + [("interior", v.id) for v in g.vertices]
            kind, target = moves[r % len(moves)]
            eid = f"X{step}"
            if kind == "edge":
                up = bg.blowup_corner(g, edge=(target.a, target.b), new_id=eid)
            else:
                up = bg.blowup_interior(g, target, new_id=eid)
            assert bg.is_calabi_yau(up) and bg.blowdown(up, eid) == g
            g = up


def peak_rss_kib():
    # VmHWM is the peak of this process's own address space; ru_maxrss also
    # keeps the peak of the process that forked this one, here pytest's
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


one_pass()
before = peak_rss_kib()
for _ in range(15):
    one_pass()
print(peak_rss_kib() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_repeated_surgery_passes_keep_rss_flat():
    """Repeated passes of blow-ups, Calabi-Yau tests and blow-downs on
    graphs growing past 20 vertices keep no memory, so after a warm-up
    pass the peak RSS of a fresh process must stay flat."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    growth_kib = int(proc.stdout)
    assert growth_kib < 1.5 * 1024, f"peak RSS grew by {growth_kib / 1024:.2f} MB over 15 passes"


def _random_chain_graph(rng: random.Random):
    """A graph with 1-3 chains of (-2)-curves and 1-4 other curves meeting
    them, and a ``chains`` argument for it: None, the true chains (some
    reversed or left out), or a list that must be refused.  Sometimes a
    chain gets a chord, is closed into a cycle or has a mixed coefficient."""
    vs, es, chains = [], [], []
    for n in range(rng.randint(1, 3)):
        chain = [f"C{n}{i}" for i in range(rng.randint(1, 5))]
        coeff = rng.choice(COEFFS)
        vs += [(c, -2, coeff) for c in chain]
        es += [(a, b) for a, b in zip(chain, chain[1:])]
        if len(chain) >= 3 and rng.random() < 0.1:
            es.append((chain[0], chain[rng.randint(2, len(chain) - 1)]))  # a chord or a cycle
        if len(chain) >= 2 and rng.random() < 0.1:
            vs[-1] = rng.choice([(chain[-1], -2, coeff - Fr(1, 4)), (chain[-1], -2, coeff, 1)])
        chains.append(chain)
    survivors = [f"S{j}" for j in range(rng.randint(1, 4))]
    for s in survivors:
        sq = rng.choice([-4, -3, -1, 0, 1, 3, 6, Fr(7, 2), Fr(-4, 3)])
        if rng.random() < 0.05:
            sq = -2  # joins a neighbouring chain when chains are not given
        vs.append((s, sq, rng.choice(COEFFS), rng.randint(0, 1)))
        for chain in chains:
            # several curves of one chain, some with multiplicity 2 or 3
            for c in rng.sample(chain, rng.randint(0, min(3, len(chain)))):
                es.append((s, c, rng.choice([1, 1, 2, 3])))
    for a, b in combinations(survivors, 2):
        if rng.random() < 0.4:
            es.append((a, b, rng.randint(1, 2)))
    # a marked point only on three curves that pairwise meet
    met = {frozenset(e[:2]) for e in es}
    triangles = [
        t for t in combinations([v[0] for v in vs], 3)
        if all(frozenset(pair) in met for pair in combinations(t, 2))
    ]
    mps = [rng.choice(triangles)] if triangles and rng.random() < 0.3 else []
    rho = len(vs) + rng.randint(-1, 2)
    mode = rng.choice((0, 0, 1, 1, 2, 3, 4, 5))
    if mode == 0:
        arg = None
    elif mode == 1:
        arg = [c[::-1] if rng.randrange(2) else c for c in chains]
    elif mode == 2:
        arg = rng.sample(chains, rng.randint(1, len(chains)))
    elif mode == 3:
        arg = chains + [rng.choice(chains)[-1:]]  # overlap
    elif mode == 4:
        arg = [chains[0] + [rng.choice(survivors)]]  # a curve that is not a (-2)-curve, mostly
    else:
        arg = [chains[0][:1] * 2] if rng.randrange(2) else [[], chains[0]]
    return build(vs, es, mps, max(rho, 1)), arg


class TestContractChainsMatchesReference:
    def test_graph_fixtures(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                g = fixtures.load_fixture(name)
                _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)

    def test_random_graphs(self):
        rng = random.Random(20260518)
        refusals = set()
        seen = set()
        marked = 0
        for _ in range(1500):
            g, chains = _random_chain_graph(rng)
            marked += bool(g.marked_points)
            out = _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g, chains)
            if isinstance(out, bg.GraphError):
                refusals.add(str(out))
                continue
            seen.add("explicit" if chains is not None else "all")
            for chain in bg._minus2_components(g) if chains is None else chains:
                for v in out.singular.vertices:
                    vec = [g.intersection(v.id, c) for c in chain]
                    if max(vec) >= 2:
                        seen.add("multiplicity")
                    if sum(1 for m in vec if m) >= 2:
                        seen.add("several curves")
            if any(v.self_int.denominator > 1 for v in out.singular.vertices):
                seen.add("non-integral")
        assert seen == {"explicit", "all", "multiplicity", "several curves", "non-integral"}
        for phrase in ("chains overlap", "chain has a chord", "form a cycle", "simple path",
                       "coefficients differ", "not -2", "carries nodes", "distinct vertices",
                       "Picard rank must be positive"):
            assert any(phrase in message for message in refusals), phrase
        assert marked
