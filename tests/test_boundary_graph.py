import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Fr
from itertools import combinations
from operator import attrgetter
from pathlib import Path

import pytest
import reference_core as ref
from helpers import (
    COEFFS,
    WITNESS_SQS,
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

    def test_neighbours_that_meet_gain_more_points(self):
        g = build(
            [("C", -3, 1), ("Cp", -3, 1), ("E", -1, 1)],
            [("E", "C", 2), ("E", "Cp"), ("C", "Cp")],
            rho=3,
        )
        out = bg.blowdown(g, "E")
        assert out.intersection("C", "Cp") == 1 + 2 * 1
        assert out.vertex("C") == ("C", 1, 1, 1)
        assert out.vertex("Cp") == ("Cp", -2, 1, 0)

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

    def test_int_sum_matches_the_fraction_sum(self):
        # the coefficients summed as they are stored, against the sum
        # started at Fraction(0); both are Fractions, integral or not
        def fraction_sum(g):
            return Fr(2 + g.picard_rank) - sum((v.coeff for v in g.vertices), Fr(0))

        graphs = [
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        ]
        rng = random.Random(20261019)
        for _ in range(100):
            g = random_balanced_seed(rng)
            for _ in range(rng.randint(0, 4)):
                g, _ = random_crepant_blowup(rng, g)
            graphs += [g, _random_chain_graph(rng)]
        integral = set()
        for g in graphs:
            got = bg.complexity(g)
            assert type(got) is Fr
            assert got == fraction_sum(g), g
            integral.add(got.denominator == 1)
        assert integral == {True, False}


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

    def test_chain_neighbours_meet_once(self):
        # the chain C-B-A-D, walked from its smaller end C: A and D meet twice
        g = build([(c, -2, 1) for c in "ABCD"], [("A", "B"), ("B", "C"), ("A", "D", 2)], rho=4)
        with pytest.raises(bg.NotMinusTwoChain, match="^'A' and 'D' are not chain neighbours$"):
            bg.contract_minus2_chains(g)
        _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)

    def test_inverts_resolution(self):
        for sq in (1, 3, 5):
            for n in (1, 2, 4):
                g = bg.resolve_An_at_node(sq, n)
                res = bg.contract_minus2_chains(g)
                assert res.mark_ranks == [n]
                assert res.singular.vertex("B").self_int == Fr(sq)
                assert res.singular.picard_rank == g.picard_rank - n

    def test_every_shape_is_checked_before_any_chain(self):
        # A's node comes first in id order, but the later cycle X-Y-Z is refused;
        # with a path X-Y-Z, A's node is refused before the double link A-B
        twos = [("A", -2, 1, 1), ("X", -2, 1), ("Y", -2, 1), ("Z", -2, 1)]
        path = [("X", "Y"), ("Y", "Z")]
        for vs, es, message in [
            (twos, path + [("X", "Z")], "(-2)-curves ['X', 'Y', 'Z'] form a cycle, not a chain"),
            (twos + [("B", -2, 1)], path + [("A", "B", 2)], "'A' carries nodes"),
        ]:
            g = build(vs, es, rho=len(vs) + 1)
            out = _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)
            assert isinstance(out, bg.NotMinusTwoChain) and str(out) == message

    def test_mixed_coefficients_rejected(self):
        g = build([("A", -2, 1), ("B", -2, 0)], [("A", "B")], rho=3)
        with pytest.raises(bg.NotMinusTwoChain, match="^chain coefficients differ$"):
            bg.contract_minus2_chains(g)
        _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)

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
                res = bg.contract_minus2_chains(g)
                assert res.singular.vertex("C").self_int == oracle_gain(k, vec), (k, vec)


class TestReducedVolume:
    """The reduced volume, the square of the sum of the given curves each
    once, as ``divisor_square`` with every multiplicity one."""

    def test_drops_by_m_squared(self):
        g = build([("B", 5, 1, 1)])
        assert bg.divisor_square(g, {"B": 1}) == 5
        up = bg.blowup_corner(g, node="B")
        assert bg.divisor_square(up, {"B": 1}) == 5 - 4
        g2 = build([("B", 9, 1, 1)])
        assert bg.divisor_square(bg.blowup_interior(g2, "B"), {"B": 1}) == 9 - 1
        # an edge corner is also a double point of the reduced boundary
        tri = fixtures.load_fixture("p2.triangle")
        original = dict.fromkeys(["L1", "L2", "L3"], 1)
        assert bg.divisor_square(tri, original) == 9
        up2 = bg.blowup_corner(tri, edge=("L1", "L2"))
        assert bg.divisor_square(up2, original) == 9 - 4

    def test_triangle(self):
        tri = fixtures.load_fixture("p2.triangle")
        reduced = {v.id: 1 for v in tri.vertices if v.coeff == 1}
        assert bg.divisor_square(tri, reduced) == 9


def _iso_labels(g: bg.BoundaryGraph) -> list:
    """The labels ``weighted_isomorphic`` matches."""
    return sorted((v.self_int, v.nodes) for v in g.vertices)


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

    def test_fixture_pairs(self):
        # each graph fixture matches a relabelled copy of itself and no other
        # fixture; the early size check stops most pairs, some of them with
        # equal labels, which the matching would otherwise search
        graphs = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
                  if fixtures.fixture_kind(name) == "graph"]
        sizes, twins = 0, 0
        for g1 in graphs:
            new = {vid: f"R{k}" for k, vid in enumerate(reversed(g1.ids()))}
            copy = build([(new[v.id], *v[1:]) for v in g1.vertices],
                         [(new[e.a], new[e.b], e.multiplicity) for e in g1.edges],
                         (), g1.picard_rank)
            assert bg.weighted_isomorphic(g1, copy)
            for g2 in graphs:
                if (len(g1.vertices), len(g1.edges)) != (len(g2.vertices), len(g2.edges)):
                    sizes += 1
                    twins += _iso_labels(g1) == _iso_labels(g2)
                assert bg.weighted_isomorphic(g1, g2) == (g1 is g2)
        assert sizes and twins


class TestLookups:
    def test_has_vertex_and_edges_at_scan_the_graph(self):
        # nothing else calls these two; they stay public until they are deleted
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                g = fixtures.load_fixture(name)
                for v in g.vertices:
                    assert g.has_vertex(v.id)
                    assert g.edges_at(v.id) == [e for e in g.edges if v.id in (e.a, e.b)]
                assert not g.has_vertex("X0")
                assert g.edges_at("X0") == []


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

    @pytest.mark.parametrize("bad", [1.9, 1.0, Fr(1), "1", True, None])
    def test_build_refuses_non_integer_counts(self, bad):
        # refused, not truncated: 1.9 nodes must not build a graph with one
        def counts(nodes=1, m=1, rho=1):
            return [("L", 1, 1, nodes), ("M", 1, 1)], [("L", "M", m)], (), rho

        g = build(*counts())
        assert (g.vertex("L").nodes, g.edges[0].multiplicity, g.picard_rank) == (1, 1, 1)
        for field, key in (("nodes", "nodes"), ("multiplicity", "m"), ("rho", "rho")):
            message = f"^{field} must be an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(bg.InvalidGraph, match=message):
                build(*counts(**{key: bad}))

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


class TestBuild:
    def test_stored_graphs_build_to_themselves(self):
        # as values, and as plain tuples with every edge given the other
        # way round and the vertices in reverse order
        rng = random.Random(20261019)
        graphs = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
                  if fixtures.fixture_kind(name) == "graph"]
        graphs += [random_balanced_seed(rng) for _ in range(40)]
        graphs += [random_marked_seed(rng) for _ in range(40)]
        assert any(g.marked_points for g in graphs) and any(len(g.edges) > 2 for g in graphs)
        for g in graphs:
            again = build(g.vertices, g.edges, g.marked_points, g.picard_rank)
            plain = build(
                [tuple(v) for v in reversed(g.vertices)],
                [(e.b, e.a, e.multiplicity) for e in g.edges],
                [p.branches for p in g.marked_points],
                g.picard_rank,
            )
            for h in (again, plain):
                assert h == g and repr(h) == repr(g)

    def test_the_first_bad_edge_decides_the_error(self):
        with pytest.raises(bg.InvalidGraph, match="^edge A-Z references a missing vertex$"):
            build([("A", 0, 1)], [("A", "Z"), ("A", "A")])

    @pytest.mark.parametrize("rho", [0, -1])
    def test_rank_must_be_positive(self, rho):
        with pytest.raises(bg.InvalidGraph, match="^Picard rank must be positive$"):
            build([("A", 0, 1)], rho=rho)

    @pytest.mark.parametrize("es", [[("A", "B"), ("A", "B", 2)], [("A", "B"), ("B", "A")]])
    def test_duplicate_edges_are_refused(self, es):
        with pytest.raises(bg.InvalidGraph, match="^duplicate edge; merge multiplicities"):
            build([("A", 0, 1), ("B", 0, 1)], es)

    @pytest.mark.parametrize("vs, es, message", [
        ([("A", 0, 1, 0, "junk"), ("B", 0, 1)], [("A", "B", 1)], "vertex A has 5 fields, not 3 or 4"),
        ([("A", 0, 1), ("B", 0, 1)], [("A", "B", 1, "x")], "edge A-B has 4 fields, not 2 or 3"),
    ])
    def test_longer_tuples_are_refused(self, vs, es, message):
        with pytest.raises(bg.InvalidGraph, match=f"^{message}$"):
            build(vs, es)

    @pytest.mark.parametrize("vs, es, message", [
        ([("A", 0), ("B", 0, 1)], [("A", "B")], "vertex A has 2 fields, not 3 or 4"),
        ([("A", 0, 1), ("B", 0, 1)], [("A",)], "edge A has 1 fields, not 2 or 3"),
    ])
    def test_shorter_tuples_are_refused(self, vs, es, message):
        with pytest.raises(bg.InvalidGraph, match=f"^{message}$"):
            build(vs, es)

    def test_a_string_marked_point_is_refused(self):
        vs = [("A", 0, 1), ("B", 0, 1), ("C", 0, 1)]
        es = [("A", "B"), ("A", "C"), ("B", "C")]
        with pytest.raises(bg.InvalidGraph, match="^marked point 'ABC' is a string, not a branch"):
            build(vs, es, ["ABC"])
        want = (bg.MarkedPoint(("A", "B", "C")),)
        assert build(vs, es, [["A", "B", "C"]]).marked_points == want
        assert build(vs, es, want).marked_points == want

    def test_a_marked_point_is_not_a_string(self):
        with pytest.raises(bg.InvalidGraph, match="^marked point 'ABC' is a string, not a branch"):
            bg.MarkedPoint("ABC")
        assert bg.MarkedPoint(["A", "B", "C"]) == bg.MarkedPoint(("A", "B", "C"))

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


def test_store_sorts_as_the_keyed_sort():
    # build holds the one sort of a graph: ids and endpoint pairs are
    # unique, so sorting the tuples themselves gives the order of a sort
    # keyed on the id and on (a, b)
    rng = random.Random(20261019)
    names = [f"E{k}" for k in range(1, 13)] + ["A", "B", "C1", "C10", "C2"]
    sqs = (-2, -1, Fr(-1, 3), Fr(5, 2), 4)
    assert "E10" < "E9" and "C10" < "C2"
    for _ in range(300):
        ids = rng.sample(names, rng.randint(1, len(names)))
        vs = [bg.CurveVertex(i, rng.choice(sqs), rng.choice(COEFFS), rng.randint(0, 2))
              for i in ids]
        es = [bg.Edge(a, b, rng.randint(1, 3)) for a, b in combinations(ids, 2)
              if rng.random() < 0.4]
        rng.shuffle(vs)
        rng.shuffle(es)
        g = build(vs, es, (), rng.randint(1, 4))
        assert g.vertices == tuple(sorted(vs, key=attrgetter("id")))
        assert g.edges == tuple(sorted(es, key=attrgetter("a", "b")))


INT_SQS = tuple(s for s in WITNESS_SQS if type(s) is int)


def _random_graph(rng: random.Random, sqs, coeffs) -> bg.BoundaryGraph:
    """1-8 curves with ids in no particular order, fields drawn from
    ``sqs`` and ``coeffs``, 0-2 nodes each, and random edges of
    multiplicity 1-3: mostly not Calabi-Yau."""
    ids = rng.sample(["A", "B", "C1", "C10", "C2", "E1", "E9", "F", "L2", "X"], rng.randint(1, 8))
    vs = [(i, rng.choice(sqs), rng.choice(coeffs), rng.randint(0, 2)) for i in ids]
    es = [(a, b, rng.randint(1, 3)) for a, b in combinations(ids, 2) if rng.random() < 0.4]
    return build(vs, es, (), rng.randint(1, 4))


def _int_fields(v: bg.CurveVertex) -> bool:
    return type(v.self_int) is int and type(v.coeff) is int


def _integral(g: bg.BoundaryGraph) -> bool:
    return all(map(_int_fields, g.vertices))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scaled_residuals_match_the_reference(seed):
    """The residuals, in int with their scale, against the Fraction oracle on
    integral graphs (scale 1), fractional ones, and integral ones with one
    Fraction at the first, a middle or the last vertex, where the integral
    path gives way to the scaled one."""
    rng = random.Random(seed)
    integral = [
        _random_graph(rng, INT_SQS, (-2, -1, 0, 1)),
        rng.choice([fixtures.load_fixture("fig9.A1A2A5"), fixtures.load_fixture("p2.triangle")]),
        random_balanced_seed(rng),
        random_witness_fiber(rng),
    ]
    integral = [g for g in integral if _integral(g)]
    fractional = [_random_graph(rng, WITNESS_SQS, COEFFS), random_marked_seed(rng),
                  _contracted_chain(rng)]
    fallback = []
    for g in integral:
        n = len(g.vertices)
        for i in sorted({0, n // 2, n - 1}):
            v = g.vertices[i]
            if rng.randrange(2):
                w = bg.CurveVertex(v.id, v.self_int + rng.choice(SQ_NUDGES[2:]), v.coeff, v.nodes)
            else:
                w = bg.CurveVertex(v.id, v.self_int, v.coeff - rng.choice(COEFFS[1:4]), v.nodes)
            vs = g.vertices[:i] + (w,) + g.vertices[i + 1:]
            fallback.append((build(vs, g.edges, g.marked_points, g.picard_rank), i))
    for g, first in [(g, None) for g in integral + fractional] + fallback:
        if first is not None:
            assert [_int_fields(v) for v in g.vertices].index(False) == first
        res, scale = bg._scaled_residuals(g)
        assert type(scale) is int and all(type(r) is int for r in res.values()), g
        assert scale == 1 or not _integral(g)
        assert [(vid, Fr(res[vid], scale)) for vid in g.ids()] == ref.validate_cy(g), g


def test_surgery_keeps_graphs_in_order():
    """Random scripts of blow-ups and blow-downs from every graph fixture and
    seeded graphs: each result keeps its vertices in id order and its edges
    in (a, b) order, which surgery holds itself, with no sort."""
    rng = random.Random(20261022)
    graphs = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
              if fixtures.fixture_kind(name) == "graph"]
    graphs += [random_balanced_seed(rng) for _ in range(30)]
    graphs += [random_marked_seed(rng) for _ in range(30)]
    seen = set()
    for g in graphs:
        for step in range(8):
            # fresh E<k> ids, and ids that sort first, in between or last
            new_id = rng.choice([None, None, f"A{step}", f"D{step}", f"E0{step}", f"Z{step}"])
            downs = [v.id for v in g.vertices if v.self_int == -1]
            kinds = ["node", "interior"] + ["edge"] * bool(g.edges) + ["down"] * 2 * bool(downs)
            kind = rng.choice(kinds)
            try:
                if kind == "edge":
                    e = rng.choice(g.edges)
                    out = bg.blowup_corner(g, edge=(e.a, e.b), new_id=new_id)
                    if e.multiplicity > 1 and g.edges[-1] != e:
                        seen.add("split edge not last")
                elif kind == "node":
                    out = bg.blowup_corner(g, node=rng.choice(g.ids()), new_id=new_id)
                elif kind == "interior":
                    out = bg.blowup_interior(g, rng.choice(g.ids()), new_id=new_id)
                else:
                    out = bg.blowdown(g, rng.choice(downs))
            except bg.GraphError:
                continue  # a curve without a node, a shielded corner, an id in use, ...
            assert out.vertices == tuple(sorted(out.vertices)), (kind, g)
            assert out.edges == tuple(sorted(out.edges)), (kind, g)
            if kind == "down":
                pairs = {(e.a, e.b) for e in g.edges}
                if any((e.a, e.b) not in pairs for e in out.edges[:-1]):
                    seen.add("new pair edge not last")
            else:
                new = next(v.id for v in out.vertices if v.id not in g.ids())
                if out.vertices[-1].id != new:
                    seen.add("new curve not last")
                if any(new in (e.a, e.b) for e in out.edges[:-1]):
                    seen.add("new edge not last")
            g = out
    assert seen == {"split edge not last", "new pair edge not last", "new curve not last",
                    "new edge not last"}


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
    """A singular model, mostly with non-integral self-intersections: an A_n
    resolution with an interior point of one Ei blown up, which splits its
    chain, contracted by ``contract_minus2_chains``."""
    n = rng.randint(1, 5)
    g = bg.resolve_An_at_node(rng.randint(-2, 9), n)
    g = bg.blowup_interior(g, f"E{rng.randint(1, n)}")
    return bg.contract_minus2_chains(g).singular


def _nodal_minus_one(rng: random.Random) -> bg.BoundaryGraph:
    """A nodal curve blown up at smooth points until it is a (-1)-curve,
    which the blow-down refuses for its node."""
    g = build([("B", rng.randint(-1, 4), 1, 1)])
    while g.vertex("B").self_int > -1:
        g = bg.blowup_interior(g, "B")
    return g


def _variants(rng: random.Random, g: bg.BoundaryGraph) -> list[bg.BoundaryGraph]:
    """g; g with one self-intersection or coefficient nudged, which mostly
    unbalances it; g at Picard rank one."""
    v = rng.choice(g.vertices)
    if rng.randrange(2):
        nudged = bg.CurveVertex(v.id, v.self_int + rng.choice(SQ_NUDGES), v.coeff, v.nodes)
    else:
        nudged = bg.CurveVertex(v.id, v.self_int, v.coeff - rng.choice(COEFFS[1:]), v.nodes)
    return [
        g,
        build([nudged if w.id == v.id else w for w in g.vertices], g.edges, g.marked_points,
              g.picard_rank),
        build(g.vertices, g.edges, g.marked_points, 1),
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
                   _contracted_chain, _nodal_minus_one)
        balanced = set()
        refusals = set()
        for i in range(100):
            for g in _variants(rng, sources[i % len(sources)](rng)):
                balanced.add(bg.is_calabi_yau(g))
                for out in _check_against_reference(g):
                    if isinstance(out, bg.GraphError):
                        refusals.add(str(out))
        assert balanced == {True, False}
        # every refusal of the blow-ups and the blow-down, so that a check
        # that moves ahead of another shows as a different message
        for phrase in ("pass exactly one of", "already in use", "no intersection point between",
                       "lies at a marked point", "has no nodes", "no vertex", "not -1",
                       "carries nodes", "appears in a marked point",
                       "Picard rank must be positive"):
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


def _assert_as_constructed(g: bg.BoundaryGraph) -> None:
    """Every vertex and edge of g equals what its checking constructor makes
    of its fields, field type for field type: ``==`` alone cannot tell -1
    from Fraction(-1, 1), whose reprs and JSON differ."""
    for x, make in [(v, bg.CurveVertex) for v in g.vertices] + [(e, bg.Edge) for e in g.edges]:
        y = make(*x)
        assert (type(x), x, [type(f) for f in x]) == (make, y, [type(f) for f in y]), x


def _surgeries(g: bg.BoundaryGraph, seen: set) -> list[bg.BoundaryGraph]:
    """Every corner, node and interior blow-up of g with the blow-down of its
    new curve, and every blow-down that g allows; ``seen`` collects which
    kinds of re-derived value occurred."""
    ups = []
    for e in g.edges:
        for edge in ((e.a, e.b), (e.b, e.a)):
            try:
                ups.append(bg.blowup_corner(g, edge=edge))
            except bg.NoSuchIntersection:
                continue  # every crossing of the pair sits at a marked point
            seen.add("split edge" if e.multiplicity > 1 else "corner")
    ups += [bg.blowup_corner(g, node=v.id) for v in g.vertices if v.nodes]
    ups += [bg.blowup_interior(g, v.id) for v in g.vertices]
    fresh = ref._fresh_id(g)
    out = ups + [bg.blowdown(up, fresh) for up in ups]
    for v in g.vertices:
        try:
            out.append(bg.blowdown(g, v.id))
        except bg.GraphError:
            continue
        mults = [e.multiplicity for e in g.edges if v.id in (e.a, e.b)]
        if any(m > 1 for m in mults):
            seen.add("blow-down adds nodes")
        if len(mults) > 1:
            seen.add("blow-down adds points between neighbours")
    if any(v.nodes for v in g.vertices):
        seen.add("node")
    if any(v.self_int.denominator > 1 for v in g.vertices):
        seen.add("Fraction self-intersection")
    return out


class TestSurgeryBuildsWhatTheConstructorsWould:
    """The blow-ups and the blow-down re-derive kept curves and edges without
    their checking constructors; the values must be the constructors' own."""

    def test_graph_fixtures(self):
        seen = set()
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                for out in _surgeries(fixtures.load_fixture(name), seen):
                    _assert_as_constructed(out)
        assert {"corner", "split edge", "node", "blow-down adds nodes"} <= seen

    def test_seeded_graphs(self):
        rng = random.Random(20261020)
        sources = (random_balanced_seed, random_marked_seed, random_witness_fiber,
                   _contracted_chain, _nodal_minus_one)
        seen = set()
        for i in range(300):
            for out in _surgeries(sources[i % len(sources)](rng), seen):
                _assert_as_constructed(out)
        assert seen == {"corner", "split edge", "node", "blow-down adds nodes",
                        "blow-down adds points between neighbours", "Fraction self-intersection"}

    def test_double_faults_keep_their_precedence(self):
        """Refusals that a one-pass walk could reorder, against the reference:
        a caller's id in use with a missing edge, a missing node or a curve
        without a node, and an interior blow-up named after its own curve."""
        rng = random.Random(20261021)
        graphs = [fixtures.load_fixture(name) for name in fixtures.fixture_names()
                  if fixtures.fixture_kind(name) == "graph"]
        graphs += [random_witness_fiber(rng) for _ in range(40)]
        graphs += [random_marked_seed(rng) for _ in range(20)]
        messages = set()
        for g in graphs:
            used = g.vertices[-1].id
            calls = [
                (bg.blowup_corner, ref.blowup_corner, {"edge": (used, "nowhere"), "new_id": used}),
                (bg.blowup_corner, ref.blowup_corner, {"edge": ("no", "where"), "new_id": used}),
                (bg.blowup_corner, ref.blowup_corner, {"node": "nowhere", "new_id": used}),
                (bg.blowup_interior, ref.blowup_interior, {"vertex": "nowhere", "new_id": used}),
            ]
            for v in g.vertices:
                if not v.nodes:
                    calls.append((bg.blowup_corner, ref.blowup_corner,
                                  {"node": v.id, "new_id": used}))
                calls.append((bg.blowup_interior, ref.blowup_interior,
                              {"vertex": v.id, "new_id": v.id}))
            for fast, slow, kwargs in calls:
                out = _same_outcome(fast, slow, g, **kwargs)
                assert isinstance(out, bg.GraphError), kwargs
                messages.add(str(out))
        assert messages == {
            *(f"vertex id {vid!r} already in use" for g in graphs for vid in g.ids()),
            "no vertex 'nowhere'",
        }

    def test_blowdown_double_faults_keep_their_precedence(self):
        marked = random_marked_seed(random.Random(3))
        branch = marked.marked_points[0].branches[0]
        cases = [
            (build([("E", -2, 1, 1)]), "E", bg.NotMinusOneCurve),
            (build([("E", -1, 1, 1), ("L", 1, 1), ("M", 1, 1)],
                   [("E", "L"), ("E", "M"), ("L", "M")], [("E", "L", "M")], 3),
             "E", bg.VertexHasNodes),
            (build([bg.CurveVertex(v.id, -1, v.coeff, 0) if v.id == branch else v
                    for v in marked.vertices], marked.edges, marked.marked_points,
                   marked.picard_rank), branch, bg.InvalidGraph),
        ]
        for g, vid, error in cases:
            assert type(_same_outcome(bg.blowdown, ref.blowdown, g, vid)) is error


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
    them.  Sometimes a chain gets a chord, is closed into a cycle or has a
    mixed coefficient or a node, or another curve is a (-2)-curve too."""
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
            sq = -2  # joins the chains it meets
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
    return build(vs, es, mps, max(rho, 1))


def _contracts_every_minus_two(g: bg.BoundaryGraph, out) -> None:
    """A contraction that succeeds leaves no (-2)-curve of ``g``: each one
    is in an A_k point, and each takes one off the Picard rank."""
    twos = {v.id for v in g.vertices if v.self_int == -2}
    assert twos.isdisjoint(out.singular.ids())
    assert sum(out.mark_ranks) == len(twos)
    assert out.singular.picard_rank == g.picard_rank - len(twos)


class TestContractChainsMatchesReference:
    def test_graph_fixtures(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "graph":
                g = fixtures.load_fixture(name)
                out = _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)
                if not isinstance(out, bg.GraphError):
                    _contracts_every_minus_two(g, out)

    def test_random_graphs(self):
        rng = random.Random(20260518)
        refusals = set()
        seen = set()
        marked = 0
        for _ in range(1500):
            g = _random_chain_graph(rng)
            marked += bool(g.marked_points)
            out = _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)
            if isinstance(out, bg.GraphError):
                refusals.add(str(out))
                continue
            _contracts_every_minus_two(g, out)
            for chain in bg._minus2_components(g):
                for v in out.singular.vertices:
                    vec = [g.intersection(v.id, c) for c in chain]
                    if max(vec) >= 2:
                        seen.add("multiplicity")
                    if sum(1 for m in vec if m) >= 2:
                        seen.add("several curves")
            if any(v.self_int.denominator > 1 for v in out.singular.vertices):
                seen.add("non-integral")
        assert seen == {"multiplicity", "several curves", "non-integral"}
        for phrase in ("form a cycle", "simple path", "carries nodes", "coefficients differ",
                       "not chain neighbours", "Picard rank must be positive"):
            assert any(phrase in message for message in refusals), phrase
        assert marked

    @pytest.mark.parametrize("shape, outcome", [
        ("chain of 60", [60]),
        ("chain of 60, two curves with a node", "carries nodes"),
        ("chain of 60, two links meeting twice", "are not chain neighbours"),
        ("Y-branch", "do not form a simple path"),
        ("cycle with a tail", "do not form a simple path"),
        ("cycle", "form a cycle, not a chain"),
    ])
    def test_long_branched_and_closed_chains(self, shape, outcome):
        """The chain walk on each shape, with random ids so that either end
        of a chain may come first, and two survivors meeting random curves.
        A refusal names the first bad curve or link from the chain's first
        end, so two of them pin which end that is."""
        rng = random.Random(f"{shape}-20261020")
        for _ in range(20):
            ids = iter(rng.sample(range(10**6), 200))

            def arm(n):
                return [f"C{next(ids)}" for _ in range(n)]

            if shape.startswith("chain of 60"):
                paths = [arm(60)]
            elif shape == "Y-branch":
                center = arm(1)
                paths = [center + arm(rng.randint(1, 5)) for _ in range(3)]
            else:
                cycle = arm(rng.randint(3, 6))
                paths = [cycle + cycle[:1]] + ([cycle[:1] + arm(rng.randint(1, 5))]
                                               if shape == "cycle with a tail" else [])
            twos = sorted({c for path in paths for c in path})
            links = sorted({tuple(sorted(pair)) for path in paths for pair in zip(path, path[1:])})
            nodal = rng.sample(twos, 2) if "node" in shape else []
            double = rng.sample(links, 2) if "twice" in shape else []
            vs = [(c, -2, 1, int(c in nodal)) for c in twos]
            vs += [("S", -1, Fr(1, 2)), ("T", 3, 1)]
            es = [(a, b, 1 + ((a, b) in double)) for a, b in links]
            es += [(s, c, rng.randint(1, 3)) for s in "ST" for c in rng.sample(twos, 3)]
            g = build(vs, es, rho=len(vs) + 1)
            out = _same_outcome(bg.contract_minus2_chains, ref.contract_minus2_chains, g)
            if isinstance(outcome, str):
                assert isinstance(out, bg.NotMinusTwoChain) and outcome in str(out)
            else:
                assert out.mark_ranks == outcome
