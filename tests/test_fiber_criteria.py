import random
from fractions import Fraction as Fr
from itertools import product
from math import lcm

import pytest
import reference_witness
from helpers import (
    gram_matrix,
    random_coefficient_one_graph,
    random_witness_fiber,
    resolved_boundary,
    spec_of,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import fixtures
from cypair import gdp_atlas as ga


BALANCE = "witness search needs a Calabi-Yau balanced graph"


def spec(components, node=True, volume=3, rank=2, smooth=True, at="smooth"):
    return fc.FiberSpec.build(components, node, volume, rank, smooth, at)


class TestFiberSpec:
    def test_rank_component_accounting(self):
        with pytest.raises(fc.FiberError):
            spec([(1, True)], rank=2)
        with pytest.raises(fc.FiberError):
            spec([(1, True), (0, True)], rank=1)
        with pytest.raises(fc.FiberError):
            spec([(1, True)], rank=1, volume=0)

    def test_rank_must_be_one_or_two(self):
        with pytest.raises(Exception) as got:
            fc.FiberSpec((fc.FiberComponent(4),), True, 4, 3)
        assert (type(got.value), str(got.value)) == (
            fc.FiberError, "relative Picard rank must be 1 or 2"
        )

    def test_node_location_validation(self):
        with pytest.raises(fc.FiberError):
            spec([(1, True)], rank=1, at="B2")
        # digit strings int() refuses: past its digit limit, and not decimal
        for at in ("A" + "1" * 5000, "A\u00b2"):
            with pytest.raises(fc.FiberError, match="^bad node location "):
                fc.node_location(at)
        assert fc.node_location("A01") == "A01"

    def test_nothing_is_coerced(self):
        with pytest.raises(fc.FiberError, match="rank must be an integer, got 1.9"):
            fc.FiberSpec.build([(4, "no")], has_node="no", volume=4, rank=1.9)
        for rank in (True, 1.0, "1"):
            with pytest.raises(fc.FiberError, match="rank must be an integer"):
                spec([(4, True)], volume=4, rank=rank)
        for bad in ("no", 0, 1, None):
            for kwargs in ({"components": [(4, bad)]}, {"node": bad}, {"smooth": bad}):
                with pytest.raises(fc.FiberError, match="must be true or false"):
                    spec(**{"components": [(4, True)], "volume": 4, "rank": 1, **kwargs})
        assert spec([(4, False)], node=False, volume=4, rank=1, smooth=False).rel_picard_rank == 1


class TestCheckPic2:
    def test_resolved_fiber_passes(self):
        assert fc.check_pic2(fixtures.load_fixture("ex63.resolved")) == fc.Verdict(True, ())

    def test_nonpositive_components_fail_third_condition(self):
        v = fc.check_pic2(fixtures.load_fixture("ex62.pic2"))
        assert (v.cluster_type, v.failed_conditions) == (False, (3,))

    def test_no_node_fails_first_condition(self):
        v = fc.check_pic2(spec([(1, True), (-1, True)], node=False))
        assert not v.cluster_type and 1 in v.failed_conditions

    def test_monodromy_condition(self):
        v = fc.check_pic2(spec([(1, False), (-1, True)]))
        assert v.failed_conditions == (2,)

    def test_rank_and_locus_guards(self):
        with pytest.raises(fc.WrongRank):
            fc.check_pic2(fixtures.load_fixture("ex62.pic1"))
        with pytest.raises(fc.BoundaryMeetsSingularities):
            fc.check_pic2(spec([(1, True), (-1, True)], smooth=False))


class TestCheckPic1:
    def test_volume_four_fails(self):
        v = fc.check_pic1(fixtures.load_fixture("ex62.pic1"))
        assert (v.cluster_type, v.failed_conditions) == (False, (3,))

    def test_volume_six_passes(self):
        assert fc.check_pic1(spec([(6, True)], volume=6, rank=1)).cluster_type

    def test_volume_five_boundary_case(self):
        assert fc.check_pic1(spec([(5, True)], volume=5, rank=1)).cluster_type

    def test_singular_locus_guard(self):
        with pytest.raises(fc.BoundaryMeetsSingularities):
            fc.check_pic1(fixtures.load_fixture("ex63.pic1"))

    def test_wrong_rank(self):
        with pytest.raises(fc.WrongRank):
            fc.check_pic1(fixtures.load_fixture("ex63.resolved"))


class TestNodeBlowupReduce:
    def test_volume_five(self):
        red = fc.node_blowup_reduce(spec([(5, True)], volume=5, rank=1))
        assert [c.self_int for c in red.components] == [Fr(1), Fr(-1)]
        assert fc.check_pic2(red).cluster_type

    def test_volume_four(self):
        red = fc.node_blowup_reduce(fixtures.load_fixture("ex62.pic1"))
        assert [c.self_int for c in red.components] == [Fr(0), Fr(-1)]
        assert not fc.check_pic2(red).cluster_type

    def test_volume_nine(self):
        red = fc.node_blowup_reduce(spec([(9, True)], volume=9, rank=1))
        assert [c.self_int for c in red.components] == [Fr(5), Fr(-1)]
        assert fc.check_pic2(red).cluster_type

    def test_blowup_corner_cross_check(self):
        # same arithmetic through the graph calculus: volume 9 nodal curve
        g = bg.BoundaryGraph.build([("B", 9, 1, 1)], rho=1)
        up = bg.blowup_corner(g, node="B")
        assert up.vertex("B").self_int == 5
        assert up.vertex("E1").self_int == -1

    def test_coherence_with_pic1(self):
        for vol in range(1, 13):
            for irr in (True, False):
                f = spec([(vol, irr)], volume=vol, rank=1)
                assert (
                    fc.check_pic1(f).cluster_type
                    == fc.check_pic2(fc.node_blowup_reduce(f)).cluster_type
                )

    def test_preconditions(self):
        with pytest.raises(fc.PreconditionFailed):
            fc.node_blowup_reduce(spec([(5, True)], node=False, volume=5, rank=1))
        with pytest.raises(fc.PreconditionFailed):
            fc.node_blowup_reduce(spec([(5, True)], volume=5, rank=1, at="A2"))
        with pytest.raises(fc.PreconditionFailed):
            fc.node_blowup_reduce(fixtures.load_fixture("ex63.resolved"))


class TestWeightedCorner:
    def test_ordinary_blowup(self):
        d = fc.weighted_corner_numbers(0, -1, 1, 1)
        assert (d.c1_tilde_sq, d.c2_tilde_sq) == (Fr(-1), Fr(-2))
        assert (d.c1_dot_e, d.c2_dot_e, d.c1_dot_c2) == (Fr(1), Fr(1), Fr(1))

    def test_weights_two_three(self):
        d = fc.weighted_corner_numbers(0, 0, 2, 3)
        assert (d.c1_tilde_sq, d.c2_tilde_sq) == (Fr(-2, 3), Fr(-3, 2))
        assert (d.c1_dot_e, d.c2_dot_e) == (Fr(1, 3), Fr(1, 2))

    def test_mixed_signs(self):
        d = fc.weighted_corner_numbers(1, -1, 1, 2)
        assert (d.c1_tilde_sq, d.c2_tilde_sq) == (Fr(1, 2), Fr(-3))
        assert (d.c1_dot_e, d.c2_dot_e) == (Fr(1, 2), Fr(1))

    def test_weights_must_be_positive(self):
        with pytest.raises(Exception) as got:
            fc.weighted_corner_numbers(-1, -1, 0, 1)
        assert (type(got.value), str(got.value)) == (
            fc.FiberError, "weights must be positive integers"
        )

    def test_degenerates_to_smooth_corner(self):
        for c1 in (-3, 0, 2):
            for c2 in (-1, 0):
                d = fc.weighted_corner_numbers(c1, c2, 1, 1)
                assert d.c1_tilde_sq == c1 - 1
                assert d.c2_tilde_sq == c2 - 1
                assert d.c1_dot_e == d.c2_dot_e == d.c1_dot_c2 == 1


class TestObstruction:
    def test_examples(self):
        assert fc.obstruction_value(1, 1, fc.weighted_corner_numbers(0, -1, 1, 1)) == -1
        assert fc.obstruction_value(1, 1, fc.weighted_corner_numbers(0, 0, 1, 1)) == 0
        assert fc.obstruction_value(2, 3, fc.weighted_corner_numbers(0, 0, 3, 2)) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
        st.fractions(min_value=-5, max_value=0), st.fractions(min_value=-5, max_value=0),
    )
    def test_bound(self, alpha, beta, m1, m2, c1, c2):
        val = fc.obstruction_value(m1, m2, fc.weighted_corner_numbers(c1, c2, alpha, beta))
        bound = Fr(-((alpha * m1 - beta * m2) ** 2), alpha * beta)
        assert val <= bound <= 0
        if c1 == 0 and c2 == 0:
            assert val == bound


class TestWitnessSearch:
    def test_depth_zero_on_a_triangle(self):
        w = fc.prop51_witness_search(fixtures.load_fixture("p2.triangle"), max_blowups=0)
        assert w is not None and w.script == ()

    def test_empty_search_bounds_rejected(self):
        # the triangle has a depth-0 witness with multiplicities up to 1, so
        # a search bounded below that would report a false "no witness"
        g = fixtures.load_fixture("p2.triangle")
        assert fc.prop51_witness_search(g, max_blowups=0, coeff_cap=1) is not None
        for depth, cap in ((-1, 6), (0, 0), (3, -2)):
            with pytest.raises(fc.PreconditionFailed):
                fc.prop51_witness_search(g, max_blowups=depth, coeff_cap=cap)

    def test_depth_zero_needs_an_outside_node(self):
        # positive component with every node on it: no immediate witness
        g = fixtures.load_fixture("ex63.graph")
        assert fc.prop51_witness_search(g, max_blowups=0) is None

    def test_resolved_fiber_has_depth_one_witness(self):
        w = fc.prop51_witness_search(fixtures.load_fixture("ex63.graph"))
        assert w is not None
        assert len(w.script) == 1
        assert w.divisor == {"C1": 1, "C2": 0}

    def test_nonpositive_fiber_has_no_witness(self):
        assert fc.prop51_witness_search(fixtures.load_fixture("ex62.graph")) is None

    def test_no_witness_whenever_positivity_fails_alone(self):
        # both components nonpositive, node and monodromy fine: the
        # obstruction rules out a witness at every depth within the cap
        for s1, s2 in ((0, -1), (0, 0), (-1, -1), (-3, 0)):
            g = bg.BoundaryGraph.build(
                [("C1", s1, 1), ("C2", s2, 1)], [("C1", "C2", 2)], rho=5
            )
            spec2 = fc.FiberSpec.build([(s1, True), (s2, True)], True, 2, 2)
            assert fc.check_pic2(spec2).failed_conditions == (3,)
            assert fc.prop51_witness_search(g) is None, (s1, s2)

    def test_nodal_cubic_witness_at_depth_two(self):
        w = fc.prop51_witness_search(fixtures.load_fixture("p2.nodal_cubic"))
        assert w is not None
        assert w.script == (("node", "B"), ("edge", "B", "E1"))

    def test_pic2_true_graphs_admit_depth_one_witness(self):
        # a two-component coefficient-one boundary balances exactly when the
        # components meet twice; any pair of self-intersections then works
        for s1 in (1, 2, 3):
            for s2 in (-3, -1, 0):
                g = bg.BoundaryGraph.build(
                    [("C1", s1, 1), ("C2", s2, 1)], [("C1", "C2", 2)], rho=5
                )
                assert bg.is_calabi_yau(g)
                w = fc.prop51_witness_search(g, max_blowups=1)
                assert w is not None, (s1, s2)

    def test_requires_index_one(self):
        g = fixtures.load_fixture("ex64.pair")
        with pytest.raises(fc.PreconditionFailed):
            fc.prop51_witness_search(g)

    def test_requires_no_marked_points(self):
        # a triangle of coefficient-one curves whose three corners are one
        # marked point is Calabi-Yau but not log canonical, for any
        # self-intersections, and is refused at every depth
        for sqs in ((0, 0, 0), (-1, -2, 3), (-3, -3, -3)):
            triangle = bg.BoundaryGraph.build(
                [(vid, s, 1) for vid, s in zip("ABC", sqs)],
                [("A", "B"), ("B", "C"), ("A", "C")],
                [("A", "B", "C")],
                rho=3,
            )
            assert bg.is_calabi_yau(triangle)
            with pytest.raises(bg.MarkedPointNotLC):
                bg.coregularity(triangle)
            for depth in (0, 1, 5):
                with pytest.raises(fc.PreconditionFailed, match="no marked points"):
                    fc.prop51_witness_search(triangle, depth)
        # ex64.pair has a marked point too, but fails the coefficient check first
        with pytest.raises(fc.PreconditionFailed, match="coefficients equal to 1"):
            fc.prop51_witness_search(fixtures.load_fixture("ex64.pair"))

    def test_requires_balance(self):
        # a lone smooth curve; a nodal A meeting B once, whose residuals 1
        # and -1 sum to zero; and the marked triangle of
        # test_requires_no_marked_points with a node on A, which is refused
        # for its balance before its marked point
        for g in (
            bg.BoundaryGraph.build([("B", 9, 1, 0)], rho=1),
            bg.BoundaryGraph.build([("A", 0, 1, 1), ("B", 0, 1)], [("A", "B")], rho=2),
            bg.BoundaryGraph.build(
                [("A", 0, 1, 1), ("B", 0, 1), ("C", 0, 1)],
                [("A", "B"), ("B", "C"), ("A", "C")],
                [("A", "B", "C")],
                rho=3,
            ),
        ):
            assert not bg.is_calabi_yau(g)
            with pytest.raises(fc.PreconditionFailed, match=f"^{BALANCE}$"):
                fc.prop51_witness_search(g)

    def test_deterministic(self):
        a = fc.prop51_witness_search(fixtures.load_fixture("p2.nodal_cubic"))
        b = fc.prop51_witness_search(fixtures.load_fixture("p2.nodal_cubic"))
        assert a == b


def _search_outcome(search, g, depth, cap):
    """The witness with its divisor's key order, or the error raised."""
    try:
        w = search(g, depth, cap)
    except Exception as exc:  # the oracle must raise the same class and message
        return ("raised", type(exc), str(exc))
    return ("returned", w, None if w is None else list(w.divisor))


def _small_search(rng: random.Random, g: bg.BoundaryGraph) -> tuple[int, int]:
    """A random depth in 0..2 and cap in 1..6, the cap lowered until about
    3000 vectors are scanned (vectors per graph times a bound on the
    frontier), so that the oracle's brute-force Fraction scan stays short."""
    depth, cap = rng.randint(0, 2), rng.randint(1, 6)
    while cap > 1 and (cap + 1) ** len(g.vertices) * (len(g.edges) + 2) ** depth > 3000:
        cap -= 1
    return depth, cap


class TestBalanceCheckMatchesIsCalabiYau:
    """The search decides balance by calling ``is_calabi_yau``; on
    coefficient-one graphs, fractional self-intersections included, it
    refuses exactly the graphs that ``is_calabi_yau`` rejects and otherwise
    agrees with the oracle's search."""

    def test_random_coefficient_one_graphs(self):
        rng = random.Random(20261020)
        kinds = set()
        for _ in range(400):
            g = random_coefficient_one_graph(rng)
            depth, cap = _small_search(rng, g)
            got = _search_outcome(fc.prop51_witness_search, g, depth, cap)
            balanced = bg.is_calabi_yau(g)
            refused = got == ("raised", fc.PreconditionFailed, BALANCE)
            assert refused == (not balanced), g
            if balanced and g.marked_points:
                # the oracle predates the marked-point check
                assert got == ("raised", fc.PreconditionFailed,
                               "witness search needs a log canonical graph: no marked points")
            else:
                want = _search_outcome(reference_witness.prop51_witness_search, g, depth, cap)
                assert got == want, (g, depth, cap)
            # (balanced, marked, residuals sum to zero), and whether a witness is found
            residual_sum = sum(r for _, r in bg.validate_cy(g))
            kinds.add((balanced, bool(g.marked_points), residual_sum == 0))
            if got[0] == "returned":
                kinds.add(got[1] is not None)
        assert kinds == {
            (True, False, True), (True, True, True), (False, False, True),
            (False, False, False), (False, True, True), (False, True, False), True, False,
        }


class TestPrunedSearchMatchesReference:
    def test_every_graph_fixture(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) != "graph":
                continue
            g = fixtures.load_fixture(name)
            for depth in range(3):
                for cap in range(1, 7):
                    assert _search_outcome(fc.prop51_witness_search, g, depth, cap) == (
                        _search_outcome(reference_witness.prop51_witness_search, g, depth, cap)
                    ), (name, depth, cap)

    def test_random_fibers(self):
        rng = random.Random(20241218)
        kinds = set()
        for _ in range(120):
            g = random_witness_fiber(rng)
            depth, cap = _small_search(rng, g)
            got = _search_outcome(fc.prop51_witness_search, g, depth, cap)
            want = _search_outcome(reference_witness.prop51_witness_search, g, depth, cap)
            assert got == want, (g, depth, cap)
            kinds.add(got[0] if got[0] == "raised" else got[1] is not None)
        assert kinds == {True, False}

    def test_non_integral_self_intersections(self):
        for sqs in ((Fr(7, 2), -1), (Fr(-5, 2), Fr(1, 3)), (Fr(-4, 3), Fr(1, 3))):
            g = bg.BoundaryGraph.build(
                [("C1", sqs[0], 1), ("C2", sqs[1], 1)], [("C1", "C2", 2)], rho=2
            )
            for depth in range(3):
                assert _search_outcome(fc.prop51_witness_search, g, depth, 6) == (
                    _search_outcome(reference_witness.prop51_witness_search, g, depth, 6)
                )

    def test_curves_named_after_the_new_curves(self):
        # ids that sort after E1, E2, ...: a blow-up's new curve is then the
        # first end of its edges with the originals, an order no other
        # family of this suite reaches past depth 0
        graphs = [bg.BoundaryGraph.build([("Z", s, 1, 1)], rho=1) for s in range(-4, 12)]
        for a in range(-4, 4):
            for b in range(-4, a + 1):
                graphs.append(bg.BoundaryGraph.build(
                    [("Z1", a, 1), ("Z2", b, 1)], [("Z1", "Z2", 2)], rho=2
                ))
        found = 0
        for g in graphs:
            for depth in (1, 2):
                for cap in (1, 2, 3, 6):
                    got = _search_outcome(fc.prop51_witness_search, g, depth, cap)
                    want = _search_outcome(reference_witness.prop51_witness_search, g, depth, cap)
                    assert got == want, (g, depth, cap)
                    found += got[1] is not None
        assert found == 196

    def test_empty_graph_has_no_witness(self):
        g = bg.BoundaryGraph.build([], rho=1)
        assert fc.prop51_witness_search(g, 2) is None
        assert reference_witness.prop51_witness_search(g, 2) is None

    def test_negative_definite_skip(self, monkeypatch):
        # ex62.graph at depth 4: the search stops after two layers, so it
        # examines the root, its one child and two of that child's three
        # children, the corners of the new curve with C1 and C2 (the corner
        # of C1 and C2 holds no witness), and the negative-definite skip
        # leaves one scan
        examined, scanned = [], []
        divisor_witness, first_divisor = fc._divisor_witness, fc._first_divisor
        monkeypatch.setattr(
            fc, "_divisor_witness", lambda *a: examined.append(1) or divisor_witness(*a)
        )
        monkeypatch.setattr(
            fc, "_first_divisor", lambda *a: scanned.append(1) or first_divisor(*a)
        )
        assert fc.prop51_witness_search(fixtures.load_fixture("ex62.graph"), 4) is None
        assert (len(examined), len(scanned)) == (4, 1)

    def test_two_layers_are_built_once(self, monkeypatch):
        # ex62.graph at depth 4: the three blow-ups within two layers that
        # can hold a witness are built, each once, and none deeper
        built = []
        blowup_corner = bg.blowup_corner
        monkeypatch.setattr(
            bg, "blowup_corner", lambda *a, **k: built.append(1) or blowup_corner(*a, **k)
        )
        assert fc.prop51_witness_search(fixtures.load_fixture("ex62.graph"), 4) is None
        assert len(built) == 3

    def test_node_children_are_built_not_scanned(self, monkeypatch):
        # p2.nodal_cubic has one corner, its node: the child there holds no
        # witness, so depth 1 builds nothing and scans the cubic alone, and
        # depth 2 builds that child only to blow up its corner with the cubic
        cubic = fixtures.load_fixture("p2.nodal_cubic")
        want = reference_witness.prop51_witness_search(cubic, 2)
        built, examined = [], []
        blowup_corner, divisor_witness = bg.blowup_corner, fc._divisor_witness
        monkeypatch.setattr(
            bg, "blowup_corner", lambda *a, **k: built.append(1) or blowup_corner(*a, **k)
        )
        monkeypatch.setattr(
            fc, "_divisor_witness", lambda *a: examined.append(1) or divisor_witness(*a)
        )
        assert fc.prop51_witness_search(cubic, 1) is None
        assert (len(built), len(examined)) == (0, 1)
        built.clear()
        examined.clear()
        assert fc.prop51_witness_search(cubic, 2) == want
        assert (len(built), len(examined)) == (2, 2)

    def test_search_stops_at_the_first_witness(self, monkeypatch):
        # a 4-cycle with its witness at depth 2: the search returns as soon
        # as it scans it, having built the four graphs of the first layer
        # and one of the second, since the first child's first corner, of
        # C1 and E2, is of two originals; finishing the layer would build 24
        g = bg.BoundaryGraph.build(
            [("C1", Fr(-5, 3), 1), ("E1", -1, 1), ("C2", Fr(-5, 3), 1), ("E2", -1, 1)],
            [("C1", "E1"), ("E1", "C2"), ("C2", "E2"), ("E2", "C1")],
            rho=4,
        )
        want = reference_witness.prop51_witness_search(g, 2)
        assert want.script == (("edge", "C1", "E1"), ("edge", "C1", "E3"))
        built = []
        blowup_corner = bg.blowup_corner
        monkeypatch.setattr(
            bg, "blowup_corner", lambda *a, **k: built.append(1) or blowup_corner(*a, **k)
        )
        assert fc.prop51_witness_search(g, 2) == want
        assert len(built) == 5


class TestCorners:
    """``_corners`` yields the reference's sorted ``_boundary_nodes``, on
    each graph and on each of its corner blow-ups."""

    def _check(self, graphs):
        for g in graphs:
            children = []
            for target in reference_witness._boundary_nodes(g):
                if target[0] == "edge":
                    children.append(bg.blowup_corner(g, edge=target[1:]))
                else:
                    children.append(bg.blowup_corner(g, node=target[1]))
            for h in [g] + children:
                assert list(fc._corners(h)) == reference_witness._boundary_nodes(h), h

    def test_graph_fixtures(self):
        self._check(
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        )

    def test_random_fibers(self):
        rng = random.Random(20261018)
        self._check(random_witness_fiber(rng) for _ in range(300))


def _cycle(sqs) -> bg.BoundaryGraph:
    k = len(sqs)
    return bg.BoundaryGraph.build(
        [(f"C{i}", s, 1) for i, s in enumerate(sqs)],
        [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)],
        rho=k,
    )


def _bracelets(values, k):
    """Self-intersection tuples of k-cycles, one per rotation and reflection."""
    for sqs in product(values, repeat=k):
        turns = [sqs[i:] + sqs[:i] for i in range(k)]
        if sqs == min(turns + [t[::-1] for t in turns]):
            yield sqs


class TestSearchMatchesPrunedReference:
    """Depths 3 to 5, out of the brute-force oracle's reach: the search
    must match the pruned search whose scan read each graph and which
    built every child.  No witness in these families needs more than two
    blow-ups, so the deep frontiers are checked through the graphs on
    which both searches find nothing."""

    def _check(self, cases):
        outcomes = []
        for g, depth, cap in cases:
            got = _search_outcome(fc.prop51_witness_search, g, depth, cap)
            want = _search_outcome(reference_witness.pruned_witness_search, g, depth, cap)
            assert got == want, (g, depth, cap)
            outcomes.append(got)
        return outcomes

    @staticmethod
    def _depths(outcomes):
        """Script lengths of the witnesses found, and None for no witness."""
        return {len(w.script) if w else None for kind, w, _ in outcomes if kind == "returned"}

    def test_every_graph_fixture(self):
        graphs = [
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        ]
        self._check((g, depth, cap) for g in graphs for depth in (3, 4, 5) for cap in range(1, 7))

    def test_nodal_curves_and_curve_pairs(self):
        # two curves meeting twice, and two disjoint nodal curves, where a
        # divisor on one curve can miss the other curve's node
        nodal = [bg.BoundaryGraph.build([("B", s, 1, 1)], rho=1) for s in range(-4, 12)]
        pairs = []
        for a in range(-4, 4):
            for b in range(-4, a + 1):
                pairs.append(bg.BoundaryGraph.build(
                    [("C1", a, 1), ("C2", b, 1)], [("C1", "C2", 2)], rho=2
                ))
                pairs.append(bg.BoundaryGraph.build([("B", a, 1, 1), ("C", b, 1, 1)], rho=2))
        outcomes = self._check((g, depth, 6) for g in nodal + pairs for depth in (3, 4, 5))
        assert self._depths(outcomes) == {None, 0, 1, 2}

    def test_cycles(self):
        cases = [
            (_cycle(sqs), depth, 6) for sqs in _bracelets(range(-4, 1), 3) for depth in (3, 4, 5)
        ]
        cases += [(_cycle(sqs), 4, 6) for sqs in _bracelets(range(-4, 1), 4)]
        outcomes = self._check(cases)
        assert self._depths(outcomes) == {None, 0}

    def test_non_integral_self_intersections(self):
        for sqs in ((Fr(7, 2), -1), (Fr(-5, 2), Fr(1, 3)), (Fr(-4, 3), Fr(1, 3))):
            g = bg.BoundaryGraph.build(
                [("C1", sqs[0], 1), ("C2", sqs[1], 1)], [("C1", "C2", 2)], rho=2
            )
            self._check((g, depth, cap) for depth in (3, 4, 5) for cap in (1, 3, 6))

    def test_random_fibers_at_depth_five(self):
        rng = random.Random(20261023)
        cases = [(random_witness_fiber(rng), 5, rng.randint(1, 6)) for _ in range(40)]
        outcomes = self._check(cases)
        assert {kind for kind, _, _ in outcomes} == {"returned"}
        assert self._depths(outcomes) == {None, 0, 1, 2}

    def test_random_fibers(self):
        rng = random.Random(20261018)
        cases = [(random_witness_fiber(rng), rng.randint(3, 4), rng.randint(1, 6)) for _ in range(200)]
        outcomes = self._check(cases)
        assert {kind for kind, _, _ in outcomes} == {"returned"}
        assert self._depths(outcomes) == {None, 0, 1, 2}


class TestTwoBlowupsSuffice:
    """The lemma of ``prop51_witness_search``: a search of depth 2 finds a
    witness exactly when the closed form ``has_witness`` says one exists,
    and any deeper search returns what depth 2 returns."""

    def _check(self, graphs, caps=(1, 2, 3)):
        found = set()
        for g in graphs:
            for cap in caps:
                try:
                    w = fc.prop51_witness_search(g, 2, cap)
                except fc.PreconditionFailed:
                    continue
                assert (w is not None) == reference_witness.has_witness(g, cap), (g, cap)
                found.add(w is not None)
        assert found == {True, False}

    def test_graph_fixtures(self):
        self._check(
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        )

    def test_random_fibers(self):
        rng = random.Random(20261019)
        self._check(random_witness_fiber(rng) for _ in range(200))

    def test_nodal_curves_and_curve_pairs(self):
        graphs = [bg.BoundaryGraph.build([("B", s, 1, 1)], rho=1) for s in range(-4, 12)]
        for a, b in product(range(-4, 4), repeat=2):
            graphs.append(bg.BoundaryGraph.build(
                [("C1", a, 1), ("C2", b, 1)], [("C1", "C2", 2)], rho=2
            ))
            graphs.append(bg.BoundaryGraph.build([("B", a, 1, 1), ("C", b, 1, 1)], rho=2))
        self._check(graphs)

    def test_cycles(self):
        self._check(
            _cycle(sqs) for k in (3, 4) for sqs in product(range(-4, 2), repeat=k)
        )

    def test_deeper_searches_return_depth_two(self):
        rng = random.Random(20261019)
        for _ in range(200):
            g, cap = random_witness_fiber(rng), rng.randint(1, 6)
            depth = rng.randint(2, 8)
            want = repr(fc.prop51_witness_search(g, 2, cap))
            assert repr(fc.prop51_witness_search(g, depth, cap)) == want, (g, depth, cap)


def _blowup(g: bg.BoundaryGraph, target: tuple) -> bg.BoundaryGraph:
    if target[0] == "edge":
        return bg.blowup_corner(g, edge=target[1:])
    return bg.blowup_corner(g, node=target[1])


class TestSkippedChildrenHoldNoWitness:
    """Two lemmas on corner blow-ups of a fiber: a child has no witness
    whenever the graphs that the lemma's proof reads have none.

    Rule 1 is a first-layer child at a node of the fiber.  Its proof reads
    the fiber, whose node already had the child's one new mask; the search
    builds these children for the second layer but scans none of them.
    Rule 2, by which the search skips a child, is a second-layer child at
    any corner but one of the new curve with an original.  Its proof reads the parent, and at a corner of two
    originals also the first-layer child at that corner of the fiber.
    Corners come from the oracle's ``_boundary_nodes``, not the search's."""

    def _check(self, graphs, caps=(1, 2, 3, 6)):
        """The rules that fired, as (rule, whether the child's Gram matrix
        is not negative definite, so that the scan ran on it)."""
        fired = set()
        for g in graphs:
            try:
                fc.prop51_witness_search(g, 0, 1)
            except fc.PreconditionFailed:
                continue
            ids = g.ids()
            index = {vid: i for i, vid in enumerate(ids)}
            scale = lcm(*[v.self_int.denominator for v in g.vertices])
            first = {t: _blowup(g, t) for t in reference_witness._boundary_nodes(g)}
            skipped = {}  # first-layer target -> [(second-layer target, child)]
            for t, h in first.items():
                skipped[t] = [
                    (u, _blowup(h, u)) for u in reference_witness._boundary_nodes(h)
                    if u[0] == "node" or (u[1] in index) == (u[2] in index)
                ]
            definite = {}

            def scanned(h):
                if id(h) not in definite:
                    definite[id(h)] = _negative_definite_by_fractions(gram_matrix(h, ids))
                return not definite[id(h)]

            for cap in caps:
                misses = {}

                def miss(h):
                    if id(h) not in misses:
                        misses[id(h)] = fc._divisor_witness(h, index, scale, cap) is None
                    return misses[id(h)]

                if not miss(g):
                    continue
                for t, h in first.items():
                    if t[0] == "node":
                        assert miss(h), (g, cap, t)
                        fired.add((1, scanned(h)))
                    if not miss(h):
                        continue
                    for u, child in skipped[t]:
                        if u[0] == "edge" and not miss(first[u]):
                            continue
                        assert miss(child), (g, cap, t, u)
                        fired.add((2, scanned(child)))
        return fired

    def test_graph_fixtures(self):
        fired = self._check(
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        )
        assert fired == {(1, True), (2, False)}

    def test_cycles(self):
        fired = self._check(
            _cycle(sqs) for k in (3, 4) for sqs in _bracelets(range(-4, 2), k)
        )
        # a cycle has no node, so only the second rule applies; where it
        # does, the skipped child is negative definite
        assert fired == {(2, False)}

    def test_nodal_curves_and_curve_pairs(self):
        graphs = [bg.BoundaryGraph.build([("B", s, 1, 1)], rho=1) for s in range(-4, 12)]
        for a in range(-4, 4):
            for b in range(-4, a + 1):
                graphs.append(bg.BoundaryGraph.build(
                    [("C1", a, 1), ("C2", b, 1)], [("C1", "C2", 2)], rho=2
                ))
                graphs.append(bg.BoundaryGraph.build([("B", a, 1, 1), ("C", b, 1, 1)], rho=2))
        assert self._check(graphs) == {(1, True), (1, False), (2, False)}

    def test_random_fibers(self):
        # the one family here on which both rules skip a child that is scanned
        rng = random.Random(20261021)
        fired = self._check(random_witness_fiber(rng) for _ in range(300))
        assert fired == {(1, True), (1, False), (2, True), (2, False)}


def _corner_blowups(g: bg.BoundaryGraph) -> list[bg.BoundaryGraph]:
    """``g`` blown up at each of its corners: every edge and every node."""
    ups = [bg.blowup_corner(g, edge=(e.a, e.b)) for e in g.edges]
    return ups + [bg.blowup_corner(g, node=v.id) for v in g.vertices if v.nodes]


class TestNegativeDefiniteRoots:
    """A corner blow-up changes the Gram matrix G of the original curves to
    G - v v^T, with v the multiplicities of the originals at the corner.  So
    a negative-definite G stays negative definite on every descendant, no
    divisor on the originals ever has D^2 >= 0, and the search finds no
    witness at any depth or cap: a search may answer None at such a root."""

    def _check(self, graphs, caps=(1, 2, 3)):
        roots = 0
        for g in graphs:
            ids = g.ids()
            if not _negative_definite_by_fractions(gram_matrix(g, ids)):
                continue
            roots += 1
            layer = [g]
            for _ in range(2):
                layer = [h for parent in layer for h in _corner_blowups(parent)]
                for h in layer:
                    assert _negative_definite_by_fractions(gram_matrix(h, ids)), (g, h)
            for cap in caps:
                assert not reference_witness.has_witness(g, cap), (g, cap)
                for depth in range(5):
                    assert fc.prop51_witness_search(g, depth, cap) is None, (g, depth, cap)
        return roots

    def test_random_fibers(self):
        rng = random.Random(20261020)
        assert self._check(random_witness_fiber(rng) for _ in range(200)) >= 40

    def test_nodal_curves_and_curve_pairs(self):
        graphs = [bg.BoundaryGraph.build([("B", s, 1, 1)], rho=1) for s in range(-4, 12)]
        for a, b in product(range(-4, 4), repeat=2):
            graphs.append(bg.BoundaryGraph.build(
                [("C1", a, 1), ("C2", b, 1)], [("C1", "C2", 2)], rho=2
            ))
            graphs.append(bg.BoundaryGraph.build([("B", a, 1, 1), ("C", b, 1, 1)], rho=2))
        # nodal curves of square -4..-1, the 16 disjoint pairs of them, and
        # the 8 pairs meeting twice with a, b < 0 and a * b > 4
        assert self._check(graphs) == 4 + 16 + 8

    def test_cycles(self):
        graphs = [_cycle(sqs) for k in (3, 4) for sqs in _bracelets(range(-4, 2), k)]
        assert self._check(graphs) == 40


def _criterion_outcome(check, f):
    """The verdict, or the class and message of the error raised."""
    try:
        return check(f)
    except fc.FiberError as exc:
        return type(exc), str(exc)


class TestCriteriaMatchReference:
    def test_full_grid(self):
        sqs = (-1, 0, Fr(1, 2), 1)
        outcomes = set()
        for rank in (1, 2):
            for comps in product(product(sqs, (True, False)), repeat=rank):
                for node, volume, smooth in product(
                    (True, False), (4, Fr(9, 2), 5, 6), (True, False)
                ):
                    f = fc.FiberSpec.build(comps, node, volume, rank, smooth)
                    for check in ("check_pic1", "check_pic2"):
                        got = _criterion_outcome(getattr(fc, check), f)
                        want = _criterion_outcome(getattr(reference_witness, check), f)
                        assert got == want, (check, f)
                        outcomes.add(got)
        errors = {o[0] for o in outcomes if not isinstance(o, fc.Verdict)}
        assert errors == {fc.WrongRank, fc.BoundaryMeetsSingularities}
        failed = {o.failed_conditions for o in outcomes if isinstance(o, fc.Verdict)}
        assert failed == {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}


class TestThreeDecidersAgree:
    """The fiber criteria, ``decide_pair``'s nodal cases and the witness
    search (depth 2) give one answer on the same boundary, at caps 2 and 3.
    The criteria and ``decide_pair`` read no graph, so they check the
    search, and the surgery it runs, from outside."""

    @pytest.mark.parametrize("cap", [2, 3])
    def test_fiber_criteria(self, cap):
        # a nodal curve of square s, and two curves meeting twice with
        # squares a >= b and a positive volume a + b + 4
        graphs = [bg.BoundaryGraph.build([("B", s, 1, 1)], rho=1) for s in range(1, 15)]
        graphs += [
            bg.BoundaryGraph.build([("B", a, 1), ("C", b, 1)], [("B", "C", 2)], rho=2)
            for a in range(-6, 8) for b in range(-6, a + 1) if a + b + 4 > 0
        ]
        verdicts = []
        for g in graphs:
            f = spec_of(g)
            check = fc.check_pic1 if f.rel_picard_rank == 1 else fc.check_pic2
            w = fc.prop51_witness_search(g, 2, cap)
            assert check(f).cluster_type == (w is not None), g
            if w is not None:
                fc.check_witness(g, w, cap)
            verdicts.append((f.rel_picard_rank, w is not None))
        assert len(graphs) == 94
        assert set(verdicts) == {(1, True), (1, False), (2, True), (2, False)}

    @pytest.mark.parametrize("cap", [2, 3])
    def test_nodal_pair_cases(self, cap):
        # the other singular points are A1s off the boundary, as many as
        # bring the volume to v
        a1 = ga.SingularityLabel("A", 1)
        specs = [ga.PairSpec.build((a1,) * (9 - v), ga.NodalSmoothLocus()) for v in range(1, 10)]
        specs += [
            ga.PairSpec.build((ga.SingularityLabel("A", n),) + (a1,) * (9 - v - n), ga.NodalAtA(n))
            for n in range(1, 9) for v in range(1, 10 - n)
        ]
        cases = set()
        for spec in specs:
            g = resolved_boundary(spec)
            verdict = ga.decide_pair(spec)
            w = fc.prop51_witness_search(g, 2, cap)
            assert verdict.cluster_type == (w is not None), spec
            if w is not None:
                fc.check_witness(g, w, cap)
            cases.add((verdict.case, verdict.cluster_type))
        assert len(specs) == 45
        assert cases == {(2, True), (2, False), (3, True), (4, True), (4, False),
                         (5, True), (5, False)}


def _negative_definite_by_fractions(a) -> bool:
    """Gaussian elimination over Fraction without pivoting: negative
    definite iff every pivot is negative."""
    a = [[Fr(x) for x in row] for row in a]
    n = len(a)
    for k in range(n):
        if a[k][k] >= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


class TestNegativeDefinite:
    def test_edge_cases(self):
        assert fc._negative_definite([])
        assert not fc._negative_definite([[0]])
        assert fc._negative_definite([[-1]])
        # the cycle of (-1, -1, -3)-curves: minors -1, 0; (1, 1, 0) has square 0
        assert not fc._negative_definite([[-1, 1, 1], [1, -1, 1], [1, 1, -3]])
        assert fc._negative_definite([[-3, 1, 1], [1, -3, 1], [1, 1, -3]])
        assert not fc._negative_definite([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])

    def test_random_symmetric_matrices(self):
        rng = random.Random(1968)
        verdicts = set()
        for _ in range(2000):
            n = rng.randint(1, 5)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = rng.randint(-9, 2)
                for j in range(i):
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
            got = fc._negative_definite(a)
            assert got == _negative_definite_by_fractions(a), a
            verdicts.add(got)
        assert verdicts == {True, False}


class TestJson:
    def test_roundtrip_all_fiber_fixtures(self):
        for name in fixtures.fixture_names():
            if fixtures.fixture_kind(name) == "fiber":
                f = fixtures.load_fixture(name)
                assert fc.fiber_from_json(fc.fiber_to_json(f)) == f

    def test_bad_rank(self):
        with pytest.raises(fc.FiberError):
            fc.fiber_from_json({"components": []})

    @pytest.mark.parametrize("bad", ["no", "true", 0, 1, None, []])
    def test_flags_are_json_booleans(self, bad):
        def spec(irreducible=False, present=True, smooth_locus=False):
            return {"rank": 1, "components": [{"sq": 4, "irreducible": irreducible}], "volume": 4,
                    "node": {"present": present}, "smooth_locus": smooth_locus}

        f = fc.fiber_from_json(spec())
        assert (f.components[0].irreducible_over_base, f.has_node, f.boundary_in_smooth_locus) == (
            False, True, False
        )
        for field in ("irreducible", "present", "smooth_locus"):
            with pytest.raises(fc.FiberError, match="must be true or false"):
                fc.fiber_from_json(spec(**{field: bad}))
