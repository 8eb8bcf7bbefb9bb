import random
from fractions import Fraction as Fr
from itertools import product

import pytest
import reference_witness
from helpers import random_witness_fiber
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import fixtures


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

    def test_node_location_validation(self):
        with pytest.raises(fc.FiberError):
            spec([(1, True)], rank=1, at="B2")


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

    def test_requires_balance(self):
        g = bg.BoundaryGraph.build([("B", 9, 1, 0)], rho=1)
        with pytest.raises(fc.PreconditionFailed):
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
        # the cap is lowered until about 3000 vectors are scanned (vectors per
        # graph times a bound on the frontier) so that the oracle's
        # brute-force Fraction scan stays short on 4- to 6-curve graphs
        rng = random.Random(20241218)
        kinds = set()
        for _ in range(120):
            g = random_witness_fiber(rng)
            depth, cap = rng.randint(0, 2), rng.randint(1, 6)
            while cap > 1 and (cap + 1) ** len(g.vertices) * (len(g.edges) + 2) ** depth > 3000:
                cap -= 1
            got = _search_outcome(fc.prop51_witness_search, g, depth, cap)
            want = _search_outcome(reference_witness.prop51_witness_search, g, depth, cap)
            assert got == want, (g, depth, cap)
            kinds.add(got[0] if got[0] == "raised" else got[1] is not None)
        assert kinds == {"raised", True, False}

    def test_non_integral_self_intersections(self):
        for sqs in ((Fr(7, 2), -1), (Fr(-5, 2), Fr(1, 3)), (Fr(-4, 3), Fr(1, 3))):
            g = bg.BoundaryGraph.build(
                [("C1", sqs[0], 1), ("C2", sqs[1], 1)], [("C1", "C2", 2)], rho=2
            )
            for depth in range(3):
                assert _search_outcome(fc.prop51_witness_search, g, depth, 6) == (
                    _search_outcome(reference_witness.prop51_witness_search, g, depth, 6)
                )

    def test_empty_graph_has_no_witness(self):
        g = bg.BoundaryGraph.build([], rho=1)
        assert fc.prop51_witness_search(g, 2) is None
        assert reference_witness.prop51_witness_search(g, 2) is None

    def test_pruning_is_kept(self, monkeypatch):
        # ex62.graph at depth 4: the brute-force search scans 77 graphs;
        # deduplication leaves 26 and the negative-definite skip all but one
        examined, scanned = [], []
        divisor_witness, first_divisor = fc._divisor_witness, fc._first_divisor
        monkeypatch.setattr(
            fc, "_divisor_witness", lambda *a: examined.append(1) or divisor_witness(*a)
        )
        monkeypatch.setattr(
            fc, "_first_divisor", lambda *a: scanned.append(1) or first_divisor(*a)
        )
        assert fc.prop51_witness_search(fixtures.load_fixture("ex62.graph"), 4) is None
        assert (len(examined), len(scanned)) == (26, 1)


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
    """Depths 3 and 4, out of the brute-force oracle's reach: the search
    must match the pruned search whose scan read each graph.  No witness
    in these families needs more than two blow-ups, so the deep frontiers
    are checked through the graphs on which both searches find nothing."""

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
        self._check((g, depth, cap) for g in graphs for depth in (3, 4) for cap in range(1, 7))

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
        outcomes = self._check((g, depth, 6) for g in nodal + pairs for depth in (3, 4))
        assert self._depths(outcomes) == {None, 0, 1, 2}

    def test_cycles(self):
        cases = [(_cycle(sqs), depth, 6) for sqs in _bracelets(range(-4, 1), 3) for depth in (3, 4)]
        cases += [(_cycle(sqs), 4, 6) for sqs in _bracelets(range(-4, 1), 4)]
        outcomes = self._check(cases)
        assert self._depths(outcomes) == {None, 0}

    def test_non_integral_self_intersections(self):
        for sqs in ((Fr(7, 2), -1), (Fr(-5, 2), Fr(1, 3)), (Fr(-4, 3), Fr(1, 3))):
            g = bg.BoundaryGraph.build(
                [("C1", sqs[0], 1), ("C2", sqs[1], 1)], [("C1", "C2", 2)], rho=2
            )
            self._check((g, depth, cap) for depth in (3, 4) for cap in (1, 3, 6))

    def test_random_fibers(self):
        rng = random.Random(20261018)
        cases = [(random_witness_fiber(rng), rng.randint(3, 4), rng.randint(1, 6)) for _ in range(200)]
        outcomes = self._check(cases)
        assert {kind for kind, _, _ in outcomes} == {"raised", "returned"}
        assert self._depths(outcomes) == {None, 0, 1, 2}
        assert any(g.marked_points for g, _, _ in cases)


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
