"""The independent witness checker and the divisor self-intersection.

``check_witness`` must accept every witness the search returns and refuse
each kind of broken certificate with a ``FiberError`` naming the check.
"""

import random
import re
from fractions import Fraction as Fr
from functools import partial

import pytest

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import fixtures
from helpers import (
    gram_matrix,
    random_balanced_seed,
    random_crepant_blowup,
    random_witness_fiber,
)

# loaders, called inside the tests: the module collects even when building
# a graph fails, so that a mutant of ``build`` can name these tests
EX63 = partial(fixtures.load_fixture, "ex63.graph")
EX63_WITNESS = fc.Witness((("edge", "C1", "C2"),), {"C1": 1, "C2": 0}, ("edge", "C2", "E1"))
TRIANGLE = partial(fixtures.load_fixture, "p2.triangle")
CUBIC = partial(fixtures.load_fixture, "p2.nodal_cubic")
CUBIC_WITNESS = fc.Witness(
    (("node", "B"), ("edge", "B", "E1")), {"B": 1}, ("edge", "E1", "E2")
)


class TestDivisorSquare:
    def test_matches_the_gram_form(self):
        # m^T G m, with G read entry by entry: on every graph fixture and on
        # seeded graphs with fractional self-intersections and coefficients,
        # for the coefficient-one curves each once, then for random
        # multiplicities on random sets of curves
        rng = random.Random(20261031)
        graphs = [
            fixtures.load_fixture(name)
            for name in fixtures.fixture_names()
            if fixtures.fixture_kind(name) == "graph"
        ]
        graphs += [random_witness_fiber(rng) for _ in range(40)]
        for _ in range(40):
            g = random_balanced_seed(rng)
            for _ in range(rng.randint(0, 3)):
                g, _ = random_crepant_blowup(rng, g)
            graphs.append(g)
        for g in graphs:
            ids = g.ids()
            gram = gram_matrix(g, ids)
            draws = [{v.id: 1 for v in g.vertices if v.coeff == 1}]
            for _ in range(5):
                draws.append({c: rng.randint(0, 6) for c in ids if rng.randrange(3)})
            for m in draws:
                ms = [m.get(c, 0) for c in ids]
                want = sum(x * row[j] * ms[j] for x, row in zip(ms, gram) for j in range(len(ids)))
                assert bg.divisor_square(g, m) == want, (g, m)

    def test_multiplicities_scale_the_form(self):
        # (m1 C1 + m2 C2)^2 = m1^2 C1^2 + 2 m1 m2 C1.C2 + m2^2 C2^2
        assert bg.divisor_square(EX63(), {"C1": 2, "C2": 3}) == 4 * 1 + 2 * 6 * 2 + 9 * -2
        assert bg.divisor_square(EX63(), {"C1": 0, "C2": 0}) == 0

    def test_blowup_drops_the_square_by_the_point_multiplicity(self):
        # a corner of C1 and C2 has multiplicity m1 + m2 on m1 C1 + m2 C2
        up = bg.blowup_corner(EX63(), edge=("C1", "C2"))
        for m in ({"C1": 1, "C2": 0}, {"C1": 2, "C2": 1}, {"C1": 3, "C2": 5}):
            mu = m["C1"] + m["C2"]
            assert bg.divisor_square(up, m) == bg.divisor_square(EX63(), m) - mu * mu

    def test_rational_self_intersections(self):
        g = bg.BoundaryGraph.build([("C1", Fr(7, 2), 1), ("C2", -1, 1)], [("C1", "C2", 2)])
        assert bg.divisor_square(g, {"C1": 2, "C2": 1}) == 4 * Fr(7, 2) + 2 * 2 * 2 - 1

    def test_unknown_vertex_is_refused(self):
        with pytest.raises(bg.NoSuchVertex):
            bg.divisor_square(EX63(), {"C1": 1, "X": 0})


class TestCheckWitness:
    def test_known_witnesses_pass(self):
        assert fc.prop51_witness_search(EX63()) == EX63_WITNESS
        assert fc.prop51_witness_search(CUBIC()) == CUBIC_WITNESS
        fc.check_witness(EX63(), EX63_WITNESS, 6)
        fc.check_witness(CUBIC(), CUBIC_WITNESS, 1)

    def test_every_witness_on_random_fibers_passes(self):
        rng = random.Random(20261019)
        found = 0
        for _ in range(150):
            g = random_witness_fiber(rng)
            depth, cap = rng.randint(0, 3), rng.randint(1, 6)
            w = fc.prop51_witness_search(g, depth, cap)
            if w is not None:
                fc.check_witness(g, w, cap)
                found += 1
        assert found >= 20

    @pytest.mark.parametrize("curves, witness", [
        ([("C0", -2), ("C1", Fr(-4, 3)), ("C2", -1), ("C3", -3)],
         fc.Witness((("edge", "C0", "C3"),), {"C0": 1, "C1": 3, "C2": 3, "C3": 0},
                    ("edge", "C3", "E1"))),
        ([("C0", Fr(-4, 3)), ("C1", Fr(-5, 2)), ("C2", -2), ("C3", -1)],
         fc.Witness((("edge", "C1", "C2"),), {"C0": 2, "C1": 0, "C2": 1, "C3": 3},
                    ("edge", "C1", "E1"))),
        ([("C0", Fr(-4, 3)), ("C1", Fr(-5, 2)), ("C2", -3), ("E1", -1), ("C3", -2)],
         fc.Witness((("edge", "C1", "C2"), ("edge", "C1", "E2")),
                    {"C0": 3, "C1": 1, "C2": 1, "C3": 3, "E1": 3}, ("edge", "E2", "E3"))),
    ])
    def test_witnesses_off_the_first_corner_pass(self, curves, witness):
        # cycles whose scripts blow up a corner other than the first edge,
        # so that replaying or recording another corner loses the node
        ids = [vid for vid, _ in curves]
        g = bg.BoundaryGraph.build(
            [(vid, sq, 1) for vid, sq in curves],
            list(zip(ids, ids[1:] + ids[:1])),
            rho=len(curves),
        )
        assert fc.prop51_witness_search(g, 2, 3) == witness
        assert witness.script[0][1:] != (g.edges[0].a, g.edges[0].b)
        fc.check_witness(g, witness, 3)

    @pytest.mark.parametrize("fiber, witness, cap, check", [
        # a step that is no corner of the graph so far
        (CUBIC, CUBIC_WITNESS._replace(script=(("node", "B"), ("edge", "B", "E2"))), 6,
         "script step ('edge', 'B', 'E2') is not a corner"),
        (CUBIC, CUBIC_WITNESS._replace(script=(("edge", "B", "E1"),)), 6,
         "script step ('edge', 'B', 'E1') is not a corner"),
        # a step at the witness's node blows that node away
        (TRIANGLE, fc.Witness((("edge", "L1", "L2"),), {"L1": 0, "L2": 0, "L3": 1},
                              ("edge", "L1", "L2")), 6,
         "node ('edge', 'L1', 'L2') is not a corner off the support"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": 1}), 6,
         "the divisor does not name exactly the fiber's curves"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": 1, "C2": 0, "E1": 0}), 6,
         "the divisor does not name exactly the fiber's curves"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": 0, "C2": 0}), 6,
         "multiplicities must lie in 0..6, not all zero"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": 7, "C2": 0}), 6,
         "multiplicities must lie in 0..6, not all zero"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": 1, "C2": -1}), 6,
         "multiplicities must lie in 0..6, not all zero"),
        (EX63, EX63_WITNESS._replace(divisor={"C1": Fr(1), "C2": 0}), 6,
         "multiplicities must lie in 0..6, not all zero"),
        (EX63, EX63_WITNESS, 0, "multiplicities must lie in 0..0, not all zero"),
        # C2 has square -3 after the blow-up
        (EX63, fc.Witness(EX63_WITNESS.script, {"C1": 0, "C2": 1}, ("edge", "C1", "E1")), 6,
         "the divisor has negative self-intersection"),
        # the node sits on the support, or is no corner at all
        (EX63, EX63_WITNESS._replace(node=("edge", "C1", "E1")), 6,
         "node ('edge', 'C1', 'E1') is not a corner off the support"),
        (CUBIC, CUBIC_WITNESS._replace(node=("node", "B")), 6,
         "node ('node', 'B') is not a corner off the support"),
        (CUBIC, CUBIC_WITNESS._replace(node=("edge", "E2", "E1")), 6,
         "node ('edge', 'E2', 'E1') is not a corner off the support"),
    ])
    def test_broken_certificates_are_refused(self, fiber, witness, cap, check):
        with pytest.raises(fc.FiberError, match=f"^{re.escape('witness check: ' + check)}$"):
            fc.check_witness(fiber(), witness, cap)

    def test_a_blowup_that_is_not_calabi_yau_is_refused(self):
        # two coefficient-one curves meeting once: each residual is -1
        g = bg.BoundaryGraph.build([("C1", 1, 1), ("C2", 0, 1)], [("C1", "C2")], rho=2)
        assert not bg.is_calabi_yau(g)
        w = fc.Witness((("edge", "C1", "C2"),), {"C1": 1, "C2": 0}, ("edge", "C2", "E1"))
        with pytest.raises(
            fc.FiberError,
            match=re.escape("witness check: the blow-up at ('edge', 'C1', 'C2') is not Calabi-Yau"),
        ):
            fc.check_witness(g, w, 6)
