"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every comparison is exact (integers and Fractions);
the stated time budgets are asserted with perf_counter.
"""

import random
import time
from fractions import Fraction as Fr
from itertools import product

from helpers import random_balanced_seed, random_crepant_blowup, random_smooth_fan

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import fixtures
from cypair import gdp_atlas as atlas
from cypair import lattice_fan as lf
from cypair.gdp_atlas import MultiComponent, NodalAtA, NodalSmoothLocus, PairSpec


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, label


def test_criterion_01_classification_count():
    cat = atlas.catalog()  # warm fixture construction before timing the check
    t0 = time.perf_counter()
    total = len(cat)
    positives = sum(f.cluster_type for f in cat)
    negatives = sorted(f.name for f in cat if not f.cluster_type)
    elapsed = time.perf_counter() - t0
    ok = (
        total == 16
        and positives == 14
        and negatives == ["2A1+2A3", "4A2"]
        and all(s.family == "A" for f in cat for s in f.singularities)
        and elapsed < 0.001
    )
    _report("criterion 1: catalog counts 16 families, 14 cluster type", ok,
            f"{elapsed * 1000:.3f} ms")


# forty rows spanning every inequality boundary of the five cases:
# volume 4 vs 5 in case 2, volume 2 vs 3 between cases 3 and 4,
# n = 1 vs 2 at volume 2, n = 3 vs 4 at volume 1
DECISION_MATRIX = [
    # case 2: nodal boundary in the smooth locus
    ("A4", NodalSmoothLocus(), 2, True),
    ("A5", NodalSmoothLocus(), 2, False),
    ("A1+A2", NodalSmoothLocus(), 2, True),
    ("A1+A5", NodalSmoothLocus(), 2, False),
    ("smooth", NodalSmoothLocus(), 2, True),
    ("2A1+A3", NodalSmoothLocus(), 2, False),
    ("A8", NodalSmoothLocus(), 2, False),
    ("2A4", NodalSmoothLocus(), 2, False),
    # case 3: node at a singular point, volume at least 3
    ("A1+A5", NodalAtA(1), 3, True),
    ("A1+A5", NodalAtA(5), 3, True),
    ("A2+A4", NodalAtA(2), 3, True),
    ("3A2", NodalAtA(2), 3, True),
    # case 4: volume 2, threshold n = 2
    ("A1+A6", NodalAtA(1), 4, False),
    ("A2+A5", NodalAtA(2), 4, True),
    ("A7", NodalAtA(7), 4, True),
    ("A1+A2+A4", NodalAtA(1), 4, False),
    ("A1+A2+A4", NodalAtA(2), 4, True),
    ("A1+A2+A4", NodalAtA(4), 4, True),
    # case 5: volume 1, threshold n = 4
    ("A1+A7", NodalAtA(7), 5, True),
    ("A1+A7", NodalAtA(1), 5, False),
    ("A8", NodalAtA(8), 5, True),
    ("2A4", NodalAtA(4), 5, True),
    ("A3+A5", NodalAtA(3), 5, False),
    ("A3+A5", NodalAtA(5), 5, True),
    ("A1+A2+A5", NodalAtA(5), 5, True),
    ("A1+A2+A5", NodalAtA(2), 5, False),
    ("2A1+2A3", NodalAtA(3), 5, False),
    ("4A2", NodalAtA(2), 5, False),
    # case 1: two or more components, with the volume-one feasibility check
    ("A1+A5", MultiComponent(2, (1, 5)), 1, True),
    ("A2+A5", MultiComponent(2, (2, 5)), 1, True),
    ("smooth", MultiComponent(2), 1, True),
    ("3A2", MultiComponent(3), 1, True),
    ("A8", MultiComponent(2, (8, 8)), 1, True),
    ("2A4", MultiComponent(2, (4, 4)), 1, True),
    ("A1+A2+A5", MultiComponent(2, (2, 5)), "infeasible", False),
    ("2A1+2A3", MultiComponent(2, (1, 3)), "infeasible", False),
    ("2A1+2A3", MultiComponent(2, (3, 3)), "infeasible", False),
    ("2A1+2A3", MultiComponent(2, (1, 1)), "infeasible", False),
    ("4A2", MultiComponent(2, (2, 2)), "infeasible", False),
    ("4A2", MultiComponent(3), "infeasible", False),
]


def test_criterion_02_pair_decision_matrix():
    assert len(DECISION_MATRIX) == 40
    failures = []
    for sings, boundary, want_case, want_verdict in DECISION_MATRIX:
        v = atlas.decide_pair(PairSpec.build(sings, boundary))
        if (v.case, v.cluster_type) != (want_case, want_verdict):
            failures.append((sings, boundary, v.case, v.cluster_type))
    _report("criterion 2: 40-row pair decision matrix", not failures,
            f"{len(DECISION_MATRIX) - len(failures)}/40 rows")


def test_criterion_03_figure_contractions():
    ok = True
    details = []
    for tag in ("A7->A1A5", "A8->A2A5", "A1A7->A12A3", "2A4->A4"):
        t0 = time.perf_counter()
        rep = atlas.apply_contraction_script(tag)
        iso = bg.weighted_isomorphic(rep.result, rep.after)
        elapsed = time.perf_counter() - t0
        ok = ok and iso and elapsed < 0.010
        details.append(f"{tag} {elapsed * 1000:.2f} ms")
    e2 = atlas.apply_contraction_script("A7->A1A5").result.vertex("E2").self_int
    ok = ok and e2 == -1
    _report("criterion 3: four figure contractions match encoded panels", ok,
            "; ".join(details))


def test_criterion_04_crepancy_property_suite():
    rng = random.Random(20240809)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(1000):
        g = random_balanced_seed(rng)
        if len(g.vertices) > 8 or not bg.is_calabi_yau(g):
            ok = False
            break
        for _ in range(rng.randint(1, 3)):
            before = g
            g, eid = random_crepant_blowup(rng, g)
            if not bg.is_calabi_yau(g) or bg.blowdown(g, eid) != before:
                ok = False
                break
            checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report("criterion 4: 1000 random blow-up/blow-down sequences stay balanced",
            ok, f"{checked} surgeries in {elapsed:.3f} s")


def test_criterion_05_obstruction_bound():
    # stated budget: the ~40k-case sweep (full weight/multiplicity grid) in
    # under a second; the full independent (c1, c2) grid follows untimed
    bound_cache = {}

    def bound(alpha, beta, m1, m2):
        key = ((alpha * m1 - beta * m2) ** 2, alpha * beta)
        b = bound_cache.get(key)
        if b is None:
            b = bound_cache[key] = Fr(-key[0], key[1])
        return b

    ok = True
    cases = 0
    t0 = time.perf_counter()
    for alpha in range(1, 10):
        for beta in range(1, 10):
            for c in range(-5, 1):
                data = fc.weighted_corner_numbers(c, c, alpha, beta)
                for m1 in range(1, 10):
                    for m2 in range(1, 10):
                        val = fc.obstruction_value(m1, m2, data)
                        b = bound(alpha, beta, m1, m2)
                        if not (val <= b <= 0):
                            ok = False
                        if c == 0 and val != b:
                            ok = False
                        cases += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    full = 0
    for alpha in range(1, 10):
        for beta in range(1, 10):
            for c1 in range(-5, 1):
                for c2 in range(-5, 1):
                    data = fc.weighted_corner_numbers(c1, c2, alpha, beta)
                    for m1 in range(1, 10):
                        for m2 in range(1, 10):
                            if not fc.obstruction_value(m1, m2, data) <= bound(
                                alpha, beta, m1, m2
                            ):
                                ok = False
                            full += 1
    _report("criterion 5: weighted-corner obstruction bound", ok,
            f"{cases} timed cases in {elapsed:.3f} s, {full} more exhaustive")


def test_criterion_06_reduction_coherence():
    ok = True
    for vol in range(1, 13):
        for irreducible in (True, False):
            for has_node in (True, False):
                f = fc.FiberSpec.build(
                    [(vol, irreducible)], has_node=has_node, volume=vol, rank=1
                )
                if has_node:
                    agree = (
                        fc.check_pic1(f).cluster_type
                        == fc.check_pic2(fc.node_blowup_reduce(f)).cluster_type
                    )
                    ok = ok and agree
                else:
                    ok = ok and not fc.check_pic1(f).cluster_type
                    try:
                        fc.node_blowup_reduce(f)
                        ok = False
                    except fc.PreconditionFailed:
                        pass
    # the verdict flips at exactly volume 5: strict transform 5 - 4 = 1
    red4 = fc.node_blowup_reduce(fc.FiberSpec.build([(4, True)], True, 4, 1))
    red5 = fc.node_blowup_reduce(fc.FiberSpec.build([(5, True)], True, 5, 1))
    ok = ok and red5.components[0].self_int == 1
    ok = ok and not fc.check_pic2(red4).cluster_type
    ok = ok and fc.check_pic2(red5).cluster_type
    _report("criterion 6: rank-one/rank-two reduction coherence, flip at volume 5", ok)


def test_criterion_07_worked_examples():
    v_pic2 = fc.check_pic2(fixtures.load_fixture("ex62.pic2"))
    v_pic1 = fc.check_pic1(fixtures.load_fixture("ex62.pic1"))
    resolved = fixtures.load_fixture("ex63.resolved")
    v_res = fc.check_pic2(resolved)
    sextic = atlas.decide_pair(PairSpec.build("A1+A2", NodalSmoothLocus()))
    ok = (
        not v_pic2.cluster_type
        and not v_pic1.cluster_type
        and v_res.cluster_type
        and resolved.components[0].self_int == 1
        and sextic.cluster_type
        and sextic.case == 2
        and sextic.volume == 6
    )
    _report("criterion 7: worked fixtures give the recorded verdicts", ok)


def test_criterion_08_coregularity_counterexample():
    g = fixtures.load_fixture("ex64.pair")
    total = bg.coregularity(g)
    fiber = fixtures.RECORDED_FIBER_COREGULARITY["ex64.pair"]
    branch_sum = sum(g.vertex(b).coeff for b in g.marked_points[0].branches)
    ok = total == 0 and fiber == 1 and branch_sum == 2 and bg.is_calabi_yau(g)
    _report("criterion 8: total pair has coregularity 0, its fiber records 1", ok)


def test_criterion_09_toric_engine():
    rng = random.Random(5)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        fan = random_smooth_fan(rng)
        n = len(fan.rays)
        sis = lf.self_intersections(fan)
        ok = ok and lf.toric_pair_complexity(fan) == 0 and sum(sis) == 12 - 3 * n
        i = rng.randrange(n)
        u, v = fan.rays[i], fan.rays[(i + 1) % n]
        new = lf.RayVector(u.x + v.x, u.y + v.y)
        bigger = lf.star_subdivide(fan, new)
        predicted = dict(zip(fan.rays, sis))
        predicted[u] -= 1
        predicted[v] -= 1
        predicted[new] = -1
        ok = ok and lf.self_intersections(bigger) == [predicted[r] for r in bigger.rays]
    resolved = lf.resolve(fixtures.load_fixture("p123.fan"))
    ok = ok and len(resolved.rays) == 6 and lf.is_smooth(resolved)
    ok = ok and len(resolved.rays) - 2 == 1 + 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.100
    _report("criterion 9: toric engine invariants on 50 random fans", ok,
            f"{elapsed * 1000:.1f} ms")


def test_criterion_10_two_component_infeasibility():
    ok = all(
        not atlas.two_component_feasibility(1, n, m)
        for n, m in product((1, 2, 3), repeat=2)
    )
    ok = ok and atlas.two_component_feasibility(3, 1, 5)
    _report("criterion 10: volume-one two-component inequalities", ok)


def test_criterion_11_witness_search_budgets():
    # stated budgets, in seconds; no graph here has a witness at its depth
    def cycle(k):
        return bg.BoundaryGraph.build(
            [(f"C{i}", -3, 1) for i in range(k)],
            [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)],
            rho=k,
        )

    ex62 = fixtures.load_fixture("ex62.graph")
    budgets = (
        ("(-3)-cycle k=6 depth 1", cycle(6), 1, 1.0),
        ("ex62 depth 5", ex62, 5, 0.25),
        ("ex62 depth 8", ex62, 8, 0.25),
        ("ex62 depth 60", ex62, 60, 0.25),
        ("(-3)-cycle k=4 depth 5", cycle(4), 5, 0.5),
    )
    ok, times = True, []
    for label, g, depth, budget in budgets:
        t0 = time.perf_counter()
        witness = fc.prop51_witness_search(g, max_blowups=depth)
        elapsed = time.perf_counter() - t0
        ok = ok and witness is None and elapsed < budget
        times.append(f"{label} {elapsed * 1000:.1f} ms")
    _report("criterion 11: witness searches within their time budgets", ok, "; ".join(times))
