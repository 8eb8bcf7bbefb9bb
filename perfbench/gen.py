"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` passed in, so the
same workload seed always yields the same inputs.  The generators live with
the benchmark rather than in the test helpers so that editing a test can
never change the benchmark data.

Balanced dual graphs are built so that every adjunction residual vanishes
by construction: a curve with coefficient b < 1 gets the self-intersection
that solves its residual equation, and a coefficient-one curve is only
placed where its neighbour sum already balances it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from cypair import boundary_graph as bg
from cypair import fixtures

SUB_ONE = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def solved_sq(delta: int, coeff: Fraction, neighbour_sum: Fraction) -> Fraction:
    """Self-intersection s solving (2*delta - 2 - s) + coeff*s + neighbour_sum = 0."""
    return (2 * delta - 2 + neighbour_sum) / (1 - coeff)


def balanced_seed(rng) -> bg.BoundaryGraph:
    """A small Calabi-Yau graph: one curve, a cycle, or two sub-one curves."""
    shape = rng.randrange(3)
    if shape == 0:
        coeff = rng.choice(SUB_ONE + (Fraction(1),))
        if coeff == 1:
            # a lone coefficient-one curve is balanced exactly when it has one node
            return bg.BoundaryGraph.build([("B", rng.randint(-2, 9), 1, 1)], rho=1)
        delta = rng.randrange(3)
        return bg.BoundaryGraph.build([("B", solved_sq(delta, coeff, Fraction(0)), coeff, delta)])
    if shape == 1:
        # a cycle of coefficient-one curves is balanced for any self-intersections
        k = rng.randint(3, 6)
        vs = [(f"C{i}", rng.randint(-3, 4), 1, 0) for i in range(k)]
        es = [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)]
        return bg.BoundaryGraph.build(vs, es, rho=rng.randint(1, 4))
    b1, b2 = rng.choice(SUB_ONE), rng.choice(SUB_ONE)
    m = rng.randint(1, 3)
    d1, d2 = rng.randrange(2), rng.randrange(2)
    vs = [
        ("C1", solved_sq(d1, b1, b2 * m), b1, d1),
        ("C2", solved_sq(d2, b2, b1 * m), b2, d2),
    ]
    return bg.BoundaryGraph.build(vs, [("C1", "C2", m)], rho=rng.randint(1, 3))


# (b1, m1, b2, m2) with b1*m1 + b2*m2 = 2 and 1 + b1 + b2 <= 2: the ruling F of
# coefficient one is balanced, and the marked point through F, D1, D2 is lc
_RULING_SPLITS = [
    (b1, m1, b2, m2)
    for b1 in SUB_ONE[1:]
    for b2 in SUB_ONE[1:]
    for m1 in range(1, 5)
    for m2 in range(1, 5)
    if b1 * m1 + b2 * m2 == 2 and b1 + b2 <= 1
]


def marked_seed(rng) -> bg.BoundaryGraph:
    """A balanced graph with one marked point, which the test helpers never make.

    Either three sub-one curves meeting pairwise and all passing through the
    marked point, or a coefficient-one ruling with two sub-one curves
    through the marked point as in the bundled ``ex64.pair``.  Corner
    blow-ups on these graphs go through the marked-point shielding rule.
    """
    if rng.randrange(2):
        while True:
            bs = [rng.choice(SUB_ONE) for _ in range(3)]
            if sum(bs) <= 2:
                break
        ids = ("D1", "D2", "D3")
        mult = {}
        for i in range(3):
            for j in range(i + 1, 3):
                mult[i, j] = mult[j, i] = rng.randint(1, 3)
        vs = []
        for i in range(3):
            delta = rng.randrange(2)
            nsum = sum(bs[j] * mult[i, j] for j in range(3) if j != i)
            vs.append((ids[i], solved_sq(delta, bs[i], nsum), bs[i], delta))
        es = [(ids[i], ids[j], mult[i, j]) for i in range(3) for j in range(i + 1, 3)]
        return bg.BoundaryGraph.build(vs, es, marked_points=[ids], rho=rng.randint(2, 4))
    b1, m1, b2, m2 = rng.choice(_RULING_SPLITS)
    k = rng.randint(1, 4)
    d1, d2 = rng.randrange(2), rng.randrange(2)
    vs = [
        ("F", 0, 1, 0),
        ("D1", solved_sq(d1, b1, m1 + b2 * k), b1, d1),
        ("D2", solved_sq(d2, b2, m2 + b1 * k), b2, d2),
    ]
    es = [("F", "D1", m1), ("F", "D2", m2), ("D1", "D2", k)]
    return bg.BoundaryGraph.build(vs, es, marked_points=[("F", "D1", "D2")], rho=2)


def graph_fixture_names() -> list[str]:
    return [n for n in fixtures.fixture_names() if fixtures.fixture_kind(n) == "graph"]


# -- witness-search inputs ---------------------------------------------------


def nodal_curve(sq: int) -> bg.BoundaryGraph:
    return bg.BoundaryGraph.build([("B", sq, 1, 1)], rho=1)


def two_curves(a: int, b: int) -> bg.BoundaryGraph:
    """Two coefficient-one curves meeting twice, like ex62.graph and ex63.graph."""
    return bg.BoundaryGraph.build([("C1", a, 1), ("C2", b, 1)], [("C1", "C2", 2)], rho=3)


def curve_cycle(sqs) -> bg.BoundaryGraph:
    k = len(sqs)
    vs = [(f"C{i}", s, 1, 0) for i, s in enumerate(sqs)]
    es = [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)]
    return bg.BoundaryGraph.build(vs, es, rho=k)


# -- fans ----------------------------------------------------------------------


def _sector(x: int, y: int) -> int:
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def _ccw(u, v) -> int:
    su, sv = _sector(*u), _sector(*v)
    if su != sv:
        return -1 if su < sv else 1
    d = u[0] * v[1] - u[1] * v[0]
    return -1 if d > 0 else (1 if d < 0 else 0)


def random_fan(rng, singular: bool) -> list[list[int]]:
    """Counterclockwise primitive rays of a complete fan, singular or smooth.

    Singular fans come from random primitive rays; smooth ones from the
    plane or the product seed by inserting sums of adjacent rays, which
    keeps every cone smooth.
    """
    if not singular:
        rays = rng.choice([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, 0), (0, -1)]])
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(len(rays))
            u, v = rays[i], rays[(i + 1) % len(rays)]
            rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
        return [list(r) for r in rays]
    while True:
        n = rng.randint(3, 6)
        rays = set()
        while len(rays) < n:
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            if (x, y) != (0, 0) and gcd(x, y) == 1:
                rays.add((x, y))
        order = sorted(rays, key=cmp_to_key(_ccw))
        dets = [
            order[i][0] * order[(i + 1) % n][1] - order[i][1] * order[(i + 1) % n][0]
            for i in range(n)
        ]
        if min(dets) > 0 and max(dets) > 1:
            return [list(r) for r in order]


# -- CLI specs -----------------------------------------------------------------


def random_a_partition(rng, total: int) -> list[int]:
    parts = []
    while total > 0:
        p = rng.randint(1, total)
        parts.append(p)
        total -= p
    return sorted(parts)


def sing_string(parts) -> str:
    if not parts:
        return "smooth"
    return "+".join(f"A{p}" for p in parts)


def random_singularities(rng) -> str:
    """A singularity string; some exceed rank 8 or use D/E types."""
    r = rng.random()
    if r < 0.7:
        return sing_string(random_a_partition(rng, rng.randint(0, 8)))
    if r < 0.85:
        terms = [rng.choice(["D4", "D5", "E6", "E7", "E8"])]
        terms += [f"A{rng.randint(1, 3)}" for _ in range(rng.randint(0, 1))]
        return "+".join(terms)
    return sing_string(random_a_partition(rng, rng.randint(9, 12)))


def pair_spec(rng, case) -> dict:
    """A decide-pair spec aimed at one of the five cases or at "infeasible"."""
    if case == 1:
        vol = rng.randint(2, 9)
        sings = sing_string(random_a_partition(rng, 9 - vol))
        return {"singularities": sings, "boundary": {"kind": "multi_component", "k": rng.randint(2, 4)}}
    if case == 2:
        sings = sing_string(random_a_partition(rng, rng.randint(0, 8)))
        return {"singularities": sings, "boundary": {"kind": "nodal_smooth_locus"}}
    if case in (3, 4, 5):
        vol = {3: rng.randint(3, 8), 4: 2, 5: 1}[case]
        parts = random_a_partition(rng, 9 - vol)
        return {
            "singularities": sing_string(parts),
            "boundary": {"kind": "nodal_at_A", "n": rng.choice(parts)},
        }
    kind = rng.randrange(3)
    if kind == 0:
        sings = rng.choice(["D4", "D5+A1", "E6", "E7+A1", "E8"])
        return {"singularities": sings, "boundary": {"kind": "nodal_smooth_locus"}}
    if kind == 1:
        sings = rng.choice(["2A1+2A3", "4A2"])
        return {"singularities": sings, "boundary": {"kind": "multi_component", "k": rng.randint(3, 4)}}
    sings = rng.choice(["A1+A2+A5", "2A1+2A3", "4A2"])
    ranks = [rng.randint(1, 3), rng.randint(1, 3)]
    return {"singularities": sings, "boundary": {"kind": "multi_component", "k": 2, "ranks": ranks}}


def fiber_spec(rng) -> dict:
    rank = rng.randint(1, 2)
    comps = [
        {"sq": rng.randint(-3, 6), "irreducible": rng.random() < 0.8} for _ in range(rank)
    ]
    at = "smooth" if rng.random() < 0.8 else f"A{rng.randint(1, 4)}"
    return {
        "rank": rank,
        "components": comps,
        "node": {"present": rng.random() < 0.8, "at": at},
        "volume": rng.choice([rng.randint(1, 9), f"{rng.randint(1, 20)}/{rng.randint(2, 4)}"]),
        "smooth_locus": rng.random() < 0.9,
    }


def surgery_script(rng, g: bg.BoundaryGraph, steps: int) -> list[dict]:
    """Steps on the graph's own curves: corners, nodes, interiors, blow-downs.

    A step may be invalid for the graph it meets (an edge already used up,
    a curve that is not a (-1)-curve); the CLI must then exit 3.
    """
    out = []
    for _ in range(steps):
        r = rng.randrange(4)
        if r == 0 and g.edges:
            e = rng.choice(g.edges)
            out.append({"op": "blowup_corner", "edge": [e.a, e.b]})
        elif r == 1 and any(v.nodes for v in g.vertices):
            out.append({"op": "blowup_corner", "node": rng.choice([v.id for v in g.vertices if v.nodes])})
        elif r == 2:
            out.append({"op": "blowdown", "vertex": rng.choice(g.ids())})
        else:
            out.append({"op": "blowup_interior", "vertex": rng.choice(g.ids())})
    return out


#: inputs that escape the CLI as tracebacks instead of exit code 2 or 3 (one
#: per known defect); their outcome is counted and reported, never hidden.
#: The non-UTF-8 spec needs a file, so the workload writes it and fills in None.
KNOWN_CRASHERS = {
    "decide-pair k not an int": lambda rng: ["decide-pair", json.dumps(
        {"singularities": "A1", "boundary": {"kind": "multi_component", "k": rng.choice(["x", "two"])}})],
    "fan ray with three coordinates": lambda rng: ["fan", json.dumps(
        [[rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)]])],
    "fan ray not an int": lambda rng: ["fan", json.dumps([[rng.choice("abc"), "b"], [0, 1], [-1, -1]])],
    "blowdown step without a vertex": lambda rng: [
        "graph", f"fixture:{rng.choice(['p2.triangle', 'ex62.graph'])}", "--apply", '[{"op": "blowdown"}]'],
    "fiber node not an object": lambda rng: ["check-fiber", json.dumps(
        {"rank": 1, "components": [{"sq": 4}], "node": rng.choice(["yes", 1]), "volume": 4})],
    "spec file not UTF-8": None,
}


def malformed_argv(rng) -> list[str]:
    """A spec that the CLI must reject with exit code 2 or 3."""
    kind = rng.randrange(10)
    if kind == 0:
        return ["graph", '{"vertices": [' + "{" * rng.randint(1, 3)]
    if kind == 1:
        return ["graph", f"fixture:no.such.{rng.randint(0, 99)}"]
    if kind == 2:
        return ["decide-pair", json.dumps({"singularities": "A1", "boundary": {"kind": f"shape{rng.randint(0, 9)}"}})]
    if kind == 3:
        return ["graph", json.dumps({"vertices": [{"id": "A", "sq": rng.choice(["x", "1/0", None])}]})]
    if kind == 4:
        return ["fan", json.dumps([[1, 0], [0, 1]])]
    if kind == 5:
        return ["classify", f"A{rng.randint(9, 20)}"]
    if kind == 6:
        return ["classify", rng.choice(["B3", "2Z1", "A1++A2", "0A1"])]
    if kind == 7:
        return ["graph", "fixture:p2.triangle", "--apply", json.dumps([{"op": "twist", "vertex": "L1"}])]
    if kind == 8:
        return ["check-fiber", json.dumps({"rank": rng.choice([0, 3]), "components": [], "volume": 1})]
    return ["fan", json.dumps([[2, 0], [0, 1], [-1, -1]])]
