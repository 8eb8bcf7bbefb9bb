"""Shared generators for randomized tests.

Random smooth fans are grown from the plane or product seed by repeated
star subdivisions at sums of adjacent rays, which keeps them smooth and
complete.  Random singular fans take random primitive rays in
counterclockwise order.  Random balanced dual graphs start from a seed
whose residuals vanish by construction and grow by crepant blow-ups, which
preserve the balance exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import gdp_atlas as ga
from cypair import lattice_fan as lf

COEFFS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def random_smooth_fan(rng: random.Random, max_subdivisions: int = 6) -> lf.Fan2:
    fan = lf.make_fan(
        rng.choice(
            [
                [(1, 0), (0, 1), (-1, -1)],
                [(1, 0), (0, 1), (-1, 0), (0, -1)],
            ]
        )
    )
    for _ in range(rng.randrange(max_subdivisions + 1)):
        rays = fan.rays
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        fan = lf.star_subdivide(fan, (u.x + v.x, u.y + v.y))
    return fan


def _half_plane(r) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi)
    return 0 if r[1] > 0 or (r[1] == 0 and r[0] > 0) else 1


def _ccw_order(u, v) -> int:
    if _half_plane(u) != _half_plane(v):
        return _half_plane(u) - _half_plane(v)
    return v[0] * u[1] - v[1] * u[0]  # negative when v lies counterclockwise of u


def random_singular_fan(rng: random.Random, max_coord: int = 6) -> lf.Fan2:
    """A complete fan on 3-6 random primitive rays with a cone of index > 1."""
    while True:
        rays = set()
        n = rng.randint(3, 6)
        while len(rays) < n:
            x, y = rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord)
            if gcd(x, y) == 1:
                rays.add((x, y))
        ordered = sorted(rays, key=cmp_to_key(_ccw_order))
        dets = [
            u[0] * v[1] - u[1] * v[0] for u, v in zip(ordered, ordered[1:] + ordered[:1])
        ]
        if min(dets) > 0 and max(dets) > 1:
            return lf.make_fan(ordered)


def _solved_sq(delta: int, coeff: Fraction, neighbor_sum: Fraction) -> Fraction:
    # residual (2*delta - 2 - s) + coeff*s + neighbor_sum = 0 solved for s
    return Fraction(2 * delta - 2 + neighbor_sum, 1 - coeff)


def random_balanced_seed(rng: random.Random) -> bg.BoundaryGraph:
    shape = rng.randrange(3)
    if shape == 0:
        # one curve; coefficient one forces exactly one node
        coeff = rng.choice(COEFFS)
        if coeff == 1:
            return bg.BoundaryGraph.build([("B", rng.randint(-2, 9), 1, 1)], rho=1)
        delta = rng.randrange(3)
        return bg.BoundaryGraph.build(
            [("B", _solved_sq(delta, coeff, Fraction(0)), coeff, delta)], rho=1
        )
    if shape == 1:
        # cycle of coefficient-one curves: balanced for any self-intersections
        k = rng.randint(3, 5)
        vs = [(f"C{i}", rng.randint(-3, 4), 1, 0) for i in range(k)]
        es = [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)]
        return bg.BoundaryGraph.build(vs, es, rho=rng.randint(1, 4))
    # two curves with sub-one coefficients and a solved pair of self-intersections
    b1 = rng.choice(COEFFS[:-1])
    b2 = rng.choice(COEFFS[:-1])
    m = rng.randint(1, 3)
    d1, d2 = rng.randrange(2), rng.randrange(2)
    vs = [
        ("C1", _solved_sq(d1, b1, b2 * m), b1, d1),
        ("C2", _solved_sq(d2, b2, b1 * m), b2, d2),
    ]
    return bg.BoundaryGraph.build(vs, [("C1", "C2", m)], rho=rng.randint(1, 3))


def random_marked_seed(rng: random.Random) -> bg.BoundaryGraph:
    """A balanced graph whose curves D0..Dk-1 (k = 3 or 4) share one marked point.

    Every pair of branches meets, once at the marked point and possibly
    elsewhere; D0 and D1 meet only there, so that corner is always
    shielded.  Half the seeds add a curve T that meets D0 away from the
    marked point.  Coefficients stay below one, so every self-intersection
    can be solved for.
    """
    k = rng.randint(3, 4)
    ids = [f"D{i}" for i in range(k)]
    mult = {pair: rng.randint(1, 3) for pair in combinations(ids, 2)}
    mult["D0", "D1"] = 1
    if rng.randrange(2):
        ids.append("T")
        mult["D0", "T"] = rng.randint(1, 2)
    coeff = {v: rng.choice(COEFFS[:-1]) for v in ids}
    nodes = {v: rng.randrange(2) for v in ids}
    neighbor_sum = {v: Fraction(0) for v in ids}
    for (a, b), m in mult.items():
        neighbor_sum[a] += coeff[b] * m
        neighbor_sum[b] += coeff[a] * m
    vs = [(v, _solved_sq(nodes[v], coeff[v], neighbor_sum[v]), coeff[v], nodes[v]) for v in ids]
    es = [(a, b, m) for (a, b), m in mult.items()]
    return bg.BoundaryGraph.build(vs, es, [ids[:k]], rho=rng.randint(2, 4))


def random_crepant_blowup(rng: random.Random, g: bg.BoundaryGraph):
    """One random crepant blow-up; returns (new graph, new vertex id)."""
    moves = []
    for e in g.edges:
        moves.append(("edge", (e.a, e.b)))
    for v in g.vertices:
        if v.nodes >= 1:
            moves.append(("node", v.id))
    for v in g.vertices:
        moves.append(("interior", v.id))
    kind, tgt = rng.choice(moves)
    eid = f"X{g.picard_rank}_{rng.randrange(10**6)}"
    if kind == "edge":
        return bg.blowup_corner(g, edge=tgt, new_id=eid), eid
    if kind == "node":
        return bg.blowup_corner(g, node=tgt, new_id=eid), eid
    return bg.blowup_interior(g, tgt, new_id=eid), eid


WITNESS_SQS = tuple(range(-4, 9)) + (
    Fraction(7, 2), Fraction(-5, 2), Fraction(1, 3), Fraction(-4, 3)
)


def random_witness_fiber(rng: random.Random) -> bg.BoundaryGraph:
    """An index-one Calabi-Yau graph for the witness search.

    A nodal curve, two curves meeting twice, or a cycle of 3 or 4 curves,
    then scrambled by 0-2 random corner blow-ups.  Self-intersections are
    drawn from ``WITNESS_SQS``, for half the graphs from its nonpositive
    part, where witnesses are rare and the search runs to its depth.  With
    every coefficient one, any self-intersections balance.
    """
    sqs = WITNESS_SQS if rng.randrange(2) else [s for s in WITNESS_SQS if s <= 0]
    shape = rng.choice(("nodal", "pair", "cycle", "cycle"))
    if shape == "nodal":
        vs, es = [("B", rng.choice(sqs), 1, 1)], []
    elif shape == "pair":
        vs = [(f"C{i}", rng.choice(sqs), 1) for i in (1, 2)]
        es = [("C1", "C2", 2)]
    else:
        k = rng.randint(3, 4)
        vs = [(f"C{i}", rng.choice(sqs), 1) for i in range(k)]
        es = [(f"C{i}", f"C{(i + 1) % k}") for i in range(k)]
    g = bg.BoundaryGraph.build(vs, es, rho=len(vs))
    for _ in range(rng.randint(0, 2)):
        targets = [(e.a, e.b) for e in g.edges] + [v.id for v in g.vertices if v.nodes]
        target = rng.choice(targets)
        if isinstance(target, tuple):
            g = bg.blowup_corner(g, edge=target)
        else:
            g = bg.blowup_corner(g, node=target)
    return g


def random_coefficient_one_graph(rng: random.Random) -> bg.BoundaryGraph:
    """A coefficient-one graph of at most seven curves, balanced for about
    half the draws.

    One to three components, each a nodal curve, two curves meeting twice
    or a cycle of 3 or 4 curves, which balance whatever their
    self-intersections (drawn from ``WITNESS_SQS``, fractions included).
    Half the graphs are then changed at one place: a node count redrawn
    in 0-2, a multiplicity redrawn in 1-3, an edge dropped, or an edge
    moved from one end to another curve, which keeps the sum of the
    residuals.  Half the triangles whose edges all remain get a marked
    point through their three curves.
    """
    vs, es, triangles = {}, {}, []
    for c in "ABC"[: rng.randint(1, 3)]:
        if len(vs) >= 4:
            break
        shape = rng.choice(("nodal", "pair", "cycle"))
        k = {"nodal": 1, "pair": 2, "cycle": rng.randint(3, 4)}[shape]
        ids = [f"{c}{i}" for i in range(k)]
        for vid in ids:
            vs[vid] = [rng.choice(WITNESS_SQS), int(shape == "nodal")]
        if shape == "pair":
            es[tuple(ids)] = 2
        elif shape == "cycle":
            es.update({tuple(sorted((a, b))): 1 for a, b in zip(ids, ids[1:] + ids[:1])})
            if k == 3:
                triangles.append(ids)
    change = rng.choice(("none",) * 4 + ("nodes", "m", "drop", "move"))
    if change == "nodes":
        vs[rng.choice(list(vs))][1] = rng.randint(0, 2)
    elif change in ("m", "drop", "move") and es:
        edge = rng.choice(sorted(es))
        m = es.pop(edge)
        if change == "m":
            es[edge] = rng.randint(1, 3)
        elif change == "move":
            # a lone pair has no other curve, and keeps its edge
            others = [c for c in vs if c not in edge] or [edge[1]]
            moved = tuple(sorted((edge[0], rng.choice(others))))
            es[moved] = es.get(moved, 0) + m
    points = [
        t for t in triangles
        if all(pair in es for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
        and rng.randrange(2)
    ]
    return bg.BoundaryGraph.build(
        [(vid, sq, 1, nodes) for vid, (sq, nodes) in vs.items()],
        [(a, b, m) for (a, b), m in es.items()],
        points,
        rho=len(vs) + 1,
    )


def gram_matrix(g: bg.BoundaryGraph, ids) -> list[list]:
    """The intersection matrix of the curves ``ids`` of ``g``, in that
    order, read entry by entry through ``vertex`` and ``intersection``."""
    return [[g.vertex(a).self_int if a == b else g.intersection(a, b) for b in ids] for a in ids]


def spec_of(g: bg.BoundaryGraph) -> fc.FiberSpec:
    """The fiber spec read off a coefficient-one graph: the curves' squares
    as its components, each irreducible over the base; a node when some
    edge or self-node exists; the boundary's square (every multiplicity 1)
    as the volume; and the number of curves as the rank."""
    return fc.FiberSpec.build(
        [(v.self_int, True) for v in g.vertices],
        bool(g.edges) or any(v.nodes for v in g.vertices),
        bg.divisor_square(g, dict.fromkeys(g.ids(), 1)),
        len(g.vertices),
    )


def resolved_boundary(spec: ga.PairSpec) -> bg.BoundaryGraph:
    """The boundary of a nodal pair spec on its minimal resolution, with
    coefficient one.  The boundary is anticanonical, so its square is the
    volume v.  A node in the smooth locus is one nodal curve of square v;
    a node at an A_n point is the cycle of the strict transform, of square
    v - 2, and the chain E1..En of (-2)-curves."""
    v = ga.volume_of(spec.singularities)
    if isinstance(spec.boundary, ga.NodalAtA):
        return bg.resolve_An_at_node(v, spec.boundary.n)
    return bg.BoundaryGraph.build([("B", v, 1, 1)], rho=1)
