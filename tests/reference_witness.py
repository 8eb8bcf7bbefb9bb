"""The brute-force witness search, kept as the oracle for the pruned one.

This is the search as it stood before the integer scan, the frontier
deduplication and the negative-definite skip: every blow-up script in
breadth-first order and every multiplicity vector in ``product`` order,
with ``Fraction`` arithmetic throughout.  ``cypair.fiber_criteria`` must
return exactly what this returns, or raise the same error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from cypair import boundary_graph as bg
from cypair.fiber_criteria import PreconditionFailed, Witness


def _boundary_nodes(g: bg.BoundaryGraph) -> list[tuple]:
    """Intersection points and self-nodes of the boundary, sorted: the
    corner blow-up targets."""
    nodes: list[tuple] = []
    for e in g.edges:
        nodes.append(("edge", e.a, e.b))
    for v in g.vertices:
        if v.nodes >= 1:
            nodes.append(("node", v.id))
    return sorted(nodes)


def _divisor_witness(g: bg.BoundaryGraph, support_ids: list[str], cap: int):
    present = [i for i in support_ids if g.has_vertex(i)]
    nodes = _boundary_nodes(g)
    for mults in product(range(cap + 1), repeat=len(present)):
        if not any(mults):
            continue
        m = dict(zip(present, mults))
        sq = Fraction(0)
        for vid, mv in m.items():
            sq += mv * mv * g.vertex(vid).self_int
        for i, a in enumerate(present):
            for b in present[i + 1 :]:
                sq += 2 * m[a] * m[b] * g.intersection(a, b)
        if sq < 0:
            continue
        for node in nodes:
            if node[0] == "edge":
                _, a, b = node
                if m.get(a, 0) == 0 and m.get(b, 0) == 0:
                    return m, node
            else:
                if m.get(node[1], 0) == 0:
                    return m, node
    return None


def prop51_witness_search(
    fiber: bg.BoundaryGraph, max_blowups: int = 3, coeff_cap: int = 6
) -> Witness | None:
    """Search for a nonnegative divisor on a toric blow-up of the fiber.

    Breadth-first over corner blow-up scripts of length at most
    ``max_blowups`` (at boundary nodes and intersection points, in sorted
    order); on each resulting graph, effective divisors supported on the
    strict transforms of the original components with multiplicities up to
    ``coeff_cap`` are scanned for nonnegative self-intersection together
    with a boundary node outside their support.  Returns the first witness
    in this deterministic order, or None.

    The fiber must be an index-one Calabi-Yau boundary graph: every
    coefficient one and every adjunction residual zero.  ``max_blowups``
    must be at least 0 and ``coeff_cap`` at least 1; anything less would
    search nothing and report a false "no witness".
    """
    if max_blowups < 0 or coeff_cap < 1:
        raise PreconditionFailed("witness search needs max_blowups >= 0 and coeff_cap >= 1")
    if any(v.coeff != 1 for v in fiber.vertices):
        raise PreconditionFailed("witness search needs all boundary coefficients equal to 1")
    if not bg.is_calabi_yau(fiber):
        raise PreconditionFailed("witness search needs a Calabi-Yau balanced graph")
    original = fiber.ids()
    frontier: list[tuple[bg.BoundaryGraph, tuple]] = [(fiber, ())]
    for depth in range(max_blowups + 1):
        for g, script in frontier:
            found = _divisor_witness(g, original, coeff_cap)
            if found:
                m, node = found
                return Witness(script, m, node)
        if depth == max_blowups:
            break
        nxt = []
        for g, script in frontier:
            for target in _boundary_nodes(g):
                if target[0] == "edge":
                    g2 = bg.blowup_corner(g, edge=(target[1], target[2]))
                else:
                    g2 = bg.blowup_corner(g, node=target[1])
                nxt.append((g2, script + (target,)))
        frontier = nxt
    return None
