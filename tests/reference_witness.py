"""Three oracles for the witness search, and one for the fiber criteria.

``prop51_witness_search`` here is the brute-force search as it stood
before the integer scan, the frontier deduplication and the
negative-definite skip: every blow-up script in breadth-first order and
every multiplicity vector in ``product`` order, with ``Fraction``
arithmetic throughout.  It is too slow past depth 2.

``pruned_witness_search`` is the search with those three prunings as it
stood while its scan still read each graph rather than the graph's search
key, and before the search stopped at two blow-ups; it reaches depths 3
to 5.  ``check_pic1`` and ``check_pic2`` are the criteria as they stood
before they shared one body.  The code is kept verbatim apart from the
renames; ``cypair.fiber_criteria`` must return exactly what these
return, or raise the same error.

``has_witness`` is new: the closed form of the two-blow-up lemma in
``cypair.fiber_criteria.prop51_witness_search``, which builds no blow-up
and says only whether the search finds a witness at depth 2 or more.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from cypair import boundary_graph as bg
from cypair.fiber_criteria import (
    BoundaryMeetsSingularities,
    FiberSpec,
    PreconditionFailed,
    Verdict,
    Witness,
    WrongRank,
    _first_divisor,
    _negative_definite,
)


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
    ids = {v.id for v in g.vertices}
    present = [i for i in support_ids if i in ids]
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


def has_witness(fiber: bg.BoundaryGraph, cap: int) -> bool:
    """Whether some nonzero m with entries in 0..cap has m^T G m >= c(m).

    G is the Gram matrix of the fiber's curves, and c(m) the least loss of
    D^2 that gets a corner off the support of D = sum m_v C_v within two
    corner blow-ups: (m_a + m_b)^2 + min(m_a, m_b)^2 at a corner of C_a
    and C_b (0 if it already misses the support, m_a^2 if blowing it up
    once does, else blow up the new curve's corner with the cheaper
    branch), and 5 m_v^2 at a node of C_v (4 m_v^2, then m_v^2 again).
    """
    ids = fiber.ids()
    for mults in product(range(cap + 1), repeat=len(ids)):
        if not any(mults):
            continue
        m = dict(zip(ids, mults))
        sq = Fraction(0)
        for v in fiber.vertices:
            sq += m[v.id] ** 2 * v.self_int
        for e in fiber.edges:
            sq += 2 * e.multiplicity * m[e.a] * m[e.b]
        costs = [(m[e.a] + m[e.b]) ** 2 + min(m[e.a], m[e.b]) ** 2 for e in fiber.edges]
        costs += [5 * m[v.id] ** 2 for v in fiber.vertices if v.nodes]
        if costs and sq >= min(costs):
            return True
    return False


# -- the pruned search and the criteria, before the scan read only the key ---


def _pruned_divisor_witness(g: bg.BoundaryGraph, index: dict, cap: int):
    """The first (divisor, node) of graph ``g`` in the scan order, or None.

    Multiplicities range over the original components, the keys of
    ``index`` in the fiber's order; the form is the Gram matrix of their
    strict transforms scaled by the common denominator of the
    self-intersections, which keeps its sign exact.
    A boundary node is missed by a divisor when none of its original
    components is in the support; the first missed node in sorted order
    is memoized per support.
    """
    by_id = {v.id: v for v in g.vertices}
    sqs = [by_id[vid].self_int for vid in index]
    scale = lcm(*(s.denominator for s in sqs))
    gram = [[0] * len(sqs) for _ in sqs]
    for i, s in enumerate(sqs):
        gram[i][i] = s.numerator * (scale // s.denominator)
    for e in g.edges:
        if e.a in index and e.b in index:
            i, j = index[e.a], index[e.b]
            gram[i][j] = gram[j][i] = scale * e.multiplicity
    if _negative_definite(gram):
        return None
    nodes = _boundary_nodes(g)
    masks = [sum(1 << index[vid] for vid in node[1:] if vid in index) for node in nodes]
    first: dict[int, tuple | None] = {}

    def first_node(support: int):
        if support not in first:
            first[support] = next(
                (node for node, mask in zip(nodes, masks) if not mask & support), None
            )
        return first[support]

    m = _first_divisor(gram, lambda support: first_node(support) is not None, cap)
    if m is None:
        return None
    support = sum(1 << i for i, x in enumerate(m) if x)
    return dict(zip(index, m)), first_node(support)


def _search_key(g: bg.BoundaryGraph, index: dict) -> tuple:
    """What the witness search reads of a blow-up of the fiber.

    The self-intersection and node count of each original component, in
    the fiber's order, and the sorted multiset of edges as (i, j,
    multiplicity) with i <= j the original indices and -1 for an
    exceptional curve.
    """
    by_id = {v.id: v for v in g.vertices}
    originals = tuple((by_id[vid].self_int, by_id[vid].nodes) for vid in index)
    edges = []
    for e in g.edges:
        i, j = index.get(e.a, -1), index.get(e.b, -1)
        edges.append((min(i, j), max(i, j), e.multiplicity))
    return originals, tuple(sorted(edges))


def pruned_witness_search(
    fiber: bg.BoundaryGraph, max_blowups: int = 3, coeff_cap: int = 6
) -> Witness | None:
    """The pruned search as it stood before its scan read only the search key."""
    if max_blowups < 0 or coeff_cap < 1:
        raise PreconditionFailed("witness search needs max_blowups >= 0 and coeff_cap >= 1")
    if any(v.coeff != 1 for v in fiber.vertices):
        raise PreconditionFailed("witness search needs all boundary coefficients equal to 1")
    if not bg.is_calabi_yau(fiber):
        raise PreconditionFailed("witness search needs a Calabi-Yau balanced graph")
    index = {vid: i for i, vid in enumerate(fiber.ids())}
    seen = {_search_key(fiber, index)}
    frontier: list[tuple[bg.BoundaryGraph, tuple]] = [(fiber, ())]
    for depth in range(max_blowups + 1):
        for g, script in frontier:
            found = _pruned_divisor_witness(g, index, coeff_cap)
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
                key = _search_key(g2, index)
                if key not in seen:
                    seen.add(key)
                    nxt.append((g2, script + (target,)))
        frontier = nxt
    return None


def check_pic2(f: FiberSpec) -> Verdict:
    """Relative-rank-two criterion.

    Cluster type iff (1) the fiber boundary has a node, (2) every ambient
    boundary component restricts irreducibly to the fiber, and (3) some
    fiber component has positive self-intersection.
    """
    if f.rel_picard_rank != 2:
        raise WrongRank("check_pic2 needs relative Picard rank 2")
    if not f.boundary_in_smooth_locus:
        raise BoundaryMeetsSingularities(
            "standard models keep the fiber boundary in the smooth locus"
        )
    failed = []
    if not f.has_node:
        failed.append(1)
    if not all(c.irreducible_over_base for c in f.components):
        failed.append(2)
    if not any(c.self_int > 0 for c in f.components):
        failed.append(3)
    return Verdict(not failed, tuple(failed))


def check_pic1(f: FiberSpec) -> Verdict:
    """Relative-rank-one criterion.

    Cluster type iff the single boundary component is nodal, irreducible
    over the base, and the fiber volume is at least 5.
    """
    if f.rel_picard_rank != 1:
        raise WrongRank("check_pic1 needs relative Picard rank 1")
    if not f.boundary_in_smooth_locus:
        raise BoundaryMeetsSingularities(
            "standard models keep the fiber boundary in the smooth locus"
        )
    failed = []
    if not f.has_node:
        failed.append(1)
    if not f.components[0].irreducible_over_base:
        failed.append(2)
    if not f.volume >= 5:
        failed.append(3)
    return Verdict(not failed, tuple(failed))
