"""The Calabi-Yau test and the surgery functions, kept as the oracle.

This is ``validate_cy`` as it stood before the single-pass residuals,
with ``Fraction`` arithmetic and a scan of every edge per vertex, and
the blow-ups, the blow-down and ``is_crepant_blowdown`` as they stood
before the trusted constructor: every result goes through the validating
``BoundaryGraph.build`` and every changed vertex through the checking
``CurveVertex`` constructor.  ``cypair.boundary_graph`` must return equal
values, or raise the same error with the same message.

``contract_minus2_chains`` is kept as it stood before the integer
pull-back: a k-by-k loop of ``Fraction`` products per survivor and
chain, and ``intersection`` lookups for every entry of the intersection
vector.  Like the program's, it contracts every maximal chain.  Its
``_check_chain`` and the overlap loop keep every check of the explicit
chains the function once took (distinct ids, (-2)-curves, chords through
``chain.index``, overlaps), so they check the chain walk independently:
a chain that the program contracts must pass all of them.
``_minus2_components`` is the chain walk as it stood before it looked
back one vertex only: each step scans the whole chain so far.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from cypair import boundary_graph as bg


def _other(e: bg.Edge, v: str) -> str:
    """The end of ``e`` that is not ``v``."""
    return e.b if v == e.a else e.a


def validate_cy(g: bg.BoundaryGraph) -> list[tuple[str, Fraction]]:
    """Adjunction residual of each vertex, in id order.

    For a rational curve C with self-intersection c, coefficient b and
    delta nodes the residual is (2*delta - 2 - c) + b*c + sum over the
    other components of coeff * intersection.  The pair is Calabi-Yau iff
    every residual vanishes.  Marked points refine where intersections sit
    and contribute nothing here.
    """
    coeff = {v.id: v.coeff for v in g.vertices}
    out = []
    for v in g.vertices:
        r = Fraction(2 * v.nodes - 2) - v.self_int + v.coeff * v.self_int
        for e in g.edges:
            if v.id in (e.a, e.b):
                r += coeff[_other(e, v.id)] * e.multiplicity
        out.append((v.id, r))
    return out


def _fresh_id(g: bg.BoundaryGraph, prefix: str = "E") -> str:
    used = set(g.ids())
    k = 1
    while f"{prefix}{k}" in used:
        k += 1
    return f"{prefix}{k}"


def _with_vertex(vs, vid, **changes):
    return tuple(bg.CurveVertex(**{**v._asdict(), **changes}) if v.id == vid else v for v in vs)


def blowup_corner(g: bg.BoundaryGraph, edge=None, node=None, new_id=None) -> bg.BoundaryGraph:
    """Crepant blow-up of one intersection point of the boundary.

    Either one point of an edge (pass ``edge=(a, b)``) or one node of a
    single curve (pass ``node=vertex_id``).  The exceptional curve gets
    self-intersection -1 and the crepant coefficient: b_a + b_b - 1 at an
    edge point, 2*b_c - 1 at a node.  The Picard rank grows by one.
    """
    if (edge is None) == (node is None):
        raise bg.NoSuchIntersection("pass exactly one of edge=(a, b) or node=vertex_id")
    eid = new_id or _fresh_id(g)
    if any(v.id == eid for v in g.vertices):
        raise bg.InvalidGraph(f"vertex id {eid!r} already in use")
    if edge is not None:
        a, b = edge
        e = g.edge_between(a, b)
        if e is None:
            raise bg.NoSuchIntersection(f"no intersection point between {a!r} and {b!r}")
        # crossings sitting at marked points are not ordinary corner points
        marked = sum(1 for p in g.marked_points if a in p.branches and b in p.branches)
        if e.multiplicity - marked < 1:
            raise bg.NoSuchIntersection(
                f"every intersection point of {a!r} and {b!r} lies at a marked point"
            )
        va, vb = g.vertex(a), g.vertex(b)
        new_vertex = bg.CurveVertex(eid, Fraction(-1), va.coeff + vb.coeff - 1)
        vs = _with_vertex(g.vertices, a, self_int=va.self_int - 1)
        vs = _with_vertex(vs, b, self_int=vb.self_int - 1)
        es = [x for x in g.edges if x != e]
        if e.multiplicity > 1:
            es.append(bg.Edge(e.a, e.b, e.multiplicity - 1))
        es += [bg.Edge(*sorted((eid, a))), bg.Edge(*sorted((eid, b)))]
        return bg.BoundaryGraph.build(vs + (new_vertex,), es, g.marked_points, g.picard_rank + 1)
    vc = g.vertex(node)
    if vc.nodes < 1:
        raise bg.NoSuchIntersection(f"{node!r} has no nodes")
    new_vertex = bg.CurveVertex(eid, Fraction(-1), 2 * vc.coeff - 1)
    vs = _with_vertex(g.vertices, node, self_int=vc.self_int - 4, nodes=vc.nodes - 1)
    es = list(g.edges) + [bg.Edge(*sorted((eid, node)), multiplicity=2)]
    return bg.BoundaryGraph.build(vs + (new_vertex,), es, g.marked_points, g.picard_rank + 1)


def blowup_interior(g: bg.BoundaryGraph, vertex: str, new_id=None) -> bg.BoundaryGraph:
    """Crepant blow-up of a smooth point of one component.

    The exceptional curve gets coefficient b_c - 1 (a sub-pair when b_c < 1)
    and meets the strict transform once.
    """
    vc = g.vertex(vertex)
    eid = new_id or _fresh_id(g)
    if any(v.id == eid for v in g.vertices):
        raise bg.InvalidGraph(f"vertex id {eid!r} already in use")
    new_vertex = bg.CurveVertex(eid, Fraction(-1), vc.coeff - 1)
    vs = _with_vertex(g.vertices, vertex, self_int=vc.self_int - 1)
    es = list(g.edges) + [bg.Edge(*sorted((eid, vertex)))]
    return bg.BoundaryGraph.build(vs + (new_vertex,), es, g.marked_points, g.picard_rank + 1)


def blowdown(g: bg.BoundaryGraph, vertex: str) -> bg.BoundaryGraph:
    """Contract a (-1)-curve without nodes.

    Each neighbour C with m intersection points gains m^2 on its
    self-intersection and m-choose-2 new nodes; every neighbour pair gains
    the product of their multiplicities in new intersection points.  The
    contracted coefficient is discarded: use is_crepant_blowdown to test
    whether the contraction preserves the log Calabi-Yau structure.
    """
    v = g.vertex(vertex)
    if v.self_int != -1:
        raise bg.NotMinusOneCurve(f"{vertex!r} has self-intersection {v.self_int}, not -1")
    if v.nodes != 0:
        raise bg.VertexHasNodes(f"{vertex!r} carries nodes and is not a smooth (-1)-curve")
    if any(vertex in p.branches for p in g.marked_points):
        raise bg.InvalidGraph(f"{vertex!r} appears in a marked point")
    incident = [e for e in g.edges if vertex in (e.a, e.b)]
    mults = {_other(e, vertex): e.multiplicity for e in incident}
    vs = []
    for w in g.vertices:
        if w.id == vertex:
            continue
        m = mults.get(w.id, 0)
        vs.append(bg.CurveVertex(w.id, w.self_int + m * m, w.coeff, w.nodes + m * (m - 1) // 2))
    pair_gain = {}
    for a, b in combinations(sorted(mults), 2):
        pair_gain[(a, b)] = mults[a] * mults[b]
    es = []
    for e in g.edges:
        if vertex in (e.a, e.b):
            continue
        gain = pair_gain.pop((e.a, e.b), 0)
        es.append(bg.Edge(e.a, e.b, e.multiplicity + gain))
    for (a, b), m in pair_gain.items():
        es.append(bg.Edge(a, b, m))
    return bg.BoundaryGraph.build(vs, es, g.marked_points, g.picard_rank - 1)


def is_crepant_blowdown(g: bg.BoundaryGraph, vertex: str) -> bool:
    """Whether contracting the (-1)-curve inverts a crepant blow-up.

    A contraction is crepant exactly when the coefficient equals the value
    a blow-up would assign, i.e. the sum over neighbours of coeff times
    multiplicity, minus one.
    """
    v = g.vertex(vertex)
    if v.self_int != -1 or v.nodes != 0:
        return False
    expected = sum(
        (g.vertex(_other(e, vertex)).coeff * e.multiplicity
         for e in g.edges if vertex in (e.a, e.b)),
        Fraction(-1),
    )
    return v.coeff == expected


def _minus2_components(g: bg.BoundaryGraph) -> list[list[str]]:
    """Maximal chains of (-2)-vertices, each ordered along the path."""
    twos = {v.id for v in g.vertices if v.self_int == -2}
    adj = {v: set() for v in twos}
    for e in g.edges:
        if e.a in twos and e.b in twos:
            adj[e.a].add(e.b)
            adj[e.b].add(e.a)
    chains = []
    seen = set()
    for start in sorted(twos):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        ends = sorted(x for x in comp if len(adj[x] & comp) <= 1)
        if not ends:
            raise bg.NotMinusTwoChain(f"(-2)-curves {sorted(comp)} form a cycle, not a chain")
        chain = [ends[0]]
        while len(chain) < len(comp):
            nxt = [y for y in adj[chain[-1]] if y in comp and y not in chain]
            if len(nxt) != 1:
                raise bg.NotMinusTwoChain(
                    f"(-2)-curves {sorted(comp)} do not form a simple path"
                )
            chain.append(nxt[0])
        chains.append(chain)
    return chains


def _check_chain(g: bg.BoundaryGraph, chain: list[str]) -> None:
    if len(set(chain)) != len(chain) or not chain:
        raise bg.NotMinusTwoChain("chain must list distinct vertices")
    coeffs = set()
    for vid in chain:
        v = g.vertex(vid)
        if v.self_int != -2:
            raise bg.NotMinusTwoChain(f"{vid!r} has self-intersection {v.self_int}, not -2")
        if v.nodes:
            raise bg.NotMinusTwoChain(f"{vid!r} carries nodes")
        coeffs.add(v.coeff)
    if len(coeffs) > 1:
        raise bg.NotMinusTwoChain("chain coefficients differ")
    for a, b in zip(chain, chain[1:]):
        if g.intersection(a, b) != 1:
            raise bg.NotMinusTwoChain(f"{a!r} and {b!r} are not chain neighbours")
    for a, b in combinations(chain, 2):
        if abs(chain.index(a) - chain.index(b)) > 1 and g.intersection(a, b) != 0:
            raise bg.NotMinusTwoChain("chain has a chord")


def contract_minus2_chains(g: bg.BoundaryGraph) -> bg.ChainContraction:
    """Contract every maximal chain of (-2)-curves to an A_k singular point.

    The returned singular model keeps the surviving curves with their
    self-intersections corrected by the rational pull-back contribution of
    each chain (so they may become non-integral) and the edges among them;
    where two survivors meet at a new singular point, that intersection is
    not recorded.  Each contracted chain of k curves leaves one A_k point,
    listed in ``mark_ranks``.
    """
    chains = _minus2_components(g)
    for chain in chains:
        _check_chain(g, chain)
    removed = set()
    for chain in chains:
        if removed & set(chain):
            raise bg.NotMinusTwoChain("chains overlap")
        removed |= set(chain)
    sq_gain = {v.id: Fraction(0) for v in g.vertices}
    for chain in chains:
        k = len(chain)
        for v in g.vertices:
            if v.id in removed:
                continue
            vec = tuple(g.intersection(v.id, c) for c in chain)
            if any(vec):
                # rational self-intersection correction from the pull-back:
                # vec . M^{-1} . vec with M^{-1}_{ij} = min(i,j)(k+1-max(i,j))/(k+1)
                # in 1-based chain coordinates
                gain = Fraction(0)
                for i in range(k):
                    for j in range(k):
                        gain += (
                            vec[i]
                            * vec[j]
                            * Fraction((min(i, j) + 1) * (k - max(i, j)), k + 1)
                        )
                sq_gain[v.id] += gain
    vs = [
        bg.CurveVertex(v.id, v.self_int + sq_gain[v.id], v.coeff, v.nodes)
        for v in g.vertices
        if v.id not in removed
    ]
    es = [e for e in g.edges if e.a not in removed and e.b not in removed]
    mps = [p for p in g.marked_points if not (set(p.branches) & removed)]
    singular = bg.BoundaryGraph.build(vs, es, mps, g.picard_rank - len(removed))
    return bg.ChainContraction(singular, sorted(len(chain) for chain in chains))
