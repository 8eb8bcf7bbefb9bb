"""Crepant surgery calculus on weighted dual graphs of surface pairs.

A pair (X, B) is recorded as its boundary dual graph: one vertex per curve
component carrying its exact self-intersection, its coefficient in B and
its number of nodes (self-crossings); one edge per pair of components
carrying the number of transverse intersection points; optional marked
points where three or more branches meet at one point.  The ambient Picard
rank is tracked explicitly, since a dual graph does not determine the
lattice.

All graphs are immutable values; every operation returns a new graph.
Self-nodes are vertex-local counters rather than loop edges, which keeps
the blow-down arithmetic (the m-choose-2 rule) explicit.

The value types here and in the other modules are ``namedtuple``
subclasses with empty ``__slots__``: their repr, hash, ordering and
same-class equality are those of the tuple of their fields, and fields
cannot be set.  Three tuple traits remain:

- A record equals the plain tuple of its fields.
- ``_replace`` skips ``__new__``, so build through the constructor
  wherever a check matters.
- ``Fan2.__len__`` breaks ``_make`` and ``_replace`` on ``Fan2``, so do
  not call either on it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import attrgetter

from .rationals import as_rational, rational_to_json


class GraphError(Exception):
    """Base class for dual-graph errors."""


class InvalidGraph(GraphError):
    pass


class NoSuchVertex(GraphError):
    pass


class NoSuchIntersection(GraphError):
    pass


class NotMinusOneCurve(GraphError):
    pass


class VertexHasNodes(GraphError):
    pass


class NotMinusTwoChain(GraphError):
    pass


class MarkedPointNotLC(GraphError):
    pass


class InvalidCoefficient(GraphError):
    pass


class CurveVertex(namedtuple("CurveVertex", "id self_int coeff nodes")):
    """A rational boundary curve: self-intersection, coefficient, node count."""

    __slots__ = ()

    def __new__(cls, id: str, self_int: Fraction, coeff: Fraction, nodes: int = 0):
        if coeff > 1:
            raise InvalidGraph(f"coefficient of {id} exceeds 1")
        if nodes < 0:
            raise InvalidGraph(f"negative node count on {id}")
        return super().__new__(cls, id, self_int, coeff, nodes)


class Edge(namedtuple("Edge", "a b multiplicity")):
    """Transverse intersection points between two distinct curves."""

    __slots__ = ()

    def __new__(cls, a: str, b: str, multiplicity: int = 1):
        if a == b:
            raise InvalidGraph("self-loops are vertex node counters, not edges")
        if multiplicity < 1:
            raise InvalidGraph("edge multiplicity must be positive")
        return super().__new__(cls, a, b, multiplicity)

    def other(self, v: str) -> str:
        return self.b if v == self.a else self.a


class MarkedPoint(namedtuple("MarkedPoint", "branches")):
    """A point where at least three boundary branches meet transversally."""

    __slots__ = ()

    def __new__(cls, branches: tuple[str, ...]):
        if len(branches) < 3:
            raise InvalidGraph("marked points need at least 3 branches")
        return super().__new__(cls, branches)


class BoundaryGraph(
    namedtuple("BoundaryGraph", "vertices edges marked_points picard_rank", defaults=((), 1))
):
    __slots__ = ()

    @staticmethod
    def build(vertices, edges=(), marked_points=(), rho: int = 1) -> "BoundaryGraph":
        """Normalized, validating constructor: the public way to make a graph.

        ``vertices`` is an iterable of (id, self_int, coeff[, nodes]) tuples
        or CurveVertex objects; ``edges`` of (a, b[, mult]) tuples or Edge
        objects; ``marked_points`` of branch-id tuples.  Vertices and edges
        are stored sorted so equal graphs compare equal.  Ids must be
        unique, edges and marked points must name existing vertices, every
        two branches of a marked point must meet there (so two curves meet
        at least once per marked point through both), and the Picard rank
        must be positive.  Surgery results skip these re-checks through
        ``_surgery_result``; everything else comes here.
        """
        vs = []
        for v in vertices:
            if isinstance(v, CurveVertex):
                vs.append(v)
            else:
                vid, sq, coeff, *rest = v
                nodes = rest[0] if rest else 0
                vs.append(CurveVertex(str(vid), as_rational(sq), as_rational(coeff), int(nodes)))
        ids = [v.id for v in vs]
        if len(set(ids)) != len(ids):
            raise InvalidGraph("duplicate vertex id")
        known = set(ids)
        es = []
        for e in edges:
            if not isinstance(e, Edge):
                a, b, *rest = e
                m = rest[0] if rest else 1
                a, b = str(a), str(b)
                if a > b:
                    a, b = b, a
                e = Edge(a, b, int(m))
            elif e.a > e.b:
                e = Edge(e.b, e.a, e.multiplicity)
            if e.a not in known or e.b not in known:
                raise InvalidGraph(f"edge {e.a}-{e.b} references a missing vertex")
            es.append(e)
        if len({(e.a, e.b) for e in es}) != len(es):
            raise InvalidGraph("duplicate edge; merge multiplicities instead")
        mps = []
        for p in marked_points:
            if not isinstance(p, MarkedPoint):
                p = MarkedPoint(tuple(str(b) for b in p))
            if any(b not in known for b in p.branches):
                raise InvalidGraph("marked point references a missing vertex")
            mps.append(p)
        # a marked point is an intersection point of every two of its branches
        through = Counter(pair for p in mps for pair in combinations(sorted(set(p.branches)), 2))
        points = {(e.a, e.b): e.multiplicity for e in es}
        for (a, b), n in through.items():
            if points.get((a, b), 0) < n:
                raise InvalidGraph(
                    f"marked points through {a!r} and {b!r} outnumber their intersection points"
                )
        if rho < 1:
            raise InvalidGraph("Picard rank must be positive")
        return BoundaryGraph(
            vertices=tuple(sorted(vs)),
            edges=tuple(sorted(es)),
            marked_points=tuple(sorted(mps)),
            picard_rank=int(rho),
        )

    # -- lookups ---------------------------------------------------------

    def vertex(self, vid: str) -> CurveVertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise NoSuchVertex(f"no vertex {vid!r}")

    def has_vertex(self, vid: str) -> bool:
        return any(v.id == vid for v in self.vertices)

    def edge_between(self, a: str, b: str) -> Edge | None:
        a, b = (a, b) if a < b else (b, a)
        for e in self.edges:
            if (e.a, e.b) == (a, b):
                return e
        return None

    def edges_at(self, vid: str) -> list[Edge]:
        return [e for e in self.edges if vid in (e.a, e.b)]

    def intersection(self, a: str, b: str) -> int:
        """C_a . C_b for distinct curves (edge multiplicity, 0 if disjoint)."""
        e = self.edge_between(a, b)
        return e.multiplicity if e else 0

    def ids(self) -> list[str]:
        return [v.id for v in self.vertices]


# -- Calabi-Yau balance ---------------------------------------------------


def _scaled_residuals(g: BoundaryGraph) -> tuple[dict, int]:
    """Adjunction residuals times a common denominator, as exact ints.

    Returns ({id: residual * scale}, scale) with scale the lcm of the
    coefficient denominators times the lcm of the self-intersection
    denominators.  Each vertex's self-intersection and coefficient are
    read once, as integer ratios; then one pass over the vertices and one
    over the edges.  Fields may be ``int`` or ``Fraction``.
    """
    vs = g.vertices
    sqs, coeffs = [], []
    for v in vs:
        sqs.append(v.self_int.as_integer_ratio())
        coeffs.append(v.coeff.as_integer_ratio())
    # lcm over a list, never a generator: on the 20-plus-vertex graphs of
    # long surgery sequences lcm(*<generator>) fragmented the heap, and peak
    # RSS rose by about 3 MB over 15 repeated passes with no live growth
    # (test_repeated_surgery_passes_keep_rss_flat)
    lb = lcm(*[d for _, d in coeffs])
    lc = lcm(*[d for _, d in sqs])
    scale = lb * lc
    coeff, res = {}, {}
    for v, (sn, sd), (cn, cd) in zip(vs, sqs, coeffs):
        b = cn * (lb // cd)
        coeff[v.id] = b
        res[v.id] = (2 * v.nodes - 2) * scale + (b - lb) * (sn * (lc // sd))
    for e in g.edges:
        m = e.multiplicity * lc
        res[e.a] += coeff[e.b] * m
        res[e.b] += coeff[e.a] * m
    return res, scale


def validate_cy(g: BoundaryGraph) -> list[tuple[str, Fraction]]:
    """Adjunction residual of each vertex, in id order.

    For a rational curve C with self-intersection c, coefficient b and
    delta nodes the residual is (2*delta - 2 - c) + b*c + sum over the
    other components of coeff * intersection.  The pair is Calabi-Yau iff
    every residual vanishes.  Marked points refine where intersections sit
    and contribute nothing here.
    """
    res, scale = _scaled_residuals(g)
    return [(v.id, Fraction(res[v.id], scale)) for v in g.vertices]


def is_calabi_yau(g: BoundaryGraph) -> bool:
    """Whether every adjunction residual vanishes, tested in ``int``."""
    return not any(_scaled_residuals(g)[0].values())


# -- numerical invariants --------------------------------------------------


def complexity(g: BoundaryGraph) -> Fraction:
    """Dimension (2) + Picard rank - sum of boundary coefficients."""
    return Fraction(2 + g.picard_rank) - sum((v.coeff for v in g.vertices), Fraction(0))


def coregularity(g: BoundaryGraph) -> int:
    """Coregularity in {0, 1, 2} of an SNC pair with ordinary marked points.

    0 when two coefficient-one curves meet, a coefficient-one curve is
    nodal, or the branch coefficients at a marked point sum to 2; else 1
    when some curve has coefficient one; else 2.
    """
    coeff = {v.id: v.coeff for v in g.vertices}
    for v in g.vertices:
        if v.coeff < 0:
            raise InvalidCoefficient("coregularity needs boundary coefficients in [0, 1]")
    for p in g.marked_points:
        s = sum(coeff[b] for b in p.branches)
        if s > 2:
            raise MarkedPointNotLC(f"branch coefficients at marked point sum to {s} > 2")
    for e in g.edges:
        if coeff[e.a] == 1 and coeff[e.b] == 1:
            return 0
    if any(v.coeff == 1 and v.nodes >= 1 for v in g.vertices):
        return 0
    if any(sum(coeff[b] for b in p.branches) == 2 for p in g.marked_points):
        return 0
    if any(v.coeff == 1 for v in g.vertices):
        return 1
    return 2


def index_integral(g: BoundaryGraph) -> bool:
    """Necessary condition for index one: every coefficient is an integer."""
    return all(v.coeff.denominator == 1 for v in g.vertices)


def reduced_volume(g: BoundaryGraph, components=None) -> Fraction:
    """Self-intersection of the sum of the given components.

    Defaults to the coefficient-one reduced part.  Under a blow-up at a
    point of multiplicity m of that part, the value drops by m^2 when
    restricted to the strict transforms of the same components.
    """
    if components is None:
        components = [v.id for v in g.vertices if v.coeff == 1]
    comp = set(components)
    total = sum((g.vertex(c).self_int for c in comp), Fraction(0))
    for a, b in combinations(sorted(comp), 2):
        total += 2 * g.intersection(a, b)
    return total


# -- exceptional ids -------------------------------------------------------


def _fresh_id(g: BoundaryGraph) -> str:
    used = set(g.ids())
    k = 1
    while f"E{k}" in used:
        k += 1
    return f"E{k}"


def _surgery_result(vertices, edges, marked_points, rho: int) -> BoundaryGraph:
    """Trusted constructor for blow-up and blow-down results only.

    Sorts vertices and edges into the order ``build`` stores them in (ids
    and endpoint pairs are unique, so the keys decide) but re-normalizes
    and re-checks nothing else: surgery on a valid graph keeps ids unique,
    edges normalized and marked points valid.  It can drop the Picard rank
    below one, so that check stays.
    """
    if rho < 1:
        raise InvalidGraph("Picard rank must be positive")
    return BoundaryGraph(
        vertices=tuple(sorted(vertices, key=attrgetter("id"))),
        edges=tuple(sorted(edges, key=attrgetter("a", "b"))),
        marked_points=marked_points,
        picard_rank=rho,
    )


def _with_vertex(vs, vids, d_sq, d_nodes=0) -> list[CurveVertex]:
    """``vs`` with the vertices named in ``vids`` shifted in self_int and nodes."""
    return [
        CurveVertex(v.id, v.self_int + d_sq, v.coeff, v.nodes + d_nodes) if v.id in vids else v
        for v in vs
    ]


# -- blow-ups and blow-downs ------------------------------------------------


def blowup_corner(g: BoundaryGraph, edge=None, node=None, new_id=None) -> BoundaryGraph:
    """Crepant blow-up of one intersection point of the boundary.

    Either one point of an edge (pass ``edge=(a, b)``) or one node of a
    single curve (pass ``node=vertex_id``).  The exceptional curve gets
    self-intersection -1 and the crepant coefficient: b_a + b_b - 1 at an
    edge point, 2*b_c - 1 at a node.  The Picard rank grows by one.
    Crossings sitting at marked points are not ordinary corner points, so
    an edge needs more points than the marked points through both curves.
    """
    if (edge is None) == (node is None):
        raise NoSuchIntersection("pass exactly one of edge=(a, b) or node=vertex_id")
    eid = new_id or _fresh_id(g)
    if g.has_vertex(eid):
        raise InvalidGraph(f"vertex id {eid!r} already in use")
    if edge is not None:
        a, b = edge
        e = g.edge_between(a, b)
        if e is None:
            raise NoSuchIntersection(f"no intersection point between {a!r} and {b!r}")
        if e.multiplicity <= sum(1 for p in g.marked_points if a in p.branches and b in p.branches):
            raise NoSuchIntersection(
                f"every intersection point of {a!r} and {b!r} lies at a marked point"
            )
        va, vb = g.vertex(a), g.vertex(b)
        vs = _with_vertex(g.vertices, (a, b), -1)
        vs.append(CurveVertex(eid, Fraction(-1), va.coeff + vb.coeff - 1))
        es = [x for x in g.edges if x is not e]
        if e.multiplicity > 1:
            es.append(Edge(e.a, e.b, e.multiplicity - 1))
        es += [Edge(*sorted((eid, a))), Edge(*sorted((eid, b)))]
        return _surgery_result(vs, es, g.marked_points, g.picard_rank + 1)
    vc = g.vertex(node)
    if vc.nodes < 1:
        raise NoSuchIntersection(f"{node!r} has no nodes")
    vs = _with_vertex(g.vertices, (node,), -4, -1)
    vs.append(CurveVertex(eid, Fraction(-1), 2 * vc.coeff - 1))
    es = [*g.edges, Edge(*sorted((eid, node)), multiplicity=2)]
    return _surgery_result(vs, es, g.marked_points, g.picard_rank + 1)


def blowup_interior(g: BoundaryGraph, vertex: str, new_id=None) -> BoundaryGraph:
    """Crepant blow-up of a smooth point of one component.

    The exceptional curve gets coefficient b_c - 1 (a sub-pair when b_c < 1)
    and meets the strict transform once.
    """
    vc = g.vertex(vertex)
    eid = new_id or _fresh_id(g)
    if g.has_vertex(eid):
        raise InvalidGraph(f"vertex id {eid!r} already in use")
    vs = _with_vertex(g.vertices, (vertex,), -1)
    vs.append(CurveVertex(eid, Fraction(-1), vc.coeff - 1))
    es = [*g.edges, Edge(*sorted((eid, vertex)))]
    return _surgery_result(vs, es, g.marked_points, g.picard_rank + 1)


def blowdown(g: BoundaryGraph, vertex: str) -> BoundaryGraph:
    """Contract a (-1)-curve without nodes.

    Each neighbour C with m intersection points gains m^2 on its
    self-intersection and m-choose-2 new nodes; every neighbour pair gains
    the product of their multiplicities in new intersection points.  The
    contracted coefficient is discarded: use is_crepant_blowdown to test
    whether the contraction preserves the log Calabi-Yau structure.
    Vertices and edges the contraction does not touch are reused as they are.
    """
    v = g.vertex(vertex)
    if v.self_int != -1:
        raise NotMinusOneCurve(f"{vertex!r} has self-intersection {v.self_int}, not -1")
    if v.nodes != 0:
        raise VertexHasNodes(f"{vertex!r} carries nodes and is not a smooth (-1)-curve")
    if any(vertex in p.branches for p in g.marked_points):
        raise InvalidGraph(f"{vertex!r} appears in a marked point")
    mults = {e.other(vertex): e.multiplicity for e in g.edges_at(vertex)}
    vs = []
    for w in g.vertices:
        m = mults.get(w.id)
        if m:
            w = CurveVertex(w.id, w.self_int + m * m, w.coeff, w.nodes + m * (m - 1) // 2)
        elif w.id == vertex:
            continue
        vs.append(w)
    pair_gain = {(a, b): mults[a] * mults[b] for a, b in combinations(sorted(mults), 2)}
    es = []
    for e in g.edges:
        if vertex in (e.a, e.b):
            continue
        gain = pair_gain.pop((e.a, e.b), 0)
        es.append(Edge(e.a, e.b, e.multiplicity + gain) if gain else e)
    es += [Edge(a, b, m) for (a, b), m in pair_gain.items()]
    return _surgery_result(vs, es, g.marked_points, g.picard_rank - 1)


def is_crepant_blowdown(g: BoundaryGraph, vertex: str) -> bool:
    """Whether contracting the (-1)-curve inverts a crepant blow-up.

    A contraction is crepant exactly when the coefficient equals the value
    a blow-up would assign, i.e. the sum over neighbours of coeff times
    multiplicity, minus one.
    """
    v = g.vertex(vertex)
    if v.self_int != -1 or v.nodes != 0:
        return False
    coeff = {w.id: w.coeff for w in g.vertices}
    expected = sum(
        (coeff[e.other(vertex)] * e.multiplicity for e in g.edges_at(vertex)),
        Fraction(-1),
    )
    return v.coeff == expected


# -- A_n arithmetic ---------------------------------------------------------


def resolve_An_at_node(B_sq, n: int, base_rank: int = 1) -> BoundaryGraph:
    """Minimal resolution of an A_n point sitting at the node of a curve B.

    Returns the dual graph of the resolved pair: the strict transform with
    self-intersection B^2 - 2 and no node, plus a chain E1..En of
    (-2)-curves, everything with coefficient one.  The two branches of the
    node hit the two chain ends (for n = 1, the single chain curve twice).
    The Picard rank is base_rank + n.
    """
    if n < 1:
        raise InvalidGraph("n must be at least 1")
    B_sq = as_rational(B_sq)
    vs = [("B", B_sq - 2, 1, 0)] + [(f"E{i}", -2, 1, 0) for i in range(1, n + 1)]
    if n == 1:
        es = [("B", "E1", 2)]
    else:
        es = [("B", "E1", 1), ("B", f"E{n}", 1)]
        es += [(f"E{i}", f"E{i+1}", 1) for i in range(1, n)]
    return BoundaryGraph.build(vs, es, rho=base_rank + n)


class ChainContraction(namedtuple("ChainContraction", "singular mark_ranks")):
    """The singular model, and the rank k of each A_k point it gained, sorted."""

    __slots__ = ()


def _minus2_components(g: BoundaryGraph) -> list[list[str]]:
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
            raise NotMinusTwoChain(f"(-2)-curves {sorted(comp)} form a cycle, not a chain")
        chain = [ends[0]]
        while len(chain) < len(comp):
            nxt = [y for y in adj[chain[-1]] if y in comp and y not in chain]
            if len(nxt) != 1:
                raise NotMinusTwoChain(f"(-2)-curves {sorted(comp)} do not form a simple path")
            chain.append(nxt[0])
        chains.append(chain)
    return chains


def _check_chain(g: BoundaryGraph, chain: list[str]) -> None:
    if len(set(chain)) != len(chain) or not chain:
        raise NotMinusTwoChain("chain must list distinct vertices")
    coeffs = set()
    for vid in chain:
        v = g.vertex(vid)
        if v.self_int != -2:
            raise NotMinusTwoChain(f"{vid!r} has self-intersection {v.self_int}, not -2")
        if v.nodes:
            raise NotMinusTwoChain(f"{vid!r} carries nodes")
        coeffs.add(v.coeff)
    if len(coeffs) > 1:
        raise NotMinusTwoChain("chain coefficients differ")
    for a, b in zip(chain, chain[1:]):
        if g.intersection(a, b) != 1:
            raise NotMinusTwoChain(f"{a!r} and {b!r} are not chain neighbours")
    for i, a in enumerate(chain):
        for b in chain[i + 2:]:
            if g.intersection(a, b) != 0:
                raise NotMinusTwoChain("chain has a chord")


def contract_minus2_chains(g: BoundaryGraph, chains=None) -> ChainContraction:
    """Contract chains of (-2)-curves to A_k singular-point marks.

    Without an explicit ``chains`` argument every maximal chain of
    (-2)-vertices is taken.  The returned singular model keeps the
    surviving curves with their self-intersections corrected by the
    rational pull-back contribution of each chain (so they may become
    non-integral) and the edges among them; where two survivors meet at a
    new singular point, that intersection is not recorded.  Each contracted
    chain of k curves leaves one A_k point, listed in ``mark_ranks``.
    """
    if chains is None:
        chains = _minus2_components(g)
    else:
        chains = [list(c) for c in chains]
    for chain in chains:
        _check_chain(g, chain)
    removed = set()
    for chain in chains:
        if removed & set(chain):
            raise NotMinusTwoChain("chains overlap")
        removed |= set(chain)
    # where each contracted curve sits: (chain number, 0-based position)
    where = {c: (n, i) for n, chain in enumerate(chains) for i, c in enumerate(chain)}
    # the nonzero entries of each survivor's intersection vector with each chain
    meets = {}
    for e in g.edges:
        for a, b in ((e.a, e.b), (e.b, e.a)):
            if a not in where and b in where:
                n, i = where[b]
                meets.setdefault((a, n), []).append((i, e.multiplicity))
    sq_gain = {v.id: Fraction(0) for v in g.vertices}
    for (vid, n), vec in meets.items():
        # rational self-intersection correction from the pull-back:
        # vec . M^{-1} . vec with M^{-1}_{ij} = (min(i,j)+1)(k-max(i,j))/(k+1)
        # in 0-based chain positions, summed over the integer numerators
        k = len(chains[n])
        num = sum(mi * mj * (min(i, j) + 1) * (k - max(i, j)) for i, mi in vec for j, mj in vec)
        sq_gain[vid] += Fraction(num, k + 1)
    vs = [
        CurveVertex(v.id, v.self_int + sq_gain[v.id], v.coeff, v.nodes)
        for v in g.vertices
        if v.id not in removed
    ]
    es = [e for e in g.edges if e.a not in removed and e.b not in removed]
    mps = [p for p in g.marked_points if not (set(p.branches) & removed)]
    singular = BoundaryGraph.build(vs, es, mps, g.picard_rank - len(removed))
    return ChainContraction(singular, sorted(len(chain) for chain in chains))


# -- isomorphism -------------------------------------------------------------


def weighted_isomorphic(g1: BoundaryGraph, g2: BoundaryGraph, with_coeff: bool = False) -> bool:
    """Graph isomorphism respecting self-intersections, nodes and edge
    multiplicities (and coefficients when ``with_coeff``)."""

    def label(v: CurveVertex):
        return (v.self_int, v.nodes, v.coeff) if with_coeff else (v.self_int, v.nodes)

    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if sorted(map(label, g1.vertices)) != sorted(map(label, g2.vertices)):
        return False

    ids1 = g1.ids()
    cand = {
        a: [b for b in g2.ids() if label(g2.vertex(b)) == label(g1.vertex(a))] for a in ids1
    }
    ids1.sort(key=lambda a: len(cand[a]))

    def extend(assign: dict[str, str]) -> bool:
        if len(assign) == len(ids1):
            return True
        a = ids1[len(assign)]
        used = set(assign.values())
        for b in cand[a]:
            if b in used:
                continue
            if all(
                g1.intersection(a, x) == g2.intersection(b, y) for x, y in assign.items()
            ):
                assign[a] = b
                if extend(assign):
                    return True
                del assign[a]
        return False

    return extend({})


# -- JSON and serialization ---------------------------------------------------


def graph_to_json(g: BoundaryGraph) -> dict:
    out = {
        "rho": g.picard_rank,
        "vertices": [
            {
                "id": v.id,
                "sq": rational_to_json(v.self_int),
                "coeff": rational_to_json(v.coeff),
                "nodes": v.nodes,
            }
            for v in g.vertices
        ],
        "edges": [{"a": e.a, "b": e.b, "m": e.multiplicity} for e in g.edges],
    }
    if g.marked_points:
        out["marked_points"] = [{"branches": list(p.branches)} for p in g.marked_points]
    return out


_JSON_KINDS = {int: "an integer", str: "a string", list: "an array"}


def _json_typed(value, kind: type, field: str):
    """``value`` if its JSON type is ``kind`` (a boolean is not an integer)."""
    if type(value) is not kind:
        raise InvalidGraph(
            f"malformed graph JSON: {field} must be {_JSON_KINDS[kind]}, got {value!r}"
        )
    return value


def graph_from_json(data: dict) -> BoundaryGraph:
    if not isinstance(data, dict) or "vertices" not in data:
        raise InvalidGraph("graph JSON needs a 'vertices' array")
    try:
        vs = [
            (_json_typed(v["id"], str, "id"), as_rational(v["sq"]),
             as_rational(v.get("coeff", 1)), _json_typed(v.get("nodes", 0), int, "nodes"))
            for v in data["vertices"]
        ]
        es = [
            (_json_typed(e["a"], str, "a"), _json_typed(e["b"], str, "b"),
             _json_typed(e.get("m", 1), int, "m"))
            for e in data.get("edges", ())
        ]
        mps = [
            tuple(
                _json_typed(b, str, "branch") for b in _json_typed(p["branches"], list, "branches")
            )
            for p in data.get("marked_points", ())
        ]
        rho = _json_typed(data.get("rho", 1), int, "rho")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed graph JSON: {exc}") from exc
    return BoundaryGraph.build(vs, es, mps, rho)
