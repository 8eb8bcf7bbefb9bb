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

A vertex stores an integral self-intersection or coefficient as an
``int`` and any other as a ``Fraction``; ``CurveVertex`` normalizes, so
surgery and chain contraction results take the same form as parsed ones.
The two forms compare and hash equal, but their reprs differ (``-1``
against ``Fraction(-1, 1)``).  ``validate_cy`` still returns its
residuals as ``Fraction``s.

A graph keeps its vertices in id order and its edges in (a, b) order.
``build`` sorts what it reads, and nothing else sorts: surgery and chain
contraction keep every value they keep or re-derive in place and insert
each new value with ``bisect.insort``, so ``_store`` takes the order it
is given.

The value types here and in the other modules are ``namedtuple``
classes: their repr, hash, ordering and same-class equality are those of
the tuple of their fields, and fields cannot be set.  A type with a check
or a method is a subclass with empty ``__slots__``; the rest are plain
namedtuples.  Two tuple traits remain:

- A record equals the plain tuple of its fields.
- ``_make`` and ``_replace`` skip ``__new__`` and its checks.  Surgery on
  a valid graph builds with ``_make`` only the values it re-derives from
  kept curves and edges, whose invariants hold by construction; every new
  value goes through its constructor.  ``_store`` states the same rule
  for the graph.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm

from .rationals import as_rational, rational_to_json, typed


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
        # integral rationals are stored as int, so every path stores one form
        if self_int.denominator == 1:
            self_int = self_int.numerator
        if coeff.denominator == 1:
            coeff = coeff.numerator
        if coeff > 1:
            raise InvalidGraph(f"coefficient of {id} exceeds 1")
        if nodes < 0:
            raise InvalidGraph(f"negative node count on {id}")
        return super().__new__(cls, id, self_int, coeff, nodes)


class Edge(namedtuple("Edge", "a b multiplicity")):
    """Transverse intersection points between two distinct curves a < b."""

    __slots__ = ()

    def __new__(cls, a: str, b: str, multiplicity: int = 1):
        if a == b:
            raise InvalidGraph("self-loops are vertex node counters, not edges")
        if multiplicity < 1:
            raise InvalidGraph("edge multiplicity must be positive")
        if a > b:
            a, b = b, a
        return super().__new__(cls, a, b, multiplicity)


class MarkedPoint(namedtuple("MarkedPoint", "branches")):
    """A point where at least three boundary branches meet transversally."""

    __slots__ = ()

    def __new__(cls, branches):
        # a string would split into one-character branch ids
        if isinstance(branches, str):
            raise InvalidGraph(f"marked point {branches!r} is a string, not a branch list")
        branches = tuple(str(b) for b in branches)
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

        ``vertices`` is an iterable of (id, self_int, coeff[, nodes]) tuples,
        ``edges`` of (a, b[, mult]) tuples, both read alike from
        ``CurveVertex`` and ``Edge`` values, and ``marked_points`` of
        branch-id tuples or ``MarkedPoint`` values; a tuple of another length
        or a string marked point is refused.  Node counts, multiplicities and
        the rank must be ``int``s, not ``bool``s.  Ids must be unique, edges
        and marked points must name existing vertices, and every two branches
        of a marked point must meet there (so two curves meet at least once
        per marked point through both).  The first bad vertex or edge decides
        the error.  Sorts the vertices and edges it read, the one sort of a
        graph, and stores them through ``_store``, as surgery results are.
        """
        vs = []
        for v in vertices:
            if not 3 <= len(v) <= 4:
                raise _wrong_length("vertex", v[:1], len(v), 3)
            vid, sq, coeff, *rest = v
            nodes = typed(rest[0] if rest else 0, int, "nodes", InvalidGraph)
            vs.append(CurveVertex(str(vid), as_rational(sq), as_rational(coeff), nodes))
        known = {v.id for v in vs}
        if len(known) != len(vs):
            raise InvalidGraph("duplicate vertex id")
        es = []
        for e in edges:
            if not 2 <= len(e) <= 3:
                raise _wrong_length("edge", e[:2], len(e), 2)
            a, b, *rest = e
            m = typed(rest[0] if rest else 1, int, "multiplicity", InvalidGraph)
            e = Edge(str(a), str(b), m)
            if e.a not in known or e.b not in known:
                raise InvalidGraph(f"edge {e.a}-{e.b} references a missing vertex")
            es.append(e)
        points = {(e.a, e.b): e.multiplicity for e in es}
        if len(points) != len(es):
            raise InvalidGraph("duplicate edge; merge multiplicities instead")
        mps = []
        for p in marked_points:
            p = MarkedPoint(p.branches if isinstance(p, MarkedPoint) else p)
            if any(b not in known for b in p.branches):
                raise InvalidGraph("marked point references a missing vertex")
            mps.append(p)
        # a marked point is an intersection point of every two of its branches
        through = Counter(pair for p in mps for pair in combinations(sorted(set(p.branches)), 2))
        for (a, b), n in through.items():
            if points.get((a, b), 0) < n:
                raise InvalidGraph(
                    f"marked points through {a!r} and {b!r} outnumber their intersection points"
                )
        return _store(sorted(vs), sorted(es), tuple(sorted(mps)),
                      typed(rho, int, "rho", InvalidGraph))

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

    Returns ({id: residual * scale}, scale).  While every self-intersection
    c and coefficient b read so far is an ``int``, a vertex's residual is
    2*delta - 2 + (b - 1)*c with scale 1, and the edges then add b_w * m:
    ``CurveVertex`` stores every integral rational as an ``int``, so this
    path sees all of an integral graph and computes in ``int`` exactly.
    The first ``Fraction`` sends the graph down the scaled path instead:
    scale is the lcm of the coefficient denominators times the lcm of the
    self-intersection denominators, each field is read once as an integer
    ratio, then one pass over the vertices and one over the edges.
    """
    coeff, res = {}, {}
    for vid, sq, b, nodes in g.vertices:
        if type(sq) is not int or type(b) is not int:
            break
        coeff[vid] = b
        res[vid] = 2 * nodes - 2 + (b - 1) * sq
    else:
        for a, b, m in g.edges:
            res[a] += coeff[b] * m
            res[b] += coeff[a] * m
        return res, 1
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
    and contribute nothing here.  The residuals are ``Fraction``s even
    when integral, as they have always been printed.
    """
    res, scale = _scaled_residuals(g)
    return [(v.id, Fraction(res[v.id], scale)) for v in g.vertices]


def is_calabi_yau(g: BoundaryGraph) -> bool:
    """Whether every adjunction residual vanishes, tested in ``int``."""
    return not any(_scaled_residuals(g)[0].values())


# -- numerical invariants --------------------------------------------------


def complexity(g: BoundaryGraph) -> Fraction:
    """Dimension (2) + Picard rank - sum of boundary coefficients."""
    return Fraction(2 + g.picard_rank - sum(v.coeff for v in g.vertices))


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


def divisor_square(g: BoundaryGraph, multiplicities: dict) -> Fraction:
    """Self-intersection of the divisor sum of m * C over
    ``multiplicities``, a mapping from vertex id to multiplicity m.

    Under a blow-up at a point of multiplicity mu of the divisor, the
    value drops by mu^2 when restricted to the strict transforms of the
    same components.  One pass over the vertices and one over the edges;
    the witness checker calls it, so it shares nothing with the search.
    """
    squares = {v.id: v.self_int for v in g.vertices}
    total = Fraction(0)
    for c, m in multiplicities.items():
        if c not in squares:
            raise NoSuchVertex(f"no vertex {c!r}")
        total += m * m * squares[c]
    for a, b, k in g.edges:
        if a in multiplicities and b in multiplicities:
            total += 2 * multiplicities[a] * multiplicities[b] * k
    return total


# -- exceptional ids -------------------------------------------------------


def _wrong_length(kind: str, name: tuple, n: int, least: int) -> InvalidGraph:
    """The error for a ``kind`` tuple of ``n`` fields whose id fields are ``name``."""
    label = "-".join(map(str, name))
    return InvalidGraph(f"{kind} {label} has {n} fields, not {least} or {least + 1}")


def _new_id(g: BoundaryGraph, new_id) -> str:
    """The exceptional curve's id: the caller's ``new_id``, refused when a
    curve has it, or else the first ``E<k>`` that no curve has."""
    if new_id:
        if new_id in g.ids():
            raise InvalidGraph(f"vertex id {new_id!r} already in use")
        return new_id
    used = set(g.ids())
    k = 1
    while f"E{k}" in used:
        k += 1
    return f"E{k}"


def _store(vertices, edges, marked_points, rho: int) -> BoundaryGraph:
    """The one store of a graph: for ``build``, surgery and chain contraction.

    Takes vertices in id order and edges in (a, b) order, and marked
    points sorted, and sorts nothing: ``build`` sorts what it reads, and
    surgery and contraction keep that order.  Ids are unique and so are
    endpoint pairs, so a tuple's own order is the id order and the (a, b)
    order.  Checks that the Picard rank is positive, which a blow-down or
    a contraction can break, and re-checks nothing else: ``build`` has,
    and surgery or contraction on a valid graph keeps ids unique, edges in
    order and marked points valid.
    """
    if rho < 1:
        raise InvalidGraph("Picard rank must be positive")
    return BoundaryGraph(tuple(vertices), tuple(edges), marked_points, rho)


def _add_curve(g: BoundaryGraph, vs: list, es: list, eid: str, coeff, new_edges) -> BoundaryGraph:
    """A blow-up of g, stored: the kept and lowered curves ``vs`` and the
    kept edges ``es``, both in order, with the exceptional curve ``eid``
    of coefficient ``coeff`` and its ``new_edges`` inserted in order.  The
    Picard rank grows by one."""
    insort(vs, CurveVertex(eid, -1, coeff))
    for e in new_edges:
        insort(es, e)
    return _store(vs, es, g.marked_points, g.picard_rank + 1)


# -- blow-ups and blow-downs ------------------------------------------------


def blowup_corner(g: BoundaryGraph, edge=None, node=None, new_id=None) -> BoundaryGraph:
    """Crepant blow-up of one intersection point of the boundary.

    Either one point of an edge (pass ``edge=(a, b)``) or one node of a
    single curve (pass ``node=vertex_id``).  The exceptional curve gets
    self-intersection -1 and the crepant coefficient: b_a + b_b - 1 at an
    edge point, 2*b_c - 1 at a node.  The Picard rank grows by one.
    Crossings sitting at marked points are not ordinary corner points, so
    an edge needs more points than the marked points through both curves.
    A caller's ``new_id`` is checked for use first.  One pass over the
    edges keeps the others and puts the split edge's m - 1 points in its
    place, and one over the vertices re-derives the lowered endpoints or
    the nodal curve in place.  Those, and the split edge, are built with
    ``_make``: an integer step keeps a self-intersection's stored form,
    coefficients do not change, a node is taken only from a curve that
    has one, and the split edge keeps a < b and at least one point.  The
    exceptional curve and its edges go through their checking
    constructors and are inserted in order by ``_add_curve``.
    """
    if (edge is None) == (node is None):
        raise NoSuchIntersection("pass exactly one of edge=(a, b) or node=vertex_id")
    eid = _new_id(g, new_id)
    vs, make = [], CurveVertex._make
    if edge is not None:
        a, b = edge
        lo, hi = (a, b) if a < b else (b, a)
        es, e = [], None
        for x in g.edges:
            if x.a == lo and x.b == hi:
                e = x
                if x.multiplicity > 1:
                    es.append(Edge._make((lo, hi, x.multiplicity - 1)))
            else:
                es.append(x)
        if e is None:
            raise NoSuchIntersection(f"no intersection point between {a!r} and {b!r}")
        m = e.multiplicity
        if m <= sum(1 for p in g.marked_points if a in p.branches and b in p.branches):
            raise NoSuchIntersection(
                f"every intersection point of {a!r} and {b!r} lies at a marked point"
            )
        coeff = -1
        for v in g.vertices:
            if v.id == a or v.id == b:
                coeff += v.coeff
                v = make((v.id, v.self_int - 1, v.coeff, v.nodes))
            vs.append(v)
        return _add_curve(g, vs, es, eid, coeff, (Edge(eid, a), Edge(eid, b)))
    coeff = None
    for v in g.vertices:
        if v.id == node:
            if v.nodes < 1:
                raise NoSuchIntersection(f"{node!r} has no nodes")
            coeff = 2 * v.coeff - 1
            v = make((node, v.self_int - 4, v.coeff, v.nodes - 1))
        vs.append(v)
    if coeff is None:
        raise NoSuchVertex(f"no vertex {node!r}")
    return _add_curve(g, vs, list(g.edges), eid, coeff, (Edge(eid, node, 2),))


def blowup_interior(g: BoundaryGraph, vertex: str, new_id=None) -> BoundaryGraph:
    """Crepant blow-up of a smooth point of one component.

    The exceptional curve gets coefficient b_c - 1 (a sub-pair when b_c < 1)
    and meets the strict transform once.  One pass over the vertices finds
    the component and lowers it in place, with ``_make``; a caller's
    ``new_id`` is then checked for use, and the new curve and its edge go
    through their checking constructors and are inserted in order by
    ``_add_curve``.
    """
    vs, coeff = [], None
    for v in g.vertices:
        if v.id == vertex:
            coeff = v.coeff - 1
            v = CurveVertex._make((vertex, v.self_int - 1, v.coeff, v.nodes))
        vs.append(v)
    if coeff is None:
        raise NoSuchVertex(f"no vertex {vertex!r}")
    eid = _new_id(g, new_id)
    return _add_curve(g, vs, list(g.edges), eid, coeff, (Edge(eid, vertex),))


def blowdown(g: BoundaryGraph, vertex: str) -> BoundaryGraph:
    """Contract a (-1)-curve without nodes.

    Each neighbour C with m intersection points gains m^2 on its
    self-intersection and m-choose-2 new nodes; every neighbour pair gains
    the product of their multiplicities in new intersection points.  The
    contracted coefficient is discarded: use is_crepant_blowdown to test
    whether the contraction preserves the log Calabi-Yau structure.
    One pass over the edges collects the curve's multiplicities and keeps
    the other edges, and one over the vertices finds the curve and
    re-derives its neighbours; only an edge between two neighbours looks
    up its gain.  Vertices and edges the contraction does not touch are
    reused, and every kept value stays in its place.  The re-derived
    neighbours and the kept edges that gain points are built with
    ``_make``, since integer gains keep the stored form and counts only
    grow; new edges between neighbours go through ``Edge`` and are
    inserted in order.
    """
    mults, es = {}, []
    for e in g.edges:
        if e.a == vertex:
            mults[e.b] = e.multiplicity
        elif e.b == vertex:
            mults[e.a] = e.multiplicity
        else:
            es.append(e)
    vs, v, make = [], None, CurveVertex._make
    for w in g.vertices:
        if w.id == vertex:
            v = w
        elif m := mults.get(w.id):
            vs.append(make((w.id, w.self_int + m * m, w.coeff, w.nodes + m * (m - 1) // 2)))
        else:
            vs.append(w)
    if v is None:
        raise NoSuchVertex(f"no vertex {vertex!r}")
    if v.self_int != -1:
        raise NotMinusOneCurve(f"{vertex!r} has self-intersection {v.self_int}, not -1")
    if v.nodes != 0:
        raise VertexHasNodes(f"{vertex!r} carries nodes and is not a smooth (-1)-curve")
    if any(vertex in p.branches for p in g.marked_points):
        raise InvalidGraph(f"{vertex!r} appears in a marked point")
    if len(mults) > 1:
        pair_gain = {(a, b): mults[a] * mults[b] for a, b in combinations(sorted(mults), 2)}
        for i, e in enumerate(es):
            if e.a in mults and e.b in mults:
                es[i] = Edge._make((e.a, e.b, e.multiplicity + pair_gain.pop((e.a, e.b))))
        for (a, b), m in pair_gain.items():
            insort(es, Edge(a, b, m))
    return _store(vs, es, g.marked_points, g.picard_rank - 1)


def is_crepant_blowdown(g: BoundaryGraph, vertex: str) -> bool:
    """Whether contracting the (-1)-curve inverts a crepant blow-up.

    A contraction is crepant exactly when the coefficient b equals the value
    a blow-up would assign, the sum over neighbours of coeff times
    multiplicity, minus one.  For a smooth (-1)-curve the adjunction
    residual is -1 - b plus that sum, so this is the curve's own residual
    being zero.
    """
    v = g.vertex(vertex)
    return v.self_int == -1 and v.nodes == 0 and not _scaled_residuals(g)[0][vertex]


# -- A_n arithmetic ---------------------------------------------------------


def resolve_An_at_node(B_sq, n: int) -> BoundaryGraph:
    """Minimal resolution of an A_n point sitting at the node of a curve B.

    Returns the dual graph of the resolved pair: the strict transform with
    self-intersection B^2 - 2 and no node, plus a chain E1..En of
    (-2)-curves, everything with coefficient one.  The two branches of the
    node hit the two chain ends (for n = 1, the single chain curve twice).
    The Picard rank is 1 + n: one class for the surface B lies on, one per Ei.
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
    return BoundaryGraph.build(vs, es, rho=1 + n)


ChainContraction = namedtuple("ChainContraction", "singular mark_ranks")
ChainContraction.__doc__ = (
    "The singular model, and the rank k of each A_k point it gained, sorted."
)


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
        ends = [x for x in comp if len(adj[x]) <= 1]
        if not ends:
            raise NotMinusTwoChain(f"(-2)-curves {sorted(comp)} form a cycle, not a chain")
        # each curve passed meets only its two chain neighbours: none but prev is behind
        chain, prev = [min(ends)], None
        while len(chain) < len(comp):
            nxt = [y for y in adj[chain[-1]] if y != prev]
            if len(nxt) != 1:
                raise NotMinusTwoChain(f"(-2)-curves {sorted(comp)} do not form a simple path")
            prev = chain[-1]
            chain.append(nxt[0])
        chains.append(chain)
    return chains


def _check_chain(chain: list[str], vertex: dict, meet: dict) -> None:
    for vid in chain:
        if vertex[vid].nodes:
            raise NotMinusTwoChain(f"{vid!r} carries nodes")
    if len({vertex[vid].coeff for vid in chain}) > 1:
        raise NotMinusTwoChain("chain coefficients differ")
    for a, b in zip(chain, chain[1:]):
        if meet[a, b] != 1:
            raise NotMinusTwoChain(f"{a!r} and {b!r} are not chain neighbours")


def contract_minus2_chains(g: BoundaryGraph) -> ChainContraction:
    """Contract every maximal chain of (-2)-curves to an A_k singular point.

    That is the anticanonical model: a (-2)-curve C left out has K.C = 0,
    so a partial contraction is not del Pezzo.  The singular model keeps the
    surviving curves with their self-intersections corrected by the
    rational pull-back of each chain (so they may become non-integral) and
    the edges among them; where two survivors meet at a new singular point,
    that intersection is not recorded.  Each chain of k curves leaves one
    A_k point in ``mark_ranks``.  Every component's shape is checked before
    any chain's nodes, coefficients and links.  Reads the graph into two
    maps once; sums each correction in ``int`` and reuses a survivor that
    meets no chain; filters the graph's sorted vertices and edges, so
    stores them through ``_store`` in order.
    """
    chains = _minus2_components(g)
    vertex = {v.id: v for v in g.vertices}
    meet = {}  # (a, b) and (b, a) -> the multiplicity of the edge between a and b
    for e in g.edges:
        meet[e.a, e.b] = meet[e.b, e.a] = e.multiplicity
    for chain in chains:
        _check_chain(chain, vertex, meet)
    # where each contracted curve sits: (chain number, 0-based position)
    where = {c: (n, i) for n, chain in enumerate(chains) for i, c in enumerate(chain)}
    # the nonzero entries of each survivor's intersection vector with each chain
    meets = {}
    for (a, b), m in meet.items():
        if a not in where and b in where:
            n, i = where[b]
            meets.setdefault((a, n), []).append((i, m))
    gain = {}
    den = lcm(*[len(chain) + 1 for chain in chains])
    for (vid, n), vec in meets.items():
        # rational self-intersection correction from the pull-back:
        # vec . M^{-1} . vec with M^{-1}_{ij} = (min(i,j)+1)(k-max(i,j))/(k+1)
        # in 0-based chain positions, summed as integers over den
        k = len(chains[n])
        num = sum(mi * mj * (min(i, j) + 1) * (k - max(i, j)) for i, mi in vec for j, mj in vec)
        gain[vid] = gain.get(vid, 0) + num * (den // (k + 1))
    vs = [v for v in g.vertices if v.id not in where]
    for i, v in enumerate(vs):
        if num := gain.get(v.id):
            n, d = v.self_int.as_integer_ratio()
            vs[i] = CurveVertex(v.id, Fraction(n * den + num * d, d * den), v.coeff, v.nodes)
    es = [e for e in g.edges if e.a not in where and e.b not in where]
    mps = tuple(p for p in g.marked_points if where.keys().isdisjoint(p.branches))
    singular = _store(vs, es, mps, g.picard_rank - len(where))
    return ChainContraction(singular, sorted(len(chain) for chain in chains))


# -- isomorphism -------------------------------------------------------------


def weighted_isomorphic(g1: BoundaryGraph, g2: BoundaryGraph) -> bool:
    """Graph isomorphism respecting self-intersections, nodes and edge
    multiplicities; coefficients are not compared."""

    def label(v: CurveVertex):
        return (v.self_int, v.nodes)

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


def graph_from_json(data: dict) -> BoundaryGraph:
    if not isinstance(data, dict) or "vertices" not in data:
        raise InvalidGraph("graph JSON needs a 'vertices' array")
    try:
        vs = [
            (typed(v["id"], str, "id"), as_rational(v["sq"]),
             as_rational(v.get("coeff", 1)), typed(v.get("nodes", 0), int, "nodes"))
            for v in data["vertices"]
        ]
        es = [
            (typed(e["a"], str, "a"), typed(e["b"], str, "b"), typed(e.get("m", 1), int, "m"))
            for e in data.get("edges", ())
        ]
        mps = [
            tuple(typed(b, str, "branch") for b in typed(p["branches"], list, "branches"))
            for p in data.get("marked_points", ())
        ]
        rho = typed(data.get("rho", 1), int, "rho")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed graph JSON: {exc}") from exc
    return BoundaryGraph.build(vs, es, mps, rho)
