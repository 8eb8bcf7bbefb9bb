"""Cluster-type predicates for standard models over toric bases.

The log general fiber of a standard model is summarized by a FiberSpec:
its boundary components with exact self-intersections, whether each one is
irreducible over the base (the monodromy condition), the node data, the
fiber volume and the relative Picard rank.  check_pic2 and check_pic1 are
the two decision criteria; node_blowup_reduce implements the reduction
from relative rank one to rank two by blowing up the node of the fiber
boundary.

weighted_corner_numbers and obstruction_value carry the exact intersection
arithmetic of the weighted corner blow-up (x^alpha, y^beta) at a boundary
node, and prop51_witness_search is the bounded search for the divisorial
witness that a fiber of a cluster-type model must admit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import boundary_graph as bg
from .rationals import as_rational, rational_to_json


class FiberError(Exception):
    """Base class for fiber-criteria errors."""


class WrongRank(FiberError):
    pass


class BoundaryMeetsSingularities(FiberError):
    pass


class PreconditionFailed(FiberError):
    pass


SMOOTH_POINT = "smooth"


def node_location(text: str) -> str:
    """Validate a node location: "smooth" or "A<n>"."""
    if not isinstance(text, str):
        raise FiberError(f"node location must be a string, got {text!r}")
    if text == SMOOTH_POINT:
        return text
    try:
        if text.startswith("A") and text[1:].isdigit() and int(text[1:]) >= 1:
            return text
    except ValueError:
        pass  # a digit string int() refuses: past the digit limit, or not decimal
    raise FiberError(f"bad node location {text!r}; expected 'smooth' or 'A<n>'")


def _flag(value, field: str, source: str = "fiber spec") -> bool:
    if not isinstance(value, bool):
        raise FiberError(f"{source}: {field} must be true or false, got {value!r}")
    return value


class FiberComponent(
    namedtuple("FiberComponent", "self_int irreducible_over_base", defaults=(True,))
):
    __slots__ = ()


class FiberSpec(
    namedtuple(
        "FiberSpec",
        "components has_node volume rel_picard_rank boundary_in_smooth_locus node_at",
    )
):
    __slots__ = ()

    def __new__(
        cls,
        components: tuple[FiberComponent, ...],
        has_node: bool,
        volume: Fraction,
        rel_picard_rank: int,
        boundary_in_smooth_locus: bool = True,
        node_at: str = SMOOTH_POINT,
    ):
        rank = rel_picard_rank
        if rank not in (1, 2):
            raise FiberError("relative Picard rank must be 1 or 2")
        # standard-model accounting: one horizontal component per unit of
        # relative rank below the relative dimension
        if len(components) != rank:
            raise FiberError(f"rank-{rank} fiber needs exactly {rank} boundary components")
        if volume <= 0:
            raise FiberError("fiber volume must be positive")
        node_location(node_at)
        return super().__new__(
            cls, components, has_node, volume, rank, boundary_in_smooth_locus, node_at
        )

    @staticmethod
    def build(components, has_node, volume, rank, smooth_locus=True, node_at=SMOOTH_POINT):
        """The spec from (self-intersection, irreducible) pairs.  The
        self-intersections and the volume are read with ``as_rational``;
        the rank must be an ``int`` and the flags ``bool``s, which are not
        coerced."""
        if type(rank) is not int:
            raise FiberError(f"fiber spec: rank must be an integer, got {rank!r}")
        comps = tuple(
            FiberComponent(as_rational(sq), _flag(irr, "irreducible"))
            for sq, irr in components
        )
        return FiberSpec(
            comps,
            _flag(has_node, "has_node"),
            as_rational(volume),
            rank,
            _flag(smooth_locus, "smooth_locus"),
            node_at,
        )


class Verdict(namedtuple("Verdict", "cluster_type failed_conditions", defaults=((),))):
    __slots__ = ()


class WeightedCornerData(
    namedtuple(
        "WeightedCornerData",
        "c1_tilde_sq c2_tilde_sq c1_dot_e c2_dot_e c1_dot_c2",
        defaults=(Fraction(1),),
    )
):
    """Intersection numbers after the (x^alpha, y^beta) corner blow-up."""

    __slots__ = ()


def _criterion(f: FiberSpec, rank: int, condition_3: bool) -> Verdict:
    """The body shared by the two criteria: guards, then the failed conditions.

    Condition (1) is a node of the fiber boundary and (2) the irreducibility
    of every component over the base; (3) is the rank's own condition.
    """
    if f.rel_picard_rank != rank:
        raise WrongRank(f"check_pic{rank} needs relative Picard rank {rank}")
    if not f.boundary_in_smooth_locus:
        raise BoundaryMeetsSingularities(
            "standard models keep the fiber boundary in the smooth locus"
        )
    irreducible = all(c.irreducible_over_base for c in f.components)
    failed = tuple(i for i, ok in enumerate((f.has_node, irreducible, condition_3), 1) if not ok)
    return Verdict(not failed, failed)


def check_pic2(f: FiberSpec) -> Verdict:
    """Relative-rank-two criterion.

    Cluster type iff (1) the fiber boundary has a node, (2) every ambient
    boundary component restricts irreducibly to the fiber, and (3) some
    fiber component has positive self-intersection.
    """
    return _criterion(f, 2, any(c.self_int > 0 for c in f.components))


def check_pic1(f: FiberSpec) -> Verdict:
    """Relative-rank-one criterion.

    Cluster type iff the single boundary component is nodal, irreducible
    over the base, and the fiber volume is at least 5.
    """
    return _criterion(f, 1, f.volume >= 5)


def node_blowup_reduce(f: FiberSpec) -> FiberSpec:
    """Blow up the node of a rank-one fiber boundary, yielding a rank-two spec.

    The strict transform keeps the inherited irreducibility flag and drops
    its self-intersection from vol to vol - 4; the exceptional curve is a
    (-1)-curve meeting the strict transform twice, and those two crossings
    are the nodes of the new boundary.  The recorded volume is unchanged;
    rank-two checking does not consume it.

    check_pic1(f) == check_pic2(node_blowup_reduce(f)) on integral volumes.
    """
    if f.rel_picard_rank != 1 or not f.has_node or f.node_at != SMOOTH_POINT:
        raise PreconditionFailed(
            "node blow-up needs a rank-one spec with a node at a smooth point"
        )
    strict = FiberComponent(f.volume - 4, f.components[0].irreducible_over_base)
    exceptional = FiberComponent(Fraction(-1), True)
    return FiberSpec(
        components=(strict, exceptional),
        has_node=True,
        volume=f.volume,
        rel_picard_rank=2,
        boundary_in_smooth_locus=f.boundary_in_smooth_locus,
    )


def weighted_corner_numbers(c1_sq, c2_sq, alpha: int, beta: int) -> WeightedCornerData:
    """Exact numbers after blowing up the ideal (x^alpha, y^beta) at a corner.

    The strict transforms meet the exceptional curve with C1~.E = 1/beta and
    C2~.E = 1/alpha, still meet each other once, and their
    self-intersections drop by alpha/beta and beta/alpha.
    """
    if alpha < 1 or beta < 1:
        raise FiberError("weights must be positive integers")
    c1_sq, c2_sq = as_rational(c1_sq), as_rational(c2_sq)
    return WeightedCornerData(
        c1_tilde_sq=c1_sq - Fraction(alpha, beta),
        c2_tilde_sq=c2_sq - Fraction(beta, alpha),
        c1_dot_e=Fraction(1, beta),
        c2_dot_e=Fraction(1, alpha),
    )


def obstruction_value(m1: int, m2: int, data: WeightedCornerData) -> Fraction:
    """Self-intersection of m1*C1~ + m2*C2~ after a weighted corner blow-up.

    For nonpositive input self-intersections this is at most
    -(alpha*m1 - beta*m2)^2 / (alpha*beta) <= 0, the obstruction that rules
    out a nonnegative divisor supported on the two strict transforms.
    """
    c1, c2, cc = data.c1_tilde_sq, data.c2_tilde_sq, data.c1_dot_c2
    num = (
        m1 * m1 * c1.numerator * c2.denominator * cc.denominator
        + 2 * m1 * m2 * cc.numerator * c1.denominator * c2.denominator
        + m2 * m2 * c2.numerator * c1.denominator * cc.denominator
    )
    return Fraction(num, c1.denominator * c2.denominator * cc.denominator)


# -- witness search ----------------------------------------------------------


class Witness(namedtuple("Witness", "script divisor node")):
    """A depth-bounded certificate for the toric-blow-up criterion.

    ``script`` lists the corner blow-ups performed (("edge", a, b) or
    ("node", v)); ``divisor`` gives the multiplicity of each original
    component's strict transform in the nonnegative divisor; ``node``
    locates a boundary node outside the divisor's support.
    """

    __slots__ = ()


def _corners(g: bg.BoundaryGraph, index: dict):
    """The corner blow-up targets of ``g`` in sorted order, as (target,
    corner, m): intersection points, then nodal curves, both stored sorted.
    ``corner`` (original indices, -1 for an exceptional curve) and ``m``
    (the edge's multiplicity, 0 at a node) are what ``_child_key`` reads."""
    for e in g.edges:
        i, j = index.get(e.a, -1), index.get(e.b, -1)
        yield ("edge", e.a, e.b), (min(i, j), max(i, j)), e.multiplicity
    for v in g.vertices:
        if v.nodes:
            yield ("node", v.id), (index[v.id],), 0


def _negative_definite(gram: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix is negative definite.

    Sylvester's criterion: the k-th leading principal minor must have the
    sign of (-1)^k.  The minors are the pivots of Bareiss's fraction-free
    elimination (Bareiss 1968), in which every division is exact, so the
    test never leaves the integers.  A zero minor means the matrix is not
    definite, and the elimination stops there.  The 0x0 matrix is
    (vacuously) definite.
    """
    a = [list(row) for row in gram]
    n = len(a)
    prev = 1
    for k in range(n):
        minor = a[k][k]
        if minor == 0 or (minor > 0) != (k % 2 == 1):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * minor - a[i][k] * a[k][j]) // prev
        prev = minor
    return True


def _first_divisor(gram: list[list[int]], allowed, cap: int) -> list[int] | None:
    """The first nonzero m in ``product(range(cap + 1), repeat=n)`` order
    whose support bitmask passes ``allowed`` and with m^T gram m >= 0.

    The walk is depth first over the coordinates, which is product's
    order, and carries the quadratic form of the fixed prefix along.
    Supports only grow as coordinates are fixed and ``allowed`` is closed
    under subsets, so a prefix whose support fails it is skipped whole.
    """
    n = len(gram)
    m = [0] * n

    def extend(i: int, support: int, q: int) -> bool:
        row = gram[i]
        cross = 2 * sum(row[j] * m[j] for j in range(i))
        for x in range(cap + 1):
            if x == 1:
                support |= 1 << i
                if not allowed(support):
                    break
            m[i] = x
            qx = q + x * (row[i] * x + cross)
            if i + 1 < n:
                if extend(i + 1, support, qx):
                    return True
            elif support and qx >= 0:
                return True
        m[i] = 0
        return False

    return m if n and extend(0, 0, 0) else None


def _search_key(g: bg.BoundaryGraph, index: dict) -> tuple:
    """What the witness search reads of a blow-up of the fiber.

    The scale L, the lcm of the denominators of the originals'
    self-intersections; the self-intersection times L and the node count
    of each original component, in the fiber's order, as ints; and the
    sorted multiset of edges as (i, j, multiplicity) with i <= j the
    original indices and -1 for an exceptional curve.  Corner blow-ups
    subtract 1 or 4 from self-intersections, so L is the fiber's own along
    every script.
    """
    by_id = {v.id: v for v in g.vertices}
    sqs = [by_id[vid].self_int for vid in index]
    scale = lcm(*[s.denominator for s in sqs])
    originals = tuple(
        (s.numerator * (scale // s.denominator), by_id[vid].nodes) for s, vid in zip(sqs, index)
    )
    edges = []
    for e in g.edges:
        i, j = index.get(e.a, -1), index.get(e.b, -1)
        edges.append((min(i, j), max(i, j), e.multiplicity))
    return scale, originals, tuple(sorted(edges))


def _child_key(key: tuple, corner: tuple, m: int) -> tuple:
    """The ``_search_key`` of a corner blow-up, from the key of the graph
    blown up.

    ``corner`` is (i, j) for a point of the edge (i, j, m) of the key, in
    original indices with -1 for an exceptional curve, or (i,) for a node
    of original i (exceptional curves carry no nodes), where ``m`` is not
    read.  At an edge point each original endpoint loses 1 from its
    self-intersection, the edge loses one point and the exceptional curve
    meets each endpoint once; at a node the curve loses 4 and one node and
    the exceptional curve meets it twice.
    """
    scale, originals, edges = key
    sqs = list(originals)
    if len(corner) == 1:
        (i,) = corner
        s, nodes = sqs[i]
        sqs[i] = (s - 4 * scale, nodes - 1)
        es = [*edges, (-1, i, 2)]
    else:
        i, j = corner
        for k in (i, j):
            if k >= 0:
                s, nodes = sqs[k]
                sqs[k] = (s - scale, nodes)
        es = list(edges)
        es.remove((i, j, m))
        if m > 1:
            es.append((i, j, m - 1))
        es += [(-1, i, 1), (-1, j, 1)]
    return scale, tuple(sqs), tuple(sorted(es))


def _divisor_witness(key: tuple, cap: int) -> list[int] | None:
    """The first divisor in the scan order of a graph with ``_search_key``
    ``key``, as multiplicities of the original components, or None.

    The form is the Gram matrix of the originals' strict transforms scaled
    by the key's L, which keeps its sign exact.  Each boundary node has the
    bitmask of the originals through it: an edge its original endpoints
    (i >= 0 makes both ends original, as i <= j), a self-node its own
    curve.  A divisor is allowed while some mask misses its support.
    """
    scale, originals, edges = key
    gram = [[0] * len(originals) for _ in originals]
    for i, (s, _) in enumerate(originals):
        gram[i][i] = s
    masks = {1 << i for i, (_, nodes) in enumerate(originals) if nodes}
    for i, j, m in edges:
        if i >= 0:
            gram[i][j] = gram[j][i] = scale * m
            masks.add(1 << i | 1 << j)
        else:
            masks.add(1 << j if j >= 0 else 0)
    if _negative_definite(gram):
        return None
    return _first_divisor(gram, lambda support: any(not mask & support for mask in masks), cap)


def _blown_up(parent: bg.BoundaryGraph, script: tuple) -> bg.BoundaryGraph:
    """The graph of a frontier entry: ``parent`` blown up at the last
    target of ``script``, or ``parent`` itself for the empty script."""
    if not script:
        return parent
    target = script[-1]
    if target[0] == "edge":
        return bg.blowup_corner(parent, edge=target[1:])
    return bg.blowup_corner(parent, node=target[1])


def _witness(parent: bg.BoundaryGraph, script: tuple, m: list[int], index: dict) -> Witness:
    """The divisor ``m`` found on a frontier entry's graph, and the first
    corner of that graph off its support."""
    corners = _corners(_blown_up(parent, script), index)
    node = next(t for t, corner, _ in corners if not any(i >= 0 and m[i] for i in corner))
    return Witness(script, dict(zip(index, m)), node)


def prop51_witness_search(
    fiber: bg.BoundaryGraph, max_blowups: int = 3, coeff_cap: int = 6
) -> Witness | None:
    """Search for a nonnegative divisor on a toric blow-up of the fiber.

    Breadth-first over corner blow-up scripts of length at most
    ``max_blowups`` (at boundary nodes and intersection points, in sorted
    order); on each resulting graph, effective divisors supported on the
    strict transforms of the original components with multiplicities up to
    ``coeff_cap`` are scanned, in ``product(range(coeff_cap + 1), ...)``
    order, for nonnegative self-intersection together with a boundary node
    outside their support.  Returns the first witness in this
    deterministic order, or None.

    Three prunings leave that first witness unchanged:

    - The scan is over the integers: the Gram matrix of the original
      components is scaled by the common denominator of their
      self-intersections, which keeps the sign of every value.  A prefix
      whose support already meets every boundary node is skipped whole,
      before any form is evaluated.
    - A script whose ``_search_key`` was already seen is dropped before
      its graph is built: ``_child_key`` derives a child's key from its
      parent's.  The scan, ``_divisor_witness``, reads only the key, and
      the key fixes the keys of the graph's children (exceptional curves
      carry no nodes), so each dropped subtree mirrors a kept one that
      comes earlier in breadth-first order.  A kept script is scanned as
      soon as its key is derived, which is that order, and its graph is
      built only to expand it or to name the witness's node.
    - A graph whose Gram matrix is negative definite is not scanned:
      there every nonzero divisor has negative self-intersection.

    The fiber must be an index-one log canonical Calabi-Yau boundary
    graph: every coefficient one, every adjunction residual zero and no
    marked point (three coefficient-one branches through one point are
    not log canonical).  ``max_blowups`` must be at least 0 and
    ``coeff_cap`` at least 1; anything less would search nothing and
    report a false "no witness".
    """
    if max_blowups < 0 or coeff_cap < 1:
        raise PreconditionFailed("witness search needs max_blowups >= 0 and coeff_cap >= 1")
    if any(v.coeff != 1 for v in fiber.vertices):
        raise PreconditionFailed("witness search needs all boundary coefficients equal to 1")
    if not bg.is_calabi_yau(fiber):
        raise PreconditionFailed("witness search needs a Calabi-Yau balanced graph")
    if fiber.marked_points:
        raise PreconditionFailed("witness search needs a log canonical graph: no marked points")
    index = {vid: i for i, vid in enumerate(fiber.ids())}
    key = _search_key(fiber, index)
    m = _divisor_witness(key, coeff_cap)
    if m is not None:
        return _witness(fiber, (), m, index)
    seen = {key}
    # (parent graph, script, key): the entry's graph is the parent blown
    # up at the script's last target, built by _blown_up when needed
    frontier: list[tuple[bg.BoundaryGraph, tuple, tuple]] = [(fiber, (), key)]
    for _ in range(max_blowups):
        nxt = []
        for parent, script, key in frontier:
            g = _blown_up(parent, script)
            for target, corner, mult in _corners(g, index):
                child = _child_key(key, corner, mult)
                if child in seen:
                    continue
                seen.add(child)
                m = _divisor_witness(child, coeff_cap)
                if m is not None:
                    return _witness(g, script + (target,), m, index)
                nxt.append((g, script + (target,), child))
        frontier = nxt
    return None


# -- JSON ---------------------------------------------------------------------


def fiber_to_json(f: FiberSpec) -> dict:
    return {
        "rank": f.rel_picard_rank,
        "components": [
            {"sq": rational_to_json(c.self_int), "irreducible": c.irreducible_over_base}
            for c in f.components
        ],
        "node": {"present": f.has_node, "at": f.node_at},
        "volume": rational_to_json(f.volume),
        "smooth_locus": f.boundary_in_smooth_locus,
    }


def _json_bool(value, field: str) -> bool:
    return _flag(value, field, "malformed fiber JSON")


def fiber_from_json(data: dict) -> FiberSpec:
    if not isinstance(data, dict) or "rank" not in data:
        raise FiberError("fiber JSON needs a 'rank' field")
    if type(data["rank"]) is not int:
        raise FiberError(f"malformed fiber JSON: rank must be an integer, got {data['rank']!r}")
    try:
        node = data.get("node", {})
        return FiberSpec.build(
            components=[
                (c["sq"], _json_bool(c.get("irreducible", True), "irreducible"))
                for c in data["components"]
            ],
            has_node=_json_bool(node.get("present", False), "node.present"),
            volume=data["volume"],
            rank=data["rank"],
            smooth_locus=_json_bool(data.get("smooth_locus", True), "smooth_locus"),
            node_at=node_location(node.get("at", SMOOTH_POINT)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FiberError(f"malformed fiber JSON: {exc}") from exc
