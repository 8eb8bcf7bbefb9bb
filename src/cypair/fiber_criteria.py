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
witness that a fiber of a cluster-type model must admit; check_witness
verifies such a witness independently of the search.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import boundary_graph as bg
from .rationals import as_rational, rational_to_json, typed


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
    typed(text, str, "node location", FiberError)
    if text == SMOOTH_POINT:
        return text
    try:
        if text.startswith("A") and text[1:].isdigit() and int(text[1:]) >= 1:
            return text
    except ValueError:
        pass  # a digit string int() refuses: past the digit limit, or not decimal
    raise FiberError(f"bad node location {text!r}; expected 'smooth' or 'A<n>'")


class FiberComponent(
    namedtuple("FiberComponent", "self_int irreducible_over_base", defaults=(True,))
):
    __slots__ = ()

    def __new__(cls, self_int: Fraction, irreducible_over_base: bool = True):
        if self_int.denominator == 1:
            self_int = self_int.numerator
        return super().__new__(cls, self_int, irreducible_over_base)


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
        if volume.denominator == 1:
            volume = volume.numerator
        return super().__new__(
            cls, components, has_node, volume, rank, boundary_in_smooth_locus, node_at
        )

    @staticmethod
    def build(components, has_node, volume, rank, smooth_locus=True, node_at=SMOOTH_POINT):
        """The spec from (self-intersection, irreducible) pairs.  The
        self-intersections and the volume are read with ``as_rational``;
        the rank must be an ``int`` and the flags ``bool``s, which are not
        coerced."""
        typed(rank, int, "fiber spec: rank", FiberError)
        comps = tuple(
            FiberComponent(
                as_rational(sq), typed(irr, bool, "fiber spec: irreducible", FiberError)
            )
            for sq, irr in components
        )
        return FiberSpec(
            comps,
            typed(has_node, bool, "fiber spec: has_node", FiberError),
            as_rational(volume),
            rank,
            typed(smooth_locus, bool, "fiber spec: smooth_locus", FiberError),
            node_at,
        )


Verdict = namedtuple("Verdict", "cluster_type failed_conditions", defaults=((),))

WeightedCornerData = namedtuple(
    "WeightedCornerData",
    "c1_tilde_sq c2_tilde_sq c1_dot_e c2_dot_e c1_dot_c2",
    defaults=(Fraction(1),),
)
WeightedCornerData.__doc__ = """Intersection numbers after the (x^alpha, y^beta) corner blow-up.

Unlike the other value types, the fields stay ``Fraction`` even when
integral, as they have always been printed.
"""


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
    exceptional = FiberComponent(-1, True)
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


Witness = namedtuple("Witness", "script divisor node")
Witness.__doc__ = """A depth-bounded certificate for the toric-blow-up criterion.

``script`` lists the corner blow-ups performed (("edge", a, b) or
("node", v)); ``divisor`` gives the multiplicity of each original
component's strict transform in the nonnegative divisor; ``node``
locates a boundary node outside the divisor's support.
"""


def _corners(g: bg.BoundaryGraph):
    """The corner blow-up targets of ``g`` in sorted order: intersection
    points, then nodal curves, both stored sorted."""
    for e in g.edges:
        yield ("edge", e.a, e.b)
    for v in g.vertices:
        if v.nodes:
            yield ("node", v.id)


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


def _divisor_witness(g: bg.BoundaryGraph, index: dict, scale: int, cap: int) -> list[int] | None:
    """The first divisor in the scan order on ``g``, a blow-up of the fiber
    whose components ``index`` numbers, as multiplicities of those
    original components, or None.

    The form is the Gram matrix of the originals' strict transforms scaled
    by ``scale``, the lcm of the denominators of their self-intersections,
    which keeps its sign exact.  Each boundary node has the bitmask of the
    originals through it: an edge its original endpoints, a self-node its
    own curve.  A divisor is allowed while some mask misses its support.
    A node between two exceptional curves has mask 0, which misses every
    support, so on a graph with such a node every divisor is allowed.
    """
    originals = [v for v in g.vertices if v.id in index]
    gram = [[0] * len(index) for _ in index]
    masks = set()
    for v in originals:
        i = index[v.id]
        gram[i][i] = v.self_int.numerator * (scale // v.self_int.denominator)
        if v.nodes:
            masks.add(1 << i)
    for e in g.edges:
        i, j = sorted((index.get(e.a, -1), index.get(e.b, -1)))
        if i >= 0:
            gram[i][j] = gram[j][i] = scale * e.multiplicity
            masks.add(1 << i | 1 << j)
        else:
            masks.add(1 << j if j >= 0 else 0)
    if _negative_definite(gram):
        return None
    return _first_divisor(gram, lambda support: any(not mask & support for mask in masks), cap)


def _witness(g: bg.BoundaryGraph, script: tuple, m: list[int], index: dict) -> Witness:
    """The divisor ``m`` found on ``g``, the fiber blown up along
    ``script``, and the first corner of ``g`` off its support."""
    divisor = dict(zip(index, m))
    node = next(t for t in _corners(g) if not any(divisor.get(vid) for vid in t[1:]))
    return Witness(script, divisor, node)


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

    Two corner blow-ups suffice: if a script of any length has a witness
    with multiplicities m, a script of length at most 2 has one with the
    same m.  The search is breadth first, so it walks at most two layers,
    and any ``max_blowups`` of 2 or more returns what 2 returns; a None
    there means no witness at any depth with multiplicities up to
    ``coeff_cap``.  Proof:

    - Blowing up a point p takes D = sum m_i C_i to D^2 - (mult_p D)^2,
      where mult_p D is m_i + m_j at a corner of C_i and C_j and 2 m_i at
      a node of C_i, an exceptional curve counting 0.  So D^2 never rises
      along a script.
    - If the root has a node off the support, the empty script is a
      witness.  Else take the first step t of the witness script that
      creates a node off the support.  That node lies on the new curve
      and a branch Y with m_Y = 0; the other branch X at p_t has m_X > 0,
      as p_t was not off the support, so X is original and step t costs
      m_X^2.
    - If Y is original, p_t is a corner of X and Y in the root.  Blowing
      it up alone costs m_X^2 and gives a witness at depth 1.
    - If Y is exceptional, some earlier step of the script is the first on
      X, at a corner of the root.  Blow that corner up, then the new
      curve's corner with X, which costs m_X^2.  The two costs are at most
      those of two distinct steps of the script, and the second blow-up
      leaves a node between two exceptional curves, off every support.

    A blow-up adds node masks (the originals through a node) only at its
    new points: {X} and {Y} at a corner of X and Y, {X} at a node of X,
    nothing for an exceptional curve; its other nodes keep their masks.
    Two rules follow.

    The first layer scans only its children at edges.  A child at a node
    of X has the one new mask {X}, which was that node's own, and a D^2
    no larger, so once the fiber has missed it holds no witness.  It is
    built only for the second layer, so a depth-1 search builds none.

    The second layer builds only the corners of the first layer's
    exceptional curve with an original.  Once the fiber and the first
    layer have missed, no other second-layer child holds a witness:

    - At a node of an original, every mask was the parent's and D^2 is no
      larger, so a witness there would be one on the parent.
    - At a corner of two originals X and Y, a witness that misses an old
      mask is one on the parent.  One that misses {X} has m_X = 0 (or
      m_Y = 0 for {Y}), and is a witness on the first-layer blow-up of
      that same fiber corner, which has the masks {X} and {Y} and a D^2
      no smaller, as it skips the parent's step.

    So the search returns what the full breadth-first walk returns.

    The scan is over the integers: the Gram matrix of the original
    components is scaled by the common denominator of their
    self-intersections, which keeps the sign of every value.  The scale is
    computed once, on the fiber: a blow-up changes self-intersections by
    integers, so every child has the fiber's denominators.  A prefix whose
    support already meets every boundary node is skipped whole, and a
    graph whose Gram matrix is negative definite is not scanned, since
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
    scale = lcm(*[v.self_int.denominator for v in fiber.vertices])
    m = _divisor_witness(fiber, index, scale, coeff_cap)
    if m is not None:
        return _witness(fiber, (), m, index)
    if max_blowups == 0:
        return None
    layer = []
    for e in fiber.edges:
        target = ("edge", e.a, e.b)
        child = bg.blowup_corner(fiber, edge=target[1:])
        m = _divisor_witness(child, index, scale, coeff_cap)
        if m is not None:
            return _witness(child, (target,), m, index)
        layer.append((target, child))
    if max_blowups == 1:
        return None
    # the children at nodes hold no witness, but the second layer reads them
    for v in fiber.vertices:
        if v.nodes:
            layer.append((("node", v.id), bg.blowup_corner(fiber, node=v.id)))
    # the second layer: only the corners of the new curve with an original,
    # which are all edges, so walking g.edges keeps _corners order
    for first, g in layer:
        for e in g.edges:
            if (e.a in index) != (e.b in index):
                child = bg.blowup_corner(g, edge=(e.a, e.b))
                m = _divisor_witness(child, index, scale, coeff_cap)
                if m is not None:
                    return _witness(child, (first, ("edge", e.a, e.b)), m, index)
    return None


def check_witness(fiber: bg.BoundaryGraph, witness: Witness, cap: int) -> None:
    """Verify a witness from the graphs alone; raise FiberError naming the
    first check that fails.

    Shares nothing with the search's keys, scan or definiteness test: each
    script step must be a corner of the graph so far, and its blow-up,
    rebuilt through the validating ``BoundaryGraph.build``, Calabi-Yau;
    the divisor must name exactly the fiber's curves, with multiplicities
    in 0..cap and not all zero, and have D^2 >= 0 on the last graph; the
    node must be a corner of that graph on no curve of the support.
    """

    def corners(g):
        nodal = {("node", v.id) for v in g.vertices if v.nodes}
        return {("edge", e.a, e.b) for e in g.edges} | nodal

    g = fiber
    for step in witness.script:
        if step not in corners(g):
            raise FiberError(f"witness check: script step {step!r} is not a corner")
        if step[0] == "edge":
            g = bg.blowup_corner(g, edge=step[1:])
        else:
            g = bg.blowup_corner(g, node=step[1])
        g = bg.BoundaryGraph.build(g.vertices, g.edges, g.marked_points, g.picard_rank)
        if not bg.is_calabi_yau(g):
            raise FiberError(f"witness check: the blow-up at {step!r} is not Calabi-Yau")
    m = witness.divisor
    if set(m) != set(fiber.ids()):
        raise FiberError("witness check: the divisor does not name exactly the fiber's curves")
    if not any(m.values()) or any(type(x) is not int or not 0 <= x <= cap for x in m.values()):
        raise FiberError(f"witness check: multiplicities must lie in 0..{cap}, not all zero")
    if bg.divisor_square(g, m) < 0:
        raise FiberError("witness check: the divisor has negative self-intersection")
    if witness.node not in corners(g) or any(m.get(c, 0) for c in witness.node[1:]):
        raise FiberError(f"witness check: node {witness.node!r} is not a corner off the support")


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


def fiber_from_json(data: dict) -> FiberSpec:
    if not isinstance(data, dict) or "rank" not in data:
        raise FiberError("fiber JSON needs a 'rank' field")
    try:
        typed(data["rank"], int, "rank")  # before the node: a bad rank decides the error
        node = data.get("node", {})
        return FiberSpec.build(
            components=[
                (c["sq"], typed(c.get("irreducible", True), bool, "irreducible"))
                for c in data["components"]
            ],
            has_node=typed(node.get("present", False), bool, "node.present"),
            volume=data["volume"],
            rank=data["rank"],
            smooth_locus=typed(data.get("smooth_locus", True), bool, "smooth_locus"),
            node_at=node_location(node.get("at", SMOOTH_POINT)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FiberError(f"malformed fiber JSON: {exc}") from exc
