"""Complete two-dimensional rational fans with exact lattice arithmetic.

A complete 2-D fan is stored as its cyclically ordered list of primitive
integer rays; the 2-D cones are implicit between cyclic neighbours.  The
module provides smoothness tests, invariant-divisor self-intersections via
the ray relation ``u_{i-1} + u_{i+1} = -c_i u_i``, star subdivisions (toric
blow-ups), minimal resolution by Hirzebruch-Jung continued fractions, and
projections to the projective line induced by an integer linear form.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd


class FanError(Exception):
    """Base class for fan construction and operation errors."""


class NonPrimitiveRay(FanError):
    pass


class NotCyclicallyOrdered(FanError):
    pass


class NotComplete(FanError):
    pass


class NotSmooth(FanError):
    pass


class RayAlreadyPresent(FanError):
    pass


class NotInteriorToCone(FanError):
    pass


class NoToricMorphism(FanError):
    pass


class RayVector(namedtuple("RayVector", "x y")):
    """A primitive nonzero lattice vector."""

    __slots__ = ()

    def __new__(cls, x: int, y: int):
        if (x, y) == (0, 0):
            raise NonPrimitiveRay("ray must be nonzero")
        if gcd(abs(x), abs(y)) != 1:
            raise NonPrimitiveRay(f"ray {(x, y)} is not primitive")
        return super().__new__(cls, x, y)

    def as_pair(self) -> tuple[int, int]:
        return (self.x, self.y)


def det(u: RayVector, v: RayVector) -> int:
    """Lattice determinant u.x*v.y - u.y*v.x; the index of the cone <u, v>."""
    return u.x * v.y - u.y * v.x


class FibrationData(
    namedtuple("FibrationData", "vertical_rays fiber_over_zero fiber_over_infinity")
):
    """Classification of rays under a toric morphism to the projective line.

    ``vertical_rays`` holds indices of rays on which the linear form
    vanishes; the two fibre lists hold ``(ray index, multiplicity)`` pairs
    with multiplicity ``|L(u)| > 0``.  Every ray appears in exactly one of
    the three lists.
    """

    __slots__ = ()


class Fan2(namedtuple("Fan2", "rays")):
    """Complete 2-D fan: counterclockwise primitive rays, canonical rotation."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.rays)


def _as_ray(v) -> RayVector:
    if isinstance(v, RayVector):
        return v
    x, y = v
    return RayVector(int(x), int(y))


def _as_form(L) -> tuple[int, int]:
    """Coefficients (a, b) of the nonzero linear form L(x, y) = a*x + b*y."""
    a, b = int(L[0]), int(L[1])
    if (a, b) == (0, 0):
        raise FanError("covector must be nonzero")
    return a, b


def _sector(u: RayVector) -> int:
    # counterclockwise quadrant classes starting at the positive x-axis
    if u.x > 0 and u.y >= 0:
        return 0
    if u.x <= 0 and u.y > 0:
        return 1
    if u.x < 0 and u.y <= 0:
        return 2
    return 3


def _ccw_before(u: RayVector, v: RayVector) -> bool:
    """Strictly-smaller angle, measured counterclockwise from (1, 0)."""
    su, sv = _sector(u), _sector(v)
    if su != sv:
        return su < sv
    return det(u, v) > 0


def make_fan(rays) -> Fan2:
    """Build a complete fan from a cyclically ordered list of ray pairs.

    The input must already be primitive (non-primitive rays are rejected,
    not divided out) and listed counterclockwise.  The result is rotated so
    the lexicographically smallest ray comes first; fan equality is then
    plain list equality.

    Distinct primitive rays have distinct angles, so going once round a
    cyclic list of them the angle drops at least once, and it drops
    exactly once iff the list is a rotation of the angular order.
    """
    vs = [_as_ray(r) for r in rays]
    n = len(vs)
    if n < 3:
        raise NotComplete("a complete fan needs at least 3 rays")
    if len(set(vs)) != n:
        raise NotCyclicallyOrdered("duplicate ray")
    if sum(_ccw_before(vs[i], vs[i - 1]) for i in range(n)) != 1:
        raise NotCyclicallyOrdered("rays are not in counterclockwise cyclic order")
    for i in range(n):
        if det(vs[i], vs[(i + 1) % n]) <= 0:
            raise NotComplete("angle gap of at least pi between consecutive rays")
    k = vs.index(min(vs))
    return Fan2(tuple(vs[k:] + vs[:k]))


def is_smooth(fan: Fan2) -> bool:
    """True iff every pair of adjacent rays spans the lattice (det 1)."""
    n = len(fan.rays)
    return all(det(fan.rays[i], fan.rays[(i + 1) % n]) == 1 for i in range(n))


def self_intersections(fan: Fan2) -> list[int]:
    """Self-intersections of the invariant divisors, in ray order.

    On a smooth complete fan the neighbours of each ray satisfy
    u_{i-1} + u_{i+1} = -c_i u_i with c_i the self-intersection of the
    divisor of u_i.  Taking det(u_{i-1}, .) of both sides and using
    det(u_{i-1}, u_i) = 1 gives c_i = -det(u_{i-1}, u_{i+1}).
    """
    if not is_smooth(fan):
        raise NotSmooth("self-intersections are defined on smooth fans; resolve first")
    rays = fan.rays
    n = len(rays)
    return [-det(rays[i - 1], rays[(i + 1) % n]) for i in range(n)]


def toric_pair_complexity(fan: Fan2) -> Fraction:
    """dim + rank of the rational class group - number of boundary divisors.

    For a complete fan with n rays this is 2 + (n - 2) - n, identically 0:
    toric Calabi-Yau pairs have complexity zero.
    """
    n = len(fan.rays)
    return Fraction(2 + (n - 2) - n)


def star_subdivide(fan: Fan2, v) -> Fan2:
    """Insert a primitive ray strictly inside a 2-D cone (a toric blow-up).

    When the subdivided cone is smooth and v = u_i + u_{i+1}, the result is
    smooth and the self-intersections change by: new ray -1, both
    neighbours drop by 1, all others unchanged.
    """
    v = _as_ray(v)
    if v in fan.rays:
        raise RayAlreadyPresent(f"ray {v.as_pair()} already in fan")
    rays = fan.rays
    n = len(rays)
    for i in range(n):
        if det(rays[i], v) > 0 and det(v, rays[(i + 1) % n]) > 0:
            new = rays[: i + 1] + (v,) + rays[i + 1 :]
            return make_fan(new)
    raise NotInteriorToCone(f"ray {v.as_pair()} is not interior to any cone")


def p1_projection(fan: Fan2, L) -> FibrationData:
    """Classify rays under the toric morphism to P^1 induced by L.

    The identity on the lattice induces a toric morphism to the line's fan
    {L > 0, L < 0} iff no 2-D cone contains rays with strictly opposite
    signs of L.  A straddling cone means a star subdivision along ker L is
    required first (see subdivide_for_projection).
    """
    a, b = _as_form(L)
    rays = fan.rays
    n = len(rays)
    values = [a * u.x + b * u.y for u in rays]
    for i in range(n):
        if values[i] * values[(i + 1) % n] < 0:
            raise NoToricMorphism(
                f"cone <{rays[i].as_pair()}, {rays[(i + 1) % n].as_pair()}> straddles ker L; "
                "star-subdivide along the kernel first"
            )
    return FibrationData(
        vertical_rays=tuple(i for i in range(n) if values[i] == 0),
        fiber_over_zero=tuple((i, values[i]) for i in range(n) if values[i] > 0),
        fiber_over_infinity=tuple((i, -values[i]) for i in range(n) if values[i] < 0),
    )


def _primitive(x: int, y: int) -> RayVector:
    g = gcd(abs(x), abs(y))
    return RayVector(x // g, y // g)


def subdivide_for_projection(fan: Fan2, L) -> Fan2:
    """Star-subdivide at each direction of ker L that is not yet a ray.

    Such a direction k lies strictly inside exactly one cone <u, w>, so
    k = alpha*u + beta*w with alpha, beta > 0, and L(k) = 0 forces L(u)
    and L(w) to be nonzero with opposite signs: that cone straddles ker L.
    After these (at most two) insertions p1_projection succeeds.
    """
    a, b = _as_form(L)
    out = fan
    for k in (_primitive(-b, a), _primitive(b, -a)):
        if k not in out.rays:
            out = star_subdivide(out, k)
    return out


# The most rays ``_hj_chain`` inserts into one cone.  A chain can be as
# long as the cone's determinant minus one, so without a cap a fan with
# 20-digit coordinates would resolve until memory runs out.
_HJ_CHAIN_CAP = 10_000


def _hj_chain(u: RayVector, v: RayVector) -> list[RayVector]:
    """Rays of the minimal resolution of the cone <u, v>, from u towards v.

    Each step inserts the unique interior lattice vector w with
    det(u, w) = 1 closest to u; det(w, v) drops strictly, so iterating
    yields the Hirzebruch-Jung chain.  A cone that needs more than
    ``_HJ_CHAIN_CAP`` rays raises ``FanError``.
    """
    chain: list[RayVector] = []
    start, d = u, det(u, v)
    while d > 1:
        if len(chain) == _HJ_CHAIN_CAP:
            raise FanError(
                f"resolving the cone <{start.as_pair()}, {v.as_pair()}> needs more than "
                f"{_HJ_CHAIN_CAP} rays"
            )
        # particular solution of u.x*wy - u.y*wx = 1 via the extended gcd
        a, b = _xgcd(u.x, u.y)
        w0x, w0y = -b, a
        t = w0x * v.y - w0y * v.x
        # shift by multiples of u so that det(w, v) lands in [1, d-1]
        m = -((t - 1) // d)
        w = RayVector(w0x + m * u.x, w0y + m * u.y)
        dd = det(w, v)
        assert 1 <= dd < d
        chain.append(w)
        u, d = w, dd
    return chain


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """Coefficients (s, t) with s*a + t*b = gcd(a, b) = 1 for primitive input."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def resolve(fan: Fan2) -> Fan2:
    """Minimal resolution: subdivide every singular cone by its HJ chain.

    Smooth fans come back unchanged; the sweep over corners is cyclic, so
    the output is deterministic, and no ray is inserted in an already
    smooth corner.
    """
    rays = list(fan.rays)
    out: list[RayVector] = []
    n = len(rays)
    for i in range(n):
        u, v = rays[i], rays[(i + 1) % n]
        out.append(u)
        if det(u, v) > 1:
            out.extend(_hj_chain(u, v))
    return make_fan(out)


def fan_to_json(fan: Fan2) -> list[list[int]]:
    return [[u.x, u.y] for u in fan.rays]


def fan_from_json(data) -> Fan2:
    if not isinstance(data, list):
        raise FanError("fan JSON must be an array of [x, y] pairs")
    for ray in data:
        if not isinstance(ray, list):
            raise FanError(f"fan rays must be [x, y] arrays, got {ray!r}")
        if any(isinstance(c, (bool, float)) for c in ray):
            raise FanError(f"fan ray coordinates must be integers, got {ray!r}")
    return make_fan(data)
