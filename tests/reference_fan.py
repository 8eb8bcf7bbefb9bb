"""Fan construction, self-intersections and projections, kept as the oracle.

This is ``make_fan`` as it stood before the one-descent cyclic-order
check, with a ``cmp_to_key`` sort and a rotation comparison;
``self_intersections`` before the determinant identity, with a per-ray
division and a re-check of the ray relation; and ``p1_projection`` and
``subdivide_for_projection`` before the ``Covector`` class was replaced by
a coefficient pair, with a walk for the cone that contains each kernel
direction and a straddle test on it.  ``star_subdivide`` is kept alongside
so that every fan built here goes through this ``make_fan``.
``cypair.lattice_fan`` must return equal values, or raise the same error
with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from cypair.lattice_fan import (
    Fan2,
    FanError,
    FibrationData,
    NoToricMorphism,
    NotComplete,
    NotCyclicallyOrdered,
    NotInteriorToCone,
    NotSmooth,
    RayAlreadyPresent,
    RayVector,
    _as_ray,
    _ccw_before,
    _primitive,
    det,
    is_smooth,
)


@dataclass(frozen=True)
class Covector:
    """Integer linear form L(x, y) = a*x + b*y."""

    a: int
    b: int

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise FanError("covector must be nonzero")

    def __call__(self, u: RayVector) -> int:
        return self.a * u.x + self.b * u.y


def make_fan(rays) -> Fan2:
    """Build a complete fan from a cyclically ordered list of ray pairs.

    The input must already be primitive (non-primitive rays are rejected,
    not divided out) and listed counterclockwise.  The result is rotated so
    the lexicographically smallest ray comes first; fan equality is then
    plain list equality.
    """
    if not rays:
        raise NotComplete("a complete fan needs at least 3 rays")
    vs = [_as_ray(r) for r in rays]
    n = len(vs)
    if n < 3:
        raise NotComplete("a complete fan needs at least 3 rays")
    if len(set(vs)) != n:
        raise NotCyclicallyOrdered("duplicate ray")
    # strictly increasing angle up to cyclic rotation
    def cmp(i: int, j: int) -> int:
        if vs[i] == vs[j]:
            return 0
        return -1 if _ccw_before(vs[i], vs[j]) else 1

    order = sorted(range(n), key=cmp_to_key(cmp))
    pos = order.index(0)
    sorted_cyclic = order[pos:] + order[:pos]
    if sorted_cyclic != list(range(n)):
        raise NotCyclicallyOrdered("rays are not in counterclockwise cyclic order")
    for i in range(n):
        if det(vs[i], vs[(i + 1) % n]) <= 0:
            raise NotComplete("angle gap of at least pi between consecutive rays")
    k = vs.index(min(vs))
    return Fan2(tuple(vs[k:] + vs[:k]))


def self_intersections(fan: Fan2) -> list[int]:
    """Self-intersections of the invariant divisors, in ray order.

    On a smooth complete fan the neighbours of each ray satisfy
    u_{i-1} + u_{i+1} = -c_i u_i with c_i the self-intersection of the
    divisor of u_i.
    """
    if not is_smooth(fan):
        raise NotSmooth("self-intersections are defined on smooth fans; resolve first")
    rays = fan.rays
    n = len(rays)
    out = []
    for i in range(n):
        u = rays[i]
        sx = rays[i - 1].x + rays[(i + 1) % n].x
        sy = rays[i - 1].y + rays[(i + 1) % n].y
        c = -(sx // u.x) if u.x != 0 else -(sy // u.y)
        if (-c * u.x, -c * u.y) != (sx, sy):
            raise NotSmooth(f"ray relation fails at ray {i}")
        out.append(c)
    return out


def star_subdivide(fan: Fan2, v) -> Fan2:
    """Insert a primitive ray strictly inside a 2-D cone (a toric blow-up).

    When the subdivided cone is smooth and v = u_i + u_{i+1}, the result is
    smooth and the self-intersections change by: new ray -1, both
    neighbours drop by 1, all others unchanged.
    """
    v = _as_ray(v)
    if v in fan.rays:
        raise RayAlreadyPresent(f"ray {tuple(v)} already in fan")
    rays = fan.rays
    n = len(rays)
    for i in range(n):
        if det(rays[i], v) > 0 and det(v, rays[(i + 1) % n]) > 0:
            new = rays[: i + 1] + (v,) + rays[i + 1 :]
            return make_fan(new)
    raise NotInteriorToCone(f"ray {tuple(v)} is not interior to any cone")


def p1_projection(fan: Fan2, L) -> FibrationData:
    """Classify rays under the toric morphism to P^1 induced by L.

    The identity on the lattice induces a toric morphism to the line's fan
    {L > 0, L < 0} iff no 2-D cone contains rays with strictly opposite
    signs of L.  A straddling cone means a star subdivision along ker L is
    required first (see subdivide_for_projection).
    """
    if not isinstance(L, Covector):
        L = Covector(int(L[0]), int(L[1]))
    rays = fan.rays
    n = len(rays)
    values = [L(u) for u in rays]
    for i in range(n):
        a, b = values[i], values[(i + 1) % n]
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            raise NoToricMorphism(
                f"cone <{tuple(rays[i])}, {tuple(rays[(i + 1) % n])}> straddles ker L; "
                "star-subdivide along the kernel first"
            )
    return FibrationData(
        vertical_rays=tuple(i for i in range(n) if values[i] == 0),
        fiber_over_zero=tuple((i, values[i]) for i in range(n) if values[i] > 0),
        fiber_over_infinity=tuple((i, -values[i]) for i in range(n) if values[i] < 0),
    )


def subdivide_for_projection(fan: Fan2, L) -> Fan2:
    """Insert kernel rays of L where a cone straddles ker L.

    Both kernel directions are inserted when each lies inside a straddling
    cone (at most two insertions); afterwards p1_projection succeeds.
    """
    if not isinstance(L, Covector):
        L = Covector(int(L[0]), int(L[1]))
    out = fan
    for k in (_primitive(-L.b, L.a), _primitive(L.b, -L.a)):
        if k in out.rays:
            continue
        rays = out.rays
        n = len(rays)
        for i in range(n):
            u, w = rays[i], rays[(i + 1) % n]
            if det(u, k) > 0 and det(k, w) > 0:
                if (L(u) > 0 and L(w) < 0) or (L(u) < 0 and L(w) > 0):
                    out = star_subdivide(out, k)
                break
    return out
