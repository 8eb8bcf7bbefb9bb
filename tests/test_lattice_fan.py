import random
import re
from fractions import Fraction

import pytest
import reference_fan as ref
from helpers import random_singular_fan, random_smooth_fan
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import lattice_fan as lf

P2 = [(1, 0), (0, 1), (-1, -1)]
PRODUCT = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def rotate_from(values, fan, ray):
    """Rotate a per-ray list so it starts at the given ray."""
    i = fan.rays.index(lf.RayVector(*ray))
    return values[i:] + values[:i]


class TestMakeFan:
    def test_plane(self):
        fan = lf.make_fan(P2)
        assert lf.fan_to_json(fan) == [[-1, -1], [1, 0], [0, 1]]

    def test_product(self):
        fan = lf.make_fan(PRODUCT)
        assert len(fan.rays) == 4

    def test_rejects_non_primitive(self):
        with pytest.raises(lf.NonPrimitiveRay):
            lf.make_fan([(2, 0), (0, 1), (-1, -1)])

    def test_rejects_bad_cyclic_order(self):
        with pytest.raises(lf.NotCyclicallyOrdered):
            lf.make_fan([(1, 0), (-1, -1), (0, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(lf.NotCyclicallyOrdered):
            lf.make_fan([(1, 0), (1, 0), (0, 1)])

    def test_rejects_too_few_rays(self):
        with pytest.raises(lf.NotComplete):
            lf.make_fan([(1, 0), (-1, 0)])

    def test_rejects_half_plane_gap(self):
        # the gap from (-1, 1) back to (1, 0) exceeds pi
        with pytest.raises(lf.NotComplete):
            lf.make_fan([(1, 0), (0, 1), (-1, 1)])

    def test_canonical_rotation_makes_equality_work(self):
        assert lf.make_fan(P2) == lf.make_fan([(0, 1), (-1, -1), (1, 0)])


class TestSmoothness:
    def test_plane_smooth(self):
        assert lf.is_smooth(lf.make_fan(P2))

    def test_index_two_cone_not_smooth(self):
        assert not lf.is_smooth(lf.make_fan([(1, 0), (0, 1), (-1, -2)]))

    def test_product_smooth(self):
        assert lf.is_smooth(lf.make_fan(PRODUCT))


class TestSelfIntersections:
    def test_plane(self):
        assert lf.self_intersections(lf.make_fan(P2)) == [1, 1, 1]

    def test_product(self):
        assert lf.self_intersections(lf.make_fan(PRODUCT)) == [0, 0, 0, 0]

    def test_blown_up_plane(self):
        fan = lf.make_fan([(1, 0), (1, 1), (0, 1), (-1, -1)])
        assert rotate_from(lf.self_intersections(fan), fan, (1, 0)) == [0, -1, 0, 1]

    def test_requires_smooth(self):
        with pytest.raises(lf.NotSmooth):
            lf.self_intersections(lf.make_fan([(1, 0), (0, 1), (-1, -2)]))


class TestComplexity:
    def test_identically_zero(self):
        for rays in (P2, PRODUCT, [(1, 0), (0, 1), (-1, -2)]):
            assert lf.toric_pair_complexity(lf.make_fan(rays)) == Fraction(0)


class TestStarSubdivide:
    def test_plane_at_11(self):
        fan = lf.star_subdivide(lf.make_fan(P2), (1, 1))
        assert rotate_from(lf.self_intersections(fan), fan, (1, 0)) == [0, -1, 0, 1]

    def test_product_at_11(self):
        # new ray -1, both neighbours drop to -1, opposite rays unchanged
        fan = lf.star_subdivide(lf.make_fan(PRODUCT), (1, 1))
        assert len(fan.rays) == 5
        assert rotate_from(lf.self_intersections(fan), fan, (1, 0)) == [-1, -1, -1, 0, 0]

    def test_existing_ray_rejected(self):
        with pytest.raises(lf.RayAlreadyPresent):
            lf.star_subdivide(lf.make_fan(P2), (1, 0))

    def test_non_primitive_rejected(self):
        with pytest.raises(lf.NonPrimitiveRay):
            lf.star_subdivide(lf.make_fan(P2), (2, 2))

    def test_update_rule_matches_recomputation(self):
        rng = random.Random(7)
        for _ in range(25):
            fan = random_smooth_fan(rng)
            before = lf.self_intersections(fan)
            i = rng.randrange(len(fan.rays))
            u, v = fan.rays[i], fan.rays[(i + 1) % len(fan.rays)]
            new = lf.RayVector(u.x + v.x, u.y + v.y)
            bigger = lf.star_subdivide(fan, new)
            after = lf.self_intersections(bigger)
            expected = {u: before[fan.rays.index(u)] for u in fan.rays}
            expected[u] -= 1
            expected[v] -= 1
            expected[new] = -1
            assert after == [expected[r] for r in bigger.rays]


class TestProjection:
    def test_product_projects(self):
        fan = lf.make_fan(PRODUCT)
        data = lf.p1_projection(fan, (1, 0))
        vertical = {tuple(fan.rays[i]) for i in data.vertical_rays}
        assert vertical == {(0, 1), (0, -1)}
        assert [(tuple(fan.rays[i]), m) for i, m in data.fiber_over_zero] == [((1, 0), 1)]
        assert [(tuple(fan.rays[i]), m) for i, m in data.fiber_over_infinity] == [((-1, 0), 1)]

    def test_plane_straddles(self):
        with pytest.raises(lf.NoToricMorphism):
            lf.p1_projection(lf.make_fan(P2), (1, 0))

    def test_plane_after_kernel_subdivision(self):
        fan = lf.star_subdivide(lf.make_fan(P2), (0, -1))
        data = lf.p1_projection(fan, (1, 0))
        vertical = {tuple(fan.rays[i]) for i in data.vertical_rays}
        assert vertical == {(0, 1), (0, -1)}
        assert [(tuple(fan.rays[i]), m) for i, m in data.fiber_over_zero] == [((1, 0), 1)]
        assert [(tuple(fan.rays[i]), m) for i, m in data.fiber_over_infinity] == [((-1, -1), 1)]

    def test_every_ray_classified_once(self):
        rng = random.Random(3)
        for _ in range(20):
            fan = random_smooth_fan(rng)
            try:
                data = lf.p1_projection(fan, (1, 0))
            except lf.NoToricMorphism:
                fan = lf.subdivide_for_projection(fan, (1, 0))
                data = lf.p1_projection(fan, (1, 0))
            seen = sorted(
                list(data.vertical_rays)
                + [i for i, _ in data.fiber_over_zero]
                + [i for i, _ in data.fiber_over_infinity]
            )
            assert seen == list(range(len(fan.rays)))

    def test_subdivide_for_projection_inserts_both_kernel_rays(self):
        # (1, 1) is positive on (1, 0) and (0, 1); both cones at (-1, -1)
        # straddle the kernel, so both kernel directions get inserted
        fan = lf.subdivide_for_projection(lf.make_fan(P2), (1, 1))
        assert len(fan.rays) == 5
        data = lf.p1_projection(fan, (1, 1))
        vertical = {tuple(fan.rays[i]) for i in data.vertical_rays}
        assert vertical == {(1, -1), (-1, 1)}
        assert [(tuple(fan.rays[i]), m) for i, m in data.fiber_over_infinity] == [((-1, -1), 2)]


class TestResolve:
    def test_smooth_unchanged(self):
        fan = lf.make_fan(PRODUCT)
        assert lf.resolve(fan) == fan

    def test_single_a1_corner(self):
        resolved = lf.resolve(lf.make_fan([(1, 0), (0, 1), (-1, -2)]))
        assert lf.is_smooth(resolved)
        assert lf.RayVector(0, -1) in resolved.rays
        assert len(resolved.rays) == 4

    def test_weighted_plane_123(self):
        fan = lf.make_fan([(1, 0), (0, 1), (-2, -3)])
        resolved = lf.resolve(fan)
        assert lf.is_smooth(resolved)
        # one insertion in the index-2 corner, two in the index-3 corner
        assert lf.fan_to_json(resolved) == [
            [-2, -3], [-1, -2], [0, -1], [1, 0], [0, 1], [-1, -1],
        ]
        # rank bookkeeping: rank n - 2 = 4 = 1 + 3 inserted rays
        assert len(resolved.rays) - 2 == 1 + 3

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            fan = random_smooth_fan(rng)
            assert lf.resolve(fan) == fan
        singular = lf.make_fan([(1, 0), (1, 3), (-1, -1), (2, -5)])
        once = lf.resolve(singular)
        assert lf.is_smooth(once)
        assert lf.resolve(once) == once

    def test_chain_cap(self):
        # the cone <(1, 0), (1, d)> resolves by the d - 1 rays (1, 1) .. (1, d - 1)
        at_cap = lf.resolve(lf.make_fan([(1, 0), (1, 10_001), (0, 1), (-1, -1)]))
        assert lf.RayVector(1, 10_000) in at_cap.rays
        assert len(at_cap.rays) == 4 + 10_000
        with pytest.raises(lf.FanError, match=re.escape(
            "resolving the cone <(1, 0), (1, 10002)> needs more than 10000 rays"
        )):
            lf.resolve(lf.make_fan([(1, 0), (1, 10_002), (0, 1), (-1, -1)]))

    def test_minimal_no_minus_one_inserted(self):
        # inserted rays in a resolved singular corner all have c <= -2
        singular = lf.make_fan([(1, 0), (1, 3), (-1, -1), (2, -5)])
        resolved = lf.resolve(singular)
        cs = dict(zip(resolved.rays, lf.self_intersections(resolved)))
        for ray in resolved.rays:
            if ray not in singular.rays:
                assert cs[ray] <= -2


def negative_continued_fraction(bs) -> Fraction:
    """b1 - 1/(b2 - 1/(... - 1/b_r))."""
    value = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        value = b - 1 / value
    return value


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_resolve_random_singular_fans(seed):
    fan = random_singular_fan(random.Random(seed))
    resolved = lf.resolve(fan)
    assert lf.is_smooth(resolved)
    assert lf.resolve(resolved) == resolved
    assert set(fan.rays) <= set(resolved.rays)
    sq = dict(zip(resolved.rays, lf.self_intersections(resolved)))
    n, m = len(fan.rays), len(resolved.rays)
    for i, u in enumerate(fan.rays):
        v = fan.rays[(i + 1) % n]
        inserted = []
        j = (resolved.rays.index(u) + 1) % m
        while resolved.rays[j] != v:
            inserted.append(resolved.rays[j])
            j = (j + 1) % m
        assert all(sq[r] <= -2 for r in inserted)
        d = lf.det(u, v)
        if d == 1:
            assert inserted == []
            continue
        # (u, w) is a lattice basis; in it the cone is of type (1/d)(1, q).
        # Ray coordinates are at most 6 in size, and so is some such w.
        w = next(
            lf.RayVector(a, b)
            for a in range(-6, 7)
            for b in range(-6, 7)
            if u.x * b - u.y * a == 1
        )
        q = lf.det(w, v) % d
        assert negative_continued_fraction([-sq[r] for r in inserted]) == Fraction(d, q)


class TestNoetherSum:
    def test_sum_rule(self):
        rng = random.Random(23)
        for _ in range(30):
            fan = random_smooth_fan(rng)
            assert sum(lf.self_intersections(fan)) == 12 - 3 * len(fan.rays)


FORMS = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)]


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def ray_list_variants(rng, fan):
    """Ray lists around a fan: rotated, reversed, shuffled, with a duplicate,
    cut to a cyclic window, and closed off by a gap of exactly pi."""
    pairs = [tuple(u) for u in fan.rays]
    k = rng.randrange(len(pairs))
    rotated = pairs[k:] + pairs[:k]
    shuffled = rotated[:]
    rng.shuffle(shuffled)
    duplicated = rotated[:]
    duplicated.insert(rng.randrange(len(pairs) + 1), rng.choice(pairs))
    window = rotated[: rng.randint(1, len(pairs))]
    u = rotated[0]
    half = [u] + [r for r in rotated[1:] if u[0] * r[1] - u[1] * r[0] > 0] + [(-u[0], -u[1])]
    return [rotated, rotated[::-1], shuffled, duplicated, window, half]


def kernel_form(u):
    """A form whose kernel is spanned by the ray u."""
    return (-u.y, u.x)


class TestFanMatchesReference:
    """make_fan, self_intersections, p1_projection and subdivide_for_projection
    against the pre-simplification code in tests/reference_fan.py."""

    def assert_same(self, fn, ref_fn, *args):
        got = outcome(fn, *args)
        assert got == outcome(ref_fn, *args), args
        return got

    def check_projections(self, fan, form, seen):
        got = self.assert_same(lf.subdivide_for_projection, ref.subdivide_for_projection, fan, form)
        before = self.assert_same(lf.p1_projection, ref.p1_projection, fan, form)
        seen.add(("projection", before[0] == "value"))
        if got[0] == "value":
            seen.add(("inserted", len(got[1].rays) - len(fan.rays)))
            self.assert_same(lf.p1_projection, ref.p1_projection, got[1], form)

    def test_random_fans(self):
        rng = random.Random(2024)
        seen = set()
        for n in range(2000):
            fan = random_singular_fan(rng) if n % 5 < 3 else random_smooth_fan(rng)
            for rays in ray_list_variants(rng, fan):
                got = self.assert_same(lf.make_fan, ref.make_fan, rays)
                seen.add(got if got[0] == "raised" else "fan")
            got = self.assert_same(lf.self_intersections, ref.self_intersections, fan)
            seen.add(("self_intersections", got[0]))
            self.check_projections(fan, rng.choice(FORMS), seen)
            self.check_projections(fan, kernel_form(rng.choice(fan.rays)), seen)
        assert seen >= {
            "fan",
            ("raised", lf.NotCyclicallyOrdered, "duplicate ray"),
            ("raised", lf.NotCyclicallyOrdered, "rays are not in counterclockwise cyclic order"),
            ("raised", lf.NotComplete, "a complete fan needs at least 3 rays"),
            ("raised", lf.NotComplete, "angle gap of at least pi between consecutive rays"),
            ("self_intersections", "value"),
            ("self_intersections", "raised"),
            ("projection", True),
            ("projection", False),
            ("inserted", 0),
            ("inserted", 1),
            ("inserted", 2),
        }

    def test_every_small_form(self):
        rng = random.Random(5)
        fans = [lf.make_fan(P2), lf.make_fan(PRODUCT), lf.make_fan([(1, 0), (1, 3), (-1, -1), (2, -5)])]
        fans += [random_singular_fan(rng) for _ in range(10)] + [random_smooth_fan(rng) for _ in range(10)]
        seen = set()
        for fan in fans:
            for form in FORMS:
                self.check_projections(fan, form, seen)
        assert {("inserted", 0), ("inserted", 1), ("inserted", 2)} <= seen

    @pytest.mark.parametrize("rays", [
        [], [(1, 0)], [(1, 0), (0, 1)], [(2, 0), (0, 1), (-1, -1)], [(0, 0), (0, 1), (-1, -1)],
        [(1, 0, 0), (0, 1), (-1, -1)], [("a", 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, 0)],
        [(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 0), (0, 1), (-1, 1)],
    ])
    def test_malformed_ray_lists(self, rays):
        self.assert_same(lf.make_fan, ref.make_fan, rays)

    @pytest.mark.parametrize("form", [(0, 0), ("x", 1), (1,), 5, (1, 0, 7), ("2", "-3")])
    def test_malformed_forms(self, form):
        fan = lf.make_fan(P2)
        self.assert_same(lf.p1_projection, ref.p1_projection, fan, form)
        self.assert_same(lf.subdivide_for_projection, ref.subdivide_for_projection, fan, form)


class TestJson:
    def test_roundtrip(self):
        fan = lf.make_fan(PRODUCT)
        assert lf.fan_from_json(lf.fan_to_json(fan)) == fan

    def test_bad_json(self):
        with pytest.raises(lf.FanError):
            lf.fan_from_json({"rays": []})

    @pytest.mark.parametrize("rays", [
        [1, 2, 3], [[1, 0], [0, 1], None], [[1, 0], [0, 1], "ab"],
        [{"x": 1}, [0, 1], [-1, -1]], ["10", [0, 1], [-1, -1]],
    ])
    def test_rays_are_json_arrays(self, rays):
        bad = next(r for r in rays if not isinstance(r, list))
        message = f"fan rays must be [x, y] arrays, got {bad!r}"
        with pytest.raises(lf.FanError, match=re.escape(message)):
            lf.fan_from_json(rays)
