"""
Complete 2-D fans with exact lattice arithmetic
===============================================

Build fans, read off invariant-divisor self-intersections, blow up torus
fixed points, resolve singular cones, and project to the projective line.
"""

from cypair import lattice_fan as lf

# The plane: three rays. Fans canonicalize to a fixed rotation, so equal
# fans compare equal as values.
plane = lf.make_fan([(1, 0), (0, 1), (-1, -1)])
print("plane rays:", lf.fan_to_json(plane))
print("smooth:", lf.is_smooth(plane))
print("self-intersections:", lf.self_intersections(plane))

# Toric pairs have complexity zero, whatever the fan.
print("complexity:", lf.toric_pair_complexity(plane))

# A star subdivision is a toric blow-up. Subdividing a smooth corner at
# the sum of its rays inserts a (-1)-curve and drops both neighbours by 1.
blown = lf.star_subdivide(plane, (1, 1))
print("\nafter blowing up one fixed point:")
print("rays:", lf.fan_to_json(blown))
print("self-intersections:", lf.self_intersections(blown))
assert sum(lf.self_intersections(blown)) == 12 - 3 * len(blown.rays)

# A weighted plane with one index-2 and one index-3 corner. The minimal
# resolution inserts one ray in the first corner and two in the second.
weighted = lf.make_fan([(1, 0), (0, 1), (-2, -3)])
resolved = lf.resolve(weighted)
print("\nweighted plane resolution:")
print("before:", lf.fan_to_json(weighted), "smooth:", lf.is_smooth(weighted))
print("after: ", lf.fan_to_json(resolved), "smooth:", lf.is_smooth(resolved))
assert len(resolved.rays) == 6 and lf.resolve(resolved) == resolved

# Projections to the projective line. A linear form L works directly when
# no cone straddles its kernel; that is the opposite-rays situation.
product = lf.make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
data = lf.p1_projection(product, (0, 1))
print("\nproduct fan along (0,1):")
print("vertical rays:", [tuple(product.rays[i]) for i in data.vertical_rays])
print("fiber over 0:", [(tuple(product.rays[i]), m) for i, m in data.fiber_over_zero])

# When both chosen rays lie on the same side of the form, some cone
# straddles the kernel and the projection needs a subdivision first.
try:
    lf.p1_projection(plane, (1, 1))
except lf.NoToricMorphism as exc:
    print("\nplane along (1,1):", exc)
prepared = lf.subdivide_for_projection(plane, (1, 1))
data = lf.p1_projection(prepared, (1, 1))
print("after inserting the kernel rays:", lf.fan_to_json(prepared))
print("fiber over infinity:", [(tuple(prepared.rays[i]), m) for i, m in data.fiber_over_infinity])
