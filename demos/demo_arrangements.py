"""Intersection multiplicities, tangency classification, and pencils of
conics."""

from quadrics import (contact_classification, intersection_points, parse_poly,
                      pencil_membership, pencil_rank1_members, tangent_line)

p = parse_poly("z0^2 - z1*z2")
q = parse_poly("z1^2 - z0*z2")
q_shift = parse_poly("z1^2 - z0*z2 - z0^2")
q_scale = parse_poly("z0^2 - 2*z1*z2")

print("== Intersections with exact Bezout multiplicities ==")
for a, b, label in ((p, q, "transversal"), (q, q_shift, "one-point contact"),
                    (p, q_scale, "two tangencies")):
    recs = intersection_points(a, b)
    print(f"{label}:")
    for r in recs:
        flag = " tangential" if r.tangential else ""
        print(f"   {r.point!r}  multiplicity {r.multiplicity}{flag}")
    print("   classification:", contact_classification(a, b))

print("\n== Tangent lines at exact points ==")
print("tangent of z1^2 - z0*z2 at [0:0:1]:", tangent_line(q, (0, 0, 1)))
print("tangent of z0^2 - z1*z2 at [1:1:1]:", tangent_line(p, (1, 1, 1)))

print("\n== Pencil membership of split quadrics ==")
l1 = parse_poly("z0 - z1")
l2 = parse_poly("z0 + z1 + z2")
a, b = pencil_membership(l1, l2, p, q)
print(f"({l1}) * ({l2}) = {a} * (z0^2 - z1*z2) + {b} * (z1^2 - z0*z2)")

print("\n== Rank-one members of a pencil ==")
members = pencil_rank1_members(q, q_shift)
for m in members:
    print(f"coefficients {m.coefficients}: combination = {m.combination} = "
          f"{m.root_scale} * ({m.root_form})^2")
print("the one-point contact pair carries the common tangent's square,")
print("while the generic pair below has none:")
print("rank-one members of (p, q):", pencil_rank1_members(p, q))
