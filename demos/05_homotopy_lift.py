#!/usr/bin/env python3
"""Constructive homotopy lifting, and what an obstruction looks like.

Given p: X -> Y, a homotopy A x Delta^1 -> Y, and a start on the
bottom slice, the lift is built one prism at a time: pick a
cocartesian edge over each vertex, then fill left horns degree by
degree.  When a designated edge fails its horn test the lift raises,
carrying the exact unsolvable problem.
"""

from sslift import (
    LiftObstruction,
    SMap,
    SimplexRef,
    SimplicialSet,
    classifying_map,
    constant_map,
    count_horn_lifts,
    cylinder,
    lift_homotopy,
    nerve_functor,
    standard_simplex,
    start_map,
)
from sslift.corpus import double_cover

p = nerve_functor(double_cover())[0]
x, y = p.source, p.target

# slide a degenerate interval sitting at a0 along the base edge a<x
a = standard_simplex(1)
prism = cylinder(a)
homotopy = classifying_map(y, SimplexRef(1, (), "a<x")).compose(prism.to_right)
start, _ = start_map(prism, x, constant_map(a, x, SimplexRef(0, (), "a0")))
lift = lift_homotopy(p, prism, homotopy, start)
lift.validate()
far = prism.pair_ref(SimplexRef(0, (), "0"), SimplexRef(0, (), "1"))
print(f"start at a0, move along a<x, arrive at: {lift.apply(far)}")

# designating the crossing edge a1<y0 lands on the other sheet
pt = standard_simplex(0)
prism = cylinder(pt)
homotopy = classifying_map(y, SimplexRef(1, (), "a<y")).compose(prism.to_right)
start, j_sub = start_map(
    prism, x, constant_map(pt, x, SimplexRef(0, (), "a1")),
    designated={"0": SimplexRef(1, (), "a1<y0")},
)
lift = lift_homotopy(p, prism, homotopy, start, j_sub=j_sub)
far = prism.pair_ref(SimplexRef(0, (), "0"), SimplexRef(0, (), "1"))
print(f"start at a1 with a1<y0 designated, arrive at: {lift.apply(far)}")

# an edge that is not cocartesian: e01 over the short side of a
# triangle, with a rival edge over the long side and no filler above
u, w, z = (SimplexRef(0, (), c) for c in "uwz")
bad = SimplicialSet({
    0: [("u", []), ("w", []), ("z", [])],
    1: [("e01", [w, u]), ("e02", [z, u])],
})
q = SMap(bad, standard_simplex(2), {
    0: {"u": SimplexRef(0, (), "0"), "w": SimplexRef(0, (), "1"),
        "z": SimplexRef(0, (), "2")},
    1: {"e01": SimplexRef(1, (), "0.1"), "e02": SimplexRef(1, (), "0.2")},
})
bad.validate()  # built by hand, so checked by hand
q.validate()
prism = cylinder(pt)
homotopy = classifying_map(q.target, SimplexRef(1, (), "0.1")).compose(prism.to_right)
start, j_sub = start_map(
    prism, bad, constant_map(pt, bad, u),
    designated={"0": SimplexRef(1, (), "e01")},
)
try:
    lift_homotopy(q, prism, homotopy, start, j_sub=j_sub)
except LiftObstruction as obs:
    print(f"\nobstructed: {obs}")
    print(f"unsolvable problem: {obs.problem}")
    print(f"fillers: {count_horn_lifts(q, obs.problem)}")
