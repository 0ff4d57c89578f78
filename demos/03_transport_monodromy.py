#!/usr/bin/env python3
"""Fiber homology transported along base edges, composed around a loop.

The double cover of the 4-cycle nerve has two-point fibers.  Each edge
moves H_0 by an invertible integer matrix; composing around the square
exchanges the two sheets, so the cover is connected.
"""

from sslift import SimplexRef, nerve_functor, transport_homology
from sslift.corpus import collapse_tower, double_cover

p = nerve_functor(double_cover())[0]

walk = [("a<x", False), ("b<x", True), ("b<y", False), ("a<y", True)]
total = None
for name, backward in walk:
    res = transport_homology(p, SimplexRef(1, (), name), backward=backward)
    m = res.matrix(0)
    arrow = "<-" if backward else "->"
    print(f"{name:>4} {arrow}  H_0 matrix {m.to_lists()}  iso={res.is_iso}")
    total = m if total is None else m @ total

print(f"\nmonodromy around the square: {total.to_lists()}")
print(f"squares to the identity: {(total @ total).to_lists()}")

# where sheets merge, transport still exists but is not invertible
q = nerve_functor(collapse_tower())[0]
for name in ("0<1", "1<2", "0<2"):
    res = transport_homology(q, SimplexRef(1, (), name))
    print(f"\ntower edge {name}: H_0 {res.matrix(0).to_lists()}  iso={res.is_iso}")
t01 = transport_homology(q, SimplexRef(1, (), "0<1")).matrix(0)
t12 = transport_homology(q, SimplexRef(1, (), "1<2")).matrix(0)
t02 = transport_homology(q, SimplexRef(1, (), "0<2")).matrix(0)
print(f"\ncomposite along 0<1 then 1<2 equals direct 0<2: {(t12 @ t01) == t02}")
