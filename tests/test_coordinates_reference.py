"""Cycle coordinates against the way homology once computed them.

`HomologyGroup.coordinates` reads a cycle's coordinates off the
boundary's own Smith form: the rows of v_inv at its free columns.  The
reference here factors the kernel basis as a matrix of its own, solves
each projected cycle in it and applies the relations' row transform, as
`homology` did before.  Both must pick the same generators and give the
same coordinates on every generator and on random cycles.
"""

import random

import pytest

from sslift.cat import cyclic_group_category, nerve
from sslift.corpus import random_poset
from sslift.homology import (
    IntMatrix,
    SmithForm,
    chain_complex,
    homology,
    kernel_basis,
    reduce_unit_pivots,
)
from sslift.products import Fiber, Product
from sslift.sset import SimplexRef, SimplicialSet, boundary

from tests.smith_reference import _smith_tracked
from tests.test_homology import random_matrices
from tests.test_sset import loop_space
from tests.test_transport import comma_projections


class ReferenceGroup:
    """Degree k of the homology of a reduction, with three factorizations:
    the boundary (for its kernel), the kernel basis and the relations."""

    def __init__(self, red, k):
        cx = red.remainder
        self.red, self.k = red, k
        kern = kernel_basis(cx.boundary(k).to_dense())
        self.cycles = SmithForm(kern)
        rels = [self.cycles.solve(col) for col in cx.boundary(k + 1).to_dense().columns()]
        d, self.up, _, upinv, _ = _smith_tracked(IntMatrix.from_columns(kern.cols, rels))
        n = min(d.shape)
        self.orders = [abs(d.data[i][i]) if i < n else 0 for i in range(kern.cols)]
        gens = kern @ upinv
        self.gens = [red.lift(k, gens.column(i)) for i, o in enumerate(self.orders) if o != 1]

    def coordinates(self, chain):
        if any(self.red.original.boundary(self.k).mul_vec(chain)):
            return None
        t = self.up.mul_vec(self.cycles.solve(self.red.project(self.k, chain)))
        return [v % o if o else v for v, o in zip(t, self.orders) if o != 1]


def test_kernel_coordinates_invert_the_kernel_basis():
    rng = random.Random(31)
    for a in random_matrices(rng):
        form = SmithForm(a)
        kern = form.kernel()
        assert form.kernel_coordinates() @ kern == IntMatrix.identity(kern.cols)


def check_coordinates(x, rng):
    prof = homology(x)
    red = reduce_unit_pivots(chain_complex(x))
    for g in prof.groups:
        k = g.degree
        ref = ReferenceGroup(red, k)
        gens = g.gens.columns()
        assert gens == ref.gens, k
        assert [o for o in ref.orders if o != 1] == g.orders, k
        for i, gen in enumerate(gens):
            unit = [1 if j == i else 0 for j in range(len(gens))]
            assert g.coordinates(gen) == ref.coordinates(gen) == unit, (k, i)
        above = red.original.boundary(k + 1)
        for _ in range(4):
            coeffs = [rng.randint(-5, 5) for _ in gens]
            cycle = above.mul_vec([rng.randint(-2, 2) for _ in range(above.cols)])
            for c, gen in zip(coeffs, gens):
                cycle = [a + c * b for a, b in zip(cycle, gen)]
            want = [c % o if o else c for c, o in zip(coeffs, g.orders)]
            assert g.coordinates(cycle) == ref.coordinates(cycle) == want, k
            chain = [rng.randint(-1, 1) for _ in cycle]
            assert g.coordinates(chain) == ref.coordinates(chain), k


def cyclic_nerves():
    return [nerve(cyclic_group_category(n), cap).sset for n in (2, 3, 4, 5) for cap in (3, 4, 5, 6)]


def spheres():
    return [boundary(n + 1) for n in range(1, 6)]


def poset_nerves():
    rng = random.Random(25)
    return [nerve(random_poset(rng, rng.randint(1, 6))).sset for _ in range(20)]


def products():
    """Products of small loops and cyclic nerves, where the relations'
    Smith form has a row transform other than the identity."""
    z2, z4 = (nerve(cyclic_group_category(n), 3).sset for n in (2, 4))
    return [Product(a, b).sset for a, b in ((loop_space(), z2), (z2, z2), (z4, z2))]


def two_three():
    """One vertex, loops a and b, and triangles of boundary 2a, 2a - b
    and a + b: pairing b off leaves d_2 = (2 3), whose Smith form swaps
    a column after a pivot row of v_inv has changed, so H_2 = Z reads
    a free row of v_inv that is no unit row."""
    v, a, b = SimplexRef(0, (), "v"), SimplexRef(1, (), "a"), SimplexRef(1, (), "b")
    sv = SimplexRef(1, (0,), "v")
    cells = {0: [("v", [])], 1: [("a", [v, v]), ("b", [v, v])],
             2: [("t1", [a, sv, a]), ("t2", [a, b, a]), ("t3", [b, sv, a])]}
    return [SimplicialSet(cells)]


def comma_fibers():
    """Vertex and edge fibers of the 30 uncapped projections onto the
    target poset among the comma projections of the transport tests."""
    objects = []
    for p in comma_projections()[::6]:
        base = p.target
        for r in base.refs(0) + [e for e in base.refs(1) if not e.word]:
            objects.append(Fiber(p, r).sset)
    return objects


@pytest.mark.parametrize(
    "family", [cyclic_nerves, spheres, poset_nerves, products, two_three, comma_fibers]
)
def test_coordinates_match_the_factored_cycle_basis(family):
    rng = random.Random(2025)
    objects = family()
    assert objects
    for x in objects:
        check_coordinates(x, rng)

