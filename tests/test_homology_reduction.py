"""Homology by unit-pivot reduction against the unreduced reference.

The reference runs the same Smith-form stage on the unreduced complex,
through the identity reduction, so every boundary is factored dense as
before reductions existed.  Both must give the same groups, and the
generators of one must be an invertible change of basis of the other's.
The reduction itself is checked as data: its inclusion and projection
are chain maps, and projecting a lifted chain gives the chain back.
Independent oracles close the loop: known groups of group nerves and
spheres, the Euler characteristic, Kunneth with its Tor term, and the
homology of the opposite.  A degree with no differential left, which
homology reads straight off the reduction, must give what the
two-Smith-form loop gives on the same reduction, cycle coordinates
included.
"""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sslift.cat import (
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    nerve,
    nerve_functor,
)
from sslift.corpus import build_fixtures, circle, random_poset, random_poset_functor
from sslift.formats import load_path
from sslift.homology import (
    HomologyGroup,
    IntMatrix,
    Reduction,
    SmithForm,
    chain_complex,
    euler_characteristic,
    homology,
    homology_of_reduction,
    is_group_iso,
    kernel_basis,
    reduce_unit_pivots,
)
from sslift.products import Fiber, PairedSSet, Product
from sslift.sset import SMap, SimplexRef, SimplicialSet, boundary, opposite, standard_simplex

from tests import test_coordinates_reference as coords
from tests.test_sset import SSX_FIXTURES
from tests.test_transport import comma_projections

SEEDED = settings(max_examples=12, deadline=None, derandomize=True)


# -- inputs --------------------------------------------------------------------


def moore_space(n: int) -> SimplicialSet:
    """One vertex p, a loop e_1 = e and loops e_k ~ k e glued by triangles,
    then a disc on e_n: H_1 = Z/n and nothing above."""
    p = SimplexRef(0, (), "p")
    flat = SimplexRef(1, (0,), "p")
    edges = [(f"e{k}", [p, p]) for k in range(1, n + 1)]

    def e(k):
        return SimplexRef(1, (), f"e{k}")

    # d(t_k) = e_1 - e_{k+1} + e_k, and d(disc) = -e_n
    triangles = [(f"t{k}", [e(1), e(k + 1), e(k)]) for k in range(1, n)]
    triangles.append(("disc", [flat, e(n), flat]))
    return SimplicialSet({0: [("p", [])], 1: edges, 2: triangles})


def fixture_ssets():
    """Every simplicial set the committed fixtures name or build."""
    out = []
    for name, obj in sorted(build_fixtures().items()):
        if isinstance(obj, SimplicialSet):
            out.append((name, obj))
        elif isinstance(obj, SMap):
            out += [(f"{name} source", obj.source), (f"{name} target", obj.target)]
        elif hasattr(obj, "object_map"):  # a functor
            m, _, _ = nerve_functor(obj)
            out += [(f"{name} source", m.source), (f"{name} target", m.target)]
        else:  # a category
            out.append((name, nerve(obj).sset))
    return out


def cyclic_nerves():
    """Nerves of Z/2..Z/6 truncated at caps 3-5, with their known groups:
    Z, then Z/n in odd degrees and 0 in even ones."""
    for n in range(2, 7):
        for cap in (3, 4, 5):
            x = nerve(cyclic_group_category(n), cap).sset
            want = [(1, ())] + [(0, (n,) if k % 2 else ()) for k in range(1, cap)]
            yield f"Z/{n} cap {cap}", x, want


def random_nerve(seed: int, lo: int = 2, hi: int = 6) -> SimplicialSet:
    rng = random.Random(seed)
    return nerve(random_poset(rng, rng.randint(lo, hi))).sset


def random_pullback(seed: int) -> SimplicialSet:
    """Pullback of the nerves of two random monotone maps into one
    random poset."""
    rng = random.Random(seed)
    d = random_poset(rng, rng.randint(1, 3))
    base = nerve(d).sset
    maps = []
    for _ in range(2):
        c = random_poset(rng, rng.randint(1, 3))
        m, _, _ = nerve_functor(random_poset_functor(rng, c, d))
        values = {n: {c: m.value(n, c) for c in m.source.n_cells(n)} for n in m.source.degrees()}
        maps.append(SMap(m.source, base, values))
    return PairedSSet(*maps).sset


# -- the reference and the checks ------------------------------------------------


def identity_reduction(cx) -> Reduction:
    kept = [list(range(cx.rank(k))) for k in range(cx.dimension + 1)]
    return Reduction(cx, cx, kept, [[] for _ in kept])


def top_group(x):
    return None if x.truncated_at is None else max(x.truncated_at - 1, -1)


def reference_homology(x):
    """The Smith-form stage on the unreduced complex."""
    return homology_of_reduction(identity_reduction(chain_complex(x)), top_group(x))


def unit(i, r):
    return [1 if j == i else 0 for j in range(r)]


def reduced_mod(vec, orders):
    return [v % o if o else v for v, o in zip(vec, orders)]


def check_change_of_basis(g, rg):
    """The reference coordinates of g's generators, and g's coordinates
    of the reference generators, are mutually inverse modulo the orders;
    on the free part the change of basis has determinant 1 or -1."""
    assert g.orders == rg.orders
    orders = g.orders
    r = len(orders)
    m = IntMatrix.from_columns(r, [rg.coordinates(c) for c in g.gens.columns()])
    n = IntMatrix.from_columns(r, [g.coordinates(c) for c in rg.gens.columns()])
    for a, b in ((m, n), (n, m)):
        prod = a @ b
        for j in range(r):
            assert reduced_mod(prod.column(j), orders) == unit(j, r)
    free = [i for i, o in enumerate(orders) if o == 0]
    if free:
        block = sympy.Matrix([[m.data[i][j] for j in free] for i in free])
        assert abs(block.det()) == 1
    torsion = [i for i, o in enumerate(orders) if o]
    for i in torsion:  # a torsion class has no free coordinates
        assert all(m.data[f][i] == 0 for f in free)
    assert is_group_iso(g, rg, m) and is_group_iso(rg, g, n)


def check_reduction_data(red):
    """Inclusion and projection are chain maps, project o lift = id, and
    the remainder is a chain complex."""
    cx, rem = red.original, red.remainder
    cx.validate()
    rem.validate()
    for k in range(cx.dimension + 1):
        for i in range(rem.rank(k)):
            e = unit(i, rem.rank(k))
            z = red.lift(k, e)
            assert red.project(k, z) == e
            down = rem.boundary(k).mul_vec(e)
            assert cx.boundary(k).mul_vec(z) == (red.lift(k - 1, down) if k else [])
        for i in range(cx.rank(k)):
            e = unit(i, cx.rank(k))
            down = cx.boundary(k).mul_vec(e)
            want = red.project(k - 1, down) if k else []
            assert rem.boundary(k).mul_vec(red.project(k, e)) == want


def check_groups(prof):
    """Every lifted generator is a cycle with unit coordinates, and every
    cycle of the remainder lifts to a cycle that projects back to it."""
    red = prof.groups[0]._reduction if prof.groups else None
    for k, g in enumerate(prof.groups):
        r = len(g.orders)
        d = red.original.boundary(k)
        for i, col in enumerate(g.gens.columns()):
            assert not any(d.mul_vec(col))
            assert g.coordinates(col) == unit(i, r)
        for zp in kernel_basis(red.remainder.boundary(k).to_dense()).columns():
            z = red.lift(k, zp)
            assert not any(d.mul_vec(z))
            assert red.project(k, z) == zp


def check_against_reference(x, data=True):
    prof = homology(x)
    ref = reference_homology(x)
    assert prof.invariants() == ref.invariants()
    assert len(prof.groups) == len(ref.groups) and prof.truncated_at == x.truncated_at
    check_groups(prof)
    for g, rg in zip(prof.groups, ref.groups):
        check_change_of_basis(g, rg)
    if data:
        check_reduction_data(reduce_unit_pivots(chain_complex(x)))
    return prof


# -- reduced against reference ---------------------------------------------------


def test_fixtures_against_reference():
    for name, x in fixture_ssets():
        check_against_reference(x)


def test_cyclic_nerves_against_reference_and_known_groups():
    for name, x, want in cyclic_nerves():
        if sum(x.counts()) <= 400:  # the dense reference is slow beyond that
            prof = check_against_reference(x, data=sum(x.counts()) <= 130)
        else:
            prof = homology(x)
            check_groups(prof)
        assert list(prof.invariants()) == want, name


def test_spheres_against_reference():
    for n in range(1, 6):
        prof = check_against_reference(boundary(n + 1))
        assert list(prof.invariants()) == [(1, ())] + [(0, ())] * (n - 1) + [(1, ())]


def test_moore_spaces():
    for n in (2, 3, 4):
        prof = check_against_reference(moore_space(n))
        assert list(prof.invariants()) == [(1, ()), (0, (n,)), (0, ())]


def test_pivot_clears_its_row_from_earlier_columns():
    """The first 2-cell has boundary 2e and no unit entry, so it stays;
    the second has boundary e and is paired with e.  Eliminating that pair
    must clear row e from the first column as well: c1 - 2 c2 is a cycle."""
    p = SimplexRef(0, (), "p")
    e = SimplexRef(1, (), "e")
    x = SimplicialSet({
        0: [("p", [])],
        1: [("e", [p, p])],
        2: [("c1", [e, SimplexRef(1, (0,), "p"), e]), ("c2", [e, e, e])],
    })
    prof = check_against_reference(x)
    assert list(prof.invariants()) == [(1, ()), (0, ()), (1, ())]
    assert prof.group(2).gens.columns() in ([[1, -2]], [[-1, 2]])


@SEEDED
@given(st.integers(0, 2**32 - 1))
def test_random_poset_nerves(seed):
    x = random_nerve(seed)
    check_against_reference(x)
    assert euler_characteristic(x) == sum((-1) ** k * g.betti for k, g in enumerate(homology(x).groups))


@SEEDED
@given(st.integers(0, 2**32 - 1))
def test_random_products(seed):
    rng = random.Random(seed)
    pool = [circle(), standard_simplex(1), boundary(2), moore_space(2)]
    left = rng.choice(pool)
    right = random_nerve(rng.randrange(2**32), 1, 3)
    check_against_reference(Product(left, right).sset, data=False)


@SEEDED
@given(st.integers(0, 2**32 - 1))
def test_random_pullbacks(seed):
    check_against_reference(random_pullback(seed))


def test_chain4_comma_nerve_reduces_to_one_cell():
    """Dense Smith forms took minutes on this complex; the reduction
    leaves a single vertex."""
    x = nerve(comma_category(identity_functor(chain_poset(4)))[0]).sset
    assert sum(x.counts()) == 2879
    red = reduce_unit_pivots(chain_complex(x))
    assert sum(red.remainder.rank(k) for k in range(x.dimension + 1)) == 1
    prof = homology(x)
    assert list(prof.invariants()) == [(1, ())] + [(0, ())] * x.dimension
    check_groups(prof)


# -- free degrees against the two-Smith-form loop ----------------------------------


def generic_homology(red, top=None):
    """homology_of_reduction's two-Smith-form loop, run on every degree
    alike, free or not: the reference for the free path."""
    cx = red.remainder
    groups = []
    limit = cx.dimension if top is None else top
    for k in range(limit + 1):
        cycles = SmithForm(cx.boundary(k).to_dense())
        kern = cycles.kernel()
        rows = cycles.kernel_coordinates()
        rels = [
            [sum(r[i] * c for i, c in col.items()) for r in rows.data]
            for col in cx.boundary(k + 1).entries
        ]
        relations = SmithForm(IntMatrix.from_columns(kern.cols, rels))
        orders_full = [abs(x) for x in relations.diagonal]
        orders_full += [0] * (kern.cols - len(orders_full))
        gens_full = kern @ relations.u_inv
        kept = [i for i, order in enumerate(orders_full) if order != 1]
        kept_cols = [red.lift(k, gens_full.column(i)) for i in kept]
        kept_orders = [orders_full[i] for i in kept]
        u = relations.u
        torsion = sorted(o for o in kept_orders if o)
        betti = sum(1 for o in kept_orders if o == 0)
        groups.append(
            HomologyGroup(
                k,
                betti,
                torsion,
                IntMatrix.from_columns(red.original.rank(k), kept_cols),
                kept_orders,
                _coordinates=IntMatrix(len(kept), u.cols, [u.data[i] for i in kept]) @ rows,
                _reduction=red,
            )
        )
    return groups


def check_free_path(x, rng):
    """homology(x) against the generic loop on the same reduction, group
    by group and on random cycles and chains; returns how many degrees
    had no differential left."""
    prof = homology(x)
    red = reduce_unit_pivots(chain_complex(x))
    ref = generic_homology(red, top_group(x))
    assert len(prof.groups) == len(ref)
    free = 0
    for g, rg in zip(prof.groups, ref):
        k = g.degree
        rem = red.remainder
        free += not any(rem.boundary(k).entries) and not any(rem.boundary(k + 1).entries)
        assert (g.betti, g.torsion, g.orders) == (rg.betti, rg.torsion, rg.orders), k
        assert g.gens == rg.gens, k
        gens = g.gens.columns()
        above = red.original.boundary(k + 1)
        for _ in range(4):
            cycle = above.mul_vec([rng.randint(-2, 2) for _ in range(above.cols)])
            for gen in gens:
                c = rng.randint(-5, 5)
                cycle = [a + c * b for a, b in zip(cycle, gen)]
            assert g.coordinates(cycle) == rg.coordinates(cycle), k
            chain = [rng.randint(-1, 1) for _ in cycle]
            assert g.coordinates(chain) == rg.coordinates(chain), k
    return free


def ssx_fixtures():
    out = []
    for path in SSX_FIXTURES:
        loaded = load_path(str(path))
        out += [loaded.source, loaded.target] if isinstance(loaded, SMap) else [loaded]
    return out


def comma_fibers():
    """The vertex and edge fibers of all the transport tests' comma projections."""
    objects = []
    for p in comma_projections():
        for r in p.target.refs(0) + [e for e in p.target.refs(1) if not e.word]:
            objects.append(Fiber(p, r).sset)
    return objects


@pytest.mark.parametrize(
    "family", [ssx_fixtures, coords.cyclic_nerves, coords.spheres, coords.poset_nerves, comma_fibers]
)
def test_free_degrees_match_the_generic_loop(family):
    rng = random.Random(32)
    objects = family()
    assert objects
    assert sum(check_free_path(x, rng) for x in objects)


# -- independent oracles -----------------------------------------------------------


def _prime_powers(n):
    out = []
    p = 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def invariants_of(orders):
    """(betti, invariant factors ascending) of the sum of cyclic groups
    Z/o (Z for o = 0)."""
    betti = sum(1 for o in orders if o == 0)
    by_prime: dict[int, list[int]] = {}
    for o in orders:
        if o > 1:
            for p, q in _prime_powers(o):
                by_prime.setdefault(p, []).append(q)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * depth
    for qs in by_prime.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return betti, tuple(sorted(factors))


def cyclic_orders(g):
    return [0] * g.betti + list(g.torsion)


def tensor(a, b):
    return math.gcd(a, b)  # Z/a (x) Z/b, with Z = Z/0


def tor(a, b):
    return 0 if a == 0 or b == 0 else math.gcd(a, b)


def kunneth(px, py, n):
    orders = []
    for i in range(n + 1):
        for a in cyclic_orders(px.group(i)):
            for b in cyclic_orders(py.group(n - i)):
                orders.append(tensor(a, b))
    for i in range(n):
        for a in cyclic_orders(px.group(i)):
            for b in cyclic_orders(py.group(n - 1 - i)):
                t = tor(a, b)
                if t:
                    orders.append(t)
    return invariants_of(orders)


KUNNETH_POOL = {
    "point": lambda: standard_simplex(0),
    "circle": circle,
    "S^2": lambda: boundary(3),
    "M(Z/2)": lambda: moore_space(2),
    "M(Z/3)": lambda: moore_space(3),
    "M(Z/4)": lambda: moore_space(4),
}


@SEEDED
@given(st.sampled_from(sorted(KUNNETH_POOL)), st.sampled_from(sorted(KUNNETH_POOL)))
def test_kunneth_with_tor(a, b):
    x, y = KUNNETH_POOL[a](), KUNNETH_POOL[b]()
    xy = Product(x, y).sset
    px, py, pxy = homology(x), homology(y), homology(xy)
    for n in range(xy.dimension + 1):
        assert pxy.group(n).invariants() == kunneth(px, py, n), (a, b, n)


def test_kunneth_tor_term_appears():
    xy = Product(moore_space(2), moore_space(4)).sset
    prof = homology(xy)
    assert prof.group(2).invariants() == (0, (2,))  # Z/2 (x) Z/4
    assert prof.group(3).invariants() == (0, (2,))  # Tor(Z/2, Z/4)


@SEEDED
@given(st.integers(0, 2**32 - 1))
def test_opposite_has_the_same_homology(seed):
    rng = random.Random(seed)
    x = rng.choice([
        random_nerve(seed),
        moore_space(rng.randint(2, 4)),
        nerve(cyclic_group_category(rng.randint(2, 4)), 4).sset,
        Product(circle(), random_nerve(seed, 1, 3)).sset,
    ])
    assert homology(opposite(x)).invariants() == homology(x).invariants()


def test_euler_characteristic_on_untruncated_inputs():
    inputs = [x for _, x in fixture_ssets() if x.truncated_at is None]
    inputs += [boundary(n) for n in range(1, 6)] + [moore_space(n) for n in (2, 3)]
    inputs.append(Product(circle(), moore_space(3)).sset)
    for x in inputs:
        betti = tuple(g.betti for g in homology(x).groups)
        assert euler_characteristic(x) == sum((-1) ** k * b for k, b in enumerate(betti))
