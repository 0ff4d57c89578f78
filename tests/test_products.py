"""Products, pullbacks, and fibers of maps."""

import itertools
import random

import pytest

from sslift import words as W
from sslift.cat import cyclic_group_category, nerve, nerve_functor
from sslift.corpus import build_fixtures, circle, random_poset, random_poset_functor
from sslift.products import (
    Fiber,
    PairedSSet,
    Product,
    _pair_id,
    joint_normal_form,
    pair_map,
    pullback_induced,
)
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    boundary,
    classifying_map,
    horn,
    identity_map,
    standard_simplex,
)
from sslift.transport import vertex_fiber
from test_lifting_reference import ref_act
from tests.test_sset import loop_space


def vertex_inclusion(n, vertex):
    """The inclusion of the point at a vertex of the standard n-simplex."""
    return classifying_map(standard_simplex(n), SimplexRef(0, (), str(vertex)))


def grid_chain_count(m, n, k):
    """Strictly increasing (k+1)-chains in the poset [m] x [n]."""
    verts = [(a, b) for a in range(m + 1) for b in range(n + 1)]

    def lt(u, v):
        return u[0] <= v[0] and u[1] <= v[1] and u != v

    return sum(
        all(lt(ch[i], ch[i + 1]) for i in range(k))
        for ch in itertools.combinations(verts, k + 1)
    )


def test_product_of_simplices_counts():
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        prod = Product(standard_simplex(m), standard_simplex(n))
        prod.sset.validate()
        got = prod.sset.counts()
        want = tuple(
            grid_chain_count(m, n, k) for k in range(m + n + 1)
        )
        assert got == want


def test_product_components_jointly_nondegenerate():
    prod = Product(standard_simplex(2), loop_space())
    for (n, cell_id), (lref, rref) in prod.components.items():
        assert not (set(lref.word) & set(rref.word))
        assert lref.degree == n and rref.degree == n


def test_projections_commute_with_pairing():
    d1 = standard_simplex(1)
    prod = Product(d1, d1)
    diag = pair_map(prod, identity_map(d1), identity_map(d1))
    for n in d1.degrees():
        for c in d1.n_cells(n):
            r = SimplexRef(n, (), c)
            assert prod.to_left.apply(diag.value(n, c)) == r
            assert prod.to_right.apply(diag.value(n, c)) == r


def test_pullback_of_projection_is_fiber():
    x = loop_space()
    prod = Product(x, standard_simplex(1))
    inc = vertex_inclusion(1, 0)
    pb = PairedSSet(inc, prod.to_right)
    pb.sset.validate()
    # pulling the cylinder back over an endpoint recovers the loop
    assert pb.sset.counts() == x.counts()


def test_fiber_over_edge_of_cover(cover_map):
    edge = SimplexRef(1, (), "a<x")
    fib = Fiber(cover_map, edge)
    assert fib.base_ref == edge
    fib.sset.validate()
    assert fib.sset.counts() == (4, 2)
    # two strands, each an edge over the base edge
    tops = fib.sset.n_cells(1)
    images = sorted(str(fib.to_right.value(1, c)) for c in tops)
    assert images == ["a0<x0", "a1<x1"]


def test_fiber_over_vertex(cover_map):
    fib = Fiber(cover_map, SimplexRef(0, (), "b"))
    assert fib.sset.counts() == (2,)


def test_classifying_map_matches_fiber():
    x = loop_space()
    prod = Product(x, standard_simplex(2))
    p = prod.to_right
    edge = SimplexRef(1, (), "0.1")
    fib = Fiber(p, edge)
    # classifier of the fiber composes to the edge inclusion
    cls = classifying_map(p.target, edge)
    for n in fib.sset.degrees():
        for c in fib.sset.n_cells(n):
            lhs = p.apply(fib.to_right.value(n, c))
            rhs = cls.apply(fib.to_left.value(n, c))
            assert lhs == rhs


def test_pullback_induced_commutes(cover_map):
    # include the fiber over a vertex into the fiber over an edge
    edge = SimplexRef(1, (), "a<x")
    fib_e = Fiber(cover_map, edge)
    fib_v = Fiber(cover_map, SimplexRef(0, (), "a"))
    leg = pullback_induced(
        fib_v, fib_e, vertex_inclusion(1, 0), identity_map(cover_map.source)
    )
    leg.validate()
    for c in fib_v.sset.n_cells(0):
        r = leg.value(0, c)
        assert fib_e.to_right.apply(r) == fib_v.to_right.value(0, c)


# -- the brute-force reference ----------------------------------------------


class BruteForcePairs:
    """Paired cells found by trying every pair of degeneracy words and
    cells and keeping the pairs that pass a compatibility predicate.  The
    join in PairedSSet must give the same cells, ids, order and faces."""

    def __init__(self, left_object, right_object, compatible):
        self.components = {}
        ids = {}
        bound = max(left_object.dimension + right_object.dimension, -1)
        layers = {}
        for n in range(bound + 1):
            found = []
            for p in range(min(n, left_object.dimension) + 1):
                for q in range(min(n, right_object.dimension) + 1):
                    if (n - p) + (n - q) > n:
                        continue
                    for a in itertools.combinations(range(n - 1, -1, -1), n - p):
                        for b in itertools.combinations(range(n - 1, -1, -1), n - q):
                            if set(a) & set(b):
                                continue
                            for x in left_object.n_cells(p):
                                lref = SimplexRef(n, a, x)
                                for y in right_object.n_cells(q):
                                    rref = SimplexRef(n, b, y)
                                    if compatible(lref, rref):
                                        found.append((_pair_id(lref, rref), (lref, rref)))
            found.sort(key=lambda item: item[0])
            layers[n] = found
            for cell_id, pair in found:
                self.components[(n, cell_id)] = pair
                ids[pair] = cell_id
        cells = {}
        for n, found in layers.items():
            layer = []
            for cell_id, (lref, rref) in found:
                faces = []
                for i in range(n + 1 if n else 0):
                    delta = W.delta_values(i, n)
                    u = ref_act(left_object, lref, delta)
                    v = ref_act(right_object, rref, delta)
                    common, nu, nv = joint_normal_form(u, v)
                    faces.append(SimplexRef(n - 1, common, ids[(nu, nv)]))
                layer.append((cell_id, faces))
            cells[n] = layer
        truncs = [t for t in (left_object.truncated_at, right_object.truncated_at)
                  if t is not None]
        self.sset = SimplicialSet(cells, truncated_at=min(truncs, default=None))


def reference_product(x, y):
    return BruteForcePairs(x, y, lambda a, b: True)


def reference_pullback(along, of):
    return BruteForcePairs(along.source, of.source, lambda a, b: along.apply(a) == of.apply(b))


def assert_matches(got, ref):
    assert list(got.components.items()) == list(ref.components.items())
    assert got.sset == ref.sset
    got.sset.validate()
    got.to_left.validate()
    got.to_right.validate()


def random_poset_nerve(seed):
    rng = random.Random(seed)
    return nerve(random_poset(rng, rng.randint(2, 4), density=0.6)).sset


FACTORS = {
    "simplex0": lambda: standard_simplex(0),
    "simplex1": lambda: standard_simplex(1),
    "simplex2": lambda: standard_simplex(2),
    "simplex3": lambda: standard_simplex(3),
    "boundary2": lambda: boundary(2),
    "boundary3": lambda: boundary(3),
    "horn2_1": lambda: horn(2, 1),
    "horn3_0": lambda: horn(3, 0),
    "circle": circle,
    "loop": loop_space,
    "z3_cap3": lambda: nerve(cyclic_group_category(3), 3).sset,
    **{f"poset{s}": (lambda s=s: random_poset_nerve(s)) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_products_match_the_brute_force_reference(name):
    x = FACTORS[name]()
    rng = random.Random(name)
    # every factor against a seeded sample of the others, and itself
    partners = [name] + rng.sample(sorted(FACTORS), 4)
    for other in partners:
        y = FACTORS[other]()
        if x.dimension + y.dimension > 5:
            continue
        assert_matches(Product(x, y), reference_product(x, y))
        assert_matches(Product(y, x), reference_product(y, x))


def fixture_maps():
    return {k: v for k, v in build_fixtures().items() if isinstance(v, SMap)}


def random_nerve_maps(seed, count):
    """count random poset-functor nerve maps into one random poset's nerve."""
    rng = random.Random(seed)
    while True:
        d = random_poset(rng, rng.randint(2, 4), density=0.6)
        maps = []
        for _ in range(50 * count):
            c = random_poset(rng, rng.randint(2, 4), density=0.6)
            try:
                f = random_poset_functor(rng, c, d)
            except ValueError:
                continue
            maps.append(nerve_functor(f)[0])
            if len(maps) == count:
                break
        if len(maps) == count:
            # one target object for every map, as a cospan needs
            target = maps[0].target
            return [SMap(m.source, target, m.assignment) for m in maps]


MAP_CASES = [("fixture", k) for k in sorted(fixture_maps())] + [
    ("random", s) for s in range(6)
]


def build_map(case):
    kind, arg = case
    return fixture_maps()[arg] if kind == "fixture" else random_nerve_maps(arg, 1)[0]


@pytest.mark.parametrize("case", MAP_CASES, ids=[f"{k}-{a}" for k, a in MAP_CASES])
def test_fibers_over_every_simplex_match_the_reference(case):
    p = build_map(case)
    for n in range(p.target.dimension + 2):
        # degenerate simplices included
        for r in p.target.refs(n):
            fib = Fiber(p, r)
            assert_matches(fib, reference_pullback(fib.classifier, p))


def test_pullbacks_of_fixture_cospans_match_the_reference():
    fx = fixture_maps()
    cospans = [
        ("interval_vertex.ssx", "cylinder_proj.ssx"),
        ("interval_vertex.ssx", "boundary_collapse.ssx"),
        ("edge_into_circle.ssx", "double_cover.ssx"),
        ("cylinder_proj.ssx", "boundary_collapse.ssx"),
        ("double_cover.ssx", "edge_into_circle.ssx"),
    ]
    for left, right in cospans:
        along, of = fx[left], fx[right]
        assert_matches(PairedSSet(along, of), reference_pullback(along, of))


@pytest.mark.parametrize("seed", range(6))
def test_pullbacks_of_random_cospans_match_the_reference(seed):
    rng = random.Random(seed)
    p, g = random_nerve_maps(100 + seed, 2)
    base = p.target
    legs = [p, g, identity_map(base)]
    for n in range(base.dimension + 1):
        legs.append(classifying_map(base, rng.choice(base.refs(n))))
    for along in legs:
        of = rng.choice([p, g])
        assert_matches(PairedSSet(along, of), reference_pullback(along, of))


def test_empty_factor_gives_the_empty_object():
    empty = SimplicialSet({})
    for x, y in [(empty, standard_simplex(1)), (circle(), empty), (empty, empty)]:
        got = Product(x, y)
        assert got.sset.counts() == () and got.components == {}
        assert_matches(got, reference_product(x, y))


def test_truncation_is_the_least_of_the_factors():
    z2 = nerve(cyclic_group_category(2), 2).sset
    z3 = nerve(cyclic_group_category(3), 3).sset
    assert Product(z2, z3).sset.truncated_at == 2
    assert Product(z3, z2).sset.truncated_at == 2
    assert Product(z3, standard_simplex(1)).sset.truncated_at == 3
    assert Product(circle(), standard_simplex(1)).sset.truncated_at is None
    assert_matches(Product(z2, z3), reference_product(z2, z3))


def semi_simplicial_loop():
    v = SimplexRef(0, (), "v")
    return SimplicialSet({0: [("v", [])], 1: [("e", [v, v])]}, simplicial=False)


def test_semi_simplicial_factor_raises():
    with pytest.raises(SimplicialError, match="simplicial factors"):
        Product(semi_simplicial_loop(), standard_simplex(1))
    with pytest.raises(SimplicialError, match="simplicial factors"):
        Product(standard_simplex(1), semi_simplicial_loop())


def test_mismatched_cospan_raises_before_the_factor_check():
    c = circle()
    into_circle = classifying_map(c, SimplexRef(0, (), c.n_cells(0)[0]))
    into_interval = vertex_inclusion(1, 0)
    with pytest.raises(SimplicialError, match="common target"):
        PairedSSet(into_circle, into_interval)
    semi = semi_simplicial_loop()
    point = standard_simplex(0)
    to_point = SMap(semi, point, {0: {"v": SimplexRef(0, (), "0")},
                                  1: {"e": SimplexRef(1, (0,), "0")}})
    with pytest.raises(SimplicialError, match="common target"):
        PairedSSet(to_point, into_circle)
    with pytest.raises(SimplicialError, match="simplicial factors"):
        PairedSSet(to_point, vertex_inclusion(0, 0))


def projection_assignment(pair, side):
    """The projection to one factor, read off the components."""
    assignment = {}
    for (n, cell_id), components in pair.components.items():
        assignment.setdefault(n, {})[cell_id] = components[side]
    return assignment


def test_projections_are_built_on_first_read():
    pairs = [Product(standard_simplex(2), loop_space())]
    for p in fixture_maps().values():
        pairs += [vertex_fiber(p, SimplexRef(0, (), v))[0] for v in p.target.n_cells(0)]
    for pair in pairs:
        assert "to_left" not in vars(pair) and "to_right" not in vars(pair)
        for side, factor in enumerate((pair.left_object, pair.right_object)):
            proj = pair.to_right if side else pair.to_left
            assert proj.source is pair.sset and proj.target is factor
            assert proj.assignment == projection_assignment(pair, side)
            assert (pair.to_right if side else pair.to_left) is proj
