"""Objects the library builds are trusted: their constructors do not
validate them, so these tests do.  Every builder runs over the committed
fixtures and seeded random posets and functors, and every object it
returns, with the sources and targets of its maps, passes validate()."""

import random
from pathlib import Path

import pytest

from sslift import corpus
from sslift.cat import (
    comma_category,
    cyclic_group_category,
    identity_functor,
    nat_trans_homotopy,
    nerve,
    nerve_functor,
    op_category,
    op_functor,
    slice_category,
)
from sslift.formats import load_path
from sslift.lifting import last_vertex_contraction
from sslift.products import Fiber, pair_map, pullback_induced
from sslift.sset import (
    SimplexRef,
    boundary,
    classifying_map,
    constant_map,
    horn,
    identity_map,
    opposite,
    opposite_map,
    restrict_map,
    skeleton,
    standard_simplex,
    subcomplex,
)
from sslift.theoremb import _comma_unit
from sslift.transport import _vertex_leg, vertex_fiber

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_valid(*objs):
    """Validate each object, and the source and target of each map,
    functor and natural transformation among them."""
    for obj in objs:
        obj.validate()
        for end in (getattr(obj, "source", None), getattr(obj, "target", None)):
            if end is not None:
                assert_valid(end)


def fixture(name):
    return load_path(str(FIXTURES / name))


def random_functors(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = corpus.random_poset(rng, rng.randint(2, 4), density=0.6)
        d = corpus.random_poset(rng, rng.randint(2, 3), density=0.6)
        try:
            out.append(corpus.random_poset_functor(rng, c, d))
        except ValueError:
            continue
    return out


FUNCTORS = {
    **{name: (lambda name=name: fixture(name))
       for name in ("cover_functor.cat", "collapse_functor.cat", "point_a.cat")},
    **{f"random{s}": (lambda s=s: random_functors(s, 1)[0]) for s in range(4)},
}

MAPS = {
    **{name: (lambda name=name: fixture(name))
       for name in ("double_cover.ssx", "collapse_tower.ssx", "cylinder_proj.ssx",
                    "boundary_collapse.ssx", "edge_into_circle.ssx")},
    **{f"random{s}": (lambda s=s: nerve_functor(random_functors(10 + s, 1)[0])[0])
       for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_categorical_builds_validate(name):
    f = FUNCTORS[name]()
    m, src, tgt = nerve_functor(f)
    assert_valid(m, src.sset, tgt.sset)
    comma, to_c, to_d = comma_category(f)
    assert_valid(comma, to_c, to_d, f.compose_with(to_c))
    for d in f.target.objects:
        assert_valid(*slice_category(f, d))
    assert_valid(
        op_category(f.source),
        op_functor(f),
        identity_functor(f.target).compose_with(f),
        op_functor(to_d),
    )
    alpha = _comma_unit(f, comma, to_c)
    assert_valid(alpha)
    h, prism, _, _ = nat_trans_homotopy(alpha)
    assert_valid(h, prism.to_left, prism.to_right)


@pytest.mark.parametrize("n", range(2, 6))
def test_nerves_of_cyclic_groups_validate(n):
    z = cyclic_group_category(n)
    for cap in (2, 3, 4):
        x = nerve(z, cap).sset
        assert_valid(x, opposite(x))
    m = nerve_functor(identity_functor(z), 3)[0]
    assert_valid(m, opposite_map(m))


@pytest.mark.parametrize("n", range(5))
def test_standard_objects_validate(n):
    delta = standard_simplex(n)
    assert_valid(delta, boundary(n), opposite(delta))
    for k in range(-1, n + 1):
        assert_valid(skeleton(delta, k))
    if n >= 1:
        for i in range(n + 1):
            assert_valid(horn(n, i))
        h, prism = last_vertex_contraction(n)
        assert_valid(h, prism.to_left, prism.to_right)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_simplicial_builds_validate(name):
    p = MAPS[name]()
    x, y = p.source, p.target
    assert_valid(opposite(x), opposite_map(p), identity_map(x), identity_map(y))
    assert_valid(p.compose(identity_map(x)), identity_map(y).compose(p))
    vertex = SimplexRef(0, (), y.n_cells(0)[0])
    assert_valid(constant_map(x, y, vertex))
    for k in range(-1, x.dimension + 1):
        sub = skeleton(x, k)
        assert_valid(sub, restrict_map(p, sub))
    top = [(n, c) for n in x.degrees() for c in x.n_cells(n)][-1:]
    assert_valid(subcomplex(x, top))
    for n in range(3):
        for r in y.refs(n):
            assert_valid(classifying_map(y, r))
    for n in range(2):
        for sigma in y.refs(n):
            fib = Fiber(p, sigma)
            assert_valid(fib.sset, fib.to_left, fib.to_right)
            assert_valid(pair_map(fib, fib.to_left, fib.to_right))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_vertex_legs_validate_and_match_pullback_induced(name):
    """Every vertex leg, over every simplex up to degree 2 and at every
    vertex position, is a map, and it is the map that pullback_induced
    builds from the vertex's inclusion and the identity of the total space."""
    p = MAPS[name]()
    x, y = p.source, p.target
    idx = identity_map(x)
    for n in range(3):
        delta = standard_simplex(n)
        for sigma in y.refs(n):
            fib = Fiber(p, sigma)
            for pos in range(n + 1):
                vfib = vertex_fiber(p, y.vertex_of(sigma, pos))[0]
                leg = _vertex_leg(vfib, fib, pos)
                assert_valid(leg)
                inclusion = classifying_map(delta, SimplexRef(0, (), str(pos)))
                assert leg == pullback_induced(vfib, fib, inclusion, idx)


def test_corpus_objects_validate():
    c4 = corpus.pseudo_circle()
    assert_valid(
        corpus.circle(),
        c4,
        corpus.double_cover(),
        corpus.terminal_category(),
        corpus.point_functor(c4, "b"),
        corpus.collapse_tower(),
        corpus.cylinder_projection(),
        corpus.interval_vertex("0"),
        *corpus.build_fixtures().values(),
    )
    rng = random.Random(0)
    for _ in range(5):
        assert_valid(corpus.random_poset(rng, rng.randint(0, 6)))

