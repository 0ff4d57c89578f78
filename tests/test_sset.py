"""The cell model: normal forms, the simplicial action, standard objects."""

import itertools
import math
import random
from pathlib import Path

import pytest

from sslift import words as W
from sslift.cat import cyclic_group_category, nerve
from sslift.formats import load_path
from sslift.products import Product
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    ValidationError,
    boundary,
    horn,
    op_ref,
    opposite,
    ref_sort_key,
    simplex_in_standard,
    skeleton,
    standard_simplex,
    standard_vertices,
    subcomplex,
)
from test_lifting_reference import ref_act


def monotone_maps(m, n):
    return [
        v
        for v in itertools.product(range(n + 1), repeat=m + 1)
        if all(v[i] <= v[i + 1] for i in range(m))
    ]


def loop_space():
    pt = SimplexRef(0, (), "p")
    return SimplicialSet({0: [("p", [])], 1: [("e", [pt, pt])]})


def semi_simplicial_triangle():
    d = standard_simplex(2)
    cells = {n: [(c, d.face_tuple(n, c)) for c in d.n_cells(n)] for n in d.degrees()}
    return SimplicialSet(cells, simplicial=False)


def test_standard_simplex_counts():
    # C(n+1, k+1) nondegenerate k-cells
    for n in range(5):
        d = standard_simplex(n)
        assert d.counts() == tuple(math.comb(n + 1, k + 1) for k in range(n + 1))
        d.validate()


def test_boundary_and_horn_counts():
    for n in range(1, 5):
        assert sum(boundary(n).counts()) == 2** (n + 1) - 2
        for i in range(n + 1):
            assert sum(horn(n, i).counts()) == 2 ** (n + 1) - 3
    assert boundary(0).counts() == ()


def test_total_simplices_of_standard():
    # refs(k) counts all k-simplices, degenerate included: monotone [k] -> [n]
    for n in range(4):
        d = standard_simplex(n)
        for k in range(n + 3):
            assert len(d.refs(k)) == len(monotone_maps(k, n))


def test_act_functorial():
    # x.act(x.act(r, f), g) == x.act(r, f o g) on assorted objects
    rng = random.Random(5)
    spaces = [standard_simplex(3), boundary(3), loop_space()]
    for x in spaces:
        refs = [r for k in range(4) for r in x.refs(k)]
        for r in rng.sample(refs, min(12, len(refs))):
            for g_dom in range(3):
                fs = monotone_maps(r.degree, r.degree) + monotone_maps(
                    max(r.degree - 1, 0), r.degree
                )
                for f in rng.sample(fs, min(4, len(fs))):
                    m = len(f) - 1
                    gs = monotone_maps(g_dom, m)
                    for g in rng.sample(gs, min(2, len(gs))):
                        assert x.act(x.act(r, f), g) == x.act(r, W.compose(f, g))


ACT_OBJECTS = {
    "semi-triangle": semi_simplicial_triangle,
    "op-simplex2": lambda: opposite(standard_simplex(2)),
    "op-loop": lambda: opposite(loop_space()),
    "op-Z3-cap3": lambda: opposite(nerve(cyclic_group_category(3), cap=3).sset),
    "op-simplex1xsimplex1": lambda: opposite(
        Product(standard_simplex(1), standard_simplex(1)).sset
    ),
}


@pytest.mark.parametrize("name", sorted(ACT_OBJECTS))
def test_act_matches_the_memo_free_reference(name):
    x = ACT_OBJECTS[name]()
    for n in range(x.dimension + 2):
        for r in x.refs(n):
            for m in range(n + 1):
                for phi in monotone_maps(m, n):
                    if not x.simplicial and len(set(phi)) < len(phi):
                        continue
                    assert x.act(r, phi) == ref_act(x, r, phi), (r, phi)


def test_act_on_a_semi_simplicial_object_rejects_non_injective_maps():
    x = semi_simplicial_triangle()
    for n in x.degrees():
        for r in x.refs(n):
            for m in range(n + 2):
                for phi in monotone_maps(m, n):
                    if len(set(phi)) < len(phi):
                        with pytest.raises(SimplicialError, match="semi-simplicial"):
                            x.act(r, phi)


def test_act_identity_and_top_faces():
    d = standard_simplex(3)
    top = SimplexRef(3, (), "0.1.2.3")
    assert d.act(top, tuple(range(4))) == top
    for i in range(4):
        expect = ".".join(str(v) for v in range(4) if v != i)
        assert d.face(top, i) == SimplexRef(2, (), expect)


def test_simplicial_identities_on_faces():
    x = loop_space()
    e = SimplexRef(1, (), "e")
    s0e = x.degenerate(e, 0)  # degree 2
    s1e = x.degenerate(e, 1)
    for r in (s0e, s1e):
        for j in range(r.degree + 1):
            for i in range(j):
                assert x.face(x.face(r, j), i) == x.face(x.face(r, i), j - 1)


def test_degenerate_faces_recover():
    # d_i s_i = id = d_{i+1} s_i
    for x in (standard_simplex(2), loop_space()):
        for k in range(2):
            for r in x.refs(k):
                for i in range(k + 1):
                    s = x.degenerate(r, i)
                    assert x.face(s, i) == r
                    assert x.face(s, i + 1) == r


def test_normal_form_words_decrease():
    x = loop_space()
    e = SimplexRef(1, (), "e")
    r = x.degenerate(x.degenerate(x.degenerate(e, 0), 2), 1)
    assert r.degree == 4
    assert all(a > b for a, b in zip(r.word, r.word[1:]))
    assert x.resolve(r) == r


def outcome(call):
    try:
        return call()
    except SimplicialError as exc:
        return type(exc), str(exc)


SSX_FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.ssx"))


def vertex_by_faces(x, r, i):
    """Vertex i of r by face maps alone: every other vertex is dropped,
    largest index first, so no step shifts index i."""
    if not 0 <= i <= r.degree:
        raise SimplicialError(f"map {(i,)} does not land in [{r.degree}]")
    for k in range(r.degree, -1, -1):
        if k != i:
            r = x.face(r, k)
    return r


@pytest.mark.parametrize("path", SSX_FIXTURES, ids=lambda path: path.name)
def test_vertex_of_matches_act(path):
    """vertex_of(r, i), which is act(r, (i,)), against a walk by faces
    that never calls act, strays and their errors included."""
    loaded = load_path(str(path))
    for x in (loaded.source, loaded.target) if isinstance(loaded, SMap) else (loaded,):
        strays = [SimplexRef(0, (), "nowhere"), SimplexRef(2, (), "nowhere"),
                  SimplexRef(2, (1,), "nowhere"), SimplexRef(2, (5,), x.n_cells(0)[0])]
        for n in range(5):
            for r in x.refs(n) + strays:
                for i in range(-1, r.degree + 2):
                    assert outcome(lambda: x.vertex_of(r, i)) == outcome(
                        lambda: vertex_by_faces(x, r, i)), (r, i)


def test_vertex_of_matches_standard_vertices():
    for m in range(5):
        d = standard_simplex(m)
        for n in range(5):
            for r in d.refs(n):
                for i in range(r.degree + 1):
                    want = SimplexRef(0, (), str(standard_vertices(r)[i]))
                    assert d.vertex_of(r, i) == want, (r, i)


def test_vertex_of_and_last_edge():
    d = standard_simplex(2)
    top = SimplexRef(2, (), "0.1.2")
    assert d.vertex_of(top, 0) == SimplexRef(0, (), "0")
    assert d.vertex_of(top, 2) == SimplexRef(0, (), "2")
    assert d.last_edge(top) == SimplexRef(1, (), "1.2")
    x = loop_space()
    e = SimplexRef(1, (), "e")
    assert x.last_edge(x.degenerate(e, 0)) == e
    assert x.last_edge(x.degenerate(e, 1)) == x.degenerate(SimplexRef(0, (), "p"), 0)


def test_simplex_in_standard():
    r = simplex_in_standard(3, [0, 2])
    assert r == SimplexRef(1, (), "0.2")
    r = simplex_in_standard(3, [1, 1, 3])
    assert r.cell == "1.3" and r.word == (0,) and r.degree == 2


def test_standard_vertices_inverts_simplex_in_standard():
    for n in range(5):
        d = standard_simplex(n)
        for m in range(6):
            for r in d.refs(m):
                vs = standard_vertices(r)
                assert vs == tuple(int(d.vertex_of(r, i).cell) for i in range(m + 1)), r
                assert simplex_in_standard(n, vs) == r


def test_refs_sorted_in_candidate_order():
    for x in (standard_simplex(2), loop_space(), boundary(3)):
        for k in range(4):
            rs = x.refs(k)
            assert rs == sorted(rs, key=ref_sort_key)
            # nondegenerate cells come first
            words = [len(r.word) for r in rs]
            assert words == sorted(words)


def test_subcomplex_closure_and_skeleton():
    d = standard_simplex(3)
    sub = subcomplex(d, [(2, "0.1.2")])
    assert sub.counts() == (3, 3, 1)
    sub.validate()
    assert skeleton(d, 1).counts() == (4, 6)
    assert skeleton(d, -1).counts() == ()


def test_opposite_involution():
    for x in (standard_simplex(3), loop_space(), horn(2, 0)):
        y = opposite(opposite(x))
        assert y.counts() == x.counts()
        for n, c, faces in x.cell_items():
            assert y.face_tuple(n, c) == faces
        # op reverses faces: d_i op(x) = op(d_{n-i} x)
        z = opposite(x)
        for n, c, _ in x.cell_items():
            if n == 0:
                continue
            r = SimplexRef(n, (), c)
            for i in range(n + 1):
                assert z.face(op_ref(r), i) == op_ref(x.face(r, n - i))


def test_validation_catches_bad_faces():
    pt = SimplexRef(0, (), "p")
    wrong_count = SimplicialSet({0: [("p", [])], 1: [("e", [pt])]})
    with pytest.raises(ValidationError, match="faces, wants"):
        wrong_count.validate()
    dangling = SimplicialSet({0: [("p", [])], 1: [("e", [pt, SimplexRef(0, (), "q")])]})
    with pytest.raises(ValidationError, match="missing cell"):
        dangling.validate()
    with pytest.raises(ValidationError):
        SimplicialSet({0: [("p", []), ("p", [])]})  # duplicate id, refused while building


def mismatched_triangle():
    """A triangle whose faces parse but violate the d_i d_j relations."""
    v = [SimplexRef(0, (), str(i)) for i in range(3)]
    e01 = SimplexRef(1, (), "e01")
    e12 = SimplexRef(1, (), "e12")
    return SimplicialSet(
        {
            0: [(str(i), []) for i in range(3)],
            1: [("e01", [v[1], v[0]]), ("e02", [v[2], v[0]]), ("e12", [v[2], v[1]])],
            # face 1 should be e02 but claims e01: vertices disagree
            2: [("t", [e12, e01, e01])],
        }
    )


def test_validation_checks_simplicial_identities():
    with pytest.raises(ValidationError, match="simplicial identity"):
        mismatched_triangle().validate()
