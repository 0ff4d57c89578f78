"""Transport of fiber homology along base edges, checked against sheet chases."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from sslift.corpus import collapse_tower, double_cover, random_poset, random_poset_functor
from sslift.cat import (
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    nerve,
    nerve_functor,
)
from sslift.formats import load_path
from sslift.homology import IntMatrix
from sslift.lifting import certify_fibration_class
from sslift.products import Fiber, Product
from sslift.sset import SMap, SimplexRef, SimplicialError, standard_simplex, terminal_map
from sslift.theoremb import theorem_b_report
from sslift.transport import _divide_leg, transport_homology, vertex_fiber, vertex_legs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def chase(cover, obj, base_arrow, backward=False):
    """Follow the unique lift of a base arrow through a covering functor."""
    cat = cover.source
    if backward:
        hits = [
            f
            for f in cat.arrows_to(obj)
            if not cat.is_identity(f) and cover.morphism_map[f] == base_arrow
        ]
        assert len(hits) == 1
        return cat.src(hits[0])
    hits = [
        f
        for f in cat.arrows_from(obj)
        if not cat.is_identity(f) and cover.morphism_map[f] == base_arrow
    ]
    assert len(hits) == 1
    return cat.tgt(hits[0])


def fiber_objects(fib):
    """Degree-0 fiber cells in chain order, named by their image objects."""
    out = []
    for c in fib.sset.n_cells(0):
        out.append(fib.to_right.apply(SimplexRef(0, (), c)).cell)
    return out


def assert_matrix_matches_chase(result, p, cover, base_arrow):
    """The H_0 matrix must agree with the categorical sheet chase."""
    fib_src, prof_src = vertex_fiber(p, _vertex(result, cover, start=True))
    fib_tgt, prof_tgt = vertex_fiber(p, _vertex(result, cover, start=False))
    src_cells = fiber_objects(fib_src)
    tgt_cells = fiber_objects(fib_tgt)
    t = result.matrix(0)
    for j, obj in enumerate(src_cells):
        cyc = [0] * len(src_cells)
        cyc[j] = 1
        coords = prof_src.group(0).coordinates(cyc)
        moved = chase(cover, obj, base_arrow, backward=result.backward)
        want = [0] * len(tgt_cells)
        want[tgt_cells.index(moved)] = 1
        assert t.mul_vec(coords) == prof_tgt.group(0).coordinates(want)


def _vertex(result, cover, start):
    # forward runs source -> target of the edge, backward the other way
    pick = 1 if start else 0
    if result.backward:
        pick = 1 - pick
    base = nerve_functor(cover)[0].target
    return base.face(result.edge, pick)


@pytest.fixture(scope="module")
def cover_setup():
    cover = double_cover()
    p = nerve_functor(cover)[0]
    return cover, p


def test_cover_edges_transport_by_permutation(cover_setup):
    cover, p = cover_setup
    for name in ("a<x", "a<y", "b<x", "b<y"):
        edge = SimplexRef(1, (), name)
        res = transport_homology(p, edge)
        assert res.leg_invertible
        assert res.is_iso
        rows = res.matrix(0).to_lists()
        assert sorted(map(tuple, rows)) == [(0, 1), (1, 0)]
        assert_matrix_matches_chase(res, p, cover, name)
    direct = transport_homology(p, SimplexRef(1, (), "a<x"))
    assert direct.matrix(0) == IntMatrix.identity(2)


def test_monodromy_around_the_square_swaps_sheets(cover_setup):
    cover, p = cover_setup

    def step(name, backward):
        res = transport_homology(p, SimplexRef(1, (), name), backward=backward)
        assert res.leg_invertible and res.is_iso
        return res.matrix(0)

    # a -> x <- b -> y <- a, a closed walk generating the base circle
    m = step("a<y", True) @ step("b<y", False) @ step("b<x", True) @ step("a<x", False)
    assert m.to_lists() == [[0, 1], [1, 0]]
    assert (m @ m) == IntMatrix.identity(2)
    # the categorical chase predicts the same exchange of sheets
    obj = "a0"
    for name, back in (("a<x", False), ("b<x", True), ("b<y", False), ("a<y", True)):
        obj = chase(cover, obj, name, backward=back)
    assert obj == "a1"


def test_degenerate_edge_transports_identically(cover_setup):
    _, p = cover_setup
    res = transport_homology(p, SimplexRef(1, (0,), "a"))
    assert res.is_iso
    assert res.matrix(0) == IntMatrix.identity(2)


def legs_transport_json(p, edge, backward):
    """The transport along edge computed from the fiber over the edge and
    its two vertex legs: the general path, which degenerate edges skip."""
    _, leg_src, leg_tgt = vertex_legs(p, edge)
    invert, push = (leg_src, leg_tgt) if backward else (leg_tgt, leg_src)
    matrices, flags = _divide_leg(invert, push) if invert.is_iso else (None, [])
    return {
        "edge": edge.to_json(),
        "backward": backward,
        "source": push.source.to_json(),
        "target": invert.source.to_json(),
        "leg_invertible": invert.is_iso,
        "matrices": None if matrices is None else [m.to_lists() for m in matrices],
        "iso_by_degree": flags,
        "iso": invert.is_iso and all(flags),
        "certificate_status": None,
    }


def fixture_maps():
    maps = (load_path(str(path)) for path in sorted(FIXTURES.glob("*.ssx")))
    return [m for m in maps if isinstance(m, SMap)]


def comma_projections():
    """Both nerve maps out of the comma categories of 30 random poset
    functors, at caps None, 2 and 3."""
    rng = random.Random(20261019)
    maps = []
    made = 0
    while made < 30:
        c = random_poset(rng, rng.randint(1, 4))
        d = random_poset(rng, rng.randint(1, 3))
        try:
            f = random_poset_functor(rng, c, d)
        except ValueError:
            continue
        made += 1
        _, to_c, to_d = comma_category(f)
        for cap in (None, 2, 3):
            maps += [nerve_functor(to_d, cap)[0], nerve_functor(to_c, cap)[0]]
    return maps


def cyclic_maps():
    """Z/n nerves at caps 2-5, with torsion in their homology and a
    truncated top, as terminal maps and as product projections."""
    maps = []
    for n in (2, 3, 4):
        for cap in (2, 3, 4, 5):
            x = nerve(cyclic_group_category(n), cap).sset
            pair = Product(x, standard_simplex(1))
            maps += [terminal_map(x), pair.to_left, pair.to_right]
    return maps


@pytest.mark.parametrize("family", [fixture_maps, comma_projections, cyclic_maps])
def test_degenerate_edges_transport_as_their_legs_do(family):
    seen = 0
    for p in family():
        for edge in p.target.refs(1):
            if not edge.word:
                continue
            for backward in (False, True):
                got = transport_homology(p, edge, backward=backward).to_json()
                assert got == legs_transport_json(p, edge, backward), (edge, backward)
                seen += 1
    assert seen


def test_theorem_b_builds_no_fiber_over_a_degenerate_simplex(monkeypatch):
    built = []
    init = Fiber.__init__

    def counted(self, p, simplex):
        built.append(simplex)
        init(self, p, simplex)

    monkeypatch.setattr(Fiber, "__init__", counted)
    report = theorem_b_report(identity_functor(chain_poset(3)))
    assert report.status == "verified"
    assert any(g.word for g, _ in report.transports)
    assert built and all(not s.word for s in built)


def test_transport_factors_each_matrix_of_its_legs_once(monkeypatch):
    import sslift.homology as hmod

    p = nerve_functor(double_cover())[0]
    for v in ("a", "x"):
        vertex_fiber(p, SimplexRef(0, (), v))
    factored = []
    real = hmod.SmithForm.__init__

    def counted(self, m):
        factored.append((m.shape, tuple(map(tuple, m.data))))
        real(self, m)

    monkeypatch.setattr(hmod.SmithForm, "__init__", counted)
    res = transport_homology(p, SimplexRef(1, (), "a<x"))
    assert res.is_iso
    # the edge fiber's homology, free in every degree, factors nothing;
    # then one relation matrix per leg and degree, and the division
    # reuses the inverted leg's
    assert len(factored) == 4
    assert len(set(factored)) == 2


def test_backward_undoes_forward(cover_setup):
    _, p = cover_setup
    edge = SimplexRef(1, (), "b<y")
    fwd = transport_homology(p, edge)
    bwd = transport_homology(p, edge, backward=True)
    assert (bwd.matrix(0) @ fwd.matrix(0)) == IntMatrix.identity(2)
    assert (fwd.matrix(0) @ bwd.matrix(0)) == IntMatrix.identity(2)


def test_tower_transport_composes_but_collapses(tower_map):
    def along(name):
        return transport_homology(tower_map, SimplexRef(1, (), name))

    t01, t12, t02 = along("0<1"), along("1<2"), along("0<2")
    assert t01.matrix(0).to_lists() == [[0, 1], [1, 0]]
    assert t01.is_iso
    # both sheets land on the single top point: invertible leg, no iso
    assert t12.leg_invertible and not t12.is_iso
    assert t12.matrix(0).to_lists() == [[1, 1]]
    assert (t12.matrix(0) @ t01.matrix(0)) == t02.matrix(0)


def test_certificate_status_is_advisory(tower_map):
    report = certify_fibration_class(tower_map)
    edge = SimplexRef(1, (), "0<1")
    assert transport_homology(tower_map, edge).certificate_status is None
    fwd = transport_homology(tower_map, edge, certificate=report.cocartesian)
    assert fwd.certificate_status == "certified"
    # cartesian lifting fails for the tower, yet the backward matrices
    # still exist because the relevant leg is invertible
    bwd = transport_homology(
        tower_map, edge, backward=True, certificate=report.cartesian
    )
    assert bwd.certificate_status == "refuted"
    assert bwd.leg_invertible
    assert bwd.matrix(0).to_lists() == [[0, 1], [1, 0]]


def test_vertex_fibers_are_kept_on_the_map(cover):
    p = nerve_functor(cover)[0]
    a = SimplexRef(0, (), "a")
    first = transport_homology(p, SimplexRef(1, (), "a<x"))
    kept = vertex_fiber(p, a)
    assert first.source_profile is kept[1]
    second = transport_homology(p, SimplexRef(1, (), "a<y"))
    assert vertex_fiber(p, a) is kept
    assert second.source_profile is kept[1]
    # another map of the same functor keeps fibers of its own
    assert vertex_fiber(nerve_functor(cover)[0], a) is not kept


def test_fibers_of_a_map_share_one_index_of_its_cells(cover):
    p = nerve_functor(cover)[0]
    calls = []
    value = p.value

    def counted(n, cell_id):
        calls.append((n, cell_id))
        return value(n, cell_id)

    p.value = counted
    Fiber(p, SimplexRef(1, (), "a<x"))
    assert len(calls) == p.source.total_cells()
    calls.clear()
    # a second fiber, over a vertex or an edge, reads the kept index
    vertex_fiber(p, SimplexRef(0, (), "a"))
    Fiber(p, SimplexRef(1, (), "a<y"))
    assert calls == []


def test_a_map_and_its_kept_fiber_die_without_the_cycle_collector(cover):
    # a kept fiber holds no reference back to its map, so dropping the
    # map frees both by reference counting alone
    p = nerve_functor(cover)[0]
    gc.disable()
    try:
        fib = vertex_fiber(p, SimplexRef(0, (), "a"))[0]
        alive = (weakref.ref(p), weakref.ref(fib))
        del p, fib
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_transport_rejects_non_edges(cover_setup):
    _, p = cover_setup
    with pytest.raises(SimplicialError):
        transport_homology(p, SimplexRef(0, (), "a"))
