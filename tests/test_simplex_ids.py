"""The lifting engine's integer simplex ids against the SimplexRef API.

An id is a simplex's position in refs(n).  The engine's face table is
built from the cells' stored faces and the simplicial identities, and
its image table from the map's values, without `act` or `apply`; here
every row is decoded back to refs and compared with the memo-free word
arithmetic `ref_act` of test_lifting_reference (faces and last edges)
and with `SMap.apply`.  `face` and `act` share the table's rule for
d_i s_w, so they are no reference.  The left (far-end) face and edge
indexes are compared with the right ones of the full `opposite`.
"""

from itertools import combinations
from pathlib import Path

import pytest

from sslift import lifting as L
from sslift import words as W
from sslift.cat import cyclic_group_category, nerve
from sslift.formats import load_path
from sslift.products import Product
from sslift.sset import (
    SimplexRef,
    SimplicialSet,
    op_ref,
    opposite,
    opposite_map,
    standard_simplex,
)
from test_lifting_reference import ref_act
from tests.test_sset import semi_simplicial_triangle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAP_FIXTURES = [
    "boundary_collapse.ssx",
    "collapse_tower.ssx",
    "cylinder_proj.ssx",
    "double_cover.ssx",
    "edge_into_circle.ssx",
    "interval_vertex.ssx",
]


def unsorted_cells():
    """Cells listed out of candidate order ("v10" sorts before "v2")."""
    v = {c: SimplexRef(0, (), c) for c in ("v2", "v10", "v1")}
    return SimplicialSet({
        0: [(c, []) for c in v],
        1: [("z", [v["v10"], v["v2"]]), ("a", [v["v1"], v["v10"]])],
    })


OBJECTS = {
    **{f"Z{k}-cap{cap}": (lambda k=k, cap=cap: nerve(cyclic_group_category(k), cap=cap).sset)
       for k in range(2, 6) for cap in range(2, 5)},
    "simplex2xsimplex1": lambda: Product(standard_simplex(2), standard_simplex(1)).sset,
    "op-simplex2xsimplex1": lambda: opposite(Product(standard_simplex(2), standard_simplex(1)).sset),
    "op-Z3-cap3": lambda: opposite(nerve(cyclic_group_category(3), cap=3).sset),
    "unsorted": unsorted_cells,
    "semi-triangle": semi_simplicial_triangle,
    "semi-loop": lambda: SimplicialSet(
        {0: [("v", [])], 1: [("e", [SimplexRef(0, (), "v")] * 2)]}, simplicial=False
    ),
}


def degrees(x):
    return range(x.dimension + 3)


def assert_ids_are_positions(x):
    for n in degrees(x):
        refs = x.refs(n)
        for word, (offset, ranks) in x.blocks(n).items():
            for cell, rank in ranks.items():
                assert refs[offset + rank] == SimplexRef(n, word, cell)
        assert [x.simplex_id(n, r) for r in refs] == list(range(len(refs)))


def assert_faces_decode(x):
    for n in degrees(x):
        refs, below = x.refs(n), x.refs(n - 1)
        table = L._face_table(x, n)
        assert len(table) == len(refs)
        for r, row in zip(refs, table):
            assert [below[f] for f in row] == [
                ref_act(x, r, W.delta_values(j, n)) for j in range(n + 1) if n
            ], r
        if n >= 1:
            edges = x.refs(1)
            for e, group in L._edge_index(x, n, False).items():
                assert all(ref_act(x, refs[r], (n - 1, n)) == edges[e] for r in group)
            assert sum(map(len, L._edge_index(x, n, False).values())) == len(refs)
            # the first edge, each group in the opposite's candidate order
            order = {r: k for k, r in enumerate(L._op_order(x, n))}
            for e, group in L._edge_index(x, n, True).items():
                assert all(ref_act(x, refs[r], (0, 1)) == edges[e] for r in group)
                assert group == sorted(group, key=order.__getitem__)
            assert sum(map(len, L._edge_index(x, n, True).values())) == len(refs)


def assert_op_order(x):
    """_op_order lists x's ids in the order of the opposite's refs."""
    op = opposite(x)
    for n in range(6):
        refs = x.refs(n)
        assert [op_ref(refs[r]) for r in L._op_order(x, n)] == op.refs(n), n


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_object_tables_match_refs_and_faces(name):
    x = OBJECTS[name]()
    assert_ids_are_positions(x)
    assert_faces_decode(x)
    assert_op_order(x)


@pytest.mark.parametrize("op", [False, True], ids=["map", "opposite"])
@pytest.mark.parametrize("name", MAP_FIXTURES)
def test_map_tables_match_apply(name, op):
    p = load_path(str(FIXTURES / name))
    if op:
        p = opposite_map(p)
    for x in (p.source, p.target):
        assert_ids_are_positions(x)
        assert_faces_decode(x)
        assert_op_order(x)
    for n in degrees(p.source):
        targets = p.target.refs(n)
        images = L._images(p, n)
        assert [targets[t] for t in images] == [p.apply(r) for r in p.source.refs(n)]


def objects_of(name):
    """The objects of an .ssx fixture (a map's source and target), or the
    Z/3 nerve at cap 4."""
    if name == "Z3-cap4":
        return [nerve(cyclic_group_category(3), cap=4).sset]
    loaded = load_path(str(FIXTURES / name))
    return [loaded] if isinstance(loaded, SimplicialSet) else [loaded.source, loaded.target]


def relabelled(index, key_of, ids):
    """An index with its keys mapped by key_of and its groups by ids."""
    return {key_of(key): [ids[r] for r in group] for key, group in index.items()}


@pytest.mark.parametrize("name", ["Z3-cap4"] + [f.name for f in sorted(FIXTURES.glob("*.ssx"))])
def test_left_indexes_mirror_the_opposite(name):
    """A left index, counted from the far end in the opposite's order, is
    the opposite's right index with x's ids translated through _op_order:
    key for key, each group in the same order."""
    for x in objects_of(name):
        op = opposite(x)
        to_op = [{r: k for k, r in enumerate(L._op_order(x, d))} for d in range(5)]
        for d in range(1, 5):
            faces_of = lambda key: tuple(to_op[d - 1][f] for f in key)
            for size in range(d + 2):
                for pos in combinations(range(d + 1), size):
                    left = relabelled(L._face_index(x, d, pos, True), faces_of, to_op[d])
                    assert left == L._face_index(op, d, pos, False), (d, pos)
            left = relabelled(L._edge_index(x, d, True), to_op[1].__getitem__, to_op[d])
            assert left == L._edge_index(op, d, False), d
