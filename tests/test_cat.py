"""Finite categories, nerves, comma constructions, Grothendieck conditions."""

import itertools

import pytest

from sslift.cat import (
    DEFAULT_NERVE_CAP,
    FiniteCategory,
    Functor,
    NatTrans,
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    is_grothendieck_fibration,
    is_grothendieck_opfibration,
    nat_trans_homotopy,
    nerve,
    nerve_functor,
    op_category,
    op_functor,
    poset_category,
    slice_category,
    string_normal_form,
)
from sslift.homology import homology
from sslift.sset import SimplexRef, SimplicialError, ValidationError
from sslift.cat import compose_key


def count_chains(cat, k):
    """Composable k-chains of non-identity arrows, counted from raw data."""
    if k == 0:
        return len(cat.objects)
    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    count = 0
    for chain in itertools.product(non_id, repeat=k):
        if all(cat.tgt(chain[i]) == cat.src(chain[i + 1]) for i in range(k - 1)):
            count += 1
    return count


def test_poset_category_closure_and_validation():
    c = poset_category(["a", "b", "c"], [("a", "b"), ("b", "c")])
    c.validate()
    # transitive closure added a < c
    assert "a<c" in c.morphisms
    assert c.compose_pair("b<c", "a<b") == "a<c"
    with pytest.raises(Exception):
        poset_category(["a", "b"], [("a", "b"), ("b", "a")])


def test_cyclic_group_category():
    g = cyclic_group_category(3)
    g.validate()
    assert len(g.objects) == 1 and len(g.morphisms) == 3
    assert g.compose_pair("g1", "g2") == "g0"


def test_reserved_characters_rejected():
    c = FiniteCategory(
        ["a"],
        {"id_a": ("a", "a"), "f|g": ("a", "a")},
        {"a": "id_a"},
        {compose_key("f|g", "f|g"): "id_a", compose_key("id_a", "f|g"): "f|g",
         compose_key("f|g", "id_a"): "f|g", compose_key("id_a", "id_a"): "id_a"},
    )
    with pytest.raises(ValidationError, match="reserved character"):
        c.validate()


def test_nerve_counts_match_chain_oracle(c4, c4_nerve):
    for cat in (c4, chain_poset(2), chain_poset(3)):
        nv = nerve(cat)
        for k, cnt in enumerate(nv.sset.counts()):
            assert cnt == count_chains(cat, k), (cat.objects, k)
    assert c4_nerve.sset.counts() == (4, 4)


def test_nerve_truncation_policy():
    # acyclic categories get their full nerve
    assert nerve(chain_poset(3)).sset.truncated_at is None
    # categories with composition loops are cut at the default cap
    nv = nerve(cyclic_group_category(2))
    assert nv.sset.truncated_at == DEFAULT_NERVE_CAP
    assert "nerve" in nv.sset.tags
    assert "nerve-acyclic" not in nv.sset.tags
    assert "nerve-acyclic" in nerve(chain_poset(2)).sset.tags
    # a negative cap would record a truncation degree no loader accepts
    with pytest.raises(SimplicialError):
        nerve(cyclic_group_category(2), -3)


def test_string_normal_form_and_chain_expansion(c4):
    nv = nerve(c4)
    r = string_normal_form(c4, ("id_a", "a<x"), "a")
    assert r == SimplexRef(2, (0,), "a<x")
    assert nv.chain_of(r) == ("id_a", "a<x")
    r2 = string_normal_form(c4, ("a<x", "id_x"), "a")
    assert r2 == SimplexRef(2, (1,), "a<x")
    assert nv.chain_of(r2) == ("a<x", "id_x")
    # all identities collapse to a degenerate vertex
    r3 = string_normal_form(c4, ("id_a", "id_a"), "a")
    assert r3.cell == "a" and len(r3.word) == 2


def test_comma_of_identity_is_arrow_category(c4):
    arrow, dom, cod = comma_category(identity_functor(c4))
    arrow.validate()
    assert len(arrow.objects) == 8
    assert len(arrow.non_identities()) == 12
    dom.validate()
    cod.validate()
    # projections take a pair morphism to its legs
    for mid, (u, v) in arrow.comma_morphisms.items():
        assert dom.morphism_map[mid] == u
        assert cod.morphism_map[mid] == v


def test_slice_is_contractible(c4):
    for d in c4.objects:
        sl, _ = slice_category(identity_functor(c4), d)
        sl.validate()
        prof = homology(nerve(sl).sset)
        assert prof.invariants()[0] == (1, ())
        assert all(g.invariants() == (0, ()) for g in prof.groups[1:])


def test_grothendieck_conditions_on_arrow_category(c4):
    arrow, dom, cod = comma_category(identity_functor(c4))
    assert is_grothendieck_fibration(dom)[0]
    assert is_grothendieck_opfibration(cod)[0]
    ok, witness = is_grothendieck_fibration(cod)
    assert not ok and witness is not None
    ok, witness = is_grothendieck_opfibration(dom)
    assert not ok and witness is not None


def test_op_category_involution(c4):
    o = op_category(c4)
    o.validate()
    assert op_category(o) == c4
    for m in c4.morphisms:
        assert o.src(m) == c4.tgt(m) and o.tgt(m) == c4.src(m)


def test_op_functor(cover):
    g = op_functor(cover)
    g.validate()
    assert op_functor(g).object_map == cover.object_map


def test_nerve_functor_is_natural(cover):
    m, src, tgt = nerve_functor(cover)
    m.validate()
    # vertices go to image objects
    for o in cover.source.objects:
        assert m.value(0, o) == SimplexRef(0, (), cover.object_map[o])


def test_nerve_functor_shares_equal_values():
    _, _, to_d = comma_category(identity_functor(chain_poset(3)))
    m, _, _ = nerve_functor(to_d)
    values = [r for layer in m.assignment.values() for r in layer.values()]
    assert len({id(r) for r in values}) == len(set(values)) < len(values)


def test_nerve_functor_respects_composition(c4, cover):
    # N(point at a0) then N(cover) equals N(cover o point)
    from sslift.corpus import point_functor

    pt = point_functor(cover.source, "a0")
    m1, _, _ = nerve_functor(pt)
    m2, _, _ = nerve_functor(cover)
    m12, _, _ = nerve_functor(cover.compose_with(pt))
    lhs = m2.compose(m1)
    for n in m12.source.degrees():
        for c in m12.source.n_cells(n):
            assert lhs.value(n, c) == m12.value(n, c)


def test_nat_trans_homotopy_ends():
    c = chain_poset(1)
    d = chain_poset(2)
    f = Functor(c, d, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "0<1": "0<1"})
    g = Functor(c, d, {"0": "1", "1": "2"}, {"id_0": "id_1", "id_1": "id_2", "0<1": "1<2"})
    alpha = NatTrans(f, g, {"0": "0<1", "1": "1<2"})
    alpha.validate()
    h, prod, _, _ = nat_trans_homotopy(alpha)
    h.validate()
    mf, _, _ = nerve_functor(f)
    mg, _, _ = nerve_functor(g)
    for (n, cid), (lref, rref) in prod.components.items():
        if rref.cell == "0" and rref.cell_degree == 0:
            assert h.value(n, cid) == mf.apply(lref)
        if rref.cell == "1" and rref.cell_degree == 0:
            assert h.value(n, cid) == mg.apply(lref)
