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


def associativity_reference(c: FiniteCategory) -> str | None:
    """The message of validate's associativity check over every composable
    triple, identities included, in validate's order; None when it holds."""
    for f, (_, b) in c.morphisms.items():
        for g in c.arrows_from(b):
            gf = c.compose_pair(g, f)
            for h in c.arrows_from(c.tgt(g)):
                if c.compose_pair(h, gf) != c.compose_pair(c.compose_pair(h, g), f):
                    return f"associativity fails on ({h!r}, {g!r}, {f!r})"
    return None


# quivers with identities: objects and non-identity arrows (id, src, tgt)
UNITAL_QUIVERS = [
    (["*"], [("a", "*", "*"), ("b", "*", "*"), ("c", "*", "*")]),
    (["x", "y"], [("e", "x", "x"), ("f", "x", "y"), ("g", "x", "y"), ("k", "y", "y")]),
    (["x", "y", "z"],
     [("u", "y", "z"), ("f", "x", "y"), ("v", "y", "z"), ("e", "y", "y"), ("w", "x", "z")]),
]


def random_unital_category(rng, objects, arrows) -> FiniteCategory:
    """Identities compose as units; every other composite is drawn from
    its hom set, so associativity is the only law left to fail."""
    morphisms = {f"id_{o}": (o, o) for o in objects}
    morphisms.update({m: (s, t) for m, s, t in arrows})
    order = list(morphisms)
    rng.shuffle(order)
    morphisms = {m: morphisms[m] for m in order}
    identities = {o: f"id_{o}" for o in objects}
    compose = {}
    for f, (a, b) in morphisms.items():
        for g, (c, d) in morphisms.items():
            if c != b:
                continue
            if f == identities[a]:
                compose[compose_key(g, f)] = g
            elif g == identities[b]:
                compose[compose_key(g, f)] = f
            else:
                compose[compose_key(g, f)] = rng.choice(
                    sorted(m for m, ends in morphisms.items() if ends == (a, d))
                )
    return FiniteCategory(objects, morphisms, identities, compose)


def validate_message(c: FiniteCategory) -> str | None:
    try:
        c.validate()
    except ValidationError as e:
        return str(e)
    return None


def test_associativity_faults_keep_their_first_triple_and_message():
    import random

    rng = random.Random(2018)
    failing = holding = 0
    for trial in range(300):
        objects, arrows = UNITAL_QUIVERS[trial % len(UNITAL_QUIVERS)]
        c = random_unital_category(rng, objects, arrows)
        expected = associativity_reference(c)
        assert validate_message(c) == expected, trial
        failing += expected is not None
        holding += expected is None
    assert failing >= 100 and holding >= 10


def run_nerve(tmp_path, capsys, c):
    from sslift.cli import main
    from sslift.formats import save_path

    path = str(tmp_path / "c.cat")
    save_path(path, c)
    code = main(["nerve", path])
    return code, capsys.readouterr().err, path


def test_an_associativity_fault_exits_3_with_its_message(tmp_path, capsys):
    # a unital magma on {1, a, b}: (b∘a)∘a = a∘a = b, but b∘(a∘a) = b∘b = a
    c = FiniteCategory(
        ["*"],
        {"1": ("*", "*"), "a": ("*", "*"), "b": ("*", "*")},
        {"*": "1"},
        {"1∘1": "1", "1∘a": "a", "1∘b": "b", "a∘1": "a", "b∘1": "b",
         "a∘a": "b", "a∘b": "a", "b∘a": "a", "b∘b": "a"},
    )
    assert associativity_reference(c) == "associativity fails on ('b', 'a', 'a')"
    code, err, path = run_nerve(tmp_path, capsys, c)
    assert code == 3
    assert err == f"error: {path}: associativity fails on ('b', 'a', 'a')\n"


def test_a_corrupted_identity_composite_reports_the_unit_law(tmp_path, capsys):
    c = cyclic_group_category(3)
    c.compose_table[compose_key("g1", "g0")] = "g2"
    code, err, path = run_nerve(tmp_path, capsys, c)
    assert code == 3
    assert err == f"error: {path}: right unit fails on 'g1'\n"
    c = cyclic_group_category(3)
    c.compose_table[compose_key("g0", "g2")] = "g1"
    code, err, path = run_nerve(tmp_path, capsys, c)
    assert code == 3
    assert err == f"error: {path}: left unit fails on 'g2'\n"
