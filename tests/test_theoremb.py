"""Base-change reports for functors between finite categories."""

import random
from pathlib import Path

import pytest

from sslift import cat, corpus, products, theoremb
from sslift.cat import (
    _homotopy_value,
    chain_poset,
    comma_category,
    identity_functor,
    nat_trans_homotopy,
    nerve,
    nerve_functor,
)
from sslift.corpus import double_cover, point_functor
from sslift.formats import load_path
from sslift.sset import SimplexRef
from sslift.theoremb import _comma_unit, theorem_b_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def alternating_count(x):
    return sum((-1) ** n * len(x.n_cells(n)) for n in x.degrees())


def test_identity_functor_verified(c4):
    r = theorem_b_report(identity_functor(c4))
    assert r.status == "verified"
    assert r.hypothesis_holds and r.failing_edge is None
    assert r.fibration.inner.certified and r.fibration.cocartesian.certified
    # 4 poset arrows plus 4 degenerate edges, all transports isomorphisms
    assert len(r.transports) == 8
    assert all(t.is_iso for _, t in r.transports)
    # each fiber matches the slice nerve and is contractible here
    assert r.slice_agreement == {d: True for d in "abxy"}
    assert r.coslice_contractible == {d: True for d in "abxy"}
    assert all(p.groups[0].betti == 1 for p in r.vertex_fibers.values())
    assert r.component_constancy == {"a": True}
    assert r.projection_iso is True
    assert r.homotopy_ends_match is True
    assert r.chi == {"total": 0, "fiber": 1, "base": 0, "multiplicative": True}


def test_vertex_fibers_reuse_transported_profiles(c4):
    r = theorem_b_report(identity_functor(c4))
    reported = {id(p) for p in r.vertex_fibers.values()}
    for _, t in r.transports:
        assert id(t.source_profile) in reported and id(t.target_profile) in reported


def test_identity_chi_agrees_with_cell_counts(c4):
    f = identity_functor(c4)
    r = theorem_b_report(f)
    comma, _, to_d = comma_category(f)
    assert r.chi["total"] == alternating_count(nerve(comma).sset)
    assert r.chi["base"] == alternating_count(nerve(c4).sset)


def test_point_functor_fails_hypothesis_at_first_empty_edge(c4):
    r = theorem_b_report(point_functor(c4, "a"))
    assert r.status == "hypothesis-failed"
    assert not r.hypothesis_holds
    # the coslice projection still lifts left horns
    assert r.fibration.inner.certified
    assert r.fibration.cocartesian.certified
    # nothing maps to b from a, so the fiber over b is empty
    assert r.vertex_fibers["b"].invariants() == ()
    assert r.vertex_fibers["a"].invariants() == ((1, ()),)
    assert r.failing_edge == SimplexRef(1, (), "b<x")
    bad = dict(r.transports)[r.failing_edge]
    assert bad.leg_invertible and not bad.is_iso
    # downstream conclusions are not checked once the hypothesis fails
    assert r.slice_agreement == {}
    assert r.projection_iso is None
    assert r.chi is None


def test_nerve_cap_below_two_is_inconclusive_not_an_error(cover):
    # the comma nerve is truncated at the nerve cap, which clips the
    # default horn cap of its projection below 2: nothing can be certified
    for cap in (0, 1):
        r = theorem_b_report(cover, cap=cap)
        assert r.status == "inconclusive"
        assert r.fibration.inner.status == "inconclusive"
        assert r.fibration.inner.effective_cap == cap


def test_double_cover_verified_with_disconnected_fibers(cover):
    r = theorem_b_report(cover)
    assert r.status == "verified"
    assert all(
        p.invariants()[0] == (2, ()) for p in r.vertex_fibers.values()
    )
    assert r.component_constancy == {"a": True}
    assert r.projection_iso is True
    assert r.homotopy_ends_match is True
    assert r.chi == {"total": 0, "fiber": 2, "base": 0, "multiplicative": True}
    assert all(r.slice_agreement.values())
    assert all(r.coslice_contractible.values())


def test_report_json_shape(c4):
    r = theorem_b_report(point_functor(c4, "a"))
    doc = r.to_json()
    assert doc["status"] == "hypothesis-failed"
    assert doc["failing_edge"] == {"degree": 1, "word": "", "cell": "b<x"}
    flags = {e["edge"]["cell"]: e["iso"] for e in doc["transports"] if not e["edge"]["word"]}
    assert flags["b<x"] is False
    assert flags["a<x"] is True
    assert doc["vertex_fibers"]["b"] == []


def random_functor(seed):
    rng = random.Random(seed)
    while True:
        c = corpus.random_poset(rng, rng.randint(2, 4), density=0.6)
        d = corpus.random_poset(rng, rng.randint(2, 3), density=0.6)
        try:
            return corpus.random_poset_functor(rng, c, d)
        except ValueError:
            continue


FUNCTORS = {
    **{name: (lambda name=name: load_path(str(FIXTURES / name)))
       for name in ("cover_functor.cat", "collapse_functor.cat", "point_a.cat")},
    **{f"chain{n}": (lambda n=n: identity_functor(chain_poset(n))) for n in (2, 3)},
    **{f"random{s}": (lambda s=s: random_functor(s)) for s in range(8)},
}


@pytest.mark.parametrize("name", FUNCTORS)
def test_direct_ends_match_the_cylinder(name):
    f = FUNCTORS[name]()
    comma, to_c, _ = comma_category(f)
    unit = _comma_unit(f, comma, to_c)
    h, prism, comma_nerve, _ = nat_trans_homotopy(unit)
    # the cylinder's cells at a constant level, by (level, degree, cell)
    from_cylinder = {}
    for (n, cell_id), (lref, rref) in prism.components.items():
        levels = {prism.right_object.vertex_of(rref, t).cell for t in range(n + 1)}
        if len(levels) == 1:
            assert not lref.word
            from_cylinder[(int(levels.pop()), n, lref.cell)] = h.value(n, cell_id)
    direct = {
        (level, n, c): _homotopy_value(
            unit, comma_nerve.chain_of(SimplexRef(n, (), c)), c, (level,) * (n + 1)
        )
        for n, c, _ in comma_nerve.sset.cell_items()
        for level in (0, 1)
    }
    assert direct == from_cylinder
    # and the ends are the retraction and the identity
    retract_map, _, _ = nerve_functor(unit.source)
    for (level, n, c), value in direct.items():
        assert value == (retract_map.value(n, c) if level == 0 else SimplexRef(n, (), c))


def count_builds(monkeypatch):
    """Record the category of every Nerve and the count of Products built from now on."""
    nerves, prods = [], []
    real_nerve, real_product = cat.Nerve.__init__, products.Product.__init__

    def counted_nerve(self, category, cap=None):
        nerves.append(category)
        real_nerve(self, category, cap)

    def counted_product(self, left, right):
        prods.append((left, right))
        real_product(self, left, right)

    monkeypatch.setattr(cat.Nerve, "__init__", counted_nerve)
    monkeypatch.setattr(products.Product, "__init__", counted_product)
    return nerves, prods


@pytest.mark.parametrize("name", ["cover_functor.cat", "chain3"])
def test_report_builds_the_comma_nerve_once_and_no_product(monkeypatch, name):
    f = FUNCTORS[name]()
    nerves, prods = count_builds(monkeypatch)
    for _ in range(2):
        nerves.clear()
        r = theorem_b_report(f)
        assert r.status == "verified" and r.homotopy_ends_match is True
        commas = [c for c in nerves if hasattr(c, "comma_objects")]
        assert len(commas) == 1
        assert prods == []


def test_end_comparison_is_live(monkeypatch, c4):
    real = theoremb._homotopy_value

    def level_zero_reads_level_one(alpha, chain, vertex, levels):
        if not any(levels):
            levels = (1,) * len(levels)
        return real(alpha, chain, vertex, levels)

    monkeypatch.setattr(theoremb, "_homotopy_value", level_zero_reads_level_one)
    r = theorem_b_report(identity_functor(c4))
    assert r.homotopy_ends_match is False
    assert r.status == "conclusion-failed"
    doc = r.to_json()
    assert doc["homotopy_ends_match"] is False
    assert doc["status"] == "conclusion-failed"
