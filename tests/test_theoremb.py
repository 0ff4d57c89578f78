"""Base-change reports for functors between finite categories."""

from sslift.cat import comma_category, identity_functor, nerve
from sslift.corpus import double_cover, point_functor
from sslift.sset import SimplexRef
from sslift.theoremb import theorem_b_report


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
    assert all(p.betti_numbers()[0] == 1 for p in r.vertex_fibers.values())
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
