"""Realization comparisons and base-change coherence checks."""

import pytest

from sslift import products
from sslift.cat import nerve_functor
from sslift.corpus import circle, cylinder_projection, interval_vertex
from sslift.sset import (
    SimplexRef,
    SimplicialError,
    boundary,
    classifying_map,
    constant_map,
    identity_map,
    standard_simplex,
)
from sslift.verify import ltg_check, realization_fibration_certificate


def collapse_to_endpoint():
    return constant_map(boundary(2), standard_simplex(1), SimplexRef(0, (), "0"))


def test_cylinder_projection_certified():
    rep = realization_fibration_certificate(cylinder_projection())
    assert rep.status == "certified"
    assert rep.witness is None
    assert all(c.first_iso and c.last_iso for c in rep.comparisons)
    assert sorted(rep.by_degree()) == [1]


def test_identity_on_circle_certified():
    rep = realization_fibration_certificate(identity_map(circle()))
    assert rep.status == "certified"
    # one comparison, for the loop itself
    assert [c.simplex for c in rep.comparisons] == [SimplexRef(1, (), "e")]


def test_collapse_refuted_at_the_empty_end():
    rep = realization_fibration_certificate(collapse_to_endpoint())
    assert rep.status == "refuted"
    assert rep.witness == (SimplexRef(1, (), "0.1"), "last")
    comp = rep.comparisons[0]
    # the populated end still includes by an isomorphism
    assert comp.first_iso and not comp.last_iso
    doc = rep.to_json()
    assert doc["witness"]["side"] == "last"


def test_ltg_at_a_vertex_of_the_cylinder():
    rep = ltg_check(interval_vertex("1"), cylinder_projection())
    assert rep.status == "certified"
    assert rep.inherited == {"inner": True, "cartesian": True, "cocartesian": True}
    assert rep.vertex_case is True
    assert rep.component_constancy == {"0": True}
    assert rep.chi == {"total": 0, "fiber": 0, "base": 1, "multiplicative": True}
    assert rep.witness is None


def test_ltg_along_an_edge_of_the_cover(c4_nerve, cover_map):
    f = classifying_map(c4_nerve.sset, SimplexRef(1, (), "a<x"))
    rep = ltg_check(f, cover_map)
    assert rep.status == "certified"
    assert rep.vertex_case is None
    assert all(rep.inherited.values())
    assert rep.chi["fiber"] == 2 and rep.chi["multiplicative"]


def test_ltg_refutes_nonconstant_fibers():
    rep = ltg_check(identity_map(standard_simplex(1)), collapse_to_endpoint())
    assert rep.status == "refuted"
    assert rep.witness is not None
    assert "varies within component" in rep.witness
    assert rep.component_constancy == {"0": False}


def test_ltg_rejects_mismatched_cospan(cover_map):
    with pytest.raises(SimplicialError):
        ltg_check(identity_map(circle()), cover_map)


def count_fibers(monkeypatch):
    """Record the base simplex of every Fiber built from now on."""
    built = []
    real = products.Fiber.__init__

    def counted(self, p, simplex):
        built.append(simplex)
        real(self, p, simplex)

    monkeypatch.setattr(products.Fiber, "__init__", counted)
    return built


def test_each_vertex_fiber_is_built_once(monkeypatch, c4_nerve, cover):
    built = count_fibers(monkeypatch)
    realization_fibration_certificate(nerve_functor(cover)[0])
    # four edge fibers, plus four vertex fibers shared by the edges at them
    assert len(built) == 8 and len(set(built)) == 8

    built.clear()
    edge = classifying_map(c4_nerve.sset, SimplexRef(1, (), "a<x"))
    ltg_check(edge, nerve_functor(cover)[0])
    # one fiber per base vertex; the Euler characteristic reuses one of them
    assert len(built) == 4 and len(set(built)) == 4

    built.clear()
    ltg_check(interval_vertex("1"), cylinder_projection())
    # the vertex case and the fiber summary share the fiber over 1
    assert len(built) == 2 and len(set(built)) == 2


def test_a_second_report_on_a_map_builds_no_vertex_fiber(monkeypatch, c4_nerve, cover):
    p = nerve_functor(cover)[0]
    realization_fibration_certificate(p)
    built = count_fibers(monkeypatch)
    realization_fibration_certificate(p)
    # the edge fibers again, and no vertex fiber: those are kept on p
    assert sorted(r.degree for r in built) == [1, 1, 1, 1]

    built.clear()
    ltg_check(classifying_map(c4_nerve.sset, SimplexRef(1, (), "a<x")), p)
    assert built == []
