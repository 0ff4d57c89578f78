"""Horn problems, certificates, cartesian and cocartesian edges."""

import itertools
from pathlib import Path

import pytest

from sslift.cat import chain_poset, comma_category, identity_functor, nerve_functor
from sslift.formats import load_path
from sslift.lifting import (
    EDGE_01,
    HornProblem,
    certify_edge_lifts,
    certify_fibration_class,
    certify_inner_fibration,
    count_horn_lifts,
    horn_solutions,
    is_cartesian_edge,
    is_cocartesian_edge,
    iter_horn_problems,
    solve_horn_lift,
)
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    constant_map,
    identity_map,
    ref_sort_key,
    standard_simplex,
    terminal_map,
)
from tests.test_sset import loop_space


def brute_problem_count(p, n, i):
    """Count (n, i)-horn problems directly from face data."""
    x, y = p.source, p.target
    positions = [j for j in range(n + 1) if j != i]
    count = 0
    for combo in itertools.product(x.refs(n - 1), repeat=n):
        assign = dict(zip(positions, combo))
        ok = all(
            x.face(assign[k], j) == x.face(assign[j], k - 1)
            for j, k in itertools.combinations(positions, 2)
        )
        if not ok:
            continue
        for base in y.refs(n):
            if all(y.face(base, j) == p.apply(assign[j]) for j in positions):
                count += 1
    return count


def test_problem_enumeration_matches_brute_force(cover_map):
    cases = [
        terminal_map(standard_simplex(1)),
        terminal_map(loop_space()),
        identity_map(standard_simplex(2)),
        cover_map,
    ]
    for p in cases:
        for i in range(3):
            got = list(iter_horn_problems(p, 2, i))
            assert len(got) == brute_problem_count(p, 2, i), (p, i)
            for prob in got:
                prob.validate(p)
            # enumeration is duplicate free
            assert len(set(got)) == len(got)


def test_identity_maps_are_certified():
    for x in (standard_simplex(2), loop_space()):
        rep = certify_fibration_class(identity_map(x))
        assert rep.inner.certified
        assert rep.cartesian.certified
        assert rep.cocartesian.certified


def test_loop_terminal_map_refuted():
    p = terminal_map(loop_space())
    cert = certify_inner_fibration(p)
    assert cert.status == "refuted"
    w = cert.witness
    assert isinstance(w, HornProblem)
    # independent re-check: the witness is a valid unsolvable problem
    w.validate(p)
    assert count_horn_lifts(p, w) == 0
    # it is the least problem in enumeration order with no solution
    for prob in iter_horn_problems(p, w.n, w.i):
        if prob == w:
            break
        assert count_horn_lifts(p, prob) > 0
    # the witness pre-composes the loop with itself around a missing triangle
    e = SimplexRef(1, (), "e")
    assert (w.n, w.i) == (2, 1)
    assert w.face(0) == e and w.face(2) == e


def test_inner_refutation_propagates_to_stubs():
    rep = certify_fibration_class(terminal_map(loop_space()))
    assert rep.inner.status == "refuted"
    assert rep.cartesian.status == "refuted"
    assert rep.cocartesian.status == "refuted"
    assert rep.cartesian.notes


def test_interval_terminal_certified_but_long_edge_not_cartesian():
    d1 = standard_simplex(1)
    p = terminal_map(d1)
    rep = certify_fibration_class(p)
    assert rep.inner.certified and rep.cartesian.certified and rep.cocartesian.certified
    # the nondegenerate edge is not itself cartesian over the point;
    # the degenerate edge at its target is what certifies the lift
    ok, problem, _ = is_cartesian_edge(p, EDGE_01, 3)
    assert not ok
    problem.validate(p)
    assert count_horn_lifts(p, problem) == 0
    ok, _, _ = is_cartesian_edge(p, d1.degenerate(SimplexRef(0, (), "1"), 0), 3)
    assert ok


def test_vertex_inclusion_cartesian_refuted_cocartesian_certified():
    d1 = standard_simplex(1)
    p = constant_map(standard_simplex(0), d1, SimplexRef(0, (), "1"))
    rep = certify_fibration_class(p)
    assert rep.inner.certified
    assert rep.cartesian.status == "refuted"
    edge, vertex = rep.cartesian.witness
    assert edge == EDGE_01
    assert vertex == SimplexRef(0, (), "0")
    assert rep.cocartesian.certified


def test_cover_edges_are_two_sided(cover_map):
    x = cover_map.source
    for c in x.n_cells(1):
        e = SimplexRef(1, (), c)
        assert is_cartesian_edge(cover_map, e, 3)[0], c
        assert is_cocartesian_edge(cover_map, e, 3)[0], c


def test_bad_edge_tests_keep_no_opposite():
    _, _, to_d = comma_category(identity_functor(chain_poset(3)))
    q = nerve_functor(to_d)[0]
    edge = next(e for e in q.source.refs(1) if not e.word)
    vertex = q.source.refs(0)[0]
    for test in (is_cartesian_edge, is_cocartesian_edge):
        with pytest.raises(SimplicialError, match="horn degree cap must be at least 2, got 1"):
            test(q, edge, 1)
        with pytest.raises(SimplicialError, match="cartesian test wants an edge reference"):
            test(q, vertex, 3)
    assert q._kept == {}


def test_collapse_edges_fail_cartesian(tower_map):
    rep = certify_fibration_class(tower_map)
    assert rep.inner.certified
    assert rep.cocartesian.certified
    assert rep.cartesian.status == "refuted"
    edge, vertex = rep.cartesian.witness
    assert edge.cell == "0<2" and vertex.cell == "2.0"
    # neither candidate edge over the witness is cartesian
    for c in ("0.0<2.0", "0.1<2.0"):
        ok, problem, _ = is_cartesian_edge(tower_map, SimplexRef(1, (), c), 3)
        assert not ok
        problem.validate(tower_map)
        assert count_horn_lifts(tower_map, problem) == 0


def test_first_solution_is_least(cover_map):
    p = identity_map(standard_simplex(2))
    seen = 0
    for i in (1,):
        for prob in iter_horn_problems(p, 2, i):
            sols = horn_solutions(p, prob)
            if sols:
                assert solve_horn_lift(p, prob) == sols[0]
                assert count_horn_lifts(p, prob) == len(sols)
                assert sols == sorted(sols, key=ref_sort_key)
                seen += 1
    assert seen > 0


def test_nerve_pair_certificates_are_conclusive(cover_map):
    rep = certify_fibration_class(cover_map)
    assert rep.inner.conclusive
    assert rep.inner.effective_cap == 3


def test_truncated_source_is_inconclusive():
    from sslift.cat import cyclic_group_category, nerve

    x = nerve(cyclic_group_category(2)).sset
    cert = certify_inner_fibration(terminal_map(x))
    assert cert.status == "inconclusive"
    assert cert.witness is None
    assert cert.effective_cap < cert.requested_cap
    assert not cert.conclusive


def test_horn_problem_validate_rejects_mismatch():
    p = terminal_map(standard_simplex(1))
    x = p.source
    e = SimplexRef(1, (), "0.1")
    s0 = x.degenerate(SimplexRef(0, (), "0"), 0)
    base = p.target.refs(2)[0]
    # d_0 x_2 != d_1 x_0 here
    bad = HornProblem(2, 1, ((0, e), (2, e)), base)
    with pytest.raises(Exception):
        bad.validate(p)
    good = HornProblem(2, 1, ((0, s0), (2, s0)), base)
    good.validate(p)


def count_built_problems(monkeypatch):
    """A list that gains one entry per HornProblem constructed."""
    built = []
    init = HornProblem.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HornProblem, "__init__", counting)
    return built


def test_certification_builds_a_problem_only_for_the_witness(monkeypatch, cover_map):
    built = count_built_problems(monkeypatch)
    cert = certify_inner_fibration(cover_map)
    assert cert.certified and cert.problems_checked > 0
    for c in cover_map.source.n_cells(1):
        ok, _, checked = is_cartesian_edge(cover_map, SimplexRef(1, (), c), 3)
        assert ok and checked > 0
    assert built == []

    refuted = load_path(str(Path(__file__).resolve().parent.parent / "fixtures"
                            / "boundary_collapse.ssx"))
    cert = certify_inner_fibration(refuted)
    assert cert.status == "refuted" and cert.problems_checked > 1
    assert len(built) == 1
    ok, problem, checked = is_cartesian_edge(terminal_map(standard_simplex(1)), EDGE_01, 3)
    assert not ok and checked > 1
    assert len(built) == 2


def comma_projection(k):
    _, _, to_d = comma_category(identity_functor(chain_poset(k)))
    return nerve_functor(to_d)[0]


def test_certifying_a_comma_projection_builds_no_problem(monkeypatch):
    q = comma_projection(4)
    built = count_built_problems(monkeypatch)
    report = certify_fibration_class(q)
    assert report.inner.certified and report.cartesian.certified
    assert report.cocartesian.certified and report.cocartesian.problems_checked > 0
    assert built == []


@pytest.mark.parametrize("build", [
    lambda: comma_projection(3),
    lambda: load_path(str(Path(__file__).resolve().parent.parent / "fixtures"
                          / "collapse_tower.ssx")),
], ids=["chain3-comma-projection", "collapse_tower"])
def test_cocartesian_tests_build_no_object(monkeypatch, build):
    p = build()
    built = []
    for cls in (SimplicialSet, SMap):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    report = certify_fibration_class(p)
    assert report.cocartesian.certified and report.cocartesian.problems_checked > 0
    cert = certify_edge_lifts(p, "cocartesian", report.inner)
    assert cert.to_json() == report.cocartesian.to_json()
    for e in p.source.refs(1):
        is_cocartesian_edge(p, e, 3)
    assert built == []
