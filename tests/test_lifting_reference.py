"""The table-driven lifting engine and the memoized simplex arithmetic,
against the plain scans they replace.

The references below recompute everything from `face`, `apply` and
`refs` in candidate order: a horn problem's solutions are a scan of
refs(n); problems are enumerated position by position by scanning
refs(n-1); the (co)cartesian edge test runs that enumeration with a
last-edge filter.  `act` is checked against the word arithmetic of
`sslift.words` done directly, without any memo.
"""

import random
from pathlib import Path

import pytest

from sslift import words as W
from sslift.cat import cyclic_group_category, nerve, nerve_functor
from sslift.corpus import random_poset, random_poset_functor
from sslift.formats import load_path
from sslift.lifting import (
    HornProblem,
    count_horn_lifts,
    horn_solutions,
    is_cartesian_edge,
    is_cocartesian_edge,
    iter_horn_problems,
    iter_horn_solutions,
    op_problem,
    solve_horn_lift,
)
from sslift.products import Product
from sslift.sset import (
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    identity_map,
    op_ref,
    opposite_map,
    simplex_in_standard,
    standard_simplex,
    terminal_map,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAP_FIXTURES = [
    "boundary_collapse.ssx",
    "collapse_tower.ssx",
    "cylinder_proj.ssx",
    "double_cover.ssx",
    "edge_into_circle.ssx",
    "interval_vertex.ssx",
]
CAP = 4


# -- reference lifting engine ------------------------------------------------


def ref_solutions(p, problem):
    """Every degree-n simplex of the source with the problem's faces over its base."""
    x = p.source
    return [
        tau for tau in x.refs(problem.n)
        if all(x.face(tau, j) == xj for j, xj in problem.faces)
        and p.apply(tau) == problem.base
    ]


def ref_problems(p, n, i, allowed=None):
    """(n, i)-horn problems by scanning refs(n-1) at each position in turn;
    allowed(j, c) may reject the candidate c at position j."""
    x, y = p.source, p.target
    positions = [j for j in range(n + 1) if j != i]

    def extend(chosen):
        if len(chosen) == len(positions):
            faces = tuple(chosen)
            for base in y.refs(n):
                if all(y.face(base, j) == p.apply(xj) for j, xj in faces):
                    yield HornProblem(n, i, faces, base)
            return
        pos = positions[len(chosen)]
        for c in x.refs(n - 1):
            if allowed is not None and not allowed(pos, c):
                continue
            if all(x.face(c, j) == x.face(xj, pos - 1) for j, xj in chosen):
                yield from extend(chosen + [(pos, c)])

    return extend([])


def ref_is_cartesian_edge(p, edge, cap):
    x = p.source
    checked = 0
    for n in range(2, cap + 1):
        def allowed(j, c, n=n):
            return j > n - 2 or x.last_edge(c) == edge

        for problem in ref_problems(p, n, n, allowed):
            checked += 1
            if not ref_solutions(p, problem):
                return False, problem, checked
    return True, None, checked


def ref_is_cocartesian_edge(p, edge, cap):
    ok, witness, checked = ref_is_cartesian_edge(opposite_map(p), op_ref(edge), cap)
    return ok, (op_problem(witness) if witness is not None else None), checked


# -- maps under test ---------------------------------------------------------


def fixture_map(name):
    return load_path(str(FIXTURES / name))


def random_nerve_map(seed):
    rng = random.Random(seed)
    while True:
        c = random_poset(rng, rng.randint(3, 5), density=0.6)
        d = random_poset(rng, rng.randint(2, 4), density=0.6)
        try:
            return nerve_functor(random_poset_functor(rng, c, d))[0]
        except ValueError:
            continue


def pillow():
    """Three 2-cells on one triangle boundary: a horn in it has several
    fillers, and a horn problem against it several bases."""
    v = [SimplexRef(0, (), str(k)) for k in range(3)]
    e = {name: SimplexRef(1, (), name) for name in ("01", "02", "12")}
    return SimplicialSet({
        0: [(str(k), []) for k in range(3)],
        1: [("01", [v[1], v[0]]), ("02", [v[2], v[0]]), ("12", [v[2], v[1]])],
        2: [(c, [e["12"], e["02"], e["01"]]) for c in ("a", "b", "c")],
    })


MAPS = (
    [("fixture", name) for name in MAP_FIXTURES]
    + [("random", s) for s in range(6)]
    + [("pillow", "identity"), ("pillow", "terminal")]
)


def build(case):
    kind, arg = case
    if kind == "fixture":
        return fixture_map(arg)
    if kind == "random":
        return random_nerve_map(arg)
    return identity_map(pillow()) if arg == "identity" else terminal_map(pillow())


@pytest.mark.parametrize("case", MAPS, ids=[f"{k}-{a}" for k, a in MAPS])
def test_problems_and_solutions_match_the_scan(case):
    p = build(case)
    for n in range(2, CAP + 1):
        for i in range(n + 1):
            want = list(ref_problems(p, n, i))
            assert list(iter_horn_problems(p, n, i)) == want, (n, i)
            for problem in want:
                sols = ref_solutions(p, problem)
                assert horn_solutions(p, problem) == sols
                assert solve_horn_lift(p, problem) == (sols[0] if sols else None)
                assert count_horn_lifts(p, problem) == len(sols)


@pytest.mark.parametrize("case", MAPS, ids=[f"{k}-{a}" for k, a in MAPS])
def test_edge_tests_match_the_scan(case):
    p = build(case)
    for cap in range(2, CAP + 1):
        for e in p.source.refs(1):
            assert is_cartesian_edge(p, e, cap) == ref_is_cartesian_edge(p, e, cap), (e, cap)
            assert is_cocartesian_edge(p, e, cap) == ref_is_cocartesian_edge(p, e, cap), (e, cap)


def test_a_problem_with_misplaced_faces_raises():
    p = fixture_map("double_cover.ssx")
    problem = next(iter_horn_problems(p, 2, 1))
    swapped = HornProblem(2, 1, tuple(reversed(problem.faces)), problem.base)
    missing = HornProblem(2, 1, problem.faces[:1], problem.base)
    inner_slot = HornProblem(2, 1, ((1, problem.faces[0][1]),) + problem.faces[1:], problem.base)
    for bad in (swapped, missing, inner_slot):
        for ask in (horn_solutions, solve_horn_lift, count_horn_lifts):
            with pytest.raises(SimplicialError, match="cover all j != i in order"):
                ask(p, bad)
        with pytest.raises(SimplicialError, match="cover all j != i in order"):
            bad.validate(p)
    assert list(iter_horn_solutions(p, problem)) == ref_solutions(p, problem)


# -- memoized simplex arithmetic ---------------------------------------------


def ref_act(x, r, phi):
    """r o phi by the word arithmetic done directly, without any memo."""
    mono, epi = W.epi_mono_factor(W.compose(W.word_to_map(r.word, r.degree), phi))
    base = ref_restrict(x, r.cell_degree, r.cell, mono)
    word = W.map_to_word(W.compose(W.word_to_map(base.word, base.degree), epi))
    return SimplexRef(len(phi) - 1, word, base.cell)


def ref_restrict(x, degree, cell, mono):
    if len(mono) == degree + 1:
        return SimplexRef(degree, (), cell)
    missing = max(set(range(degree + 1)) - set(mono))
    lowered = tuple(v if v < missing else v - 1 for v in mono)
    return ref_act(x, x.face_tuple(degree, cell)[missing], lowered)


def random_phi(rng, degree):
    m = rng.randint(0, degree + 2)
    return tuple(sorted(rng.randint(0, degree) for _ in range(m + 1)))


OBJECTS = {
    "simplex3": lambda: standard_simplex(3),
    "simplex4": lambda: standard_simplex(4),
    "Z3": lambda: nerve(cyclic_group_category(3), cap=4).sset,
    "Z4": lambda: nerve(cyclic_group_category(4), cap=3).sset,
    "simplex2xsimplex1": lambda: Product(standard_simplex(2), standard_simplex(1)).sset,
    "Z2xsimplex1": lambda: Product(nerve(cyclic_group_category(2), cap=3).sset,
                                   standard_simplex(1)).sset,
}


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_act_matches_direct_word_arithmetic(name):
    x = OBJECTS[name]()
    rng = random.Random(name)
    for _ in range(400):
        degree = rng.randint(0, x.dimension + 2)
        refs = x.refs(degree)
        if not refs:
            continue
        r = rng.choice(refs)
        phi = random_phi(rng, degree)
        want = ref_act(x, r, phi)
        assert x.act(r, phi) == want, (r, phi)
        assert x.act(r, phi) == want  # the object's own cache gives it back
        if degree:
            i = rng.randint(0, degree)
            delta = tuple(j for j in range(degree + 1) if j != i)
            assert x.face(r, i) == ref_act(x, r, delta)


def test_act_on_standard_simplex_composes_vertex_lists():
    k = 4
    x = standard_simplex(k)
    rng = random.Random(7)
    for _ in range(300):
        r = rng.choice(x.refs(rng.randint(0, k + 2)))
        cell_vertices = [int(v) for v in r.cell.split(".")]
        vertices = [cell_vertices[s] for s in W.word_to_map(r.word, r.degree)]
        phi = random_phi(rng, r.degree)
        assert x.act(r, phi) == simplex_in_standard(k, [vertices[t] for t in phi])


@pytest.mark.parametrize("phi, message", [
    ((1, 0), "is not monotone"),
    ((0, 3), r"does not land in \[2\]"),
    ((-1, 0), r"does not land in \[2\]"),
])
def test_a_bad_map_raises_every_time(phi, message):
    x = standard_simplex(2)
    r = SimplexRef(2, (), "0.1.2")
    for _ in range(2):
        with pytest.raises(SimplicialError, match=message):
            x.act(r, phi)
        with pytest.raises(ValueError, match=message):
            W.split(r.word, r.degree, phi)
    assert x.act(r, (0, 2)) == SimplexRef(1, (), "0.2")
