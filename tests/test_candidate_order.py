"""Candidate order against a brute-force statement of it.

`SimplicialSet.blocks` is the one definition of candidate order:
`refs(n)` walks the blocks and `simplex_id` reads an id off them.  Here
every (word, cell) pair is listed from the definition of a degeneracy
word (a strictly decreasing tuple of indices below n, one per subset of
range(n)) and sorted by `ref_sort_key`; ids are positions in that list,
and a ref that is no degree-n simplex gets no id and so no horn filler.
"""

import pytest

from sslift.formats import load_path
from sslift.lifting import HornProblem, horn_solutions, iter_horn_problems
from sslift.sset import SimplexRef, SMap, ref_sort_key, terminal_map
from tests.test_simplex_ids import FIXTURES, MAP_FIXTURES, OBJECTS
from tests.test_sset import semi_simplicial_triangle

UNKNOWN = "no such cell"


def every_word(n):
    """Every degeneracy word at degree n, one per subset of range(n)."""
    return [tuple(i for i in range(n - 1, -1, -1) if mask >> i & 1) for mask in range(2 ** max(n, 0))]


def brute_refs(x, n):
    """Every degree-n simplex of x, sorted by ref_sort_key."""
    words = every_word(n) if x.simplicial else [()]
    return sorted(
        (SimplexRef(n, w, c) for w in words for c in x.n_cells(n - len(w))),
        key=ref_sort_key,
    )


def strangers(x, n):
    """Refs that are no degree-n simplex of x, by kind."""
    refs = brute_refs(x, n)
    out = {
        "wrong degree": [
            *brute_refs(x, n - 1), *brute_refs(x, n + 1), *(r._replace(degree=n + 1) for r in refs)
        ],
        "unknown cell": [r._replace(cell=UNKNOWN) for r in refs],
        "word out of range": [r._replace(word=(n,) + r.word[1:]) for r in refs if r.word],
        "word not decreasing": [r._replace(word=r.word[::-1]) for r in refs if len(r.word) > 1],
    }
    if not x.simplicial:
        out["degenerate in a semi-simplicial set"] = [
            SimplexRef(n, w, c) for w in every_word(n) if w for c in x.n_cells(n - len(w))
        ]
    return out


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_refs_list_every_simplex_in_candidate_order(name):
    x = OBJECTS[name]()
    for n in range(-1, x.dimension + 3):
        assert x.refs(n) == brute_refs(x, n), n


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_simplex_id_is_the_position_or_none(name):
    x = OBJECTS[name]()
    for n in range(-1, x.dimension + 3):
        refs = brute_refs(x, n)
        assert [x.simplex_id(n, r) for r in refs] == list(range(len(refs)))
        for kind, bad in strangers(x, n).items():
            assert [x.simplex_id(n, r) for r in bad] == [None] * len(bad), (n, kind)


def semi_simplicial_map():
    return terminal_map(semi_simplicial_triangle())


MAPS = {
    **{name: (lambda name=name: load_path(str(FIXTURES / name))) for name in MAP_FIXTURES},
    "semi-triangle-to-point": semi_simplicial_map,
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_a_problem_naming_no_simplex_has_no_solution(name):
    p = MAPS[name]()
    assert isinstance(p, SMap)
    seen = set()
    for n in (2, 3):
        problem = next((q for q in iter_horn_problems(p, n, 1) if horn_solutions(p, q)), None)
        if problem is None:
            continue
        for a, (j, _) in enumerate(problem.faces):
            for kind, bad in strangers(p.source, n - 1).items():
                for r in bad:
                    faces = problem.faces[:a] + ((j, r),) + problem.faces[a + 1 :]
                    got = horn_solutions(p, HornProblem(n, 1, faces, problem.base))
                    assert got == [], (j, kind, r)
                    seen.add(kind)
        for kind, bad in strangers(p.target, n).items():
            for r in bad:
                assert horn_solutions(p, HornProblem(n, 1, problem.faces, r)) == [], (kind, r)
                seen.add(kind)
    assert seen == set(strangers(p.source, 0)) | {"word out of range", "word not decreasing"}
