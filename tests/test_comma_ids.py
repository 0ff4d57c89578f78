"""Comma and slice cells are named by spelling out the ids they pair.  Ids
that contain ',', '(', ')', ':' or '>' can spell two different cells the
same way; that is refused with one line naming the id, through the API
and through `sslift theorem-b`."""

import pytest

from sslift.cat import FiniteCategory, Functor, comma_category, compose_key, slice_category
from sslift.cli import EXIT_INPUT, main
from sslift.formats import save_path
from sslift.sset import SimplicialError
from sslift.theoremb import theorem_b_report


def discrete(objects):
    ids = {o: f"id_{o}" for o in objects}
    return FiniteCategory(
        objects, {m: (o, o) for o, m in ids.items()}, ids,
        {compose_key(m, m): m for m in ids.values()},
    )


def null_monoid(obj, unit, zero, other):
    """One object; every composite of two non-identities is zero."""
    arrows = [unit, zero, other]
    compose = {
        compose_key(g, f): f if g == unit else g if f == unit else zero
        for g in arrows for f in arrows
    }
    return FiniteCategory([obj], {m: (obj, obj) for m in arrows}, {obj: unit}, compose)


def object_clash():
    """(a, b,x) and (a,b, x) are both spelled (a,b,x)."""
    c = discrete(["a", "a,b"])
    ids = {"p": "id_p", "q": "id_q"}
    morphisms = {"id_p": ("p", "p"), "id_q": ("q", "q"), "b,x": ("p", "q"), "x": ("p", "q")}
    compose = {compose_key(m, m): m for m in ids.values()}
    for g in ("b,x", "x"):
        compose[compose_key(g, "id_p")] = compose[compose_key("id_q", g)] = g
    d = FiniteCategory(["p", "q"], morphisms, ids, compose)
    return Functor(c, d, {"a": "p", "a,b": "p"}, {"id_a": "id_p", "id_a,b": "id_p"})


def morphism_clash():
    """(x, y,z) and (x,y, z) over the same pair of objects are both
    spelled (x,y,z)."""
    c = null_monoid("a", "ia", "x", "x,y")
    d = null_monoid("p", "ip", "z", "y,z")
    return Functor(c, d, {"a": "p"}, {"ia": "ip", "x": "z", "x,y": "y,z"})


CASES = {
    "object": (object_clash, "comma object id '(a,b,x)' would name two different objects"),
    "morphism": (morphism_clash, "comma morphism id '(x,y,z):"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_probes_are_valid_functors(name):
    f = CASES[name][0]()
    for cat in (f.source, f.target):
        cat.validate()
    f.validate()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_clash_is_refused_by_the_api(name):
    build, message = CASES[name]
    for ask in (comma_category, theorem_b_report):
        with pytest.raises(SimplicialError, match=message.replace("(", r"\(").replace(")", r"\)")):
            ask(build())


def slice_morphism_clash():
    """x: (c1, a>b) -> (c2, c) and x: (c1, a) -> (c2, b>c) in the slice
    over d are both spelled (x):a>b>c."""
    c = FiniteCategory(
        ["c1", "c2"], {"i1": ("c1", "c1"), "i2": ("c2", "c2"), "x": ("c1", "c2")},
        {"c1": "i1", "c2": "i2"},
        {compose_key(*pair): m for pair, m in [
            (("i1", "i1"), "i1"), (("i2", "i2"), "i2"), (("x", "i1"), "x"), (("i2", "x"), "x"),
        ]},
    )
    ids = {o: f"id_{o}" for o in ("s", "t", "d")}
    morphisms = {m: (o, o) for o, m in ids.items()}
    morphisms.update({"h": ("s", "t"), "a>b": ("s", "d"), "a": ("s", "d"),
                      "c": ("t", "d"), "b>c": ("t", "d")})
    compose = {compose_key("c", "h"): "a>b", compose_key("b>c", "h"): "a"}
    for m, (s, t) in morphisms.items():
        compose[compose_key(m, ids[s])] = compose[compose_key(ids[t], m)] = m
    d = FiniteCategory(list(ids), morphisms, ids, compose)
    return Functor(c, d, {"c1": "s", "c2": "t"}, {"i1": "id_s", "i2": "id_t", "x": "h"})


def test_a_clash_is_refused_by_the_slice():
    f = object_clash()
    with pytest.raises(SimplicialError, match=r"comma object id '\(a,b,x\)'"):
        slice_category(f, "q")
    slice_category(f, "p")  # over p only identities: no clash
    f = slice_morphism_clash()
    for cat in (f.source, f.target):
        cat.validate()
    f.validate()
    with pytest.raises(SimplicialError, match=r"comma morphism id '\(x\):a>b>c'"):
        slice_category(f, "d")


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_clash_exits_3_with_one_line(name, tmp_path, capsys):
    build, message = CASES[name]
    path = tmp_path / "f.cat"
    save_path(path, build())
    code = main(["theorem-b", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
