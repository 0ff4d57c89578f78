"""document_text against canonical_json(emit_document(...)), which it replaces.

A simplicial set's document text is written from its cell table instead
of going through sset_to_json and canonical_json.  Its bytes must be
canonical_json(sset_to_json(x)), and json.dumps of the same dict, on
every kind of object the package writes: fixtures, nerves truncated or
not, degrees past 9 (whose keys sort as strings), the empty object,
semi-simplicial objects, opposites, products and awkward cell ids.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sslift.cat import chain_poset, cyclic_group_category, nerve
from sslift.cli import main
from sslift.corpus import build_fixtures, double_cover, pseudo_circle, random_poset
from sslift.formats import (
    canonical_json,
    document_text,
    emit_document,
    load_path,
    save_path,
    sset_to_json,
)
from sslift.products import Product
from sslift.sset import SMap, SimplexRef, SimplicialSet, opposite, standard_simplex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_text_matches(x: SimplicialSet, label: str) -> None:
    doc = sset_to_json(x)
    text = document_text(x)
    assert text == canonical_json(doc), label
    assert text == json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n", label


def fixture_objects() -> dict[str, SimplicialSet]:
    out = {}
    for path in sorted(FIXTURES.glob("*.ssx")):
        obj = load_path(str(path))
        if isinstance(obj, SMap):
            out[f"{path.name} source"] = obj.source
            out[f"{path.name} target"] = obj.target
        else:
            out[path.name] = obj
    return out


def awkward_ids() -> SimplicialSet:
    ids = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\n\t", "ümlaut∘é", "line sep", "😀"]
    v = [SimplexRef(0, (), c) for c in ids]
    cells = {
        0: [(c, []) for c in ids],
        1: [(f"{a}|{b}", [b, a]) for a, b in zip(v, v[1:])],
        2: [("tri\"\\\x7f", [SimplexRef(1, (0,), ids[2]), SimplexRef(1, (), f"{ids[0]}|{ids[1]}"),
                             SimplexRef(1, (), f"{ids[0]}|{ids[1]}")])],
    }
    return SimplicialSet(cells, truncated_at=7, tags=["z\"tag", "ä", "nerve"])


def test_fixture_objects_and_map_ends():
    objects = fixture_objects()
    assert len(objects) >= 10
    for label, x in objects.items():
        assert_text_matches(x, label)


def test_random_poset_nerves():
    rng = random.Random(34)
    for i in range(40):
        assert_text_matches(nerve(random_poset(rng, rng.randint(2, 7))).sset, f"poset {i}")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("cap", [3, 4, 5, 6])
def test_truncated_cyclic_nerves(n, cap):
    x = nerve(cyclic_group_category(n), cap).sset
    assert x.truncated_at is not None
    assert_text_matches(x, f"Z/{n} cap {cap}")


def test_degree_keys_past_nine_sort_as_strings():
    x = nerve(chain_poset(10)).sset
    assert x.dimension == 10
    assert_text_matches(x, "chain[10]")
    assert document_text(x).index('"10": [') < document_text(x).index('"2": [')


def test_empty_semi_simplicial_opposite_and_product():
    semi = SimplicialSet(
        {n: [(c, standard_simplex(2).face_tuple(n, c)) for c in standard_simplex(2).n_cells(n)]
         for n in range(3)},
        simplicial=False,
    )
    cases = {
        "empty": SimplicialSet({}),
        "empty truncated": SimplicialSet({}, truncated_at=0, tags=["t"]),
        "semi-simplicial triangle": semi,
        "opposite Z/3 cap 4": opposite(nerve(cyclic_group_category(3), 4).sset),
        "product": Product(standard_simplex(2), nerve(cyclic_group_category(2), 3).sset).sset,
        "opposite product": opposite(Product(standard_simplex(1), standard_simplex(2)).sset),
        "awkward ids": awkward_ids(),
    }
    assert document_text(cases["empty"]).startswith('{\n  "cells": {},\n')
    for label, x in cases.items():
        assert_text_matches(x, label)


def test_other_documents_and_saved_files(tmp_path):
    for name, obj in sorted(build_fixtures().items()):
        assert document_text(obj) == canonical_json(emit_document(obj)), name
        save_path(str(tmp_path / name), obj)
        assert (tmp_path / name).read_text(encoding="utf-8") == document_text(obj), name


@pytest.mark.parametrize(
    "build, cap",
    [
        (pseudo_circle, None),
        (pseudo_circle, 2),
        (lambda: double_cover().source, None),
        (lambda: chain_poset(10), None),
        (lambda: cyclic_group_category(2), 6),
        (lambda: cyclic_group_category(3), 4),
        (lambda: cyclic_group_category(4), 3),
    ],
)
def test_nerve_json_prints_the_dict_route_bytes(build, cap, tmp_path):
    path = str(tmp_path / "c.cat")
    save_path(path, build())
    argv = ["--json", "nerve", path] + ([] if cap is None else ["--cap", str(cap)])
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    x = nerve(build(), cap).sset
    assert out.getvalue() == canonical_json(emit_document(x))
    assert json.loads(out.getvalue()).get("truncated_at") == x.truncated_at
