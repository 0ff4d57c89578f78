"""Document serialization: round trips, canonical bytes, error paths."""

import json

import pytest

from sslift.cat import nerve, nerve_functor
from sslift.corpus import build_fixtures, double_cover, pseudo_circle
from sslift.formats import (
    FormatError,
    canonical_json,
    content_digest,
    emit_document,
    load_path,
    parse_document,
    save_path,
)
from sslift.sset import SMap, SimplicialSet, standard_simplex


def round_trip_bytes(obj):
    doc = emit_document(obj)
    blob = canonical_json(doc)
    again = emit_document(parse_document(json.loads(blob)))
    return blob, canonical_json(again)


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, {"z": None, "y": "x"}]}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
    assert canonical_json(doc).endswith("\n")


def test_all_fixture_documents_round_trip():
    for name, obj in sorted(build_fixtures().items()):
        blob, again = round_trip_bytes(obj)
        assert blob == again, name


def test_sset_round_trip_preserves_structure():
    x = nerve(pseudo_circle()).sset
    y = parse_document(emit_document(x))
    assert isinstance(y, SimplicialSet)
    assert y.counts() == x.counts()
    for n, c, faces in x.cell_items():
        assert y.face_tuple(n, c) == faces
    assert y.tags == x.tags
    assert y.truncated_at == x.truncated_at


def test_truncated_marker_round_trips():
    from sslift.cat import cyclic_group_category

    x = nerve(cyclic_group_category(2)).sset
    assert x.truncated_at is not None
    y = parse_document(emit_document(x))
    assert y.truncated_at == x.truncated_at


def test_smap_round_trip(cover_map):
    doc = emit_document(cover_map)
    m = parse_document(doc)
    assert isinstance(m, SMap)
    m.validate()
    for n in cover_map.source.degrees():
        for c in cover_map.source.n_cells(n):
            assert m.value(n, c) == cover_map.value(n, c)


def test_functor_round_trip():
    f = double_cover()
    g = parse_document(emit_document(f))
    g.validate()
    assert g.object_map == f.object_map
    assert g.morphism_map == f.morphism_map
    assert g.source == f.source and g.target == f.target


def test_save_and_load(tmp_path):
    path = str(tmp_path / "d2.ssx")
    save_path(path, standard_simplex(2))
    x = load_path(path)
    assert x.counts() == (3, 3, 1)
    # saving twice gives identical bytes
    save_path(str(tmp_path / "again.ssx"), x)
    a = (tmp_path / "d2.ssx").read_bytes()
    b = (tmp_path / "again.ssx").read_bytes()
    assert a == b


def test_content_digest_tracks_content():
    a = emit_document(standard_simplex(2))
    b = emit_document(standard_simplex(3))
    assert content_digest(a) == content_digest(json.loads(canonical_json(a)))
    assert content_digest(a) != content_digest(b)


def bad(doc, path_fragment):
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert path_fragment in str(e.value), str(e.value)


def test_error_paths_name_the_field():
    bad({"cells": {}}, "missing field 'kind'")
    bad({"kind": "spline"}, "$.kind")
    bad({"kind": "sset", "simplicial": True}, "missing field 'cells'")
    bad({"kind": "sset", "simplicial": True, "cells": {"x": []}}, "$.cells.x")
    bad(
        {
            "kind": "sset",
            "simplicial": True,
            "cells": {
                "0": [{"id": "p"}],
                "1": [{"id": "e", "faces": [["", "p"]]}],
            },
        },
        "$.cells.1[0].faces",
    )
    bad(
        {
            "kind": "sset",
            "simplicial": True,
            "cells": {"0": [{"id": "p", "faces": [["", "p"]]}]},
        },
        "$.cells.0[0].faces",
    )
    bad(
        {
            "kind": "sset",
            "simplicial": True,
            "cells": {
                "0": [{"id": "p"}],
                "1": [{"id": "e", "faces": [["", "p"], ["1,0", "p"]]}],
            },
        },
        "$.cells.1[0].faces[1]",
    )
    bad({"kind": "sset", "simplicial": True, "cells": {}, "tags": "nerve"}, "$.tags")


def test_error_on_bad_json_file(tmp_path):
    p = tmp_path / "garbage.ssx"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_path(str(p))


def test_nerve_map_documents_stay_parseable(cover):
    m, _, _ = nerve_functor(cover)
    blob, again = round_trip_bytes(m)
    assert blob == again


@pytest.mark.parametrize("field", ["source", "target"])
@pytest.mark.parametrize("kind", ["smap", "functor"])
def test_nested_object_errors_name_the_field_once(field, kind, cover_map):
    good = emit_document(cover_map if kind == "smap" else double_cover())
    assert good["kind"] == kind
    with pytest.raises(FormatError) as e:
        parse_document({**good, field: 3})
    assert str(e.value) == f"$.{field}: expected dict"
    missing = {k: v for k, v in good.items() if k != field}
    with pytest.raises(FormatError) as e:
        parse_document(missing)
    assert str(e.value) == f"$: missing field {field!r}"
    # an error inside the nested document keeps its path under $.field
    with pytest.raises(FormatError) as e:
        parse_document({**good, field: {**good[field], "kind": "spline"}})
    assert str(e.value).startswith(f"$.{field}.kind: ")
