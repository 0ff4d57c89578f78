"""The document readers against the eager readers they replace.

The readers raise error paths relative to each entry and re-root them
while the error propagates.  On every document here, good or malformed
deep inside (not in the first cell, face or value), each must give what
the eager reader in reader_reference.py gives: the same object, or the
same exception type and message, path indexes included.
"""

import copy
import json
from collections import OrderedDict

import pytest

from sslift.cat import chain_poset, cyclic_group_category, nerve, nerve_functor
from sslift.corpus import build_fixtures, collapse_tower, double_cover, pseudo_circle
from sslift.formats import FormatError, canonical_json, emit_document, parse_document
from sslift.sset import SMap, SimplexRef, SimplicialSet, ValidationError, standard_simplex
from tests import reader_reference


def outcome(parse, doc):
    try:
        obj = parse(doc)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)
    return "parsed", canonical_json(emit_document(obj))


def two_edge_map() -> SMap:
    a, b = SimplexRef(0, (), "a"), SimplexRef(0, (), "b")
    source = SimplicialSet({0: [("a", []), ("b", [])], 1: [("d", [b, a]), ("e", [b, a])]})
    target = standard_simplex(1)
    v0, v1, edge = SimplexRef(0, (), "0"), SimplexRef(0, (), "1"), SimplexRef(1, (), "0.1")
    return SMap(source, target, {0: {"a": v0, "b": v1}, 1: {"d": edge, "e": edge}})


def bad_pairs(degree: int, cell: str) -> list:
    """Face or assignment values of a simplex of the given degree, each
    with one fault; the last two are well formed but name no cell or
    wrap a plain pair in a list subclass."""
    return [
        3,
        None,
        "x",
        [""],
        ["", cell, cell],
        [0, cell],
        ["", 7],
        ["x", cell],
        ["-1", cell],
        ["01", cell],
        ["0,0", cell],
        ["0,1", cell],
        [str(degree), cell],
        [f"{degree + 3},0", cell],
        ("", cell),
        ["", "no such cell"],
    ]


def sset_variants(doc: dict, prefix: list) -> list[tuple[str, dict]]:
    """Malformed copies of an sset document (found at doc[prefix...]),
    faulted past the first cell and face of its top degrees."""
    out = []

    def variant(label, edit):
        d = copy.deepcopy(doc)
        sub = d
        for key in prefix:
            sub = sub[key]
        edit(sub)
        out.append((label, d))

    top = max(doc_at(doc, prefix)["cells"], key=int)
    for key in sorted(doc_at(doc, prefix)["cells"], key=int):
        n = int(key)
        layer = doc_at(doc, prefix)["cells"][key]
        pos = len(layer) - 1 if len(layer) > 1 else 0
        cell = layer[0]["id"]
        if n == 0:
            variant(f"vertex {pos} with faces",
                    lambda s, p=pos, c=cell: s["cells"]["0"][p].update(faces=[["", c]]))
            variant(f"vertex {pos} with empty faces",
                    lambda s, p=pos: s["cells"]["0"][p].update(faces=[]))
            continue
        face_cell = layer[pos]["faces"][0][1]
        for k, value in enumerate(bad_pairs(n - 1, face_cell)):
            variant(f"degree {n} cell {pos} face 1 pair {k}",
                    lambda s, key=key, p=pos, v=value: s["cells"][key][p]["faces"].__setitem__(1, v))
        for label, value in [("int", 5), ("list", []), ("str", "cell"), ("None", None)]:
            variant(f"degree {n} cell {pos} is {label}",
                    lambda s, key=key, p=pos, v=value: s["cells"][key].__setitem__(p, v))
        variant(f"degree {n} cell {pos} without id",
                lambda s, key=key, p=pos: s["cells"][key][p].pop("id"))
        variant(f"degree {n} cell {pos} with an int id",
                lambda s, key=key, p=pos: s["cells"][key][p].update(id=12))
        variant(f"degree {n} cell {pos} with a duplicate id",
                lambda s, key=key, p=pos: s["cells"][key][p].update(id=s["cells"][key][0]["id"]))
        variant(f"degree {n} cell {pos} without faces",
                lambda s, key=key, p=pos: s["cells"][key][p].pop("faces"))
        variant(f"degree {n} cell {pos} with faces a string",
                lambda s, key=key, p=pos: s["cells"][key][p].update(faces="faces"))
        variant(f"degree {n} cell {pos} one face short",
                lambda s, key=key, p=pos: s["cells"][key][p]["faces"].pop())
        variant(f"degree {n} cell {pos} one face over",
                lambda s, key=key, p=pos: s["cells"][key][p]["faces"].append(["", "x"]))
        variant(f"degree {n} cell {pos} an OrderedDict",
                lambda s, key=key, p=pos: s["cells"][key].__setitem__(p, OrderedDict(s["cells"][key][p])))
        variant(f"degree {n} faces swapped",
                lambda s, key=key, p=pos: s["cells"][key][p]["faces"].reverse())
    variant("layer not a list", lambda s: s["cells"].__setitem__(top, {"id": "x"}))
    variant("key with a leading zero", lambda s: s["cells"].__setitem__("0" + top, s["cells"].pop(top)))
    variant("negative key", lambda s: s["cells"].__setitem__("-1", []))
    variant("key with ': ' in it", lambda s: s["cells"].__setitem__("a: b", []))
    variant("truncated_at true", lambda s: s.update(truncated_at=True))
    variant("tags not strings", lambda s: s.update(tags=["a", 1]))
    return out


def doc_at(doc, prefix):
    for key in prefix:
        doc = doc[key]
    return doc


def sset_documents() -> dict[str, dict]:
    docs = {
        "Z/3 cap 4": emit_document(nerve(cyclic_group_category(3), 4).sset),
        "Z/2 cap 5": emit_document(nerve(cyclic_group_category(2), 5).sset),
        "chain[4]": emit_document(nerve(chain_poset(4)).sset),
    }
    for name, obj in sorted(build_fixtures().items()):
        if isinstance(obj, SimplicialSet):
            docs[name] = emit_document(obj)
    return docs


def assert_parity(doc, label):
    new = outcome(parse_document, doc)
    old = outcome(reader_reference.parse_document, doc)
    assert new == old, label
    return new


@pytest.mark.parametrize("name", sorted(sset_documents()))
def test_sset_documents(name):
    doc = sset_documents()[name]
    assert assert_parity(doc, "good")[0] == "parsed"
    kinds = set()
    for label, bad in sset_variants(doc, []):
        kinds.add(assert_parity(bad, label)[0])
    assert {"parsed", FormatError, ValidationError} <= kinds


def test_sset_paths_name_deep_faces():
    doc = emit_document(nerve(cyclic_group_category(3), 4).sset)
    assert doc["cells"]["2"][3]["id"] == "g2|g2"
    doc["cells"]["2"][3]["faces"][1] = ["1", "*"]
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert str(e.value) == "$.cells.2[3].faces[1]: word '1' out of range for degree 1"
    assert outcome(reader_reference.parse_document, doc) == (FormatError, str(e.value))


def smap_documents() -> dict[str, dict]:
    docs = {
        "two edges": emit_document(two_edge_map()),
        "cover nerve map": emit_document(nerve_functor(double_cover())[0]),
        "tower nerve map": emit_document(nerve_functor(collapse_tower())[0]),
    }
    for name, obj in sorted(build_fixtures().items()):
        if isinstance(obj, SMap):
            docs[name] = emit_document(obj)
    return docs


@pytest.mark.parametrize("name", sorted(smap_documents()))
def test_smap_documents(name):
    doc = smap_documents()[name]
    assert assert_parity(doc, "good")[0] == "parsed"
    kinds = set()
    for key, layer in doc["assignment"].items():
        n = int(key)
        c = list(layer)[-1]
        for k, value in enumerate(bad_pairs(n, layer[c][1])):
            bad = copy.deepcopy(doc)
            bad["assignment"][key][c] = value
            kinds.add(assert_parity(bad, f"degree {n} value of {c!r} pair {k}")[0])
        bad = copy.deepcopy(doc)
        bad["assignment"][key] = [layer[c]]
        kinds.add(assert_parity(bad, f"degree {n} layer a list")[0])
    for field in ("source", "target"):
        for label, bad in sset_variants(doc, [field]):
            kinds.add(assert_parity(bad, f"{field}: {label}")[0])
    assert {"parsed", FormatError, ValidationError} <= kinds


def test_smap_paths_name_deep_values():
    doc = emit_document(two_edge_map())
    doc["assignment"]["1"]["e"] = ["", 1]
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert str(e.value) == "$.assignment.1.e: expected a [word, cell] pair of strings"
    assert outcome(reader_reference.parse_document, doc) == (FormatError, str(e.value))
    doc = emit_document(two_edge_map())
    doc["source"]["cells"]["1"][1]["faces"][1] = ["", "c"]
    assert outcome(parse_document, doc) == outcome(reader_reference.parse_document, doc)
    assert outcome(parse_document, doc)[0] is ValidationError


def cat_variants(doc: dict) -> list[tuple[str, dict]]:
    out = []
    last = len(doc["morphisms"]) - 1
    mid = doc["morphisms"][last]["id"]
    edits = {
        "morphism not an object": lambda d: d["morphisms"].__setitem__(last, [mid]),
        "morphism without id": lambda d: d["morphisms"][last].pop("id"),
        "morphism without src": lambda d: d["morphisms"][last].pop("src"),
        "morphism without tgt": lambda d: d["morphisms"][last].pop("tgt"),
        "morphism with an int id": lambda d: d["morphisms"][last].update(id=4),
        "morphism with a list src": lambda d: d["morphisms"][last].update(src=["a"]),
        "morphism with a None tgt": lambda d: d["morphisms"][last].update(tgt=None),
        "morphism id repeated": lambda d: d["morphisms"][last].update(id=d["morphisms"][0]["id"]),
        "morphism an OrderedDict": lambda d: d["morphisms"].__setitem__(last, OrderedDict(d["morphisms"][last])),
        "morphism outside": lambda d: d["morphisms"][last].update(tgt="nowhere"),
        "object an int": lambda d: d["objects"].__setitem__(len(d["objects"]) - 1, 9),
        "identity an int": lambda d: d["identities"].__setitem__(list(d["identities"])[-1], 9),
        "composite an int": lambda d: d["compose"].__setitem__(list(d["compose"])[-1], 9),
        "composite renamed": lambda d: d["compose"].__setitem__(list(d["compose"])[-1], "zz"),
        "identity key with ': ' in it": lambda d: d["identities"].__setitem__("a: b", 5),
        "composite key with ': ' in it": lambda d: d["compose"].__setitem__("g: f", 5),
    }
    for label, edit in edits.items():
        d = copy.deepcopy(doc)
        edit(d)
        out.append((label, d))
    return out


CATEGORIES = {
    "pseudo-circle": pseudo_circle,
    "chain[4]": lambda: chain_poset(4),
    "Z/3": lambda: cyclic_group_category(3),
    "cover target": lambda: double_cover().target,
}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_cat_documents(name):
    doc = emit_document(CATEGORIES[name]())
    assert assert_parity(doc, "good")[0] == "parsed"
    kinds = {assert_parity(bad, label)[0] for label, bad in cat_variants(doc)}
    assert {"parsed", FormatError, ValidationError} <= kinds


def test_cat_paths_name_deep_morphisms():
    doc = emit_document(chain_poset(3))
    doc["morphisms"][3]["src"] = 0
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert str(e.value) == "$.morphisms[3].src: expected str"
    assert outcome(reader_reference.parse_document, doc) == (FormatError, str(e.value))


@pytest.mark.parametrize("build", [double_cover, collapse_tower], ids=["cover", "tower"])
def test_functor_documents(build):
    doc = emit_document(build())
    assert assert_parity(doc, "good")[0] == "parsed"
    kinds = set()
    for field in ("source", "target"):
        for label, bad_cat in cat_variants(doc[field]):
            kinds.add(assert_parity({**doc, field: bad_cat}, f"{field}: {label}")[0])
    for field in ("objects", "morphisms"):
        last = list(doc[field])[-1]
        for value in (1, None, ["x"], "nowhere"):
            bad = copy.deepcopy(doc)
            bad[field][last] = value
            kinds.add(assert_parity(bad, f"{field} {last!r} -> {value!r}")[0])
    assert {"parsed", FormatError, ValidationError} <= kinds


def test_functor_paths_name_nested_morphisms():
    doc = emit_document(double_cover())
    doc["source"]["morphisms"][2] = {"id": "m", "src": "a"}
    with pytest.raises(FormatError) as e:
        parse_document(json.loads(json.dumps(doc)))
    assert str(e.value) == "$.source.morphisms[2]: missing field 'tgt'"
    assert outcome(reader_reference.parse_document, doc) == (FormatError, str(e.value))



@pytest.mark.parametrize(
    "table, key",
    [("identities", "a: b"), ("compose", "g: f")],
)
def test_nested_cat_paths_keep_keys_with_colons(table, key):
    doc = emit_document(double_cover())
    doc["source"][table][key] = 5
    message = f"$.source.{table}.{key}: expected a morphism id string"
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert str(e.value) == message
    assert outcome(reader_reference.parse_document, doc) == (FormatError, message)


def test_nested_sset_paths_keep_keys_with_colons():
    doc = emit_document(two_edge_map())
    doc["target"]["cells"]["x: y"] = []
    message = "$.target.cells.x: y: degree keys must be canonical decimal strings"
    with pytest.raises(FormatError) as e:
        parse_document(doc)
    assert str(e.value) == message
    assert outcome(reader_reference.parse_document, doc) == (FormatError, message)
