"""On-disk document formats.

Simplicial data travels in .ssx files and categorical data in .cat
files; both are UTF-8 JSON with a "kind" discriminator:

  sset     {"kind": "sset", "simplicial": true,
            "cells": {"0": [{"id": "v"}],
                      "1": [{"id": "e", "faces": [["", "v"], ["", "v"]]}]}}
  smap     {"kind": "smap", "source": <sset>, "target": <sset>,
            "assignment": {"1": {"e": ["", "f"]}}}
  cat      {"kind": "cat", "objects": [...],
            "morphisms": [{"id": ..., "src": ..., "tgt": ...}],
            "identities": {...}, "compose": {"g∘f": ...}}
  functor  {"kind": "functor", "source": <cat>, "target": <cat>,
            "objects": {...}, "morphisms": {...}}

A face or assignment entry is a pair [word, cell]: the degeneracy word
as a comma-separated strictly decreasing string ("" when empty, "2,0"
and the like otherwise) and the identifier of a nondegenerate cell.
Degree keys and word indices are canonical ASCII decimals (no sign,
leading zero or space), so no two keys name one degree.
An sset document may carry "truncated_at" when only an initial segment
of an infinite object is listed, and "tags" (a sorted list of strings,
e.g. marking nerves) which feed the certification cap defaults.

Every parsed object is validated before it is returned, a nested source
or target first.  Outside data enters only here; what the library builds
from parsed objects is trusted and not validated again.

Emission is canonical (sorted keys, two-space indent, raw UTF-8, one
trailing newline) and preserves cell and morphism order, so parse and
emit are mutually inverse on canonical files, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring

from . import words as W
from .cat import FiniteCategory, Functor
from .sset import SMap, SimplexRef, SimplicialSet


class FormatError(Exception):
    """A malformed document; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def canonical_json(payload) -> str:
    """The bytes of json.dumps(payload, ensure_ascii=False, sort_keys=True,
    indent=2) plus one newline, emitted in one pass into a list."""
    out: list[str] = []
    _emit(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _emit(value, newline: str, put) -> None:
    """Append value's JSON text; newline is the line break and indent of
    its own level.  Bools are tested before ints, as json does; the
    other branches are disjoint, so containers come first."""
    if isinstance(value, str):
        put(encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            put(sep)
            put(encode_basestring(_key_text(key)))
            put(": ")
            if type(item) is str:
                put(encode_basestring(item))
            else:
                _emit(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            if type(item) is str:
                put(encode_basestring(item))
            else:
                _emit(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float_text(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def content_digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _need(doc, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise FormatError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError(path, f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _checked(obj):
    """The parsed object, once its validate() has passed."""
    obj.validate()
    return obj


def _parse_ref(entry, degree: int, path: str) -> SimplexRef:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not isinstance(entry[0], str)
        or not isinstance(entry[1], str)
    ):
        raise FormatError(path, "expected a [word, cell] pair of strings")
    try:
        word = W.parse_word(entry[0])
    except ValueError as e:
        raise FormatError(path, f"bad degeneracy word: {e}") from None
    if word and word[0] > degree - 1:
        raise FormatError(path, f"word {entry[0]!r} out of range for degree {degree}")
    return SimplexRef(degree, word, entry[1])


def _degree(key: str, path: str) -> int:
    n = W.canonical_int(key)
    if n is None or n < 0:
        raise FormatError(path, "degree keys must be canonical decimal strings")
    return n


def _ref_json(r: SimplexRef) -> list[str]:
    return [W.word_string(r.word), r.cell]


# -- simplicial sets ----------------------------------------------------------


def sset_to_json(x: SimplicialSet) -> dict:
    cells: dict[str, list[dict]] = {}
    for n in x.degrees():
        layer = []
        for cell_id in x.n_cells(n):
            entry: dict = {"id": cell_id}
            if n > 0:
                entry["faces"] = [_ref_json(f) for f in x.face_tuple(n, cell_id)]
            layer.append(entry)
        if layer:
            cells[str(n)] = layer
    doc = {"kind": "sset", "simplicial": x.simplicial, "cells": cells}
    if x.truncated_at is not None:
        doc["truncated_at"] = x.truncated_at
    if x.tags:
        doc["tags"] = sorted(x.tags)
    return doc


def sset_from_json(doc) -> SimplicialSet:
    kind = _need(doc, "kind", str, "$")
    if kind != "sset":
        raise FormatError("$.kind", f"expected 'sset', got {kind!r}")
    simplicial = _need(doc, "simplicial", bool, "$")
    raw_cells = _need(doc, "cells", dict, "$")
    truncated = doc.get("truncated_at")
    # bool is a subclass of int, so true and false need their own refusal
    if truncated is not None and (type(truncated) is not int or truncated < 0):
        raise FormatError("$.truncated_at", "expected a nonnegative integer")
    tags = doc.get("tags", [])
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise FormatError("$.tags", "expected a list of strings")
    cells: dict[int, list[tuple[str, list[SimplexRef]]]] = {}
    for key, layer in raw_cells.items():
        path = f"$.cells.{key}"
        n = _degree(key, path)
        if not isinstance(layer, list):
            raise FormatError(path, "expected a list of cells")
        parsed = []
        for pos, entry in enumerate(layer):
            epath = f"{path}[{pos}]"
            cell_id = _need(entry, "id", str, epath)
            faces = []
            if n > 0:
                raw_faces = _need(entry, "faces", list, epath)
                if len(raw_faces) != n + 1:
                    raise FormatError(
                        f"{epath}.faces", f"degree {n} cell wants {n + 1} faces"
                    )
                faces = [
                    _parse_ref(f, n - 1, f"{epath}.faces[{i}]")
                    for i, f in enumerate(raw_faces)
                ]
            elif "faces" in entry and entry["faces"]:
                raise FormatError(f"{epath}.faces", "vertices take no faces")
            parsed.append((cell_id, faces))
        cells[n] = parsed
    return _checked(
        SimplicialSet(cells, simplicial=simplicial, truncated_at=truncated, tags=tags)
    )


# -- simplicial maps ----------------------------------------------------------


def smap_to_json(f: SMap) -> dict:
    assignment: dict[str, dict[str, list[str]]] = {}
    for n in sorted(f.assignment):
        if f.assignment[n]:
            assignment[str(n)] = {
                c: _ref_json(r) for c, r in f.assignment[n].items()
            }
    return {
        "kind": "smap",
        "source": sset_to_json(f.source),
        "target": sset_to_json(f.target),
        "assignment": assignment,
    }


def _nested(doc, field: str, parse):
    """Parse the object doc[field], moving error paths from $ to $.field."""
    sub = _need(doc, field, dict, "$")
    try:
        return parse(sub)
    except FormatError as e:
        raise FormatError(f"$.{field}" + e.path[1:], str(e).split(": ", 1)[1]) from None


def smap_from_json(doc) -> SMap:
    kind = _need(doc, "kind", str, "$")
    if kind != "smap":
        raise FormatError("$.kind", f"expected 'smap', got {kind!r}")
    source = _nested(doc, "source", sset_from_json)
    target = _nested(doc, "target", sset_from_json)
    raw = _need(doc, "assignment", dict, "$")
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for key, layer in raw.items():
        path = f"$.assignment.{key}"
        n = _degree(key, path)
        if not isinstance(layer, dict):
            raise FormatError(path, "expected an object of cell assignments")
        assignment[n] = {
            c: _parse_ref(entry, n, f"{path}.{c}") for c, entry in layer.items()
        }
    return _checked(SMap(source, target, assignment))


# -- categories ---------------------------------------------------------------


def cat_to_json(c: FiniteCategory) -> dict:
    return {
        "kind": "cat",
        "objects": list(c.objects),
        "morphisms": [
            {"id": m, "src": s, "tgt": t} for m, (s, t) in c.morphisms.items()
        ],
        "identities": dict(c.identities),
        "compose": dict(c.compose_table),
    }


def cat_from_json(doc) -> FiniteCategory:
    kind = _need(doc, "kind", str, "$")
    if kind != "cat":
        raise FormatError("$.kind", f"expected 'cat', got {kind!r}")
    objects = _need(doc, "objects", list, "$")
    for pos, o in enumerate(objects):
        if not isinstance(o, str):
            raise FormatError(f"$.objects[{pos}]", "object identifiers are strings")
    raw_mor = _need(doc, "morphisms", list, "$")
    morphisms: dict[str, tuple[str, str]] = {}
    for pos, entry in enumerate(raw_mor):
        path = f"$.morphisms[{pos}]"
        mid = _need(entry, "id", str, path)
        src = _need(entry, "src", str, path)
        tgt = _need(entry, "tgt", str, path)
        if mid in morphisms:
            raise FormatError(f"{path}.id", f"duplicate morphism id {mid!r}")
        morphisms[mid] = (src, tgt)
    identities = _need(doc, "identities", dict, "$")
    compose = _need(doc, "compose", dict, "$")
    for table, name in ((identities, "identities"), (compose, "compose")):
        for k, v in table.items():
            if not isinstance(v, str):
                raise FormatError(f"$.{name}.{k}", "expected a morphism id string")
    return _checked(FiniteCategory(objects, morphisms, identities, compose))


def functor_to_json(f: Functor) -> dict:
    return {
        "kind": "functor",
        "source": cat_to_json(f.source),
        "target": cat_to_json(f.target),
        "objects": dict(f.object_map),
        "morphisms": dict(f.morphism_map),
    }


def functor_from_json(doc) -> Functor:
    kind = _need(doc, "kind", str, "$")
    if kind != "functor":
        raise FormatError("$.kind", f"expected 'functor', got {kind!r}")
    source = _nested(doc, "source", cat_from_json)
    target = _nested(doc, "target", cat_from_json)
    objects = _need(doc, "objects", dict, "$")
    morphisms = _need(doc, "morphisms", dict, "$")
    for name, table in (("objects", objects), ("morphisms", morphisms)):
        for k, v in table.items():
            if not isinstance(v, str):
                raise FormatError(f"$.{name}.{k}", "expected an identifier string")
    return _checked(Functor(source, target, objects, morphisms))


# -- files ---------------------------------------------------------------------


_PARSERS = {
    "sset": sset_from_json,
    "smap": smap_from_json,
    "cat": cat_from_json,
    "functor": functor_from_json,
}

_EMITTERS = [
    (SimplicialSet, sset_to_json),
    (SMap, smap_to_json),
    (FiniteCategory, cat_to_json),
    (Functor, functor_to_json),
]


def parse_document(doc):
    kind = _need(doc, "kind", str, "$")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise FormatError("$.kind", f"unknown document kind {kind!r}")
    return parser(doc)


def emit_document(obj) -> dict:
    for klass, emitter in _EMITTERS:
        if isinstance(obj, klass):
            return emitter(obj)
    raise FormatError("$", f"no document form for {type(obj).__name__}")


def load_path(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:  # undecodable bytes, too deep, too long an int
            raise FormatError("$", f"not valid JSON: {e}") from None
    return parse_document(doc)


def save_path(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(emit_document(obj)))
