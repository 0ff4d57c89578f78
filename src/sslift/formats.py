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
emit_document gives a document as a dict and document_text as text.
An sset document's text is written straight from the cell table, one
string per distinct face pair, with canonical_json's bytes: degree keys
in JSON's string order ("10" before "2") and the fields after "cells"
written by canonical_json itself.

A reader raises its error path relative to its own entry ("$" standing
for the entry), and each enclosing loop re-roots it with
FormatError.within, so a path is built only while an error propagates.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

from . import words as W
from .cat import FiniteCategory, Functor
from .sset import SMap, SimplexRef, SimplicialSet


class FormatError(Exception):
    """A malformed document; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def within(self, prefix: str) -> FormatError:
        """This error with the "$" its path starts from replaced by prefix."""
        return FormatError(prefix + self.path[1:], self.message)


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


def _need(doc, key: str, kind):
    if not isinstance(doc, dict):
        raise FormatError("$", f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError("$", f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"$.{key}", f"expected {kind.__name__}")
    return value


def _checked(obj):
    """The parsed object, once its validate() has passed."""
    obj.validate()
    return obj


def _parse_ref(entry, degree: int) -> SimplexRef:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not isinstance(entry[0], str)
        or not isinstance(entry[1], str)
    ):
        raise FormatError("$", "expected a [word, cell] pair of strings")
    try:
        word = W.parse_word(entry[0])
    except ValueError as e:
        raise FormatError("$", f"bad degeneracy word: {e}") from None
    if word and word[0] > degree - 1:
        raise FormatError("$", f"word {entry[0]!r} out of range for degree {degree}")
    return SimplexRef(degree, word, entry[1])


def _degree(key: str) -> int:
    n = W.canonical_int(key)
    if n is None or n < 0:
        raise FormatError("$", "degree keys must be canonical decimal strings")
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
    return _sset_doc(x, cells)


def _sset_doc(x: SimplicialSet, cells: dict) -> dict:
    doc = {"kind": "sset", "simplicial": x.simplicial, "cells": cells}
    if x.truncated_at is not None:
        doc["truncated_at"] = x.truncated_at
    if x.tags:
        doc["tags"] = sorted(x.tags)
    return doc


# Line breaks of the levels of an sset document in canonical_json: the
# degree keys, the cells, a cell's fields, its face pairs and a pair's
# two strings.
_KEY, _CELL, _FIELD, _PAIR, _PART = ("\n" + " " * k for k in (4, 6, 8, 10, 12))


def _sset_text(x: SimplicialSet) -> str:
    """canonical_json(sset_to_json(x)), written from the cell table: one
    string per distinct face pair, joined into cells, layers and text."""
    pairs: dict[SimplexRef, str] = {}
    layers = []
    for n in sorted(x.degrees(), key=str):  # JSON's key order: "10" before "2"
        cells = []
        for cell_id in x.n_cells(n):
            tail = f'{_FIELD}"id": {encode_basestring(cell_id)}{_CELL}}}'
            if n == 0:
                cells.append("{" + tail)
                continue
            faces = []
            for f in x.face_tuple(n, cell_id):
                text = pairs.get(f)
                if text is None:
                    word = encode_basestring(W.word_string(f.word))
                    text = pairs[f] = f"[{_PART}{word},{_PART}{encode_basestring(f.cell)}{_PAIR}]"
                faces.append(text)
            faces_text = f",{_PAIR}".join(faces)
            cells.append(f'{{{_FIELD}"faces": [{_PAIR}{faces_text}{_FIELD}],{tail}')
        if cells:
            layers.append(f'"{n}": [{_CELL}' + f",{_CELL}".join(cells) + f"{_KEY}]")
    # canonical_json puts "cells" first, so its "{}" is the first in the text
    text = canonical_json(_sset_doc(x, {}))
    if not layers:
        return text
    return text.replace("{}", f"{{{_KEY}" + f",{_KEY}".join(layers) + "\n  }", 1)


def _cell(entry, n: int) -> tuple[str, list[SimplexRef]]:
    """The id and faces of a degree-n cell entry, or the first fault in it."""
    cell_id = _need(entry, "id", str)
    if n == 0:
        if "faces" in entry and entry["faces"]:
            raise FormatError("$.faces", "vertices take no faces")
        return cell_id, []
    raw_faces = _need(entry, "faces", list)
    if len(raw_faces) != n + 1:
        raise FormatError("$.faces", f"degree {n} cell wants {n + 1} faces")
    faces = []
    try:
        for f in raw_faces:
            faces.append(_parse_ref(f, n - 1))
    except FormatError as e:
        raise e.within(f"$.faces[{len(faces)}]") from None
    return cell_id, faces


def sset_from_json(doc) -> SimplicialSet:
    kind = _need(doc, "kind", str)
    if kind != "sset":
        raise FormatError("$.kind", f"expected 'sset', got {kind!r}")
    simplicial = _need(doc, "simplicial", bool)
    raw_cells = _need(doc, "cells", dict)
    truncated = doc.get("truncated_at")
    # bool is a subclass of int, so true and false need their own refusal
    if truncated is not None and (type(truncated) is not int or truncated < 0):
        raise FormatError("$.truncated_at", "expected a nonnegative integer")
    tags = doc.get("tags", [])
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise FormatError("$.tags", "expected a list of strings")
    cells: dict[int, list[tuple[str, list[SimplexRef]]]] = {}
    for key, layer in raw_cells.items():
        parsed = []
        try:
            n = _degree(key)
            if not isinstance(layer, list):
                raise FormatError("$", "expected a list of cells")
            try:
                for entry in layer:
                    parsed.append(_cell(entry, n))
            except FormatError as e:
                raise e.within(f"$[{len(parsed)}]") from None
        except FormatError as e:
            raise e.within(f"$.cells.{key}") from None
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
    sub = _need(doc, field, dict)
    try:
        return parse(sub)
    except FormatError as e:
        raise e.within(f"$.{field}") from None


def smap_from_json(doc) -> SMap:
    kind = _need(doc, "kind", str)
    if kind != "smap":
        raise FormatError("$.kind", f"expected 'smap', got {kind!r}")
    source = _nested(doc, "source", sset_from_json)
    target = _nested(doc, "target", sset_from_json)
    raw = _need(doc, "assignment", dict)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for key, layer in raw.items():
        try:
            n = _degree(key)
            if not isinstance(layer, dict):
                raise FormatError("$", "expected an object of cell assignments")
            refs = assignment[n] = {}
            try:
                for c, entry in layer.items():
                    refs[c] = _parse_ref(entry, n)
            except FormatError as e:
                raise e.within(f"$.{c}") from None
        except FormatError as e:
            raise e.within(f"$.assignment.{key}") from None
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
    kind = _need(doc, "kind", str)
    if kind != "cat":
        raise FormatError("$.kind", f"expected 'cat', got {kind!r}")
    objects = _need(doc, "objects", list)
    for pos, o in enumerate(objects):
        if not isinstance(o, str):
            raise FormatError(f"$.objects[{pos}]", "object identifiers are strings")
    raw_mor = _need(doc, "morphisms", list)
    morphisms: dict[str, tuple[str, str]] = {}
    try:
        for pos, entry in enumerate(raw_mor):
            mid = _need(entry, "id", str)
            src = _need(entry, "src", str)
            tgt = _need(entry, "tgt", str)
            if mid in morphisms:
                raise FormatError("$.id", f"duplicate morphism id {mid!r}")
            morphisms[mid] = (src, tgt)
    except FormatError as e:
        raise e.within(f"$.morphisms[{pos}]") from None
    identities = _need(doc, "identities", dict)
    compose = _need(doc, "compose", dict)
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
    kind = _need(doc, "kind", str)
    if kind != "functor":
        raise FormatError("$.kind", f"expected 'functor', got {kind!r}")
    source = _nested(doc, "source", cat_from_json)
    target = _nested(doc, "target", cat_from_json)
    objects = _need(doc, "objects", dict)
    morphisms = _need(doc, "morphisms", dict)
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
    kind = _need(doc, "kind", str)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise FormatError("$.kind", f"unknown document kind {kind!r}")
    return parser(doc)


def emit_document(obj) -> dict:
    for klass, emitter in _EMITTERS:
        if isinstance(obj, klass):
            return emitter(obj)
    raise FormatError("$", f"no document form for {type(obj).__name__}")


def document_text(obj) -> str:
    """canonical_json(emit_document(obj)); a simplicial set's text is
    written from its cell table without the dict."""
    if isinstance(obj, SimplicialSet):
        return _sset_text(obj)
    return canonical_json(emit_document(obj))


def load_path(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:  # undecodable bytes, too deep, too long an int
            raise FormatError("$", f"not valid JSON: {e}") from None
    return parse_document(doc)


def save_path(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_text(obj))
