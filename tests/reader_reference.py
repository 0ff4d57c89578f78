"""The eager document readers, kept as a reference.

These readers build every entry's, face's and value's error path up
front, where `sslift.formats` raises paths relative to each entry and
re-roots them only while an error propagates; here each field is
checked with its full path in hand.  Tests compare the two on malformed
documents, exception type and message, path indexes included.
"""

from sslift import words as W
from sslift.formats import FormatError
from sslift.cat import FiniteCategory, Functor
from sslift.sset import SMap, SimplexRef, SimplicialSet


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


def _nested(doc, field: str, parse):
    """Parse the object doc[field], moving error paths from $ to $.field."""
    sub = _need(doc, field, dict, "$")
    try:
        return parse(sub)
    except FormatError as e:
        raise FormatError(f"$.{field}" + e.path[1:], e.message) from None


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


_PARSERS = {
    "sset": sset_from_json,
    "smap": smap_from_json,
    "cat": cat_from_json,
    "functor": functor_from_json,
}


def parse_document(doc):
    kind = _need(doc, "kind", str, "$")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise FormatError("$.kind", f"unknown document kind {kind!r}")
    return parser(doc)
