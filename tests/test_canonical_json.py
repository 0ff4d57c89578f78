"""canonical_json against json.dumps, which it replaces.

The emitter writes the text itself instead of going through json's
indenting encoder.  Its bytes must be those of
json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) plus a
newline on every document the package writes and on hand-made payloads
with awkward strings and containers, and it must reject what json.dumps
rejects with the same TypeError.
"""

import contextlib
import io
import json

import pytest

from sslift import cli
from sslift.cat import chain_poset, identity_functor
from sslift.corpus import build_fixtures
from sslift.formats import canonical_json, emit_document, save_path
from test_golden import CHAIN_GOLDEN, FIXTURES, GOLDEN


def reference(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def outcome(fn, payload):
    try:
        return fn(payload)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)


def test_fixture_documents():
    fixtures = build_fixtures()
    assert fixtures
    for name, obj in sorted(fixtures.items()):
        doc = emit_document(obj)
        assert canonical_json(doc) == reference(doc), name
        on_disk = FIXTURES / name
        if on_disk.exists():
            assert canonical_json(json.loads(on_disk.read_text("utf-8"))) == on_disk.read_text(
                "utf-8"
            ), name


def recorded_payloads(monkeypatch, argvs):
    """The payloads the CLI hands to canonical_json while running argvs."""
    seen = []

    def recording(payload):
        seen.append(payload)
        return canonical_json(payload)

    monkeypatch.setattr(cli, "canonical_json", recording)
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--json", *argv])
    return seen


def test_golden_reports(monkeypatch, tmp_path):
    argvs = [
        [str(FIXTURES / a) if a.endswith((".ssx", ".cat")) else a for a in argv]
        for argv, _, _ in GOLDEN
    ]
    for n, _ in CHAIN_GOLDEN:
        path = tmp_path / f"chain{n}.cat"
        save_path(str(path), identity_functor(chain_poset(n)))
        argvs.append(["theorem-b", str(path)])
    payloads = recorded_payloads(monkeypatch, argvs)
    assert len(payloads) == len(argvs)
    for argv, payload in zip(argvs, payloads):
        assert canonical_json(payload) == reference(payload), argv


HAND_MADE = [
    "plain",
    "é ü ß 中文 😀",
    'quote " and backslash \\ and slash /',
    "control \x00 \x01 \x08 \t \n \r \x0c \x1f \x7f",
    "line separators \u2028 \u2029 and a byte-order mark \ufeff",
    "",
    [],
    {},
    [[]],
    [{}],
    {"a": {}, "b": [], "c": [[], {}]},
    [[[[]]]],
    (1, "two", (3,)),
    {"t": (), "u": ("x",)},
    None,
    True,
    False,
    [True, False, None, 0, 1, -1],
    0,
    -7,
    -(10**30),
    2**64 + 1,
    {"big": 10**100, "neg": -(2**63)},
    {"z": 1, "a": 2, "é": 3, "A": 4, "": 5, "10": 6, "9": 7},
    {"nested": {"b": [1, {"d": None, "c": "x"}], "a": True}},
    {"keys \n   \"q\"": "v"},
    {1: "int key", 2: "sorted as ints"},
    {True: "bool key"},
    {None: "none key"},
    {2.5: "float key"},
    [1.5, -0.0, 1e300, 2.5e-10],
    [float("nan"), float("inf"), float("-inf")],
]


@pytest.mark.parametrize("payload", HAND_MADE, ids=[f"case{k}" for k in range(len(HAND_MADE))])
def test_hand_made_payloads(payload):
    assert canonical_json(payload) == reference(payload)


class Text(str):
    pass


class Count(int):
    pass


SUBCLASSED = [Text("sub"), {Text("k"): Count(3)}, [Count(-2), Text("é")]]


@pytest.mark.parametrize("payload", SUBCLASSED, ids=["str", "dict", "list"])
def test_subclasses_of_json_types(payload):
    assert canonical_json(payload) == reference(payload)


REJECTED = [
    object(),
    {1, 2},
    b"bytes",
    [1, {"a": object()}],
    {(1, 2): "tuple key"},
    {"a": 1, 2: "mixed keys"},
    {"a": {"b": [frozenset()]}},
]


@pytest.mark.parametrize("payload", REJECTED, ids=[f"bad{k}" for k in range(len(REJECTED))])
def test_rejects_what_json_rejects(payload):
    got = outcome(canonical_json, payload)
    want = outcome(reference, payload)
    assert want[0] is TypeError
    assert got == want
