"""Seeded single-edit damage of the committed fixtures, through the CLI.

Each case parses one fixture, makes one edit somewhere in the document
(delete a key, replace a value with one of another type, append to a
string, shift an integer or a degree key by one, duplicate a list
entry) and runs the
subcommand that reads that kind of document, in process.  A damaged
document is either still meaningful (exit 0, 1 or 2) or bad input
(exit 3 with exactly one stderr line); it is never an internal fault
(exit 4) and never a traceback.
"""

import copy
import json
import random
from pathlib import Path

from sslift.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMMANDS = {"smap": "certify", "sset": "homology", "cat": "nerve", "functor": "theorem-b"}
CASES = 400


def nodes(doc):
    """Every (container, key) slot of a JSON document, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield doc, key
        yield from nodes(value)


def other_type(value):
    if isinstance(value, bool):
        return "true"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return {}
    if isinstance(value, dict):
        return []
    return 0


def delete_key(rng, doc):
    slots = [(c, k) for c, k in nodes(doc) if isinstance(c, dict)]
    c, k = rng.choice(slots)
    del c[k]


def wrong_type(rng, doc):
    c, k = rng.choice(list(nodes(doc)))
    c[k] = other_type(c[k])


def append_to_string(rng, doc):
    slots = [(c, k) for c, k in nodes(doc) if isinstance(c[k], str)]
    c, k = rng.choice(slots)
    c[k] += rng.choice(["x", "0", "|", ",", "."])


def shift_int(rng, doc):
    """Shift an integer value, or a degree written as a key ("0", "1", ...)."""
    slots = [(c, k) for c, k in nodes(doc)
             if isinstance(c[k], int) and not isinstance(c[k], bool)
             or isinstance(k, str) and k.isdigit()]
    c, k = rng.choice(slots)
    step = rng.choice([-1, 1])
    if isinstance(k, str) and k.isdigit():
        c[str(int(k) + step)] = c.pop(k)
    else:
        c[k] += step


def duplicate_entry(rng, doc):
    slots = [(c, k) for c, k in nodes(doc) if isinstance(c[k], list) and c[k]]
    c, k = rng.choice(slots)
    entries = c[k]
    at = rng.randrange(len(entries))
    entries.insert(at, copy.deepcopy(entries[at]))


EDITS = [delete_key, wrong_type, append_to_string, shift_int, duplicate_entry]


def damaged(rng, doc):
    doc = copy.deepcopy(doc)
    for edit in rng.sample(EDITS, len(EDITS)):
        try:
            edit(rng, doc)
        except IndexError:  # no slot of that kind; try the next edit
            continue
        return doc, edit.__name__
    raise AssertionError("no edit applies")


def test_damaged_fixtures_exit_0_to_3_without_a_traceback(capsys, tmp_path):
    fixtures = sorted(FIXTURES.iterdir())
    docs = {f.name: json.loads(f.read_text()) for f in fixtures}
    codes = {}
    for case in range(CASES):
        rng = random.Random(case)
        name = fixtures[case % len(fixtures)].name
        doc, edit = damaged(rng, docs[name])
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code = main(["--json", COMMANDS[docs[name]["kind"]], str(path)])
        err = capsys.readouterr().err
        where = (case, name, edit)
        assert code in (0, 1, 2, 3), (where, code, err)
        assert "Traceback" not in err, where
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1, (where, err)
        codes[code] = codes.get(code, 0) + 1
    # most damage is caught as bad input
    assert codes[3] > CASES * 0.9, codes
