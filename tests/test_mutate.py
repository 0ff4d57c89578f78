"""The mutation harness's table and its refusal rule.

tools/mutate.py applies each entry's one edit to a copy of the checkout.
An entry whose old text is missing from its file, or found twice, must
be refused before anything is copied or run.  No pytest child starts
here.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mutate(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import mutate

    return mutate


def test_an_old_text_found_once_is_replaced(mutate):
    m = mutate.Mutation("m", "f.py", "b = 2", "b = 3", ("t",))
    assert mutate.mutated_text("a = 1\nb = 2\n", m) == "a = 1\nb = 3\n"


@pytest.mark.parametrize("text, count", [("a = 1\n", 0), ("b = 2\nb = 2\n", 2)])
def test_an_old_text_not_found_once_is_refused(mutate, text, count):
    m = mutate.Mutation("m", "f.py", "b = 2", "b = 3", ("t",))
    with pytest.raises(mutate.Refused, match=f"occurs {count} times"):
        mutate.mutated_text(text, m)


@pytest.mark.parametrize("text", ["a = 1\n", "b = 2\nb = 2\n"], ids=["absent", "twice"])
def test_a_refused_entry_copies_and_runs_nothing(mutate, monkeypatch, tmp_path, text):
    (tmp_path / "f.py").write_text(text)

    def forbidden(*args, **kwargs):
        raise AssertionError("a refused entry started work")

    monkeypatch.setattr(mutate.shutil, "copytree", forbidden)
    monkeypatch.setattr(mutate.subprocess, "run", forbidden)
    m = mutate.Mutation("m", "f.py", "b = 2", "b = 3", ("t",))
    outcome, detail = mutate.run(m, root=str(tmp_path))
    assert outcome == "refused" and "not once" in detail
    assert (tmp_path / "f.py").read_text() == text


def test_every_entry_applies_to_this_checkout(mutate):
    names = [m.name for m in mutate.MUTATIONS]
    assert len(names) == len(set(names))
    for m in mutate.MUTATIONS:
        mutate.mutated_text((ROOT / m.path).read_text(encoding="utf-8"), m)
        for test in m.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (m.name, test)
