"""Command line driver: exit codes, canonical output, fixture round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sslift.cli
from sslift.cat import FiniteCategory, Functor, compose_key, cyclic_group_category
from sslift.cli import EXIT_INTERNAL, main
from sslift.corpus import write_fixtures
from sslift.formats import save_path
from sslift.sset import SMap, SimplexRef, SimplicialSet, constant_map, standard_simplex

from tests.test_sset import mismatched_triangle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def fx(name):
    return FIXTURES / name


def test_certify_exit_codes(capsys, tmp_path):
    code, out = run(capsys, "certify", fx("double_cover.ssx"))
    assert code == 0
    assert out.count("certified") == 3

    code, out = run(capsys, "certify", fx("collapse_tower.ssx"))
    assert code == 1
    assert "cartesian    refuted" in out
    assert "no good lift of edge" in out

    # truncated source clips the requested range: inconclusive
    z2 = cyclic_group_category(2)
    from sslift.cat import nerve

    x = nerve(z2).sset
    save_path(
        tmp_path / "t.ssx",
        constant_map(x, standard_simplex(0), SimplexRef(0, (), "0")),
    )
    code, out = run(capsys, "certify", tmp_path / "t.ssx", "--cap", "9")
    assert code == 2
    assert "inconclusive" in out and "truncated" in out


def test_cap_clipped_below_two_is_inconclusive(capsys, tmp_path):
    # the requested cap is valid; truncation clips it to 1, which checks
    # no horn, so the answer is inconclusive rather than an input error
    from sslift.cat import nerve

    x = nerve(cyclic_group_category(2), cap=1).sset
    save_path(
        tmp_path / "t.ssx",
        constant_map(x, standard_simplex(0), SimplexRef(0, (), "0")),
    )
    code, out = run(capsys, "certify", tmp_path / "t.ssx", "--cap", "9")
    assert code == 2
    assert out.count("inconclusive") == 3 and "truncated at degree 1" in out
    code, out = run(capsys, "theorem-b", fx("cover_functor.cat"), "--cap", "1")
    assert code == 2 and out.startswith("status: inconclusive")


def test_fibers_over_a_simplex(capsys):
    code, out = run(capsys, "--json", "fibers", fx("double_cover.ssx"), "--simplex", "a<x")
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"] == [4, 2]
    assert doc["homology"][0] == {"betti": 2, "degree": 0, "torsion": []}


def test_fibers_whole_map(capsys):
    code, out = run(capsys, "fibers", fx("cylinder_proj.ssx"))
    assert code == 0
    assert "certified" in out
    code, out = run(capsys, "fibers", fx("boundary_collapse.ssx"))
    assert code == 1
    assert "refuted at" in out and "last vertex leg" in out


def test_transport_cli(capsys):
    code, out = run(capsys, "--json", "transport", fx("double_cover.ssx"), "--edge", "a<x")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrices"][0] == [[1, 0], [0, 1]]
    assert doc["iso"] is True
    code, out = run(capsys, "transport", fx("boundary_collapse.ssx"), "--edge", "0.1")
    assert code == 1
    assert "leg invertible: False" in out


def test_theorem_b_cli(capsys):
    code, out = run(capsys, "theorem-b", fx("cover_functor.cat"))
    assert code == 0
    assert "status: verified" in out
    code, out = run(capsys, "theorem-b", fx("point_a.cat"))
    assert code == 1
    assert "hypothesis-failed" in out and "failing edge" in out


def test_ltg_check_cli(capsys):
    code, out = run(
        capsys, "ltg-check", "--cospan", fx("interval_vertex.ssx"), fx("cylinder_proj.ssx")
    )
    assert code == 0
    assert "status: certified" in out
    # cospan whose legs do not share a target
    code, _ = run(
        capsys, "ltg-check", "--cospan", fx("edge_into_circle.ssx"), fx("cylinder_proj.ssx")
    )
    assert code == 3


def test_nerve_feeds_homology(capsys, tmp_path):
    save_path(tmp_path / "z2.cat", cyclic_group_category(2))
    code, out = run(capsys, "--json", "nerve", tmp_path / "z2.cat")
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated_at"] == 4
    (tmp_path / "z2_nerve.ssx").write_text(out)

    code, out = run(capsys, "homology", tmp_path / "z2_nerve.ssx")
    assert code == 2
    assert "H_1 = Z/2" in out and "truncated at degree 4" in out
    code, out = run(capsys, "--json", "homology", tmp_path / "z2_nerve.ssx")
    assert code == 2
    assert "euler_characteristic" not in json.loads(out)

    code, out = run(capsys, "--json", "homology", fx("circle.ssx"))
    assert code == 0
    assert json.loads(out)["euler_characteristic"] == 0


def test_json_output_is_byte_stable(capsys):
    jobs = (
        ("--json", "certify", fx("double_cover.ssx")),
        ("--json", "theorem-b", fx("cover_functor.cat")),
        ("--json", "ltg-check", "--cospan", fx("interval_vertex.ssx"), fx("cylinder_proj.ssx")),
    )
    for argv in jobs:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


def test_committed_fixtures_regenerate_byte_identically(tmp_path):
    names = write_fixtures(str(tmp_path))
    committed = sorted(p.name for p in FIXTURES.iterdir())
    assert sorted(names) == committed
    for name in names:
        assert (tmp_path / name).read_bytes() == fx(name).read_bytes(), name


def test_input_problems_exit_3(capsys, tmp_path):
    assert run(capsys, "certify", tmp_path / "missing.ssx")[0] == 3
    assert run(capsys, "certify", fx("pseudo_circle.cat"))[0] == 3
    assert run(capsys, "transport", fx("double_cover.ssx"), "--edge", "zzz")[0] == 3
    bad = tmp_path / "bad.ssx"
    bad.write_text("{not json")
    assert run(capsys, "homology", bad)[0] == 3


def assert_one_line_input_error(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("fibers", fx("double_cover.ssx"), "--simplex", '["a,b","x"]'),
        ("--json", "nerve", fx("pseudo_circle.cat"), "--cap", "-3"),
        # a horn cap below 2 checks no problem, so it is rejected
        ("certify", fx("collapse_tower.ssx"), "--cap", "1"),
        ("--json", "certify", fx("collapse_tower.ssx"), "--cap", "-5"),
        ("ltg-check", "--cospan", fx("interval_vertex.ssx"), fx("cylinder_proj.ssx"), "--cap", "1"),
        ("--json", "ltg-check", "--cospan", fx("interval_vertex.ssx"), fx("cylinder_proj.ssx"),
         "--cap", "-5"),
    ],
)
def test_bad_word_or_cap_is_a_one_line_input_error(capsys, argv):
    assert_one_line_input_error(capsys, argv)


# bytes that json.load itself cannot turn into a document
UNREADABLE = {
    "not_utf8": b'\xff\xfe{"kind": "sset"}',
    "deep": b"[" * 200_000,
    "long_int": b'{"kind": "sset", "truncated_at": 1' + b"0" * 5000 + b"}",
}
BAD = object()  # where the unreadable document goes in the command line


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", BAD),
        ("fibers", BAD),
        ("transport", BAD, "--edge", "a<x"),
        ("theorem-b", BAD),
        ("ltg-check", "--cospan", BAD, fx("cylinder_proj.ssx")),
        ("ltg-check", "--cospan", fx("interval_vertex.ssx"), BAD),
        ("homology", BAD),
        ("nerve", BAD),
    ],
    ids=["certify", "fibers", "transport", "theorem-b", "ltg-f", "ltg-p", "homology", "nerve"],
)
def test_unreadable_documents_are_a_one_line_input_error(capsys, tmp_path, name, argv):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE[name])
    err = assert_one_line_input_error(capsys, [path if a is BAD else a for a in argv])
    assert f"{path}: $: not " in err


@pytest.mark.parametrize("text", ["[" * 200_000, "1" + "0" * 5000], ids=["deep", "long_int"])
@pytest.mark.parametrize("command, flag", [("transport", "--edge"), ("fibers", "--simplex")])
def test_unreadable_refs_are_bare_cell_ids(capsys, text, command, flag):
    err = assert_one_line_input_error(capsys, (command, fx("double_cover.ssx"), flag, text))
    assert err.startswith("error: no cell named ")


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "name, command, path",
    [("circle.ssx", "homology", "$"), ("double_cover.ssx", "certify", "$.source")],
)
def test_a_boolean_truncation_is_a_one_line_input_error(
    capsys, tmp_path, flag, name, command, path
):
    # bool is a subclass of int, yet true is no degree
    doc = json.loads(fx(name).read_text())
    sset_doc = doc if path == "$" else doc["source"]
    sset_doc["truncated_at"] = flag
    bad = tmp_path / name
    bad.write_text(json.dumps(doc))
    err = assert_one_line_input_error(capsys, ("--json", command, bad))
    assert f"{path}.truncated_at: expected a nonnegative integer" in err


def test_a_non_decreasing_word_is_named_in_the_input_error(capsys):
    err = assert_one_line_input_error(
        capsys, ("fibers", fx("double_cover.ssx"), "--simplex", '["0,1","a"]')
    )
    assert "degeneracy word '0,1' is not strictly decreasing" in err


def test_a_negative_word_index_is_named_in_the_input_error(capsys):
    err = assert_one_line_input_error(
        capsys, ("fibers", fx("double_cover.ssx"), "--simplex", '["-1","a"]')
    )
    assert "degeneracy word '-1' has a negative index" in err


def _interval_doc():
    return {
        "kind": "sset",
        "simplicial": True,
        "cells": {
            "0": [{"id": "a"}, {"id": "b"}],
            "1": [{"id": "e", "faces": [["", "b"], ["", "a"]]}],
        },
    }


def _cover_with_layer(key):
    doc = json.loads(fx("double_cover.ssx").read_text())
    doc["assignment"][key] = dict(doc["assignment"]["0"])
    return doc


@pytest.mark.parametrize(
    "doc, command, path",
    [
        # a second spelling of degree 1 would replace its edge: H_0 = Z + Z
        ({**_interval_doc(), "cells": {**_interval_doc()["cells"], "01": []}},
         "homology", "$.cells.01"),
        # a second spelling of degree 0 would replace the vertex assignment
        (_cover_with_layer("00"), "certify", "$.assignment.00"),
        # a non-ASCII digit passes str.isdigit, yet int() refuses it
        ({**_interval_doc(), "cells": {"²": []}}, "homology", "$.cells.²"),
        (_cover_with_layer("²"), "certify", "$.assignment.²"),
        ({**_interval_doc(), "cells": {"+0": []}}, "homology", "$.cells.+0"),
    ],
    ids=["cells-01", "assignment-00", "cells-superscript", "assignment-superscript",
         "cells-plus"],
)
def test_a_degree_key_must_be_a_canonical_decimal(capsys, tmp_path, doc, command, path):
    bad = tmp_path / "bad.ssx"
    bad.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    err = assert_one_line_input_error(capsys, ("--json", command, bad))
    assert f"{path}: degree keys must be canonical decimal strings" in err


def test_a_nested_key_with_a_colon_is_named_whole(capsys, tmp_path):
    doc = json.loads(fx("cover_functor.cat").read_text())
    doc["source"]["identities"]["a: b"] = 5
    bad = tmp_path / "bad.cat"
    bad.write_text(json.dumps(doc))
    err = assert_one_line_input_error(capsys, ("theorem-b", bad))
    assert err == f"error: {bad}: $.source.identities.a: b: expected a morphism id string\n"


@pytest.mark.parametrize("text", ["1_0", "+1", " 0", "01", "+0", "-0", "0,+0"])
def test_a_word_index_must_be_a_canonical_decimal(capsys, tmp_path, text):
    # on the command line: "+0" would read as s_0 a
    err = assert_one_line_input_error(
        capsys, ("fibers", fx("double_cover.ssx"), "--simplex", json.dumps([text, "a"]))
    )
    assert f"malformed degeneracy word {text!r}" in err
    # in a document's face
    doc = _interval_doc()
    doc["cells"]["1"][0]["faces"][0][0] = text
    bad = tmp_path / "bad.ssx"
    bad.write_text(json.dumps(doc))
    err = assert_one_line_input_error(capsys, ("homology", bad))
    assert f"$.cells.1[0].faces[0]: bad degeneracy word: malformed degeneracy word {text!r}" in err


def test_misplaced_global_flag_is_a_usage_error(capsys):
    # a global flag after the subcommand is not recognized there
    assert_one_line_input_error(capsys, ("nerve", "whatever.cat", "--json"))


def _unit_law_category(reserved: bool) -> FiniteCategory:
    """One object with one extra endomorphism f.  With reserved, f is
    named "f|g" and the laws hold; without, id_a o f is id_a, breaking
    the left unit law."""
    f = "f|g" if reserved else "f"
    return FiniteCategory(
        ["a"],
        {"id_a": ("a", "a"), f: ("a", "a")},
        {"a": "id_a"},
        {
            compose_key(f, f): "id_a",
            compose_key("id_a", f): f if reserved else "id_a",
            compose_key(f, "id_a"): f,
            compose_key("id_a", "id_a"): "id_a",
        },
    )


def _invalid_documents():
    """One document of each kind that parses but fails validate()."""
    arrow = SimplicialSet({0: [("a", []), ("b", [])],
                           1: [("e", [SimplexRef(0, (), "b"), SimplexRef(0, (), "a")])]})
    # both ends go to vertex 0, yet the edge goes to the edge 0 -> 1
    zero = SimplexRef(0, (), "0")
    squashed = SMap(
        arrow, standard_simplex(1), {0: {"a": zero, "b": zero}, 1: {"e": SimplexRef(1, (), "0.1")}}
    )
    # g1 o g1 = g0 in Z/2 but g1 o g1 = g2 in Z/3
    doubling = Functor(cyclic_group_category(2), cyclic_group_category(3),
                       {"*": "*"}, {"g0": "g0", "g1": "g1"})
    return [
        ("triangle.ssx", mismatched_triangle(), "homology", "simplicial identity"),
        ("squashed.ssx", squashed, "certify", "does not commute"),
        ("reserved.cat", _unit_law_category(True), "nerve", "reserved character"),
        ("unit.cat", _unit_law_category(False), "nerve", "left unit"),
        ("doubling.cat", doubling, "theorem-b", "composition fails"),
    ]


@pytest.mark.parametrize(
    "name, obj, command, message",
    _invalid_documents(),
    ids=[doc[0] for doc in _invalid_documents()],
)
def test_parseable_invalid_documents_exit_3(capsys, tmp_path, name, obj, command, message):
    # constructors do not validate, so formats is what refuses these
    save_path(tmp_path / name, obj)
    err = assert_one_line_input_error(capsys, (command, tmp_path / name))
    assert message in err


def test_internal_fault_exits_4_with_one_line(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("deliberate fault")

    monkeypatch.setattr(sslift.cli, "homology", broken)
    code = main(["homology", str(fx("circle.ssx"))])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4 and captured.out == ""
    assert captured.err == "internal error: RuntimeError: deliberate fault\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate", fx("circle.ssx")),
        ("nerve",),
        ("--json",),
        ("nerve", fx("point_a.cat"), "--cap", "abc"),
        # fibers has no cap: a horn cap has no bearing on fiber homology
        ("fibers", fx("double_cover.ssx"), "--cap", "1"),
    ],
)
def test_usage_errors_exit_3_with_one_line(capsys, argv):
    assert_one_line_input_error(capsys, argv)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fibers", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: sslift fibers") and "--cap" not in out


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch, src_env):
    # main reuses one parser for the whole process; a run of calls with
    # different subcommands, flags and failures must still answer each
    # exactly as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")
    env = {**src_env, "COLUMNS": "80"}
    calls = [
        ("--json", "certify", fx("double_cover.ssx")),
        ("certify", fx("collapse_tower.ssx"), "--cap", "3"),
        ("nerve", fx("point_a.cat"), "--cap", "abc"),
        ("--json", "fibers", fx("double_cover.ssx"), "--simplex", "a<x"),
        ("fibers", fx("boundary_collapse.ssx")),
        ("fibers", fx("double_cover.ssx"), "--cap", "1"),
        ("transport", fx("double_cover.ssx"), "--edge", "a<x", "--backward"),
        ("--json", "transport", fx("double_cover.ssx"), "--edge", "a<x"),
        ("transport", fx("double_cover.ssx")),
        ("homology", fx("circle.ssx")),
        ("--json", "homology", fx("circle.ssx")),
        ("nerve", fx("pseudo_circle.cat"), "--json"),
        ("--json", "nerve", fx("pseudo_circle.cat")),
        ("theorem-b", fx("point_a.cat")),
        ("ltg-check", "--cospan", fx("interval_vertex.ssx"), fx("cylinder_proj.ssx")),
        ("ltg-check", "--cospan", fx("interval_vertex.ssx")),
        ("certify", fx("missing.ssx")),
        ("frobnicate",),
        ("homology", "--help"),
        ("--json", "certify", fx("double_cover.ssx")),
    ]
    for argv in calls:
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "sslift.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr
        ), argv


@pytest.mark.parametrize(
    "argv, code",
    [
        # more output than a pipe buffer holds: the write itself fails
        (("--json", "nerve", "{z5}", "--cap", "4"), 0),
        # a short report fails only when stdout is flushed
        (("--json", "certify", fx("boundary_collapse.ssx")), 1),
        (("certify", fx("collapse_tower.ssx")), 1),
        (("--json", "certify", fx("double_cover.ssx")), 0),
    ],
)
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(tmp_path, src_env, argv, code):
    z5 = tmp_path / "z5.cat"
    save_path(str(z5), cyclic_group_category(5))
    args = [str(a).replace("{z5}", str(z5)) for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sslift.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == code
