"""Mutation harness: reference tests that must be able to fail.

Each entry of MUTATIONS names a file of the checkout, an exact old text,
the new text that replaces it, and the test ids expected to fail once it
does.  For each entry the harness copies the checkout to a temporary
directory, applies that one edit there and runs the named tests on the
copy.  The mutation is "killed" when they fail and "survived" when they
pass.  An entry whose old text does not occur exactly once in its file
is refused and runs nothing.  The working tree is only read.

From the root of a checkout::

    python3 tools/mutate.py                 # every entry
    python3 tools/mutate.py within-prefix   # the named entries only

Standard library only.  The exit code is 0 when every entry run was
killed, 1 when one survived or was refused.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900
MEMORY_BYTES = 3 << 30  # a mutant may build far more than the code it replaces
SKIP = shutil.ignore_patterns(".git", ".bench_out", ".bench_build", "__pycache__", ".pytest_cache")


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


MUTATIONS = [
    # left horns: the direction dropped from the face and edge indexes
    Mutation(
        "face-index-direction",
        "src/sslift/lifting.py",
        "at = [_at(j, degree, left) for j in positions]",
        "at = list(positions)",
        ("tests/test_simplex_ids.py::test_left_indexes_mirror_the_opposite",),
    ),
    Mutation(
        "edge-index-direction",
        "src/sslift/lifting.py",
        "tables = [(_face_table(x, d), _at(0, d, left)) for d in range(degree, 1, -1)]",
        "tables = [(_face_table(x, d), 0) for d in range(degree, 1, -1)]",
        ("tests/test_simplex_ids.py::test_left_indexes_mirror_the_opposite",),
    ),
    # homology: a free degree's generators given order 1, not 0
    Mutation(
        "free-degree-orders",
        "src/sslift/homology.py",
        "groups.append(HomologyGroup(k, r, [], gens, [0] * r, unit, red))",
        "groups.append(HomologyGroup(k, r, [], gens, [1] * r, unit, red))",
        ("tests/test_homology_reduction.py::test_free_degrees_match_the_generic_loop",),
    ),
    # nerves: the inner-composite identity test run on acyclic categories only
    Mutation(
        "nerve-identity-test",
        "src/sslift/cat.py",
        "if cyclic and category.is_identity(comp):",
        "if not cyclic and category.is_identity(comp):",
        ("tests/test_nerve_reference.py",),
    ),
    # homology: the guard of a degree with no cells, as it was before
    Mutation(
        "coordinates-guard",
        "src/sslift/homology.py",
        "if not self.gens.rows:  # no cells in this degree",
        "if self._coordinates is None:",
        ("tests/test_homology.py::test_induced_map_into_a_truncated_target_with_no_cells_in_a_degree",),
    ),
    # the sset writer: degree keys in numeric order, not JSON's string order
    Mutation(
        "degree-key-order",
        "src/sslift/formats.py",
        "for n in sorted(x.degrees(), key=str):",
        "for n in sorted(x.degrees()):",
        ("tests/test_document_text.py::test_degree_keys_past_nine_sort_as_strings",),
    ),
    # the sset writer: truncated_at left out of the text
    Mutation(
        "writer-truncated-at",
        "src/sslift/formats.py",
        "text = canonical_json(_sset_doc(x, {}))",
        'text = canonical_json({k: v for k, v in _sset_doc(x, {}).items() if k != "truncated_at"})',
        ("tests/test_document_text.py",),
    ),
    # the readers: no range check on a degeneracy word
    Mutation(
        "word-range-check",
        "src/sslift/formats.py",
        "if word and word[0] > degree - 1:",
        "if False:",
        ("tests/test_reader_parity.py", "tests/test_formats.py::test_error_paths_name_the_field"),
    ),
    # the readers: a re-rooted error keeps its entry-relative path
    Mutation(
        "within-prefix",
        "src/sslift/formats.py",
        "return FormatError(prefix + self.path[1:], self.message)",
        "return FormatError(self.path, self.message)",
        ("tests/test_reader_parity.py::test_sset_paths_name_deep_faces",),
    ),
    # the readers: a bad face named by the index after its own
    Mutation(
        "face-index-in-path",
        "src/sslift/formats.py",
        'raise e.within(f"$.faces[{len(faces)}]") from None',
        'raise e.within(f"$.faces[{len(faces) + 1}]") from None',
        ("tests/test_reader_parity.py::test_sset_paths_name_deep_faces",),
    ),
    # the readers: a nested message cut at its first ": ", as it once was
    Mutation(
        "nested-message-split",
        "src/sslift/formats.py",
        'raise e.within(f"$.{field}") from None',
        'raise FormatError(f"$.{field}" + e.path[1:], str(e).split(": ", 1)[1]) from None',
        ("tests/test_reader_parity.py::test_nested_cat_paths_keep_keys_with_colons",),
    ),
    # categories: identities kept in the table of arrows out of each object
    Mutation(
        "arrow-table-identities",
        "src/sslift/cat.py",
        "if not self.is_identity(m):",
        "if m:",
        ("tests/test_nerve_reference.py", "tests/test_cat.py"),
    ),
    # homology of a truncated object: its top degree reported too
    Mutation(
        "truncated-top-degree",
        "src/sslift/homology.py",
        "profile = homology_of_reduction(red, top=max(x.truncated_at - 1, -1))",
        "profile = homology_of_reduction(red, top=x.truncated_at)",
        ("tests/test_truncation_consistency.py::test_homology_agrees_two_caps_up",),
    ),
]


class Refused(Exception):
    """An entry that cannot be applied: its old text is not found once."""


def mutated_text(text: str, m: Mutation) -> str:
    """text with m's one edit applied; Refused unless m.old occurs once."""
    count = text.count(m.old)
    if count != 1:
        raise Refused(f"{m.name}: old text occurs {count} times in {m.path}, not once")
    return text.replace(m.old, m.new)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(m: Mutation, root: str = ROOT) -> tuple[str, str]:
    """(outcome, detail): outcome is "killed", "survived" or "refused"."""
    with open(os.path.join(root, m.path), encoding="utf-8") as fh:
        try:
            text = mutated_text(fh.read(), m)
        except Refused as e:
            return "refused", str(e)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(root, copy, ignore=SKIP)
        with open(os.path.join(copy, m.path), "w", encoding="utf-8") as fh:
            fh.write(text)
        env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    output = proc.stdout + proc.stderr
    last = (output.strip().splitlines() or [""])[-1]
    if proc.returncode == 0:
        return "survived", last
    if proc.returncode == 5 or "not found:" in output:
        # the named tests did not run, so the entry itself needs mending
        return "refused", f"pytest exit {proc.returncode}: {last}"
    # the tests failed, or the mutant broke their collection or import
    return "killed", last


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTATIONS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"mutate: no entry named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    counts = {"killed": 0, "survived": 0, "refused": 0}
    for m in chosen:
        t0 = time.perf_counter()
        outcome, detail = run(m)
        counts[outcome] += 1
        print(f"{outcome:8} {m.name:24} {time.perf_counter() - t0:6.1f} s  {detail}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 0 if counts["survived"] == counts["refused"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
