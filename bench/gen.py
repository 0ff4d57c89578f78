"""Seeded inputs and questions for the sslift benchmark.

Run as a script, this module is one complete set-up: it imports sslift
from the checkout, builds the inputs of one workload from the seed,
writes their documents and a manifest (``questions.json``) into
``--out`` and exits.  ``run.py`` times the whole process, from start to
exit, as the benchmark's set-up time.

A workload has a core of questions asked in every round and a pool of
seeded random inputs, a few questions each.  A round asks the core and
the next ``PER_ROUND`` pool entries, so every round has the same mix
while a run walks through many distinct random inputs.  Averaging over
many random inputs is what keeps one seed's figures close to another's;
a pool the size of one round would let one seed draw a few large inputs
and another none.

A question names its inputs by placeholder: ``@doc:NAME`` is a document
written here, ``@fix:NAME`` a committed fixture under ``fixtures/``.
Each question carries the check that ``oracles.py`` applies to its
answer and, where it is known beforehand, the exit code it must return.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("nerves", "comma", "lifts")

# Pool entries per seed and per round.  A pool lasts about as many rounds
# as a 25-second run asks; a longer run starts over on the same entries.
POOL = {"nerves": 280, "comma": 160, "lifts": 140}
PER_ROUND = {"nerves": 16, "comma": 10, "lifts": 8}

# Largest random inputs, in cells of the nerve a question works on;
# larger draws are replaced by the next one.  A few far larger inputs
# (a 351-cell comma nerve takes 8 s) would decide a run's figures by
# themselves; the large end is measured by the core and the wall ladder.
POSET_MAX_CELLS = 128
COMMA_MAX_CELLS = 40

# Z/n nerves at truncation caps 3-6.  Larger (n, cap) pairs take seconds
# each and sit on the wall ladder instead.
CYCLIC_CAPS = ((2, (3, 4, 5, 6)), (3, (3, 4, 5, 6)), (4, (3, 4)), (5, (3,)))
SPHERES = (1, 2, 3, 4, 5)  # boundaries of the standard (k+1)-simplices


def import_sslift() -> None:
    """Put the checkout's sources first on the path, or stop."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sslift", "__init__.py")):
        sys.exit("bench: no sslift sources under src/ of this checkout")
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        sys.exit("bench: no fixtures/ directory in this checkout")
    sys.path.insert(0, src)


class Writer:
    """Writes documents under one directory and collects the questions:
    into the core until the first ``random_input()``, then into one pool
    entry per random input."""

    def __init__(self, out: str):
        from sslift.formats import save_path

        self.out = out
        self.save = save_path
        self.core: list[dict] = []
        self.pool: list[list[dict]] = []
        self._into = self.core

    def doc(self, name: str, obj) -> str:
        self.save(os.path.join(self.out, name), obj)
        return f"@doc:{name}"

    def random_input(self) -> int:
        self._into = []
        self.pool.append(self._into)
        return len(self.pool) - 1

    def ask(self, label: str, argv: list, code: int | None, check: dict, kind: str = "cli"):
        self._into.append(
            {"label": label, "kind": kind, "argv": [str(a) for a in argv],
             "code": code, "check": check}
        )


def _random_functor(rng: random.Random, c_sizes, d_sizes):
    from sslift.corpus import random_poset, random_poset_functor

    while True:
        c = random_poset(rng, rng.randint(*c_sizes))
        d = random_poset(rng, rng.randint(*d_sizes))
        try:
            return random_poset_functor(rng, c, d)
        except ValueError:
            continue


def cyclic_groups(n: int, cap: int) -> list:
    """Known homology of the nerve of Z/n below a truncation cap:
    Z in degree 0, Z/n in odd degrees, 0 in positive even degrees."""
    out = [[1, []]]
    for k in range(1, cap):
        out.append([0, [n] if k % 2 else []])
    return out


def nerves(w: Writer, rng: random.Random) -> None:
    from sslift.cat import Nerve, cyclic_group_category
    from sslift.corpus import random_poset
    from sslift.sset import boundary

    for n, caps in CYCLIC_CAPS:
        cat = w.doc(f"z{n}.cat", cyclic_group_category(n))
        for cap in caps:
            w.ask(f"nerve Z/{n} cap {cap}", ["nerve", cat, "--cap", cap], 0,
                  {"type": "nerve", "cat": cat, "cap": cap})
            x = w.doc(f"z{n}_cap{cap}.ssx", Nerve(cyclic_group_category(n), cap).sset)
            w.ask(f"homology Z/{n} cap {cap}", ["homology", x], 2,
                  {"type": "homology", "groups": cyclic_groups(n, cap)})
    for k in SPHERES:
        x = w.doc(f"sphere{k}.ssx", boundary(k + 1))
        groups = [[1, []]] + [[1 if j == k else 0, []] for j in range(1, k + 1)]
        w.ask(f"homology sphere {k}", ["homology", x], 0,
              {"type": "homology", "groups": groups, "euler": True})
    w.ask("homology circle fixture", ["homology", "@fix:circle.ssx"], 0,
          {"type": "homology", "groups": [[1, []], [1, []]], "euler": True})
    w.ask("nerve pseudo-circle fixture", ["nerve", "@fix:pseudo_circle.cat"], 0,
          {"type": "nerve", "cat": "@fix:pseudo_circle.cat", "cap": None})

    for _ in range(POOL["nerves"]):
        i = w.random_input()
        while True:
            c = random_poset(rng, rng.randint(5, 8))
            x = Nerve(c).sset
            if x.total_cells() <= POSET_MAX_CELLS:
                break
        cat = w.doc(f"poset{i}.cat", c)
        w.ask(f"nerve poset {i}", ["nerve", cat], 0, {"type": "nerve", "cat": cat, "cap": None})
        x = w.doc(f"poset{i}.ssx", x)
        w.ask(f"homology poset {i}", ["homology", x], 0,
              {"type": "homology", "groups": None, "euler": True, "cat": cat})


def comma(w: Writer, rng: random.Random) -> None:
    from sslift.cat import Nerve, chain_poset, comma_category, identity_functor
    from sslift.corpus import pseudo_circle

    w.ask("theorem-b cover fixture", ["theorem-b", "@fix:cover_functor.cat"], 0,
          {"type": "theorem_b", "functor": "@fix:cover_functor.cat", "status": "verified"})
    w.ask("theorem-b collapse fixture", ["theorem-b", "@fix:collapse_functor.cat"], 1,
          {"type": "theorem_b", "functor": "@fix:collapse_functor.cat",
           "status": "hypothesis-failed"})
    for name, cat in (("chain2", chain_poset(2)), ("pseudo_circle", pseudo_circle())):
        f = w.doc(f"id_{name}.cat", identity_functor(cat))
        w.ask(f"theorem-b identity {name}", ["theorem-b", f], 0,
              {"type": "theorem_b", "functor": f, "status": "verified"})
    for edge in ("a<x", "a<y", "b<x", "b<y"):
        for back in ((), ("--backward",)):
            w.ask(f"transport double cover {edge} {' '.join(back)}".strip(),
                  ["transport", "@fix:double_cover.ssx", "--edge", edge, *back], 0,
                  {"type": "transport"})
    for back in ((), ("--backward",)):
        w.ask(f"transport cylinder {' '.join(back)}".strip(),
              ["transport", "@fix:cylinder_proj.ssx", "--edge", "0.1", *back], 0,
              {"type": "transport"})
    for name, code in (("double_cover", 0), ("cylinder_proj", 0), ("collapse_tower", 1),
                       ("boundary_collapse", 1), ("edge_into_circle", 1)):
        status = "certified" if code == 0 else "refuted"
        w.ask(f"fibers {name}", ["fibers", f"@fix:{name}.ssx"], code,
              {"type": "status", "status": status})
    for simplex, groups in (("a<x", [[2, []]]), ("b<y", [[2, []]]), ("x", [[2, []]])):
        w.ask(f"fibers double cover over {simplex}",
              ["fibers", "@fix:double_cover.ssx", "--simplex", simplex], 0,
              {"type": "fiber", "groups": groups})

    for _ in range(POOL["comma"]):
        i = w.random_input()
        while True:
            f = _random_functor(rng, (3, 5), (2, 4))
            if Nerve(comma_category(f)[0]).sset.total_cells() <= COMMA_MAX_CELLS:
                break
        doc = w.doc(f"functor{i}.cat", f)
        w.ask(f"theorem-b functor {i}", ["theorem-b", doc], None,
              {"type": "theorem_b", "functor": doc, "status": None})


def lifts(w: Writer, rng: random.Random) -> None:
    from sslift.cat import chain_poset, comma_category, identity_functor, nerve, nerve_functor
    from sslift.corpus import pseudo_circle
    from sslift.sset import standard_simplex

    for name, functor in (("double_cover", "cover_functor"), ("collapse_tower", "collapse_functor")):
        w.ask(f"certify {name} fixture", ["certify", f"@fix:{name}.ssx"], None,
              {"type": "certify", "functor": f"@fix:{functor}.cat", "cap": None})
    _, _, to_d = comma_category(identity_functor(chain_poset(3)))
    proj = w.doc("comma_chain3.ssx", nerve_functor(to_d)[0])
    proj_functor = w.doc("comma_chain3.cat", to_d)
    w.ask("certify comma projection chain[3]", ["certify", proj], None,
          {"type": "certify", "functor": proj_functor, "cap": None})
    for f, p, code, status in (
        ("interval_vertex", "cylinder_proj", 0, "certified"),
        ("edge_into_circle", "double_cover", 0, "certified"),
        ("interval_vertex", "boundary_collapse", 1, "refuted"),
    ):
        w.ask(f"ltg-check {f} {p}", ["ltg-check", "--cospan", f"@fix:{f}.ssx", f"@fix:{p}.ssx"],
              code, {"type": "status", "status": status})
    for n in (2, 3, 4):
        x = w.doc(f"simplex{n}.ssx", standard_simplex(n))
        w.ask(f"lift last-vertex contraction of simplex {n}", ["contraction", x], None,
              {"type": "lift"}, kind="lift")
    for name, cat in (("pseudo_circle", pseudo_circle()), ("chain2", chain_poset(2)),
                      ("chain3", chain_poset(3))):
        x = w.doc(f"nerve_{name}.ssx", nerve(cat).sset)
        w.ask(f"lift cylinder projection of nerve {name}", ["projection", x], None,
              {"type": "lift"}, kind="lift")

    for _ in range(POOL["lifts"]):
        i = w.random_input()
        f = _random_functor(rng, (2, 5), (2, 4))
        fdoc = w.doc(f"functor{i}.cat", f)
        mdoc = w.doc(f"functor{i}.ssx", nerve_functor(f)[0])
        for cap in (2, 3, 4):
            w.ask(f"certify functor {i} cap {cap}", ["certify", mdoc, "--cap", cap], None,
                  {"type": "certify", "functor": fdoc, "cap": cap})


BUILDERS = {"nerves": nerves, "comma": comma, "lifts": lifts}


def generate(workload: str, seed: int, out: str) -> None:
    """Write the workload's documents into out, and its manifest: core
    questions, pool entries and entries per round."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
    w = Writer(out)
    BUILDERS[workload](w, rng)
    for i, q in enumerate(w.core):
        q["id"] = f"core{i:02d}"
    for i, entry in enumerate(w.pool):
        for j, q in enumerate(entry):
            q["id"] = f"pool{i:03d}.{j}"
    manifest = {"seed": seed, "workload": workload, "core": w.core, "pool": w.pool,
                "per_round": PER_ROUND[workload]}
    with open(os.path.join(out, "questions.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write one workload's seeded inputs")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import_sslift()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
