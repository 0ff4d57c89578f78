"""Correctness checks on answers, independent of how they were computed.

``Oracles(docs).check(question, code, out)`` returns None when the
answer is right and a one-line cause otherwise; ``docs`` resolves the
question's ``@doc:``/``@fix:`` placeholders to paths.  The checks use
sslift only to load documents and, where the answer is a report about a
functor, to recompute the facts it must agree with along a different
path: brute-force Grothendieck (op)fibration tests, slice-category
nerves, chain counts and known homology groups.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _groups(payload_groups) -> list:
    return _trim([g["betti"], g["torsion"]] for g in payload_groups)


def _trim(groups) -> list:
    """Groups as [betti, torsion] pairs without trailing zero groups."""
    out = [list(g) for g in groups]
    while out and out[-1] == [0, []]:
        out.pop()
    return out


def chain_counts(cat, cap: int | None) -> tuple[list[int], int | None]:
    """Nerve cell counts by brute force: degree-k cells are chains of k
    composable non-identity arrows.  Returns (counts, truncated_at)."""
    arrows = [(s, t) for m, (s, t) in cat.morphisms.items() if not cat.is_identity(m)]
    ending = {o: 1 for o in cat.objects}
    counts = [len(cat.objects)]
    # a chain longer than the object count repeats an object: a cycle
    limit = len(cat.objects) if cap is None else max(cap, len(cat.objects))
    for _ in range(limit):
        grown = {o: 0 for o in cat.objects}
        for s, t in arrows:
            grown[t] += ending[s]
        ending = grown
        counts.append(sum(grown.values()))
    cyclic = counts[len(cat.objects)] > 0
    if cyclic:
        if cap is None:
            raise ValueError("uncapped question on a category with cycles")
        return counts[: cap + 1], cap
    longest = max(k for k, c in enumerate(counts) if c)
    eff = longest if cap is None else min(cap, longest)
    return counts[: eff + 1], (None if eff == longest else eff)


def _det(rows) -> Fraction:
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def _expected_code(statuses) -> int:
    if "refuted" in statuses:
        return 1
    if "inconclusive" in statuses:
        return 2
    return 0


class Oracles:
    def __init__(self, docs):
        from sslift import formats

        self.docs = docs
        self.load = formats.load_path
        self._cache: dict[str, object] = {}

    def _obj(self, ref: str):
        if ref not in self._cache:
            self._cache[ref] = self.load(self.docs(ref))
        return self._cache[ref]

    def check(self, q: dict, code, out: str) -> str | None:
        if q["code"] is not None and code != q["code"]:
            return f"exit code {code}, expected {q['code']}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        c = q["check"]
        return getattr(self, "_" + c["type"])(c, code, payload)

    # -- nerves ---------------------------------------------------------------

    def _nerve(self, c, code, payload):
        from sslift.formats import parse_document

        parse_document(payload)
        cat = self._obj(c["cat"])
        counts, trunc = chain_counts(cat, c["cap"])
        got = [len(payload["cells"].get(str(k), [])) for k in range(len(payload["cells"]))]
        if got != counts:
            return f"nerve cell counts {got}, brute force gives {counts}"
        if payload.get("truncated_at") != trunc:
            return f"truncated_at {payload.get('truncated_at')}, expected {trunc}"
        return None

    def _homology(self, c, code, payload):
        groups = _groups(payload["homology"])
        if c.get("groups") is not None and groups != _trim(c["groups"]):
            return f"homology {groups}, known groups {_trim(c['groups'])}"
        if c.get("euler"):
            chi = payload.get("euler_characteristic")
            by_cells = sum((-1) ** k * n for k, n in enumerate(payload["cells"]))
            by_ranks = sum((-1) ** k * g[0] for k, g in enumerate(groups))
            if not chi == by_cells == by_ranks:
                return f"euler characteristic {chi}, cells give {by_cells}, ranks {by_ranks}"
        if c.get("cat") is not None:
            counts, _ = chain_counts(self._obj(c["cat"]), None)
            if payload["cells"] != counts:
                return f"cells {payload['cells']}, poset chains give {counts}"
        return None

    # -- comma ----------------------------------------------------------------

    def _theorem_b(self, c, code, payload):
        from sslift.cat import nerve, slice_category
        from sslift.homology import homology

        status = payload["status"]
        want = {"verified": 0, "inconclusive": 2}.get(status, 1)
        if code != want:
            return f"exit code {code} for status {status}"
        if c["status"] is not None and status != c["status"]:
            return f"status {status}, expected {c['status']}"
        fib = payload["fibration"]
        for kind in ("inner", "cocartesian"):
            if fib[kind]["status"] != "certified":
                return f"comma projection {kind} {fib[kind]['status']}: it is an opfibration"
        f = self._obj(c["functor"])
        slices = {}
        for d in f.target.objects:
            prof = homology(nerve(slice_category(f, d)[0]).sset)
            slices[d] = _trim([[b, list(t)] for b, t in prof.invariants()])
            got = _groups(payload["vertex_fibers"][d])
            if got != slices[d]:
                return f"fiber over {d} has {got}, slice nerve gives {slices[d]}"
        for m, (s, t) in f.target.morphisms.items():
            if slices[s] != slices[t] and payload["hypothesis_holds"]:
                return f"hypothesis holds, but slices over {s} and {t} differ"
        if status == "verified":
            if not all(payload["slice_agreement"].values()):
                return "verified with a slice disagreement"
            chi = payload["chi"]
            if chi is not None and chi["total"] != chi["fiber"] * chi["base"]:
                return "verified with chi not multiplicative"
        return None

    def _transport(self, c, code, payload):
        if not (payload["leg_invertible"] and payload["iso"]):
            return "transport along a fibration edge is not an isomorphism"
        for k, m in enumerate(payload["matrices"]):
            if len(m) != (len(m[0]) if m else 0) or (m and abs(_det(m)) != 1):
                return f"transport matrix in degree {k} is not unimodular: {m}"
        return None

    def _status(self, c, code, payload):
        if payload["status"] != c["status"]:
            return f"status {payload['status']}, expected {c['status']}"
        return None

    def _fiber(self, c, code, payload):
        groups = _groups(payload["homology"])
        if groups != _trim(c["groups"]):
            return f"fiber homology {groups}, expected {_trim(c['groups'])}"
        return None

    # -- lifts ----------------------------------------------------------------

    def _certify(self, c, code, payload):
        from sslift.cat import is_grothendieck_fibration, is_grothendieck_opfibration

        statuses = [payload[k]["status"] for k in ("inner", "cartesian", "cocartesian")]
        if code != _expected_code(statuses):
            return f"exit code {code} for statuses {statuses}"
        f = self._obj(c["functor"])
        want = {
            "inner": True,
            "cartesian": is_grothendieck_fibration(f)[0],
            "cocartesian": is_grothendieck_opfibration(f)[0],
        }
        for kind, ok in want.items():
            got = payload[kind]["status"]
            if got != ("certified" if ok else "refuted"):
                return f"{kind} {got}, but the functor {'is' if ok else 'is not'} one"
            if c["cap"] is not None and payload[kind]["requested_cap"] != c["cap"]:
                return f"{kind} requested cap {payload[kind]['requested_cap']}, asked {c['cap']}"
        return None

    def _lift(self, c, code, payload):
        # the lift itself is checked by check_lift on the objects
        if payload.get("kind") != "smap":
            return "lift answer is not a map document"
        return None


def check_lift(homotopy, lift) -> str | None:
    """A lift through an identity map must re-validate and equal the
    homotopy on every cell, which also means it covers the homotopy and
    keeps the start it was given."""
    lift.validate()
    for n, cell, _ in homotopy.source.cell_items():
        if lift.value(n, cell) != homotopy.value(n, cell):
            return f"lift through an identity differs from the homotopy on {cell!r}"
    return None
