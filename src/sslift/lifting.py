"""Horn lifting against a map, by exhaustive search.

A horn problem for p: X -> Y is an (n, i)-horn in X together with a
degree-n simplex of Y restricting to its image: faces x_j for j != i
satisfying the matching conditions d_j x_k = d_{k-1} x_j, and a base
simplex tau with d_j tau = p(x_j).  A solution is a degree-n simplex of
X with those faces lying over tau.  Candidates are ordered by
(word length, word, cell id), so "the first solution" and "the first
unsolvable problem" are well defined and reproducible.  Every problem
in range is enumerated, and each is solved by one lookup: a map tables
the degree-n simplices of its source by (faces at j != i, image) once,
in candidate order, and a problem's solutions are the entry under its
own faces and base.

The engine runs on integer ids, the positions in candidate order that
SimplicialSet.blocks defines, and keeps the faces of each object's
degree-n simplices as tuples of ids, computed from the cells' stored
faces and the simplicial identities without SimplicialSet.act.
SimplexRef appears only at the boundary: the public problem and
solution functions translate ids to refs and back, and certification
builds a HornProblem only for the witness it reports.

Certificates answer three questions up to a degree cap: are all inner
horns solvable, does every edge of the target admit a cartesian lift
with prescribed endpoint, and dually for cocartesian lifts (checked on
the opposite map).  For nerves of categories the inner range n <= 3 is
decisive, so nerve-tagged inputs default to cap 3 and are marked
conclusive there; otherwise a certificate only speaks for the checked
range.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .products import Product
from .sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    image_of_ref,
    kept,
    op_ref,
    opposite_map,
    simplex_in_standard,
    standard_simplex,
)


@dataclass(frozen=True)
class HornProblem:
    """An (n, i)-horn in the source with a prescribed base simplex."""

    n: int
    i: int
    faces: tuple[tuple[int, SimplexRef], ...]
    base: SimplexRef

    def face(self, j: int) -> SimplexRef:
        for k, r in self.faces:
            if k == j:
                return r
        raise SimplicialError(f"horn problem has no face {j}")

    def validate(self, p: SMap) -> None:
        """Independent consistency check against the map."""
        x, y = p.source, p.target
        if not 0 <= self.i <= self.n or self.n < 1:
            raise SimplicialError(f"bad horn shape ({self.n}, {self.i})")
        positions = [j for j, _ in self.faces]
        if positions != [j for j in range(self.n + 1) if j != self.i]:
            raise SimplicialError("horn problem faces must cover all j != i in order")
        for j, r in self.faces:
            x.resolve(r)
            if r.degree != self.n - 1:
                raise SimplicialError(f"face {j} has degree {r.degree}")
        y.resolve(self.base)
        if self.base.degree != self.n:
            raise SimplicialError("base degree mismatch")
        for a, (j, xj) in enumerate(self.faces):
            for k, xk in self.faces[a + 1 :]:
                if x.face(xk, j) != x.face(xj, k - 1):
                    raise SimplicialError(
                        f"faces {j} and {k} do not match: d_{j} x_{k} != d_{k-1} x_{j}"
                    )
        for j, xj in self.faces:
            if y.face(self.base, j) != p.apply(xj):
                raise SimplicialError(f"base face {j} does not lie under the horn")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "i": self.i,
            "faces": {str(j): r.to_json() for j, r in self.faces},
            "base": self.base.to_json(),
        }

    def __str__(self) -> str:
        inside = ", ".join(f"d{j}={r}" for j, r in self.faces)
        return f"horn({self.n},{self.i})[{inside}] over {self.base}"


def op_problem(problem: HornProblem) -> HornProblem:
    """The same problem stated for the opposite map."""
    n = problem.n
    faces = tuple(
        sorted(((n - j, op_ref(r)) for j, r in problem.faces), key=lambda t: t[0])
    )
    return HornProblem(n, n - problem.i, faces, op_ref(problem.base))


# -- lookup tables ------------------------------------------------------------
#
# An id is a position in candidate order (SimplicialSet.blocks).  Every
# table lists ids in that order, so a lookup yields exactly what a scan
# of refs(n) would keep, in the same order.  sset.kept builds each table
# on first use and keeps it on the object or map it describes.


def _degenerated(x: SimplicialSet, d: int, epi: tuple[int, ...], n: int) -> dict:
    """Word w of a degree-d block -> offset of the degree-n block that s_w c
    lands in when degenerated by epi: [n] -> [d]."""
    blocks = x.blocks(n)
    return {w: blocks[W.renormalize(w, d, epi)][0] for w in x.blocks(d)}


def _splitter(x: SimplicialSet, degree: int):
    """The function taking a ref of x of the given degree to (word, rank
    of its cell)."""
    ranks = [x.cell_ranks(d) for d in range(degree + 1)]
    return lambda r: (r.word, ranks[degree - len(r.word)][r.cell])


@kept
def _face_table(x: SimplicialSet, n: int) -> list[tuple[int, ...]]:
    """The ids of the faces d_0..d_n of every degree-n simplex of x, by id.

    Built from the cells' stored faces and the rule for d_i s_w.
    """
    if n == 0:
        return [()] * len(x.cell_ranks(0))
    below = x.blocks(n - 1)
    stored = {}
    rows = []
    for w, (_, ranks) in x.blocks(n).items():
        m = n - len(w)
        if m not in stored:
            split = _splitter(x, m - 1)
            stored[m] = [[split(f) for f in x.face_tuple(m, c)] for c in ranks]
        steps = []
        for i in range(n + 1):
            k, epi = W.face_rule(w, n, i)
            steps.append((k, below[epi][0] if k is None else _degenerated(x, m - 1, epi, n - 1)))
        for rank, faces in enumerate(stored[m]):
            rows.append(tuple([
                shift + rank if k is None else shift[faces[k][0]] + faces[k][1]
                for k, shift in steps
            ]))
    return rows


@kept
def _face_index(
    x: SimplicialSet, degree: int, positions: tuple[int, ...]
) -> dict[tuple[int, ...], list[int]]:
    """Degree-n ids of x keyed by their faces at the given positions."""
    index: dict[tuple[int, ...], list[int]] = {}
    for r, faces in enumerate(_face_table(x, degree)):
        index.setdefault(tuple([faces[j] for j in positions]), []).append(r)
    return index


@kept
def _last_edge_index(x: SimplicialSet, degree: int) -> dict[int, dict[int, None]]:
    """Degree-n ids of x keyed by their last edge, each group a dict used
    as an ordered set (iteration in candidate order, O(1) `in`)."""
    # the last edge {n-1, n} is what n-1 times d_0 leaves
    tables = [_face_table(x, d) for d in range(degree, 1, -1)]
    index: dict[int, dict[int, None]] = {}
    for r in range(len(_face_table(x, degree))):
        e = r
        for faces in tables:
            e = faces[e][0]
        index.setdefault(e, {})[r] = None
    return index


@kept
def _images(p: SMap, n: int) -> list[int]:
    """The id of p's image of every degree-n id of its source."""
    x, y = p.source, p.target
    values = {}
    out = []
    for w, (_, ranks) in x.blocks(n).items():
        m = n - len(w)
        if m not in values:
            split = _splitter(y, m)
            values[m] = [split(p.value(m, c)) for c in ranks]
        shift = _degenerated(y, m, W.word_to_map(w, n), n)
        out.extend(shift[vw] + vr for vw, vr in values[m])
    return out


@kept
def _solution_table(p: SMap, n: int, i: int) -> dict[tuple[int, ...], list[int]]:
    """Degree-n ids of the source keyed by (faces at j != i, image): each
    (n, i)-horn problem's key leads to its solutions."""
    images = _images(p, n)
    table: dict[tuple[int, ...], list[int]] = {}
    for r, faces in enumerate(_face_table(p.source, n)):
        table.setdefault(faces[:i] + faces[i + 1 :] + (images[r],), []).append(r)
    return table


_op_map = kept(opposite_map)


# -- single problems ----------------------------------------------------------


def iter_horn_solutions(p: SMap, problem: HornProblem):
    """The degree-n solutions of a horn problem, lazily, in candidate order."""
    n, i = problem.n, problem.i
    if [j for j, _ in problem.faces] != [j for j in range(n + 1) if j != i]:
        raise SimplicialError("horn problem faces must cover all j != i in order")
    # a ref that is no simplex of the right degree gets no id, and its key no entry
    key = tuple([p.source.simplex_id(n - 1, r) for _, r in problem.faces])
    key += (p.target.simplex_id(n, problem.base),)
    refs = p.source.refs(n)
    for r in _solution_table(p, n, i).get(key, ()):
        yield refs[r]


def horn_solutions(p: SMap, problem: HornProblem) -> list[SimplexRef]:
    """All degree-n solutions, in candidate order."""
    return list(iter_horn_solutions(p, problem))


def solve_horn_lift(p: SMap, problem: HornProblem) -> SimplexRef | None:
    """The first solution in candidate order, or None."""
    return next(iter_horn_solutions(p, problem), None)


def count_horn_lifts(p: SMap, problem: HornProblem) -> int:
    return sum(1 for _ in iter_horn_solutions(p, problem))


# -- problem enumeration ------------------------------------------------------


def _face_tuples(
    x: SimplicialSet, n: int, i: int, pool: dict[int, dict] | None
) -> list[tuple[int, ...]]:
    """All mutually compatible id face tuples for an (n, i)-horn, in order.

    pool may restrict the candidates at a position to an ordered set of
    ids (a dict in candidate order); tuples are produced lexicographically
    position by position in candidate order.
    """
    positions = [j for j in range(n + 1) if j != i]
    faces = _face_table(x, n - 1)
    tuples: list[tuple[int, ...]] = [()]
    for k, pos in enumerate(positions):
        allowed = pool.get(pos) if pool else None
        if k == 0:
            # nothing constrains the first position
            tuples = [(c,) for c in (range(len(faces)) if allowed is None else allowed)]
            continue
        # a face at the k-th position is looked up by its faces at the k
        # positions chosen before it; matching: d_j c = d_{pos-1} x_j
        index = _face_index(x, n - 1, tuple(positions[:k]))
        grown = []
        for chosen in tuples:
            fits = index.get(tuple([faces[xj][pos - 1] for xj in chosen]), ())
            grown.extend([chosen + (c,) for c in fits if allowed is None or c in allowed])
        tuples = grown
    return tuples


def _problems(p: SMap, n: int, i: int, pool: dict[int, dict] | None = None):
    """All (n, i)-horn problems against p as (face ids, base id), least first."""
    images = _images(p, n - 1)
    bases = _face_index(p.target, n, tuple(j for j in range(n + 1) if j != i))
    for faces in _face_tuples(p.source, n, i, pool):
        for base in bases.get(tuple(map(images.__getitem__, faces)), ()):
            yield faces, base


def _problem(p: SMap, n: int, i: int, faces: tuple[int, ...], base: int) -> HornProblem:
    """The HornProblem named by ids."""
    refs = p.source.refs(n - 1)
    positions = [j for j in range(n + 1) if j != i]
    return HornProblem(
        n, i, tuple((j, refs[c]) for j, c in zip(positions, faces)), p.target.refs(n)[base]
    )


def iter_horn_problems(p: SMap, n: int, i: int):
    """All (n, i)-horn problems against p, least first."""
    for faces, base in _problems(p, n, i):
        yield _problem(p, n, i, faces, base)


def _first_unsolved(
    p: SMap, n: int, i: int, pool: dict[int, dict] | None = None
) -> tuple[int, HornProblem | None]:
    """Solve every (n, i)-horn problem against p in order: the number
    checked, and the first one without a solution (None if all have one).
    Only that witness is built as a HornProblem."""
    table = None
    checked = 0
    for faces, base in _problems(p, n, i, pool):
        if table is None:
            table = _solution_table(p, n, i)
        checked += 1
        if faces + (base,) not in table:
            return checked, _problem(p, n, i, faces, base)
    return checked, None


# -- certificates -------------------------------------------------------------


@dataclass
class Certificate:
    """Outcome of a brute-force lifting certification.

    status is "certified" when every enumerated problem was solved,
    "refuted" with the least failing witness, or "inconclusive" when
    truncation clipped the requested range without a refutation.
    """

    kind: str
    status: str
    requested_cap: int
    effective_cap: int
    problems_checked: int
    witness: object = None
    conclusive: bool = False
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def covers(self, degree: int) -> bool:
        return self.certified and (self.conclusive or self.effective_cap >= degree)

    def to_json(self) -> dict:
        witness = self.witness
        if isinstance(witness, HornProblem):
            witness = {"kind": "horn", **witness.to_json()}
        elif isinstance(witness, tuple):
            edge, vertex = witness
            witness = {"kind": "lift", "edge": edge.to_json(), "vertex": vertex.to_json()}
        return {
            "kind": self.kind,
            "status": self.status,
            "requested_cap": self.requested_cap,
            "effective_cap": self.effective_cap,
            "problems_checked": self.problems_checked,
            "conclusive": self.conclusive,
            "witness": witness,
            "notes": list(self.notes),
        }


def _default_cap(p: SMap) -> int:
    if "nerve" in p.source.tags and "nerve" in p.target.tags:
        return 3
    return max(p.source.dimension, p.target.dimension, 0) + 2


def _effective_cap(p: SMap, requested: int) -> tuple[int, list[str]]:
    effective = requested
    notes = []
    for obj, name in ((p.source, "source"), (p.target, "target")):
        if obj.truncated_at is not None and obj.truncated_at < effective:
            effective = obj.truncated_at
            notes.append(
                f"{name} is truncated at degree {obj.truncated_at}; "
                f"horn degrees above it are not represented"
            )
    return effective, notes


def _nerve_conclusive(p: SMap, effective: int) -> bool:
    return (
        "nerve" in p.source.tags and "nerve" in p.target.tags and effective >= 3
    )


def _check_cap(cap: int) -> None:
    """Reject a requested horn cap below 2: it would check no problem and
    certify anything.  A cap that truncation clips below 2 is not an input
    error; it makes the certificate inconclusive."""
    if cap < 2:
        raise SimplicialError(f"horn degree cap must be at least 2, got {cap}")


def _check_edge_test(x: SimplicialSet, edge: SimplexRef, cap: int) -> None:
    """Reject an edge test on a ref that is no edge of x, or a cap below 2."""
    x.resolve(edge)
    if edge.degree != 1:
        raise SimplicialError("cartesian test wants an edge reference")
    _check_cap(cap)


def certify_inner_fibration(p: SMap, cap: int | None = None) -> Certificate:
    """Solve every inner horn problem with 2 <= n <= cap against p.

    Nerve-tagged inputs are conclusive once the cap reaches 3: nerve
    inner-horn problems in higher degrees are filled by composites that
    the degree <= 3 range already determines.
    """
    requested = cap if cap is not None else _default_cap(p)
    _check_cap(requested)
    effective, notes = _effective_cap(p, requested)
    conclusive = _nerve_conclusive(p, effective)
    checked = 0
    for n in range(2, effective + 1):
        for i in range(1, n):
            n_checked, witness = _first_unsolved(p, n, i)
            checked += n_checked
            if witness is not None:
                return Certificate(
                    "inner", "refuted", requested, effective, checked,
                    witness=witness, conclusive=True, notes=tuple(notes),
                )
    status = "certified"
    if effective < requested and not conclusive:
        status = "inconclusive"
        notes.append("requested range not exhausted; no refutation found")
    if conclusive and effective < requested:
        notes.append("cap clipped by truncation, but degree 3 decides nerve inputs")
    return Certificate(
        "inner", status, requested, effective, checked, conclusive=conclusive,
        notes=tuple(notes),
    )


def is_cartesian_edge(
    p: SMap, edge: SimplexRef, cap: int
) -> tuple[bool, HornProblem | None, int]:
    """Test the right-horn lifting property of an edge of the source.

    Checks every (n, n)-horn problem with 2 <= n <= cap whose final edge
    (the {n-1, n} edge of the would-be filler) is the given edge.
    Returns (verdict, least refuting problem or None, problems checked).
    """
    x = p.source
    _check_edge_test(x, edge, cap)
    e = x.simplex_id(1, edge)
    checked = 0
    for n in range(2, cap + 1):
        last = _last_edge_index(x, n - 1).get(e, {})
        n_checked, witness = _first_unsolved(p, n, n, dict.fromkeys(range(n - 1), last))
        checked += n_checked
        if witness is not None:
            return False, witness, checked
    return True, None, checked


def is_cocartesian_edge(
    p: SMap, edge: SimplexRef, cap: int
) -> tuple[bool, HornProblem | None, int]:
    """Left-horn dual of is_cartesian_edge, computed on the opposite map."""
    _check_edge_test(p.source, edge, cap)
    ok, witness, checked = is_cartesian_edge(_op_map(p), op_ref(edge), cap)
    return ok, (op_problem(witness) if witness is not None else None), checked


def _certify_edge_lifts(p: SMap, kind: str, inner: Certificate) -> Certificate:
    """Existence of cartesian lifts: for every edge of the target and every
    vertex over its endpoint, some edge over it with that endpoint passes
    the right-horn test."""
    x, y = p.source, p.target
    requested, effective = inner.requested_cap, inner.effective_cap
    vertex_images = _images(p, 0)
    # the edges over g ending at c fill the (1, 1)-horn c over g
    over = _solution_table(p, 1, 1)
    edges = x.refs(1)
    checked = 0
    for g, (target_vertex, _) in enumerate(_face_table(y, 1)):
        for c, image in enumerate(vertex_images):
            if image != target_vertex:
                continue
            found = False
            for f in over.get((c, g), ()):
                if effective < 2:
                    # truncation leaves no horn to test the lift against
                    found = True
                    break
                ok, _, n_checked = is_cartesian_edge(p, edges[f], effective)
                checked += n_checked
                if ok:
                    found = True
                    break
            if not found:
                return Certificate(
                    kind, "refuted", requested, effective, checked,
                    witness=(y.refs(1)[g], x.refs(0)[c]), conclusive=True,
                    notes=inner.notes,
                )
    return Certificate(
        kind, inner.status, requested, effective, checked,
        conclusive=inner.conclusive, notes=inner.notes,
    )


def certify_edge_lifts(p: SMap, kind: str, inner: Certificate) -> Certificate:
    """The "cartesian" or "cocartesian" certificate of p, given its inner one.

    Cartesian lifts are sought with prescribed target vertex; cocartesian
    lifts with prescribed source vertex, by running the cartesian search
    on the opposite map and translating witnesses back.  A refuted inner
    certificate refutes both, with its own witness.
    """
    if kind not in ("cartesian", "cocartesian"):
        raise ValueError(f"no edge-lift certificate of kind {kind!r}")
    if inner.status == "refuted":
        return Certificate(
            kind, "refuted", inner.requested_cap, inner.effective_cap, 0,
            witness=inner.witness, conclusive=True,
            notes=("the inner condition is already refuted; see its witness",),
        )
    if kind == "cartesian":
        return _certify_edge_lifts(p, kind, inner)
    cert = _certify_edge_lifts(_op_map(p), kind, inner)
    if cert.witness is not None:
        edge, vertex = cert.witness
        cert.witness = (op_ref(edge), vertex)
    return cert


@dataclass
class FibrationClassReport:
    inner: Certificate
    cartesian: Certificate
    cocartesian: Certificate

    def to_json(self) -> dict:
        return {
            "inner": self.inner.to_json(),
            "cartesian": self.cartesian.to_json(),
            "cocartesian": self.cocartesian.to_json(),
        }


def certify_fibration_class(p: SMap, cap: int | None = None) -> FibrationClassReport:
    """Certify or refute inner, cartesian, and cocartesian conditions."""
    inner = certify_inner_fibration(p, cap)
    return FibrationClassReport(
        inner,
        certify_edge_lifts(p, "cartesian", inner),
        certify_edge_lifts(p, "cocartesian", inner),
    )


# -- homotopy lifting ---------------------------------------------------------


class LiftObstruction(SimplicialError):
    """Raised when a homotopy lift cannot be constructed.

    status "inconclusive" means a hypothesis failed (an edge that the
    construction relies on is not cocartesian, or a horn went unsolved),
    so nothing is claimed either way about the lift's existence.
    """

    def __init__(self, status: str, message: str, problem: HornProblem | None = None):
        self.status = status
        self.problem = problem
        super().__init__(message)


EDGE_01 = SimplexRef(1, (), "0.1")
VERTEX_0 = SimplexRef(0, (), "0")
VERTEX_1 = SimplexRef(0, (), "1")


def cylinder(base: SimplicialSet) -> Product:
    """The product of a simplicial set with the standard 1-simplex."""
    return Product(base, standard_simplex(1))


def cylinder_region(prism: Product, j_sub: SimplicialSet | None = None) -> SimplicialSet:
    """The subobject of a cylinder where a lift starts out prescribed:
    everything at level 0, plus the whole cylinder over j_sub."""
    from .sset import subcomplex

    seeds = []
    for (n, cell_id), (lref, rref) in prism.components.items():
        at_zero = rref.cell_degree == 0 and rref.cell == "0"
        over_j = j_sub is not None and j_sub.has_cell(lref.cell_degree, lref.cell)
        if at_zero or over_j:
            seeds.append((n, cell_id))
    return subcomplex(prism.sset, seeds)


def start_map(
    prism: Product,
    x: SimplicialSet,
    f0: SMap,
    designated: dict[str, SimplexRef] | None = None,
) -> tuple[SMap, SimplicialSet | None]:
    """Start data for lift_homotopy.

    f0 maps the left factor of the prism into x and fills the level-0
    slice.  designated optionally pins the edge over a vertex of the
    left factor (vertex cell id -> edge of x whose initial vertex is
    the f0 image); those vertices form the returned j_sub.  No
    cocartesian-ness is checked here, that is lift_homotopy's job.
    """
    from .sset import subcomplex

    a = prism.left_object
    designated = designated or {}
    for v, e in designated.items():
        if not a.has_cell(0, v):
            raise SimplicialError(f"designated id {v!r} is not a vertex of the base")
        x.resolve(e)
        if e.degree != 1 or x.face(e, 1) != f0.apply(SimplexRef(0, (), v)):
            raise SimplicialError(f"designated edge over {v!r} does not start at f0({v})")
    j_sub = (
        subcomplex(a, [(0, v) for v in designated]) if designated else None
    )
    region = cylinder_region(prism, j_sub)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for n in region.degrees():
        for c in region.n_cells(n):
            lref, rref = prism.components[(n, c)]
            if rref.cell_degree == 0 and rref.cell == "0":
                value = f0.apply(lref)
            else:
                # a cell over a designated vertex: push the pinned edge
                # through the interval coordinate
                e = designated[lref.cell]
                value = image_of_ref(x.face(e, 0) if rref.cell_degree == 0 else e, rref)
            assignment.setdefault(n, {})[c] = value
    return SMap(region, x, assignment), j_sub


def lift_homotopy(
    p: SMap,
    prism: Product,
    homotopy: SMap,
    start: SMap,
    j_sub: SimplicialSet | None = None,
    certificate: Certificate | None = None,
    cap: int | None = None,
) -> SMap:
    """Lift a homotopy through p, extending a prescribed start.

    p: X -> Y; prism: A x Delta^1; homotopy: prism -> Y; start is defined
    on the region (level 0 plus the cylinder over j_sub) and lifts the
    homotopy there.  Over every vertex outside j_sub the lift chooses the
    first cocartesian edge over the tracked edge of Y; over higher cells
    it fills the cylinder simplex by simplex through inner horns, plus
    one initial-vertex horn whose first edge is the chosen cocartesian
    edge.  Start edges over j_sub vertices are required to be cocartesian
    up front; a failed requirement raises LiftObstruction with the least
    refuting horn problem.
    """
    x, y = p.source, p.target
    a = prism.left_object
    if homotopy.source != prism.sset or homotopy.target != y:
        raise SimplicialError("homotopy must map the cylinder to the target of p")
    if start.target != x:
        raise SimplicialError("start must land in the source of p")
    region = cylinder_region(prism, j_sub)
    for n in region.degrees():
        for c in region.n_cells(n):
            if p.apply(start.value(n, c)) != homotopy.value(n, c):
                raise SimplicialError(
                    f"start does not lift the homotopy on cell {c!r} of degree {n}"
                )
    if j_sub is not None:
        for n in j_sub.degrees():
            for c in j_sub.n_cells(n):
                if not a.has_cell(n, c):
                    raise SimplicialError("j_sub must be a subobject of the cylinder base")
    needed = prism.sset.dimension
    edge_cap = cap if cap is not None else max(needed, 2)
    if certificate is not None:
        if not certificate.covers(needed) or certificate.kind not in (
            "inner",
            "cocartesian",
        ):
            raise LiftObstruction(
                "inconclusive",
                f"certificate does not cover horn degrees up to {needed}",
            )
    else:
        inner = certify_inner_fibration(p, cap=max(needed, 2))
        if inner.status != "certified":
            raise LiftObstruction(
                "inconclusive",
                f"inner condition not certified (status {inner.status})",
                problem=inner.witness if isinstance(inner.witness, HornProblem) else None,
            )

    values: dict[tuple[int, str], SimplexRef] = {}
    for n in region.degrees():
        for c in region.n_cells(n):
            values[(n, c)] = start.value(n, c)

    def prism_value(r: SimplexRef) -> SimplexRef:
        return image_of_ref(values[(r.cell_degree, r.cell)], r)

    # start edges over j_sub vertices must already be cocartesian
    if j_sub is not None:
        for v in j_sub.n_cells(0):
            edge_id = prism.pair_ref(SimplexRef(1, (0,), v), EDGE_01).cell
            e = x.resolve(values[(1, edge_id)])
            ok, witness, _ = is_cocartesian_edge(p, e, edge_cap)
            if not ok:
                raise LiftObstruction(
                    "inconclusive",
                    f"prescribed edge {e} over vertex {v!r} is not cocartesian",
                    problem=witness,
                )

    designated: dict[str, SimplexRef] = {}
    for m in a.degrees():
        for c in a.n_cells(m):
            if j_sub is not None and j_sub.has_cell(m, c):
                continue
            if m == 0:
                bottom = prism.pair_ref(SimplexRef(0, (), c), VERTEX_0)
                edge_cell = prism.pair_ref(SimplexRef(1, (0,), c), EDGE_01).cell
                g = homotopy.value(1, edge_cell)
                startv = values[(0, bottom.cell)]
                chosen = None
                # the edges over g starting at startv fill the (1, 0)-horn startv over g
                for f in iter_horn_solutions(p, HornProblem(1, 0, ((1, startv),), g)):
                    ok, _, _ = is_cocartesian_edge(p, f, edge_cap)
                    if ok:
                        chosen = f
                        break
                if chosen is None:
                    raise LiftObstruction(
                        "inconclusive",
                        f"no cocartesian edge over {g} starting at {startv}",
                    )
                designated[c] = chosen
                values[(1, edge_cell)] = chosen
                top = prism.pair_ref(SimplexRef(0, (), c), VERTEX_1)
                values[(0, top.cell)] = x.face(chosen, 0)
                continue
            # fill the cylinder over an m-cell by m+1 simplices, top down
            for k in range(m, -1, -1):
                left = SimplexRef(m + 1, (k,), c)
                word = tuple(j for j in range(m, -1, -1) if j != k)
                right = SimplexRef(m + 1, word, "0.1")
                pk = prism.pair_ref(left, right)
                top_ref = SimplexRef(m + 1, (), pk.cell)
                faces = []
                for j in range(m + 2):
                    if j == k:
                        continue
                    faces.append((j, prism_value(prism.sset.face(top_ref, j))))
                problem = HornProblem(
                    m + 1, k, tuple(faces), homotopy.value(m + 1, pk.cell)
                )
                tau = solve_horn_lift(p, problem)
                if tau is None:
                    raise LiftObstruction(
                        "inconclusive",
                        f"horn of the cylinder over cell {c!r} went unsolved",
                        problem=problem,
                    )
                values[(m + 1, pk.cell)] = tau
                wall = prism.sset.face(top_ref, k)
                assert not wall.word  # the open face of each piece is nondegenerate
                values[(m, wall.cell)] = x.face(tau, k)

    assignment: dict[int, dict[str, SimplexRef]] = {}
    for (n, cell_id), r in values.items():
        assignment.setdefault(n, {})[cell_id] = r
    lift = SMap(prism.sset, x, assignment)
    # the lift is a search result: check that it is a map, then audit it
    lift.validate()
    for n, cell_id, _ in prism.sset.cell_items():
        if p._image(lift.value(n, cell_id)) != homotopy.value(n, cell_id):
            raise SimplicialError("audit failed: the lift does not cover the homotopy")
    for n in region.degrees():
        for c in region.n_cells(n):
            if lift.value(n, c) != start.value(n, c):
                raise SimplicialError("audit failed: the lift moved the start")
    return lift


# -- reference homotopies ------------------------------------------------------


def last_vertex_contraction(n: int) -> tuple[SMap, Product]:
    """The cylinder map contracting the standard n-simplex to its last vertex:
    (i, 0) goes to i and (i, 1) to n."""
    target = standard_simplex(n)
    prism = cylinder(target)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for (m, cell_id), (lref, rref) in prism.components.items():
        vs = []
        for t in range(m + 1):
            level = prism.right_object.vertex_of(rref, t).cell
            if level == "0":
                vs.append(int(prism.left_object.vertex_of(lref, t).cell))
            else:
                vs.append(n)
        assignment.setdefault(m, {})[cell_id] = simplex_in_standard(n, vs)
    return SMap(prism.sset, target, assignment), prism
