"""Finite simplicial and semi-simplicial sets.

Objects are presented by their nondegenerate cells only.  Every cell of
degree n >= 1 stores an ordered list of n+1 faces, each a SimplexRef: a
degeneracy word in normal form together with the identifier of a
nondegenerate cell of lower degree.  Arbitrary simplices (degenerate ones
included) are SimplexRefs.  A face d_i r is one step of the rule for
d_i s_w (words.face_rule): either a shorter word on the same cell, or a
stored face of the cell with its word renormalized.  The action of any
monotone ordinal map phi on r splits s_w o phi into an injection and a
surjection (words.split); the cell is restricted along the injection by
one face step for each value it misses, and the surjection renormalizes
the word of the result (words.renormalize).

Candidate order (word length, then word, then cell id) is defined only
by blocks(n), one block per degeneracy word with the cells ranked by id:
every simplex is s_w c for exactly one word w and cell c (the
Eilenberg-Zilber lemma; May, Simplicial Objects in Algebraic Topology,
1967), and its id, its position in refs(n), is offset plus rank.

The semi-simplicial flag forbids degeneracy words everywhere; such
objects only support face structure and are accepted by the homology
backend.

Data derived from an object or a map (its blocks and refs, its opposite,
the lifting tables, a map's cells by value and its vertex fibers) is built
on first use and kept on its owner by kept, so it lives exactly as long
as the owner does.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from . import words as W


class SimplicialError(Exception):
    pass


class ValidationError(SimplicialError):
    pass


class SimplexRef(NamedTuple):
    """A possibly degenerate simplex: a degeneracy word applied to a cell."""

    degree: int
    word: tuple[int, ...]
    cell: str

    @property
    def cell_degree(self) -> int:
        return self.degree - len(self.word)

    def to_json(self) -> dict:
        return {"degree": self.degree, "word": W.word_string(self.word), "cell": self.cell}

    def __str__(self) -> str:
        if self.word:
            return f"s[{W.word_string(self.word)}]{self.cell}"
        return self.cell


def ref_sort_key(r: SimplexRef):
    """Candidate order as a sort key: word length, word, cell id (see blocks)."""
    return (len(r.word), r.word, r.cell)


def kept(build):
    """Keep build(owner, *args) in owner._kept after the first call, keyed
    by the decorated function and the (hashable) arguments."""

    def table(owner, *args):
        key = (table, *args)
        hit = owner._kept.get(key)
        if hit is None:
            hit = owner._kept[key] = build(owner, *args)
        return hit

    return wraps(build)(table)


class SimplicialSet:
    """A finite (semi-)simplicial set presented by nondegenerate cells."""

    def __init__(
        self,
        cells: dict[int, Iterable[tuple[str, Iterable[SimplexRef]]]],
        *,
        simplicial: bool = True,
        truncated_at: int | None = None,
        tags: Iterable[str] = (),
    ):
        self.simplicial = bool(simplicial)
        self.truncated_at = truncated_at
        self.tags = frozenset(tags)
        layers = {int(n): list(cs) for n, cs in cells.items()}
        top = max((n for n, cs in layers.items() if cs), default=-1)
        self._order: list[list[str]] = [[] for _ in range(top + 1)]
        self._faces: list[dict[str, tuple[SimplexRef, ...]]] = [{} for _ in range(top + 1)]
        for n in sorted(layers):
            if n > top:
                continue
            if n < 0 and layers[n]:
                raise ValidationError(f"cells in negative degree {n}")
            for cell_id, faces in layers[n]:
                cell_id = str(cell_id)
                if cell_id in self._faces[n]:
                    raise ValidationError(f"duplicate cell id {cell_id!r} in degree {n}")
                self._order[n].append(cell_id)
                self._faces[n][cell_id] = tuple(faces)
        self._kept: dict = {}  # derived data, see kept

    # -- basic structure ------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self._order) - 1

    def degrees(self) -> range:
        return range(self.dimension + 1)

    def n_cells(self, n: int) -> list[str]:
        if 0 <= n <= self.dimension:
            return list(self._order[n])
        return []

    def counts(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self._order)

    def has_cell(self, n: int, cell_id: str) -> bool:
        return 0 <= n <= self.dimension and cell_id in self._faces[n]

    def face_tuple(self, n: int, cell_id: str) -> tuple[SimplexRef, ...]:
        try:
            return self._faces[n][cell_id]
        except (IndexError, KeyError):
            raise SimplicialError(f"no cell {cell_id!r} in degree {n}") from None

    def cell_items(self) -> Iterator[tuple[int, str, tuple[SimplexRef, ...]]]:
        for n in self.degrees():
            for cell_id in self._order[n]:
                yield n, cell_id, self._faces[n][cell_id]

    def total_cells(self) -> int:
        return sum(self.counts())

    # -- simplex arithmetic ---------------------------------------------

    def act(self, r: SimplexRef, phi: tuple[int, ...]) -> SimplexRef:
        """The simplex r o phi for a monotone map phi: [m] -> [r.degree]."""
        try:
            mono, epi = W.split(r.word, r.degree, phi)
        except ValueError as exc:
            raise SimplicialError(str(exc)) from None
        # restrict the cell along mono, one face per value it misses,
        # largest first, so that no step shifts the values still to drop
        base = SimplexRef(r.cell_degree, (), r.cell)
        for k in range(r.cell_degree, -1, -1):
            if k not in mono:
                base = self.face(base, k)
        word = W.renormalize(base.word, base.degree, epi)
        if word and not self.simplicial:
            raise SimplicialError("degenerate simplex in a semi-simplicial set")
        return SimplexRef(len(phi) - 1, word, base.cell)

    def face(self, r: SimplexRef, i: int) -> SimplexRef:
        """d_i r, by one step of the rule for d_i s_w (words.face_rule)."""
        if r.degree < 1:
            raise SimplicialError("degree 0 simplices have no faces")
        cell = r.cell
        try:
            k, word = W.face_rule(r.word, r.degree, i)
            if k is not None:
                f = self.face_tuple(r.cell_degree, cell)[k]
                cell = f.cell
                word = W.renormalize(f.word, f.degree, word)
        except ValueError as exc:
            raise SimplicialError(str(exc)) from None
        if word and not self.simplicial:
            raise SimplicialError("degenerate simplex in a semi-simplicial set")
        return SimplexRef(r.degree - 1, word, cell)

    def degenerate(self, r: SimplexRef, i: int) -> SimplexRef:
        if not self.simplicial:
            raise SimplicialError("semi-simplicial sets have no degeneracies")
        return self.act(r, W.sigma_values(i, r.degree))

    def vertex_of(self, r: SimplexRef, i: int) -> SimplexRef:
        return self.act(r, (i,))

    def last_edge(self, r: SimplexRef) -> SimplexRef:
        if r.degree < 1:
            raise SimplicialError("no last edge below degree 1")
        return self.act(r, (r.degree - 1, r.degree))

    @kept
    def cell_ranks(self, m: int) -> dict[str, int]:
        """The degree-m cells by their rank in candidate order (by id)."""
        return {c: k for k, c in enumerate(sorted(self.n_cells(m)))}

    @kept
    def blocks(self, n: int) -> dict[tuple[int, ...], tuple[int, dict[str, int]]]:
        """Candidate order of the degree-n simplices, one block per
        degeneracy word: word -> (offset of its block, cell_ranks of the
        degree it degenerates), blocks by word length, then word.  Only
        words whose cell degree has cells get a block."""
        lengths = range(max(n - self.dimension, 0), n + 1) if self.simplicial else (0,)
        blocks: dict = {}
        offset = 0
        for k in lengths:
            ranks = self.cell_ranks(n - k)
            if ranks:
                for w in sorted(combinations(range(n - 1, -1, -1), k)):
                    blocks[w] = (offset, ranks)
                    offset += len(ranks)
        return blocks

    @kept
    def refs(self, n: int) -> list[SimplexRef]:
        """All degree-n simplices in candidate order, block by block."""
        return [SimplexRef(n, w, c) for w, (_, ranks) in self.blocks(n).items() for c in ranks]

    def simplex_id(self, n: int, r: SimplexRef) -> int | None:
        """r's position in refs(n): its block's offset plus its cell's
        rank; None when r is no degree-n simplex of this object."""
        offset, ranks = self.blocks(n).get(r.word, (0, {}))
        rank = ranks.get(r.cell) if r.degree == n else None
        return None if rank is None else offset + rank

    def resolve(self, r: SimplexRef) -> SimplexRef:
        """Validate that r denotes a simplex of this object and return it."""
        if not isinstance(r, SimplexRef):
            raise SimplicialError(f"not a simplex reference: {r!r}")
        if not W.is_word(r.word):
            raise SimplicialError(f"invalid degeneracy word in {r}")
        if r.word and not self.simplicial:
            raise SimplicialError("degenerate reference into a semi-simplicial set")
        if r.word and r.word[0] > r.degree - 1:
            raise SimplicialError(f"word out of range in {r}")
        if not self.has_cell(r.cell_degree, r.cell):
            raise SimplicialError(f"reference {r} names no cell")
        return r

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the face data and the simplicial identities."""
        for n in self.degrees():
            if n == 0:
                for cell_id, faces in self._faces[0].items():
                    if faces:
                        raise ValidationError(f"vertex {cell_id!r} must have no faces")
                continue
            # valid words of degree n - 1 -> the cells they may degenerate,
            # filled as each word passes the full check once; a face the
            # lookup misses, or whose numbers only compare equal to ints
            # (1.0, True), gets the full check and its message
            cells_of = {(): self._faces[n - 1]}
            for cell_id in self._order[n]:
                faces = self._faces[n][cell_id]
                if len(faces) != n + 1:
                    raise ValidationError(
                        f"cell {cell_id!r} of degree {n} has {len(faces)} faces, wants {n + 1}"
                    )
                for i, f in enumerate(faces):
                    try:
                        if (
                            type(f) is SimplexRef
                            and type(f.degree) is int
                            and f.degree == n - 1
                            and f.cell in cells_of.get(f.word, ())
                            and (not f.word or all(type(v) is int for v in f.word))
                        ):
                            continue
                    except TypeError:  # an unhashable word
                        pass
                    self._check_face(n, cell_id, i, f)
                    cells_of[f.word] = self._faces[n - 1 - len(f.word)]
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j, on rows of
        # faces: a cell's faces, each given by its own faces d_0..d_{n-1}
        for n in range(2, self.dimension + 1):
            below = self._faces[n - 1]
            degenerate: dict[SimplexRef, tuple[SimplexRef, ...]] = {}
            for cell_id in self._order[n]:
                rows = []
                for f in self._faces[n][cell_id]:
                    if not f.word:
                        rows.append(below[f.cell])
                        continue
                    row = degenerate.get(f)
                    if row is None:
                        row = degenerate[f] = tuple([self.face(f, i) for i in range(n)])
                    rows.append(row)
                for j in range(1, n + 1):
                    dj = rows[j]
                    for i in range(j):
                        if dj[i] != rows[i][j - 1]:
                            raise ValidationError(
                                f"simplicial identity fails on {cell_id!r} at (i,j)=({i},{j})"
                            )

    def _check_face(self, n: int, cell_id: str, i: int, f) -> None:
        """The full check of face i of a degree-n cell, one message per fault."""
        if not isinstance(f, SimplexRef):
            raise ValidationError(f"face {i} of {cell_id!r} is not a SimplexRef")
        if f.degree != n - 1:
            raise ValidationError(
                f"face {i} of {cell_id!r} has degree {f.degree}, wants {n - 1}"
            )
        if not W.is_word(f.word):
            raise ValidationError(f"face {i} of {cell_id!r}: bad word {f.word}")
        if f.word:
            if not self.simplicial:
                raise ValidationError(
                    f"face {i} of {cell_id!r} is degenerate in a semi-simplicial set"
                )
            if f.word[0] > n - 2:
                raise ValidationError(
                    f"face {i} of {cell_id!r}: word {f.word} out of range"
                )
        if not self.has_cell(f.cell_degree, f.cell):
            raise ValidationError(
                f"face {i} of {cell_id!r} targets missing cell {f.cell!r}"
            )

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return (
            self.simplicial == other.simplicial
            and self.truncated_at == other.truncated_at
            and self._order == other._order
            and self._faces == other._faces
        )

    def __repr__(self) -> str:
        kind = "sset" if self.simplicial else "semisset"
        return f"<{kind} dim={self.dimension} counts={self.counts()}>"


# -- standard objects ------------------------------------------------------


def _subset_id(vertices: tuple[int, ...]) -> str:
    return ".".join(str(v) for v in vertices)


def standard_simplex(n: int) -> SimplicialSet:
    """The standard n-simplex; cells are the monotone injections into [n]."""
    if n < 0:
        raise SimplicialError("standard_simplex wants n >= 0")
    cells: dict[int, list[tuple[str, list[SimplexRef]]]] = {}
    for k in range(n + 1):
        layer = []
        for combo in combinations(range(n + 1), k + 1):
            faces = [
                SimplexRef(k - 1, (), _subset_id(combo[:i] + combo[i + 1 :]))
                for i in range(k + 1)
            ] if k else []
            layer.append((_subset_id(combo), faces))
        cells[k] = layer
    return SimplicialSet(cells)


def simplex_in_standard(n: int, vertices: Iterable[int]) -> SimplexRef:
    """The simplex of the standard n-simplex with the given monotone vertex list."""
    vs = tuple(vertices)
    if not vs or not W.is_monotone(vs) or vs[0] < 0 or vs[-1] > n:
        raise SimplicialError(f"not a monotone vertex list into [{n}]: {vs}")
    mono, epi = W.epi_mono_factor(vs)
    return SimplexRef(len(vs) - 1, W.map_to_word(epi), _subset_id(mono))


def standard_vertices(r: SimplexRef) -> tuple[int, ...]:
    """The vertex list of a simplex of a standard simplex, the inverse of
    simplex_in_standard: its cell id's vertices, read through its word."""
    cell = [int(v) for v in r.cell.split(".")]
    return tuple([cell[k] for k in W.word_to_map(r.word, r.degree)])


def subcomplex(ambient: SimplicialSet, seeds: Iterable[tuple[int, str]]) -> SimplicialSet:
    """The smallest subobject of ambient containing the seed cells, same ids."""
    keep: set[tuple[int, str]] = set()
    stack = [(int(n), str(c)) for n, c in seeds]
    while stack:
        n, c = stack.pop()
        if (n, c) in keep:
            continue
        if not ambient.has_cell(n, c):
            raise SimplicialError(f"seed cell {c!r} of degree {n} not in ambient")
        keep.add((n, c))
        if n > 0:
            for f in ambient.face_tuple(n, c):
                stack.append((f.cell_degree, f.cell))
    cells: dict[int, list[tuple[str, tuple[SimplexRef, ...]]]] = {}
    for n, cell_id, faces in ambient.cell_items():
        if (n, cell_id) in keep:
            cells.setdefault(n, []).append((cell_id, faces))
    return SimplicialSet(
        cells, simplicial=ambient.simplicial, truncated_at=ambient.truncated_at
    )


def skeleton(x: SimplicialSet, n: int) -> SimplicialSet:
    """The subobject of cells of degree <= n; n = -1 gives the empty object."""
    if n < -1:
        raise SimplicialError("skeleton wants n >= -1")
    seeds = [(k, c) for k in range(min(n, x.dimension) + 1) for c in x.n_cells(k)]
    return subcomplex(x, seeds)


def boundary(n: int) -> SimplicialSet:
    """The boundary of the standard n-simplex; empty for n = 0."""
    if n < 0:
        raise SimplicialError("boundary wants n >= 0")
    return skeleton(standard_simplex(n), n - 1)


def horn(n: int, i: int) -> SimplicialSet:
    """The (n, i)-horn: the boundary minus the interior of the i-th face."""
    if n < 1:
        raise SimplicialError("horn wants n >= 1")
    if not 0 <= i <= n:
        raise SimplicialError(f"horn index {i} out of range for n={n}")
    ambient = standard_simplex(n)
    top = tuple(range(n + 1))
    seeds = [
        (n - 1, _subset_id(top[:j] + top[j + 1 :])) for j in range(n + 1) if j != i
    ]
    return subcomplex(ambient, seeds)


@kept
def opposite(x: SimplicialSet) -> SimplicialSet:
    """Reverse the ordinal order: face i becomes face n-i, words reflect."""
    cells: dict[int, list[tuple[str, list[SimplexRef]]]] = {}
    for n, cell_id, faces in x.cell_items():
        cells.setdefault(n, []).append((cell_id, [op_ref(f) for f in reversed(faces)]))
    out = SimplicialSet(
        cells, simplicial=x.simplicial, truncated_at=x.truncated_at, tags=x.tags
    )
    out._kept[(opposite,)] = x
    return out


def op_ref(r: SimplexRef) -> SimplexRef:
    """r in the opposite: the same cell, the word reflected; a
    nondegenerate r is returned as it is, so refs stay shared."""
    if not r.word:
        return r
    return SimplexRef(r.degree, W.word_op(r.word, r.degree), r.cell)


# -- simplicial maps --------------------------------------------------------


def image_of_ref(value: SimplexRef, r: SimplexRef) -> SimplexRef:
    """Image of a possibly degenerate ref r under a map that sends the
    nondegenerate cell of r to value."""
    if not r.word:
        return value
    word = W.renormalize(value.word, value.degree, W.word_to_map(r.word, r.degree))
    return SimplexRef(r.degree, word, value.cell)


class SMap:
    """A map of simplicial sets, stored on nondegenerate cells of the source."""

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        assignment: dict[int, dict[str, SimplexRef]],
    ):
        self.source = source
        self.target = target
        self.assignment = {
            int(n): {str(c): r for c, r in layer.items()}
            for n, layer in assignment.items()
            if layer
        }
        self._kept: dict = {}  # derived data, see kept

    def value(self, n: int, cell_id: str) -> SimplexRef:
        try:
            return self.assignment[n][cell_id]
        except KeyError:
            raise SimplicialError(f"map not defined on cell {cell_id!r} of degree {n}") from None

    def apply(self, r: SimplexRef) -> SimplexRef:
        """Image of an arbitrary simplex reference of the source."""
        return self._image(self.source.resolve(r))

    def _image(self, r: SimplexRef) -> SimplexRef:
        """Image of a ref taken from the source's own tables, unresolved."""
        return image_of_ref(self.value(r.cell_degree, r.cell), r)

    def compose(self, other: "SMap") -> "SMap":
        """self o other; other's target must be self's source."""
        if other.target is not self.source and other.target != self.source:
            raise SimplicialError("composition mismatch: target != source")
        assignment: dict[int, dict[str, SimplexRef]] = {}
        for n, layer in other.assignment.items():
            assignment[n] = {c: self._image(r) for c, r in layer.items()}
        return SMap(other.source, self.target, assignment)

    def validate(self) -> None:
        """Check that the assignment is a map; source and target are taken as valid."""
        src, tgt = self.source, self.target
        if src.simplicial and not tgt.simplicial:
            raise ValidationError("no maps from simplicial to semi-simplicial objects")
        for n, cell_id, faces in src.cell_items():
            r = self.assignment.get(n, {}).get(cell_id)
            if r is None:
                raise ValidationError(f"missing value on cell {cell_id!r} of degree {n}")
            tgt.resolve(r)
            if r.degree != n:
                raise ValidationError(
                    f"value on {cell_id!r} has degree {r.degree}, wants {n}"
                )
        for n, layer in self.assignment.items():
            for cell_id in layer:
                if not src.has_cell(n, cell_id):
                    raise ValidationError(
                        f"assignment names missing cell {cell_id!r} in degree {n}"
                    )
        # naturality: commutation with all faces of all nondegenerate cells
        for n, cell_id, faces in src.cell_items():
            if n == 0:
                continue
            image = self.value(n, cell_id)
            for i, f in enumerate(faces):
                if self._image(f) != tgt.face(image, i):
                    raise ValidationError(
                        f"face {i} of {cell_id!r} does not commute with the map"
                    )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        return f"<smap {self.source!r} -> {self.target!r}>"


def identity_map(x: SimplicialSet) -> SMap:
    assignment = {
        n: {c: SimplexRef(n, (), c) for c in x.n_cells(n)} for n in x.degrees()
    }
    return SMap(x, x, assignment)


def constant_map(x: SimplicialSet, y: SimplicialSet, vertex: SimplexRef) -> SMap:
    """The map collapsing x to a single vertex of y."""
    y.resolve(vertex)
    if vertex.degree != 0:
        raise SimplicialError("constant_map wants a vertex reference")
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for n in x.degrees():
        full = tuple(range(n - 1, -1, -1))
        assignment[n] = {c: SimplexRef(n, full, vertex.cell) for c in x.n_cells(n)}
    return SMap(x, y, assignment)


def terminal_map(x: SimplicialSet) -> SMap:
    return constant_map(x, standard_simplex(0), SimplexRef(0, (), "0"))


def classifying_map(y: SimplicialSet, r: SimplexRef) -> SMap:
    """The map from the standard simplex of r's degree sending the top cell to r."""
    y.resolve(r)
    n = r.degree
    source = standard_simplex(n)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for k in range(n + 1):
        layer = {}
        for cell_id in source.n_cells(k):
            vs = tuple(int(p) for p in cell_id.split("."))
            layer[cell_id] = y.act(r, vs)
        assignment[k] = layer
    return SMap(source, y, assignment)


def opposite_map(f: SMap) -> SMap:
    assignment = {
        n: {c: op_ref(r) for c, r in layer.items()}
        for n, layer in f.assignment.items()
    }
    return SMap(opposite(f.source), opposite(f.target), assignment)


def restrict_map(f: SMap, sub: SimplicialSet) -> SMap:
    """Restrict f to a subobject of its source (cells shared by identifier)."""
    assignment = {
        n: {c: f.value(n, c) for c in sub.n_cells(n)} for n in sub.degrees()
    }
    return SMap(sub, f.target, assignment)
