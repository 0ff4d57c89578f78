"""Products, level-wise pullbacks, and fiber restrictions.

A nondegenerate cell of the pullback of a cospan L -> B <- R is a pair
of degenerate simplices (s_a x, s_b y) of the factors with disjoint
degeneracy words a and b and the same image in B.  One join on those
images builds every paired object: a product is the pullback over a
point, and the fiber over a simplex is the pullback along its
classifying map, so all fibers of a map read one index of its cells,
kept on the map.  Faces are computed componentwise and renormalized
jointly, so the result is again presented by nondegenerate cells only.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations

from . import words as W
from .sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    classifying_map,
    image_of_ref,
    kept,
    terminal_map,
)


def joint_normal_form(
    left: SimplexRef, right: SimplexRef
) -> tuple[tuple[int, ...], SimplexRef, SimplexRef]:
    """Split a pair of equal-degree refs as a common word on a jointly
    nondegenerate pair."""
    if left.degree != right.degree:
        raise SimplicialError("component degrees differ")
    common, left_word, right_word = _joint_words(left.word, right.word, left.degree)
    if not common:
        return (), left, right
    m = left.degree - len(common)
    return common, SimplexRef(m, left_word, left.cell), SimplexRef(m, right_word, right.cell)


@cache
def _joint_words(
    left_word: tuple[int, ...], right_word: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The common word of two words at degree n, and each word
    renormalized on the section of the common word."""
    common = tuple(sorted(set(left_word) & set(right_word), reverse=True))
    if not common:
        return (), left_word, right_word
    # the section of s_common taking the least point of each class it collapses
    sec = tuple(v for v in range(n + 1) if v - 1 not in common)
    new_l = W.renormalize(left_word, n, sec)
    new_r = W.renormalize(right_word, n, sec)
    if set(new_l) & set(new_r):
        raise SimplicialError("joint normalization failed to separate words")
    return common, new_l, new_r


@cache
def _drop(word: tuple[int, ...], collapses: tuple[int, ...]) -> tuple[int, ...]:
    """The word whose surjection, after that of collapses, is the
    surjection of word; collapses are drawn from word."""
    return tuple(i - sum(j < i for j in collapses) for i in word if i not in collapses)


def _pair_id(left: SimplexRef, right: SimplexRef) -> str:
    return (
        f"{W.word_string(left.word)}|{left.cell}*{W.word_string(right.word)}|{right.cell}"
    )


@kept
def cells_by_value(of: SMap) -> dict[SimplexRef, list[str]]:
    """The source's nondegenerate cells grouped by their value, kept on of."""
    over: dict[SimplexRef, list[str]] = {}
    for q in of.source.degrees():
        for y in of.source.n_cells(q):
            over.setdefault(of.value(q, y), []).append(y)
    return over


class PairedSSet:
    """Level-wise pullback of a cospan along: L -> B <- R :of.

    The right factor's cells are indexed by their value in B once per
    map, kept on of (cells_by_value).  Every degenerate simplex s_a x of
    the left factor then has a base image z, and a compatible partner
    s_b y, with b disjoint from a, exists exactly when b is drawn from
    the collapses of z and y's value is z with the collapses b taken
    out.  Over a point every word pair passes and the join yields the
    Eilenberg-Zilber shuffles.
    """

    def __init__(self, along: SMap, of: SMap):
        if along.target != of.target:
            raise SimplicialError("pullback wants a cospan with a common target")
        left_object, right_object = along.source, of.source
        if not (left_object.simplicial and right_object.simplicial):
            raise SimplicialError("pairs need simplicial factors")
        self.left_object = left_object
        self.right_object = right_object
        over = cells_by_value(of)
        self.components: dict[tuple[int, str], tuple[SimplexRef, SimplexRef]] = {}
        self._ids: dict[tuple[SimplexRef, SimplexRef], str] = {}
        top = right_object.dimension
        bound = max(left_object.dimension + top, -1)
        cells: dict[int, list[tuple[str, list[SimplexRef]]]] = {}
        for n in range(bound + 1):
            least = max(n - top, 0)  # collapses the right side needs at least
            found: list[tuple[str, tuple[SimplexRef, SimplexRef]]] = []
            for p in range(least, min(n, left_object.dimension) + 1):
                for x in left_object.n_cells(p):
                    value = along.value(p, x)
                    for a in combinations(range(n - 1, -1, -1), n - p):
                        lref = SimplexRef(n, a, x)
                        z = image_of_ref(value, lref)
                        free = [i for i in z.word if i not in a]
                        for k in range(least, len(free) + 1):
                            for b in combinations(free, k):
                                key = SimplexRef(n - k, _drop(z.word, b), z.cell)
                                for y in over.get(key, ()):
                                    rref = SimplexRef(n, b, y)
                                    found.append((_pair_id(lref, rref), (lref, rref)))
            found.sort(key=lambda item: item[0])
            for cell_id, pair in found:
                self.components[(n, cell_id)] = pair
                self._ids[pair] = cell_id
            # the faces are pairs one degree down, all registered by now
            cells[n] = [
                (cell_id, [self.pair_ref(left_object.face(lref, i), right_object.face(rref, i))
                           for i in (range(n + 1) if n else ())])
                for cell_id, (lref, rref) in found
            ]
        trunc = None
        for t in (left_object.truncated_at, right_object.truncated_at):
            if t is not None:
                trunc = t if trunc is None else min(trunc, t)
        self.sset = SimplicialSet(cells, truncated_at=trunc)

    @cached_property
    def to_left(self) -> SMap:
        """The projection to the left factor, built on first read."""
        assignment: dict[int, dict[str, SimplexRef]] = {}
        for (n, cell_id), (lref, _) in self.components.items():
            assignment.setdefault(n, {})[cell_id] = lref
        return SMap(self.sset, self.left_object, assignment)

    @cached_property
    def to_right(self) -> SMap:
        """The projection to the right factor, built on first read."""
        assignment: dict[int, dict[str, SimplexRef]] = {}
        for (n, cell_id), (_, rref) in self.components.items():
            assignment.setdefault(n, {})[cell_id] = rref
        return SMap(self.sset, self.right_object, assignment)

    def pair_ref(self, left: SimplexRef, right: SimplexRef) -> SimplexRef:
        """The simplex of the paired object with the given component refs."""
        common, nu, nv = joint_normal_form(left, right)
        cell_id = self._ids.get((nu, nv))
        if cell_id is None:
            raise SimplicialError(f"no paired cell with components ({nu}, {nv})")
        return SimplexRef(left.degree, common, cell_id)


class Product(PairedSSet):
    """The product of two simplicial sets: their pullback over a point."""

    def __init__(self, left_object: SimplicialSet, right_object: SimplicialSet):
        super().__init__(terminal_map(left_object), terminal_map(right_object))


class Fiber(PairedSSet):
    """Restriction of a map over a single simplex of its target."""

    def __init__(self, p: SMap, simplex: SimplexRef):
        self.base_ref = simplex
        self.classifier = classifying_map(p.target, simplex)
        super().__init__(self.classifier, p)


def pair_map(target: PairedSSet, f: SMap, g: SMap) -> SMap:
    """The map into a paired object with components f and g."""
    if f.source != g.source:
        raise SimplicialError("pair_map components must share a source")
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for n in f.source.degrees():
        for c in f.source.n_cells(n):
            ref = target.pair_ref(f.value(n, c), g.value(n, c))
            assignment.setdefault(n, {})[c] = ref
    return SMap(f.source, target.sset, assignment)


def pullback_induced(
    src: PairedSSet, dst: PairedSSet, left: SMap, right: SMap
) -> SMap:
    """Map of paired objects induced by maps of the two factors."""
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for (n, cell_id), (a, b) in src.components.items():
        ref = dst.pair_ref(left.apply(a), right.apply(b))
        assignment.setdefault(n, {})[cell_id] = ref
    return SMap(src.sset, dst.sset, assignment)

