"""Integral simplicial homology: reduction by unit pivots, then Smith
normal form on what is left.

Chain complexes are built from the nondegenerate cells (normalized chains:
degenerate faces contribute zero) with sparse boundaries, and all
arithmetic is over Python integers, so coefficients never overflow.  Pairs
of cells joined by a boundary entry 1 or -1 are eliminated first; the
reduction is kept as data, so cycles move between the original complex
and the small remainder exactly.  Two Smith forms per degree of the
remainder with a differential left, the boundary's and the relations',
and none for a free degree, give homology groups with chosen integral
generators in the cell basis, so that maps of simplicial sets induce
explicit matrices.  A Smith form builds each transform only when it is
read, so wide relations cost no square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .sset import SMap, SimplicialError, SimplicialSet


class TruncationError(SimplicialError):
    """Raised when an exact answer would need cells beyond a truncation cap."""


# -- small exact integer matrices -------------------------------------------


class IntMatrix:
    """Dense integer matrix with explicit shape (rows may be zero)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(row) for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("matrix data does not match shape")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def from_columns(rows: int, columns) -> "IntMatrix":
        cols = list(columns)
        m = IntMatrix(rows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                m.data[i][j] = v
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for j in range(other.cols):
                out.data[i][j] = sum(row[k] * other.data[k][j] for k in range(self.cols))
        return out

    def mul_vec(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(row[k] * vec[k] for k in range(self.cols)) for row in self.data]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.data]


def _replay(n: int, ops: list[tuple], inverted: bool, transposed: bool) -> IntMatrix:
    """The n x n identity with ops applied in order as row operations,
    each addition inverted (see SmithForm) when inverted is set, and the
    result transposed when transposed is set."""
    m = IntMatrix.identity(n)
    rows = m.data
    for i, j, c in ops:
        if c is None:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = [-x for x in rows[i]]
        elif inverted:
            rows[j] = [x - c * y for x, y in zip(rows[j], rows[i])]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if transposed:
        m.data = [list(col) for col in zip(*rows)]
    return m


class SmithForm:
    """One factorization u @ a @ v == d of an integer matrix a, with d
    diagonal in Smith normal form.

    Factor a matrix once and answer every solve and kernel question about
    it from the factors.  The elimination changes only a working copy of
    a, keeps its diagonal and records each row and column operation as
    (i, j, c): c None swaps i and j, i == j negates i, and otherwise c
    times j is added to i.  Each transform is built when first read, by
    one pass over one list applied as row operations to an identity:
    u replays the row operations as they are; v_inv the column operations
    inverted (col_i += c col_j becomes row_j -= c row_i); v, transposed
    after, the column operations transposed (row_i += c row_j); u_inv,
    transposed after, the row operations inverted and transposed (row_j
    -= c row_i).  Swaps and negations are their own inverse and transpose.
    """

    def __init__(self, a: IntMatrix):
        self.rows, self.cols = a.rows, a.cols
        self._row_ops: list[tuple] = []
        self._col_ops: list[tuple] = []
        rows, cols, data = self.rows, self.cols, a.to_lists()

        def row_add(i, j, c):
            data[i] = [x + c * y for x, y in zip(data[i], data[j])]
            self._row_ops.append((i, j, c))

        t = 0
        limit = min(rows, cols)
        while t < limit:
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(data[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                data[t], data[i] = data[i], data[t]
                self._row_ops.append((t, i, None))
            if j != t:
                for r in data:
                    r[t], r[j] = r[j], r[t]
                self._col_ops.append((t, j, None))
            if data[t][t] < 0:
                data[t] = [-x for x in data[t]]
                self._row_ops.append((t, t, -1))
            p = data[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if data[i][t]:
                    row_add(i, t, -(data[i][t] // p))
                    if data[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if data[t][j]:
                    c = -(data[t][j] // p)
                    for r in data:
                        r[j] += c * r[t]
                    self._col_ops.append((j, t, c))
                    if data[t][j]:
                        dirty = True
            if dirty:
                continue
            # rows below with an entry that p does not divide
            stuck = [i for i in range(t + 1, rows) if any(x % p for x in data[i][t + 1:])]
            if stuck:
                row_add(t, stuck[0], 1)
            else:
                t += 1
        self.diagonal = [data[t][t] for t in range(limit)]

    @cached_property
    def u(self) -> IntMatrix:
        return _replay(self.rows, self._row_ops, inverted=False, transposed=False)

    @cached_property
    def u_inv(self) -> IntMatrix:
        return _replay(self.rows, self._row_ops, inverted=True, transposed=True)

    @cached_property
    def v(self) -> IntMatrix:
        return _replay(self.cols, self._col_ops, inverted=False, transposed=True)

    @cached_property
    def v_inv(self) -> IntMatrix:
        return _replay(self.cols, self._col_ops, inverted=True, transposed=False)

    def solve(self, b: list[int]) -> list[int] | None:
        """One integer solution x of a @ x = b, or None."""
        ub = self.u.mul_vec(b)
        y = [0] * self.cols
        for t, dt in enumerate(self.diagonal):
            if dt:
                if ub[t] % dt:
                    return None
                y[t] = ub[t] // dt
            elif ub[t]:
                return None
        if any(ub[len(self.diagonal):]):
            return None
        return self.v.mul_vec(y)

    def onto(self) -> bool:
        """Whether a maps onto Z^rows: a unit on the diagonal in every row."""
        return len(self.diagonal) == self.rows and all(abs(d) == 1 for d in self.diagonal)

    def _free(self) -> list[int]:
        return [j for j in range(self.cols) if j >= len(self.diagonal) or not self.diagonal[j]]

    def kernel(self) -> IntMatrix:
        """Columns spanning the integer kernel of a."""
        return IntMatrix.from_columns(self.cols, [self.v.column(j) for j in self._free()])

    def kernel_coordinates(self) -> IntMatrix:
        """Rows taking a kernel vector to its coordinates in kernel()."""
        rows = [self.v_inv.data[j] for j in self._free()]
        return IntMatrix(len(rows), self.cols, rows)


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with d = u @ matrix @ v in Smith normal form."""
    if not isinstance(matrix, IntMatrix):
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        matrix = IntMatrix(rows, cols, [[int(v) for v in row] for row in matrix])
    form = SmithForm(matrix)
    d = IntMatrix(matrix.rows, matrix.cols)
    for t, x in enumerate(form.diagonal):
        d.data[t][t] = x
    return d, form.u, form.v


def solve_integer(a: IntMatrix, b: list[int]) -> list[int] | None:
    """One integer solution x of a @ x = b, or None."""
    return SmithForm(a).solve(b)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns spanning the integer kernel of a."""
    return SmithForm(a).kernel()


# -- chain complexes ---------------------------------------------------------


class SparseMatrix:
    """Integer matrix kept by columns: entries[j] maps a row index to the
    nonzero entry of column j in that row."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, entries: list[dict[int, int]]):
        self.rows = rows
        self.cols = len(entries)
        self.entries = entries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def mul_vec(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for c, col in zip(vec, self.entries):
            if c:
                for i, v in col.items():
                    out[i] += c * v
        return out

    def to_dense(self) -> IntMatrix:
        m = IntMatrix(self.rows, self.cols)
        for j, col in enumerate(self.entries):
            for i, v in col.items():
                m.data[i][j] = v
        return m

    def to_lists(self) -> list[list[int]]:
        return self.to_dense().data


@dataclass
class ChainComplex:
    """Normalized chains: one generator per nondegenerate cell."""

    basis: list[list[str]]
    boundaries: list[SparseMatrix]  # boundaries[k - 1]: C_k -> C_{k-1}, k >= 1

    @property
    def dimension(self) -> int:
        return len(self.basis) - 1

    def rank(self, k: int) -> int:
        if 0 <= k <= self.dimension:
            return len(self.basis[k])
        return 0

    def boundary(self, k: int) -> SparseMatrix:
        if 1 <= k <= self.dimension:
            return self.boundaries[k - 1]
        return SparseMatrix(self.rank(k - 1), [{} for _ in range(self.rank(k))])

    def validate(self) -> None:
        for k in range(2, self.dimension + 1):
            lower = self.boundary(k - 1).entries
            for col in self.boundary(k).entries:
                total: dict[int, int] = {}
                for i, v in col.items():
                    for r, w in lower[i].items():
                        total[r] = total.get(r, 0) + v * w
                if any(total.values()):
                    raise SimplicialError(f"boundary squared nonzero in degree {k}")


def chain_complex(x: SimplicialSet) -> ChainComplex:
    """Chain complex of a simplicial or semi-simplicial set."""
    basis = [x.n_cells(n) for n in x.degrees()]
    index = [{c: i for i, c in enumerate(layer)} for layer in basis]
    boundaries = []
    for k in range(1, x.dimension + 1):
        rows = index[k - 1]
        columns = []
        for cell_id in basis[k]:
            col: dict[int, int] = {}
            for i, f in enumerate(x.face_tuple(k, cell_id)):
                if f.word:
                    continue
                r = rows[f.cell]
                v = col.get(r, 0) + (-1 if i % 2 else 1)
                if v:
                    col[r] = v
                else:
                    del col[r]
            columns.append(col)
        boundaries.append(SparseMatrix(len(basis[k - 1]), columns))
    return ChainComplex(basis, boundaries)


# -- reduction by unit pivots --------------------------------------------------


class Reduction:
    """A chain homotopy equivalence between a complex and a smaller one.

    Each pair (sigma, tau, eps, column, row) in pairs[k] removed the cell
    tau of degree k together with the cell sigma of degree k - 1, where
    eps = <d tau, sigma> is 1 or -1.  column is d tau and row maps every
    other live cell x of degree k to <d x, sigma>, both as they stood when
    the pair was eliminated.  kept[k] lists, in basis order, the cells of
    degree k left in the remainder, whose boundaries are over those cells.
    """

    def __init__(
        self,
        original: ChainComplex,
        remainder: ChainComplex,
        kept: list[list[int]],
        pairs: list[list[tuple]],
    ):
        self.original = original
        self.remainder = remainder
        self.kept = kept
        self.pairs = pairs

    def _pairs(self, k: int) -> list[tuple]:
        return self.pairs[k] if 0 <= k < len(self.pairs) else []

    def lift(self, k: int, coords: list[int]) -> list[int]:
        """The inclusion of the remainder, in degree k: a chain of the
        remainder as a chain of the original complex."""
        z = [0] * self.original.rank(k)
        for i, c in zip(self.kept[k], coords):
            z[i] = c
        for _, tau, eps, _, row in reversed(self._pairs(k)):
            z[tau] = -eps * sum(z[x] * v for x, v in row.items())
        return z

    def project(self, k: int, z: list[int]) -> list[int]:
        """The projection onto the remainder, in degree k: each sigma is
        cleared by subtracting a multiple of d tau, and the paired cells
        are dropped.  On a cycle it changes z only by boundaries."""
        z = list(z)
        for sigma, _, eps, column, _ in self._pairs(k + 1):
            c = z[sigma] * eps
            if c:
                for r, v in column.items():
                    z[r] -= c * v
        return [z[i] for i in self.kept[k]]


def reduce_unit_pivots(cx: ChainComplex) -> Reduction:
    """Pair off cells along entries 1 or -1 of the boundaries.

    Degrees go up from 1 and the columns of each boundary are taken in
    basis order.  A column with a unit entry is paired with the row, among
    its unit entries, that has the fewest live columns (the lower row
    index on a tie).  Eliminating the pair clears that row from every
    other column, so each pair leaves the homology unchanged.
    """
    top = cx.dimension
    pairs: list[list[tuple]] = [[] for _ in range(top + 1)]
    gone: list[set[int]] = [set() for _ in range(top + 1)]
    live: list[list[dict[int, int] | None]] = [[]]
    for k in range(1, top + 1):
        cols: list[dict[int, int] | None] = [
            {r: v for r, v in col.items() if r not in gone[k - 1]}
            for col in cx.boundary(k).entries
        ]
        where: dict[int, set[int]] = {}  # row -> live columns with an entry there
        for j, col in enumerate(cols):
            for r in col:
                where.setdefault(r, set()).add(j)
        for tau, col in enumerate(cols):
            units = [r for r, v in col.items() if v == 1 or v == -1]
            if not units:
                continue
            sigma = min(units, key=lambda r: (len(where[r]), r))
            eps = col[sigma]
            row = {x: cols[x][sigma] for x in where[sigma] if x != tau}
            pairs[k].append((sigma, tau, eps, col, row))
            gone[k - 1].add(sigma)
            gone[k].add(tau)
            cols[tau] = None
            for r in col:
                where[r].discard(tau)
            for x, c in row.items():
                target = cols[x]
                scale = c * eps
                for r, v in col.items():
                    w = target.get(r, 0) - scale * v
                    if w:
                        if r not in target:
                            where[r].add(x)
                        target[r] = w
                    else:
                        del target[r]
                        where[r].discard(x)
        live.append(cols)
    kept = [[i for i in range(cx.rank(k)) if i not in gone[k]] for k in range(top + 1)]
    boundaries = []
    for k in range(1, top + 1):
        position = {i: p for p, i in enumerate(kept[k - 1])}
        boundaries.append(
            SparseMatrix(
                len(kept[k - 1]),
                [{position[r]: v for r, v in live[k][j].items()} for j in kept[k]],
            )
        )
    basis = [[layer[i] for i in keep] for layer, keep in zip(cx.basis, kept)]
    return Reduction(cx, ChainComplex(basis, boundaries), kept, pairs)


# -- homology groups ---------------------------------------------------------


@dataclass
class HomologyGroup:
    """One homology group with chosen integral generators.

    orders[i] is 0 for a free generator and t >= 2 for a torsion generator
    of order t; generators are columns of gens in the cell basis.  A cycle
    is expressed in this basis by projecting it onto the reduced complex
    and applying one stored matrix, which takes a remainder cycle to its
    coordinates in the kept generators.
    """

    degree: int
    betti: int
    torsion: list[int]
    gens: IntMatrix
    orders: list[int]
    _coordinates: IntMatrix = field(repr=False, default=None)  # remainder cycle -> coordinates
    _reduction: Reduction | None = field(repr=False, default=None)

    def coordinates(self, cycle: list[int]) -> list[int] | None:
        """Coordinates of a cycle in the kept generator basis, reduced;
        None when the chain is not a cycle."""
        if not self.gens.rows:  # no cells in this degree
            return None if any(cycle) else []
        red = self._reduction
        if any(red.original.boundary(self.degree).mul_vec(cycle)):
            return None
        t = self._coordinates.mul_vec(red.project(self.degree, cycle))
        return [x % order if order else x for x, order in zip(t, self.orders)]

    def with_relations(self, matrix: IntMatrix) -> IntMatrix:
        """matrix, a map into this group's generators, with the relations
        order * e_i of its torsion generators appended as columns."""
        cols = matrix.columns()
        r = len(self.orders)
        for i, order in enumerate(self.orders):
            if order:
                col = [0] * r
                col[i] = order
                cols.append(col)
        return IntMatrix.from_columns(r, cols)

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        return (self.betti, tuple(self.torsion))

    def to_json(self) -> dict:
        return {"degree": self.degree, "betti": self.betti, "torsion": list(self.torsion)}

    def describe(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass
class HomologyProfile:
    groups: list[HomologyGroup]
    truncated_at: int | None = None

    def group(self, k: int) -> HomologyGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return HomologyGroup(k, 0, [], IntMatrix(0, 0), [])

    def invariants(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple(g.invariants() for g in self.groups)

    def to_json(self) -> list[dict]:
        return [g.to_json() for g in self.groups]

    def describe(self) -> str:
        return ", ".join(f"H_{g.degree} = {g.describe()}" for g in self.groups) or "0"

    def same_invariants(self, other: "HomologyProfile") -> bool:
        top = max(len(self.groups), len(other.groups))
        return all(
            self.group(k).invariants() == other.group(k).invariants()
            for k in range(top)
        )


def homology_of_reduction(red: Reduction, top: int | None = None) -> HomologyProfile:
    """Homology from two Smith forms per degree of the remainder with a
    differential left: d_k's v and v_inv give the cycle basis and each
    cycle's coordinates in it, the relations' diagonal, u and u_inv the
    orders, generators and their coordinates.  The relations' column
    transforms, as wide as the next degree's remainder, are never built.
    A free degree, with d_k and d_{k+1} both zero, is its own homology:
    its cells are the generators, free, and no Smith form is needed.
    Generators are lifted back."""
    cx = red.remainder
    groups = []
    limit = cx.dimension if top is None else top
    for k in range(limit + 1):
        if not any(cx.boundary(k).entries) and not any(cx.boundary(k + 1).entries):
            r = cx.rank(k)
            unit = IntMatrix.identity(r)
            gens = IntMatrix.from_columns(red.original.rank(k), [red.lift(k, e) for e in unit.data])
            groups.append(HomologyGroup(k, r, [], gens, [0] * r, unit, red))
            continue
        cycles = SmithForm(cx.boundary(k).to_dense())
        kern = cycles.kernel()
        rows = cycles.kernel_coordinates()
        rels = [
            [sum(r[i] * c for i, c in col.items()) for r in rows.data]
            for col in cx.boundary(k + 1).entries
        ]
        relations = SmithForm(IntMatrix.from_columns(kern.cols, rels))
        orders_full = [abs(x) for x in relations.diagonal]
        orders_full += [0] * (kern.cols - len(orders_full))
        gens_full = kern @ relations.u_inv
        kept = [i for i, order in enumerate(orders_full) if order != 1]
        kept_cols = [red.lift(k, gens_full.column(i)) for i in kept]
        kept_orders = [orders_full[i] for i in kept]
        u = relations.u
        torsion = sorted(o for o in kept_orders if o)
        betti = sum(1 for o in kept_orders if o == 0)
        groups.append(
            HomologyGroup(
                k,
                betti,
                torsion,
                IntMatrix.from_columns(red.original.rank(k), kept_cols),
                kept_orders,
                _coordinates=IntMatrix(len(kept), u.cols, [u.data[i] for i in kept]) @ rows,
                _reduction=red,
            )
        )
    return HomologyProfile(groups)


def homology(x: SimplicialSet) -> HomologyProfile:
    """Integral homology of a finite (semi-)simplicial set.

    The chain complex is first reduced by unit pivots; Smith forms then
    run on what is left.  For a truncated object, groups are only
    computed strictly below the truncation degree (the top group would
    need missing cells) and the profile records the cap.
    """
    red = reduce_unit_pivots(chain_complex(x))
    if x.truncated_at is not None:
        profile = homology_of_reduction(red, top=max(x.truncated_at - 1, -1))
        profile.truncated_at = x.truncated_at
        return profile
    return homology_of_reduction(red)


# -- induced maps -------------------------------------------------------------


@dataclass
class InducedHomology:
    """An induced map in homology, in the chosen generator bases.  forms[k]
    factors target.group(k).with_relations(matrices[k]) where the invariants
    agree (None elsewhere); iso_flags[k] is read off it."""

    source: HomologyProfile
    target: HomologyProfile
    matrices: list[IntMatrix]
    iso_flags: list[bool]
    forms: list[SmithForm | None]

    @property
    def is_iso(self) -> bool:
        return all(self.iso_flags)

    def matrix(self, k: int) -> IntMatrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return IntMatrix(self.target.group(k).gens.cols, self.source.group(k).gens.cols)

    def to_json(self) -> dict:
        return {
            "matrices": [m.to_lists() for m in self.matrices],
            "iso_by_degree": list(self.iso_flags),
            "iso": self.is_iso,
        }


def is_group_iso(
    source: HomologyGroup, target: HomologyGroup, matrix: IntMatrix
) -> bool:
    """Surjectivity test onto the presented target between groups with equal
    invariants; finitely generated abelian groups are Hopfian, so a surjection
    between isomorphic groups is an isomorphism."""
    if source.invariants() != target.invariants():
        return False
    return SmithForm(target.with_relations(matrix)).onto()


def induced_homology(
    f: SMap,
    source_profile: HomologyProfile | None = None,
    target_profile: HomologyProfile | None = None,
) -> InducedHomology:
    """The map f induces on homology: each source generator is pushed
    through f.value onto the target's cells (a degenerate image
    contributes 0) and expressed in the target's generators."""
    src = source_profile if source_profile is not None else homology(f.source)
    tgt = target_profile if target_profile is not None else homology(f.target)
    matrices, flags, forms = [], [], []
    for k in range(max(len(src.groups), len(tgt.groups))):
        if k >= len(tgt.groups) and tgt.truncated_at is not None:
            raise TruncationError(
                f"target truncated at degree {tgt.truncated_at}: "
                f"the induced map in degree {k} is not determined"
            )
        sg, tg = src.group(k), tgt.group(k)
        cells = f.source.n_cells(k)
        index = {c: i for i, c in enumerate(f.target.n_cells(k))}
        cols = []
        for gen in sg.gens.columns():
            image = [0] * len(index)
            for c, cell_id in zip(gen, cells):
                if c:
                    ref = f.value(k, cell_id)
                    if not ref.word:
                        image[index[ref.cell]] += c
            coords = tg.coordinates(image)
            if coords is None:
                raise SimplicialError("image of a cycle is not a cycle")
            cols.append(coords)
        matrix = IntMatrix.from_columns(len(tg.orders), cols)
        form = None
        if sg.invariants() == tg.invariants():
            form = SmithForm(tg.with_relations(matrix))
        matrices.append(matrix)
        flags.append(form is not None and form.onto())
        forms.append(form)
    return InducedHomology(src, tgt, matrices, flags, forms)


# -- point-set style invariants ----------------------------------------------


def pi0(x: SimplicialSet) -> tuple[int, dict[str, str]]:
    """Path components: count and a vertex -> representative labeling."""
    parent: dict[str, str] = {v: v for v in x.n_cells(0)}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in x.n_cells(1):
        faces = x.face_tuple(1, e)
        a, b = find(faces[0].cell), find(faces[1].cell)
        if a != b:
            a, b = sorted((a, b))
            parent[b] = a
    labels = {v: find(v) for v in x.n_cells(0)}
    return len(set(labels.values())), labels


def euler_characteristic(x: SimplicialSet) -> int:
    """Alternating sum of nondegenerate cell counts; exact only untruncated."""
    if x.truncated_at is not None:
        raise TruncationError(
            f"object truncated at degree {x.truncated_at}: Euler characteristic "
            "of the full object is not determined"
        )
    return sum(c if n % 2 == 0 else -c for n, c in enumerate(x.counts()))
