"""Integral simplicial homology via Smith normal form.

Chain complexes are built from the nondegenerate cells (normalized chains:
degenerate faces contribute zero), all arithmetic is over Python integers,
so coefficients never overflow.  Homology groups carry chosen integral
generators so that maps of simplicial sets induce explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            self.data = [[int(v) for v in row] for row in data]
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
                m.data[i][j] = int(v)
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

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.data]


def _smith_tracked(m: IntMatrix):
    """Smith normal form with its transforms u and v, and u's inverse.

    Returns (d, u, v, u_inv) with u @ m @ v == d, u and v unimodular,
    and d diagonal with a divisibility chain.
    """
    a = m.copy()
    rows, cols = a.rows, a.cols
    u = IntMatrix.identity(rows)
    uinv = IntMatrix.identity(rows)
    v = IntMatrix.identity(cols)

    def row_swap(i, j):
        a.data[i], a.data[j] = a.data[j], a.data[i]
        u.data[i], u.data[j] = u.data[j], u.data[i]
        for r in uinv.data:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a.data:
            r[i], r[j] = r[j], r[i]
        for r in v.data:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        a.data[i] = [x + c * y for x, y in zip(a.data[i], a.data[j])]
        u.data[i] = [x + c * y for x, y in zip(u.data[i], u.data[j])]
        for r in uinv.data:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for r in a.data:
            r[i] += c * r[j]
        for r in v.data:
            r[i] += c * r[j]

    def row_negate(i):
        a.data[i] = [-x for x in a.data[i]]
        u.data[i] = [-x for x in u.data[i]]
        for r in uinv.data:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a.data[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a.data[t][t] < 0:
            row_negate(t)
        p = a.data[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a.data[i][t]:
                q = a.data[i][t] // p
                row_add(i, t, -q)
                if a.data[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a.data[t][j]:
                q = a.data[t][j] // p
                col_add(j, t, -q)
                if a.data[t][j]:
                    dirty = True
        if dirty:
            continue
        stuck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a.data[i][j] % p:
                    row_add(t, i, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        t += 1
    return a, u, v, uinv


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with d = u @ matrix @ v in Smith normal form."""
    if not isinstance(matrix, IntMatrix):
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        matrix = IntMatrix(rows, cols, matrix)
    d, u, v, _ = _smith_tracked(matrix)
    return d, u, v


class SmithForm:
    """One tracked factorization u @ a @ v == d of an integer matrix a.

    Factor a matrix once and answer every solve and kernel question about
    it from the factors.  Only u, v and the diagonal of d are kept, which
    is all that solving and the kernel need.
    """

    __slots__ = ("cols", "u", "v", "diagonal")

    def __init__(self, a: IntMatrix):
        d, u, v, _ = _smith_tracked(a)
        self.cols = a.cols
        self.u = u
        self.v = v
        self.diagonal = [d.data[t][t] for t in range(min(a.rows, a.cols))]

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

    def kernel(self) -> IntMatrix:
        """Columns spanning the integer kernel of a."""
        free = [j for j in range(self.cols) if j >= len(self.diagonal) or not self.diagonal[j]]
        return IntMatrix.from_columns(self.cols, [self.v.column(j) for j in free])


def solve_integer(a: IntMatrix, b: list[int]) -> list[int] | None:
    """One integer solution x of a @ x = b, or None."""
    return SmithForm(a).solve(b)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns spanning the integer kernel of a."""
    return SmithForm(a).kernel()


# -- chain complexes ---------------------------------------------------------


@dataclass
class ChainComplex:
    """Normalized chains: one generator per nondegenerate cell."""

    basis: list[list[str]]
    boundaries: list[IntMatrix]  # boundaries[k]: C_k -> C_{k-1}, k >= 1

    @property
    def dimension(self) -> int:
        return len(self.basis) - 1

    def rank(self, k: int) -> int:
        if 0 <= k <= self.dimension:
            return len(self.basis[k])
        return 0

    def boundary(self, k: int) -> IntMatrix:
        if 1 <= k <= self.dimension:
            return self.boundaries[k - 1]
        return IntMatrix(self.rank(k - 1), self.rank(k))

    def validate(self) -> None:
        for k in range(2, self.dimension + 1):
            if not (self.boundary(k - 1) @ self.boundary(k)).is_zero():
                raise SimplicialError(f"boundary squared nonzero in degree {k}")


def chain_complex(x: SimplicialSet) -> ChainComplex:
    """Chain complex of a simplicial or semi-simplicial set."""
    basis = [x.n_cells(n) for n in x.degrees()]
    index = [{c: i for i, c in enumerate(layer)} for layer in basis]
    boundaries = []
    for k in range(1, x.dimension + 1):
        m = IntMatrix(len(basis[k - 1]), len(basis[k]))
        for j, cell_id in enumerate(basis[k]):
            for i, f in enumerate(x.face_tuple(k, cell_id)):
                if f.word:
                    continue
                m.data[index[k - 1][f.cell]][j] += -1 if i % 2 else 1
        boundaries.append(m)
    return ChainComplex(basis, boundaries)


# -- homology groups ---------------------------------------------------------


@dataclass
class HomologyGroup:
    """One homology group with chosen integral generators.

    orders[i] is 0 for a free generator and t >= 2 for a torsion generator
    of order t; generators are columns of gens in the cell basis.  The
    internal full data (including discarded order-1 generators) supports
    expressing arbitrary cycles in this basis.
    """

    degree: int
    betti: int
    torsion: list[int]
    gens: IntMatrix
    orders: list[int]
    _cycles: SmithForm = field(repr=False, default=None)  # factored cycle basis
    _transform: IntMatrix = field(repr=False, default=None)  # U' with relations diagonal
    _orders_full: list[int] = field(repr=False, default=None)

    def coordinates(self, cycle: list[int]) -> list[int] | None:
        """Coordinates of a cycle in the kept generator basis, reduced."""
        t0 = self._cycles.solve(cycle)
        if t0 is None:
            return None
        t = self._transform.mul_vec(t0)
        out = []
        for val, order in zip(t, self._orders_full):
            if order == 1:
                continue
            out.append(val % order if order else val)
        return out

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
        return _trivial_group(k, 0)

    def betti_numbers(self) -> tuple[int, ...]:
        return tuple(g.betti for g in self.groups)

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


def _trivial_group(degree: int, rank_cells: int) -> HomologyGroup:
    return HomologyGroup(
        degree,
        0,
        [],
        IntMatrix(rank_cells, 0),
        [],
        _cycles=SmithForm(IntMatrix(rank_cells, 0)),
        _transform=IntMatrix.identity(0),
        _orders_full=[],
    )


def homology_of_complex(cx: ChainComplex, top: int | None = None) -> HomologyProfile:
    groups = []
    limit = cx.dimension if top is None else top
    for k in range(limit + 1):
        n_k = cx.rank(k)
        kern = kernel_basis(cx.boundary(k))
        cycles = SmithForm(kern)
        img = cx.boundary(k + 1)
        rels = []
        for col in img.columns():
            t = cycles.solve(col)
            if t is None:
                raise SimplicialError("boundary image escapes the cycle lattice")
            rels.append(t)
        rel_matrix = IntMatrix.from_columns(kern.cols, rels)
        d, up, _, upinv = _smith_tracked(rel_matrix)
        orders_full = []
        for i in range(kern.cols):
            val = d.data[i][i] if i < min(d.rows, d.cols) else 0
            orders_full.append(abs(val))
        gens_full = kern @ upinv
        kept_cols = []
        kept_orders = []
        for i, order in enumerate(orders_full):
            if order == 1:
                continue
            kept_cols.append(gens_full.column(i))
            kept_orders.append(order)
        torsion = sorted(o for o in kept_orders if o)
        betti = sum(1 for o in kept_orders if o == 0)
        groups.append(
            HomologyGroup(
                k,
                betti,
                torsion,
                IntMatrix.from_columns(n_k, kept_cols),
                kept_orders,
                _cycles=cycles,
                _transform=up,
                _orders_full=orders_full,
            )
        )
    return HomologyProfile(groups)


def homology(x: SimplicialSet) -> HomologyProfile:
    """Integral homology of a finite (semi-)simplicial set.

    For a truncated object, groups are only computed strictly below the
    truncation degree (the top group would need missing cells) and the
    profile records the cap.
    """
    cx = chain_complex(x)
    if x.truncated_at is not None:
        profile = homology_of_complex(cx, top=max(x.truncated_at - 1, -1))
        profile.truncated_at = x.truncated_at
        return profile
    return homology_of_complex(cx)


# -- induced maps -------------------------------------------------------------


def chain_map(f: SMap) -> list[IntMatrix]:
    """Matrices of the induced map on normalized chains, degree by degree."""
    src, tgt = f.source, f.target
    top = max(src.dimension, tgt.dimension)
    out = []
    for k in range(top + 1):
        src_cells = src.n_cells(k)
        tgt_index = {c: i for i, c in enumerate(tgt.n_cells(k))}
        m = IntMatrix(len(tgt_index), len(src_cells))
        for j, cell_id in enumerate(src_cells):
            image = f.value(k, cell_id)
            if not image.word:
                m.data[tgt_index[image.cell]][j] = 1
        out.append(m)
    return out


@dataclass
class InducedHomology:
    """An induced map in homology, in the chosen generator bases."""

    source: HomologyProfile
    target: HomologyProfile
    matrices: list[IntMatrix]
    iso_flags: list[bool]

    @property
    def is_iso(self) -> bool:
        return all(self.iso_flags)

    def matrix(self, k: int) -> IntMatrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return IntMatrix(self.target.group(k).gens.cols, self.source.group(k).gens.cols)

    def iso_in_degree(self, k: int) -> bool:
        if 0 <= k < len(self.iso_flags):
            return self.iso_flags[k]
        return self.source.group(k).invariants() == self.target.group(k).invariants()

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
    r = len(target.orders)
    cols = matrix.columns()
    for i, order in enumerate(target.orders):
        if order:
            col = [0] * r
            col[i] = order
            cols.append(col)
    stacked = IntMatrix.from_columns(r, cols)
    d, _, _ = smith_normal_form(stacked)
    invariant = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    rank = sum(1 for val in invariant if val)
    return rank == r and all(abs(val) == 1 for val in invariant[:rank])


def induced_homology(
    f: SMap,
    source_profile: HomologyProfile | None = None,
    target_profile: HomologyProfile | None = None,
) -> InducedHomology:
    src = source_profile if source_profile is not None else homology(f.source)
    tgt = target_profile if target_profile is not None else homology(f.target)
    chains = chain_map(f)
    top = max(len(src.groups), len(tgt.groups))
    matrices = []
    flags = []
    for k in range(top):
        sg = src.group(k)
        tg = tgt.group(k)
        m = chains[k] if k < len(chains) else IntMatrix(tg.gens.rows, sg.gens.rows)
        cols = []
        for col in sg.gens.columns():
            image = m.mul_vec(col)
            coords = tg.coordinates(image)
            if coords is None:
                raise SimplicialError("image of a cycle is not a cycle")
            cols.append(coords)
        matrix = IntMatrix.from_columns(len(tg.orders), cols)
        matrices.append(matrix)
        flags.append(is_group_iso(sg, tg, matrix))
    return InducedHomology(src, tgt, matrices, flags)


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
