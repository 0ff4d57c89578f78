"""SimplicialSet.validate and face against plain references.

validate checks each face with one table lookup and the simplicial
identities on rows of faces, and face takes one step of the rule for
d_i s_w.  The references here are the plain versions they replace: the
per-face checks, and the identities computed through `ref_act`, the
memo-free word arithmetic of test_lifting_reference (`act` itself is
now built from `face`, so it is no reference).  Both must give the same
outcome and the same message on valid objects of every kind and on
several hundred seeded single-edit damages, and face must agree with
`ref_act` on every simplex up to one degree above the dimension.
"""

import random
from itertools import combinations
from pathlib import Path

import pytest

from sslift import words as W
from sslift.cat import Nerve, cyclic_group_category
from sslift.corpus import circle
from sslift.formats import load_path
from sslift.products import Product
from sslift.sset import (
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    ValidationError,
    boundary,
    horn,
    opposite,
    standard_simplex,
)
from test_lifting_reference import ref_act

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- the references -----------------------------------------------------------


def reference_face(x, r, i):
    """d_i r by ref_act, with face's errors: SimplicialError for a degree 0
    ref, a bad word, a missing cell or a degenerate face of a
    semi-simplicial set, and delta_values' ValueError for a bad index."""
    if r.degree < 1:
        raise SimplicialError("degree 0 simplices have no faces")
    delta = W.delta_values(i, r.degree)
    try:
        out = ref_act(x, r, delta)
    except ValueError as exc:
        raise SimplicialError(str(exc)) from None
    if out.word and not x.simplicial:
        raise SimplicialError("degenerate simplex in a semi-simplicial set")
    return out


def reference_validate(x):
    """Every face checked field by field, every identity through ref_act."""
    for n, cell_id, faces in x.cell_items():
        if n == 0:
            if faces:
                raise ValidationError(f"vertex {cell_id!r} must have no faces")
            continue
        if len(faces) != n + 1:
            raise ValidationError(
                f"cell {cell_id!r} of degree {n} has {len(faces)} faces, wants {n + 1}"
            )
        for i, f in enumerate(faces):
            if not isinstance(f, SimplexRef):
                raise ValidationError(f"face {i} of {cell_id!r} is not a SimplexRef")
            if f.degree != n - 1:
                raise ValidationError(
                    f"face {i} of {cell_id!r} has degree {f.degree}, wants {n - 1}"
                )
            if not W.is_word(f.word):
                raise ValidationError(f"face {i} of {cell_id!r}: bad word {f.word}")
            if f.word:
                if not x.simplicial:
                    raise ValidationError(
                        f"face {i} of {cell_id!r} is degenerate in a semi-simplicial set"
                    )
                if f.word[0] > n - 2:
                    raise ValidationError(f"face {i} of {cell_id!r}: word {f.word} out of range")
            if not x.has_cell(f.cell_degree, f.cell):
                raise ValidationError(f"face {i} of {cell_id!r} targets missing cell {f.cell!r}")
    for n, cell_id, _ in x.cell_items():
        if n < 2:
            continue
        top = SimplexRef(n, (), cell_id)
        for j in range(1, n + 1):
            dj = reference_face(x, top, j)
            for i in range(j):
                if reference_face(x, dj, i) != reference_face(x, reference_face(x, top, i), j - 1):
                    raise ValidationError(
                        f"simplicial identity fails on {cell_id!r} at (i,j)=({i},{j})"
                    )


def outcome(check, *args):
    """None if check passes, else the type and message of what it raised."""
    try:
        check(*args)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)
    return None


# -- objects ------------------------------------------------------------------


def cells_of(x):
    return {n: [(c, list(x.face_tuple(n, c))) for c in x.n_cells(n)] for n in x.degrees()}


def rebuilt(x, cells, simplicial=None):
    return SimplicialSet(
        cells,
        simplicial=x.simplicial if simplicial is None else simplicial,
        truncated_at=x.truncated_at,
    )


def semi(x):
    """x as a semi-simplicial set; x must have no degenerate faces."""
    return rebuilt(x, cells_of(x), simplicial=False)


def z_nerve(n, cap):
    return Nerve(cyclic_group_category(n), cap).sset


def fixture_objects():
    out = {"circle": circle()}
    for path in sorted(FIXTURES.glob("*.ssx")):
        obj = load_path(str(path))
        if isinstance(obj, SimplicialSet):
            out[path.stem] = obj
        else:
            out[f"{path.stem}.source"] = obj.source
            out[f"{path.stem}.target"] = obj.target
    return out


def valid_objects():
    out = dict(fixture_objects())
    for n in range(5):
        out[f"simplex{n}"] = standard_simplex(n)
    for n in range(6):
        out[f"boundary{n}"] = boundary(n)
    for n in range(1, 5):
        for i in range(n + 1):
            out[f"horn{n},{i}"] = horn(n, i)
    for g in range(1, 5):
        for cap in range(3, 7):
            out[f"Z/{g} cap {cap}"] = z_nerve(g, cap)
    out["Z/5 cap 3"] = z_nerve(5, 3)
    for name in ("boundary3", "horn3,1", "Z/3 cap 4", "circle", "double_cover.source"):
        out[f"op {name}"] = opposite(out[name])
    out["Δ1×Δ1"] = Product(standard_simplex(1), standard_simplex(1)).sset
    out["Δ2×Δ1"] = Product(standard_simplex(2), standard_simplex(1)).sset
    out["circle×Δ1"] = Product(circle(), standard_simplex(1)).sset
    out["Z/2 cap 3×Δ1"] = Product(z_nerve(2, 3), standard_simplex(1)).sset
    out["semi simplex3"] = semi(standard_simplex(3))
    out["semi boundary4"] = semi(boundary(4))
    v = SimplexRef(0, (), "v")
    out["semi loop"] = SimplicialSet({0: [("v", [])], 1: [("e", [v, v])]}, simplicial=False)
    return out


VALID = valid_objects()


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_objects_pass_both(name):
    x = VALID[name]
    assert outcome(reference_validate, x) is None
    assert outcome(x.validate) is None


# -- seeded damages -----------------------------------------------------------


def pick_face(rng, cells, least=1):
    """A random (degree, cell index, face index) with degree >= least."""
    n = rng.choice([n for n, layer in cells.items() if n >= least and layer])
    k = rng.randrange(len(cells[n]))
    return n, k, rng.randrange(len(cells[n][k][1]))


def swap_faces(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    faces = cells[n][k][1]
    j = rng.choice([j for j in range(len(faces)) if j != i])
    faces[i], faces[j] = faces[j], faces[i]


def change_word(rng, x, cells):
    n, k, i = pick_face(rng, cells, least=2)
    d = n - 1
    f = cells[n][k][1][i]
    words = [w for size in range(d + 1) for w in combinations(range(d - 1, -1, -1), size)]
    cells[n][k][1][i] = f._replace(word=rng.choice([w for w in words if w != f.word]))


def word_out_of_range(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    top = n - 1 + rng.randrange(2)
    word = rng.choice([(top,), (top, 0)]) if top else (top,)
    cells[n][k][1][i] = f._replace(word=word)


def word_not_decreasing(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    word = rng.choice([(0, 1), (0, 0), (1, 1), (-1,), (0, -1), [0], (0.0,), ("0",), (True,)])
    cells[n][k][1][i] = f._replace(word=word)


def missing_cell(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    other = rng.choice([c for m, layer in cells.items() if m != f.cell_degree for c, _ in layer]
                       or ["nowhere"])
    cells[n][k][1][i] = f._replace(cell=rng.choice(["nowhere", other]))


def wrong_degree(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    cells[n][k][1][i] = f._replace(degree=f.degree + rng.choice([-1, 1, 2]))


def wrong_face_count(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    faces = cells[n][k][1]
    if rng.random() < 0.5:
        del faces[i]
    else:
        faces.insert(i, faces[i])


def not_a_ref(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    cells[n][k][1][i] = rng.choice([tuple(f), str(f), None, [f.degree, f.word, f.cell]])


def degenerate_in_semi(rng, x, cells):
    n, k, i = pick_face(rng, cells)
    f = cells[n][k][1][i]
    cells[n][k][1][i] = f._replace(word=(0,))


def breaks_identities(rng, x, cells):
    n, k, i = pick_face(rng, cells, least=2)
    f = cells[n][k][1][i]
    cells[n][k][1][i] = rng.choice([r for r in x.refs(n - 1) if r != f])


def breaks_identities_twice(rng, x, cells):
    n, k, i = pick_face(rng, cells, least=2)
    faces = cells[n][k][1]
    for j in (i, rng.choice([j for j in range(n + 1) if j != i])):
        faces[j] = rng.choice(x.refs(n - 1))


def vertex_with_faces(rng, x, cells):
    k = rng.randrange(len(cells[0]))
    cells[0][k] = (cells[0][k][0], [SimplexRef(0, (), cells[0][0][0])])


DAMAGE_BASES = {
    "simplex3": lambda: standard_simplex(3),
    "boundary4": lambda: boundary(4),
    "horn3,1": lambda: horn(3, 1),
    "Z/3 cap 4": lambda: z_nerve(3, 4),
    "op Z/2 cap 4": lambda: opposite(z_nerve(2, 4)),
    "Δ2×Δ1": lambda: Product(standard_simplex(2), standard_simplex(1)).sset,
    "circle": circle,
    "collapse_tower.source": lambda: VALID["collapse_tower.source"],
    "double_cover.source": lambda: VALID["double_cover.source"],
    "semi simplex3": lambda: semi(standard_simplex(3)),
    "semi boundary4": lambda: semi(boundary(4)),
}
SEMI_BASES = sorted(b for b in DAMAGE_BASES if b.startswith("semi"))
TOP2_BASES = sorted(b for b, build in DAMAGE_BASES.items() if build().dimension >= 2)

DAMAGES = {
    "swap": (swap_faces, sorted(DAMAGE_BASES)),
    "word": (change_word, TOP2_BASES),
    "word out of range": (word_out_of_range, sorted(DAMAGE_BASES)),
    "word not decreasing": (word_not_decreasing, sorted(DAMAGE_BASES)),
    "missing cell": (missing_cell, sorted(DAMAGE_BASES)),
    "degree": (wrong_degree, sorted(DAMAGE_BASES)),
    "face count": (wrong_face_count, sorted(DAMAGE_BASES)),
    "not a ref": (not_a_ref, sorted(DAMAGE_BASES)),
    "degenerate in semi": (degenerate_in_semi, SEMI_BASES),
    "identities": (breaks_identities, TOP2_BASES),
    "identities, two faces": (breaks_identities_twice, TOP2_BASES),
    "vertex with faces": (vertex_with_faces, sorted(DAMAGE_BASES)),
}
SEEDS = range(396)


def damaged(seed):
    """One single-edit damage of a base object, and the kind of edit."""
    rng = random.Random(seed)
    kind = sorted(DAMAGES)[seed % len(DAMAGES)]
    damage, bases = DAMAGES[kind]
    x = DAMAGE_BASES[rng.choice(bases)]()
    cells = cells_of(x)
    damage(rng, x, cells)
    return kind, rebuilt(x, cells)


def test_seeded_damages_give_the_reference_outcome():
    failed = {kind: 0 for kind in DAMAGES}
    identity_failures = 0
    for seed in SEEDS:
        kind, x = damaged(seed)
        want = outcome(reference_validate, x)
        got = outcome(x.validate)
        assert got == want, (seed, kind)
        if want is not None:
            failed[kind] += 1
            identity_failures += "simplicial identity" in want[1]
    assert len(SEEDS) >= 300
    # every kind of damage is caught somewhere, and the identity pass is reached
    assert all(failed.values()), failed
    assert failed["identities"] >= len(SEEDS) // len(DAMAGES) // 2, failed
    assert identity_failures >= 40


def test_first_identity_failure_in_degree_j_i_order():
    """Two failing identities, (1, 2) and (0, 3): the first in (j, i)
    order is reported, as the reference does."""
    x = standard_simplex(3)
    cells = cells_of(x)

    def ref(n, cell):
        return SimplexRef(n, (), cell)

    # edges 1 -> 2 and 0 -> 3 parallel to 1.2 and 0.3, and triangles that
    # use them in place of 1.2 as face 0 of 0.1.2 and of 0.3 as face 1 of 0.1.3
    cells[1] += [("e", [ref(0, "2"), ref(0, "1")]), ("f", [ref(0, "3"), ref(0, "0")])]
    cells[2] += [
        ("x3", [ref(1, "e"), ref(1, "0.2"), ref(1, "0.1")]),
        ("x2", [ref(1, "1.3"), ref(1, "f"), ref(1, "0.1")]),
    ]
    cells[3] = [("0.1.2.3", [ref(2, "1.2.3"), ref(2, "0.2.3"), ref(2, "x2"), ref(2, "x3")])]
    y = rebuilt(x, cells)
    want = (ValidationError, "simplicial identity fails on '0.1.2.3' at (i,j)=(1,2)")
    assert outcome(reference_validate, y) == want
    assert outcome(y.validate) == want


@pytest.mark.parametrize("field, value", [
    ("word", lambda f: tuple(float(v) for v in f.word)),
    ("word", lambda f: tuple(bool(v) for v in f.word)),
    ("degree", lambda f: float(f.degree)),
    ("degree", lambda f: bool(f.degree)),
])
def test_numbers_equal_to_ints_are_checked_as_the_reference_does(field, value):
    """Values that hash and compare like ints but are not ints: the table
    lookup must not accept what the full check would refuse."""
    x = z_nerve(3, 4)
    cells = cells_of(x)
    # the last degenerate face of degree 1, met after its word is in the table
    k, i = max((k, i) for k, (_, faces) in enumerate(cells[2])
               for i, f in enumerate(faces) if f.word)
    f = cells[2][k][1][i]
    cells[2][k][1][i] = f._replace(**{field: value(f)})
    y = rebuilt(x, cells)
    assert outcome(y.validate) == outcome(reference_validate, y)


# -- face against ref_act -----------------------------------------------------

FACE_OBJECTS = sorted(name for name in VALID if "cap 6" not in name)


@pytest.mark.parametrize("name", FACE_OBJECTS)
def test_face_matches_act_up_to_one_degree_above_the_dimension(name):
    x = VALID[name]
    for n in range(1, x.dimension + 2):
        for r in x.refs(n):
            for i in range(n + 1):
                assert x.face(r, i) == reference_face(x, r, i), (r, i)


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the exception type is the outcome under test
        return type(exc)
    return None


@pytest.mark.parametrize("name", ["simplex3", "Z/3 cap 4", "circle×Δ1", "semi boundary4"])
def test_face_rejects_bad_input_as_act_does(name):
    x = VALID[name]
    top = x.dimension
    cell = x.n_cells(top)[0]
    vertex = x.n_cells(0)[0]
    bad = [
        (SimplexRef(0, (), vertex), 0),  # degree 0
        (SimplexRef(top + 1, (top + 1,), cell), 0),  # word out of range
        (SimplexRef(top, (), "nowhere"), 0),  # missing cell
    ]
    for r, i in bad:
        want = raised(reference_face, x, r, i)
        assert want is not None, (r, i)
        assert raised(x.face, r, i) is want, (r, i)
    # refs are memo keys, so an unhashable word raises TypeError in both
    # (ref_act, without memos, takes the list for a word)
    r = SimplexRef(top, [0], cell)
    assert raised(x.face, r, 0) is TypeError
    assert raised(x.act, r, W.delta_values(0, top)) is TypeError
    # d_0 s_top is s_(top-1) d_0: a degenerate face, fine unless x is semi-simplicial
    r = SimplexRef(top + 1, (top,), cell)
    want = raised(reference_face, x, r, 0)
    assert want is (None if x.simplicial else SimplicialError)
    assert raised(x.face, r, 0) is want
    # a bad index raises SimplicialError, like every other bad input; the
    # act-based face let delta_values' ValueError through
    for i in (-1, top + 1):
        assert raised(reference_face, x, SimplexRef(top, (), cell), i) is ValueError
        assert raised(x.face, SimplexRef(top, (), cell), i) is SimplicialError
