"""Nerve faces and nerve-map values against the chain normal form.

Nerve.__init__ looks every face of a chain up among the chains one
degree down, and nerve_functor extends the value on a chain's last face
by the image of its last arrow.  The references here are the versions
they replace: each face, and each value, is the normal form of a whole
chain of arrows (string_normal_form).  Both must agree on cyclic and
acyclic categories, on comma categories and their projections, on the
functor fixtures, and on homomorphisms of cyclic groups that send
arrows inside a chain to identities.
"""

import random
from pathlib import Path

import pytest

from sslift import cat
from sslift.cat import (
    Functor,
    NatTrans,
    Nerve,
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    nerve_functor,
    string_normal_form,
)
from sslift.corpus import random_poset, random_poset_functor
from sslift.formats import load_path
from sslift.sset import SimplexRef

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- the references -----------------------------------------------------------


def ref_faces(nv: Nerve, chain: tuple[str, ...]) -> list[SimplexRef]:
    """The faces of a chain: drop an end arrow, or compose two inner ones
    and normalize the whole chain."""
    c = nv.category
    n = len(chain)
    if n == 1:
        return [SimplexRef(0, (), c.tgt(chain[0])), SimplexRef(0, (), c.src(chain[0]))]
    faces = [SimplexRef(n - 1, (), "|".join(chain[1:]))]
    for i in range(1, n):
        reduced = chain[: i - 1] + (c.compose_pair(chain[i], chain[i - 1]),) + chain[i + 1 :]
        faces.append(string_normal_form(c, reduced, c.src(chain[0])))
    faces.append(SimplexRef(n - 1, (), "|".join(chain[:-1])))
    return faces


def ref_value(f: Functor, src: Nerve, n: int, cell_id: str) -> SimplexRef:
    """The image of a chain: the normal form of its arrows' images."""
    if n == 0:
        return SimplexRef(0, (), f.object_map[cell_id])
    chain = src.chain_of(SimplexRef(n, (), cell_id))
    image = tuple(f.morphism_map[m] for m in chain)
    return string_normal_form(f.target, image, f.object_map[f.source.src(chain[0])])


def assert_faces_match(nv: Nerve) -> None:
    for n, cell_id, faces in nv.sset.cell_items():
        chain = nv.chain_of(SimplexRef(n, (), cell_id))
        # the cell id is the chain, and a vertex has the empty chain
        assert (chain == () if n == 0 else "|".join(chain) == cell_id), (n, cell_id)
        if n:
            assert list(faces) == ref_faces(nv, chain), (n, cell_id)


def assert_values_match(f: Functor, cap=None) -> None:
    m, src, _ = nerve_functor(f, cap)
    m.validate()
    for n, cell_id, _ in src.sset.cell_items():
        assert m.value(n, cell_id) == ref_value(f, src, n, cell_id), (n, cell_id)


# -- the cases ------------------------------------------------------------------


def z_hom(n: int, m: int, k: int) -> Functor:
    """Z/n -> Z/m, g_i -> g_(k i mod m)."""
    f = Functor(
        cyclic_group_category(n),
        cyclic_group_category(m),
        {"*": "*"},
        {f"g{i}": f"g{k * i % m}" for i in range(n)},
    )
    f.validate()
    return f


# the last three send arrows of Z/n inside a chain to the identity
Z_HOMS = {
    "Z4->Z2": (4, 2, 1),
    "Z6->Z3": (6, 3, 1),
    "Z2->Z4": (2, 4, 2),
    "Z3->Z1": (3, 1, 0),
}


def random_functor(seed: int) -> Functor:
    rng = random.Random(seed)
    while True:
        c = random_poset(rng, rng.randint(2, 4), density=0.6)
        d = random_poset(rng, rng.randint(2, 3), density=0.6)
        try:
            return random_poset_functor(rng, c, d)
        except ValueError:
            continue


FUNCTOR_FIXTURES = ("cover_functor.cat", "collapse_functor.cat", "point_a.cat")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("cap", [3, 4, 5, 6])
def test_cyclic_group_nerve_faces(n, cap):
    assert_faces_match(Nerve(cyclic_group_category(n), cap))


@pytest.mark.parametrize("seed", range(20))
def test_random_poset_nerve_faces(seed):
    rng = random.Random(seed)
    assert_faces_match(Nerve(random_poset(rng, rng.randint(0, 7), density=0.5)))


@pytest.mark.parametrize("seed", range(30))
def test_random_functor_comma_faces_and_projections(seed):
    f = random_functor(seed)
    assert_values_match(f)
    comma, to_c, to_d = comma_category(f)
    assert_faces_match(Nerve(comma))
    assert_values_match(to_c)
    assert_values_match(to_d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_identity_comma_faces_and_projections(n):
    comma, to_c, to_d = comma_category(identity_functor(chain_poset(n)))
    assert_faces_match(Nerve(comma))
    assert_values_match(to_c)
    assert_values_match(to_d)


@pytest.mark.parametrize("name", FUNCTOR_FIXTURES)
def test_functor_fixtures(name):
    f = load_path(str(FIXTURES / name))
    assert_faces_match(Nerve(f.source))
    assert_faces_match(Nerve(f.target))
    assert_values_match(f)


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("name", sorted(Z_HOMS))
def test_cyclic_group_homomorphisms(name, cap):
    assert_values_match(z_hom(*Z_HOMS[name]), cap)


def test_building_nerves_and_nerve_maps_normalizes_no_chain(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return string_normal_form(*args)

    monkeypatch.setattr(cat, "string_normal_form", counted)
    # fresh categories, so that no nerve is kept from an earlier test
    for spec in Z_HOMS.values():
        nerve_functor(z_hom(*spec))
    comma, to_c, to_d = comma_category(identity_functor(chain_poset(3)))
    Nerve(comma)
    nerve_functor(to_c)
    nerve_functor(to_d)
    for seed in range(5):
        nerve_functor(random_functor(seed))
    assert calls == []
    # the counter sees the calls the cylinder homotopy still makes
    f = identity_functor(chain_poset(1))
    cat._homotopy_value(NatTrans(f, f, {"0": "id_0", "1": "id_1"}), ("0<1",), "0", (0, 1))
    assert calls


@pytest.mark.parametrize(
    "category",
    [
        lambda: cyclic_group_category(4),
        lambda: chain_poset(4),
        lambda: comma_category(identity_functor(chain_poset(3)))[0],
        lambda: comma_category(random_functor(0))[0],
    ],
    ids=["Z4", "chain4", "chain3-comma", "random0-comma"],
)
def test_equal_nondegenerate_faces_are_one_object(category):
    seen: dict[SimplexRef, SimplexRef] = {}
    shared = 0
    for n, _, faces in Nerve(category()).sset.cell_items():
        for face in faces:
            if not face.word:
                assert seen.setdefault(face, face) is face
                shared += 1
    assert shared > len(seen)
