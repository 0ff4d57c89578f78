"""Answers at a cap against the same answers two degrees further up.

A nerve with a composable cycle is built only up to a cap, and a horn
certificate checks problems only up to one.  Raising the cap by two can
add degrees to an answer, but must not change a degree the answer at
the lower cap already reports: homology invariants, induced and
transport iso flags, and certificate outcomes.  The families are Z/n
nerves, random poset nerves, comma nerves and the map fixtures.
"""

import random
from pathlib import Path

import pytest

from sslift.cat import (
    Functor,
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    nerve,
    nerve_functor,
)
from sslift.corpus import random_poset, random_poset_functor
from sslift.formats import load_path
from sslift.homology import homology, induced_homology
from sslift.lifting import certify_fibration_class
from sslift.products import Product
from sslift.sset import SMap, SimplexRef, constant_map, standard_simplex, terminal_map
from sslift.transport import transport_homology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CAPS = (1, 2, 3)


def cyclic_quotient(n: int, m: int) -> Functor:
    """Z/n -> Z/m, g_i to g_(i mod m), for m dividing n."""
    return Functor(
        cyclic_group_category(n),
        cyclic_group_category(m),
        {"*": "*"},
        {f"g{i}": f"g{i % m}" for i in range(n)},
    )


def poset_functors(count: int, seed: int) -> list[Functor]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = random_poset(rng, rng.randint(1, 4))
        d = random_poset(rng, rng.randint(1, 3))
        try:
            out.append(random_poset_functor(rng, c, d))
        except ValueError:
            continue
    return out


# -- the families, each a function of the cap -----------------------------------


def object_families():
    """(label, cap -> simplicial set)."""
    out = [(f"Z/{n}", lambda c, n=n: nerve(cyclic_group_category(n), c).sset) for n in (2, 3, 4)]
    out.append(("chain[4]", lambda c: nerve(chain_poset(4), c).sset))
    rng = random.Random(20261022)
    for k in range(12):
        p = random_poset(rng, rng.randint(3, 6), density=0.6)
        out.append((f"poset {k}", lambda c, p=p: nerve(p, c).sset))
    for label, f in [("chain[2]", identity_functor(chain_poset(2))),
                     ("Z/2", identity_functor(cyclic_group_category(2)))]:
        comma = comma_category(f)[0]
        out.append((f"comma of {label}", lambda c, k=comma: nerve(k, c).sset))
    for k, f in enumerate(poset_functors(8, 20261023)):
        comma = comma_category(f)[0]
        out.append((f"comma {k}", lambda c, k=comma: nerve(k, c).sset))
    return out


def map_families():
    """(label, cap -> simplicial map) whose objects grow with the cap."""
    out = []
    for n in (2, 3, 4):
        z = cyclic_group_category(n)
        out.append((f"Z/{n} terminal", lambda c, z=z: terminal_map(nerve(z, c).sset)))
        out.append((f"Z/{n} x Δ^1 left",
                    lambda c, z=z: Product(nerve(z, c).sset, standard_simplex(1)).to_left))
        out.append((f"Z/{n} identity", lambda c, z=z: nerve_functor(identity_functor(z), c)[0]))
    for n, m in ((4, 2), (6, 3), (6, 2)):
        f = cyclic_quotient(n, m)
        out.append((f"Z/{n} -> Z/{m}", lambda c, f=f: nerve_functor(f, c)[0]))
    for k, f in enumerate([identity_functor(chain_poset(2)), *poset_functors(6, 20261024)]):
        _, to_c, to_d = comma_category(f)
        out.append((f"comma {k} to C", lambda c, g=to_c: nerve_functor(g, c)[0]))
        out.append((f"comma {k} to D", lambda c, g=to_d: nerve_functor(g, c)[0]))
    return out


def fixture_maps():
    maps = ((path.name, load_path(str(path))) for path in sorted(FIXTURES.glob("*.ssx")))
    return [(name, m) for name, m in maps if isinstance(m, SMap)]


OBJECTS = object_families()
MAPS = map_families()
FIXTURE_MAPS = fixture_maps()


def ids(family):
    return [label for label, _ in family]


# -- the comparisons ------------------------------------------------------------


def assert_homology_agrees(low, high, label):
    if low.truncated_at is not None:
        assert len(low.groups) <= low.truncated_at, label
    for k, group in enumerate(low.groups):
        # an untruncated profile stops at its dimension; its groups above are 0
        assert k < len(high.groups) or high.truncated_at is None, (label, k)
        assert group.invariants() == high.group(k).invariants(), (label, k)


def assert_flags_agree(low: list[bool], high: list[bool], label):
    for k, flag in enumerate(low):
        if k < len(high):
            assert flag == high[k], (label, k, low, high)


def assert_certificates_agree(low, high, label):
    """low at some cap, high at a cap two above; both of one kind."""
    for kind in ("inner", "cartesian", "cocartesian"):
        a, b = getattr(low, kind), getattr(high, kind)
        where = (label, kind, a.to_json(), b.to_json())
        if a.status == "refuted":
            assert b.status == "refuted", where
        if a.status == "refuted" and kind == "inner":
            assert a.witness.to_json() == b.witness.to_json(), where
        if a.certified and a.conclusive:
            assert b.certified, where
        if b.status == "refuted" and kind == "inner" and b.witness.n <= a.effective_cap:
            assert a.status == "refuted", where
        if a.status != "refuted" and b.status != "refuted":
            assert b.problems_checked >= a.problems_checked, where


# -- the tests ------------------------------------------------------------------


@pytest.mark.parametrize("label, build", OBJECTS, ids=ids(OBJECTS))
def test_homology_agrees_two_caps_up(label, build):
    for c in CAPS:
        assert_homology_agrees(homology(build(c)), homology(build(c + 2)), (label, c))


@pytest.mark.parametrize("label, build", MAPS, ids=ids(MAPS))
def test_induced_flags_agree_two_caps_up(label, build):
    for c in CAPS:
        low, high = induced_homology(build(c)), induced_homology(build(c + 2))
        assert_homology_agrees(low.source, high.source, (label, c, "source"))
        assert_flags_agree(low.iso_flags, high.iso_flags, (label, c))


@pytest.mark.parametrize("label, build", MAPS, ids=ids(MAPS))
def test_transport_flags_agree_two_caps_up(label, build):
    seen = 0
    for c in CAPS:
        low_map, high_map = build(c), build(c + 2)
        for edge in low_map.target.refs(1):
            for backward in (False, True):
                low = transport_homology(low_map, edge, backward=backward)
                high = transport_homology(high_map, edge, backward=backward)
                assert_homology_agrees(low.source_profile, high.source_profile, (label, c, edge))
                assert_flags_agree(low.iso_flags, high.iso_flags, (label, c, edge, backward))
                seen += 1
    assert seen


@pytest.mark.parametrize("label, build", MAPS, ids=ids(MAPS))
def test_certificates_agree_two_caps_up(label, build):
    for c in (2, 3):
        low = certify_fibration_class(build(c), cap=c)
        high = certify_fibration_class(build(c + 2), cap=c + 2)
        assert_certificates_agree(low, high, (label, c))


@pytest.mark.parametrize("label, p", FIXTURE_MAPS, ids=ids(FIXTURE_MAPS))
def test_fixture_certificates_agree_two_caps_up(label, p):
    for c in (2, 3, 4):
        low = certify_fibration_class(p, cap=c)
        high = certify_fibration_class(p, cap=c + 2)
        assert_certificates_agree(low, high, (label, c))


@pytest.mark.xfail(
    strict=True,
    reason="induced_homology reports iso flags in degrees a truncated source never computed",
)
def test_induced_flags_stop_at_a_truncated_source():
    def build(c):
        return constant_map(
            nerve(cyclic_group_category(2), c).sset, standard_simplex(3), SimplexRef(0, (), "0")
        )

    low, high = induced_homology(build(3)), induced_homology(build(5))
    assert low.iso_flags == [True, False, True, True]
    assert high.iso_flags == [True, False, True, False, True]
    assert_flags_agree(low.iso_flags, high.iso_flags, "Z/2 at cap 3 into Δ^3")
