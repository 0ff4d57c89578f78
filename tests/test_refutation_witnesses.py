"""Every refutation carries a witness that re-validates on its own.

`certify_fibration_class` runs at caps 2-4 over the map fixtures and
seeded random poset functors.  Each refuted certificate's witness is
checked by scans of the SimplexRef API, outside the engine's tables: a
horn witness is a valid problem with no filler; an edge witness (g, c)
has no edge over g ending at c (starting at c, on the cocartesian side)
that passes the horn test.
"""

import random
from pathlib import Path

import pytest

from sslift.cat import nerve_functor
from sslift.corpus import random_poset, random_poset_functor
from sslift.formats import load_path
from sslift.lifting import (
    HornProblem,
    certify_fibration_class,
    count_horn_lifts,
    is_cartesian_edge,
    is_cocartesian_edge,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAP_FIXTURES = [
    "boundary_collapse.ssx",
    "collapse_tower.ssx",
    "cylinder_proj.ssx",
    "double_cover.ssx",
    "edge_into_circle.ssx",
    "interval_vertex.ssx",
]
SEEDS = range(12)


def random_nerve_map(seed):
    rng = random.Random(seed)
    while True:
        c = random_poset(rng, rng.randint(2, 5), density=0.5)
        d = random_poset(rng, rng.randint(2, 4), density=0.5)
        try:
            return nerve_functor(random_poset_functor(rng, c, d))[0]
        except ValueError:
            continue


def check_witness(p, cert):
    w = cert.witness
    if isinstance(w, HornProblem):
        w.validate(p)
        assert count_horn_lifts(p, w) == 0
        return
    g, c = w
    x = p.source
    # the lifts of g with the prescribed end: target vertex for a
    # cartesian lift, source vertex for a cocartesian one
    end = 0 if cert.kind == "cartesian" else 1
    lifts = [f for f in x.refs(1) if p.apply(f) == g and x.face(f, end) == c]
    if cert.effective_cap < 2:
        assert lifts == []
        return
    test = is_cartesian_edge if cert.kind == "cartesian" else is_cocartesian_edge
    assert not any(test(p, f, cert.effective_cap)[0] for f in lifts)


def refuted(p, cap):
    rep = certify_fibration_class(p, cap)
    return [c for c in (rep.inner, rep.cartesian, rep.cocartesian) if c.status == "refuted"]


@pytest.mark.parametrize("name", MAP_FIXTURES)
def test_fixture_refutations_carry_checkable_witnesses(name):
    p = load_path(str(FIXTURES / name))
    for cap in range(2, 5):
        for cert in refuted(p, cap):
            check_witness(p, cert)


def test_random_functor_refutations_carry_checkable_witnesses():
    kinds = set()
    for seed in SEEDS:
        p = random_nerve_map(seed)
        for cap in range(2, 5):
            for cert in refuted(p, cap):
                check_witness(p, cert)
                kinds.add((cert.kind, type(cert.witness).__name__))
    # the seeds reach edge witnesses on both sides
    assert {("cartesian", "tuple"), ("cocartesian", "tuple")} <= kinds
