"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Every test is independent and finishes in well under ten seconds.  The
per-criterion line is written outside pytest's capture so it is visible
in any invocation.
"""

import contextlib
import io
import json
import random
from contextlib import contextmanager
from math import comb
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from sslift.cat import (
    identity_functor,
    is_grothendieck_fibration,
    is_grothendieck_opfibration,
    nerve,
    nerve_functor,
)
from sslift.cli import main
from sslift.corpus import (
    circle,
    double_cover,
    point_functor,
    pseudo_circle,
    random_poset,
    random_poset_functor,
)
from sslift.homology import chain_complex, homology
from sslift.lifting import (
    LiftObstruction,
    certify_fibration_class,
    count_horn_lifts,
    cylinder,
    cylinder_region,
    is_cocartesian_edge,
    lift_homotopy,
    start_map,
)
from sslift.products import Product
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialSet,
    boundary,
    classifying_map,
    constant_map,
    horn,
    restrict_map,
    standard_simplex,
)
from sslift.theoremb import theorem_b_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(capsys, n, label):
    failed = True
    try:
        yield
        failed = False
    finally:
        with capsys.disabled():
            print(f"acceptance {n}/8 {label}: {'FAIL' if failed else 'PASS'}")


def test_criterion_1_standard_objects(capsys):
    with criterion(capsys, 1, "standard objects and horn counts"):
        for n in range(1, 5):
            d = standard_simplex(n)
            assert d.counts() == tuple(comb(n + 1, k + 1) for k in range(n + 1))
            assert sum(boundary(n).counts()) == 2 ** (n + 1) - 2
            for i in range(n + 1):
                assert sum(horn(n, i).counts()) == 2 ** (n + 1) - 3
        assert nerve(pseudo_circle()).sset.counts() == (4, 4)
        assert nerve(double_cover().source).sset.counts() == (8, 8)
        assert homology(circle()).invariants() == ((1, ()), (1, ()))


def test_criterion_2_grothendieck_agreement(capsys):
    with criterion(capsys, 2, "lifting certificates match categorical fibrations"):
        rng = random.Random(20260815)
        made = 0
        while made < 24:
            c = random_poset(rng, rng.randint(2, 5))
            d = random_poset(rng, rng.randint(2, 4))
            try:
                f = random_poset_functor(rng, c, d)
            except ValueError:
                continue
            made += 1
            p = nerve_functor(f)[0]
            cart = is_grothendieck_fibration(f)[0]
            cocart = is_grothendieck_opfibration(f)[0]
            for cap in (2, 3, 4):
                rep = certify_fibration_class(p, cap)
                assert (rep.cartesian.status == "refuted") == (not cart)
                assert (rep.cartesian.status == "certified") == cart
                assert (rep.cocartesian.status == "refuted") == (not cocart)
                assert (rep.cocartesian.status == "certified") == cocart
                if cap >= 3:
                    assert rep.cartesian.conclusive and rep.cocartesian.conclusive


def test_criterion_3_base_change_positive(capsys):
    with criterion(capsys, 3, "comma report verified on identity and cover"):
        r = theorem_b_report(identity_functor(pseudo_circle()))
        assert r.status == "verified"
        assert r.chi == {"total": 0, "fiber": 1, "base": 0, "multiplicative": True}
        r = theorem_b_report(double_cover())
        assert r.status == "verified"
        for prof in r.vertex_fibers.values():
            inv = prof.invariants()
            assert inv[0] == (2, ()) and all(g == (0, ()) for g in inv[1:])
        assert r.chi == {"total": 0, "fiber": 2, "base": 0, "multiplicative": True}
        assert r.projection_iso and r.homotopy_ends_match


def test_criterion_4_base_change_negative(capsys):
    with criterion(capsys, 4, "comma report names the failing edge"):
        r = theorem_b_report(point_functor(pseudo_circle(), "a"))
        assert r.status == "hypothesis-failed"
        assert r.failing_edge == SimplexRef(1, (), "b<x")
        assert r.vertex_fibers["b"].invariants() == ()
        # the projection still lifts the relevant horns
        assert r.fibration.inner.certified
        assert r.fibration.cocartesian.certified
        assert r.slice_agreement == {} and r.chi is None


def test_criterion_5_homotopy_lift(capsys):
    with criterion(capsys, 5, "homotopy lifts through the double cover"):
        p = nerve_functor(double_cover())[0]
        x, y = p.source, p.target

        a = standard_simplex(1)
        prism = cylinder(a)
        homotopy = classifying_map(y, SimplexRef(1, (), "a<x")).compose(prism.to_right)
        f0 = constant_map(a, x, SimplexRef(0, (), "a0"))
        start, j_sub = start_map(prism, x, f0)
        lift = lift_homotopy(p, prism, homotopy, start)
        lift.validate()
        for n in prism.sset.degrees():
            for c in prism.sset.n_cells(n):
                assert p.apply(lift.value(n, c)) == homotopy.value(n, c)
        region = cylinder_region(prism, j_sub)
        assert restrict_map(lift, region).assignment == restrict_map(start, region).assignment
        for c in ("0", "1"):
            end = prism.pair_ref(SimplexRef(0, (), c), SimplexRef(0, (), "1"))
            assert lift.apply(end) == SimplexRef(0, (), "x0")

        # a designated edge steers the lift onto the other sheet
        pt = standard_simplex(0)
        prism = cylinder(pt)
        homotopy = classifying_map(y, SimplexRef(1, (), "a<y")).compose(prism.to_right)
        f0 = constant_map(pt, x, SimplexRef(0, (), "a1"))
        start, j_sub = start_map(
            prism, x, f0, designated={"0": SimplexRef(1, (), "a1<y0")}
        )
        lift = lift_homotopy(p, prism, homotopy, start, j_sub=j_sub)
        end = prism.pair_ref(SimplexRef(0, (), "0"), SimplexRef(0, (), "1"))
        assert lift.apply(end) == SimplexRef(0, (), "y0")


def broken_composite():
    # two edges over the short sides of a triangle, nothing over its filler
    u = SimplexRef(0, (), "u")
    w = SimplexRef(0, (), "w")
    z = SimplexRef(0, (), "z")
    x = SimplicialSet(
        {
            0: [("u", []), ("w", []), ("z", [])],
            1: [("e01", [w, u]), ("e02", [z, u])],
        }
    )
    p = SMap(
        x,
        standard_simplex(2),
        {
            0: {"u": SimplexRef(0, (), "0"), "w": SimplexRef(0, (), "1"),
                "z": SimplexRef(0, (), "2")},
            1: {"e01": SimplexRef(1, (), "0.1"), "e02": SimplexRef(1, (), "0.2")},
        },
    )
    return x, p


def test_criterion_6_obstructed_lift(capsys):
    with criterion(capsys, 6, "bad designated edge yields a checkable obstruction"):
        x, p = broken_composite()
        e01 = SimplexRef(1, (), "e01")
        assert not is_cocartesian_edge(p, e01, 2)[0]
        pt = standard_simplex(0)
        prism = cylinder(pt)
        homotopy = classifying_map(p.target, SimplexRef(1, (), "0.1")).compose(
            prism.to_right
        )
        f0 = constant_map(pt, x, SimplexRef(0, (), "u"))
        start, j_sub = start_map(prism, x, f0, designated={"0": e01})
        with pytest.raises(LiftObstruction) as exc:
            lift_homotopy(p, prism, homotopy, start, j_sub=j_sub)
        obstruction = exc.value
        assert obstruction.status == "inconclusive"
        assert obstruction.problem is not None
        obstruction.problem.validate(p)
        assert count_horn_lifts(p, obstruction.problem) == 0
        # without a designation there is no cocartesian candidate either
        start, _ = start_map(prism, x, f0)
        with pytest.raises(LiftObstruction):
            lift_homotopy(p, prism, homotopy, start)


def sympy_invariants(x, k):
    cx = chain_complex(x)

    def rank(m):
        if m.rows * m.cols == 0:
            return 0
        return sympy.Matrix(m.to_lists()).rank()

    betti = len(x.n_cells(k)) - rank(cx.boundary(k)) - rank(cx.boundary(k + 1))
    nxt = cx.boundary(k + 1)
    torsion = []
    if nxt.rows * nxt.cols:
        d = sympy_snf(sympy.Matrix(nxt.to_lists()), domain=sympy.ZZ)
        for i in range(min(d.rows, d.cols)):
            if abs(d[i, i]) > 1:
                torsion.append(abs(d[i, i]))
    return betti, tuple(sorted(torsion))


def test_criterion_7_homology_against_oracle(capsys):
    with criterion(capsys, 7, "integral homology agrees with the sympy oracle"):
        jobs = []
        for n in (1, 2, 3):
            jobs.append((boundary(n + 1), n + 1))
        jobs.append((Product(circle(), circle()).sset, 3))
        from sslift.cat import cyclic_group_category

        jobs.append((nerve(cyclic_group_category(2)).sset, 4))
        jobs.append((nerve(cyclic_group_category(4)).sset, 4))
        for x, top in jobs:
            prof = homology(x)
            for k in range(top):
                grp = prof.group(k)
                want = sympy_invariants(x, k)
                got = (grp.invariants()[0], tuple(sorted(grp.invariants()[1])))
                assert got == want, (x, k, got, want)
        # spot values, stated once
        torus = homology(Product(circle(), circle()).sset)
        assert torus.invariants() == ((1, ()), (2, ()), (1, ()))
        z4 = homology(nerve(cyclic_group_category(4)).sset)
        assert z4.group(1).invariants() == (0, (4,))
        assert z4.group(3).invariants() == (0, (4,))


def test_criterion_8_ltg_check_end_to_end(capsys):
    with criterion(capsys, 8, "base-change checks on fixture cospans"):
        def run(*argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([str(a) for a in argv])
            return code, buf.getvalue()

        cospans = (
            ("interval_vertex.ssx", "cylinder_proj.ssx", 0, "certified"),
            ("edge_into_circle.ssx", "double_cover.ssx", 0, "certified"),
            ("interval_vertex.ssx", "boundary_collapse.ssx", 1, "refuted"),
        )
        for f, p, want_code, want_status in cospans:
            argv = ("--json", "ltg-check", "--cospan", FIXTURES / f, FIXTURES / p)
            code, out = run(*argv)
            assert code == want_code
            assert json.loads(out)["status"] == want_status
            again = run(*argv)
            assert again == (code, out)
