"""Constructive homotopy lifting through certified maps."""

import pytest

from sslift.lifting import (
    LiftObstruction,
    certify_fibration_class,
    count_horn_lifts,
    cylinder,
    cylinder_region,
    is_cocartesian_edge,
    last_vertex_contraction,
    lift_homotopy,
    start_map,
)
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    classifying_map,
    constant_map,
    identity_map,
    restrict_map,
    standard_simplex,
)


def check_is_lift(p, prism, homotopy, lift, start, j_sub=None):
    lift.validate()
    for n in prism.sset.degrees():
        for c in prism.sset.n_cells(n):
            assert p.apply(lift.value(n, c)) == homotopy.value(n, c), (n, c)
    region = cylinder_region(prism, j_sub)
    assert restrict_map(lift, region).assignment == restrict_map(start, region).assignment


def test_lift_through_identity_reproduces_homotopy(c4_nerve):
    y = c4_nerve.sset
    p = identity_map(y)
    prism = cylinder(y)
    homotopy = p.compose(prism.to_left)
    start = restrict_map(homotopy, cylinder_region(prism))
    lift = lift_homotopy(p, prism, homotopy, start)
    check_is_lift(p, prism, homotopy, lift, start)
    for n in prism.sset.degrees():
        for c in prism.sset.n_cells(n):
            assert lift.value(n, c) == homotopy.value(n, c)


def test_transport_square_over_cover(cover_map):
    # slide an interval placed at a0, degenerately, along the base edge a<x
    x, y = cover_map.source, cover_map.target
    a = standard_simplex(1)
    prism = cylinder(a)
    edge = SimplexRef(1, (), "a<x")
    homotopy = classifying_map(y, edge).compose(prism.to_right)
    f0 = constant_map(a, x, SimplexRef(0, (), "a0"))
    start, j_sub = start_map(prism, x, f0)
    assert j_sub is None
    lift = lift_homotopy(p=cover_map, prism=prism, homotopy=homotopy, start=start)
    check_is_lift(cover_map, prism, homotopy, lift, start)
    # the far end comes out over x on the same sheet
    for c in ("0", "1"):
        pair = prism.pair_ref(SimplexRef(0, (), c), SimplexRef(0, (), "1"))
        assert lift.apply(pair) == SimplexRef(0, (), "x0")


def test_cap_below_two_is_rejected(cover_map):
    # an edge cap of 1 would check no horn and pass every edge as cocartesian
    x, y = cover_map.source, cover_map.target
    prism = cylinder(standard_simplex(1))
    homotopy = classifying_map(y, SimplexRef(1, (), "a<x")).compose(prism.to_right)
    f0 = constant_map(prism.left_object, x, SimplexRef(0, (), "a0"))
    start, _ = start_map(prism, x, f0)
    with pytest.raises(SimplicialError, match="at least 2"):
        lift_homotopy(cover_map, prism, homotopy, start, cap=1)


def test_designated_edge_steers_the_sheet(cover_map):
    x, y = cover_map.source, cover_map.target
    a = standard_simplex(0)
    prism = cylinder(a)
    edge = SimplexRef(1, (), "a<y")
    homotopy = classifying_map(y, edge).compose(prism.to_right)
    f0 = constant_map(a, x, SimplexRef(0, (), "a1"))
    start, j_sub = start_map(
        prism, x, f0, designated={"0": SimplexRef(1, (), "a1<y0")}
    )
    assert j_sub is not None
    lift = lift_homotopy(cover_map, prism, homotopy, start, j_sub=j_sub)
    check_is_lift(cover_map, prism, homotopy, lift, start, j_sub)
    end = prism.pair_ref(SimplexRef(0, (), "0"), SimplexRef(0, (), "1"))
    assert lift.apply(end) == SimplexRef(0, (), "y0")


def broken_composite():
    """Edges over two sides of a triangle with nothing above its filler.

    e01 fails the left horn test: pairing it with e02 over the top cell
    0.1.2 asks for a triangle u -> w -> z that does not exist.
    """
    u = SimplexRef(0, (), "u")
    w = SimplexRef(0, (), "w")
    z = SimplexRef(0, (), "z")
    x = SimplicialSet(
        {
            0: [("u", []), ("w", []), ("z", [])],
            1: [("e01", [w, u]), ("e02", [z, u])],
        }
    )
    d2 = standard_simplex(2)
    p = SMap(
        x,
        d2,
        {
            0: {"u": SimplexRef(0, (), "0"), "w": SimplexRef(0, (), "1"),
                "z": SimplexRef(0, (), "2")},
            1: {"e01": SimplexRef(1, (), "0.1"), "e02": SimplexRef(1, (), "0.2")},
        },
    )
    return x, p


def test_bad_designated_edge_obstructs():
    x, p = broken_composite()
    e01 = SimplexRef(1, (), "e01")
    assert not is_cocartesian_edge(p, e01, 2)[0]
    a = standard_simplex(0)
    prism = cylinder(a)
    homotopy = classifying_map(p.target, SimplexRef(1, (), "0.1")).compose(
        prism.to_right
    )
    f0 = constant_map(a, x, SimplexRef(0, (), "u"))
    start, j_sub = start_map(prism, x, f0, designated={"0": e01})
    with pytest.raises(LiftObstruction) as exc:
        lift_homotopy(p, prism, homotopy, start, j_sub=j_sub)
    obstruction = exc.value
    assert obstruction.status == "inconclusive"
    assert obstruction.problem is not None
    obstruction.problem.validate(p)
    assert count_horn_lifts(p, obstruction.problem) == 0


def test_missing_cocartesian_edge_obstructs():
    x, p = broken_composite()
    a = standard_simplex(0)
    prism = cylinder(a)
    homotopy = classifying_map(p.target, SimplexRef(1, (), "0.1")).compose(
        prism.to_right
    )
    f0 = constant_map(a, x, SimplexRef(0, (), "u"))
    start, _ = start_map(prism, x, f0)
    with pytest.raises(LiftObstruction) as exc:
        lift_homotopy(p, prism, homotopy, start)
    assert exc.value.status == "inconclusive"


def test_cap_below_two_is_rejected_before_any_search():
    # no edge of x starts at w over 1.2: the cap is refused before that is found
    x, p = broken_composite()
    a = standard_simplex(0)
    prism = cylinder(a)
    homotopy = classifying_map(p.target, SimplexRef(1, (), "1.2")).compose(prism.to_right)
    start, _ = start_map(prism, x, constant_map(a, x, SimplexRef(0, (), "w")))
    with pytest.raises(LiftObstruction, match="no cocartesian edge"):
        lift_homotopy(p, prism, homotopy, start)
    with pytest.raises(SimplicialError, match="at least 2") as exc:
        lift_homotopy(p, prism, homotopy, start, cap=1)
    assert not isinstance(exc.value, LiftObstruction)


def test_start_map_rejects_mismatched_designation(cover_map):
    x = cover_map.source
    a = standard_simplex(0)
    prism = cylinder(a)
    f0 = constant_map(a, x, SimplexRef(0, (), "a0"))
    with pytest.raises(Exception):
        # edge starts at a1, f0 says a0
        start_map(prism, x, f0, designated={"0": SimplexRef(1, (), "a1<y0")})


def test_lift_accepts_precomputed_certificate(cover_map):
    rep = certify_fibration_class(cover_map)
    a = standard_simplex(1)
    prism = cylinder(a)
    y = cover_map.target
    homotopy = classifying_map(y, SimplexRef(1, (), "b<y")).compose(prism.to_right)
    f0 = constant_map(a, cover_map.source, SimplexRef(0, (), "b1"))
    start, _ = start_map(prism, cover_map.source, f0)
    lift = lift_homotopy(
        cover_map, prism, homotopy, start, certificate=rep.cocartesian
    )
    check_is_lift(cover_map, prism, homotopy, lift, start)


def test_last_vertex_contraction_is_a_homotopy():
    for n in (1, 2):
        h, prism = last_vertex_contraction(n)
        h.validate()
        d = standard_simplex(n)
        # level 0 is the identity, level 1 the constant at the last vertex
        for c in d.n_cells(0):
            lo = prism.pair_ref(SimplexRef(0, (), c), SimplexRef(0, (), "0"))
            hi = prism.pair_ref(SimplexRef(0, (), c), SimplexRef(0, (), "1"))
            assert h.apply(lo) == SimplexRef(0, (), c)
            assert h.apply(hi) == SimplexRef(0, (), str(n))
