"""The least-lift search and the cocartesian tests, run as left horns on
the map itself, against the loops they replace.

ref_certify_edge_lifts is the certificates' former loop: for each vertex
over an edge's endpoint it rebuilds each candidate edge's ref and asks the
public is_cartesian_edge, on the full opposite_map(p) for the cocartesian
side.  ref_least_cocartesian is the homotopy lifter's former vertex loop
over the solutions of a (1, 0)-horn, asking the public edge test on the
full opposite.  Both must agree with the library: certificate JSON, the
edges lift_homotopy designates, and the public edge tests themselves.
"""

import random

import pytest

from sslift import lifting as L
from sslift.cat import (
    comma_category,
    chain_poset,
    cyclic_group_category,
    identity_functor,
    nerve,
    nerve_functor,
)
from sslift.corpus import random_poset, random_poset_functor
from sslift.formats import canonical_json
from sslift.lifting import (
    Certificate,
    FibrationClassReport,
    HornProblem,
    LiftObstruction,
    certify_edge_lifts,
    certify_fibration_class,
    certify_inner_fibration,
    cylinder,
    is_cartesian_edge,
    is_cocartesian_edge,
    iter_horn_solutions,
    lift_homotopy,
    op_problem,
    start_map,
)
from sslift.products import Product
from sslift.sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    classifying_map,
    constant_map,
    identity_map,
    op_ref,
    opposite_map,
    standard_simplex,
)

from tests.test_lifting_reference import MAP_FIXTURES, fixture_map, random_nerve_map

CAPS = range(1, 6)


# -- the former loops --------------------------------------------------------


def ref_certify_edge_lifts(p, kind, inner):
    """Existence of cartesian lifts: for every edge of the target and every
    vertex over its endpoint, some edge over it with that endpoint passes
    the right-horn test."""
    x, y = p.source, p.target
    requested, effective = inner.requested_cap, inner.effective_cap
    vertex_images = L._images(p, 0)
    # the edges over g ending at c fill the (1, 1)-horn c over g
    over = L._solution_table(p, 1, 1)
    edges = x.refs(1)
    checked = 0
    for g, (target_vertex, _) in enumerate(L._face_table(y, 1)):
        for c, image in enumerate(vertex_images):
            if image != target_vertex:
                continue
            found = False
            for f in over.get((c, g), ()):
                if effective < 2:
                    # truncation leaves no horn to test the lift against
                    found = True
                    break
                ok, _, n_checked = is_cartesian_edge(p, edges[f], effective)
                checked += n_checked
                if ok:
                    found = True
                    break
            if not found:
                return Certificate(
                    kind, "refuted", requested, effective, checked,
                    witness=(y.refs(1)[g], x.refs(0)[c]), conclusive=True,
                    notes=inner.notes,
                )
    return Certificate(
        kind, inner.status, requested, effective, checked,
        conclusive=inner.conclusive, notes=inner.notes,
    )


def ref_edge_lifts(p, full_op, kind, inner):
    if inner.status == "refuted":
        return certify_edge_lifts(p, kind, inner)  # the shortcut is not under test
    if kind == "cartesian":
        return ref_certify_edge_lifts(p, kind, inner)
    cert = ref_certify_edge_lifts(full_op, kind, inner)
    if cert.witness is not None:
        edge, vertex = cert.witness
        cert.witness = (op_ref(edge), vertex)
    return cert


def ref_is_cocartesian_edge(full_op, edge, cap):
    ok, witness, checked = is_cartesian_edge(full_op, op_ref(edge), cap)
    return ok, (op_problem(witness) if witness is not None else None), checked


def ref_least_cocartesian(p, full_op, startv, g, cap):
    chosen = None
    # the edges over g starting at startv fill the (1, 0)-horn startv over g
    for f in iter_horn_solutions(p, HornProblem(1, 0, ((1, startv),), g)):
        ok, _, _ = ref_is_cocartesian_edge(full_op, f, cap)
        if ok:
            chosen = f
            break
    return chosen


# -- maps under test ---------------------------------------------------------


def comma_projection(category):
    _, _, to_d = comma_category(identity_functor(category))
    return nerve_functor(to_d)[0]


def random_comma_projection(seed):
    rng = random.Random(seed)
    while True:
        c = random_poset(rng, rng.randint(2, 3), density=0.6)
        d = random_poset(rng, rng.randint(2, 3), density=0.6)
        try:
            _, _, to_d = comma_category(random_poset_functor(rng, c, d))
        except ValueError:
            continue
        return nerve_functor(to_d)[0]


def semi_pillow_map():
    """Three 2-cells on one triangle boundary onto a single triangle, both
    semi-simplicial."""
    v = [SimplexRef(0, (), str(k)) for k in range(3)]
    e = {name: SimplexRef(1, (), name) for name in ("01", "02", "12")}

    def triangles(names):
        return SimplicialSet({
            0: [(str(k), []) for k in range(3)],
            1: [("01", [v[1], v[0]]), ("02", [v[2], v[0]]), ("12", [v[2], v[1]])],
            2: [(c, [e["12"], e["02"], e["01"]]) for c in names],
        }, simplicial=False)

    x, y = triangles("abc"), triangles("t")
    assignment = {0: {k: r for k, r in zip("012", v)}, 1: dict(e)}
    assignment[2] = {c: SimplexRef(2, (), "t") for c in "abc"}
    return SMap(x, y, assignment)


def truncated_collapse(cap):
    x = nerve(cyclic_group_category(2), cap=cap).sset
    return constant_map(x, standard_simplex(0), SimplexRef(0, (), "0"))


def loop_truncated_at_0():
    """A loop whose object claims nothing above degree 0: its cocartesian
    certificate runs at cap 0 and still needs the loop as a lift."""
    v = SimplexRef(0, (), "v")
    return identity_map(SimplicialSet({0: [("v", [])], 1: [("e", [v, v])]}, truncated_at=0))


BUILDERS = {
    **{f"fixture-{name}": (lambda name=name: fixture_map(name)) for name in MAP_FIXTURES},
    **{f"random-{s}": (lambda s=s: random_nerve_map(s)) for s in range(4)},
    "comma-chain2": lambda: comma_projection(chain_poset(2)),
    "comma-chain3": lambda: comma_projection(chain_poset(3)),
    **{f"comma-random-{s}": (lambda s=s: random_comma_projection(s)) for s in range(2)},
    "product-simplex2xsimplex1-left": lambda: Product(
        standard_simplex(2), standard_simplex(1)).to_left,
    "product-Z2xsimplex1-right": lambda: Product(
        nerve(cyclic_group_category(2), cap=3).sset, standard_simplex(1)).to_right,
    "semi-pillow": semi_pillow_map,
    "semi-identity": lambda: identity_map(semi_pillow_map().source),
    "truncated-Z2-cap1": lambda: truncated_collapse(1),
    "truncated-Z2-cap2": lambda: truncated_collapse(2),
    "truncated-loop-at-0": loop_truncated_at_0,
}


# -- comparisons -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_certificates_match_the_former_loop(name):
    p = BUILDERS[name]()
    full_op = opposite_map(p)
    for cap in CAPS:
        if cap < 2:
            with pytest.raises(SimplicialError, match="at least 2"):
                certify_fibration_class(p, cap)
            continue
        inner = certify_inner_fibration(p, cap)
        want = FibrationClassReport(
            inner,
            ref_edge_lifts(p, full_op, "cartesian", inner),
            ref_edge_lifts(p, full_op, "cocartesian", inner),
        )
        got = certify_fibration_class(p, cap)
        assert canonical_json(got.to_json()) == canonical_json(want.to_json()), cap


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_edge_tests_match_the_full_opposite(name):
    p = BUILDERS[name]()
    full_op = opposite_map(p)
    for cap in range(2, 6):
        for e in p.source.refs(1):
            assert is_cocartesian_edge(p, e, cap) == ref_is_cocartesian_edge(full_op, e, cap)


def designated_edge(p, vertex, g, cap, certificate):
    """The edge lift_homotopy designates over the point's vertex when the
    point is moved along g, starting at vertex; None on an obstruction
    that names no horn (no cocartesian edge)."""
    point = standard_simplex(0)
    prism = cylinder(point)
    homotopy = classifying_map(p.target, g).compose(prism.to_right)
    start, _ = start_map(prism, p.source, constant_map(point, p.source, vertex))
    try:
        lift = lift_homotopy(p, prism, homotopy, start, certificate=certificate, cap=cap)
    except LiftObstruction as exc:
        assert exc.problem is None and "no cocartesian edge" in str(exc)
        return None
    edge = prism.pair_ref(SimplexRef(1, (0,), "0"), SimplexRef(1, (), "0.1"))
    return lift.value(1, edge.cell)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_the_lifter_designates_the_former_edges(name):
    p = BUILDERS[name]()
    full_op = opposite_map(p)
    x, y = p.source, p.target
    inner = certify_inner_fibration(p, 2)
    for cap in CAPS:
        for g in y.refs(1):
            for vertex in x.refs(0):
                if p.apply(vertex) != y.face(g, 1):
                    continue
                if cap < 2:
                    with pytest.raises(SimplicialError, match="at least 2") as exc:
                        designated_edge(p, vertex, g, cap, inner)
                    assert not isinstance(exc.value, LiftObstruction)
                    continue
                want = ref_least_cocartesian(p, full_op, vertex, g, cap)
                c, e = x.simplex_id(0, vertex), y.simplex_id(1, g)
                f, _ = L._least_lift(p, c, e, cap, True)
                assert (None if f is None else x.refs(1)[f]) == want, (vertex, g, cap)
                if inner.certified and x.simplicial:  # a cylinder maps to no semi object
                    assert designated_edge(p, vertex, g, cap, inner) == want, (vertex, g, cap)
