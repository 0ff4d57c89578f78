"""Base-change report for a functor between finite categories.

For F: C -> D, the comma category F/D projects to D, and that
projection's nerve is certified as a cocartesian fibration.  The
hypothesis under test: transporting fiber homology forward along every
edge of the nerve of D is an isomorphism (each degenerate edge is the
identity transport).
When it holds, the report verifies the downstream conclusions on the
finite instance:

  * the fiber over each vertex d agrees in homology with the nerve of
    the slice F/d, computed independently from the category;
  * the fibers of the other projection (to C) are homology-contractible
    (they have initial objects);
  * fiber homology is constant on each connected component of the base;
  * the projection to C induces a homology isomorphism, and the natural
    transformation contracting the comma category onto C is checked:
    its cylinder homotopy, evaluated cell by cell at the two ends, gives
    the retraction at one end and the identity at the other;
  * Euler characteristics multiply when the base is connected.

When the hypothesis fails, the report names the least failing edge and
its transport, and checks nothing further.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cat import (
    Functor,
    NatTrans,
    _comma_mor_id,
    _comma_obj_id,
    _homotopy_value,
    comma_category,
    identity_functor,
    nerve,
    nerve_functor,
    slice_category,
)
from .homology import HomologyProfile, homology, induced_homology
from .lifting import FibrationClassReport, certify_fibration_class
from .sset import SimplexRef
from .transport import TransportResult, fiber_summary, transport_homology, vertex_fiber


def _contractible(profile: HomologyProfile) -> bool:
    groups = [g.invariants() for g in profile.groups]
    return bool(groups) and groups[0] == (1, ()) and all(
        g == (0, ()) for g in groups[1:]
    )


@dataclass
class TheoremBReport:
    functor: Functor
    fibration: FibrationClassReport
    transports: list[tuple[SimplexRef, TransportResult]]
    hypothesis_holds: bool
    failing_edge: SimplexRef | None
    vertex_fibers: dict[str, HomologyProfile]
    slice_agreement: dict[str, bool]
    coslice_contractible: dict[str, bool]
    component_constancy: dict[str, bool]
    projection_iso: bool | None
    homotopy_ends_match: bool | None
    chi: dict | None
    status: str

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "fibration": self.fibration.to_json(),
            "hypothesis_holds": self.hypothesis_holds,
            "failing_edge": None
            if self.failing_edge is None
            else self.failing_edge.to_json(),
            "transports": [
                {"edge": g.to_json(), "iso": t.is_iso}
                for g, t in self.transports
            ],
            "vertex_fibers": {
                d: prof.to_json() for d, prof in self.vertex_fibers.items()
            },
            "slice_agreement": dict(self.slice_agreement),
            "coslice_contractible": dict(self.coslice_contractible),
            "component_constancy": dict(self.component_constancy),
            "projection_iso": self.projection_iso,
            "homotopy_ends_match": self.homotopy_ends_match,
            "chi": self.chi,
        }


def _comma_unit(f: Functor, comma, to_c) -> NatTrans:
    """The transformation contracting the comma category onto C.

    i: C -> F/D sends c to (c, id at F(c)); the component at (c, g) is
    (id_c, g), a morphism from i(P(c, g)) to (c, g)."""
    c_cat, d_cat = f.source, f.target

    def id_fc(c: str) -> str:
        return d_cat.identity_of(f.object_map[c])

    include = Functor(
        c_cat,
        comma,
        {c: _comma_obj_id(c, id_fc(c)) for c in c_cat.objects},
        {
            u: _comma_mor_id(u, f.morphism_map[u], id_fc(a), id_fc(b))
            for u, (a, b) in c_cat.morphisms.items()
        },
    )
    retract = include.compose_with(to_c)
    components = {}
    for o in comma.objects:
        c, g = comma.comma_objects[o]
        components[o] = _comma_mor_id(c_cat.identity_of(c), g, id_fc(c), g)
    return NatTrans(retract, identity_functor(comma), components)


def theorem_b_report(f: Functor, cap: int | None = None) -> TheoremBReport:
    """The base-change report for f, on nerves built at the given cap.

    For the homotopy contracting the comma category onto C, the report
    checks the NatTrans laws of the unit, then, on every nondegenerate
    cell of the comma nerve, that the homotopy's formula at level 0 is
    the retraction's value and at level 1 the cell itself; the
    cylinder's other cells are not built (nat_trans_homotopy builds
    them all).  The comma nerve is built once and shared by every nerve
    map the report reads.
    """
    comma, to_c, to_d = comma_category(f)
    q, _, n_d = nerve_functor(to_d, cap)
    fibration = certify_fibration_class(q)

    transports: list[tuple[SimplexRef, TransportResult]] = []
    failing: SimplexRef | None = None
    if fibration.inner.certified:
        for g in n_d.sset.refs(1):
            t = transport_homology(q, g, certificate=fibration.cocartesian)
            transports.append((g, t))
            if failing is None and not t.is_iso:
                failing = g
    hypothesis = fibration.inner.certified and failing is None

    vertex_fibers = {
        d: vertex_fiber(q, SimplexRef(0, (), d))[1]
        for d in sorted(f.target.objects)
    }

    slice_agreement: dict[str, bool] = {}
    coslice_contractible: dict[str, bool] = {}
    component_constancy: dict[str, bool] = {}
    projection_iso = None
    ends_match = None
    chi = None
    if hypothesis:
        for d in sorted(f.target.objects):
            sl, _ = slice_category(f, d)
            slice_prof = homology(nerve(sl, cap).sset)
            slice_agreement[d] = vertex_fibers[d].same_invariants(slice_prof)
        pmap, _, n_c = nerve_functor(to_c, cap)
        for c in sorted(f.source.objects):
            coslice = vertex_fiber(pmap, SimplexRef(0, (), c))[1]
            coslice_contractible[c] = _contractible(coslice)
        component_constancy, chi = fiber_summary(q)
        projection_iso = induced_homology(pmap).is_iso
        unit = _comma_unit(f, comma, to_c)
        unit.validate()
        retract_map, comma_nerve, _ = nerve_functor(unit.source, cap)
        ends_match = all(
            _homotopy_value(unit, chain, cell, (0,) * (n + 1))
            == retract_map.value(n, cell)
            and _homotopy_value(unit, chain, cell, (1,) * (n + 1))
            == SimplexRef(n, (), cell)
            for n, cell, _ in comma_nerve.sset.cell_items()
            for chain in [comma_nerve.chain_of(SimplexRef(n, (), cell))]
        )

    if not fibration.inner.certified:
        status = fibration.inner.status
    elif not hypothesis:
        status = "hypothesis-failed"
    else:
        checks = (
            all(slice_agreement.values())
            and all(coslice_contractible.values())
            and all(component_constancy.values())
            and bool(projection_iso)
            and bool(ends_match)
            and (chi is None or chi["multiplicative"])
        )
        status = "verified" if checks else "conclusion-failed"
    return TheoremBReport(
        f,
        fibration,
        transports,
        hypothesis,
        failing,
        vertex_fibers,
        slice_agreement,
        coslice_contractible,
        component_constancy,
        projection_iso,
        ends_match,
        chi,
        status,
    )
