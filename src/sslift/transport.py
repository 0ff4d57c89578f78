"""Transport of fiber homology along edges of the base.

An edge g of the base spans three fibers: over its source vertex, over
its target vertex, and over g itself.  Both vertex fibers include into
the edge fiber.  When the target-vertex leg induces isomorphisms on
homology, the forward transport exists: it is the composite
(target leg)^{-1} o (source leg), solved per degree with the Smith form
the inverted leg's induced map already holds.  The backward transport inverts the
source-vertex leg instead.  Along a degenerate edge s_0 v both legs are
sections of the projection F_v x Delta^1 -> F_v, so the transport is
the identity on the homology of the fiber over v, and no fiber over the
edge is built.

Transports compose: the matrices along a path of edges multiply, so
monodromy around loops is an honest integer matrix in the chosen
generator bases.

The comparisons behind transport are shared with the whole-map reports:
vertex_legs builds the fiber over a simplex with its first- and
last-vertex legs, and fiber_summary checks that vertex fiber homology
is constant on components of the base and that Euler characteristics
multiply.  Both read vertex fibers through vertex_fiber, which keeps
each one on the map, so every report and transport on that map shares
one fiber and one generator basis per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import (
    HomologyProfile,
    InducedHomology,
    IntMatrix,
    TruncationError,
    euler_characteristic,
    homology,
    induced_homology,
    pi0,
)
from .products import Fiber
from .sset import SMap, SimplexRef, SimplicialError, kept


@dataclass
class TransportResult:
    edge: SimplexRef
    backward: bool
    source_profile: HomologyProfile
    target_profile: HomologyProfile
    leg_invertible: bool
    matrices: list[IntMatrix] | None
    iso_flags: list[bool]
    certificate_status: str | None = None

    @property
    def is_iso(self) -> bool:
        return self.leg_invertible and all(self.iso_flags)

    def matrix(self, k: int) -> IntMatrix:
        if self.matrices is None:
            raise SimplicialError("transport leg is not invertible; no matrices")
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return IntMatrix(
            self.target_profile.group(k).gens.cols,
            self.source_profile.group(k).gens.cols,
        )

    def to_json(self) -> dict:
        return {
            "edge": self.edge.to_json(),
            "backward": self.backward,
            "source": self.source_profile.to_json(),
            "target": self.target_profile.to_json(),
            "leg_invertible": self.leg_invertible,
            "matrices": None
            if self.matrices is None
            else [m.to_lists() for m in self.matrices],
            "iso_by_degree": list(self.iso_flags),
            "iso": self.is_iso,
            "certificate_status": self.certificate_status,
        }


def _divide_leg(
    leg: InducedHomology, push: InducedHomology
) -> tuple[list[IntMatrix], list[bool]]:
    """Matrices T with leg o T = push, degree by degree, plus iso flags.

    leg is an isomorphism, so each T is solved with the Smith form leg
    already holds, and T is an isomorphism exactly where push is.
    """
    matrices = []
    for k, form in enumerate(leg.forms):
        dst = leg.source.group(k)
        cols = []
        for g in push.matrix(k).columns():
            t = form.solve(g)
            if t is None:
                raise SimplicialError(
                    f"transport solve failed in degree {k}: leg not surjective"
                )
            cols.append([v % order if order else v for v, order in zip(t, dst.orders)])
        matrices.append(IntMatrix.from_columns(len(dst.orders), cols))
    return matrices, list(push.iso_flags)


@kept
def vertex_fiber(p: SMap, v: SimplexRef) -> tuple[Fiber, HomologyProfile]:
    """The fiber of p over the vertex v with its homology, kept on p."""
    fib = Fiber(p, v)
    return fib, homology(fib.sset)


def _vertex_leg(vfib: Fiber, fib: Fiber, pos: int) -> SMap:
    """The inclusion of the fiber over vertex pos of fib's base simplex
    into fib: the cell with components (s_w 0, y) goes to (s_w pos, y)."""
    vertex = str(pos)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for (m, cell_id), (a, y) in vfib.components.items():
        ref = fib.pair_ref(SimplexRef(m, a.word, vertex), y)
        assignment.setdefault(m, {})[cell_id] = ref
    return SMap(vfib.sset, fib.sset, assignment)


def vertex_legs(
    p: SMap, sigma: SimplexRef
) -> tuple[HomologyProfile, InducedHomology, InducedHomology]:
    """Homology of the fiber over sigma, and the maps induced on homology
    by the inclusions of the fibers over its first and last vertices."""
    n = sigma.degree
    fib = Fiber(p, sigma)
    prof = homology(fib.sset)
    legs = []
    for pos in (0, n):
        vfib, vprof = vertex_fiber(p, p.target.vertex_of(sigma, pos))
        legs.append(induced_homology(_vertex_leg(vfib, fib, pos), vprof, prof))
    return prof, legs[0], legs[1]


def fiber_summary(p: SMap) -> tuple[dict[str, bool], dict | None]:
    """Constancy of vertex fiber homology on each path component of the
    base, and over a connected base the Euler characteristics of total
    space, fiber and base (None when truncation hides one of them)."""
    y = p.target

    def fiber_at(v: str) -> tuple[Fiber, HomologyProfile]:
        return vertex_fiber(p, SimplexRef(0, (), v))

    n_components, labels = pi0(y)
    by_label: dict[str, list[str]] = {}
    for v, lab in labels.items():
        by_label.setdefault(lab, []).append(v)
    constancy: dict[str, bool] = {}
    for lab, vs in sorted(by_label.items()):
        first = fiber_at(vs[0])[1]
        constancy[lab] = all(fiber_at(v)[1].same_invariants(first) for v in vs)
    chi = None
    if n_components == 1:
        try:
            chi_total = euler_characteristic(p.source)
            chi_base = euler_characteristic(y)
            chi_fiber = euler_characteristic(fiber_at(sorted(y.n_cells(0))[0])[0].sset)
            chi = {
                "total": chi_total,
                "fiber": chi_fiber,
                "base": chi_base,
                "multiplicative": chi_total == chi_fiber * chi_base,
            }
        except TruncationError:
            pass
    return constancy, chi


def transport_homology(
    p: SMap,
    edge: SimplexRef,
    backward: bool = False,
    certificate=None,
) -> TransportResult:
    """Move fiber homology along an edge of the base of p.

    Vertex fibers are kept on p (vertex_fiber), so matrices along
    composable edges share generator bases.  Along a degenerate edge
    s_0 v the transport is the identity on the homology of the kept
    fiber over v, and no fiber over the edge is built.  The certificate,
    when given, is the caller's record of whether the relevant lifting
    class (cartesian backward, cocartesian forward) held, and its status
    is reported; the transport itself only needs the inverted leg to be
    a homology isomorphism.
    """
    p.target.resolve(edge)
    if edge.degree != 1:
        raise SimplicialError("transport wants an edge of the base")
    status = certificate.status if certificate is not None else None

    if edge.word:
        prof = vertex_fiber(p, SimplexRef(0, (), edge.cell))[1]
        top = len(prof.groups)
        if prof.truncated_at is None and prof.groups:
            top += 1  # F_v x Delta^1 has one degree more, where both are 0
        matrices = [
            IntMatrix.identity(len(prof.group(k).orders)) for k in range(top)
        ]
        return TransportResult(
            edge, backward, prof, prof, True, matrices, [True] * top, status
        )

    _, leg_src, leg_tgt = vertex_legs(p, edge)
    invert, push = (leg_src, leg_tgt) if backward else (leg_tgt, leg_src)
    invertible = invert.is_iso
    matrices: list[IntMatrix] | None = None
    flags: list[bool] = []
    if invertible:
        matrices, flags = _divide_leg(invert, push)
    return TransportResult(
        edge,
        backward,
        push.source,
        invert.source,
        invertible,
        matrices,
        flags,
        certificate_status=status,
    )
