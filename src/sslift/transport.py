"""Transport of fiber homology along edges of the base.

An edge g of the base spans three fibers: over its source vertex, over
its target vertex, and over g itself.  Both vertex fibers include into
the edge fiber.  When the target-vertex leg induces isomorphisms on
homology, the forward transport exists: it is the composite
(target leg)^{-1} o (source leg), computed per degree by solving linear
systems over the presented groups.  The backward transport inverts the
source-vertex leg instead.

Transports compose: the matrices along a path of edges multiply, so
monodromy around loops is an honest integer matrix in the chosen
generator bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import (
    HomologyProfile,
    InducedHomology,
    IntMatrix,
    SmithForm,
    homology,
    induced_homology,
    is_group_iso,
)
from .lifting import certify_fibration_class
from .products import Fiber, pullback_induced, restrict_over_simplex, vertex_inclusion_map
from .sset import SMap, SimplexRef, SimplicialError, identity_map


@dataclass
class TransportResult:
    edge: SimplexRef
    backward: bool
    source_profile: HomologyProfile
    edge_profile: HomologyProfile
    target_profile: HomologyProfile
    source_leg: InducedHomology
    target_leg: InducedHomology
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
            "iso": self.is_iso if self.leg_invertible else False,
            "certificate_status": self.certificate_status,
        }


def _divide_leg(
    leg: InducedHomology, push: InducedHomology
) -> tuple[list[IntMatrix], list[bool]]:
    """Matrices T with leg o T = push, degree by degree, plus iso flags."""
    matrices = []
    flags = []
    top = max(len(push.matrices), len(leg.matrices))
    for k in range(top):
        mid = leg.target.group(k)
        src = push.source.group(k)
        dst = leg.source.group(k)
        a_cols = leg.matrix(k).columns()
        torsion_cols = []
        for i, order in enumerate(mid.orders):
            if order:
                col = [0] * len(mid.orders)
                col[i] = order
                torsion_cols.append(col)
        leg_form = SmithForm(IntMatrix.from_columns(len(mid.orders), a_cols + torsion_cols))
        cols = []
        for g in push.matrix(k).columns():
            t = leg_form.solve(g)
            if t is None:
                raise SimplicialError(
                    f"transport solve failed in degree {k}: leg not surjective"
                )
            reduced = []
            for i, order in enumerate(dst.orders):
                reduced.append(t[i] % order if order else t[i])
            cols.append(reduced)
        matrix = IntMatrix.from_columns(len(dst.orders), cols)
        matrices.append(matrix)
        flags.append(is_group_iso(src, dst, matrix))
    return matrices, flags


def vertex_fiber(
    p: SMap, v: SimplexRef, profiles: dict | None = None
) -> tuple[Fiber, HomologyProfile]:
    """The fiber of p over the vertex v with its homology, looked up in or
    added to the profiles cache when one is given."""
    if profiles is not None and v in profiles:
        return profiles[v]
    fib = restrict_over_simplex(p, v)
    pair = (fib, homology(fib.sset))
    if profiles is not None:
        profiles[v] = pair
    return pair


def transport_homology(
    p: SMap,
    edge: SimplexRef,
    backward: bool = False,
    cap: int | None = None,
    certificate=None,
    certify: bool = True,
    profiles: dict | None = None,
) -> TransportResult:
    """Move fiber homology along an edge of the base of p.

    profiles, when given, caches vertex fiber homology across calls so
    that matrices along composable edges share generator bases.  The
    certificate (or a fresh certification when absent, unless certify is
    False) records whether the relevant lifting class held; the
    transport itself only needs the inverted leg to be a homology
    isomorphism.
    """
    x, y = p.source, p.target
    y.resolve(edge)
    if edge.degree != 1:
        raise SimplicialError("transport wants an edge of the base")
    status = None
    if certificate is not None:
        status = certificate.status
    elif certify:
        report = certify_fibration_class(p, cap)
        status = (report.cartesian if backward else report.cocartesian).status

    fiber_edge = restrict_over_simplex(p, edge)
    v_src = y.face(edge, 1)
    v_tgt = y.face(edge, 0)

    fib_src, prof_src = vertex_fiber(p, v_src, profiles)
    fib_tgt, prof_tgt = vertex_fiber(p, v_tgt, profiles)
    prof_edge = homology(fiber_edge.sset)
    idx = identity_map(x)
    leg_src = induced_homology(
        pullback_induced(fib_src, fiber_edge, vertex_inclusion_map(1, 0), idx),
        prof_src,
        prof_edge,
    )
    leg_tgt = induced_homology(
        pullback_induced(fib_tgt, fiber_edge, vertex_inclusion_map(1, 1), idx),
        prof_tgt,
        prof_edge,
    )
    if backward:
        invert, push = leg_src, leg_tgt
        src_prof, dst_prof = prof_tgt, prof_src
    else:
        invert, push = leg_tgt, leg_src
        src_prof, dst_prof = prof_src, prof_tgt
    invertible = invert.is_iso
    matrices: list[IntMatrix] | None = None
    flags: list[bool] = []
    if invertible:
        matrices, flags = _divide_leg(invert, push)
    return TransportResult(
        edge,
        backward,
        src_prof,
        prof_edge,
        dst_prof,
        leg_src,
        leg_tgt,
        invertible,
        matrices,
        flags,
        certificate_status=status,
    )
