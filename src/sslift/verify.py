"""Whole-map verification reports.

The realization comparison walks every nondegenerate simplex of the
base and asks whether the fibers over its first and last vertices
include into the fiber over the whole simplex by homology
isomorphisms.  Over a point this is vacuous; a failure names the least
simplex and which vertex leg broke.  This is the finite, computable
proxy for the geometric statement that realizing the map gives a
fibration-like projection over every cell.

The base-change check pulls a certified map back along another map and
confirms what should be stable: the lifting certificates survive base
change, pulling back to a vertex matches the fiber taken directly,
fiber homology is constant on connected components of the base, and
Euler characteristics multiply over a connected base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import homology
from .lifting import FibrationClassReport, certify_fibration_class
from .products import PairedSSet
from .sset import SMap, SimplexRef, SimplicialError
from .transport import fiber_summary, vertex_fiber, vertex_legs


@dataclass
class SimplexComparison:
    simplex: SimplexRef
    first_iso: bool
    last_iso: bool

    def to_json(self) -> dict:
        return {
            "simplex": self.simplex.to_json(),
            "first_vertex_iso": self.first_iso,
            "last_vertex_iso": self.last_iso,
        }


@dataclass
class RealizationReport:
    comparisons: list[SimplexComparison]
    status: str
    witness: tuple[SimplexRef, str] | None

    def by_degree(self) -> dict[int, list[SimplexComparison]]:
        out: dict[int, list[SimplexComparison]] = {}
        for c in self.comparisons:
            out.setdefault(c.simplex.degree, []).append(c)
        return out

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "cap": None,  # no cap applies; kept because pinned and golden digests hash it
            "comparisons": [c.to_json() for c in self.comparisons],
            "witness": None
            if self.witness is None
            else {"simplex": self.witness[0].to_json(), "side": self.witness[1]},
        }


def realization_fibration_certificate(p: SMap) -> RealizationReport:
    """Compare vertex fibers with whole-simplex fibers over every base cell."""
    y = p.target
    comparisons = []
    witness = None
    for n in range(1, y.dimension + 1):
        for cell in y.n_cells(n):
            sigma = SimplexRef(n, (), cell)
            _, first, last = vertex_legs(p, sigma)
            comparisons.append(SimplexComparison(sigma, first.is_iso, last.is_iso))
            if witness is None and not (first.is_iso and last.is_iso):
                witness = (sigma, "last" if first.is_iso else "first")
    status = "certified" if witness is None else "refuted"
    return RealizationReport(comparisons, status, witness)


@dataclass
class BaseChangeReport:
    base_class: FibrationClassReport
    pulled_class: FibrationClassReport
    inherited: dict[str, bool]
    vertex_case: bool | None
    component_constancy: dict[str, bool]
    chi: dict | None
    status: str
    witness: str | None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "base_class": self.base_class.to_json(),
            "pulled_class": self.pulled_class.to_json(),
            "inherited": dict(self.inherited),
            "vertex_case": self.vertex_case,
            "component_constancy": dict(self.component_constancy),
            "chi": self.chi,
        }


def ltg_check(f: SMap, p: SMap, cap: int | None = None) -> BaseChangeReport:
    """Pull p back along f and verify base-change coherence.

    f: Y' -> Y and p: X -> Y.  Certifies p, forms the pullback
    X' = Y' x_Y X with its projection to Y', and checks: certified
    lifting classes are inherited; when Y' is a single vertex the
    pullback agrees with the fiber over its image; fiber homology is
    constant on components of Y; and over a connected Y the Euler
    characteristic of X factors as fiber times base.
    """
    if f.target != p.target:
        raise SimplicialError("base change wants a cospan with a common target")
    base_class = certify_fibration_class(p, cap)
    pulled = PairedSSet(f, p)
    p_prime = pulled.to_left
    pulled_class = certify_fibration_class(p_prime, cap)
    inherited = {}
    for kind in ("inner", "cartesian", "cocartesian"):
        before = getattr(base_class, kind)
        after = getattr(pulled_class, kind)
        inherited[kind] = (not before.certified) or after.certified

    vertex_case = None
    if f.source.counts() == (1,):
        v = f.source.n_cells(0)[0]
        _, prof = vertex_fiber(p, f.value(0, v))
        vertex_case = homology(pulled.sset).same_invariants(prof)
    component_constancy, chi = fiber_summary(p)

    witness = None
    if not all(inherited.values()):
        bad = sorted(k for k, v in inherited.items() if not v)
        witness = f"certified class not inherited by the pullback: {', '.join(bad)}"
    elif vertex_case is False:
        witness = "pullback over a vertex disagrees with the fiber over its image"
    elif not all(component_constancy.values()):
        bad = sorted(k for k, v in component_constancy.items() if not v)
        witness = f"fiber homology varies within component(s): {', '.join(bad)}"
    elif chi is not None and not chi["multiplicative"]:
        witness = "Euler characteristic is not multiplicative"
    if witness is not None:
        status = "refuted"
    elif any(
        getattr(base_class, k).status == "inconclusive"
        for k in ("inner", "cartesian", "cocartesian")
    ):
        status = "inconclusive"
    else:
        status = "certified"
    return BaseChangeReport(
        base_class,
        pulled_class,
        inherited,
        vertex_case,
        component_constancy,
        chi,
        status,
        witness,
    )
