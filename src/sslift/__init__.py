"""Finite simplicial sets with certified horn lifting.

The package models finite simplicial sets by their nondegenerate
cells, certifies inner / cartesian / cocartesian lifting conditions by
exhausting horn problems up to a cap, constructs homotopy lifts cell
by cell, and checks the homological conclusions (fiber transport,
comma construction reports, base-change coherence) on concrete
instances.
"""

from .cat import (
    COMPOSE_SIGN,
    DEFAULT_NERVE_CAP,
    FiniteCategory,
    Functor,
    NatTrans,
    Nerve,
    chain_poset,
    comma_category,
    cyclic_group_category,
    identity_functor,
    is_grothendieck_fibration,
    is_grothendieck_opfibration,
    nat_trans_homotopy,
    nerve,
    nerve_functor,
    op_category,
    op_functor,
    poset_category,
    slice_category,
    string_normal_form,
)
from .formats import (
    FormatError,
    canonical_json,
    content_digest,
    emit_document,
    load_path,
    parse_document,
    save_path,
)
# The function homology is not re-exported here: that name stays with
# the submodule, so sslift.homology is the module.
from .homology import (
    ChainComplex,
    HomologyGroup,
    HomologyProfile,
    InducedHomology,
    IntMatrix,
    SmithForm,
    TruncationError,
    chain_complex,
    euler_characteristic,
    induced_homology,
    is_group_iso,
    kernel_basis,
    pi0,
    smith_normal_form,
    solve_integer,
)
from .lifting import (
    Certificate,
    FibrationClassReport,
    HornProblem,
    LiftObstruction,
    certify_edge_lifts,
    certify_fibration_class,
    certify_inner_fibration,
    count_horn_lifts,
    cylinder,
    cylinder_region,
    horn_solutions,
    is_cartesian_edge,
    is_cocartesian_edge,
    iter_horn_problems,
    iter_horn_solutions,
    last_vertex_contraction,
    lift_homotopy,
    solve_horn_lift,
    start_map,
)
from .products import (
    Fiber,
    PairedSSet,
    Product,
    pair_map,
    pullback_induced,
)
from .sset import (
    SMap,
    SimplexRef,
    SimplicialError,
    SimplicialSet,
    ValidationError,
    boundary,
    classifying_map,
    constant_map,
    horn,
    identity_map,
    opposite,
    opposite_map,
    ref_sort_key,
    restrict_map,
    skeleton,
    standard_simplex,
    subcomplex,
    terminal_map,
)
from .theoremb import TheoremBReport, theorem_b_report
from .transport import TransportResult, transport_homology
from .verify import (
    BaseChangeReport,
    RealizationReport,
    ltg_check,
    realization_fibration_certificate,
)

__version__ = "0.1.0"
