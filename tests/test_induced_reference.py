"""Induced maps on homology against the dense chain map they replace.

induced_homology pushes each source generator through the map's values
onto the target's cells, and reads each iso flag off the one Smith form
it keeps per degree; a transport solves with the inverted leg's form and
takes its flags from the pushed leg.  The references here are the slow
paths: the dense matrix of the map on normalized chains applied to the
generators, and is_group_iso, which factors the relation matrix afresh.
Both must agree on the map fixtures, on every vertex leg of them, on the
nerve maps of random comma categories, and on every transport along a
non-degenerate edge of those maps.
"""

import pytest

from sslift.homology import IntMatrix, homology, induced_homology, is_group_iso
from sslift.products import Fiber
from sslift.sset import SMap, SimplexRef
from sslift.transport import _vertex_leg, transport_homology, vertex_fiber, vertex_legs

from tests.test_transport import comma_projections, fixture_maps


# -- the reference --------------------------------------------------------------


def chain_map(f: SMap) -> list[IntMatrix]:
    """Matrices of the induced map on normalized chains, degree by degree."""
    src, tgt = f.source, f.target
    top = max(src.dimension, tgt.dimension)
    out = []
    for k in range(top + 1):
        src_cells = src.n_cells(k)
        tgt_index = {c: i for i, c in enumerate(tgt.n_cells(k))}
        m = IntMatrix(len(tgt_index), len(src_cells))
        for j, cell_id in enumerate(src_cells):
            image = f.value(k, cell_id)
            if not image.word:
                m.data[tgt_index[image.cell]][j] = 1
        out.append(m)
    return out


def reference_induced(f, src, tgt):
    """Matrices and iso flags from the dense chain map and is_group_iso."""
    chains = chain_map(f)
    matrices, flags = [], []
    for k in range(max(len(src.groups), len(tgt.groups))):
        sg, tg = src.group(k), tgt.group(k)
        m = chains[k] if k < len(chains) else IntMatrix(tg.gens.rows, sg.gens.rows)
        cols = []
        for col in sg.gens.columns():
            coords = tg.coordinates(m.mul_vec(col))
            assert coords is not None
            cols.append(coords)
        matrix = IntMatrix.from_columns(len(tg.orders), cols)
        matrices.append(matrix)
        flags.append(is_group_iso(sg, tg, matrix))
    return matrices, flags


def assert_matches_reference(ind, f):
    matrices, flags = reference_induced(f, ind.source, ind.target)
    assert ind.matrices == matrices
    assert ind.iso_flags == flags
    assert len(ind.forms) == len(flags)
    for k, form in enumerate(ind.forms):
        same = ind.source.group(k).invariants() == ind.target.group(k).invariants()
        assert (form is not None) == same
        if form is not None:
            # the kept form factors the relation matrix of this degree
            a = ind.target.group(k).with_relations(ind.matrices[k])
            for col in a.columns():
                assert a.mul_vec(form.solve(col)) == col
    return flags


# -- induced maps ---------------------------------------------------------------


def test_fixture_maps_induce_what_the_dense_chain_map_does():
    flags = []
    for f in fixture_maps():
        flags += assert_matches_reference(induced_homology(f), f)
    assert True in flags and False in flags


def test_vertex_legs_induce_what_the_dense_chain_map_does():
    seen = 0
    for p in fixture_maps():
        for n in range(1, p.target.dimension + 1):
            for cell in p.target.n_cells(n):
                sigma = SimplexRef(n, (), cell)
                _, first, last = vertex_legs(p, sigma)
                fib = Fiber(p, sigma)
                prof = homology(fib.sset)
                for pos, ind in ((0, first), (n, last)):
                    vfib, vprof = vertex_fiber(p, p.target.vertex_of(sigma, pos))
                    assert_matches_reference(ind, _vertex_leg(vfib, fib, pos))
                    assert ind.source is vprof
                    seen += 1
    assert seen


def test_comma_nerve_maps_induce_what_the_dense_chain_map_does():
    flags = []
    for f in comma_projections():
        flags += assert_matches_reference(induced_homology(f), f)
    assert True in flags and False in flags


# -- transport -------------------------------------------------------------------


@pytest.mark.parametrize("family", [fixture_maps, comma_projections])
def test_transport_flags_agree_with_a_fresh_iso_test(family):
    verdicts = []
    for p in family():
        for edge in p.target.refs(1):
            if edge.word:
                continue
            for backward in (False, True):
                res = transport_homology(p, edge, backward=backward)
                if not res.leg_invertible:
                    continue
                assert len(res.iso_flags) == len(res.matrices)
                for k, t in enumerate(res.matrices):
                    src = res.source_profile.group(k)
                    dst = res.target_profile.group(k)
                    assert res.iso_flags[k] == is_group_iso(src, dst, t), (edge, backward, k)
                    verdicts.append(res.iso_flags[k])
    assert True in verdicts and False in verdicts
