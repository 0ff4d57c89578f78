"""Integral homology against an independent sympy oracle.

Two routes are kept separate on purpose.  The implementation route
computes homology through the package's own integer Smith forms.  The
oracle route hands the very same boundary matrices to sympy: betti
numbers from ranks over QQ, torsion from sympy's Smith normal form
over ZZ.  The two must agree on every instance.
"""

import random
import sys
import types

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from sslift.cat import cyclic_group_category, nerve
from sslift.homology import (
    IntMatrix,
    SmithForm,
    TruncationError,
    chain_complex,
    euler_characteristic,
    homology,
    induced_homology,
    is_group_iso,
    kernel_basis,
    pi0,
    smith_normal_form,
    solve_integer,
)
from sslift.products import Product
from sslift.sset import (
    SimplexRef,
    SimplicialSet,
    boundary,
    constant_map,
    standard_simplex,
    terminal_map,
)

import pytest

from tests.smith_reference import _smith_tracked
from tests.test_sset import loop_space


def to_sympy(m: IntMatrix) -> sympy.Matrix:
    rows, cols = m.shape
    return sympy.Matrix(rows, cols, [m.to_lists()[i][j] for i in range(rows) for j in range(cols)])


def oracle_invariants(x, k):
    """H_k of x via sympy: rank over QQ and Smith form over ZZ."""
    cx = chain_complex(x)
    d_k = to_sympy(cx.boundary(k))
    d_k1 = to_sympy(cx.boundary(k + 1))
    n_k = d_k.shape[1]
    rank_k = d_k.rank() if n_k and d_k.shape[0] else 0
    rank_k1 = d_k1.rank() if d_k1.shape[0] and d_k1.shape[1] else 0
    betti = n_k - rank_k - rank_k1
    torsion = []
    if rank_k1:
        snf = sympy_snf(d_k1, domain=sympy.ZZ)
        diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
        torsion = sorted(int(d) for d in diag if abs(d) > 1)
    return betti, tuple(torsion)


def assert_profile_matches_oracle(x, top=None):
    prof = homology(x)
    top = len(prof.groups) if top is None else top
    for k in range(top):
        got = prof.group(k).invariants()
        want = oracle_invariants(x, k)
        assert (got[0], tuple(sorted(got[1]))) == want, (k, got, want)


def test_spheres_against_oracle():
    for n in (1, 2, 3):
        x = boundary(n + 1)
        assert_profile_matches_oracle(x)
        prof = homology(x)
        want = [(1, ())] + [(0, ())] * (n - 1) + [(1, ())]
        assert list(prof.invariants()) == want


def test_circle_cylinder_torus():
    s1 = loop_space()
    cyl = Product(s1, standard_simplex(1)).sset
    torus = Product(s1, s1).sset
    for x in (s1, cyl, torus):
        assert_profile_matches_oracle(x)
    assert homology(torus).invariants() == ((1, ()), (2, ()), (1, ()))


def test_group_nerve_torsion_below_truncation():
    x = nerve(cyclic_group_category(2)).sset
    prof = homology(x)
    assert prof.truncated_at == x.truncated_at
    assert [g.invariants() for g in prof.groups] == [
        (1, ()), (0, (2,)), (0, ()), (0, (2,)),
    ]
    assert_profile_matches_oracle(x, top=len(prof.groups))


def test_z4_nerve_torsion():
    x = nerve(cyclic_group_category(4)).sset
    prof = homology(x)
    assert prof.group(1).invariants() == (0, (4,))
    assert prof.group(3).invariants() == (0, (4,))
    assert_profile_matches_oracle(x, top=len(prof.groups))


def test_circle_nerve(c4_nerve):
    x = c4_nerve.sset
    assert homology(x).invariants() == ((1, ()), (1, ()))
    assert_profile_matches_oracle(x)


def test_smith_normal_form_against_sympy():
    import random

    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = IntMatrix(rows, cols, entries)
        d, u, v = smith_normal_form(m)
        sd = sympy_snf(sympy.Matrix(entries), domain=sympy.ZZ)
        mine = [abs(d.to_lists()[i][i]) for i in range(min(rows, cols))]
        theirs = [abs(sd[i, i]) for i in range(min(sd.shape))]
        theirs += [0] * (len(mine) - len(theirs))
        assert mine == theirs
        # divisibility chain
        nz = [v_ for v_ in mine if v_]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        # d = u m v with unimodular transforms
        assert (u @ m @ v).to_lists() == d.to_lists()
        assert abs(sympy.Matrix(u.to_lists()).det()) == 1
        assert abs(sympy.Matrix(v.to_lists()).det()) == 1


def test_solve_integer_and_kernel():
    import random

    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        x_true = [rng.randint(-3, 3) for _ in range(cols)]
        b = a.mul_vec(x_true)
        x = solve_integer(a, b)
        assert x is not None and a.mul_vec(x) == b
        k = kernel_basis(a)
        _, kcols = k.shape
        for j in range(kcols):
            assert all(v == 0 for v in a.mul_vec(k.column(j)))
        # nullity agrees with sympy rank
        assert kcols == cols - sympy.Matrix(a.to_lists()).rank()


def test_solve_integer_detects_unsolvable():
    a = IntMatrix(1, 1, [[2]])
    assert solve_integer(a, [1]) is None
    assert solve_integer(a, [4]) == [2]


def test_is_group_iso_basics():
    z = homology(loop_space()).group(1)  # Z
    z2 = homology(nerve(cyclic_group_category(2)).sset).group(1)  # Z/2
    assert is_group_iso(z, z, IntMatrix(1, 1, [[1]]))
    assert is_group_iso(z, z, IntMatrix(1, 1, [[-1]]))
    assert not is_group_iso(z, z, IntMatrix(1, 1, [[2]]))
    assert is_group_iso(z2, z2, IntMatrix(1, 1, [[1]]))
    # multiplication by 2 kills Z/2
    assert not is_group_iso(z2, z2, IntMatrix(1, 1, [[2]]))
    z_plus_z = homology(Product(loop_space(), loop_space()).sset).group(1)
    assert is_group_iso(z_plus_z, z_plus_z, IntMatrix(2, 2, [[0, 1], [1, 0]]))
    assert not is_group_iso(z_plus_z, z_plus_z, IntMatrix(2, 2, [[1, 1], [1, 1]]))


def test_cycle_coordinates():
    s1 = loop_space()
    g1 = homology(s1).group(1)
    assert g1.coordinates([1]) in ([1], [-1])
    assert g1.coordinates([3]) in ([3], [-3])
    # a boundary has zero coordinates in degree 1 of the 2-sphere
    s2 = boundary(3)
    cx = chain_complex(s2)
    d2 = cx.boundary(2)
    img = d2.mul_vec([1, 0, 0, 0])
    g = homology(s2).group(1)
    assert g.coordinates(img) == []  # trivial group has no coordinates to give


def test_induced_maps():
    s1 = loop_space()
    cyl = Product(s1, standard_simplex(1))
    # collapsing the cylinder onto the loop is a homology iso
    collapse = cyl.to_left
    ind = induced_homology(collapse)
    assert ind.is_iso
    # the terminal map kills H_1
    ind2 = induced_homology(terminal_map(s1))
    assert ind2.iso_flags[0]
    assert not ind2.iso_flags[1]


def test_induced_map_into_a_truncated_target_names_the_degree():
    # the source has H_2 = Z; the target's profile stops below its cap 2
    target = nerve(cyclic_group_category(2), 2).sset
    f = constant_map(boundary(3), target, SimplexRef(0, (), "*"))
    with pytest.raises(TruncationError, match="induced map in degree 2"):
        induced_homology(f)
    # below the cap the map is determined
    ind = induced_homology(constant_map(boundary(2), target, SimplexRef(0, (), "*")))
    assert ind.iso_flags == [True, False]


def test_induced_map_into_a_truncated_target_with_no_cells_in_a_degree():
    # the point capped at 3 has groups in degrees 0-2 and cells only in 0
    target = SimplicialSet({0: [("p", [])]}, truncated_at=3)
    source = nerve(cyclic_group_category(2), 3).sset
    ind = induced_homology(constant_map(source, target, SimplexRef(0, (), "p")))
    assert [m.shape for m in ind.matrices] == [(1, 1), (0, 1), (0, 0)]
    assert ind.iso_flags == [True, False, True]
    assert homology(target).group(1).coordinates([]) == []
    assert homology(target).group(1).coordinates([1]) is None


def test_euler_characteristic():
    assert euler_characteristic(standard_simplex(3)) == 1
    assert euler_characteristic(boundary(3)) == 2
    assert euler_characteristic(Product(loop_space(), loop_space()).sset) == 0
    with pytest.raises(TruncationError):
        euler_characteristic(nerve(cyclic_group_category(2)).sset)


def test_pi0():
    assert pi0(boundary(1))[0] == 2
    assert pi0(standard_simplex(2))[0] == 1
    n, labels = pi0(loop_space())
    assert n == 1 and set(labels) == {"p"}


def reference_solve(a, b):
    """Solve a @ x = b from a fresh tracked Smith form, as every solve once did."""
    d, u, v, _, _ = _smith_tracked(a)
    ub = u.mul_vec(b)
    n = min(a.rows, a.cols)
    y = [0] * a.cols
    for t in range(n):
        dt = d.data[t][t]
        if dt:
            if ub[t] % dt:
                return None
            y[t] = ub[t] // dt
        elif ub[t]:
            return None
    if any(ub[n:]):
        return None
    return v.mul_vec(y)


def reference_kernel(a):
    """Kernel columns read off a fresh tracked Smith form."""
    d, _, v, _, _ = _smith_tracked(a)
    n = min(a.rows, a.cols)
    return [v.column(j) for j in range(a.cols) if j >= n or d.data[j][j] == 0]


def random_matrices(rng):
    """Empty, zero, rank-deficient and random integer matrices."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)):
        yield IntMatrix(rows, cols)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(1, min(rows, cols))
        yield random_matrix(rng, rows, rank, 3) @ random_matrix(rng, rank, cols, 3)
        yield random_matrix(rng, rows, cols, 6)


def random_matrix(rng, rows, cols, bound):
    entries = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(rows, cols, entries)


def test_smith_tracked_inverts_both_transforms():
    rng = random.Random(29)
    for a in random_matrices(rng):
        d, u, v, u_inv, v_inv = _smith_tracked(a)
        assert u @ a @ v == d
        assert u @ u_inv == IntMatrix.identity(a.rows)
        assert v @ v_inv == IntMatrix.identity(a.cols)


def test_smith_form_matches_per_call_reference():
    rng = random.Random(17)
    outcomes = {"solved": 0, "unsolvable": 0}
    for a in random_matrices(rng):
        form = SmithForm(a)
        rights = [[0] * a.rows, [rng.randint(-5, 5) for _ in range(a.rows)]]
        rights.append(a.mul_vec([rng.randint(-3, 3) for _ in range(a.cols)]))
        rights += [[2 * x + 1 for x in b] for b in rights]
        for b in rights:
            x = form.solve(b)
            assert x == reference_solve(a, b)
            if x is None:
                outcomes["unsolvable"] += 1
            else:
                assert a.mul_vec(x) == b
                outcomes["solved"] += 1
        kern, want = form.kernel(), reference_kernel(a)
        assert kern.shape == (a.cols, len(want)) and kern.columns() == want
        n = min(a.rows, a.cols)
        assert len(form.diagonal) == n
        if n:
            sd = sympy_snf(to_sympy(a), domain=sympy.ZZ)
            theirs = [abs(int(sd[i, i])) for i in range(min(sd.shape))]
            theirs += [0] * (n - len(theirs))
            assert [abs(t) for t in form.diagonal] == theirs
    assert outcomes["solved"] and outcomes["unsolvable"]


def test_homology_factors_each_matrix_once(monkeypatch):
    import sslift.homology as hmod

    shapes = []
    real = hmod.SmithForm.__init__

    def counted(self, m):
        shapes.append(m.shape)
        real(self, m)

    monkeypatch.setattr(hmod.SmithForm, "__init__", counted)
    prof = hmod.homology(nerve(cyclic_group_category(4), 4).sset)
    # the boundary and the relations in degrees 1-3, which have a
    # differential left; degree 0 is free and factors nothing
    assert len(prof.groups) == 4
    assert len(shapes) == 6
    for g in prof.groups:
        for i, col in enumerate(g.gens.columns()):
            unit = [1 if j == i else 0 for j in range(len(g.orders))]
            assert g.coordinates(col) == unit
    assert len(shapes) == 6


def test_homology_module_is_not_shadowed():
    import sslift
    import sslift.homology as hmod

    assert isinstance(hmod, types.ModuleType)
    assert sslift.homology is sys.modules["sslift.homology"] is hmod
    assert sslift.SmithForm is hmod.SmithForm
