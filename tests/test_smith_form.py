"""Smith forms whose transforms are built when read.

`SmithForm` keeps the diagonal and the list of operations its
elimination applied, and replays that list for u, v and their inverses
the first time each is read.  The factors must equal the eager
reference's entry for entry, and homology must build no transform wider
than the remainder it reads: a truncated complex's relation matrix is as
wide as the cap degree's remainder, and its column transforms were once
two dense square matrices of that width.
"""

import random
import subprocess
import sys

import pytest

from sslift.cat import cyclic_group_category, nerve
from sslift.homology import IntMatrix, SmithForm, chain_complex, homology, reduce_unit_pivots

from tests.smith_reference import _smith_tracked
from tests.test_homology import random_matrices, random_matrix


def edge_shapes(rng):
    """1 x n, n x 1, zero and empty matrices."""
    for n in (1, 2, 7):
        yield random_matrix(rng, 1, n, 5)
        yield random_matrix(rng, n, 1, 5)
        yield IntMatrix(1, n)
        yield IntMatrix(n, 1)
        yield IntMatrix(0, n)
        yield IntMatrix(n, 0)
    yield IntMatrix(0, 0)
    yield IntMatrix(3, 4)


def test_factors_equal_the_eager_reference():
    rng = random.Random(41)
    seen = 0
    for a in [*random_matrices(rng), *edge_shapes(rng)]:
        d, u, v, u_inv, v_inv = _smith_tracked(a)
        form = SmithForm(a)
        n = min(a.shape)
        assert form.diagonal == [d.data[t][t] for t in range(n)]
        assert form.u == u
        assert form.v == v
        assert form.u_inv == u_inv
        assert form.v_inv == v_inv
        seen += bool(form.diagonal)
    assert seen


@pytest.fixture
def identity_widths(monkeypatch):
    """The width of every identity matrix built while the test runs."""
    widths = []
    real = IntMatrix.identity

    def counted(n):
        widths.append(n)
        return real(n)

    monkeypatch.setattr(IntMatrix, "identity", staticmethod(counted))
    return widths


def test_transforms_are_built_only_when_read(identity_widths):
    widths = identity_widths
    form = SmithForm(IntMatrix(1, 50, [[6] + [4] * 49]))
    assert form.diagonal == [2] and widths == []
    assert form.u == IntMatrix(1, 1, [[1]])
    assert form.u is form.u and widths == [1]


@pytest.mark.parametrize("n, cap", [(3, 6), (4, 4), (5, 4), (4, 5)])
def test_truncated_homology_builds_no_identity_wider_than_the_remainder(
    n, cap, identity_widths
):
    x = nerve(cyclic_group_category(n), cap).sset
    kept = reduce_unit_pivots(chain_complex(x)).kept
    widest = max(len(kept[k]) for k in range(cap))
    assert widest < len(kept[cap])
    identity_widths.clear()
    homology(x)
    assert identity_widths and max(identity_widths) <= widest


GROUPS = "H_0 = Z, H_1 = Z/6, H_2 = 0, H_3 = Z/6, H_4 = 0, H_5 = Z/6"

BOUNDED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sslift.cat import cyclic_group_category, nerve
from sslift.homology import homology
print(homology(nerve(cyclic_group_category(6), 6).sset).describe())
"""


def test_truncated_homology_fits_in_one_gigabyte(src_env):
    pytest.importorskip("resource")
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED], capture_output=True, text=True, env=src_env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == GROUPS
