"""Operator algebra on monotone maps and degeneracy words.

Everything here has a brute-force combinatorial oracle: enumerate all
monotone maps between small ordinals with itertools and check the
algebra pointwise.
"""

import itertools

import pytest

from sslift import words as W


def identity_values(n):
    return tuple(range(n + 1))


def is_surjection(values, codomain):
    if not values or values[0] != 0 or values[-1] != codomain:
        return False
    return all(b - a in (0, 1) for a, b in zip(values, values[1:]))


def op_values(values, codomain):
    """The same map through the order-reversing isomorphisms of both ordinals."""
    return tuple(codomain - v for v in reversed(values))


def monotone_maps(m, n):
    """All monotone maps [m] -> [n] as value tuples."""
    return [
        v
        for v in itertools.product(range(n + 1), repeat=m + 1)
        if all(v[i] <= v[i + 1] for i in range(m))
    ]


def test_identity_and_composition():
    for m in range(4):
        ident = identity_values(m)
        assert ident == tuple(range(m + 1))
        for n in range(4):
            for f in monotone_maps(m, n):
                assert W.compose(identity_values(n), f) == f
                assert W.compose(f, identity_values(m)) == f


def test_compose_is_pointwise():
    for f in monotone_maps(2, 3):
        for g in monotone_maps(3, 2):
            h = W.compose(g, f)
            assert h == tuple(g[f[i]] for i in range(3))
            assert W.is_monotone(h)


def test_simplicial_identities_on_generators():
    # delta_j delta_i = delta_i delta_{j-1} for i < j, maps [n-1] -> [n+1]
    n = 3
    for j in range(n + 2):
        for i in range(j):
            lhs = W.compose(W.delta_values(j, n + 1), W.delta_values(i, n))
            rhs = W.compose(W.delta_values(i, n + 1), W.delta_values(j - 1, n))
            assert lhs == rhs
    # sigma_i sigma_{j+1} = sigma_j sigma_i for i <= j, maps [n+2] -> [n]
    for i in range(n + 1):
        for j in range(i, n + 1):
            lhs = W.compose(W.sigma_values(i, n), W.sigma_values(j + 1, n + 1))
            rhs = W.compose(W.sigma_values(j, n), W.sigma_values(i, n + 1))
            assert lhs == rhs


def test_epi_mono_factorization_unique_and_correct():
    for m in range(4):
        for n in range(4):
            for f in monotone_maps(m, n):
                mono, epi = W.epi_mono_factor(f)
                assert is_surjection(epi, len(mono) - 1)
                assert len(set(mono)) == len(mono)
                assert W.compose(mono, epi) == f
                # image of the injection is exactly the image of f
                assert set(mono) == set(f)


def test_word_map_round_trip():
    for m in range(5):
        for n in range(m + 1):
            for epi in monotone_maps(m, n):
                if not is_surjection(epi, n):
                    continue
                w = W.map_to_word(epi)
                assert W.is_word(w)
                assert W.word_to_map(w, m) == epi


def test_words_strictly_decreasing():
    for m in range(1, 5):
        for epi in monotone_maps(m, m - 1):
            if is_surjection(epi, m - 1):
                w = W.map_to_word(epi)
                assert all(w[i] > w[i + 1] for i in range(len(w) - 1))


def test_word_string_round_trip():
    for w in [(), (0,), (2, 0), (3, 1, 0)]:
        assert W.parse_word(W.word_string(w)) == w
    assert W.word_string(()) == ""
    assert W.word_string((2, 0)) == "2,0"


@pytest.mark.parametrize(
    "text, message",
    [
        ("-1", "degeneracy word '-1' has a negative index"),
        ("2,-1", "degeneracy word '2,-1' has a negative index"),
        ("0,1", "degeneracy word '0,1' is not strictly decreasing"),
        ("1,1", "degeneracy word '1,1' is not strictly decreasing"),
        ("x", "malformed degeneracy word 'x'"),
    ],
)
def test_parse_word_names_the_fault(text, message):
    with pytest.raises(ValueError) as exc:
        W.parse_word(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text", ["1_0", "+1", " 0", "0 ", "01", "-0", "-01", "²", "١", "2,", ",0", "0,,1"]
)
def test_parse_word_takes_only_canonical_ascii_indices(text):
    with pytest.raises(ValueError) as exc:
        W.parse_word(text)
    assert str(exc.value) == f"malformed degeneracy word {text!r}"


def test_canonical_int_spells_each_integer_once():
    spelled = {str(i): i for i in range(-120, 121)}
    assert all(W.canonical_int(text) == i for text, i in spelled.items())
    for text in ["", "-", "+1", "01", "-0", "1_0", " 1", "1.0", "²", "١٢"]:
        assert W.canonical_int(text) is None


def test_op_involution():
    for m in range(4):
        for n in range(4):
            for f in monotone_maps(m, n):
                g = op_values(f, n)
                assert W.is_monotone(g)
                assert op_values(g, n) == f


def test_word_op_matches_map_op():
    # reversing a surjection reverses its word through word_op
    for m in range(1, 5):
        for epi in monotone_maps(m, m - 1):
            if not is_surjection(epi, m - 1):
                continue
            w = W.map_to_word(epi)
            flipped = op_values(epi, m - 1)
            assert W.word_to_map(W.word_op(w, m), m) == flipped


def test_rejects_garbage():
    assert not W.is_word((0, 0))
    assert not W.is_word((1, 2))
    assert not W.is_monotone((1, 0))
    with pytest.raises(Exception):
        W.word_to_map((5,), 1)


def words_at(n):
    """Every degeneracy word at degree n: the strictly decreasing subsets of range(n)."""
    return [w for k in range(n + 1) for w in itertools.combinations(range(n - 1, -1, -1), k)]


def surjection(word, n):
    """s_word on [n]: t goes to the number of steps below t that word does not collapse."""
    return tuple(sum(1 for j in range(t) if j not in word) for t in range(n + 1))


def collapses(values):
    """The word of a surjection: the steps it collapses, decreasing."""
    return tuple(j for j in range(len(values) - 2, -1, -1) if values[j] == values[j + 1])


def test_face_rule_is_the_epi_mono_factoring_of_s_w_delta_i():
    for n in range(1, 7):
        for w in words_at(n):
            s = surjection(w, n)
            m = n - len(w)
            assert is_surjection(s, m)
            for i in range(n + 1):
                f = tuple(s[t if t < i else t + 1] for t in range(n))
                image = sorted(set(f))
                if len(image) == m + 1:
                    want = (None, collapses(f))
                else:
                    (missing,) = set(range(m + 1)) - set(image)
                    want = (missing, tuple(image.index(v) for v in f))
                assert W.face_rule(w, n, i) == want, (w, n, i)


def test_renormalize_is_the_word_of_the_composite():
    for n in range(5):
        for w in words_at(n):
            for k in range(n + 2):
                for phi in monotone_maps(k, n):
                    composite = W.compose(W.word_to_map(w, n), phi)
                    if not is_surjection(composite, n - len(w)):
                        continue
                    assert W.renormalize(w, n, phi) == W.map_to_word(composite)
                    assert W.renormalize(w, n, phi) == collapses(composite)
