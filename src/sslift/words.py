"""Arithmetic of simplicial operators.

A monotone map [m] -> [n] between finite ordinals {0,...,m} and {0,...,n}
is stored as the tuple of its m+1 values.  Degeneracy operators appear in
normal form as *words*: a word is the strictly decreasing tuple of indices
i such that the corresponding monotone surjection collapses the pair
(i, i+1).  The empty word is the identity.  Every simplex of a simplicial
set is a unique word applied to a nondegenerate cell, so all face and
degeneracy bookkeeping reduces to composing monotone maps and splitting
them into surjection and injection parts.

The arithmetic a simplicial set repeats for every simplex depends only
on words and ordinals, never on the object: the split of a degenerate
simplex composed with a map, the re-normalized word, and the rule for
the faces of a degenerate simplex.  Every face and degeneracy of a
simplicial set is computed from these three.  They are memoized for the
whole process, and so are the maps, strings and words they and their
callers repeat: word_to_map, word_string, parse_word, word_op,
delta_values and sigma_values.  Their keys range over words, word
strings and monotone maps of bounded degree, and every result is
immutable.  A call that raises is not memoized, so bad input raises
every time.
"""

from __future__ import annotations

import re
from functools import cache


def is_word(word: tuple[int, ...]) -> bool:
    """True if word is a strictly decreasing tuple of nonnegative ints."""
    if not isinstance(word, tuple):
        return False
    if any((not isinstance(i, int)) or i < 0 for i in word):
        return False
    return all(a > b for a, b in zip(word, word[1:]))


@cache
def word_to_map(word: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """Surjection [degree] -> [degree - len(word)] collapsing (i, i+1) for i in word."""
    if word and word[0] >= degree:
        raise ValueError(f"word {word} invalid at degree {degree}")
    collapsed = set(word)
    values = [0]
    for i in range(degree):
        values.append(values[-1] if i in collapsed else values[-1] + 1)
    return tuple(values)


def map_to_word(values: tuple[int, ...]) -> tuple[int, ...]:
    """Collapse set of a monotone surjection, as a strictly decreasing word."""
    return tuple(i for i in range(len(values) - 2, -1, -1) if values[i] == values[i + 1])


def is_monotone(values: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """(outer o inner)(x) = outer[inner[x]]."""
    return tuple(outer[x] for x in inner)


def epi_mono_factor(values: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a monotone map into (injection, surjection) with map = injection o surjection.

    The injection is returned as its value tuple (the sorted image); the
    surjection goes onto [len(image) - 1].
    """
    image = sorted(set(values))
    index = {v: i for i, v in enumerate(image)}
    return tuple(image), tuple(index[v] for v in values)


@cache
def split(word: tuple[int, ...], degree: int, phi: tuple[int, ...]):
    """Split s o phi into (injection, surjection), where s is the surjection
    of word at degree and phi: [m] -> [degree] is monotone.

    Raises ValueError when phi leaves [degree] or is not monotone.
    """
    if phi and (min(phi) < 0 or max(phi) > degree):
        raise ValueError(f"map {phi} does not land in [{degree}]")
    if not is_monotone(phi):
        raise ValueError(f"map {phi} is not monotone")
    return epi_mono_factor(compose(word_to_map(word, degree), phi))


@cache
def renormalize(word: tuple[int, ...], degree: int, epi: tuple[int, ...]) -> tuple[int, ...]:
    """Word of the surjection s o epi, where s is the surjection of word at
    degree and epi is any monotone map with s o epi onto."""
    return map_to_word(compose(word_to_map(word, degree), epi))


@cache
def face_rule(word: tuple[int, ...], n: int, i: int):
    """d_i s_word at degree n, by the simplicial identities (May, §1).

    Either (None, w): d_i cancels a degeneracy and the face of s_word c
    is s_w c; or (k, epi): the face is d_k c degenerated by the surjection
    epi.  Holds for every cell c of degree n - len(word).
    """
    mono, epi = split(word, n, delta_values(i, n))
    m = n - len(word)
    if len(mono) == m + 1:
        return None, map_to_word(epi)
    return max(set(range(m + 1)).difference(mono)), epi


@cache
def delta_values(i: int, n: int) -> tuple[int, ...]:
    """Injection [n-1] -> [n] skipping the value i."""
    if not 0 <= i <= n:
        raise ValueError(f"delta index {i} out of range for [{n}]")
    return tuple(j if j < i else j + 1 for j in range(n))


@cache
def sigma_values(i: int, n: int) -> tuple[int, ...]:
    """Surjection [n+1] -> [n] hitting the value i twice."""
    if not 0 <= i <= n:
        raise ValueError(f"sigma index {i} out of range for [{n}]")
    return tuple(j if j <= i else j - 1 for j in range(n + 2))


@cache
def word_op(word: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """Word of the opposite of the surjection given by word at the given degree."""
    return tuple(sorted((degree - 1 - i for i in word), reverse=True))


@cache
def word_string(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word)


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def canonical_int(text: str) -> int | None:
    """The integer text spells in canonical ASCII decimal ("0", "12", "-3";
    no "+", leading zero, space or "_"), else None: one spelling each."""
    return int(text) if _DECIMAL.fullmatch(text) else None


@cache
def parse_word(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    word = tuple(canonical_int(part) for part in text.split(","))
    if None in word:
        raise ValueError(f"malformed degeneracy word {text!r}")
    if any(i < 0 for i in word):
        raise ValueError(f"degeneracy word {text!r} has a negative index")
    if not is_word(word):
        raise ValueError(f"degeneracy word {text!r} is not strictly decreasing")
    return word
