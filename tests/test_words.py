from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigmaring.words import (
    Letter,
    LinComb,
    Naming,
    Word,
    canonicalize,
    glue,
    is_primitive,
    lincomb_text,
    mdeg,
    mdeg_map,
    parse_lincomb,
    parse_word,
    word_text,
)

letters = st.builds(Letter, st.integers(1, 3), st.booleans())
words = st.builds(Word, st.lists(letters, min_size=1, max_size=8))


def brute_primitive(w: Word) -> bool:
    ls = list(w)
    for p in range(1, len(ls)):
        if len(ls) % p == 0 and ls[:p] * (len(ls) // p) == ls:
            return False
    return True


def rotations(w: Word):
    n = len(w)
    for i in range(n):
        yield Word(w[i:] + w[:i])


def test_letter_order():
    # x1 < x1' < x2 < x2'
    assert Letter(1) < Letter(1, True) < Letter(2) < Letter(2, True)


def test_word_basics():
    w = Word([Letter(1), Letter(2, True)])
    assert len(w) == 2
    assert w.T == Word([Letter(2), Letter(1, True)])
    assert w * w == Word([Letter(1), Letter(2, True)] * 2)
    with pytest.raises(ValueError):
        Word([])
    with pytest.raises(ValueError):
        Word([Letter(0)])


@given(words)
def test_is_primitive_matches_bruteforce(w):
    assert is_primitive(w) == brute_primitive(w)


@given(words)
def test_canonicalize_constant_on_class(w):
    """Every rotation of the word or its transpose has the same canonical
    primitive root, which is itself primitive and divides the length."""
    root, e = canonicalize(w)
    assert is_primitive(root)
    assert len(root) * e == len(w)
    for rot in rotations(w):
        assert canonicalize(rot)[0] == root
    r2, e2 = canonicalize(w.T)
    assert (r2, e2) == (root, e)
    assert canonicalize(root) == (root, 1)


@given(words, words)
def test_involution_antihomomorphism(u, v):
    assert (u * v).T == v.T * u.T
    assert u.T.T == u


@given(words, words)
def test_mdeg_additive(u, v):
    d = 3
    assert mdeg(u * v, d) == tuple(a + b for a, b in zip(mdeg(u, d), mdeg(v, d)))


def test_mdeg_counts_transposed():
    w = Word([Letter(1), Letter(1, True), Letter(2)])
    assert mdeg(w, 2) == (2, 1)
    assert mdeg_map(w) == {1: 2, 2: 1}
    with pytest.raises(ValueError):
        mdeg(w, 1)


def test_canonical_examples():
    nm = Naming.xyz(1, 1, 1)
    for src, want, power in [
        ("[z y]", "[y z]", 1),
        ("[y' z]", "[y z']", 1),
        ("[z' y']", "[y z]", 1),
        ("[x' x' x']", "[x]", 3),
        ("[x y x y]", "[x y]", 2),
        ("[z y x]", "[x z y]", 1),
    ]:
        root, e = canonicalize(parse_word(src, nm))
        assert (word_text(root, nm), e) == (want, power), src


def test_glue():
    w = Word([Letter(1), Letter(4, True), Letter(7)])
    assert glue(w, 3) == Word([Letter(1), Letter(1, True), Letter(1)])
    assert glue(w, 2) == Word([Letter(1), Letter(2, True), Letter(1)])


def test_lincomb_arithmetic():
    a = LinComb.of(Word([Letter(1)]))
    b = LinComb.of(Word([Letter(2)]), Fraction(1, 2))
    s = a + b
    assert s * s == a * a + a * b + b * a + b * b
    assert (a - a) == LinComb()
    assert not (a - a)
    # transpose is an anti-homomorphism
    assert (a * b).T == b.T * a.T


def test_lincomb_text_roundtrip():
    nm = Naming.xyz(1, 2, 1)
    src = "-[x y1 z] + 3/2*[y2] - [y1' x]"
    lc = parse_lincomb(src, nm)
    assert parse_lincomb(lincomb_text(lc, nm), nm) == lc
    assert lincomb_text(lc, nm) == "-[x y1 z] - [y1' x] + 3/2*[y2]"


def test_parse_errors():
    nm = Naming.xyz(1, 1, 1)
    with pytest.raises(ValueError):
        parse_word("x y", nm)  # missing brackets
    with pytest.raises(ValueError):
        parse_word("[]", nm)
    with pytest.raises(ValueError):
        parse_word("[w]", nm)
    with pytest.raises(ValueError):
        parse_lincomb("[x] - [x]", nm)  # collapses to zero


def test_naming_scan():
    nm = Naming.scan("tr[x y2] + s2[y1 a']")
    assert nm.names == ["x", "y1", "y2", "a"]
    assert nm.index("x") == nm.index("x1") == 1
    # subscript-1 collapses to the bare name only when it is alone
    assert Naming.scan("[x1 z]").names == ["x", "z"]
    assert Naming.scan("[x1 x2]").names == ["x1", "x2"]


def test_naming_roundtrip_stability():
    nm = Naming.scan("[b a' a]")
    assert nm.names == ["a", "b"]
    w = parse_word("[b a' a]", nm)
    assert word_text(w, nm) == "[b a' a]"


@given(words, words)
def test_word_hash_cached_and_consistent(u, v):
    # a word hashes and compares as the tuple of its letters
    assert hash(u) == hash(tuple(u)) == hash(Word(tuple(u)))
    assert (u == v) == (tuple(u) == tuple(v))
    if u == v:
        assert hash(u) == hash(v)
    with pytest.raises(AttributeError):
        u.letters = tuple(v)
    with pytest.raises(TypeError):
        u[0] = v[0]
    # `*` concatenates; slices are plain tuples
    assert u * v == Word(tuple(u) + tuple(v)) and type(u * v) is Word
    assert type(u[:1]) is tuple
