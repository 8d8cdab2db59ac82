import itertools
import time
from fractions import Fraction

import pytest

from sigmaring.matrices import (
    EvalContext,
    ExactMatrix,
    Fp,
    _check_prime,
    _is_prime,
    matrix_from_json_obj,
    matrix_json_obj,
    random_matrix,
    random_symmetric,
)
from sigmaring.ring import sigma_of_word
from sigmaring.words import Letter, Word


def leibniz_det(m: ExactMatrix):
    """Independent determinant: signed permutation expansion."""
    n = m.n
    total = m._zero_el()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = m._one_el() * sign
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + term
    return total


def test_fp_arithmetic():
    a, b = Fp(3, 5), Fp(4, 5)
    assert a + b == 2 and a - b == 4 and a * b == 2
    assert a / b == Fp(2, 5)  # 3 * 4^-1 = 3 * 4 = 12 = 2 (mod 5)
    assert -a == 2 and a**3 == 2
    assert Fp(Fraction(1, 2), 5) == 3
    assert bool(Fp(0, 7)) is False
    with pytest.raises(ZeroDivisionError):
        Fp(Fraction(1, 5), 5)
    with pytest.raises(ValueError):
        Fp(1, 2)
    with pytest.raises(ValueError):
        Fp(1, 9)
    with pytest.raises(ValueError):
        Fp(1, 5) + Fp(1, 7)


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: n - 1 = d * 2^s, a^d = 1 or a^(d 2^i) = -1."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))


PRIME_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def test_is_prime_matches_trial_division():
    trial = [n for n in range(3000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if _is_prime(n)] == trial
    assert not _is_prime(-7)


@pytest.mark.parametrize(
    "n, fooled_by",
    [(2047, 1), (3215031751, 4), (318665857834031151167461, 12)],
)
def test_check_prime_rejects_strong_pseudoprimes(n, fooled_by):
    # n passes the first `fooled_by` prime bases and fails the next one
    assert all(strong_probable_prime(n, a) for a in PRIME_BASES[:fooled_by])
    assert not strong_probable_prime(n, PRIME_BASES[fooled_by])
    with pytest.raises(ValueError, match=f"^{n} is not prime$"):
        _check_prime(n)


def test_check_prime_bound_and_large_prime():
    start = time.perf_counter()
    assert _check_prime(2**61 - 1) == 2**61 - 1
    assert _check_prime(2**31 - 1) == 2**31 - 1
    assert time.perf_counter() - start < 5
    # the least strong pseudoprime to all 13 bases is refused by the bound
    psi13 = 3317044064679887385961981
    assert all(strong_probable_prime(psi13, a) for a in PRIME_BASES)
    with pytest.raises(ValueError, match="too large"):
        _check_prime(psi13)
    with pytest.raises(ValueError, match="^characteristic 2 is not supported$"):
        _check_prime(2)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        Fp(1, 9)


@pytest.mark.parametrize("field", ["Q", 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_leibniz(field, n):
    for trial in range(4):
        m = random_matrix(n, 1300 + 10 * n + trial, field=field)
        assert m.det() == leibniz_det(m)


@pytest.mark.parametrize("field", ["Q", 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_sigma_matches_principal_minor_leibniz(field, n):
    """Every sigma_t, t = 0..n+1, of the division-free kernel against the
    sum of Leibniz expansions of the principal t x t minors."""
    for trial in range(3):
        m = random_matrix(n, 1700 + 10 * n + trial, field=field)
        for t in range(n + 2):
            want = m._zero_el()
            for rows in itertools.combinations(range(n), t):
                sub = ExactMatrix([[m.rows[i][j] for j in rows] for i in rows], field)
                want = want + leibniz_det(sub)
            assert m.sigma(t) == want, (t, m)
    assert m.det() == m.sigma(n)


def test_det_pivoting():
    # leading zero forces a row swap
    m = ExactMatrix([[0, 1], [1, 0]])
    assert m.det() == -1
    assert ExactMatrix([[0, 0], [1, 1]]).det() == 0
    assert ExactMatrix([[0, 2, 1], [0, 1, 1], [1, 0, 0]]).det() == 1


def test_sigma_charpoly_identity():
    """det(lam*E - A) = sum_t (-lam)^(n-t) ... the principal-minor sums are
    the characteristic coefficients, checked at several integer points."""
    n = 4
    a = random_matrix(n, 77)
    for lam in (0, 1, -2, 5):
        lhs = (ExactMatrix.identity(n).scale(lam) - a).det()
        rhs = sum(
            (-1) ** t * a.sigma(t) * Fraction(lam) ** (n - t) for t in range(n + 1)
        )
        assert lhs == rhs


def test_sigma_edges():
    a = random_matrix(3, 4)
    assert a.sigma(0) == 1
    assert a.sigma(1) == a.trace()
    assert a.sigma(3) == a.det()
    assert a.sigma(4) == 0
    with pytest.raises(ValueError):
        a.sigma(-1)


def test_random_matrix_determinism_and_reduction():
    a = random_matrix(3, 42)
    assert a == random_matrix(3, 42)
    b = random_matrix(3, 42, field=7)
    for i in range(3):
        for j in range(3):
            assert b.rows[i][j] == Fp(a.rows[i][j], 7)


def test_random_symmetric():
    s = random_symmetric(4, 9)
    assert s == s.T


def test_eval_context_words():
    a = random_matrix(3, 51)
    b = random_matrix(3, 52)
    ctx = EvalContext({1: a, 2: b})
    w = Word([Letter(1), Letter(2, True), Letter(1)])
    assert ctx.word_matrix(w) == a * b.T * a
    assert ctx.sigma(2, w) == (a * b.T * a).sigma(2)
    p = sigma_of_word(1, w)
    assert ctx.eval_poly(p) == (a * b.T * a).trace()


def test_eval_context_validation():
    with pytest.raises(ValueError):
        EvalContext({})
    with pytest.raises(ValueError):
        EvalContext({1: random_matrix(2, 1), 2: random_matrix(3, 1)})
    with pytest.raises(ValueError):
        EvalContext({1: random_matrix(2, 1), 2: random_matrix(2, 1, field=5)})
    ctx = EvalContext({1: random_matrix(2, 1)})
    with pytest.raises(ValueError):
        ctx.word_matrix(Word([Letter(2)]))


def test_matrix_ops_and_validation():
    a = ExactMatrix([[1, 2], [3, 4]])
    assert (a + a).rows[0][0] == 2
    assert a.scale(Fraction(1, 2)).rows[1][1] == 2
    assert (a * a).rows[0] == [7, 10]
    assert a.T.rows[0] == [1, 3]
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        a + ExactMatrix([[1]])


@pytest.mark.parametrize("field", ["Q", 5])
def test_matrix_json_roundtrip(field):
    m = random_matrix(3, 8, field=field)
    if field == "Q":
        m = m.scale(Fraction(1, 3))
    obj = matrix_json_obj(m)
    assert matrix_from_json_obj(obj) == m
    bad = dict(obj)
    bad["n"] = 5
    with pytest.raises(ValueError):
        matrix_from_json_obj(bad)
