import itertools
import random
import time
from fractions import Fraction

import pytest

from sigmaring.matrices import (
    EvalContext,
    ExactMatrix,
    _check_prime,
    _is_prime,
    _matmul,
    _reduce,
    _sigmas,
    _word_product,
    _word_trace,
    as_element,
    field_of,
    matrix_from_json_obj,
    random_matrix,
    random_symmetric,
)
from sigmaring.relations import MultiPoly, _GenericImages, enumerate_words
from sigmaring.ring import SigmaGen, SigmaPoly, sigma_of_word
from sigmaring.sigmatr import sigma_tr
from sigmaring.tableau import bpf, build_T
from sigmaring.words import Letter, Word, canonicalize

# The oracles below compute over Q on Fractions. Over F_p they take the raw
# entries, ints in [0, p), as rationals and map the result by `as_element`
# (the least nonnegative residue): Z_(p) -> F_p is a ring map, so that is
# the value over F_p.


def elements(m: ExactMatrix) -> list[list[Fraction]]:
    """The raw entries of m as Fractions."""
    return [[Fraction(v) for v in row] for row in m.rows]


def object_product(a: list[list], b: list[list]) -> list[list]:
    """Product of square matrices of Fractions, n >= 1."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def trace(m: ExactMatrix):
    e = elements(m)
    return as_element(sum(e[i][i] for i in range(m.n)), m.field)


def leibniz_det(m: ExactMatrix):
    """Independent determinant: signed permutation expansion."""
    n, e = m.n, elements(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term = term * e[i][perm[i]]
        total = total + term
    return as_element(total, m.field)


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
        field_of(9)


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
            want = 0
            for rows in itertools.combinations(range(n), t):
                sub = ExactMatrix([[m.rows[i][j] for j in rows] for i in rows], field)
                want = want + leibniz_det(sub)
            assert m.sigma(t) == as_element(want, field), (t, m)
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
    assert a.sigma(1) == trace(a)
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
            assert b.rows[i][j] == a.rows[i][j] % 7


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
    assert ctx.eval_poly(p) == trace(a * b.T * a)


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


def is_raw(v, field) -> bool:
    if field == "Q":
        return type(v) is int or (type(v) is Fraction and v.denominator != 1)
    return type(v) is int and 0 <= v < field


def is_returned(v, field) -> bool:
    """A value as the API returns it: a Fraction over Q, an int in [0, p)
    over F_p."""
    return type(v) is Fraction if field == "Q" else is_raw(v, field)


@pytest.mark.parametrize("field", ["Q", 5, 7, 10007])
def test_results_are_fractions_over_q_and_residues_over_fp(field):
    """det, sigma, EvalContext.sigma, eval_poly and bpf return a Fraction
    over Q and the least nonnegative residue over F_p, equal to the image
    of the result over Q of the same integer matrices."""
    mats = {k: random_matrix(3, 60 + k, field=field) for k in (1, 2, 3)}
    q_mats = {k: random_matrix(3, 60 + k) for k in (1, 2, 3)}
    w = Word([Letter(1), Letter(2, True)])
    poly = Fraction(1, 2) * sigma_tr(1, 1) - sigma_of_word(2, w)
    T = build_T(1, 1)

    def results(ms):
        ctx = EvalContext(ms)
        out = [ms[1].det(), ctx.eval_poly(poly), bpf(T, ms), bpf(T, ms, form="full")]
        out += [ms[1].sigma(t) for t in range(5)]
        return out + [ctx.sigma(t, w) for t in range(5)]

    got, want = results(mats), results(q_mats)
    assert all(is_returned(v, field) for v in got), got
    assert got == [as_element(v, field) for v in want]


@pytest.mark.parametrize("field,bad,error,message", [
    (5, "2/5", ZeroDivisionError, "^denominator of 2/5 vanishes mod 5$"),
])
def test_rows_hold_raw_values(field, bad, error, message):
    """Rows store over Q an int where an entry is integral and a Fraction
    otherwise, over F_p the least nonnegative int; so do the results of
    +, -, scale, * and T."""
    given = [[3, Fraction(-4, 2), "1/2"], [-1, "-7", Fraction(2, 3)], [0, -12, "13"]]
    m = ExactMatrix(given, field)
    for row, want_row in zip(m.rows, given):
        for v, want in zip(row, want_row):
            want = Fraction(want)
            if field != "Q":
                want = want.numerator * pow(want.denominator, -1, field) % field
            assert is_raw(v, field) and v == want, (v, want)
    for out in (m + m, m.scale(Fraction(1, 2)), m * m, m.T, m - m):
        assert all(is_raw(v, field) for row in out.rows for v in row), out
    with pytest.raises(error, match=message):
        ExactMatrix([[1, 0], [0, bad]], field)


def matrix_json_obj(m: ExactMatrix) -> dict:
    """Inverse of matrix_from_json_obj."""
    obj = {"n": m.n, "field": "Q" if m.field == "Q" else "Fp"}
    if m.field != "Q":
        obj["p"] = m.field
    obj["entries"] = [[str(v) for v in row] for row in m.rows]
    return obj


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


# ---------------------------------------------------------------------------
# The int layer of EvalContext against evaluation on Fractions.
# ---------------------------------------------------------------------------


class object_eval_context:
    """EvalContext computing on Fractions throughout: word products by
    `object_product`, sigma_t lists by `_sigmas` over Q, each value mapped
    into the field only when it is returned.  The oracle for the int
    layer."""

    def __init__(self, assignment: dict[int, ExactMatrix]):
        if not assignment:
            raise ValueError("empty assignment")
        sizes = {m.n for m in assignment.values()}
        fields = {m.field for m in assignment.values()}
        if len(sizes) != 1 or len(fields) != 1:
            raise ValueError("assignment matrices must share size and field")
        self.assignment = dict(assignment)
        self.n = sizes.pop()
        self.field = fields.pop()
        self._words: dict[tuple, list] = {}
        self._sigmas: dict[tuple, list] = {}

    def _word_elements(self, w: Word) -> list:
        key = tuple(w)
        hit = self._words.get(key)
        if hit is not None:
            return hit
        out = None
        for lt in w:
            m = self.assignment.get(lt.index)
            if m is None:
                raise ValueError(f"no matrix for letter index {lt.index}")
            e = elements(m)
            if lt.transposed:
                e = [list(col) for col in zip(*e)]
            out = e if out is None else object_product(out, e)
        self._words[key] = out
        return out

    def word_matrix(self, w: Word) -> ExactMatrix:
        return ExactMatrix(self._word_elements(w), self.field)

    def _sigma(self, t: int, w: Word) -> Fraction:
        if t < 0:
            raise ValueError("t must be nonnegative")
        key = tuple(w)
        hit = self._sigmas.get(key)
        if hit is None:
            hit = self._sigmas[key] = _sigmas(self._word_elements(w), Fraction(1))
        return hit[t] if t <= self.n else Fraction(0)

    def sigma(self, t: int, w: Word):
        return as_element(self._sigma(t, w), self.field)

    def eval_poly(self, p: SigmaPoly):
        # a coefficient is mapped first, so that a denominator vanishing mod
        # p is refused even where the sum over Q would cancel it
        total = Fraction(0)
        for mono, coeff in p.monomials.items():
            term = as_element(coeff, self.field)
            for g in mono:
                term = term * self._sigma(g.t, g.cycle)
            total = total + term
        return as_element(total, self.field)


def random_words(rng: random.Random, d: int, count: int) -> list[Word]:
    return [
        Word(Letter(rng.randint(1, d), rng.random() < 0.5) for _ in range(rng.randint(1, 4)))
        for _ in range(count)
    ]


def random_sigma_poly(rng: random.Random, n: int, d: int, dens=(1, 2, 3, 4)) -> SigmaPoly:
    """Rational coefficients over generators s_t(w), t up to n + 1, on the
    canonical roots of random words with transposed letters."""
    monomials = {}
    for _ in range(rng.randint(1, 6)):
        mono = tuple(
            SigmaGen(rng.randint(1, n + 1), canonicalize(w)[0])
            for w in random_words(rng, d, rng.randint(0, 3))
        )
        monomials[mono] = Fraction(rng.randint(-9, 9), rng.choice(dens))
    return SigmaPoly(monomials)


def fractional_matrix(n: int, seed: int, field) -> ExactMatrix:
    """Entries like "-7/3" through the JSON reader, as `eval` reads them."""
    rng = random.Random(seed)
    entries = [
        [f"{rng.randint(-9, 9)}/{rng.choice((1, 2, 3))}" for _ in range(n)] for _ in range(n)
    ]
    obj = {"n": n, "field": "Q" if field == "Q" else "Fp", "entries": entries}
    if field != "Q":
        obj["p"] = field
    return matrix_from_json_obj(obj)


def assert_same_value(got, want, field):
    assert is_returned(got, field), (got, field)
    assert got == want


@pytest.mark.parametrize("field", ["Q", 5, 7, 10007])
@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_int_layer_matches_object_oracle(field, fractional, n):
    rng = random.Random(f"{field}-{fractional}-{n}")
    d = 2
    make = fractional_matrix if fractional else (lambda n, s, f: random_matrix(n, s, field=f))
    for trial in range(3):
        mats = {k: make(n, 100 * trial + k, field) for k in range(1, d + 1)}
        ctx, oracle = EvalContext(mats), object_eval_context(mats)
        for w in random_words(rng, d, 6):
            got = ctx.word_matrix(w)
            assert got == oracle.word_matrix(w) and got.field == ctx.field
            for t in range(n + 2):
                assert_same_value(ctx.sigma(t, w), oracle.sigma(t, w), field)
        for _ in range(8):
            p = random_sigma_poly(rng, n, d)
            assert_same_value(ctx.eval_poly(p), oracle.eval_poly(p), field)
        for p in (SigmaPoly.zero(), SigmaPoly.one()):
            assert_same_value(ctx.eval_poly(p), oracle.eval_poly(p), field)


@pytest.mark.parametrize("field", ["Q", 7, 10007])
@pytest.mark.parametrize("fractional", [False, True])
def test_prefix_word_products_match_letter_by_letter(field, fractional):
    """Each word matrix is its cached prefix times its last letter; on
    transposed words of length 3 to 8, met shortest first and longest
    first, it equals the product of ExactMatrix letters."""
    make = fractional_matrix if fractional else (lambda n, s, f: random_matrix(n, s, field=f))
    a, b = make(3, 61, field), make(3, 62, field)
    letters = {Letter(1): a, Letter(1, True): a.T, Letter(2): b, Letter(2, True): b.T}
    words = [Word(w) for k in (3, 4) for w in itertools.product(letters, repeat=k)]
    rng = random.Random(str(field))
    words += [Word(rng.choices(list(letters), k=rng.randint(5, 8))) for _ in range(40)]
    for order in (words, words[::-1]):
        ctx = EvalContext({1: a, 2: b})
        for w in order:
            want = letters[w[0]]
            for lt in w[1:]:
                want = want * letters[lt]
            assert ctx.word_matrix(w) == want, w


def trace_ring(ring: str):
    """(letter, mul, unit, normal form of a value) of one ring of word
    matrices over letters 1 and 2: the raw values of EvalContext at n = 3
    over Q (int entries, then Fraction entries) and over F_7, and generic
    MultiPoly matrices at n = 2."""
    if ring == "generic":
        table = _GenericImages(2, 2)
        return table._letter, _matmul, MultiPoly.const(table.nvars, 1), lambda v: v.terms
    field = 7 if ring == "Fp" else "Q"
    make = fractional_matrix if ring == "Q-fractions" else (lambda n, s, f: random_matrix(n, s, field=f))
    ctx = EvalContext({k: make(3, 70 + k, field) for k in (1, 2)})
    return ctx._letter_rows, ctx._mul, 1, lambda v: _reduce(v, field)


@pytest.mark.parametrize("ring", ["Q", "Q-fractions", "Fp", "generic"])
def test_word_trace_is_sigma_1_of_the_word_product(ring):
    """tr(w) from the matrices of its two halves equals sigma_1 of its
    product matrix by Berkowitz, on every word of up to 6 letters over
    letters 1 and 2 with transposes."""
    letter, mul, one, form = trace_ring(ring)
    halves, whole = {}, {}
    for w in enumerate_words(2, 6):
        got = _word_trace(w, halves, letter, mul)
        assert form(got) == form(_sigmas(_word_product(w, whole, letter, mul), one)[1]), w
    # the halves are cached as _word_product caches them; w itself is not
    w = enumerate_words(2, 5)[-1]
    cache: dict = {}
    _word_trace(w, cache, letter, mul)
    assert set(cache) == {w[:1], w[:2], w[2:3], w[2:4], w[2:]}


@pytest.mark.parametrize("p", [5, 7, 10007])
def test_int_layer_stays_reduced_mod_p(p):
    """Cached word products and sigma_t lists hold least nonnegative
    representatives, so the ints stay below p."""
    rng = random.Random(p)
    ctx = EvalContext({k: random_matrix(3, 40 + k, field=p) for k in (1, 2)})
    for _ in range(10):
        ctx.eval_poly(random_sigma_poly(rng, 3, 2))
    values = [v for rows in ctx._words.values() for row in rows for v in row]
    values += [v for s in ctx._sigmas.values() for v in s]
    values += ctx._traces.values()
    assert values and all(type(v) is int and 0 <= v < p for v in values)
    assert ctx._traces
    assert any(len(key) > 1 for key in ctx._words)


@pytest.mark.parametrize("p", [5, 7])
def test_coefficient_denominator_vanishing_mod_p(p):
    ctx = EvalContext({1: random_matrix(2, 3, field=p)})
    poly = Fraction(1, p) * sigma_of_word(1, Word([Letter(1)]))
    message = f"^denominator of 1/{p} vanishes mod {p}$"
    with pytest.raises(ZeroDivisionError, match=message):
        ctx.eval_poly(poly)
    with pytest.raises(ZeroDivisionError, match=message):
        object_eval_context({1: random_matrix(2, 3, field=p)}).eval_poly(poly)
    with pytest.raises(ZeroDivisionError, match=message):
        as_element(Fraction(1, p), p)
