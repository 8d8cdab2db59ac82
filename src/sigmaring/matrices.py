"""Exact matrix evaluation over Q and over prime fields F_p (p odd).

sigma_t of an n x n matrix is the sum of its principal t x t minors, the
coefficient of x^t in det(1 + x A).  `_sigmas` computes all of
sigma_0, ..., sigma_n at once with Berkowitz's division-free recurrence,
so the same code runs over Q, over F_p and over polynomial entries (the
generic matrices of exact verification).  sigma_t is 0 for t > n.
sigma_1 of a word w, its trace, needs neither: `_word_trace` reads it
from the matrices P and Q of the halves of w as sum P[i][k] * Q[k][i],
n^2 products over any of those rings, so `_sigmas` serves t >= 2 only.

EvalContext binds letter indices to matrices and evaluates sigma-ring
polynomials, caching word products, traces and sigma_t lists per
assignment; each word product is its cached prefix times its last letter.
Every matrix entry is a raw value, one representation for both fields
(`_reduce`): over Q an `int` where a value is integral and a `Fraction` only
where it is not, over F_p the least nonnegative `int` representative.
`ExactMatrix` rows hold raw values, and EvalContext computes on them.
The values returned to the caller, such as those of `sigma`, `det` and
`eval_poly`, are `Fraction`s over Q and those same ints in [0, p) over F_p.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import reduce

from .ring import SigmaPoly
from .words import Word

_checked_primes: set[int] = set()

# Miller-Rabin with the first 13 prime bases decides primality exactly below
# the least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> int:
    if p in _checked_primes:
        return p
    if p == 2:
        raise ValueError("characteristic 2 is not supported")
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is too large: primality is decided only below {_MR_LIMIT}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _checked_primes.add(p)
    return p


def _dot(xs, ys):
    """sum(x * y) over a nonempty pairing, without a ring zero."""
    return reduce(operator.add, map(operator.mul, xs, ys))


def _matmul(a, b):
    """Product of square list-of-rows matrices over any commutative ring."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _word_product(w, cache: dict, letter, mul):
    """The matrix of the word w over any ring, each word built as the cached
    product of its prefix w[:-1] and its last letter: one product per word
    that is not in cache yet.  cache maps words (tuples of letters) to
    matrices and is filled for w and every prefix of it; letter(lt) is the
    matrix of one letter and mul(a, b) the product of two matrices."""
    hit = cache.get(w)
    if hit is None:
        k = len(w) - 1
        while k and w[:k] not in cache:
            k -= 1
        hit = cache[w[:k]] if k else None
        for k in range(k, len(w)):
            m = letter(w[k])
            hit = cache[w[: k + 1]] = m if hit is None else mul(hit, m)
    return hit


def _word_trace(w, cache: dict, letter, mul):
    """tr of the matrix of the word w over any ring, read from the matrices
    P and Q of its halves w[:h] and w[h:], h = len(w) // 2, as
    sum P[i][k] * Q[k][i]: n^2 products and no matrix of w.  P and Q come
    from _word_product with the same cache, letter and mul; a one-letter
    word sums its diagonal.  Needs n >= 1: there is no ring zero."""
    h = len(w) // 2
    if not h:
        m = _word_product(w, cache, letter, mul)
        return reduce(operator.add, [row[i] for i, row in enumerate(m)])
    p = _word_product(w[:h], cache, letter, mul)
    q = _word_product(w[h:], cache, letter, mul)
    return reduce(operator.add, map(_dot, p, zip(*q)))


def _sigmas(a, one) -> list:
    """[sigma_0, ..., sigma_n] of the square list-of-rows matrix a over any
    commutative ring with unit `one`, using only +, * and negation
    (Berkowitz 1984).

    With a_k the leading k x k block, a_{k+1} = [[a_k, c], [r, e]] and
    v_j = r a_k^j c, det(1 + x a_{k+1}) is det(1 + x a_k) times
    1 + e x - v_0 x^2 + v_1 x^3 - ... modulo x^(k+2); O(n^4) ring
    operations in all.
    """
    s = [one]
    for k, row in enumerate(a):
        lead = [r[:k] for r in a[:k]]
        col = [r[k] for r in a[:k]]
        w = [one, row[k]]
        for j in range(k):
            if j:
                col = [_dot(r, col) for r in lead]
            v = _dot(row[:k], col)
            w.append(v if j % 2 else -v)
        s = [_dot(s[: i + 1], w[i::-1]) for i in range(k + 2)]
    return s


# A field is either the string "Q" or an odd prime p.


def _reduce(v, field):
    """The raw value of an int or Fraction v in field: over Q an int where v
    is integral and v itself otherwise, over F_p the least nonnegative
    representative."""
    if field == "Q":
        return v.numerator if v.denominator == 1 else v
    if v.denominator % field == 0:
        raise ZeroDivisionError(f"denominator of {v} vanishes mod {field}")
    return v.numerator * pow(v.denominator, -1, field) % field


def field_of(spec) -> object:
    if spec == "Q" or spec is None:
        return "Q"
    return _check_prime(int(spec))


def as_element(value, field):
    """value as returned to the caller: a Fraction over Q, the least
    nonnegative int representative over F_p."""
    raw = _raw(value, field)
    return Fraction(raw) if field == "Q" else raw


def _raw(v, field):
    """The raw value in field of an entry given as an int, a Fraction or a
    string such as "1/2"."""
    if type(v) is int:
        return v if field == "Q" else v % field
    return _reduce(Fraction(v), field)


class ExactMatrix:
    __slots__ = ("n", "rows", "field")

    def __init__(self, rows, field="Q"):
        field = field_of(field)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        clean = [[_raw(v, field) for v in r] for r in rows]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", clean)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int, field="Q") -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], field)

    @classmethod
    def zero(cls, n: int, field="Q") -> "ExactMatrix":
        return cls([[0] * n for _ in range(n)], field)

    def _like(self, rows) -> "ExactMatrix":
        return ExactMatrix(rows, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("shape or field mismatch")
        return self._like(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = _raw(c, self.field)
        return self._like([[c * v for v in r] for r in self.rows])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n or self.field != other.field:
            raise ValueError("shape or field mismatch")
        return self._like(_matmul(self.rows, other.rows))

    @property
    def T(self) -> "ExactMatrix":
        return self._like([list(col) for col in zip(*self.rows)])

    def det(self):
        return as_element(_sigmas(self.rows, 1)[self.n], self.field)

    def sigma(self, t: int):
        """Sum of principal t x t minors; 1 for t = 0, 0 for t > n."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        s = _sigmas(self.rows, 1)
        return as_element(s[t] if t <= self.n else 0, self.field)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        tag = "Q" if self.field == "Q" else f"F{self.field}"
        return f"ExactMatrix<{tag}>[{body}]"


def random_matrix(n: int, seed: int, bound: int = 9, field="Q") -> ExactMatrix:
    """Entries drawn row-major via randint(-bound, bound); the same seed
    gives the same integers over Q and over any F_p."""
    rng = random.Random(seed)
    return ExactMatrix(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], field
    )


def random_symmetric(n: int, seed: int, bound: int = 9, field="Q") -> ExactMatrix:
    """Upper triangle (diagonal included) drawn row-major, then mirrored."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = v
    return ExactMatrix(rows, field)


class EvalContext:
    """Evaluation of sigma-ring polynomials at a matrix assignment."""

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
        self._letters = {k: m.rows for k, m in self.assignment.items()}
        self._words: dict[Word, list] = {}
        self._sigmas: dict[Word, list] = {}
        self._traces: dict[Word, object] = {}

    def _letter_rows(self, lt) -> list:
        m = self._letters.get(lt.index)
        if m is None:
            raise ValueError(f"no matrix for letter index {lt.index}")
        return [list(col) for col in zip(*m)] if lt.transposed else m

    def _mul(self, a, b) -> list:
        field = self.field
        if field == "Q":  # only a Fraction can need reducing
            return [
                [v if type(v) is int else _reduce(v, field) for v in row] for row in _matmul(a, b)
            ]
        return [[v % field for v in row] for row in _matmul(a, b)]

    def _word_rows(self, w: Word) -> list:
        return _word_product(w, self._words, self._letter_rows, self._mul)

    def _sigma_list(self, w: Word) -> list:
        hit = self._sigmas.get(w)
        if hit is None:
            out = _sigmas(self._word_rows(w), 1)
            hit = self._sigmas[w] = [_reduce(v, self.field) for v in out]
        return hit

    def _raw_sigma(self, t: int, w: Word):
        """The raw value of sigma_t(w), t >= 0: the trace of w when
        t = 1 <= n, else entry t of its sigma_t list, or 0 for t > n.  The
        list is built even then, so that a letter with no matrix is
        refused."""
        if t == 1 <= self.n:
            hit = self._traces.get(w)
            if hit is None:
                trace = _word_trace(w, self._words, self._letter_rows, self._mul)
                hit = self._traces[w] = _reduce(trace, self.field)
            return hit
        s = self._sigma_list(w)
        return s[t] if t <= self.n else 0

    def word_matrix(self, w: Word) -> ExactMatrix:
        return ExactMatrix(self._word_rows(w), self.field)

    def sigma(self, t: int, w: Word):
        if t < 0:
            raise ValueError("t must be nonnegative")
        return as_element(self._raw_sigma(t, w), self.field)

    def eval_poly(self, p: SigmaPoly):
        # An int coefficient enters as is: over F_p the sum is reduced once,
        # by as_element.
        field, raw_sigma = self.field, self._raw_sigma
        total = 0
        for mono, coeff in p.monomials.items():
            term = coeff if type(coeff) is int else _reduce(coeff, field)
            for t, _, cycle in mono:
                term *= raw_sigma(t, cycle)
            total += term
        return as_element(total, field)


# ---------------------------------------------------------------------------
# JSON: {"n": 3, "field": "Q", "entries": [["1/2", "0", "3"], ...]} or
#       {"n": 3, "field": "Fp", "p": 5, "entries": [...]}.
# ---------------------------------------------------------------------------


def matrix_from_json_obj(obj: dict) -> ExactMatrix:
    rows = obj["entries"]
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(type(v) in (int, str) for v in row) for row in rows)
    ):
        raise ValueError("matrix entries must be rows of integers or rational strings")
    field = obj["field"]
    if field == "Fp":
        if "p" not in obj:
            raise ValueError('an "Fp" matrix needs its prime "p"')
        # str() first, so that a p of any JSON type fails with ValueError
        field = int(str(obj["p"]))
    elif field != "Q":
        raise ValueError(f'field must be "Q" or "Fp", got {field!r}')
    entries = [[Fraction(v) for v in row] for row in rows]
    m = ExactMatrix(entries, field)
    if m.n != obj["n"]:
        raise ValueError("declared size does not match entries")
    return m
