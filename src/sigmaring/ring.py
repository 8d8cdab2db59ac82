"""The symbolic sigma-ring: polynomials in generators s_t(cycle).

A generator s_t(cycle) has t >= 1 and cycle the canonical representative
of an equivalence class of primitive words, and is stored as the tuple
(t, len(cycle), cycle); s_0 is the ring unit and is never stored.  A
polynomial is a sparse map from monomials (sorted tuples of generators) to
nonzero rational coefficients, each an int where it is integral, else a
Fraction, so the integer polynomials that make up almost all of the ring
never pay for rational arithmetic.

The rewriting map from formal s_t(linear combination) expressions into this
ring applies, in order: expansion of s_t over sums (the sum of the partial
linearizations sigma_tbar of s_t, with the summands substituted),
extraction of scalar coefficients as t-th powers, reduction of s_t(w^e)
through the power formula, and canonicalization of every cycle under
rotation and transpose.

Substitution replaces letters by linear combinations of words.  It works
from a plan of the substituted polynomial (_Plan), compiled once for a
cached sigma_partial base and per call for any other polynomial: it builds
one image per distinct generator, then adds the image of every monomial
into the result in one loop.  When every value is a single word with
coefficient 1 (LinComb.word), as for every relation generator and every
certificate replay, the image of s_t(cycle) is s_t of the word that the
assigned words of its letters spell: those words are numbered once per
process, the cycle image is keyed by their numbers, and s_t of each word
is memoized as one generator when the word is primitive and as the
monomial items of its power_reduce polynomial otherwise.  A one-factor
monomial adds its image, scaled item by item when it is a polynomial; a
monomial of generator images is sorted, two of them by one comparison;
only a monomial that meets a polynomial image among other factors is
multiplied out.  Any other assignment normalizes the LinComb image of
each generator.  Generators, monomials and words are tuples (see SigmaGen
and words.Word), so images multiply out, sort and hash in C.

The plan also holds the multidegree of the base when all of its monomials
share one, as every sigma_partial base does.  A single-word substitution
into such a base is homogeneous of degree sum_i deg_i * len(w_i), where
deg_i is the degree of the base in letter i and w_i the word assigned to
it, since s_t(u^e) rewrites into monomials of the same degree; the result
records that degree, or 0 when it is the zero polynomial, so that
relations.poly_degree reads it without walking the monomials.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from typing import ItemsView, Iterable, NamedTuple

from .words import (
    Letter,
    LinComb,
    Naming,
    Word,
    canonicalize,
    mdeg_map,
    parse_word,
    transpose_letters,
)


class SigmaGen(tuple):
    """Generator s_t(cycle); cycle must be canonical and primitive.

    Stored as the tuple (t, len(cycle), cycle), so generators hash, compare
    and sort in C, in the canonical order: by t, then by cycle length, then
    by the letters of the cycle.  A monomial is the sorted tuple of its
    generators, and that field order fixes the order of its factors."""

    __slots__ = ()

    def __new__(cls, t: int, cycle: Word):
        return tuple.__new__(cls, (t, len(cycle), cycle))

    def __getnewargs__(self) -> tuple[int, Word]:
        return self[0], self[2]

    t = property(operator.itemgetter(0))
    cycle = property(operator.itemgetter(2))

    @property
    def degree(self) -> int:
        return self[0] * self[1]

    def __repr__(self) -> str:
        return f"SigmaGen(t={self[0]!r}, cycle={self[2]!r})"


def make_gen(t: int, cycle: Word) -> SigmaGen:
    if t < 1:
        raise ValueError("generator needs t >= 1; s_0 is the ring unit")
    canon, power = canonicalize(cycle)
    if power != 1 or canon != cycle:
        raise ValueError(f"{cycle!r} is not a canonical primitive cycle")
    return SigmaGen(t, cycle)


Monomial = tuple[SigmaGen, ...]
Coeff = int | Fraction


def _int_if_integral(c):
    """c as an int when it is integral, else c: the coefficient form."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _add_into(acc: dict[Monomial, Coeff], p: "SigmaPoly") -> None:
    """acc += p in place.  A monomial that cancels is dropped, so a sum
    accumulated here keeps the monomial order of a chain of `+`."""
    for m, c in p.monomials.items():
        _add_term(acc, m, c)


def _add_term(acc: dict[Monomial, Coeff], m: Monomial, c: Coeff) -> None:
    old = acc.get(m)
    if old is None:
        acc[m] = c
        return
    c = _int_if_integral(c + old)
    if c:
        acc[m] = c
    else:
        del acc[m]


class SigmaPoly:
    """Sparse commutative polynomial in sigma generators over Q.

    Each coefficient is an int where it is integral, else a Fraction; the
    two forms compare and hash alike, so only the type tells them apart.
    A cached sigma_partial base, which is substituted into many times,
    keeps its compiled substitution plan in _plan (see _keep_plan); a
    result of substitute that knows its degree keeps it in _degree, and so
    does its negation.  _verdicts holds the verdicts of relations.verify_*
    by their parameters; a negation shares the dict of its source, since
    -p vanishes exactly where p does."""

    __slots__ = ("monomials", "_plan", "_degree", "_verdicts")

    def __init__(self, monomials: dict[Monomial, Coeff] | None = None):
        clean: dict[Monomial, Coeff] = {}
        for m, c in (monomials or {}).items():
            c = _int_if_integral(c if type(c) is int else Fraction(c))
            if c:
                clean[tuple(sorted(m))] = c
        object.__setattr__(self, "monomials", clean)

    @classmethod
    def _of_clean(cls, monomials: dict[Monomial, Coeff]) -> "SigmaPoly":
        """Wraps a dict that is already clean: sorted monomials and nonzero
        coefficients, each an int where integral, else a Fraction.  The
        dict is taken over, not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "monomials", monomials)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("SigmaPoly is immutable")

    def __reduce__(self):
        # copy and pickle through the constructor, which __setattr__ allows;
        # a kept plan, a recorded degree and verdicts are caches and are rebuilt
        return SigmaPoly, (self.monomials,)

    @classmethod
    def zero(cls) -> "SigmaPoly":
        return cls()

    @classmethod
    def one(cls) -> "SigmaPoly":
        return cls({(): 1})

    @classmethod
    def scalar(cls, c) -> "SigmaPoly":
        return cls({(): c})

    @classmethod
    def from_gen(cls, gen: SigmaGen, coeff=1) -> "SigmaPoly":
        return cls({(gen,): coeff})

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigmaPoly) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(frozenset(self.monomials.items()))

    def __add__(self, other: "SigmaPoly") -> "SigmaPoly":
        out = dict(self.monomials)
        _add_into(out, other)
        return SigmaPoly._of_clean(out)

    def __sub__(self, other: "SigmaPoly") -> "SigmaPoly":
        return self + (-1) * other

    def __neg__(self) -> "SigmaPoly":
        # -c keeps the form of a clean coefficient, and the recorded degree
        out = SigmaPoly._of_clean({m: -c for m, c in self.monomials.items()})
        degree = getattr(self, "_degree", None)
        if degree is not None:
            object.__setattr__(out, "_degree", degree)
        object.__setattr__(out, "_verdicts", self._verdict_cache())
        return out

    def _verdict_cache(self) -> dict:
        """The verdict cache of relations.verify_*, shared with negations."""
        cache = getattr(self, "_verdicts", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_verdicts", cache)
        return cache

    def __rmul__(self, scalar) -> "SigmaPoly":
        s = _int_if_integral(scalar if type(scalar) is int else Fraction(scalar))
        if not s:
            return SigmaPoly()
        return SigmaPoly._of_clean(
            {m: _int_if_integral(s * c) for m, c in self.monomials.items()}
        )

    def __mul__(self, other: "SigmaPoly") -> "SigmaPoly":
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self.monomials.items():
            for m2, c2 in other.monomials.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return SigmaPoly._of_clean({m: _int_if_integral(c) for m, c in out.items() if c})

    def __pow__(self, k: int) -> "SigmaPoly":
        if k < 0:
            raise ValueError("negative power")
        out = SigmaPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        d = max((lt.index for m in self.monomials for g in m for lt in g.cycle), default=1)
        return f"SigmaPoly({poly_text(self, Naming.generic(d, 'g'))})"

    def sorted_monomials(self) -> list[tuple[Monomial, Coeff]]:
        # by degree, then as tuples of generators
        return [(m, c) for _, _, m, c in _print_order(self)[1]]

    def mdeg_of(self, m: Monomial) -> dict[int, int]:
        counts: dict[int, int] = {}
        for g in m:
            for idx, c in mdeg_map(g.cycle).items():
                counts[idx] = counts.get(idx, 0) + g.t * c
        return counts


# ---------------------------------------------------------------------------
# s_t of a single word: canonicalize, reducing powers via the power formula.
# ---------------------------------------------------------------------------


def sigma_of_word(t: int, w: Word) -> SigmaPoly:
    if t < 1:
        raise ValueError("t must be >= 1")
    root, e = canonicalize(w)
    if e == 1:
        return SigmaPoly.from_gen(SigmaGen(t, root))
    # s_t(u^e) rewritten in s_1(u)..s_{te}(u)
    reduced = power_reduce(t, e)
    out: dict[Monomial, Coeff] = {}
    for m, c in reduced.monomials.items():
        gens = tuple(sorted([SigmaGen(g.t, root) for g in m]))
        out[gens] = out.get(gens, 0) + c
    return SigmaPoly(out)


# ---------------------------------------------------------------------------
# Power formula: s_t(A^l) as an integer polynomial in s_1(A)..s_{tl}(A).
#
# With e_k = s_k(A) and p_k = tr(A^k), Newton's identities (Macdonald,
# Symmetric Functions and Hall Polynomials, I.2) give the power sums
#     p_k = sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k,
# and, since tr((A^l)^i) = p_{il}, the elementary functions E_k of A^l
#     E_0 = 1,  E_k = (1/k) sum_{i=1}^{k} (-1)^(i-1) E_{k-i} p_{il}.
# s_t(A^l) = E_t.  Both recurrences are identities of symmetric functions
# in N = t*l variables, where e_1..e_N are free, so E_t is the unique such
# polynomial and holds for every n (for n < N, s_k(A) = 0 when k > n).
# ---------------------------------------------------------------------------

_power_memo: dict[tuple[int, int], SigmaPoly] = {}


def _alternating_sum(terms: list[SigmaPoly]) -> SigmaPoly:
    """terms[0] - terms[1] + terms[2] - ..."""
    acc: dict[Monomial, Coeff] = {}
    for i, term in enumerate(terms):
        _add_into(acc, -term if i % 2 else term)
    return SigmaPoly._of_clean(acc)


def power_reduce(t: int, l: int) -> SigmaPoly:
    """P_{t,l}: s_t of an l-th power of a single letter, valid for every n,
    from Newton's identities in O((t*l)^2) ring operations."""
    if t < 1 or l < 1:
        raise ValueError("need t >= 1 and l >= 1")
    cached = _power_memo.get((t, l))
    if cached is not None:
        return cached

    letter_a = Word([Letter(1)])
    e = [SigmaPoly.one()] + [
        SigmaPoly.from_gen(SigmaGen(k, letter_a)) for k in range(1, t * l + 1)
    ]
    p = [SigmaPoly.zero()]
    for k in range(1, t * l + 1):
        p.append(_alternating_sum([e[i] * p[k - i] for i in range(1, k)] + [k * e[k]]))
    powered = [SigmaPoly.one()]
    for k in range(1, t + 1):
        terms = [powered[k - i] * p[i * l] for i in range(1, k + 1)]
        powered.append(Fraction(1, k) * _alternating_sum(terms))
    result = powered[t]

    for c in result.monomials.values():
        assert type(c) is int
    _power_memo[(t, l)] = result
    return result


# ---------------------------------------------------------------------------
# Expansion of s_t over a sum of (coefficient, word) summands.
# ---------------------------------------------------------------------------


def amitsur_expand(t: int, summands: list[tuple[Fraction, Word]]) -> SigmaPoly:
    """s_t(sum c_i w_i) expanded into the sigma-ring.

    By definition of the partial linearizations (Donkin, Invent. Math. 110,
    1992), s_t(a_1 + ... + a_p) is the sum of sigma_tbar(a_1, ..., a_p)
    over the compositions tbar of t into p parts; sigma_tbar is the signed
    sum over index sets of the loops x_1..x_p, and a_i = c_i w_i is
    substituted for x_i.  Zero summands contribute nothing.  Each sigma_tbar
    has degree t, so t > DEGREE_GUARD is refused by sigma_partial.
    """
    from .sigmatr import sigma_partial  # sigmatr imports this module

    if t < 1:
        raise ValueError("s_0 is identically 1, not expandable")
    if not summands:
        raise ValueError("need at least one summand")
    nonzero = [(c, w) for c, w in summands if c]
    if not nonzero:
        return SigmaPoly.zero()
    assignment = {i + 1: LinComb.of(w, c) for i, (c, w) in enumerate(nonzero)}
    p = len(nonzero)
    total: dict[Monomial, Coeff] = {}
    # A composition of t into p parts is a choice of p - 1 bars among
    # t + p - 1 slots; part i is the gap between bars i and i + 1.
    for bars in itertools.combinations(range(t + p - 1), p - 1):
        edges = (-1,) + bars + (t + p - 1,)
        tbar = tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))
        _add_into(total, substitute(sigma_partial(tbar, (), ()), assignment))
    return SigmaPoly._of_clean(total)


_normalize_memo: dict[tuple[int, LinComb], SigmaPoly] = {}


def normalize(t: int, arg: LinComb) -> SigmaPoly:
    """The rewriting map: s_t(arg) as an element of the sigma-ring."""
    cached = _normalize_memo.get((t, arg))
    if cached is not None:
        return cached
    if t < 1:
        raise ValueError("t must be >= 1")
    terms = arg.sorted_terms()
    if not terms:
        raise ValueError("empty argument")
    if len(terms) == 1:
        w, c = terms[0]
        result = c**t * sigma_of_word(t, w)
    else:
        result = amitsur_expand(t, [(c, w) for w, c in terms])
    _normalize_memo[(t, arg)] = result
    return result


# ---------------------------------------------------------------------------
# Substitution and complete linearization.
# ---------------------------------------------------------------------------


def _word_image(w: Word, assignment: dict[int, LinComb]) -> LinComb:
    out: LinComb | None = None
    for lt in w:
        img = assignment[lt.index]
        if lt.transposed:
            img = img.T
        out = img if out is None else out * img
    assert out is not None
    return out


# Word -> the numbers (see _word_number) of its letters and of the letters
# of its transpose, for every word assigned by a single-word substitution
# of the process.
_word_ids: dict[Word, tuple[int, int]] = {}


def _assigned_words(assignment: dict[int, LinComb]) -> dict[int, int] | None:
    """Letter code -> number of its image word when every value is a
    single word with coefficient 1 (LinComb.word); None for any other
    assignment.  The code of a letter is 2 * index + transposed, and a
    transposed letter gets the transposed word."""
    words: dict[int, int] = {}
    for i, lc in assignment.items():
        w = lc.word
        if w is None:
            return None
        pair = _word_ids.get(w)
        if pair is None:
            pair = _word_ids[w] = (_word_number(tuple(w)), _word_number(transpose_letters(w)))
        words[2 * i], words[2 * i + 1] = pair
    return words


class _Plan(NamedTuple):
    """A polynomial compiled for substitution: its distinct generators, its
    monomials in monomial order, and its multidegree (see _multidegree).  A
    generator is (t, cycle, key): key takes the word numbers of a
    single-word substitution (see _assigned_words) to the key of the image
    of its cycle in _word_sigma_memo, in C.  A monomial is (coefficient,
    pick): pick is the number of the generator of a one-factor monomial,
    and otherwise takes the list of generator images to the images of its
    factors, in C."""

    gens: tuple[tuple[int, Word, operator.itemgetter], ...]
    monos: tuple[tuple[Coeff, int | operator.itemgetter], ...]
    mdeg: tuple[tuple[int, int], ...] | None


def _multidegree(p: SigmaPoly) -> tuple[tuple[int, int], ...] | None:
    """The multidegree that every monomial of p has, as sorted (letter
    index, degree) pairs, () for the zero polynomial, and None when two
    monomials differ."""
    degs = {tuple(sorted(p.mdeg_of(m).items())) for m in p.monomials}
    if len(degs) > 1:
        return None
    return degs.pop() if degs else ()


def _compile(p: SigmaPoly, mdeg: tuple[tuple[int, int], ...] | None) -> _Plan:
    gens: dict[SigmaGen, int] = {}
    monos = []
    for m, c in p.monomials.items():
        for g in m:
            gens.setdefault(g, len(gens))
        numbers = [gens[g] for g in m]
        if len(numbers) == 1:
            pick = numbers[0]
        else:  # the images of the factors, as a sequence; () takes an empty slice
            pick = operator.itemgetter(*numbers) if numbers else operator.itemgetter(slice(0))
        monos.append((c, pick))
    return _Plan(
        tuple((t, w, operator.itemgetter(*[2 * i + tr for i, tr in w])) for t, _, w in gens),
        tuple(monos),
        mdeg,
    )


def _keep_plan(p: SigmaPoly, mdeg: tuple[tuple[int, int], ...]) -> SigmaPoly:
    """Marks p, a cached polynomial that may be substituted into many
    times, to keep the plan that its first substitution compiles.  mdeg is
    the multidegree of p (see _multidegree), which the caller knows from
    the target p was built for, so the plan need not read it off the
    monomials.  Any other polynomial is compiled per call, and one that is
    never substituted into is never compiled."""
    object.__setattr__(p, "_plan", mdeg)
    return p


def _plan_of(p: SigmaPoly) -> _Plan:
    # no _plan: not kept; a multidegree: kept, not compiled yet
    plan = getattr(p, "_plan", None)
    if type(plan) is not _Plan:
        if plan is None:
            return _compile(p, _multidegree(p))
        plan = _compile(p, plan)
        object.__setattr__(p, "_plan", plan)
    return plan


# The image of a generator: one generator, or the (monomial, coefficient)
# items of a polynomial in monomial order.
Image = SigmaGen | ItemsView[Monomial, Coeff]


class _WordSigmas(dict):
    """t -> the image of s_t of one word, computed on first lookup: the
    generator s_t(root) when the word is primitive, else the monomial
    items of its power_reduce polynomial."""

    __slots__ = ("word", "root", "power")

    def __init__(self, word: Word):
        self.word = word
        self.root, self.power = canonicalize(word)

    def __missing__(self, t: int) -> Image:
        if self.power == 1:
            img = self[t] = SigmaGen(t, self.root)
        else:
            img = self[t] = sigma_of_word(t, self.word).monomials.items()
        return img


# The words of single-word substitutions and of their cycle images are
# numbered once per process, equal letters sharing a number:
# _word_numbers maps letters to the number and _word_rows the number to
# the _WordSigmas of the word.  Both are shared by every substitute call,
# like _normalize_memo.
_word_numbers: dict[tuple[Letter, ...], int] = {}
_word_rows: list[_WordSigmas] = []


def _word_number(letters: tuple[Letter, ...]) -> int:
    i = _word_numbers.get(letters)
    if i is None:
        i = _word_numbers[letters] = len(_word_rows)
        _word_rows.append(_WordSigmas(Word(letters)))
    return i


class _WordSigmaMemo(dict):
    """The word numbers of a cycle image -> the _WordSigmas of the word
    they spell, looked up on first use.  A one-letter cycle has one
    number, not a tuple of them."""

    def __missing__(self, key: int | tuple[int, ...]) -> _WordSigmas:
        i = key if type(key) is int else _word_number(sum([_word_rows[i].word for i in key], ()))
        row = self[key] = _word_rows[i]
        return row


_word_sigma_memo = _WordSigmaMemo()
_GENS = {SigmaGen}  # the type set of a monomial whose images are all generators


def _multiply_out(c: Coeff, factors) -> Iterable[tuple[Monomial, Coeff]]:
    """The (monomial, coefficient) items of c times the product of factors,
    each a generator or polynomial items, with at least one polynomial.
    The polynomial factors are multiplied out one at a time, dropping what
    cancels after each, as SigmaPoly.__mul__ does; a generator factor maps
    monomials one to one, so the generators join from the start."""
    gens = tuple([f for f in factors if type(f) is SigmaGen])
    polys = [f for f in factors if type(f) is not SigmaGen]
    if len(polys) == 1:  # distinct monomials stay distinct: nothing merges
        return [(tuple(sorted(gens + m)), c * v) for m, v in polys[0]]
    term = {tuple(sorted(gens)): c}
    for img in polys:
        product: dict[Monomial, Coeff] = {}
        for m1, c1 in term.items():
            for m2, c2 in img:
                m = tuple(sorted(m1 + m2))
                product[m] = product.get(m, 0) + c1 * c2
        term = {m: v for m, v in product.items() if v}
    return term.items()


def substitute(p: SigmaPoly, assignment: dict[int, LinComb]) -> SigmaPoly:
    """Replace every letter by a linear combination of words; transposed
    letters receive the involuted image.  Fully renormalized."""
    plan = _plan_of(p)
    words = _assigned_words(assignment)
    try:
        if words is None:
            cycles = dict.fromkeys(w for _, w, _ in plan.gens)
            cycle_images = {w: _word_image(w, assignment) for w in cycles}
            images = [normalize(t, cycle_images[w]).monomials.items() for t, w, _ in plan.gens]
        else:
            memo = _word_sigma_memo
            images = [memo[key(words)][t] for t, _, key in plan.gens]
    except KeyError:
        missing = {lt.index for _, w, _ in plan.gens for lt in w}.difference(assignment)
        if missing:
            raise ValueError(f"no assignment for letter indices {sorted(missing)}") from None
        raise
    out: dict[Monomial, Coeff] = {}
    get = out.get
    for c, pick in plan.monos:
        # A monomial of generator images is added as it is; one that meets
        # a polynomial image is multiplied out into terms.
        if type(pick) is int:
            img = images[pick]
            if type(img) is SigmaGen:
                m = (img,)
            else:  # distinct monomials stay distinct: only the scale changes
                m = None
                terms = [(mi, c * v) for mi, v in img]
        else:
            m = pick(images)
            if len(m) == 2 and type(m[0]) is SigmaGen is type(m[1]):
                if m[1] < m[0]:
                    m = (m[1], m[0])
            elif _GENS.issuperset(map(type, m)):
                m = tuple(sorted(m))
            else:
                terms = _multiply_out(c, m)
                m = None
        if m is not None:  # c is clean already; only a merged sum may not be
            old = get(m)
            if old is None:
                out[m] = c
            else:
                v = old + c
                if v:
                    out[m] = v if type(v) is int else _int_if_integral(v)
                else:
                    del out[m]
            continue
        for m, v in terms:
            old = get(m)
            if old is not None:
                v += old
                if not v:
                    del out[m]
                    continue
            out[m] = v if type(v) is int else _int_if_integral(v)
    result = SigmaPoly._of_clean(out)
    if words is not None and plan.mdeg is not None:
        degree = sum([k * len(assignment[i].word) for i, k in plan.mdeg]) if out else 0
        object.__setattr__(result, "_degree", degree)
    return result


def lin(p: SigmaPoly, d: int) -> SigmaPoly:
    """Complete linearization of a homogeneous polynomial over d letters.

    Substitutes letter i by x_i + x_{i+d} + ... + x_{i+(t_i-1)d} and keeps
    the component multilinear in all the extended letters.
    """
    if not p:
        return p
    mdeg = _multidegree(p)
    if mdeg is None:
        raise ValueError("input is not multidegree-homogeneous")
    counts = dict(mdeg)
    if any(idx > d for idx in counts):
        raise ValueError(f"letter index exceeds alphabet size {d}")
    assignment = {
        i: LinComb({Word([Letter(i + j * d)]): Fraction(1) for j in range(ti)})
        for i, ti in counts.items()
        if ti > 0
    }
    expanded = substitute(p, assignment)
    wanted = {
        i + j * d for i, ti in counts.items() for j in range(ti)
    }
    out: dict[Monomial, Coeff] = {}
    for m, c in expanded.monomials.items():
        md = expanded.mdeg_of(m)
        if all(md.get(i, 0) == 1 for i in wanted) and set(md) <= wanted:
            out[m] = c
    return SigmaPoly(out)


def multiplicity_stats(m: Monomial) -> tuple[int, int]:
    """(c, e) for a monomial: c is the product of factorials of repetition
    counts of equal (t, cycle) pairs, e the number of factors."""
    if not m:
        return 1, 0
    counts: dict[SigmaGen, int] = {}
    for g in m:
        counts[g] = counts.get(g, 0) + 1
    c = 1
    for mult in counts.values():
        for i in range(2, mult + 1):
            c *= i
    return c, len(m)


# ---------------------------------------------------------------------------
# Serialization: canonical text and JSON, both bit-exact round-trippable.
#
# Text: monomials in ascending canonical order joined by ` + ` / ` - `; each
# is `coeff*factor*factor...` with the coefficient omitted when +-1, factors
# `s<t>[letters]` (with `s1` printed `tr`) and repeated factors collapsed to
# `^k`.  The zero polynomial prints `0`, the unit monomial prints `1`.
# ---------------------------------------------------------------------------


def _print_order(p: SigmaPoly) -> tuple[list[SigmaGen], list[tuple]]:
    """The distinct generators of p in order, and the terms of p in print
    order: by degree, then factor by factor.  A term is (degree, ranks,
    monomial, coefficient), where ranks are the positions of its factors
    among the generators: they order the terms as the monomials do, but
    compare as ints, and no two terms share them."""
    # in order of first use the generators are nearly sorted already
    gens = sorted(dict.fromkeys(itertools.chain.from_iterable(p.monomials)))
    rank = dict(zip(gens, itertools.count())).__getitem__
    degree = [t * length for t, length, _ in gens].__getitem__
    terms = [
        (sum(map(degree, ranks := tuple(map(rank, m)))), ranks, m, c)
        for m, c in p.monomials.items()
    ]
    terms.sort()
    return gens, terms


class _LetterTexts(dict):
    """Letter -> its text under a naming, rendered on first lookup."""

    def __init__(self, naming: Naming):
        self.naming = naming

    def __missing__(self, lt: Letter) -> str:
        text = self[lt] = self.naming.letter_text(lt)
        return text


def _cycle_texts(gens: list[SigmaGen], naming: Naming) -> dict[Word, str]:
    """The letters of each distinct cycle of gens, rendered once through a
    per-call letter table."""
    names = _LetterTexts(naming).__getitem__
    return {w: " ".join(map(names, w)) for w in dict.fromkeys(map(operator.itemgetter(2), gens))}


def poly_text(p: SigmaPoly, naming: Naming) -> str:
    gens, terms = _print_order(p)
    if not terms:
        return "0"
    cycles = _cycle_texts(gens, naming)
    texts = [("tr[" if t == 1 else f"s{t}[") + cycles[w] + "]" for t, _, w in gens]
    c0 = terms[0][3]  # the first term shows its sign as a bare "-"
    parts = []
    for _, ranks, _, c in terms:
        if len(set(ranks)) == len(ranks):
            body = "*".join(map(texts.__getitem__, ranks))
        else:  # repeated factors print as powers
            body = "*".join(
                texts[r] if k == 1 else f"{texts[r]}^{k}"
                for r, k in ((r, len(list(grp))) for r, grp in itertools.groupby(ranks))
            )
        mag = abs(c)
        if mag != 1:
            body = f"{mag}*{body}" if body else str(mag)
        elif not body:
            body = "1"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return "-" + text[3:] if c0 < 0 else text[3:]


_FACTOR_RE = re.compile(r"(tr|s(\d+))\[([^\]]*)\](?:\^(\d+))?")


def parse_poly(text: str, naming: Naming) -> SigmaPoly:
    from .words import _split_terms  # shared grammar helper

    text = text.strip()
    if text == "0":
        return SigmaPoly.zero()
    out: dict[Monomial, Coeff] = {}
    for sign, chunk in _split_terms(text):
        coeff = Fraction(sign)
        gens: list[SigmaGen] = []
        for piece in chunk.split("*"):
            piece = piece.strip()
            if not piece:
                raise ValueError(f"empty factor in {chunk!r}")
            m = _FACTOR_RE.fullmatch(piece)
            if m:
                t = 1 if m.group(1) == "tr" else int(m.group(2))
                w = parse_word(f"[{m.group(3)}]", naming)
                gens.extend([make_gen(t, w)] * (int(m.group(4)) if m.group(4) else 1))
            else:
                coeff *= Fraction(piece)
        mono = tuple(sorted(gens))
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return SigmaPoly(out)


def poly_json_obj(p: SigmaPoly, naming: Naming) -> dict:
    gens, terms = _print_order(p)
    cycles = _cycle_texts(gens, naming)
    factors = [(t, cycles[w]) for t, _, w in gens]
    return {
        "terms": [
            {
                "coeff": str(c),
                "gens": [{"t": t, "word": w} for t, w in map(factors.__getitem__, ranks)],
            }
            for _, ranks, _, c in terms
        ]
    }
