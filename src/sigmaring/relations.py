"""Relation-ideal generators and their verification.

For n x n matrices with transposes, every sigma_{tbar, rbar, sbar} with
arbitrary word arguments vanishes identically as soon as
sum(tbar) + 2 * sum(rbar) > n; without transposes the classical generators
are s_t of word combinations for t > n.  This module enumerates both
families within degree budgets, verifies vanishing either on seeded random
matrices or exactly on generic matrix entries, and serializes replayable
certificates.

The x, y and z blocks of an o-generator are multisets of (degree, word)
slots.  Each o_relation_generators call builds each word's argument and
text once, enumerates the multisets once, within the whole budget, and
serves every block from that list: a smaller budget takes the multisets
whose weight fits, in the same order, and the z block takes only those
whose degree sum is r; a y block is taken only if a z block still fits.
The enumeration visits only slots that fit the remaining budget.  The
polynomial of a generator substitutes its single-word arguments into the
cached sigma_{tbar,rbar,sbar} at word level (ring.substitute), which
records its degree, the weight of its slots, so generation costs about
what it emits and poly_degree reads the degree without walking the
monomials.  Transposing a y or z word changes sigma_{tbar,rbar,sbar} by
a known sign, so each block carries its transpose orbit and a parity,
and only the first generator of each orbit is substituted; transposing
the x words and swapping the y and z blocks keeps the polynomial, so an
orbit spans the x blocks X and X^T (see o_relation_generators): 100
substitutions for the 525 generators at n = 3, d = 2, degree 4.
list_relations enumerates the same generators, with the same degree
guard, and builds no polynomial.

Verification seeds follow a fixed schedule: the matrix for letter k in
trial i is drawn with seed + 1000 * i + k, so a certificate replays
bit-for-bit from its seed alone.  Generators share polynomial objects,
so each object keeps its verdicts (SigmaPoly._verdicts, shared with its
negations), keyed by (n, d, trials, seed, field) or, exact, by (n, d),
and is evaluated once per configuration.  Since the trial matrices
depend only on (n, d, trials, seed, field), a run shares one set of
trial contexts, with their word-product and sigma_t caches, across all
of its relations, and one table from each generator to its values at all
trials; a relation is evaluated at every trial in one pass over its
monomials.  Exact verification likewise shares one table per (n, d)
across the process (_generic_images): it holds the generic matrices, the
trace of each generic word and sigma_0, ..., sigma_n of each generic
word matrix that needs t >= 2, computed once with the kernels that
evaluate exact matrices (matrices._word_trace, from the two halves of
the word, and the division-free matrices._sigmas), and the generic image
of each sigma-monomial.  The trial values of a generator s_1(w) are
likewise traces of the halves of w, not sigma_1 of the matrix of w.  A
relation is a linear combination of the images of its sigma-monomials;
each distinct monomial's image is expanded once and kept packed into one
int (Kronecker substitution).  Exponent vectors are packed too: a
MultiPoly keys each term by one int with a field of _EXP_BITS bits per
variable, sized from the exact caps, so multiplying two terms adds two
ints.  The table numbers the exponent vectors of its images from 0, and
the coefficient of exponent id i fills a signed field of W bits at bit
W * i of the packed image.  The image keeps its height, the largest
|coefficient|, beside it.  verify_exact scales the coefficients of a
relation to ints, since a rational sum could cancel across fields, and
sums coefficient times packed image.  A nonzero sum proves that the
relation does not vanish.  A zero sum proves that it does once
sum |coefficient| * height < 2^(W - 1): that bounds every field of the
true sum, and fields so bounded pack to 0 only when all of them are 0.
Otherwise the sum is redone with the images repacked at a width where
the bound holds."""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .matrices import (
    EvalContext,
    _matmul,
    _reduce,
    _sigmas,
    _word_product,
    _word_trace,
    field_of,
    random_matrix,
)
from .ring import Monomial, SigmaGen, SigmaPoly, normalize
from .sigmatr import _check_degree, sigma_partial_subst
from .words import Letter, LinComb, Naming, Word, parse_word, transpose_letters, word_text

EXACT_MAX_N = 2
EXACT_MAX_D = 2
EXACT_MAX_DEGREE = 4


class Relation(NamedTuple):
    kind: str  # "o" or "gl"
    n: int
    d: int
    ts: tuple[int, ...]
    rs: tuple[int, ...]
    ss: tuple[int, ...]
    words: tuple[str, ...]
    poly: SigmaPoly

    def describe(self) -> str:
        shape = ",".join(map(str, self.ts))
        if self.kind == "o":
            shape += ";" + ",".join(map(str, self.rs))
            shape += ";" + ",".join(map(str, self.ss))
        return f"{self.kind}[{shape}]({' | '.join(self.words)})"


def poly_degree(p: SigmaPoly) -> int:
    """The largest degree of a monomial of p, 0 for the zero polynomial.
    A result of ring.substitute that recorded its degree answers in O(1);
    any other polynomial walks its monomials."""
    degree = getattr(p, "_degree", None)
    if degree is None:
        degree = max((sum(g.degree for g in m) for m in p.monomials), default=0)
    return degree


def enumerate_words(d: int, max_len: int, transposes: bool = True) -> list[Word]:
    letters = [Letter(i, tr) for i in range(1, d + 1) for tr in ((False, True) if transposes else (False,))]
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            out.append(Word(combo))
    out.sort(key=lambda w: (len(w), w))
    return out


def _slot_order(slot) -> tuple:
    """The sort key of a slot (degree, word, ...): degree, length, word."""
    return slot[0], len(slot[1]), slot[1]


def _slot_multisets(slots, budget: int):
    """Multisets of slots (degree, word, ...) with total degree * len(word)
    weight <= budget, as lists of slots; slots arrive sorted, and each list
    is nondecreasing.

    Each slot's cost is computed once.  fits[b] lists, in order, the
    numbers of the slots that cost at most b, so a node of the search
    finds its first child by bisection and visits only children that fit:
    the search costs O(output), not O(nodes * slots)."""
    costs = [s[0] * len(s[1]) for s in slots]
    fits = [[j for j, c in enumerate(costs) if c <= b] for b in range(budget + 1)]
    chosen: list = []

    def rec(i: int, remaining: int):
        yield list(chosen)
        fit = fits[remaining]
        for j in fit[bisect.bisect_left(fit, i):]:
            chosen.append(slots[j])
            yield from rec(j, remaining - costs[j])
            chosen.pop()

    yield from rec(0, budget)


def _o_shapes(n: int, d: int, max_total_degree: int | None, max_word_len: int):
    """(tbar, rbar, sbar, arguments, word texts, x block, orbit, parity) of
    each generator that o_relation_generators yields, in its order.  The x
    block is the tuple of its (degree, word) slots, one object per block.
    The degree guard of sigma_partial is checked here, so a listing that
    builds no polynomial is refused at the same generator."""
    if max_total_degree is None:
        max_total_degree = n + 4
    naming = Naming.generic(d)
    # A slot is (degree, word, argument, text, orbit entry, parity term,
    # (degree, word)), built once per call: the orbit entry is (degree,
    # length, the lesser of the word and its transpose), the parity term the
    # degree where the transpose is the lesser, else 0.
    words = []
    for w in enumerate_words(d, max_word_len):
        wt = w.T
        words.append((w, LinComb.of(w), word_text(w, naming)[1:-1], min(w, wt), wt < w))
    slots = [
        (deg, w, arg, text, (deg, len(w), least), deg if flip else 0, (deg, w))
        for deg in range(1, max_total_degree + 1)
        for w, arg, text, least, flip in words
    ]
    slots.sort(key=_slot_order)

    # One enumeration serves all three blocks.  Weight only grows along the
    # DFS, so the multisets within a smaller budget are, in the same order,
    # those of the full enumeration whose weight fits; the z block is further
    # split by degree sum, since its sum must equal r.  A z block of degree
    # sum r weighs at least r, so a y block of degree sum r is listed by its
    # weight plus r: a y block that leaves no room for a z block is never
    # visited, and every y block visited has at least one z block.
    # Blocks of one orbit share the number of their sorted orbit entries.
    within: list[list[tuple]] = [[] for _ in range(max_total_degree + 1)]
    y_within: list[list[tuple]] = [[] for _ in range(max_total_degree + 1)]
    z_within: dict[tuple[int, int], list[tuple]] = {}
    orbits: dict[tuple, int] = {}
    for ms in _slot_multisets(slots, max_total_degree):
        degs = tuple([s[0] for s in ms])
        weight = sum([s[0] * len(s[1]) for s in ms])
        orbit = orbits.setdefault(tuple(sorted([s[4] for s in ms])), len(orbits))
        parity = sum([s[5] for s in ms]) & 1
        args, texts = tuple([s[2] for s in ms]), tuple([s[3] for s in ms])
        x_slots = tuple([s[6] for s in ms])
        block = (degs, sum(degs), weight, args, texts, orbit, parity, x_slots)
        for b in range(weight, max_total_degree + 1):
            within[b].append(block)
            z_within.setdefault((sum(degs), b), []).append(block)
        for b in range(weight + sum(degs), max_total_degree + 1):
            y_within[b].append(block)
    del orbits  # the numbers suffice from here on

    for ts, t, x_weight, x_args, x_texts, _, _, x in within[max_total_degree]:
        for rs, r, y_weight, y_args, y_texts, y_orbit, y_parity, _ in y_within[
            max_total_degree - x_weight
        ]:
            if t + 2 * r <= n:
                continue  # only the overflow shapes vanish
            _check_degree(t + 2 * r)
            xy_args, xy_texts = x_args + y_args, x_texts + y_texts
            budget = max_total_degree - x_weight - y_weight
            for ss, _, _, z_args, z_texts, z_orbit, z_parity, _ in z_within[r, budget]:
                yield (
                    ts, rs, ss, xy_args + z_args, xy_texts + z_texts,
                    x, (y_orbit, z_orbit), y_parity ^ z_parity,
                )


def o_relation_generators(
    n: int,
    d: int,
    max_total_degree: int | None = None,
    max_word_len: int = 2,
):
    """Yields sigma_{tbar, rbar, sbar} instances with positive parts,
    sum(tbar) + 2 sum(rbar) > n, word arguments of length <= max_word_len,
    and total degree within budget; slot order inside each block is
    canonical, so no instance repeats.  The count grows steeply with the
    budget, hence the laziness.

    sigma_{tbar,rbar,sbar} signs each index set by its untransposed y and
    z letters, so transposing the word of y slot j multiplies it by
    (-1)^(r_j), z alike, and slots of one degree in one block commute.  So
    within an x block, a generator whose y and z words are an earlier
    one's up to transposes and order (its orbit) yields that polynomial
    object, or one shared negation where the parities (the degrees of the
    transposed slots, mod 2) differ.

    The orbits are shared across x blocks too.  sigmatr._signed_sum sums,
    over the index sets {(j_i, alpha_i)} of closed paths of Q(u, v, w) with
    multidegree (tbar, rbar, sbar), the terms (-1)^xi * prod s_{j_i}(alpha_i)
    with xi = sum(tbar) + sum_i j_i * (deg_y(alpha_i) + deg_z(alpha_i) + 1),
    where deg_y and deg_z count untransposed y and z letters.  The letter
    map x_i -> x_i^T, y_j -> z_j, z_k -> y_k into Q(u, w, v) swaps the two
    vertices of every arrow, so it maps closed paths to closed paths, one
    to one, and commutes with rotation and transposition; it keeps
    primitivity, carries multidegree (tbar, rbar, sbar) to (tbar, sbar,
    rbar), and untransposed y letters to untransposed z letters and back,
    so deg_y + deg_z and xi do not change.  It thus maps the index sets of
    sigma_{tbar,rbar,sbar} onto those of sigma_{tbar,sbar,rbar}, sign for
    sign, and as formal polynomials

        sigma_{tbar,rbar,sbar}(X; Y; Z) = sigma_{tbar,sbar,rbar}(X^T; Z; Y)

    with X^T each x word transposed.  The partner generator (X^T, Z, Y),
    its x slots sorted, lies in the block X^T, and its parity is that of
    (X, Y, Z): the parity terms only move between blocks.  So the pair of
    orbit (a, b) in block X serves orbit (b, a) in block X^T as well.  Each
    x block keeps a table, orbit -> [polynomial at parity 0, at parity 1];
    a new pair goes into the partner's table too, unless the partner block
    was already left, and a block's table is dropped when it is left."""
    tables: dict[tuple, dict[tuple[int, int], list]] = {}
    left: set[tuple] = set()
    block = None
    for ts, rs, ss, args, texts, x, orbit, parity in _o_shapes(
        n, d, max_total_degree, max_word_len
    ):
        if x is not block:
            tables.pop(block, None)
            left.add(block)
            block = x
            table = tables.setdefault(x, {})
            # plain letter tuples: they hash and compare as the words do
            partner = tuple(sorted([(deg, transpose_letters(w)) for deg, w in x], key=_slot_order))
            partner_table = None if partner in left else tables.setdefault(partner, {})
        pair = table.get(orbit)
        if pair is None:
            pair = table[orbit] = [None, None]
            pair[parity] = sigma_partial_subst(ts, rs, ss, args)
            if partner_table is not None:
                partner_table[orbit[::-1]] = pair
        poly = pair[parity]
        if poly is None:
            poly = pair[parity] = -pair[parity ^ 1]
        yield Relation("o", n, d, ts, rs, ss, texts, poly)


def _check_gl_degree(t: int, words: tuple[Word, ...] | list[Word]) -> None:
    """Refuses s_t of words whose degree t * (longest word) exceeds the
    guard that sigma_partial puts on o relations: power_reduce and
    amitsur_expand grow steeply with it."""
    _check_degree(t * max(len(w) for w in words))


def _gl_shapes(n: int, d: int, max_total_degree: int | None, max_word_len: int):
    """((t,), (), (), argument, word texts) of each generator that
    gl_relation_generators yields, in its order, with its degree guard."""
    if max_total_degree is None:
        max_total_degree = n + 4
    naming = Naming.generic(d)
    words = enumerate_words(d, max_word_len, transposes=False)
    for t in range(n + 1, max_total_degree + 1):
        for size in (1, 2):
            for combo in itertools.combinations(words, size):
                if t * max(len(w) for w in combo) > max_total_degree:
                    continue
                _check_gl_degree(t, combo)
                arg = LinComb({w: Fraction(1) for w in combo})
                texts = tuple(word_text(w, naming)[1:-1] for w in combo)
                yield (t,), (), (), arg, texts


def gl_relation_generators(
    n: int,
    d: int,
    max_total_degree: int | None = None,
    max_word_len: int = 2,
):
    """Yields s_t of sums of at most two transpose-free words, t > n."""
    for ts, rs, ss, arg, texts in _gl_shapes(n, d, max_total_degree, max_word_len):
        yield Relation("gl", n, d, ts, rs, ss, texts, normalize(ts[0], arg))


def list_relations(
    kind: str,
    n: int,
    d: int,
    max_total_degree: int | None = None,
    max_word_len: int = 2,
):
    """The relations that o_relation_generators (kind "o") or
    gl_relation_generators (kind "gl") yields, in the same order and
    refused at the same one, with poly None: a listing prints no
    polynomial, so it builds none."""
    shapes = _o_shapes if kind == "o" else _gl_shapes
    for ts, rs, ss, _, texts, *_ in shapes(n, d, max_total_degree, max_word_len):
        yield Relation(kind, n, d, ts, rs, ss, texts, None)


# ---------------------------------------------------------------------------
# Randomized verification.
# ---------------------------------------------------------------------------


class _TrialValues(dict):
    """The trial contexts of one (n, d, trials, seed, field), and a table
    from SigmaGen to the tuple of its raw value at each trial, 0 where
    t > n; each entry is filled on first lookup."""

    __slots__ = ("contexts",)

    def __init__(self, contexts: tuple[EvalContext, ...]):
        self.contexts = contexts

    def __missing__(self, gen: SigmaGen) -> tuple:
        t, _, cycle = gen
        hit = self[gen] = tuple([c._raw_sigma(t, cycle) for c in self.contexts])
        return hit


@functools.lru_cache(maxsize=8)
def _trial_values(n: int, d: int, trials: int, seed: int, field) -> _TrialValues:
    return _TrialValues(
        tuple(
            EvalContext(
                {k: random_matrix(n, seed + 1000 * i + k, field=field) for k in range(1, d + 1)}
            )
            for i in range(trials)
        )
    )


def verify_randomized(
    poly: SigmaPoly, n: int, d: int, trials: int, seed: int, field="Q"
) -> bool:
    """Whether poly vanishes at every trial, evaluated in one pass over its
    monomials: each monomial's coefficient, reduced once, times its
    generators' values at all trials, one factor at a time.  Over F_p each
    trial's total is reduced once, at the end.  The verdict is kept on the
    polynomial object (and shared with its negations) by (n, d, trials,
    seed, field), after the refusals."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    field = field_of(field)
    verdicts = poly._verdict_cache()
    key = (n, d, trials, seed, field)
    verdict = verdicts.get(key)
    if verdict is not None:
        return verdict
    values = _trial_values(n, d, trials, seed, field)
    mul = operator.mul
    columns = []
    for mono, coeff in poly.monomials.items():
        column = [coeff if type(coeff) is int else _reduce(coeff, field)] * trials
        for gen in mono:
            column = map(mul, column, values[gen])
        columns.append(column)
    totals = map(sum, zip(*columns))
    if field != "Q":
        totals = (total % field for total in totals)
    verdict = verdicts[key] = not any(totals)
    return verdict


# ---------------------------------------------------------------------------
# Exact verification on generic matrices: entries are independent commuting
# variables e(k, i, j), and the sigma-polynomial must vanish identically.
# ---------------------------------------------------------------------------


class MultiPoly:
    """Sparse exact polynomial over Q in a fixed number of variables.

    A term's exponent vector is packed into one int, the exponent of
    variable i in the field of _EXP_BITS bits at bit _EXP_BITS * i, so a
    product of terms adds two ints.  Integral coefficients are stored as
    int and the others as Fraction, so the integer relations never pay for
    rational arithmetic."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[int, int | Fraction] | None = None):
        clean = {}
        for e, c in (terms or {}).items():
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                clean[e] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {0: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MultiPoly":
        return cls(nvars, {1 << (_EXP_BITS * i): 1})

    @classmethod
    def _of_clean(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Wraps a dict of nonzero coefficients, each an int where integral,
        else a Fraction; the dict is taken over, not copied."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

    def _result(self, out: dict) -> "MultiPoly":
        """out, a sum or product of clean terms, as a MultiPoly.  Generic
        images hold ints only, which need only lose their zeros; a result
        with a Fraction is cleaned through __init__."""
        if not _INT.issuperset(map(type, out.values())):
            return MultiPoly(self.nvars, out)
        if not all(out.values()):
            out = {e: c for e, c in out.items() if c}
        return MultiPoly._of_clean(self.nvars, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._result(out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return self._result(out)

    def __neg__(self) -> "MultiPoly":
        # -c of a clean coefficient is clean
        return MultiPoly._of_clean(self.nvars, {e: -c for e, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)


_INT = frozenset([int])

# Width in bits of one exponent in a packed exponent vector.  Every
# exponent in an exact check is at most n * len(w) for a word w of a
# generator, and a generator within the degree cap has len(w) <=
# EXACT_MAX_DEGREE; _GenericImages.sigma refuses a word beyond the width.
_EXP_BITS = (EXACT_MAX_N * EXACT_MAX_DEGREE).bit_length()


# Width in bits of the field of one exponent id in a packed image.
_FIELD_BITS = 32


class _GenericImages(dict):
    """The generic matrices of one (n, d), over d * n * n variables, and a
    table from sigma-monomial to its generic image packed at _FIELD_BITS
    and its height, each entry filled on first lookup.  Word matrices, the
    trace and sigma_0, ..., sigma_n of each word and the exponent ids are
    kept here too, so tables of different (n, d) share nothing."""

    __slots__ = ("n", "nvars", "words", "traces", "sigmas", "ids")

    def __init__(self, n: int, d: int):
        self.n, self.nvars = n, d * n * n
        self.words: dict[tuple, list] = {}
        for k in range(1, d + 1):
            rows = [
                [MultiPoly.var(self.nvars, ((k - 1) * n + i) * n + j) for j in range(n)]
                for i in range(n)
            ]
            self.words[Letter(k),] = rows
            self.words[Letter(k, True),] = [list(col) for col in zip(*rows)]
        self.traces: dict[Word, MultiPoly] = {}
        self.sigmas: dict[Word, list[MultiPoly]] = {}
        self.ids: dict[int, int] = {}

    def _letter(self, lt: Letter) -> list:
        rows = self.words.get((lt,))
        if rows is None:
            raise ValueError(f"no matrix for letter index {lt.index}")
        return rows

    def _check_width(self, w: Word) -> None:
        if self.n * len(w) >= 1 << _EXP_BITS:
            raise ValueError(
                f"exponents up to {self.n * len(w)} overflow a packed field of {_EXP_BITS} bits"
            )

    def sigma(self, t: int, w: Word) -> MultiPoly:
        """The generic sigma_t(w): its trace when t = 1 <= n, else entry t
        of its sigma_t list, or 0 for t > n."""
        if t == 1 <= self.n:
            hit = self.traces.get(w)
            if hit is None:
                self._check_width(w)
                hit = self.traces[w] = _word_trace(w, self.words, self._letter, _matmul)
            return hit
        hit = self.sigmas.get(w)
        if hit is None:
            self._check_width(w)
            prod = _word_product(w, self.words, self._letter, _matmul)
            hit = self.sigmas[w] = _sigmas(prod, MultiPoly.const(self.nvars, 1))
        return hit[t] if t <= self.n else MultiPoly.const(self.nvars, 0)

    def image(self, mono: Monomial) -> MultiPoly:
        """The product of the generic sigma_t of the factors of mono."""
        factors = [self.sigma(g.t, g.cycle) for g in mono]
        if not factors:
            return MultiPoly.const(self.nvars, 1)
        return functools.reduce(operator.mul, factors)

    def pack(self, image: MultiPoly, width: int) -> tuple[int, int]:
        """(sum of c * 2^(width * id(e)) over the terms c * x^e, the largest
        |c|): the image as one int with a signed field per exponent id, and
        its height.  The coefficients of generic images are ints."""
        ids = self.ids
        packed = height = 0
        for e, c in image.terms.items():
            packed += c << (width * ids.setdefault(e, len(ids)))
            height = max(height, abs(c))
        return packed, height

    def __missing__(self, mono: Monomial) -> tuple[int, int]:
        hit = self[mono] = self.pack(self.image(mono), _FIELD_BITS)
        return hit


@functools.cache
def _generic_images(n: int, d: int) -> _GenericImages:
    return _GenericImages(n, d)


def _check_exact_size(n: int, d: int) -> None:
    if n > EXACT_MAX_N or d > EXACT_MAX_D:
        raise ValueError(
            f"exact mode is capped at n <= {EXACT_MAX_N}, d <= {EXACT_MAX_D}"
        )


def verify_exact(poly: SigmaPoly, n: int, d: int) -> bool:
    """Identically-zero check on generic matrix entries; refuses inputs
    beyond small hard caps since the expansion is dense.

    Sums coefficient times packed image, the coefficients scaled by the
    lcm of their denominators to ints; a zero sum counts only under the
    field bound (see the module docstring), else it is redone wider.  The
    verdict is kept on the polynomial object (and shared with its
    negations) by (n, d), after the refusals."""
    _check_exact_size(n, d)
    if poly_degree(poly) > EXACT_MAX_DEGREE:
        raise ValueError(f"exact mode is capped at degree {EXACT_MAX_DEGREE}")
    verdicts = poly._verdict_cache()
    verdict = verdicts.get((n, d))
    if verdict is None:
        verdict = verdicts[n, d] = _vanishes_exactly(poly.monomials, n, d)
    return verdict


def _vanishes_exactly(terms, n: int, d: int) -> bool:
    """verify_exact's sum of coefficient times packed image."""
    scale = math.lcm(*[c.denominator for c in terms.values() if type(c) is not int])
    coeffs = terms.values() if scale == 1 else [(c * scale).numerator for c in terms.values()]
    images = _generic_images(n, d)
    total = bound = 0
    for mono, c in zip(terms, coeffs):
        packed, height = images[mono]
        total += c * packed
        bound += abs(c) * height
    if total:
        return False
    if bound < 1 << (_FIELD_BITS - 1):
        return True
    # A field may have overflowed: redo the sum at a width where none can.
    width = bound.bit_length() + 1
    return not sum(
        c * images.pack(images.image(mono), width)[0] for mono, c in zip(terms, coeffs)
    )


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

CERT_VERSION = 1


def certificate(rel: Relation, mode: str, verified: bool, **params) -> dict:
    cert = {
        "version": CERT_VERSION,
        "kind": rel.kind,
        "n": rel.n,
        "d": rel.d,
        "shape": {"t": list(rel.ts), "r": list(rel.rs), "s": list(rel.ss)},
        "words": list(rel.words),
        "mode": mode,
        "verified": verified,
    }
    cert.update(params)
    return cert


def rebuild_relation(cert: dict) -> Relation:
    d = cert["d"]
    naming = Naming.generic(d)
    words = tuple(cert["words"])
    parsed = [parse_word(f"[{w}]", naming) for w in words]
    ts = tuple(cert["shape"]["t"])
    rs = tuple(cert["shape"]["r"])
    ss = tuple(cert["shape"]["s"])
    if cert["kind"] == "o":
        poly = sigma_partial_subst(ts, rs, ss, [LinComb.of(w) for w in parsed])
    elif cert["kind"] == "gl":
        _check_gl_degree(ts[0], parsed)
        poly = normalize(ts[0], LinComb({w: Fraction(1) for w in parsed}))
    else:
        raise ValueError(f"unknown certificate kind {cert['kind']!r}")
    return Relation(cert["kind"], cert["n"], d, ts, rs, ss, words, poly)


def replay_certificate(cert: dict) -> bool:
    rel = rebuild_relation(cert)
    if cert["mode"] == "randomized":
        field = cert.get("field", "Q")
        field = "Q" if field == "Q" else int(field.removeprefix("fp:"))
        return verify_randomized(
            rel.poly, rel.n, rel.d, cert["trials"], cert["seed"], field
        )
    if cert["mode"] == "exact":
        return verify_exact(rel.poly, rel.n, rel.d)
    raise ValueError(f"unknown certificate mode {cert['mode']!r}")


def write_certificates(certs: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"version": CERT_VERSION, "certificates": certs}, fh, indent=1)


def _check_certificate(cert) -> None:
    """Raises ValueError unless cert has the JSON types that
    rebuild_relation and replay_certificate read, with n, d >= 1, and the
    words its shape takes: for a gl certificate one t, no r or s, and one
    or two words; for an o certificate one word per part of t, r and s."""

    def ints(v):
        return isinstance(v, list) and all(type(x) is int for x in v)

    def shape_fits(shape, words):
        ts, rs, ss = (shape[k] for k in "trs")
        if cert.get("kind") == "gl":
            return len(ts) == 1 and not rs and not ss and len(words) in (1, 2)
        return len(words) == len(ts) + len(rs) + len(ss)

    shape = cert.get("shape") if isinstance(cert, dict) else None
    if not (
        isinstance(shape, dict)
        and all(ints(shape.get(k)) for k in "trs")
        and all(type(cert.get(k)) is int and cert[k] >= 1 for k in ("n", "d"))
        and isinstance(cert.get("words"), list)
        and all(isinstance(w, str) for w in cert["words"])
        and shape_fits(shape, cert["words"])
        and (
            cert.get("mode") != "randomized"
            or all(type(cert.get(k)) is int for k in ("trials", "seed"))
            and re.fullmatch(r"Q|fp:\d+", str(cert.get("field", "Q")))
        )
    ):
        raise ValueError(f"malformed certificate {json.dumps(cert)}")


def read_certificates(path: str) -> list[dict]:
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and isinstance(data.get("certificates"), list)):
        raise ValueError("a certificate file is an object with a certificates list")
    if data.get("version") != CERT_VERSION:
        raise ValueError("unsupported certificate file version")
    for cert in data["certificates"]:
        _check_certificate(cert)
    return data["certificates"]
