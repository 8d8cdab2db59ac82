"""The symbolic sigma-ring: polynomials in generators s_t(cycle).

Generators are pairs (t, cycle) with t >= 1 and cycle the canonical
representative of an equivalence class of primitive words; s_0 is the ring
unit and is never stored.  A polynomial is a sparse map from monomials
(sorted tuples of generators) to nonzero rational coefficients.

The rewriting map from formal s_t(linear combination) expressions into this
ring applies, in order: expansion of s_t over sums (the signed sum over
pairwise distinct primitive cycles in the summands), extraction of scalar
coefficients as t-th powers, reduction of s_t(w^e) through the power
formula, and canonicalization of every cycle under rotation and transpose.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Iterable, NamedTuple

from .words import (
    Letter,
    LinComb,
    Naming,
    Word,
    canonicalize,
    mdeg_map,
    parse_word,
    word_text,
)


class SigmaGen(NamedTuple):
    """Generator s_t(cycle); cycle must be canonical and primitive."""

    t: int
    cycle: Word

    @property
    def degree(self) -> int:
        return self.t * len(self.cycle)

    def key(self) -> tuple:
        return (self.t, len(self.cycle), self.cycle.key())


def make_gen(t: int, cycle: Word) -> SigmaGen:
    if t < 1:
        raise ValueError("generator needs t >= 1; s_0 is the ring unit")
    canon, power = canonicalize(cycle)
    if power != 1 or canon != cycle:
        raise ValueError(f"{cycle!r} is not a canonical primitive cycle")
    return SigmaGen(t, cycle)


Monomial = tuple[SigmaGen, ...]


def _mono_sorted(gens: Iterable[SigmaGen]) -> Monomial:
    return tuple(sorted(gens, key=SigmaGen.key))


def _mono_key(m: Monomial) -> tuple:
    return (sum(g.degree for g in m), tuple(g.key() for g in m))


class SigmaPoly:
    """Sparse commutative polynomial in sigma generators over Q."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: dict[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for m, c in (monomials or {}).items():
            c = Fraction(c)
            if c:
                clean[_mono_sorted(m)] = c
        object.__setattr__(self, "monomials", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SigmaPoly is immutable")

    @classmethod
    def zero(cls) -> "SigmaPoly":
        return cls()

    @classmethod
    def one(cls) -> "SigmaPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def scalar(cls, c) -> "SigmaPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def from_gen(cls, gen: SigmaGen, coeff=1) -> "SigmaPoly":
        return cls({(gen,): Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigmaPoly) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(frozenset(self.monomials.items()))

    def __add__(self, other: "SigmaPoly") -> "SigmaPoly":
        out = dict(self.monomials)
        for m, c in other.monomials.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SigmaPoly(out)

    def __sub__(self, other: "SigmaPoly") -> "SigmaPoly":
        return self + (-1) * other

    def __neg__(self) -> "SigmaPoly":
        return (-1) * self

    def __rmul__(self, scalar) -> "SigmaPoly":
        s = Fraction(scalar)
        return SigmaPoly({m: s * c for m, c in self.monomials.items()})

    def __mul__(self, other: "SigmaPoly") -> "SigmaPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.monomials.items():
            for m2, c2 in other.monomials.items():
                m = _mono_sorted(m1 + m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return SigmaPoly(out)

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

    def sorted_monomials(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.monomials.items(), key=lambda it: _mono_key(it[0]))

    def indices(self) -> set[int]:
        out: set[int] = set()
        for m in self.monomials:
            for g in m:
                out |= g.cycle.indices()
        return out

    def mdeg_of(self, m: Monomial) -> dict[int, int]:
        counts: dict[int, int] = {}
        for g in m:
            for idx, c in mdeg_map(g.cycle).items():
                counts[idx] = counts.get(idx, 0) + g.t * c
        return counts

    def is_homogeneous(self) -> bool:
        degs = {tuple(sorted(self.mdeg_of(m).items())) for m in self.monomials}
        return len(degs) <= 1


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
    out: dict[Monomial, Fraction] = {}
    for m, c in reduced.monomials.items():
        gens = _mono_sorted(SigmaGen(g.t, root) for g in m)
        out[gens] = out.get(gens, Fraction(0)) + c
    return SigmaPoly(out)


# ---------------------------------------------------------------------------
# Power formula: s_t(A^l) as an integer polynomial in s_1(A)..s_{tl}(A).
#
# With N = t*l formal eigenvalues, s_t(A^l) = e_t(la_1^l, ..., la_N^l); the
# conversion into the elementary symmetric basis subtracts leading terms:
# the lex-leading exponent mu of a symmetric polynomial is weakly
# decreasing, and e_1^(mu_1-mu_2) e_2^(mu_2-mu_3) ... e_N^(mu_N) has leading
# exponent exactly mu with coefficient 1.
# ---------------------------------------------------------------------------

_power_memo: dict[tuple[int, int], SigmaPoly] = {}

_Expo = tuple[int, ...]
_SymPoly = dict[_Expo, int]


def _elementary(nvars: int) -> list[_SymPoly]:
    """e_0..e_nvars as monomial dicts over nvars variables."""
    es: list[_SymPoly] = [{(0,) * nvars: 1}]
    for k in range(1, nvars + 1):
        ek: _SymPoly = {}
        for subset in itertools.combinations(range(nvars), k):
            expo = [0] * nvars
            for i in subset:
                expo[i] = 1
            ek[tuple(expo)] = 1
        es.append(ek)
    return es


def _sym_mul(a: _SymPoly, b: _SymPoly) -> _SymPoly:
    out: _SymPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def power_reduce(t: int, l: int) -> SigmaPoly:
    """P_{t,l}: s_t of an l-th power of a single letter, valid for every n."""
    if t < 1 or l < 1:
        raise ValueError("need t >= 1 and l >= 1")
    cached = _power_memo.get((t, l))
    if cached is not None:
        return cached

    nvars = t * l
    es = _elementary(nvars)
    target: _SymPoly = {}
    for subset in itertools.combinations(range(nvars), t):
        expo = [0] * nvars
        for i in subset:
            expo[i] = l
        target[tuple(expo)] = 1

    letter_a = Word([Letter(1)])
    result = SigmaPoly.zero()
    while target:
        mu = max(target)
        assert all(mu[i] >= mu[i + 1] for i in range(nvars - 1)), mu
        coeff = target[mu]
        factor: _SymPoly = es[0]
        gens: list[SigmaGen] = []
        for k in range(1, nvars + 1):
            mult = mu[k - 1] - (mu[k] if k < nvars else 0)
            for _ in range(mult):
                factor = _sym_mul(factor, es[k])
            if mult:
                gens.extend([SigmaGen(k, letter_a)] * mult)
        for e, c in factor.items():
            target[e] = target.get(e, 0) - coeff * c
            if not target[e]:
                del target[e]
        result = result + SigmaPoly({_mono_sorted(gens): Fraction(coeff)})

    for c in result.monomials.values():
        assert c.denominator == 1
    _power_memo[(t, l)] = result
    return result


# ---------------------------------------------------------------------------
# Expansion of s_t over a sum of (coefficient, word) summands.
# ---------------------------------------------------------------------------


def _atom_cycles(p: int, maxdeg: int) -> list[tuple[int, ...]]:
    """Primitive cyclic words over atoms 0..p-1 (cyclic equivalence only),
    one minimal-rotation representative each, degree <= maxdeg."""
    out = []
    for length in range(1, maxdeg + 1):
        for tup in itertools.product(range(p), repeat=length):
            rots = [tup[i:] + tup[:i] for i in range(length)]
            if tup != min(rots):
                continue
            if any(
                length % q == 0 and tup == tup[:q] * (length // q)
                for q in range(1, length)
            ):
                continue
            out.append(tup)
    return out


def amitsur_expand(t: int, summands: list[tuple[Fraction, Word]]) -> SigmaPoly:
    """s_t(sum a_i w_i) expanded into the sigma-ring.

    Sums over all sets of pairwise distinct primitive cycles in the summands
    (each summand an atomic symbol) with positive exponents j_i of total
    weighted degree t, sign (-1)^(t - sum j_i); each cycle's coefficient is
    the product of its summands' coefficients raised to j_i.
    """
    if t < 1:
        raise ValueError("s_0 is identically 1, not expandable")
    if not summands:
        raise ValueError("need at least one summand")
    p = len(summands)
    cycles = _atom_cycles(p, t)

    total = SigmaPoly.zero()

    def descend(i: int, budget: int, picked: list[tuple[tuple[int, ...], int]]):
        nonlocal total
        if budget == 0:
            jsum = sum(j for _, j in picked)
            term = SigmaPoly.scalar(Fraction((-1) ** (t - jsum)))
            for cyc, j in picked:
                coeff = Fraction(1)
                word = None
                for atom in cyc:
                    coeff *= summands[atom][0]
                    word = summands[atom][1] if word is None else word * summands[atom][1]
                term = term * (coeff**j * sigma_of_word(j, word))
            total = total + term
            return
        if i >= len(cycles):
            return
        descend(i + 1, budget, picked)
        deg = len(cycles[i])
        j = 1
        while j * deg <= budget:
            picked.append((cycles[i], j))
            descend(i + 1, budget - j * deg, picked)
            picked.pop()
            j += 1

    descend(0, t, [])
    return total


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


def substitute(p: SigmaPoly, assignment: dict[int, LinComb]) -> SigmaPoly:
    """Replace every letter by a linear combination of words; transposed
    letters receive the involuted image.  Fully renormalized."""
    missing = p.indices() - set(assignment)
    if missing:
        raise ValueError(f"no assignment for letter indices {sorted(missing)}")
    gen_cache: dict[SigmaGen, SigmaPoly] = {}
    out = SigmaPoly.zero()
    for m, c in p.monomials.items():
        term = SigmaPoly.scalar(c)
        for g in m:
            img = gen_cache.get(g)
            if img is None:
                img = normalize(g.t, _word_image(g.cycle, assignment))
                gen_cache[g] = img
            term = term * img
        out = out + term
    return out


def lin(p: SigmaPoly, d: int) -> SigmaPoly:
    """Complete linearization of a homogeneous polynomial over d letters.

    Substitutes letter i by x_i + x_{i+d} + ... + x_{i+(t_i-1)d} and keeps
    the component multilinear in all the extended letters.
    """
    if not p:
        return p
    degs = {tuple(sorted(p.mdeg_of(m).items())) for m in p.monomials}
    if len(degs) != 1:
        raise ValueError("input is not multidegree-homogeneous")
    counts = dict(degs.pop())
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
    out: dict[Monomial, Fraction] = {}
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


def _factor_text(gen: SigmaGen, power: int, naming: Naming) -> str:
    head = "tr" if gen.t == 1 else f"s{gen.t}"
    body = head + word_text(gen.cycle, naming)
    return body if power == 1 else f"{body}^{power}"


def poly_text(p: SigmaPoly, naming: Naming) -> str:
    monos = p.sorted_monomials()
    if not monos:
        return "0"
    parts = []
    for i, (m, c) in enumerate(monos):
        factors = []
        for gen, grp in itertools.groupby(m):
            factors.append(_factor_text(gen, len(list(grp)), naming))
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        if not factors and mag == 1:
            body = "1"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


_FACTOR_RE = re.compile(r"(tr|s(\d+))\[([^\]]*)\](?:\^(\d+))?")


def parse_poly(text: str, naming: Naming) -> SigmaPoly:
    from .words import _split_terms  # shared grammar helper

    text = text.strip()
    if text == "0":
        return SigmaPoly.zero()
    out: dict[Monomial, Fraction] = {}
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
        mono = _mono_sorted(gens)
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return SigmaPoly(out)


def poly_json_obj(p: SigmaPoly, naming: Naming) -> dict:
    terms = []
    for m, c in p.sorted_monomials():
        terms.append(
            {
                "coeff": str(c),
                "gens": [
                    {"t": g.t, "word": word_text(g.cycle, naming)[1:-1]} for g in m
                ],
            }
        )
    return {"terms": terms}


def poly_from_json_obj(obj: dict, naming: Naming) -> SigmaPoly:
    out: dict[Monomial, Fraction] = {}
    for term in obj["terms"]:
        gens = [
            make_gen(int(g["t"]), parse_word(f"[{g['word']}]", naming))
            for g in term["gens"]
        ]
        mono = _mono_sorted(gens)
        out[mono] = out.get(mono, Fraction(0)) + Fraction(term["coeff"])
    return SigmaPoly(out)


def poly_json(p: SigmaPoly, naming: Naming) -> str:
    return json.dumps(poly_json_obj(p, naming))
