import copy
import inspect
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaring import ring
from sigmaring.matrices import EvalContext, random_matrix
from sigmaring.relations import o_relation_generators
from sigmaring.ring import (
    SigmaGen,
    SigmaPoly,
    amitsur_expand,
    lin,
    make_gen,
    multiplicity_stats,
    normalize,
    parse_poly,
    poly_json_obj,
    poly_text,
    power_reduce,
    sigma_of_word,
    substitute,
)
from sigmaring.sigmatr import sigma_lin, sigma_partial, sigma_tr
from sigmaring.words import (
    Letter,
    LinComb,
    Naming,
    Word,
    _period,
    canonicalize,
    is_primitive,
    parse_word,
    word_text,
)

A_ = Naming.single("a")
XYZ = Naming.xyz(1, 1, 1)


def W(*pairs) -> Word:
    return Word([Letter(i, t) for i, t in pairs])


def elementary(vals, k):
    if k == 0:
        return Fraction(1)
    return sum(
        (Fraction(math.prod(c)) for c in itertools.combinations(vals, k)), Fraction(0)
    )


def test_make_gen_rejects_noncanonical():
    with pytest.raises(ValueError):
        make_gen(1, W((2, False), (1, False)))  # rotation of the canonical form
    with pytest.raises(ValueError):
        make_gen(1, W((1, False), (1, False)))  # imprimitive
    with pytest.raises(ValueError):
        make_gen(0, W((1, False)))


def test_power_reduce_literal():
    assert poly_text(power_reduce(1, 2), A_) == "tr[a]^2 - 2*s2[a]"


@pytest.mark.parametrize(
    "t,l", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 4), (1, 5), (2, 5), (4, 3)]
)
def test_power_reduce_eigenvalue_oracle(t, l):
    """s_t(D^l) for diagonal D equals e_t of the powered eigenvalues;
    the reduction must therefore hold under s_k -> e_k(eigenvalues)."""
    vals = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37][: t * l]
    want = elementary([v**l for v in vals], t)
    got = Fraction(0)
    for mono, coeff in power_reduce(t, l).monomials.items():
        term = coeff
        for g in mono:
            term *= elementary(vals, g.t)
        got += term
    assert got == want
    # and all coefficients are integers
    assert all(c.denominator == 1 for c in power_reduce(t, l).monomials.values())


# The symmetric-polynomial elimination that computed power_reduce before
# Newton's identities, kept as an independent oracle.
#
# With N = t*l formal eigenvalues, s_t(A^l) = e_t(la_1^l, ..., la_N^l); the
# conversion into the elementary symmetric basis subtracts leading terms:
# the lex-leading exponent mu of a symmetric polynomial is weakly
# decreasing, and e_1^(mu_1-mu_2) e_2^(mu_2-mu_3) ... e_N^(mu_N) has leading
# exponent exactly mu with coefficient 1.

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


def elimination_power_reduce(t: int, l: int) -> SigmaPoly:
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
        result = result + SigmaPoly({tuple(sorted(gens)): Fraction(coeff)})
    return result


@pytest.mark.parametrize(
    "t,l", [(t, l) for t in range(1, 9) for l in range(1, 9) if t * l <= 8]
)
def test_power_reduce_matches_elimination_oracle(t, l):
    got = power_reduce(t, l)
    want = elimination_power_reduce(t, l)
    assert got == want
    assert got.sorted_monomials() == want.sorted_monomials()


def test_sigma_of_word_canonicalizes():
    assert sigma_of_word(2, W((2, False), (1, False))) == sigma_of_word(
        2, W((1, False), (2, False))
    )
    # transposed single letter folds onto the plain one
    assert sigma_of_word(3, W((1, True))) == sigma_of_word(3, W((1, False)))


def test_sigma_of_word_power():
    p = sigma_of_word(1, W((1, False), (1, False)))
    assert poly_text(p, A_) == "tr[a]^2 - 2*s2[a]"


def test_amitsur_two_letters():
    a = LinComb.of(W((1, False)))
    b = LinComb.of(W((2, False)))
    got = poly_text(normalize(2, a + b), Naming.generic(2, "a"))
    assert got == "tr[a1]*tr[a2] - tr[a1 a2] + s2[a1] + s2[a2]"


def _atom_cycles(p: int, maxdeg: int) -> list[tuple[int, ...]]:
    """Primitive cyclic words over atoms 0..p-1 (cyclic equivalence only),
    one minimal-rotation representative each, degree <= maxdeg."""
    out = []
    for length in range(1, maxdeg + 1):
        for tup in itertools.product(range(p), repeat=length):
            rots = [tup[i:] + tup[:i] for i in range(length)]
            if tup == min(rots) and _period(tup) == length:
                out.append(tup)
    return out


def skip_first_amitsur(t, summands):
    """amitsur_expand as one recursion frame per atom cycle, skipped or
    picked: the signed sum over sets of pairwise distinct primitive cycles
    in the summands (each summand an atomic symbol) with exponents j_i of
    total weighted degree t, sign (-1)^(t - sum j_i)."""
    cycles = _atom_cycles(len(summands), t)
    total = SigmaPoly.zero()

    def descend(i, budget, picked):
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


AMITSUR_SUMMANDS = [
    (Fraction(1), W((1, False))),
    (Fraction(-2, 3), W((2, False), (1, True))),
    (Fraction(3), W((2, True))),
    (Fraction(1, 5), W((3, False))),
]


@pytest.mark.parametrize(
    "p, t", [(p, t) for p in (1, 2, 3) for t in range(1, 6)] + [(4, t) for t in range(1, 5)]
)
def test_amitsur_matches_skip_first_recursion(p, t):
    got = amitsur_expand(t, AMITSUR_SUMMANDS[:p])
    want = skip_first_amitsur(t, AMITSUR_SUMMANDS[:p])
    assert got.sorted_monomials() == want.sorted_monomials()


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_amitsur_drops_zero_summands(t):
    a, b, c, d = AMITSUR_SUMMANDS
    zero_b, zero_d = (Fraction(0), b[1]), (Fraction(0), d[1])
    got = amitsur_expand(t, [a, zero_b, c, zero_d])
    assert got.sorted_monomials() == skip_first_amitsur(t, [a, c]).sorted_monomials()
    assert amitsur_expand(t, [zero_b, zero_d]) == SigmaPoly.zero()


def test_amitsur_shares_the_degree_guard():
    # every composition of t into parts is a sigma_partial of degree t, so
    # s_11 of a sum is refused by the guard of sigma_partial
    a, b = AMITSUR_SUMMANDS[:2]
    with pytest.raises(ValueError, match="^total degree 11 exceeds guard 10$"):
        amitsur_expand(11, [a, b])


def test_amitsur_many_cycles_under_low_recursion_limit():
    # s_9 of a two-word sum has 127 atom cycles; the expansion needs a
    # frame per picked cycle only, at most 9 of them.
    summands = AMITSUR_SUMMANDS[:2]
    want = skip_first_amitsur(9, summands)
    cycles = _atom_cycles(2, 9)
    limit = len(inspect.stack(0)) + 60
    assert limit < len(cycles)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        got = amitsur_expand(9, summands)
    finally:
        sys.setrecursionlimit(old)
    assert got == want


def test_normalize_scalar_rule():
    w = W((1, False), (2, True))
    assert normalize(3, LinComb.of(w, Fraction(-2))) == Fraction(-8) * sigma_of_word(3, w)
    with pytest.raises(ValueError):
        normalize(0, LinComb.of(w))
    with pytest.raises(ValueError):
        normalize(2, LinComb())


@pytest.mark.parametrize("t", [1, 2, 3])
def test_amitsur_matrix_oracle(t):
    """Expansion of s_t over sums agrees with direct evaluation."""
    arg = (
        LinComb.of(W((1, False))                     )
        + LinComb.of(W((2, False), (1, True)), Fraction(2))
        + LinComb.of(W((2, False)), Fraction(-1, 2))
    )
    p = normalize(t, arg)
    for trial in range(5):
        mats = {k: random_matrix(3, 900 + 10 * trial + k) for k in (1, 2)}
        ctx = EvalContext(mats)
        direct = (
            mats[1] + (mats[2] * mats[1].T).scale(2) + mats[2].scale(Fraction(-1, 2))
        ).sigma(t)
        assert ctx.eval_poly(p) == direct


def test_substitute_identity_and_cache():
    p = normalize(2, LinComb.of(W((1, False))) + LinComb.of(W((2, False))))
    ident = {1: LinComb.of(W((1, False))), 2: LinComb.of(W((2, False)))}
    assert substitute(p, ident) == p
    with pytest.raises(ValueError):
        substitute(p, {1: LinComb.of(W((1, False)))})  # letter 2 unassigned


def test_substitute_respects_transpose():
    # s_1(x y') with x -> [a b], y -> [b]: the transposed slot gets [b]^T
    p = sigma_of_word(1, W((1, False), (2, True)))
    q = substitute(
        p, {1: LinComb.of(W((1, False), (2, False))), 2: LinComb.of(W((2, False)))}
    )
    assert q == sigma_of_word(1, W((1, False), (2, False), (2, True)))


def letter_indices(p):
    return {lt.index for m in p.monomials for g in m for lt in g.cycle}


def general_substitute_oracle(p, assignment):
    """substitute as it was before word-level images: every generator image
    is normalized from its LinComb image and multiplied in as a polynomial."""
    missing = letter_indices(p) - set(assignment)
    if missing:
        raise ValueError(f"no assignment for letter indices {sorted(missing)}")
    gen_cache = {}
    out = {}
    for m, c in p.monomials.items():
        term = SigmaPoly.scalar(c)
        for g in m:
            img = gen_cache.get(g)
            if img is None:
                arg = None
                for lt in g.cycle:
                    a = assignment[lt.index].T if lt.transposed else assignment[lt.index]
                    arg = a if arg is None else arg * a
                img = gen_cache[g] = normalize(g.t, arg)
            term = term * img
        for tm, tc in term.monomials.items():
            tc += out.get(tm, 0)
            if tc:
                out[tm] = tc
            else:
                out.pop(tm, None)
    return SigmaPoly(out)


def _oracle_word_sigma(t, letters):
    w = Word(letters)
    root, e = canonicalize(w)
    return SigmaGen(t, root) if e == 1 else sigma_of_word(t, w)


def word_substitute_oracle(p, assignment):
    """substitute as it was before substitution plans: a per-call images
    dict, one generator or one SigmaPoly per image, and SigmaPoly.__mul__
    on the polynomial images."""
    missing = letter_indices(p) - set(assignment)
    if missing:
        raise ValueError(f"no assignment for letter indices {sorted(missing)}")
    words = {}
    for i, lc in assignment.items():
        if len(lc.terms) != 1:
            words = None
            break
        ((w, c),) = lc.terms.items()
        if c != 1:
            words = None
            break
        words[Letter(i)] = w
        words[Letter(i, True)] = w.T
    images = {}
    out = {}
    for m, c in p.monomials.items():
        gens = []
        polys = []
        for g in m:
            img = images.get(g)
            if img is None:
                if words is None:
                    img = normalize(g.t, ring._word_image(g.cycle, assignment))
                else:
                    img = _oracle_word_sigma(g.t, tuple(x for lt in g.cycle for x in words[lt]))
                images[g] = img
            if type(img) is SigmaGen:
                gens.append(img)
            else:
                polys.append(img)
        if not polys:
            ring._add_term(out, tuple(sorted(gens)), c)
            continue
        term = SigmaPoly._of_clean({(): c})
        for img in polys:
            term = term * img
        for tm, tc in term.monomials.items():
            ring._add_term(out, tuple(sorted(tm + tuple(gens))), tc)
    return SigmaPoly._of_clean(out)


def typed_items(p):
    """The monomials of p in order, with each coefficient's type."""
    return [(m, c, type(c)) for m, c in p.monomials.items()]


def same_as_fresh(shared, fresh):
    """A relation's polynomial, which o_relation_generators may share with
    other relations of its transpose orbit in another monomial order,
    against a fresh substitution: the typed items as a dict, and the
    recorded degree."""

    def terms(p):
        return {m: (c, type(c)) for m, c in p.monomials.items()}

    degrees = [getattr(p, "_degree", None) for p in (shared, fresh)]
    return terms(shared) == terms(fresh) and degrees[0] == degrees[1]


@pytest.mark.parametrize(
    "n,d,budget,max_word_len", [(1, 1, 5, 2), (2, 1, 4, 3), (2, 2, 4, 2), (3, 2, 4, 2)]
)
def test_substitute_matches_word_oracle_on_relations(n, d, budget, max_word_len):
    """Monomial order and coefficient types included, on a fresh
    substitution; the (1,1,5) images are mostly proper powers, several to a
    monomial."""
    naming = Naming.generic(d)
    for rel in o_relation_generators(n, d, budget, max_word_len):
        words = [parse_word(f"[{w}]", naming) for w in rel.words]
        assignment = {i + 1: LinComb.of(w) for i, w in enumerate(words)}
        base = sigma_partial(rel.ts, rel.rs, rel.ss)
        got = substitute(base, assignment)
        want = word_substitute_oracle(base, assignment)
        assert typed_items(got) == typed_items(want), rel.describe()
        assert same_as_fresh(rel.poly, got), rel.describe()


@pytest.mark.parametrize(
    "n,d,budget,max_word_len", [(3, 2, 4, 2), (2, 2, 4, 2), (1, 2, 3, 2), (2, 1, 4, 3)]
)
def test_substitute_matches_general_oracle_on_relations(n, d, budget, max_word_len):
    naming = Naming.generic(d)
    powers = 0
    for rel in o_relation_generators(n, d, budget, max_word_len):
        words = [parse_word(f"[{w}]", naming) for w in rel.words]
        assignment = {i + 1: LinComb.of(w) for i, w in enumerate(words)}
        base = sigma_partial(rel.ts, rel.rs, rel.ss)
        got = substitute(base, assignment)
        want = general_substitute_oracle(base, assignment)
        assert list(got.monomials.items()) == list(want.monomials.items()), rel.describe()
        assert same_as_fresh(rel.poly, got), rel.describe()
        images = {ring._word_image(g.cycle, assignment) for m in base.monomials for g in m}
        powers += sum(not is_primitive(next(iter(img.terms))) for img in images)
    assert powers > 0  # images such as [x1 x1] take the power_reduce branch


SMALL_SHAPES = [
    ((1,), (1,), (1,)),
    ((2,), (1,), (1,)),
    ((1, 1), (1,), (1,)),
    ((1,), (2,), (1, 1)),
    ((1,), (1, 1), (2,)),
    ((3,), (), ()),
    ((), (2,), (2,)),
]

small_words = st.builds(
    lambda base, k: Word(base * k),
    st.lists(st.builds(Letter, st.integers(1, 2), st.booleans()), min_size=1, max_size=2),
    st.integers(1, 3),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_SHAPES),
    st.lists(small_words, min_size=4, max_size=4),
    st.lists(st.sampled_from([1, -1, 2, Fraction(1, 3)]), min_size=4, max_size=4),
    st.booleans(),
)
def test_substitute_matches_general_oracle(shape, words, coeffs, unit):
    """Single words with coefficient 1 (proper powers and transposed letters
    included) take the word-level images; other coefficients normalize."""
    ts, rs, ss = shape
    base = sigma_partial(ts, rs, ss)
    assignment = {
        i + 1: LinComb.of(words[i], 1 if unit else coeffs[i])
        for i in range(len(ts) + len(rs) + len(ss))
    }
    got = substitute(base, assignment)
    want = general_substitute_oracle(base, assignment)
    assert list(got.monomials.items()) == list(want.monomials.items())
    assert typed_items(got) == typed_items(word_substitute_oracle(base, assignment))


def plan_substitute_oracle(p, assignment):
    """substitute as it was before compiled monomials: a plan of distinct
    cycles, distinct generators and monomials as generator numbers; images
    of s_t of the concatenated letters of single-word values, else
    normalized LinComb images; each monomial sorted and added through
    ring._add_term, the polynomial images multiplied out one at a time."""
    cycles, gens, monos = {}, {}, []
    for m, c in p.monomials.items():
        for g in m:
            if g not in gens:
                gens[g] = len(gens)
                cycles.setdefault(g.cycle, len(cycles))
        monos.append((c, [gens[g] for g in m]))
    missing = {lt.index for w in cycles for lt in w}.difference(assignment)
    if missing:
        raise ValueError(f"no assignment for letter indices {sorted(missing)}")
    words = {}
    for i, lc in assignment.items():
        if len(lc.terms) != 1 or next(iter(lc.terms.values())) != 1:
            words = None
            break
        (w,) = lc.terms
        words[i, False], words[i, True] = tuple(w), tuple(w.T)
    if words is None:
        images = [normalize(g.t, ring._word_image(g.cycle, assignment)).monomials.items() for g in gens]
    else:
        images = []
        for g in gens:
            img = _oracle_word_sigma(g.t, sum((words[lt] for lt in g.cycle), ()))
            images.append(img if type(img) is SigmaGen else img.monomials.items())
    poly_images = {i for i, img in enumerate(images) if type(img) is not SigmaGen}
    out = {}
    for c, numbers in monos:
        if poly_images.isdisjoint(numbers):
            ring._add_term(out, tuple(sorted([images[i] for i in numbers])), c)
            continue
        term = {tuple(sorted(images[i] for i in numbers if i not in poly_images)): c}
        for img in [images[i] for i in numbers if i in poly_images]:
            product = {}
            for m1, c1 in term.items():
                for m2, c2 in img:
                    m = tuple(sorted(m1 + m2))
                    product[m] = product.get(m, 0) + c1 * c2
            term = {m: v for m, v in product.items() if v}
        for m, v in term.items():
            ring._add_term(out, m, ring._int_if_integral(v))
    result = SigmaPoly._of_clean(out)
    mdeg = ring._multidegree(p)
    if words is not None and mdeg is not None:
        degree = sum(k * len(words[i, False]) for i, k in mdeg) if out else 0
        object.__setattr__(result, "_degree", degree)
    return result


def same_substitution(got, want):
    """Monomial order, coefficient types and the recorded degree."""
    return typed_items(got) == typed_items(want) and getattr(got, "_degree", None) == getattr(
        want, "_degree", None
    )


@pytest.mark.parametrize(
    "n,d,budget", [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4), (3, 2, 4), (2, 1, 5)]
)
def test_substitute_matches_plan_oracle_on_relations(n, d, budget):
    """Every relation of the four exact sweep shapes, the randomized sweep
    shape and (2, 1, 5), whose slots are mostly proper powers; the strict
    check runs on a fresh substitution."""
    naming = Naming.generic(d)
    powers = 0
    for rel in o_relation_generators(n, d, budget):
        words = [parse_word(f"[{w}]", naming) for w in rel.words]
        assignment = {i + 1: LinComb.of(w) for i, w in enumerate(words)}
        base = sigma_partial(rel.ts, rel.rs, rel.ss)
        got = substitute(base, assignment)
        assert same_substitution(got, plan_substitute_oracle(base, assignment)), rel.describe()
        assert same_as_fresh(rel.poly, got), rel.describe()
        images = {ring._word_image(g.cycle, assignment) for m in base.monomials for g in m}
        powers += any(not is_primitive(next(iter(img.terms))) for img in images)
    assert powers > 0  # some images are proper powers, such as [x1 x1]


def random_lincomb(rng, unit):
    """One word with coefficient 1 when unit, words of up to four letters
    over two, proper powers among them; else one or two letters with
    rational coefficients."""
    def letter():
        return Letter(rng.randint(1, 2), rng.random() < 0.5)

    if unit:
        return LinComb.of(Word([letter() for _ in range(rng.randint(1, 2))] * rng.choice((1, 2))))
    return LinComb(
        {Word([letter()]): Fraction(rng.choice((1, -1, 2)), rng.choice((1, 2, 3))) for _ in range(2)}
    )


@pytest.mark.parametrize("seed", range(12))
def test_substitute_matches_plan_oracle_on_random_inputs(seed):
    """Rational combinations of cached bases, so some coefficients are
    Fractions whose products with power images are integral; single-word
    assignments (proper powers included) and multi-word ones with Fraction
    coefficients."""
    rng = random.Random(seed)
    for _ in range(15):
        shapes = rng.sample(SMALL_SHAPES, 2)
        k = max(len(ts) + len(rs) + len(ss) for ts, rs, ss in shapes)
        p = SigmaPoly.zero()
        for shape in shapes:
            p = p + Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))) * sigma_partial(*shape)
        unit = rng.random() < 0.6
        if unit and rng.random() < 0.5:  # repeated factors
            p = p * sigma_partial(*shapes[0])
        assignment = {i: random_lincomb(rng, unit) for i in range(1, k + 1)}
        for base in (p, sigma_partial(*shapes[0])):
            got = substitute(base, assignment)
            assert same_substitution(got, plan_substitute_oracle(base, assignment)), (seed, unit)


sigma_polys = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from([W((1, False)), W((2, False)), W((1, False), (2, False))]), st.integers(-3, 3)),
    max_size=4,
).map(
    lambda items: sum(
        (Fraction(c) * SigmaPoly.from_gen(SigmaGen(t, w)) for t, w, c in items),
        SigmaPoly.zero(),
    )
)


@settings(max_examples=40)
@given(sigma_polys, sigma_polys, sigma_polys)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + SigmaPoly.zero() == p
    assert p * SigmaPoly.one() == p


def test_lin_examples():
    assert poly_text(lin(sigma_of_word(2, W((1, False))), 1), Naming.generic(2)) == (
        "tr[x1]*tr[x2] - tr[x1 x2]"
    )
    g = sigma_of_word(1, W((1, False)))
    assert poly_text(lin(g * g * g, 1), Naming.generic(3)) == "6*tr[x1]*tr[x2]*tr[x3]"


def test_lin_glue_back():
    """Merging the extended letters back multiplies by the degree factorials."""
    cases = [
        (sigma_of_word(2, W((1, False))), 2),          # degree 2 in one letter
        (sigma_of_word(1, W((1, False))) ** 3, 6),     # degree 3
        (sigma_of_word(1, W((1, False), (2, False))), 1),  # already multilinear
    ]
    for f, factor in cases:
        L = lin(f, 2)
        back = {}
        for m in L.monomials:
            for g in m:
                for lt in g.cycle:
                    back[lt.index] = LinComb.of(W(((lt.index - 1) % 2 + 1, False)))
        assert substitute(L, back) == Fraction(factor) * f


def test_lin_requires_homogeneous():
    p = sigma_of_word(1, W((1, False))) + sigma_of_word(2, W((1, False)))
    with pytest.raises(ValueError):
        lin(p, 1)


def test_multiplicity_stats():
    g1 = SigmaGen(1, W((1, False)))
    g2 = SigmaGen(2, W((1, False)))
    assert multiplicity_stats(()) == (1, 0)
    assert multiplicity_stats((g1, g1, g1)) == (6, 3)
    assert multiplicity_stats((g1, g2)) == (1, 2)
    assert multiplicity_stats((g1, g1, g2)) == (2, 3)


def test_poly_text_parse_roundtrip():
    p = (
        Fraction(-3, 2) * sigma_of_word(2, W((1, False), (2, False)))
        + sigma_of_word(1, W((1, False))) * sigma_of_word(1, W((1, False)))
    )
    text = poly_text(p, XYZ)
    assert parse_poly(text, XYZ) == p
    assert parse_poly("0", XYZ) == SigmaPoly.zero()
    assert poly_text(SigmaPoly.zero(), XYZ) == "0"
    assert poly_text(SigmaPoly.one(), XYZ) == "1"
    assert parse_poly("1 - 1", XYZ) == SigmaPoly.zero()


def poly_text_per_factor(p: SigmaPoly, naming: Naming) -> str:
    """poly_text rendering every factor on its own, generator text and
    power together."""
    monos = p.sorted_monomials()
    if not monos:
        return "0"
    parts = []
    for i, (m, c) in enumerate(monos):
        factors = []
        for gen, grp in itertools.groupby(m):
            power = len(list(grp))
            body = ("tr" if gen.t == 1 else f"s{gen.t}") + word_text(gen.cycle, naming)
            factors.append(body if power == 1 else f"{body}^{power}")
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        if not factors and mag == 1:
            body = "1"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


@pytest.mark.parametrize(
    "make, naming",
    [
        (lambda: sigma_tr(5, 2), XYZ),
        (lambda: sigma_lin(2, 2), Naming.xyz(2, 2, 2)),
        (lambda: power_reduce(3, 3), A_),  # factors with powers ^k
    ],
)
def test_poly_text_matches_per_factor_rendering(make, naming):
    p = make()
    assert poly_text(p, naming) == poly_text_per_factor(p, naming)


def by_degree_then_monomial(p: SigmaPoly) -> list:
    """p's monomial items sorted by a key: degree, then the monomial."""
    return sorted(p.monomials.items(), key=lambda it: (sum(g.degree for g in it[0]), it[0]))


def poly_json_per_factor(p: SigmaPoly, naming: Naming) -> dict:
    """poly_json_obj rendering every factor on its own."""
    return {
        "terms": [
            {
                "coeff": str(c),
                "gens": [{"t": g.t, "word": word_text(g.cycle, naming)[1:-1]} for g in m],
            }
            for m, c in by_degree_then_monomial(p)
        ]
    }


JSON_CASES = [
    (lambda: sigma_tr(5, 2), XYZ),
    (lambda: sigma_lin(2, 2), Naming.xyz(2, 2, 2)),
    (lambda: power_reduce(3, 3), A_),  # repeated factors
    (lambda: Fraction(5, 3) * sigma_of_word(2, W((1, False))) - SigmaPoly.one(), XYZ),
    (
        lambda: parse_poly("s2[x1]*tr[x2] - tr[x1 x1 x2] + 3*tr[x1]^2*tr[x2]", Naming.generic(2)),
        Naming.generic(2),
    ),
    (SigmaPoly.zero, XYZ),
]


@pytest.mark.parametrize("make, naming", JSON_CASES)
def test_poly_json_matches_per_factor_rendering(make, naming):
    p = make()
    assert poly_json_obj(p, naming) == poly_json_per_factor(p, naming)


@pytest.mark.parametrize("make, naming", JSON_CASES)
def test_sorted_monomials_is_degree_then_monomial_order(make, naming):
    # the print order compares generator ranks; a key over the generators
    # themselves gives the same order
    p = make()
    assert p.sorted_monomials() == by_degree_then_monomial(p)


def poly_from_json_obj(obj: dict, naming: Naming) -> SigmaPoly:
    """Inverse of poly_json_obj."""
    out: dict = {}
    for term in obj["terms"]:
        gens = [
            make_gen(int(g["t"]), parse_word(f"[{g['word']}]", naming))
            for g in term["gens"]
        ]
        mono = tuple(sorted(gens))
        out[mono] = out.get(mono, Fraction(0)) + Fraction(term["coeff"])
    return SigmaPoly(out)


def test_poly_json_roundtrip():
    p = Fraction(5, 3) * sigma_of_word(2, W((1, False))) - SigmaPoly.one()
    obj = poly_json_obj(p, XYZ)
    assert poly_from_json_obj(obj, XYZ) == p


def test_negation_keeps_the_recorded_degree():
    """-p records the degree of p, so poly_degree stays O(1) on a negated
    substitution; coefficient forms are kept."""
    from sigmaring.relations import poly_degree

    x1 = LinComb.of(W((1, False)))
    x2 = LinComb.of(W((2, True), (1, False)))
    p = substitute(sigma_partial((1,), (1,), (1,)), {1: x1, 2: x2, 3: x1})
    assert p._degree == 4 and p
    q = -p
    assert q._degree == 4 == poly_degree(q)
    assert typed_items(q) == [(m, -c, type(c)) for m, c, _ in typed_items(p)]
    # y -> y^T negates sigma_{(),(1),(1)}, so a word equal to its transpose empties it
    sym = LinComb.of(W((1, False), (1, True)))
    zero = substitute(sigma_partial((), (1,), (1,)), {1: sym, 2: x1})
    assert not zero and zero._degree == 0 and (-zero)._degree == 0
    half = Fraction(1, 2) * p  # no recorded degree, none invented
    assert not hasattr(-half, "_degree")
    assert typed_items(-half) == [(m, -c, Fraction) for m, c, _ in typed_items(half)]


def test_coefficients_are_int_where_integral():
    from sigmaring.sigmatr import sigma_lin

    polys = [sigma_partial(*shape) for shape in SMALL_SHAPES]
    polys += [power_reduce(t, l) for t in range(1, 9) for l in range(1, 9) if t * l <= 8]
    polys.append(sigma_lin(2, 2))
    polys += [rel.poly for rel in o_relation_generators(2, 2, 4)]
    for p in polys:
        assert all(type(c) is int for c in p.monomials.values()), p
    naming = Naming.generic(2)
    half = Fraction(1, 2) * sigma_partial(*SMALL_SHAPES[0])
    assert all(type(c) is Fraction for c in half.monomials.values())
    (c,) = parse_poly("1/2*tr[x1]", naming).monomials.values()
    assert c == Fraction(1, 2) and type(c) is Fraction
    g = SigmaGen(1, W((1, False)))
    (c,) = SigmaPoly({(g,): Fraction(4, 2)}).monomials.values()
    assert c == 2 and type(c) is int
    assert 2 * half == sigma_partial(*SMALL_SHAPES[0])
    assert all(type(c) is int for c in (2 * half).monomials.values())
    # the same polynomial built from ints and from Fractions
    for p in polys[:3]:
        q = SigmaPoly({m: Fraction(c) for m, c in p.monomials.items()})
        r = SigmaPoly._of_clean({m: Fraction(c) for m, c in p.monomials.items()})
        assert p == q == r and hash(p) == hash(q) == hash(r)


def test_uncached_polynomials_keep_no_plan():
    """A plan is kept only on the cached sigma_partial bases, compiled by
    their first substitution; lin and substitute compile one per call for
    any other polynomial and keep none, so no module table grows on a
    repeated call."""
    from sigmaring import sigmatr

    naming = Naming.generic(2)
    text = "s2[x1]*tr[x2] - tr[x1 x1 x2] + 3*tr[x1]^2*tr[x2]"
    assignment = {1: LinComb.of(W((1, False), (2, False))), 2: LinComb.of(W((2, True)))}
    lin(parse_poly(text, naming), 2)  # warms the memos that both calls use
    substitute(parse_poly(text, naming), assignment)

    def table_sizes():
        return {
            (mod.__name__, name): len(value)
            for mod in (ring, sigmatr)
            for name, value in vars(mod).items()
            if isinstance(value, dict) and not name.startswith("__")
        }

    before = table_sizes()
    p = parse_poly(text, naming)
    lin(p, 2)
    substitute(p, assignment)
    assert table_sizes() == before
    assert not hasattr(p, "_plan")
    base = sigma_partial((1,), (2,), (1, 1))
    assert all(hasattr(q, "_plan") for q in sigmatr._cache.values())
    substitute(base, {i: LinComb.of(W((i, False))) for i in range(1, 5)})
    plan = base._plan
    assert plan is not None
    substitute(base, {i: LinComb.of(W((i, True))) for i in range(1, 5)})
    assert base._plan is plan


def test_kept_plan_multidegree_is_the_target():
    """A cached sigma_partial base records its multidegree from its target;
    it is the one its monomials share."""
    from sigmaring import sigmatr

    for n, d, budget in ((3, 2, 4), (2, 2, 4)):
        for _ in o_relation_generators(n, d, budget):
            pass
    # and shapes with zero parts, whose letters the monomials do not use
    sigma_tr(0, 2)
    sigma_partial((2, 0), (1,), (0, 1))
    for p in sigmatr._cache.values():
        assert ring._plan_of(p).mdeg == ring._multidegree(p) is not None


@pytest.mark.parametrize("cached", [True, False])
def test_substitute_missing_letter_message(cached):
    base = sigma_partial((1,), (1,), (1,))
    p = base if cached else parse_poly(poly_text(base, XYZ), XYZ)
    assert hasattr(p, "_plan") is cached
    x = LinComb.of(W((1, False)))
    with pytest.raises(ValueError, match=r"^no assignment for letter indices \[2\]$"):
        substitute(p, {1: x, 3: x})
    with pytest.raises(ValueError, match=r"^no assignment for letter indices \[2, 3\]$"):
        substitute(p, {1: x, 4: x})


def old_word_key(w):
    """The letter tuple of w as plain (index, transposed) pairs."""
    return tuple((lt.index, lt.transposed) for lt in w)


def old_gen_key(g):
    """The generator order as it was keyed: t, cycle length, letters."""
    return (g.t, len(g.cycle), old_word_key(g.cycle))


ring_words = st.builds(
    Word, st.lists(st.builds(Letter, st.integers(1, 3), st.booleans()), min_size=1, max_size=4)
)
ring_gens = st.builds(SigmaGen, st.integers(1, 4), ring_words)


@given(st.lists(ring_words, max_size=8), st.lists(ring_gens, max_size=8))
def test_tuple_order_is_the_key_order(ws, gens):
    assert sorted(ws) == sorted(ws, key=old_word_key)
    assert sorted(gens) == sorted(gens, key=old_gen_key)
    for g in gens:
        assert (g.t, g.cycle, g.degree) == (g[0], g[2], g[0] * len(g[2]))
        assert g == (g.t, len(g.cycle), g.cycle)
    # so does the printed order of monomials: by degree, then factor by factor
    p = SigmaPoly({tuple(gens[:i]): i + 1 for i in range(len(gens) + 1)})
    assert [m for m, _ in p.sorted_monomials()] == sorted(
        p.monomials, key=lambda m: (sum(g.degree for g in m), [old_gen_key(g) for g in m])
    )


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_poly_copies_and_pickles(roundtrip):
    naming = Naming.generic(9)
    polys = [sigma_partial(*shape) for shape in SMALL_SHAPES]
    polys += [rel.poly for rel in itertools.islice(o_relation_generators(2, 2, 4), 40)]
    polys += [Fraction(1, 3) * power_reduce(3, 2), SigmaPoly.zero(), SigmaPoly.one()]
    for p in polys:
        q = roundtrip(p)
        assert q == p and poly_text(q, naming) == poly_text(p, naming)
        assert list(q.monomials.items()) == list(p.monomials.items())
        assert [type(c) for c in q.monomials.values()] == [type(c) for c in p.monomials.values()]
        for m in q.monomials:
            assert all(type(g) is SigmaGen and type(g.cycle) is Word for g in m)
