import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

from sigmaring import relations, sigmatr
from sigmaring.matrices import EvalContext, random_matrix
from sigmaring.relations import (
    EXACT_MAX_DEGREE,
    MultiPoly,
    Relation,
    certificate,
    enumerate_words,
    gl_relation_generators,
    list_relations,
    o_relation_generators,
    poly_degree,
    read_certificates,
    rebuild_relation,
    replay_certificate,
    verify_exact,
    verify_randomized,
    write_certificates,
)
from sigmaring.ring import SigmaGen, SigmaPoly, parse_poly, sigma_of_word
from sigmaring.sigmatr import sigma_tr
from sigmaring.words import Letter, LinComb, Naming, Word, parse_word, word_text


def test_gl_relations_share_the_degree_guard():
    assert [rel.describe() for rel in gl_relation_generators(9, 1, 10)] == ["gl[10](x1)"]
    with pytest.raises(ValueError, match="total degree 11 exceeds guard 10"):
        list(gl_relation_generators(9, 1, 12))
    gl = {"kind": "gl", "n": 1, "d": 2, "shape": {"t": [5], "r": [], "s": []}}
    for words in (["x1 x1"], ["x1 x2", "x2"]):
        rel = rebuild_relation({**gl, "words": words})
        assert poly_degree(rel.poly) == 10 and verify_randomized(rel.poly, 1, 2, 2, 3)
    with pytest.raises(ValueError, match="total degree 15 exceeds guard 10"):
        rebuild_relation({**gl, "words": ["x1", "x1 x2 x1"]})


@pytest.mark.parametrize(
    "kind, n, d, budget, max_word_len",
    [("o", 1, 1, 4, 2), ("o", 2, 2, 4, 2), ("o", 3, 2, 5, 2), ("o", 2, 1, 4, 3), ("gl", 1, 2, 5, 2)],
)
def test_listing_matches_the_generators(kind, n, d, budget, max_word_len):
    build = o_relation_generators if kind == "o" else gl_relation_generators
    built = list(build(n, d, budget, max_word_len))
    listed = list(list_relations(kind, n, d, budget, max_word_len))
    assert [r.describe() for r in listed] == [r.describe() for r in built]
    assert [r[:-1] for r in listed] == [r[:-1] for r in built]
    assert all(r.poly is None for r in listed)


def test_listing_builds_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a listing built a polynomial")

    for name in ("sigma_partial_subst", "normalize"):
        monkeypatch.setattr(relations, name, refuse)
    assert len(list(list_relations("o", 3, 2, 6))) == 59423
    assert len(list(list_relations("gl", 2, 2, 6))) > 0


@pytest.mark.parametrize("kind, n, d", [("o", 1, 1), ("o", 2, 2), ("gl", 1, 2)])
def test_listing_is_refused_at_the_same_relation(monkeypatch, kind, n, d):
    """With the degree guard lowered to 5, the generators are refused at
    their first relation of degree 6; the listing is refused there too."""
    from sigmaring import sigmatr

    monkeypatch.setattr(sigmatr, "DEGREE_GUARD", 5)
    build = o_relation_generators if kind == "o" else gl_relation_generators
    runs = []
    for gen in (build(n, d, 7), list_relations(kind, n, d, 7)):
        seen = []
        with pytest.raises(ValueError, match="total degree 6 exceeds guard 5"):
            for rel in gen:
                seen.append(rel.describe())
        runs.append(seen)
    assert runs[0] == runs[1] and runs[0]


def test_enumerate_words_counts():
    assert len(enumerate_words(1, 2)) == 2 + 4
    assert len(enumerate_words(1, 2, transposes=False)) == 1 + 1
    assert len(enumerate_words(2, 1)) == 4


def take_o(n, d, budget, limit=None, max_word_len=2):
    gen = o_relation_generators(n, d, budget, max_word_len)
    return list(itertools.islice(gen, limit) if limit else gen)


def test_o_generators_shapes():
    rels = take_o(2, 1, 3)
    assert rels
    for rel in rels:
        t = sum(rel.ts)
        r = sum(rel.rs)
        assert sum(rel.rs) == sum(rel.ss)
        assert t + 2 * r > rel.n
        assert all(p >= 1 for p in rel.ts + rel.rs + rel.ss)
        assert len(rel.words) == len(rel.ts) + len(rel.rs) + len(rel.ss)


def test_o_generators_no_duplicates():
    rels = take_o(2, 1, 4)
    seen = {(r.ts, r.rs, r.ss, r.words) for r in rels}
    assert len(seen) == len(rels)


def typed_terms(p):
    """The monomials of p with each coefficient and its type, in no order."""
    return {m: (c, type(c)) for m, c in p.monomials.items()}


@pytest.mark.parametrize(
    "n, d, budget", [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4), (3, 2, 4), (2, 2, 5)]
)
def test_orbit_polynomials_match_fresh_substitution(n, d, budget):
    """A relation may carry the polynomial object of an earlier relation of
    its transpose orbit, or its negation; it equals a substitution of its
    own words, coefficient types and recorded degree included."""
    naming = Naming.generic(d)
    for rel in o_relation_generators(n, d, budget):
        args = [LinComb.of(parse_word(f"[{w}]", naming)) for w in rel.words]
        fresh = sigmatr.sigma_partial_subst(rel.ts, rel.rs, rel.ss, args)
        assert typed_terms(rel.poly) == typed_terms(fresh), rel.describe()
        assert rel.poly._degree == fresh._degree, rel.describe()


@pytest.mark.parametrize(
    "n, d, budget, relations_, orbits",
    [(1, 1, 3, 51, 17), (1, 2, 3, 326, 91), (2, 1, 4, 151, 43), (2, 2, 4, 1621, 360),
     (3, 2, 4, 525, 100)],
)
def test_one_substitution_per_orbit(monkeypatch, n, d, budget, relations_, orbits):
    """Relations whose y and z words agree up to transposes and the order
    of equal-degree slots are substituted once, across x blocks too: the
    relation (X, Y, Z) shares its orbit with (X^T, Z, Y)."""
    made = []

    def counting(*args):
        made.append(sigmatr.sigma_partial_subst(*args))
        return made[-1]

    monkeypatch.setattr(relations, "sigma_partial_subst", counting)
    rels = take_o(n, d, budget)
    assert (len(rels), len(made)) == (relations_, orbits)
    # every other relation carries a substituted object or its one negation
    made_ids, made_set = {id(p) for p in made}, set(made)
    assert len({id(rel.poly) for rel in rels}) <= 2 * orbits
    assert sum(id(rel.poly) in made_ids for rel in rels) > orbits
    assert all(id(rel.poly) in made_ids or -rel.poly in made_set for rel in rels)


def slot_multisets_oracle(slots, budget):
    """Multisets of (degree, word) slots with total degree * len(word)
    weight <= budget, by a search that tries every remaining slot at every
    node; slots arrive sorted, output is nondecreasing."""

    def rec(i, remaining, chosen):
        yield list(chosen)
        for j in range(i, len(slots)):
            deg, w = slots[j]
            cost = deg * len(w)
            if cost <= remaining:
                chosen.append(slots[j])
                yield from rec(j, remaining - cost, chosen)
                chosen.pop()

    yield from rec(0, budget, [])


def sorted_slots(d, budget, max_word_len):
    words = enumerate_words(d, max_word_len)
    return sorted(
        ((deg, w) for deg in range(1, budget + 1) for w in words),
        key=lambda s: (s[0], len(s[1]), tuple(s[1])),
    )


def triple_dfs_oracle(n, d, budget, max_word_len):
    """(ts, rs, ss, words) of o_relation_generators as enumerated before one
    enumeration served all three blocks: the y block re-enumerated for every
    x block, the z block enumerated in full and filtered by its sum."""
    naming = Naming.generic(d)
    slots = sorted_slots(d, budget, max_word_len)
    for xs in slot_multisets_oracle(slots, budget):
        t = sum(deg for deg, _ in xs)
        x_weight = sum(deg * len(w) for deg, w in xs)
        for ys in slot_multisets_oracle(slots, budget - x_weight):
            r = sum(deg for deg, _ in ys)
            if t + 2 * r <= n:
                continue
            y_weight = sum(deg * len(w) for deg, w in ys)
            for zs in slot_multisets_oracle(slots, budget - x_weight - y_weight):
                if sum(deg for deg, _ in zs) != r:
                    continue
                yield (
                    tuple(deg for deg, _ in xs),
                    tuple(deg for deg, _ in ys),
                    tuple(deg for deg, _ in zs),
                    tuple(word_text(w, naming)[1:-1] for _, w in xs + ys + zs),
                )


ENUMERATION_GRID = [
    (n, d, budget, max_word_len)
    for n in (1, 3)
    for d in (1, 2)
    for max_word_len in (1, 2, 3)
    for budget in range(7)
    # the triple DFS is slow beyond about 10^4 relations
    if d == 1 or budget <= 4 or budget == 5 and max_word_len == 1
]


@pytest.mark.parametrize("n,d,budget,max_word_len", ENUMERATION_GRID)
def test_o_generators_enumerate_like_triple_dfs(monkeypatch, n, d, budget, max_word_len):
    monkeypatch.setattr(relations, "sigma_partial_subst", lambda *args: SigmaPoly.zero())
    got = [
        (rel.ts, rel.rs, rel.ss, rel.words)
        for rel in o_relation_generators(n, d, budget, max_word_len)
    ]
    assert got == list(triple_dfs_oracle(n, d, budget, max_word_len))


@pytest.mark.parametrize(
    "d,budget,max_word_len", sorted({(d, b, k) for _, d, b, k in ENUMERATION_GRID})
)
def test_slot_multisets_match_oracle(d, budget, max_word_len):
    slots = sorted_slots(d, budget, max_word_len)
    got = list(relations._slot_multisets(slots, budget))
    assert got == list(slot_multisets_oracle(slots, budget))


def monomial_walk_degree(p):
    return max((sum(g.degree for g in m) for m in p.monomials), default=0)


@pytest.mark.parametrize("n, d, budget, zeros", [(1, 1, 6, 642), (2, 2, 4, 128), (3, 2, 4, 0)])
def test_recorded_degree_matches_monomial_walk(n, d, budget, zeros):
    for rel in take_o(n, d, budget):
        walk = monomial_walk_degree(rel.poly)
        assert rel.poly._degree == walk == poly_degree(rel.poly), rel.describe()
        zeros -= not rel.poly
        replay = rebuild_relation(certificate(rel, "exact", True)).poly
        assert replay == rel.poly and replay._degree == walk, rel.describe()
    assert zeros == 0  # every zero polynomial was seen, recording degree 0


def test_unrecorded_degrees_walk_the_monomials():
    from fractions import Fraction

    from sigmaring.ring import lin, normalize, parse_poly, substitute
    from sigmaring.words import Letter, LinComb, Word

    naming = Naming.generic(2)
    x1, x2 = Word([Letter(1)]), Word([Letter(2)])
    mixed = parse_poly("tr[x1] + s2[x1 x2] - tr[x1 x2]^2", naming)
    polys = [
        mixed,
        lin(parse_poly("tr[x1]^2 - s2[x1]", naming), 2),
        normalize(3, LinComb({x1: Fraction(1), x2: Fraction(1)})),
        # one word per letter, but the base is not multihomogeneous
        substitute(mixed, {1: LinComb.of(x1 * x2), 2: LinComb.of(x2)}),
    ]
    polys += [rel.poly for rel in gl_relation_generators(2, 2, 4)]
    for p in polys:
        assert getattr(p, "_degree", None) is None
        assert poly_degree(p) == monomial_walk_degree(p) > 0
    for rel in gl_relation_generators(2, 2, 4):
        replay = rebuild_relation(certificate(rel, "exact", True)).poly
        assert getattr(replay, "_degree", None) is None
        assert poly_degree(replay) == monomial_walk_degree(replay)


def test_o_generators_vanish_randomized():
    for rel in take_o(2, 2, 3):
        assert verify_randomized(rel.poly, 2, 2, trials=5, seed=17), rel.describe()
    for rel in take_o(3, 1, 4):
        assert verify_randomized(rel.poly, 3, 1, trials=5, seed=17), rel.describe()


def test_gl_generators_vanish():
    rels = list(gl_relation_generators(2, 2, 4))
    assert any(len(r.words) == 2 for r in rels)
    for rel in rels:
        assert verify_randomized(rel.poly, 2, 2, trials=5, seed=23), rel.describe()


def test_verify_exact_accepts_and_rejects():
    # sigma_{(),(1),(1)}(x1, x2) vanishes identically for n = 1 only
    from sigmaring.sigmatr import sigma_partial_subst
    from sigmaring.words import Letter, LinComb, Word

    args = [LinComb.of(Word([Letter(1)])), LinComb.of(Word([Letter(2)]))]
    p = sigma_partial_subst((), (1,), (1,), args)
    assert verify_exact(p, 1, 2)
    assert not verify_exact(p, 2, 2)


def test_verify_exact_caps():
    p = next(iter(take_o(2, 1, 3, limit=1))).poly
    with pytest.raises(ValueError):
        verify_exact(p, 3, 2)
    with pytest.raises(ValueError):
        verify_exact(p, 2, 3)
    # a polynomial over the degree cap is refused before any image is built
    relations._generic_images.cache_clear()
    deep = next(r for r in take_o(2, 1, 5) if poly_degree(r.poly) == 5)
    with pytest.raises(ValueError, match="exact mode is capped at degree 4"):
        verify_exact(deep.poly, 2, 1)
    assert relations._generic_images.cache_info().currsize == 0


def test_verify_randomized_detects_nonzero():
    # t + 2r = n is sharp, so this must fail verification
    assert not verify_randomized(sigma_tr(0, 1), 2, 3, trials=10, seed=3)


def test_verify_randomized_rejects_no_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError):
            verify_randomized(sigma_tr(1, 1), 2, 3, trials=trials, seed=3)


def fresh_contexts_oracle(poly, n, d, trials, seed, field="Q"):
    """Per-relation loop: new matrices and a new EvalContext per trial."""
    for i in range(trials):
        mats = {k: random_matrix(n, seed + 1000 * i + k, field=field) for k in range(1, d + 1)}
        if EvalContext(mats).eval_poly(poly):
            return False
    return True


@pytest.mark.parametrize("field", ["Q", 10007])
def test_shared_contexts_match_fresh_contexts(field):
    rels = take_o(2, 2, 4)
    for rel in rels:
        got = verify_randomized(rel.poly, 2, 2, trials=3, seed=11, field=field)
        assert got == fresh_contexts_oracle(rel.poly, 2, 2, 3, 11, field), rel.describe()
    # at n = 3 the t + 2r = 3 shapes no longer vanish, so both verdicts occur
    verdicts = set()
    for rel in rels[::7]:
        got = verify_randomized(rel.poly, 3, 2, trials=3, seed=11, field=field)
        assert got == fresh_contexts_oracle(rel.poly, 3, 2, 3, 11, field), rel.describe()
        verdicts.add(got)
    assert verdicts == {True, False}
    # every relation of the largest randomized shape, at the CLI's 5 trials
    rels = take_o(3, 2, 4)
    assert len(rels) == 525
    for rel in rels:
        got = verify_randomized(rel.poly, 3, 2, trials=5, seed=11, field=field)
        assert got is fresh_contexts_oracle(rel.poly, 3, 2, 5, 11, field) is True, rel.describe()


@pytest.mark.parametrize("field", ["Q", 10007])
def test_every_trial_counts(field):
    """With v_i the trace of x1 at trial i, the product of tr[x1] - v_i over
    all trials but trial k vanishes at every trial but k, so a check that
    skipped trial k would pass it."""
    trials, seed = 5, 2
    x1 = Word([Letter(1)])
    tr = sigma_of_word(1, x1)
    vs = [random_matrix(2, seed + 1000 * i + 1, field=field).sigma(1) for i in range(trials)]
    assert len(set(vs)) == trials

    def product(skip):
        out = SigmaPoly.one()
        for i, v in enumerate(vs):
            if i != skip:
                out = out * (tr - SigmaPoly.scalar(v))
        return out

    for k in range(trials):
        assert not verify_randomized(product(k), 2, 1, trials, seed, field), k
    assert verify_randomized(product(None), 2, 1, trials, seed, field)


def test_verify_randomized_edge_cases():
    x1, x2 = Word([Letter(1)]), Word([Letter(2)])
    x1x2 = Word([Letter(1), Letter(2)])
    for field in ("Q", 7):
        assert verify_randomized(SigmaPoly.zero(), 2, 2, 3, 5, field)
        assert not verify_randomized(SigmaPoly.scalar(3), 2, 2, 3, 5, field)
        # s_t vanishes for t > n, alone and in a product
        beyond = SigmaPoly.from_gen(SigmaGen(3, x1x2))
        assert verify_randomized(beyond, 2, 2, 3, 5, field)
        assert verify_randomized(beyond * sigma_of_word(1, x1), 2, 2, 3, 5, field)
        assert not verify_randomized(beyond + SigmaPoly.one(), 2, 2, 3, 5, field)
    # tr(x1 x2) = tr(x1) tr(x2) holds for 1 x 1 matrices only, here with a
    # non-integral coefficient
    p = Fraction(1, 2) * (sigma_of_word(1, x1x2) - sigma_of_word(1, x1) * sigma_of_word(1, x2))
    assert any(type(c) is Fraction for c in p.monomials.values())
    for n in (1, 2):
        want = fresh_contexts_oracle(p, n, 2, 3, 5)
        assert want is (n == 1)
        assert verify_randomized(p, n, 2, 3, 5) is want
        assert verify_randomized(p, n, 2, 3, 5, 10007) is want
    # a letter with no trial matrix is refused, as by eval_poly, even in a
    # generator with t > n
    with pytest.raises(ValueError, match="no matrix for letter index 2"):
        verify_randomized(SigmaPoly.from_gen(SigmaGen(3, x1x2)), 2, 1, 3, 5)
    # so is a coefficient whose denominator vanishes mod p
    for p in (5, 7):
        poly = Fraction(1, p) * sigma_of_word(1, x1)
        message = f"^denominator of 1/{p} vanishes mod {p}$"
        with pytest.raises(ZeroDivisionError, match=message):
            verify_randomized(poly, 2, 1, 3, 5, p)
        with pytest.raises(ZeroDivisionError, match=message):
            fresh_contexts_oracle(poly, 2, 1, 3, 5, p)


def test_shared_contexts_do_not_cross_configurations():
    # sigma_tr(1, 1) vanishes at n = 2 but not at n = 3; sigma_tr(0, 1)
    # vanishes at n = 1 but not at n = 2.  Over F_5 at seed 2, each vanishes
    # by chance on the first trial at the size where it does not vanish
    # identically (n = 3, n = 2), so one trial and four disagree there.
    # More configurations than the memo holds, visited twice in
    # interleaved order.
    configs = [
        (sigma_tr(t, r), n, 3, trials, seed, field)
        for (t, r) in ((1, 1), (0, 1))
        for n in (1, 2, 3)
        for trials, seed in ((1, 2), (4, 2), (1, 8), (4, 8))
        for field in ("Q", 5)
    ]
    verdicts = [fresh_contexts_oracle(*c) for c in configs]
    assert set(verdicts) == {True, False}
    for _ in range(2):
        for c, want in zip(configs, verdicts):
            assert verify_randomized(*c) == want, c[1:]
        configs.reverse()
        verdicts.reverse()
    for n in (3, 2):
        assert verify_randomized(sigma_tr(1, 1), n, 3, trials=5, seed=3) == (n == 2)
    assert not verify_randomized(sigma_tr(0, 1), 2, 3, trials=10, seed=3)


def verdicts_of(p):
    return getattr(p, "_verdicts", None) or {}


def test_verdicts_are_kept_per_randomized_configuration():
    """One polynomial object, checked again after each change of one part
    of (n, d, trials, seed, field), gets the verdict of that configuration,
    not a kept one."""
    naming = Naming.generic(2)
    tr_x1 = parse_poly("tr[x1]", naming)
    v = [random_matrix(2, seed + 1, field="Q").sigma(1) for seed in (5, 1005, 6)]
    assert v[0] not in (v[1], v[2])
    # (base configuration, the changed one, verdict at each)
    cases = [
        # s2 vanishes on 1 x 1 matrices only
        (parse_poly("s2[x1]", naming), (1, 1, 3, 5, "Q"), (2, 1, 3, 5, "Q"), True, False),
        # tr[x1] - v0 vanishes at the first trial of seed 5 only
        (tr_x1 - SigmaPoly.scalar(v[0]), (2, 1, 1, 5, "Q"), (2, 1, 2, 5, "Q"), True, False),
        (tr_x1 - SigmaPoly.scalar(v[0]), (2, 1, 1, 5, "Q"), (2, 1, 1, 6, "Q"), True, False),
        # 3 tr[x1] vanishes over F_3 only
        (3 * tr_x1, (2, 1, 3, 5, 3), (2, 1, 3, 5, "Q"), True, False),
    ]
    for p, base, changed, want_base, want_changed in cases:
        for _ in range(2):
            assert verify_randomized(p, *base) is want_base, base
            assert verify_randomized(p, *changed) is want_changed, changed
        assert verdicts_of(p) == {base: want_base, changed: want_changed}
    # the field part is the field itself: "Q" and None, 7 and "7" are one
    p = parse_poly("s3[x1]", naming)
    assert verify_randomized(p, 2, 1, 2, 5, None) and verify_randomized(p, 2, 1, 2, 5, "7")
    assert verdicts_of(p) == {(2, 1, 2, 5, "Q"): True, (2, 1, 2, 5, 7): True}
    # d: a letter with no trial matrix at d = 1 is refused, not answered
    p = parse_poly("tr[x1 x2] - tr[x1]*tr[x2]", naming)
    assert verify_randomized(p, 1, 2, 3, 5)
    with pytest.raises(ValueError, match="no matrix for letter index 2"):
        verify_randomized(p, 1, 1, 3, 5)


@pytest.mark.parametrize("text", ["tr[x2]", "tr[x1 x2]", "tr[x1 x1' x2]"])
def test_missing_letter_refused_at_trace(text):
    """A polynomial of traces only, one of them of a letter with no
    matrix at d = 1, is refused by both verifications, as by eval_poly."""
    p = parse_poly(text, Naming.generic(2))
    assert all(g.t == 1 for mono in p.monomials for g in mono)
    for n in (1, 2):
        relations._trial_values.cache_clear()
        relations._generic_images.cache_clear()
        for check in (lambda: verify_randomized(p, n, 1, 2, 5), lambda: verify_exact(p, n, 1)):
            with pytest.raises(ValueError, match="no matrix for letter index 2"):
                check()
        ctx = EvalContext({1: random_matrix(n, 5)})
        with pytest.raises(ValueError, match="no matrix for letter index 2"):
            ctx.eval_poly(p)


def test_verdicts_are_kept_per_exact_configuration():
    naming = Naming.generic(2)
    p = parse_poly("s2[x1]", naming)
    for _ in range(2):
        assert verify_exact(p, 1, 1) and not verify_exact(p, 2, 1)
    assert verdicts_of(p) == {(1, 1): True, (2, 1): False}
    # d: x2 has no generic matrix at d = 1, refused as verify_randomized does
    p = parse_poly("tr[x1 x2] - tr[x1]*tr[x2]", naming)
    assert verify_exact(p, 1, 2)
    with pytest.raises(ValueError, match="no matrix for letter index 2"):
        verify_exact(p, 1, 1)


def test_negation_shares_the_verdicts(monkeypatch):
    """-p vanishes exactly where p does, so either one's verdict serves
    the other, and nothing is evaluated again."""
    fresh = [rel.poly for rel in take_o(2, 2, 4, limit=40)]

    def refuse(*args):
        raise AssertionError("a kept verdict was evaluated again")

    for i, p in enumerate(fresh):
        first, second = (p, -p) if i % 2 else (-p, p)
        assert verify_randomized(first, 2, 2, 3, 11) and verify_exact(first, 2, 2)
        assert second._verdicts is first._verdicts
    monkeypatch.setattr(relations, "_trial_values", refuse)
    monkeypatch.setattr(relations, "_vanishes_exactly", refuse)
    for p in fresh:
        for q in (p, -p, -(-p)):
            assert verify_randomized(q, 2, 2, 3, 11) and verify_exact(q, 2, 2)
    # an equal polynomial that is another object keeps its own verdicts
    q = SigmaPoly(fresh[0].monomials)
    with pytest.raises(AssertionError, match="evaluated again"):
        verify_randomized(q, 2, 2, 3, 11)


def test_kept_verdicts_do_not_skip_refusals(monkeypatch):
    naming = Naming.generic(2)
    p = parse_poly("tr[x1 x2] - tr[x1]*tr[x2]", naming)
    assert verify_randomized(p, 1, 2, 1, 5)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="need at least one trial"):
            verify_randomized(p, 1, 2, trials, 5)
    with pytest.raises(ValueError, match="no matrix for letter index 2"):
        verify_randomized(p, 1, 1, 1, 5)
    # verdicts taken under raised caps do not answer once the caps are back
    s2, s5 = parse_poly("s2[x1]", naming), parse_poly("s5[x1]", naming)
    monkeypatch.setattr(relations, "EXACT_MAX_N", 3)
    monkeypatch.setattr(relations, "EXACT_MAX_D", 3)
    monkeypatch.setattr(relations, "EXACT_MAX_DEGREE", 5)
    checks = [(s2, 3, 1, False), (s2, 1, 3, True), (s5, 1, 1, True)]
    for poly, n, d, want in checks:
        assert verify_exact(poly, n, d) is want
        assert (n, d) in poly._verdicts
    monkeypatch.undo()
    for poly, n, d, _ in checks:
        with pytest.raises(ValueError, match="exact mode is capped"):
            verify_exact(poly, n, d)


def test_copies_carry_no_verdicts():
    p = take_o(2, 2, 4, limit=1)[0].poly
    q = -p
    assert verify_randomized(p, 2, 2, 3, 11) and verify_exact(q, 2, 2)
    assert len(p._verdicts) == 2
    for original in (p, q):
        for copied in (copy.copy(original), pickle.loads(pickle.dumps(original))):
            assert copied == original and copied is not original
            assert getattr(copied, "_verdicts", None) is None
            assert getattr(-copied, "_verdicts") == {}


def _pm_mul(a, b, nv: int):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), MultiPoly.const(nv, 0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _pm_sigma(a, t: int, nv: int) -> MultiPoly:
    n = len(a)
    if t == 0:
        return MultiPoly.const(nv, 1)
    if t > n:
        return MultiPoly.const(nv, 0)
    total = MultiPoly.const(nv, 0)
    for rows in itertools.combinations(range(n), t):
        for perm in itertools.permutations(range(t)):
            sign = 1
            for i in range(t):
                for j in range(i + 1, t):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = MultiPoly.const(nv, sign)
            for i in range(t):
                prod = prod * a[rows[i]][rows[perm[i]]]
            total = total + prod
    return total


def generic_matrices(n: int, d: int) -> dict[int, list[list[MultiPoly]]]:
    """Letter index k -> the n x n matrix of variables e(k, i, j), numbered
    ((k - 1) * n + i) * n + j, over d * n * n variables."""
    nv = d * n * n
    return {
        k: [[MultiPoly.var(nv, ((k - 1) * n + i) * n + j) for j in range(n)] for i in range(n)]
        for k in range(1, d + 1)
    }


def fresh_exact_oracle(poly, n, d):
    """Per-call exact check: new generic matrices, word products and
    Leibniz sigma_t images for every polynomial, independent of the
    division-free kernel and of the shared image tables."""
    nv = d * n * n
    gm = generic_matrices(n, d)
    word_cache = {}

    def word_matrix(w):
        key = tuple(w)
        if key in word_cache:
            return word_cache[key]
        out = None
        for lt in w:
            m = gm[lt.index]
            if lt.transposed:
                m = [list(col) for col in zip(*m)]
            out = m if out is None else _pm_mul(out, m, nv)
        word_cache[key] = out
        return out

    sigma_cache = {}
    total = MultiPoly.const(nv, 0)
    for mono, coeff in poly.monomials.items():
        term = MultiPoly.const(nv, coeff)
        for g in mono:
            key = (g.t, tuple(g.cycle))
            if key not in sigma_cache:
                sigma_cache[key] = _pm_sigma(word_matrix(g.cycle), g.t, nv)
            term = term * sigma_cache[key]
        total = total + term
    return not total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generic_sigma_matches_leibniz(n):
    """The division-free kernel on generic word matrices, every t in
    0..n+1, against the Leibniz principal-minor expansion of the
    letter-by-letter product.  Words of up to 4 letters (2 at n = 3) come
    longest first, so each word matrix is built from prefixes not cached
    yet."""
    relations._generic_images.cache_clear()
    d = 2
    nv = d * n * n
    gm = generic_matrices(n, d)
    images = relations._generic_images(n, d)
    for w in enumerate_words(d, 4 if n < 3 else 2)[::-1]:
        prod = None
        for lt in w:
            m = gm[lt.index]
            if lt.transposed:
                m = [list(col) for col in zip(*m)]
            prod = m if prod is None else _pm_mul(prod, m, nv)
        for t in range(n + 2):
            got = images.sigma(t, w)
            assert got.terms == _pm_sigma(prod, t, nv).terms, (n, t, w)


@pytest.mark.parametrize("n, d, budget", [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4)])
def test_shared_exact_images_match_fresh_oracle(n, d, budget):
    rels = [r for r in take_o(n, d, budget) if poly_degree(r.poly) <= EXACT_MAX_DEGREE]
    for rel in rels:
        assert verify_exact(rel.poly, n, d), rel.describe()
        assert fresh_exact_oracle(rel.poly, n, d), rel.describe()
    if n == 1:
        # at n = 2 the t + 2r = 2 shapes no longer vanish: both verdicts
        verdicts = set()
        for rel in rels:
            got = verify_exact(rel.poly, 2, d)
            assert got == fresh_exact_oracle(rel.poly, 2, d), rel.describe()
            verdicts.add(got)
        assert verdicts == {True, False}


def test_shared_exact_images_do_not_cross_configurations():
    # n = 1 relations hold at n = 1 only, so both verdicts occur.  The
    # one-letter polynomials are checked at d = 1 and at d = 2, where the
    # same words have different variables; the order of d alternates between
    # polynomials, so the images of shared monomials are first built at
    # either d.
    relations._generic_images.cache_clear()
    polys = [(r.poly, 1) for r in take_o(1, 1, 3)[::3]]
    polys += [(r.poly, 2) for r in take_o(1, 2, 3)[::40]]
    configs = [
        (p, n, d)
        for k, (p, letters) in enumerate(polys)
        for n in (1, 2)
        for d in (range(2, letters - 1, -1) if k % 2 else range(letters, 3))
    ]
    verdicts = [fresh_exact_oracle(*c) for c in configs]
    assert set(verdicts) == {True, False}
    for _ in range(2):
        for c, want in zip(configs, verdicts):
            assert verify_exact(*c) == want, c[1:]
        configs.reverse()
        verdicts.reverse()
    # one table per (n, d) checked, with one id per exponent vector over its
    # n * n * d variables, numbered from 0; tables share no state
    assert relations._generic_images.cache_info().currsize == 4
    shapes = [(n, d) for n in (1, 2) for d in (1, 2)]
    tables = [relations._generic_images(n, d) for n, d in shapes]
    for table, (n, d) in zip(tables, shapes):
        assert table.nvars == n * n * d and table.ids
        for e in table.ids:
            unpack(e, table.nvars)  # no field beyond the table's variables
        assert sorted(table.ids.values()) == list(range(len(table.ids)))
    for state in ("words", "traces", "sigmas", "ids"):
        assert len({id(getattr(table, state)) for table in tables}) == 4


_oracle_images: dict = {}


def oracle_image(n, d, mono):
    """Terms of the generic image of a sigma-monomial, by exponent tuple."""
    key = (n, d, mono)
    if key not in _oracle_images:
        image = MultiPoly.const(d * n * n, 1)
        for g in mono:
            image = image * relations._generic_images(n, d).sigma(g.t, g.cycle)
        _oracle_images[key] = image.terms
    return _oracle_images[key]


def dict_sum_oracle(poly, n, d):
    """The exact check as a sum of coefficient times image, term by term,
    into a dict keyed by exponent tuple."""
    total = {}
    for mono, coeff in poly.monomials.items():
        for e, c in oracle_image(n, d, mono).items():
            total[e] = total.get(e, 0) + coeff * c
    return not any(total.values())


SWEEP_EXACT_SHAPES = [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4)]


def test_packed_check_matches_dict_sum():
    from fractions import Fraction

    from sigmaring.ring import SigmaGen, SigmaPoly
    from sigmaring.words import Letter, Word

    tr_x1 = (SigmaGen(1, Word([Letter(1)])),)
    rels = [
        rel
        for n, d, budget in SWEEP_EXACT_SHAPES
        for rel in take_o(n, d, budget)
        if poly_degree(rel.poly) <= EXACT_MAX_DEGREE
    ]
    assert len(rels) == 2149
    for rel in rels:
        n, d, p = rel.n, rel.d, rel.poly
        # a monomial of the relation with a nonzero image, else tr(x1)
        mono = next((m for m in p.monomials if oracle_image(n, d, m)), tr_x1)
        extra = SigmaPoly({mono: 1})
        cases = [
            (p, True),
            (p + extra, False),
            (Fraction(1, 2) * p, True),
            (p + Fraction(1, 3) * extra, False),
            ((1 << 80) * p, True),
        ]
        for q, want in cases:
            assert dict_sum_oracle(q, n, d) is want, rel.describe()
            assert verify_exact(q, n, d) is want, rel.describe()


def test_packed_check_is_not_fooled_by_packed_cancellation():
    # With P_a, P_b the packed images of monomials a and b, both polynomials
    # below pack to 0, and neither vanishes: the first has coefficients too
    # large for the field bound, the second a denominator to clear.
    from fractions import Fraction

    from sigmaring.ring import parse_poly

    naming = Naming.generic(2)
    a = parse_poly("tr[x1]*tr[x2]", naming)
    b = parse_poly("tr[x1 x2]", naming)
    (pa, _), (pb, _) = (relations._generic_images(2, 2)[m] for m in (*a.monomials, *b.monomials))
    if pa > pb:
        a, b, pa, pb = b, a, pb, pa
    assert 0 < pa < pb
    for q in (pb * a - pa * b, a - Fraction(pa, pb) * b):
        assert not dict_sum_oracle(q, 2, 2)
        assert not verify_exact(q, 2, 2)


def test_verify_exact_non_integral_coefficients():
    # every generated relation has integer coefficients; these do not
    from fractions import Fraction

    from sigmaring.ring import parse_poly

    naming = Naming.generic(2)
    rel = take_o(2, 2, 4, limit=1)[0]
    half = Fraction(1, 2) * rel.poly
    off = half + Fraction(1, 3) * parse_poly("tr[x1]", naming)
    # s_3 of a 2 x 2 matrix is 0, so each factor s3 empties its monomial
    beyond = parse_poly("1/2*s3[x1]*tr[x2] - 1/3*s3[x2]", naming)
    for poly, want in ((half, True), (off, False), (beyond, True), (beyond + off, False)):
        assert fresh_exact_oracle(poly, 2, 2) is want
        assert verify_exact(poly, 2, 2) is want


def test_poly_degree():
    assert poly_degree(sigma_tr(1, 1)) == 3
    assert poly_degree(sigma_tr(0, 0)) == 0


def unpack(e: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed exponent vector over nvars variables;
    no field beyond the last variable may be set."""
    bits = relations._EXP_BITS
    assert e >> (bits * nvars) == 0
    return tuple(e >> (bits * i) & ((1 << bits) - 1) for i in range(nvars))


def pack(e: tuple[int, ...]) -> int:
    return sum(k << (relations._EXP_BITS * i) for i, k in enumerate(e))


def unpacked(p: MultiPoly) -> dict[tuple[int, ...], object]:
    return {unpack(e, p.nvars): c for e, c in p.terms.items()}


def test_multipoly_ops():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    two = MultiPoly.const(2, 2)
    p = (x + y) * (x + -y)
    assert unpacked(p) == {(2, 0): 1, (0, 2): -1}
    assert not (p + -p)
    assert unpacked(two * x) == {(1, 0): 2}


def tuple_product(p, q):
    """The product of two term dicts keyed by exponent tuples."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("seed", range(8))
def test_packed_products_match_tuple_products(seed):
    """Random polynomials over up to 8 variables, products of up to three
    factors with exponents up to the field limit, against products keyed by
    exponent tuples; rational coefficients included."""
    from fractions import Fraction

    rng = random.Random(seed)
    top = (1 << relations._EXP_BITS) - 1
    for _ in range(20):
        nvars = rng.randint(1, 8)
        factors = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.randint(0, top // 3) for _ in range(nvars))
                terms[e] = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 2)])
            factors.append(terms)
        packed = [MultiPoly(nvars, {pack(e): c for e, c in f.items()}) for f in factors]
        want = factors[0]
        got = packed[0]
        for f, p in zip(factors[1:], packed[1:]):
            want = tuple_product(want, {e: c for e, c in f.items() if c})
            got = got * p
        want = {e: c for e, c in want.items() if c}
        assert unpacked(got) == want
        assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
        assert unpacked(got + -got) == {} and not (got + -got)


def test_generic_sigma_refuses_exponents_beyond_the_field():
    """Every exponent of sigma_t of a word w at size n is at most n * len(w),
    so a generator within the exact caps fits the field; a word that could
    overflow it is refused before anything is expanded."""
    from sigmaring.words import Letter, Word

    bits = relations._EXP_BITS
    assert relations.EXACT_MAX_N * EXACT_MAX_DEGREE < 1 << bits
    top = (1 << bits) - 1
    # at n = 1 the bound is sharp: sigma_1 of x^k is the monomial x^k
    tables = {n: relations._generic_images(n, 1) for n in (1, 2)}
    assert unpacked(tables[1].sigma(1, Word([Letter(1)] * top))) == {(top,): 1}
    state = ("words", "traces", "sigmas")
    memo = {n: [dict(getattr(table, k)) for k in state] for n, table in tables.items()}
    for n, length in ((1, top + 1), (2, (top + 1) // 2)):
        w = Word([Letter(1), Letter(1, True)] * (length // 2))
        for t in (1, 2):  # the trace is refused as the sigma_t list is
            with pytest.raises(ValueError, match=f"exponents up to {top + 1} overflow"):
                tables[n].sigma(t, w)
    assert {n: [getattr(table, k) for k in state] for n, table in tables.items()} == memo


def test_certificate_roundtrip(tmp_path):
    rel = next(iter(take_o(2, 2, 3, limit=1)))
    cert_r = certificate(rel, "randomized", True, trials=4, seed=5, field="Q")
    cert_e = certificate(rel, "exact", True)
    path = tmp_path / "certs.json"
    write_certificates([cert_r, cert_e], str(path))
    back = read_certificates(str(path))
    assert back == [cert_r, cert_e]
    for cert in back:
        rebuilt = rebuild_relation(cert)
        assert rebuilt.poly == rel.poly
        assert replay_certificate(cert)


def test_certificate_fp_replay():
    rel = next(iter(take_o(2, 1, 3, limit=1)))
    cert = certificate(rel, "randomized", True, trials=3, seed=9, field="fp:5")
    assert replay_certificate(json.loads(json.dumps(cert)))


def test_relations_remain_relations_in_fp():
    """Vanishing over Q forces vanishing mod p on integer matrices, and the
    generators are defined over Z, so the same instances verify mod 5."""
    for rel in take_o(2, 1, 3):
        assert verify_randomized(rel.poly, 2, 1, trials=3, seed=29, field=5)


def test_sharpness_at_boundary():
    """At t + 2r = n the sigma polynomial does not vanish: a witness
    assignment exists within a few seeds."""
    for n, (t, r) in [(2, (2, 0)), (2, (0, 1)), (3, (3, 0)), (3, (1, 1))]:
        poly = sigma_tr(t, r)
        witness = None
        for s in range(50):
            mats = {k: random_matrix(n, 4000 + 100 * s + k) for k in (1, 2, 3)}
            if EvalContext(mats).eval_poly(poly):
                witness = s
                break
        assert witness is not None, (n, t, r)
