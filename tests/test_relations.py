import itertools
import json

import pytest

from sigmaring.matrices import EvalContext, random_matrix
from sigmaring.relations import (
    MultiPoly,
    Relation,
    certificate,
    enumerate_words,
    gl_relation_generators,
    o_relation_generators,
    poly_degree,
    read_certificates,
    rebuild_relation,
    replay_certificate,
    verify_exact,
    verify_randomized,
    write_certificates,
)
from sigmaring.sigmatr import sigma_tr


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
    deep = next(r for r in take_o(2, 1, 5) if poly_degree(r.poly) == 5)
    with pytest.raises(ValueError):
        verify_exact(deep.poly, 2, 1)


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


def test_poly_degree():
    assert poly_degree(sigma_tr(1, 1)) == 3
    assert poly_degree(sigma_tr(0, 0)) == 0


def test_multipoly_ops():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    two = MultiPoly.const(2, 2)
    p = (x + y) * (x + y.scale(-1))
    assert p.terms == {(2, 0): 1, (0, 2): -1}
    assert not (p + p.scale(-1))
    assert (two * x).terms == {(1, 0): 2}


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
