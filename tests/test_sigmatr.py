import math
from fractions import Fraction

import pytest

from sigmaring.ring import SigmaPoly, poly_text, sigma_of_word, substitute
from sigmaring.sigmatr import (
    sigma_lin,
    sigma_partial,
    sigma_partial_subst,
    sigma_tr,
)
from sigmaring.words import Letter, LinComb, Naming, Word

XYZ = Naming.xyz(1, 1, 1)


def test_base_cases():
    assert sigma_tr(0, 0) == SigmaPoly.one()
    for t in range(1, 6):
        assert sigma_tr(t, 0) == sigma_of_word(t, Word([Letter(1)]))


def test_frozen_strings():
    assert poly_text(sigma_tr(0, 1), XYZ) == "-tr[y z] + tr[y z']"
    assert poly_text(sigma_tr(1, 1), XYZ) == (
        "-tr[x]*tr[y z] + tr[x]*tr[y z'] + tr[x y z] - tr[x y z'] "
        "- tr[x y' z] + tr[x y' z']"
    )


def test_all_coefficients_unit():
    for t, r in [(1, 1), (2, 1), (0, 2), (3, 1)]:
        assert all(abs(c) == 1 for c in sigma_tr(t, r).monomials.values())


def test_balance_checked():
    with pytest.raises(ValueError):
        sigma_partial((1,), (1,), (2,))
    with pytest.raises(ValueError):
        sigma_partial((1,), (1, 1), ())


def test_degree_guard():
    with pytest.raises(ValueError, match="^total degree 11 exceeds guard 10$"):
        sigma_tr(5, 3)
    with pytest.raises(ValueError, match="^total degree 12 exceeds guard 10$"):
        sigma_partial((6,), (3,), (3,))
    with pytest.raises(ValueError, match="^total degree 11 exceeds guard 10$"):
        sigma_lin(11, 0)


def test_multilinear_generators_are_traces():
    p = sigma_lin(2, 1)
    assert p
    for mono in p.monomials:
        assert all(g.t == 1 for g in mono)


def test_sigma_lin_letter_count():
    # u + v + v letters, each of multidegree one in every monomial
    p = sigma_lin(1, 2)
    for mono in p.monomials:
        md = p.mdeg_of(mono)
        assert md == {i: 1 for i in range(1, 6)}


@pytest.mark.parametrize(
    "ts, rs, ss, letters",
    [((1,), (1, 1, 1), (1, 1, 1), 7), ((1, 1, 1, 1), (1, 1), (1, 1), 8)],
)
def test_multilinear_monomial_count(ts, rs, ss, letters):
    # a multilinear target of N letters has N! index sets, as many as the
    # permutations of its letters, and each gives its own unit monomial;
    # the degree-8 case is sigma_lin(4, 2)
    p = sigma_partial(ts, rs, ss)
    assert len(p.monomials) == math.factorial(letters)
    assert all(abs(c) == 1 for c in p.monomials.values())


def test_subst_identity_args():
    x = LinComb.of(Word([Letter(1)]))
    y = LinComb.of(Word([Letter(2)]))
    z = LinComb.of(Word([Letter(3)]))
    assert substitute(sigma_tr(1, 1), {1: x, 2: y, 3: z}) == sigma_tr(1, 1)


def test_subst_arity_check():
    with pytest.raises(ValueError):
        sigma_partial_subst((1,), (), (), [])


def test_merge_matches_scaled_sigma():
    """Identifying all block letters recovers t!(r!)^2 sigma_{t,r}."""
    for t, r in [(1, 1), (2, 1), (0, 2)]:
        lin = sigma_lin(t, r)
        assign = {}
        for i in range(1, t + 1):
            assign[i] = LinComb.of(Word([Letter(1)]))
        for j in range(1, r + 1):
            assign[t + j] = LinComb.of(Word([Letter(2)]))
        for k in range(1, r + 1):
            assign[t + r + k] = LinComb.of(Word([Letter(3)]))
        scale = Fraction(math.factorial(t) * math.factorial(r) ** 2)
        assert substitute(lin, assign) == scale * sigma_tr(t, r)


def test_partial_between_full_and_multilinear():
    # sigma_{(2),(1),(1)} merged from sigma_{(1,1),(1),(1)} by identifying x-block
    part = sigma_partial((1, 1), (1,), (1,))
    assign = {
        1: LinComb.of(Word([Letter(1)])),
        2: LinComb.of(Word([Letter(1)])),
        3: LinComb.of(Word([Letter(2)])),
        4: LinComb.of(Word([Letter(3)])),
    }
    assert substitute(part, assign) == Fraction(2) * sigma_tr(2, 1)


def test_cache_returns_same_object():
    assert sigma_tr(1, 1) is sigma_tr(1, 1)
