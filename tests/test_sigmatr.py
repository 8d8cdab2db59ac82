import hashlib
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


def balanced_shapes(max_degree):
    """Every (ts, rs, ss) with nonnegative parts, at most two per block,
    sum(rs) == sum(ss) and total degree at most max_degree."""

    def blocks(total):
        yield ()
        for a in range(total + 1):
            yield (a,)
            for b in range(total - a + 1):
                yield (a, b)

    for ts in blocks(max_degree):
        for rs in blocks(max_degree - sum(ts)):
            for ss in blocks(max_degree - sum(ts) - sum(rs)):
                if sum(rs) == sum(ss):
                    yield ts, rs, ss


def test_monomial_count_is_multinomial():
    # sigma_{tbar, rbar, sbar} has N! / prod k! monomials over the parts k
    # of its shape, N their sum: a count independent of the index-set
    # recursion, which a reused cycle or a class counted twice (a word and
    # its transpose) breaks
    shapes = list(balanced_shapes(7))
    assert len(shapes) == 1047
    for ts, rs, ss in shapes:
        parts = ts + rs + ss
        want = math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))
        assert len(sigma_partial(ts, rs, ss).monomials) == want, (ts, rs, ss)


# sha256 of poly_text: any change of the printed text, such as another
# monomial order or factor spelling, shows here
PINNED = [
    (
        lambda: sigma_tr(4, 3),
        XYZ,
        "38adc9bcc298aa841d1915eaa472b090e618d4835be17c4ee397f7501ee09914",
    ),
    (
        lambda: sigma_tr(3, 3),
        XYZ,
        "fa16ac55eaf77795c260a2756e6b215787863ed3d5c4e2e25d65d0e7a56d1da6",
    ),
    (
        lambda: sigma_tr(2, 4),
        XYZ,
        "8c8faedd4bc250b4704b1dfecd13688cfcbce77b1695d52f23c91fa63541d2bd",
    ),
    (
        lambda: sigma_tr(0, 5),
        XYZ,
        "3a441149ffbc0597420ebfca3e0daf11384953b605ffc92a9d030d5f12b52269",
    ),
    (
        lambda: sigma_lin(1, 3),
        Naming.xyz(1, 3, 3),
        "c7983d500da8a56288c2b765076436f2efd6ded0e6ef0d360d2ea9977c8e0269",
    ),
    (
        lambda: sigma_lin(4, 2),
        Naming.xyz(4, 2, 2),
        "9172d2a53348f6d882209be002b35794c3ca29dcc3efc3bcca96a67d3717410a",
    ),
]


@pytest.mark.parametrize("make, naming, digest", PINNED)
def test_poly_text_digest_pinned(make, naming, digest):
    text = poly_text(make(), naming)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def compositions(total):
    """Every tuple of positive parts with sum total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def yz_shapes(max_degree):
    """Every balanced (ts, rs, ss) with positive parts, a y or z part, and
    total degree at most max_degree."""
    for r in range(1, max_degree // 2 + 1):
        for t in range(max_degree - 2 * r + 1):
            for ts in compositions(t):
                for rs in compositions(r):
                    for ss in compositions(r):
                        yield ts, rs, ss


@pytest.mark.parametrize("ts, rs, ss", list(yz_shapes(6)))
def test_transpose_and_swap_symmetries(ts, rs, ss):
    """sigma_{tbar,rbar,sbar} signs an index set by its untransposed y and z
    letters, so y_j -> y_j^T multiplies it by (-1)^(r_j), and z_k -> z_k^T
    by (-1)^(s_k); letters of equal degree in one block commute.  These are
    the symmetries by which o_relation_generators shares one polynomial
    across a transpose orbit."""
    base = sigma_partial(ts, rs, ss)
    degrees = ts + rs + ss
    ident = {i: LinComb.of(Word([Letter(i)])) for i in range(1, len(degrees) + 1)}
    for i in range(len(ts) + 1, len(degrees) + 1):
        flipped = substitute(base, {**ident, i: LinComb.of(Word([Letter(i, True)]))})
        assert flipped == (-1) ** degrees[i - 1] * base, (ts, rs, ss, i)
    start = 1
    for block in (ts, rs, ss):
        for a in range(start, start + len(block)):
            for b in range(a + 1, start + len(block)):
                if degrees[a - 1] == degrees[b - 1]:
                    swapped = substitute(base, {**ident, a: ident[b], b: ident[a]})
                    assert swapped == base, (ts, rs, ss, a, b)
        start += len(block)


@pytest.mark.parametrize("ts, rs, ss", list(yz_shapes(6)))
def test_x_transpose_and_yz_swap_symmetry(ts, rs, ss):
    """x_i -> x_i^T, y_j -> z_j, z_k -> y_k takes sigma_{tbar,rbar,sbar}
    to sigma_{tbar,sbar,rbar} exactly, with no sign: the map swaps the two
    vertices of the quiver and keeps every sign exponent.  So the relations
    (X, Y, Z) and (X^T, Z, Y) share one polynomial in
    o_relation_generators."""
    u, v, w = len(ts), len(rs), len(ss)
    image = {i: LinComb.of(Word([Letter(i, True)])) for i in range(1, u + 1)}
    # y_j is letter u + j, and z_j of sigma_{tbar,sbar,rbar} is u + w + j
    image.update({u + j: LinComb.of(Word([Letter(u + w + j)])) for j in range(1, v + 1)})
    image.update({u + v + k: LinComb.of(Word([Letter(u + k)])) for k in range(1, w + 1)})
    swapped = substitute(sigma_partial(ts, rs, ss), image)
    want = sigma_partial(ts, ss, rs)
    assert {m: (c, type(c)) for m, c in swapped.monomials.items()} == {
        m: (c, type(c)) for m, c in want.monomials.items()
    }, (ts, rs, ss)
