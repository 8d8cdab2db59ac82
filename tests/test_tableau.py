import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from sigmaring import tableau
from sigmaring.matrices import EvalContext, ExactMatrix, _reduce, as_element, random_matrix
from sigmaring.ring import poly_text
from sigmaring.sigmatr import sigma_lin, sigma_tr
from sigmaring.tableau import (
    Arrow,
    Cell,
    Element,
    Tableau,
    _kind,
    _perm_sign,
    bpf,
    build_T,
    closed_path_reps,
    decompose,
    dp,
    path_sign_closed_form,
    path_sign_rules,
    path_word,
)
from sigmaring.words import Naming, Word, canonicalize, word_text

XYZ = Naming.xyz(1, 1, 1)


# The definition of bpf as a double sum over S_n x S_n, kept as the oracle
# for the Pfaffian in src/.


def _ordered(p: tuple[int, ...], rows: list[int]) -> bool:
    vals = [p[r - 1] for r in rows]
    return all(a < b for a, b in zip(vals, vals[1:]))


def _bpf_permutation_sum(T: Tableau, mats: dict[int, ExactMatrix], form: str, field):
    """bpf as the double sum over S_n x S_n; O((n!)^2 n) operations on raw
    values, converted to a field element once at the end."""
    n = T.n
    groups: dict[tuple[int, int], list[int]] = {}
    for a in T.arrows:
        groups.setdefault((a.label, a.tail[0]), []).append(a.tail[1])
    constraints = {1: [], 2: []}
    divisor = 1
    for (_, col), rows in groups.items():
        if len(rows) > 1:
            constraints[col].append(sorted(rows))
        for i in range(2, len(rows) + 1):
            divisor *= i

    # refuses a divisor that vanishes mod p before summing, whatever the total
    factor = _reduce(Fraction(1, divisor), field) if form == "Q" else 1
    restricted = form == "restricted"
    entries = {lab: m.rows for lab, m in mats.items()}
    total = 0
    perms = list(permutations(range(n)))
    signs = {p: _perm_sign(p) for p in perms}
    for p1 in perms:
        if restricted and not all(_ordered(p1, rows) for rows in constraints[1]):
            continue
        for p2 in perms:
            if restricted and not all(_ordered(p2, rows) for rows in constraints[2]):
                continue
            term = signs[p1] * signs[p2]
            pi = (None, p1, p2)
            for a in T.arrows:
                row = pi[a.tail[0]][a.tail[1] - 1]
                col = pi[a.head[0]][a.head[1] - 1]
                term *= entries[a.label][row][col]
                if not term:
                    break
            total += term
    return as_element(total * factor, field)


# Skew Gaussian elimination on Fractions, kept as the oracle for the
# modular Pfaffian in src/.


def _pfaffian_oracle(m: list[list]) -> Fraction:
    """Pf [[B, C], [-C^T, D]] = Pf(B) Pf(D + C^T B^-1 C) over Q with B the
    leading 2 x 2 block, whose entry a = m[0][1] is made nonzero by
    swapping an index into position 1 (each swap flips the sign)."""
    a = [[Fraction(v) for v in row] for row in m]
    pf = Fraction(1)
    while a:
        piv = next((j for j in range(1, len(a)) if a[0][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != 1:
            a[1], a[piv] = a[piv], a[1]
            for row in a:
                row[1], row[piv] = row[piv], row[1]
            pf = -pf
        pivot = a[0][1]
        pf *= pivot
        q0, q1 = a[0][2:], a[1][2:]
        a = [
            [v + (q1[i] * q0[j] - q0[i] * q1[j]) / pivot for j, v in enumerate(row[2:])]
            for i, row in enumerate(a[2:])
        ]
    return pf


# Two more sign computations, kept as oracles for the ones in src/.


def selection_sign_closed_form(T: Tableau, selection: list[tuple[int, Word]]) -> int:
    """(-1) ** (t + sum j * (deg_y + deg_z + 1)) with t the number of
    x-kind arrows and deg_y, deg_z counting untransposed letters."""
    t = sum(1 for a in T.arrows if T.kinds[a.label] == "x")
    e = t
    for j, word in selection:
        dy = sum(1 for lt in word if not lt.transposed and _kind(T, lt) == "y")
        dz = sum(1 for lt in word if not lt.transposed and _kind(T, lt) == "z")
        e += j * (dy + dz + 1)
    return (-1) ** e


def path_sign_definitional(T: Tableau, Ti: Tableau, path: list[Element]) -> int:
    """Sign of the column permutation that realigns the path with T.

    The path lives in Ti (T with permuted column-2 rows); tau ranges over
    permutations of the column-2 rows the path touches, fixing everything
    else, and must move every path element onto an element of T with the
    same label and transpose status in exactly the same cells.  All valid
    tau share one parity, which is returned.
    """
    rows = sorted(
        {
            r
            for e in path
            for (c, r) in (Ti.tail_of(e), Ti.head_of(e))
            if c == 2
        }
    )
    targets = set()
    for a in T.arrows:
        targets.add((a.label, False, a.tail, a.head))
        targets.add((a.label, True, a.head, a.tail))

    signs = set()
    for image in permutations(rows):
        tau = dict(zip(rows, image))

        def move(cell: Cell) -> Cell:
            c, r = cell
            return (c, tau[r]) if c == 2 else cell

        if all(
            (
                Ti.arrows[e.arrow].label,
                e.transposed,
                move(Ti.tail_of(e)),
                move(Ti.head_of(e)),
            )
            in targets
            for e in path
        ):
            inv = sum(
                1
                for i in range(len(rows))
                for j in range(i + 1, len(rows))
                if tau[rows[i]] > tau[rows[j]]
            )
            signs.add(-1 if inv % 2 else 1)
    if len(signs) != 1:
        raise ValueError(f"realigning permutations give signs {sorted(signs)}")
    return signs.pop()


def test_build_shapes():
    T = build_T(2, 1)
    assert T.n == 4
    assert [a.label for a in T.arrows] == [1, 1, 2, 3]
    Tm = build_T(2, 1, multilinear=True)
    assert [a.label for a in Tm.arrows] == [1, 2, 3, 4]
    assert Tm.kinds == {1: "x", 2: "x", 3: "y", 4: "z"}


def test_cell_validation():
    with pytest.raises(ValueError):
        Tableau([Arrow(1, (1, 1), (1, 1))])  # duplicate cell
    with pytest.raises(ValueError):
        Tableau([Arrow(1, (1, 1), (2, 2))])  # leaves cells empty
    with pytest.raises(ValueError):
        Tableau([Arrow(0, (1, 1), (2, 1))])


def test_apply_tau_moves_only_second_column():
    T = build_T(0, 1)
    Ti = T.apply_tau((2, 1))
    assert Ti.arrows[0] == T.arrows[0]  # the column-1 arrow is untouched
    assert Ti.arrows[1] == Arrow(3, (2, 2), (2, 1))
    with pytest.raises(ValueError):
        T.apply_tau((1, 1))


def trace(m: ExactMatrix):
    """Sum of the diagonal as a returned field value."""
    return as_element(sum(m.rows[i][i] for i in range(m.n)), m.field)


def test_bpf_trace_and_det():
    a = random_matrix(1, 3)
    assert bpf(build_T(1, 0), {1: a}) == trace(a)
    for n in (2, 3):
        a = random_matrix(n, 3 + n)
        assert bpf(build_T(n, 0), {1: a}) == a.det()


@pytest.mark.parametrize("t,r", [(2, 0), (0, 1), (1, 1), (0, 2), (2, 1)])
def test_bpf_forms_agree(t, r):
    n = t + 2 * r
    mats = {k: random_matrix(n, 40 + k) for k in (1, 2, 3)}
    T = build_T(t, r)
    assert bpf(T, mats) == bpf(T, mats, form="Q")
    with pytest.raises(ValueError):
        bpf(T, mats, form="nope")


def test_bpf_validation():
    T = build_T(1, 1)
    with pytest.raises(ValueError):
        bpf(T, {1: random_matrix(3, 1)})  # labels 2, 3 missing
    with pytest.raises(ValueError):
        bpf(T, {k: random_matrix(2, k) for k in (1, 2, 3)})  # wrong size
    for fields in (("Q", 5, 5), (5, 7, 5)):
        with pytest.raises(ValueError):
            bpf(T, {k: random_matrix(3, k, field=f) for k, f in zip((1, 2, 3), fields)})


def seeded_mats(n, seed, field):
    """Matrices for labels 1, 2, 3; over Q with non-integral entries (the
    label-k matrix is scaled by 1/(k+1)), over F_p with the same integers."""
    if field == "Q":
        return {k: random_matrix(n, seed + k).scale(Fraction(1, k + 1)) for k in (1, 2, 3)}
    return {k: random_matrix(n, seed + k, field=field) for k in (1, 2, 3)}


SMALL_SHAPES = [(n - 2 * r, r) for n in range(6) for r in range(n // 2 + 1)]


@pytest.mark.parametrize("field", ["Q", 3, 5, 7])
@pytest.mark.parametrize("t,r", SMALL_SHAPES)
def test_bpf_pfaffian_matches_permutation_sum(t, r, field):
    T = build_T(t, r)
    for seed in (110, 120):
        mats = seeded_mats(T.n, seed, field)
        want = _bpf_permutation_sum(T, mats, "restricted", field)
        got = bpf(T, mats)
        assert got == want and type(got) is type(want) is type(as_element(0, field))


def test_bpf_pfaffian_matches_permutation_sum_n6():
    T = build_T(2, 2)
    mats = seeded_mats(6, 130, "Q")
    assert bpf(T, mats) == _bpf_permutation_sum(T, mats, "restricted", "Q")


@pytest.mark.parametrize("t,r,field", [(3, 2, "Q"), (1, 3, 5)])
def test_bpf_pfaffian_matches_sigma_tr_n7(t, r, field):
    mats = seeded_mats(7, 140, field)
    want = EvalContext(mats).eval_poly(sigma_tr(t, r))
    got = bpf(build_T(t, r), mats)
    assert got == want and type(got) is type(want)


def _must_not_run(*args):
    raise AssertionError("bpf took the wrong path")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bpf_form_q_refuses_vanishing_factorial(monkeypatch, p):
    """1/p! has no value mod p: the "Q" form refuses before any Pfaffian,
    so it never cancels the divisor against the value."""
    monkeypatch.setattr(tableau, "_pfaffian", _must_not_run)
    message = f"^denominator of 1/{factorial(p)} vanishes mod {p}$"
    with pytest.raises(ZeroDivisionError, match=message):
        bpf(build_T(p, 0), {1: random_matrix(p, 180, field=p)}, form="Q")


def counting_pfaffians(monkeypatch):
    calls = []
    pfaffian = tableau._pfaffian

    def counted(m):
        calls.append(len(m))
        return pfaffian(m)

    monkeypatch.setattr(tableau, "_pfaffian", counted)
    return calls


def test_bpf_routes_T_to_pfaffian(monkeypatch):
    """T(t, r), its tau-images and every form interpolate in one weight
    from n // 2 + 1 Pfaffians, T(t, 0) takes one, and a multilinear
    tableau 2^n."""
    T = build_T(2, 1)
    mats = seeded_mats(4, 150, 7)
    Tm = build_T(2, 1, multilinear=True)
    mats_m = {k: random_matrix(4, 150 + k, field=7) for k in Tm.labels()}
    calls = counting_pfaffians(monkeypatch)
    for form in ("restricted", "full", "Q"):
        for Ti in (T, T.apply_tau((4, 3, 1, 2))):
            calls.clear()
            assert bpf(Ti, mats, form=form) == _bpf_permutation_sum(Ti, mats, form, 7)
            assert calls == [8] * 3
    calls.clear()
    assert bpf(Tm, mats_m) == _bpf_permutation_sum(Tm, mats_m, "restricted", 7)
    assert calls == [8] * 2**4
    calls.clear()
    a = random_matrix(3, 150, field=7)
    assert bpf(build_T(3, 0), {1: a}) == a.det() and calls == [6]
    calls.clear()
    assert bpf(build_T(0, 0), {}) == 1 and calls == [0]


def skew(size: int, entry) -> list[list]:
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = entry()
            m[j][i] = -m[i][j]
    return m


P61 = 2**61 - 1


def test_pfaffian_matches_fraction_oracle():
    """Seeded skew matrices of even size 0-16: small and 10^12-sized ints,
    Fractions, mostly-zero (often singular) matrices and raw values mod
    2^61 - 1; one odd size, whose Pfaffian is 0."""
    rng = random.Random("pfaffian")
    entries = [
        lambda: rng.randint(-9, 9),
        lambda: rng.randint(-(10**12), 10**12),
        lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
        lambda: rng.choice([0, 0, 0, rng.randint(-3, 3)]),
        lambda: rng.randrange(P61),
    ]
    seen = set()
    for size in range(0, 17, 2):
        for entry in entries:
            for _ in range(3):
                m = skew(size, entry)
                want = _pfaffian_oracle(m)
                assert tableau._pfaffian(m) == want, (size, m)
                seen.add(want == 0)
    assert seen == {True, False}
    m = skew(5, lambda: rng.randint(-9, 9))
    assert tableau._pfaffian(m) == _pfaffian_oracle(m) == 0


def test_pfaffian_beyond_one_prime(monkeypatch):
    """|Pf| = 2^80 exceeds every prime below 2^62: the residues of more
    than one prime are combined, with the sign kept."""
    primes = []
    pfaffian_mod = tableau._pfaffian_mod

    def counted(m, p):
        primes.append(p)
        return pfaffian_mod(m, p)

    monkeypatch.setattr(tableau, "_pfaffian_mod", counted)
    big = 2**40
    m = [[0, big, 0, 0], [-big, 0, 0, 0], [0, 0, 0, big], [0, 0, -big, 0]]
    assert tableau._pfaffian(m) == _pfaffian_oracle(m) == 2**80
    assert len(primes) > 1 and all(p < 2**62 for p in primes)
    m[0][1], m[1][0] = -big, big
    assert tableau._pfaffian(m) == -(2**80)
    m[0][1], m[1][0] = Fraction(-big, 3), Fraction(big, 3)
    assert tableau._pfaffian(m) == _pfaffian_oracle(m) == Fraction(-(2**80), 3)


def test_pfaffian_of_ci_large_prime_bpf(monkeypatch):
    """The Pfaffians that `bpf -t 1 -r 1 --field fp:2305843009213693951`
    builds from the raw values mod 2^61 - 1 equal the oracle's."""
    T = build_T(1, 1)
    mats = {k: random_matrix(3, k, field=P61) for k in T.labels()}
    seen = []
    pfaffian = tableau._pfaffian

    def compared(m):
        seen.append(m)
        got = pfaffian(m)
        assert got == _pfaffian_oracle(m)
        return got

    monkeypatch.setattr(tableau, "_pfaffian", compared)
    assert bpf(T, mats) == _bpf_permutation_sum(T, mats, "restricted", P61)
    assert len(seen) == 2 and max(abs(v) for m in seen for row in m for v in row) > 2**60


def test_bpf_beyond_n6_matches_sigma():
    """At n = 7 the multilinear T(1, 3) equals sigma_lin(1, 3), the full
    form of T(1, 3) is 1! 3! 3! sigma_tr(1, 3), and a tau-image is
    sign(tau) sigma_tr(1, 3); no permutation sum is needed to check them."""
    Tm = build_T(1, 3, multilinear=True)
    mats_m = {k: random_matrix(7, 170 + k) for k in Tm.labels()}
    assert bpf(Tm, mats_m) == EvalContext(mats_m).eval_poly(sigma_lin(1, 3))
    T = build_T(1, 3)
    mats = seeded_mats(7, 170, "Q")
    want = EvalContext(mats).eval_poly(sigma_tr(1, 3))
    assert bpf(T, mats, form="full") == 36 * want
    assert bpf(T, mats, form="Q") == want
    assert bpf(T.apply_tau((2, 1, 3, 4, 5, 6, 7)), mats) == -want
    with pytest.raises(ValueError, match="^total degree 11 exceeds guard 10$"):
        bpf(build_T(1, 5, multilinear=True), {k: random_matrix(11, k) for k in range(1, 12)})


@pytest.mark.parametrize("field", ["Q", 7])
def test_bpf_other_tableaux_match_permutation_sum(field):
    T = build_T(2, 1)
    mats = seeded_mats(4, 160, field)
    Tm = build_T(2, 1, multilinear=True)
    mats_m = {k: random_matrix(4, 160 + k, field=field) for k in Tm.labels()}
    taus = list(permutations(range(1, 5)))
    for Ti in [T.apply_tau(tau) for tau in taus] + [Tm.apply_tau(tau) for tau in taus]:
        m = mats if Ti.labels() == {1, 2, 3} else mats_m
        for form in ("restricted", "full", "Q"):
            assert bpf(Ti, m, form=form) == _bpf_permutation_sum(Ti, m, form, field)
    assert any(bpf(T.apply_tau(tau), mats) != bpf(T, mats) for tau in taus)


def random_tableau(rng: random.Random, n: int) -> Tableau:
    cells = [(c, r) for c in (1, 2) for r in range(1, n + 1)]
    rng.shuffle(cells)
    labels = rng.randint(1, 3)
    return Tableau(
        [Arrow(rng.randint(1, labels), cells[2 * i], cells[2 * i + 1]) for i in range(n)]
    )


def mixed_heads(T: Tableau) -> bool:
    heads: dict[tuple[int, int], set[int]] = {}
    for a in T.arrows:
        heads.setdefault((a.label, a.tail[0]), set()).add(a.head[0])
    return any(len(cols) > 1 for cols in heads.values())


@pytest.mark.parametrize("field", ["Q", 3, 5, 7])
def test_bpf_random_tableaux_match_permutation_sum(field):
    """Seeded random tableaux with n <= 4 and up to three labels, every
    form; a tableau whose arrows of one label and tail column end in both
    columns is refused."""
    rng = random.Random(f"bpf-{field}")
    checked = refused = 0
    for _ in range(40):
        T = random_tableau(rng, rng.randint(1, 4))
        mats = {k: random_matrix(T.n, rng.randrange(1000), field=field) for k in (1, 2, 3)}
        if mixed_heads(T):
            with pytest.raises(ValueError, match="into both columns"):
                bpf(T, mats)
            refused += 1
            continue
        for form in ("restricted", "full", "Q"):
            try:
                want = _bpf_permutation_sum(T, mats, form, field)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    bpf(T, mats, form=form)
                continue
            assert bpf(T, mats, form=form) == want
            checked += 1
    assert checked >= 50 and refused > 0


def test_closed_paths_of_fragment():
    """A horizontal arrow in row 1 plus two crossing verticals: the closed
    paths are the single arrow and the pair (second, transposed third)."""
    frag = Tableau(
        [Arrow(1, (1, 1), (2, 1)), Arrow(2, (1, 3), (2, 2)), Arrow(3, (2, 3), (1, 2))]
    )
    reps = closed_path_reps(frag)
    assert sorted(len(p) for p in reps) == [1, 2]
    texts = {
        word_text(canonicalize(path_word(frag, p))[0], Naming.generic(3))
        for p in reps
    }
    assert texts == {"[x1]", "[x2 x3']"}


def test_closed_paths_lengths_sum():
    T = build_T(1, 1)
    for tau in permutations(range(1, 4)):
        reps = closed_path_reps(T.apply_tau(tau))
        assert sum(len(p) for p in reps) == 3


def test_dp_equals_sigma():
    for n, r in [(2, 1), (3, 1), (4, 1), (4, 2)]:
        x = random_matrix(n, 60)
        y = random_matrix(n, 61)
        z = random_matrix(n, 62)
        want = EvalContext({1: x, 2: y, 3: z}).eval_poly(sigma_tr(n - 2 * r, r))
        assert dp(r, x, y, z) == want
    with pytest.raises(ValueError):
        dp(2, random_matrix(3, 1), random_matrix(3, 2), random_matrix(3, 3))


@pytest.mark.parametrize("t,r", [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2)])
def test_decompose_equals_sigma_tr(t, r):
    assert decompose(build_T(t, r)) == sigma_tr(t, r)


def test_decompose_multilinear():
    assert decompose(build_T(1, 1, multilinear=True)) == sigma_lin(1, 1)


def test_decompose_guard():
    with pytest.raises(ValueError):
        decompose(build_T(7, 0))


def test_definitional_sign_worked_example():
    """The 2-row tableau with one y and one z arrow: under the identity the
    single path reads y z' and realigns trivially (+1); under the swap it
    reads y z and needs the transposition (-1)."""
    T = build_T(0, 1)

    Ti = T.apply_tau((1, 2))
    (path,) = closed_path_reps(Ti)
    assert word_text(path_word(Ti, path), XYZ) == "[y z']"
    assert path_sign_definitional(T, Ti, path) == 1

    Ts = T.apply_tau((2, 1))
    (path,) = closed_path_reps(Ts)
    assert word_text(path_word(Ts, path), XYZ) == "[y z]"
    assert path_sign_definitional(T, Ts, path) == -1


@pytest.mark.parametrize("t,r", [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2)])
def test_sign_computations_agree(t, r):
    """Literal sign(xi), the per-selection closed form, the per-path closed
    form, the rewriting rules and the definitional search all coincide."""
    T = build_T(t, r)
    hits = 0
    for xi in permutations(range(1, T.n + 1)):
        Ti = T.apply_tau(xi)
        paths = closed_path_reps(Ti)
        selection = []
        ok = True
        for p in paths:
            root, power = canonicalize(path_word(Ti, p))
            if power != 1:
                ok = False
                break
            selection.append((1, root))
        if not ok:
            continue
        hits += 1
        literal = _perm_sign(xi)
        assert selection_sign_closed_form(T, selection) == literal
        prod = 1
        for p in paths:
            w = path_word(Ti, p)
            s = path_sign_rules(T, w)
            assert s == path_sign_closed_form(T, w)
            assert s == path_sign_definitional(T, Ti, p)
            prod *= s
        assert prod == literal
    assert hits > 0


def test_rules_base_cases():
    T = build_T(3, 1)  # kinds x, y, z with room for longer words
    from sigmaring.words import Letter, Word

    x, y, z = Letter(1), Letter(2), Letter(3)
    xp, yp, zp = x.T, y.T, z.T
    assert path_sign_rules(T, Word([x])) == 1
    assert path_sign_rules(T, Word([x, x])) == -1
    assert path_sign_rules(T, Word([xp, xp, xp])) == 1
    assert path_sign_rules(T, Word([y, z])) == -1
    assert path_sign_rules(T, Word([y, zp])) == 1
    assert path_sign_rules(T, Word([yp, zp])) == -1
    assert path_sign_rules(T, Word([x, y, z])) == 1
    assert path_sign_rules(T, Word([x, y, zp])) == -1
    # four-letter alternating words exercise the drop table
    assert path_sign_rules(T, Word([y, z, y, z])) == path_sign_closed_form(
        T, Word([y, z, y, z])
    )
    assert path_sign_rules(T, Word([y, zp, yp, z])) == path_sign_closed_form(
        T, Word([y, zp, yp, z])
    )
