from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from sigmaring import tableau
from sigmaring.matrices import EvalContext, ExactMatrix, as_element, random_matrix
from sigmaring.ring import poly_text
from sigmaring.sigmatr import sigma_lin, sigma_tr
from sigmaring.tableau import (
    Arrow,
    Cell,
    Element,
    Tableau,
    _bpf_permutation_sum,
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
    """Sum of the diagonal as Fraction/Fp objects."""
    return sum((as_element(m.rows[i][i], m.field) for i in range(m.n)), as_element(0, m.field))


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
    """1/p! has no value mod p: the "Q" form refuses before summing, so it
    never cancels the divisor against the total."""
    monkeypatch.setattr(tableau, "permutations", _must_not_run)
    message = f"^denominator of 1/{factorial(p)} vanishes mod {p}$"
    with pytest.raises(ZeroDivisionError, match=message):
        bpf(build_T(p, 0), {1: random_matrix(p, 180, field=p)}, form="Q", allow_large=True)


def test_bpf_routes_T_to_pfaffian(monkeypatch):
    T = build_T(2, 1)
    mats = seeded_mats(4, 150, 7)
    want = _bpf_permutation_sum(T, mats, "restricted", 7)
    monkeypatch.setattr(tableau, "_bpf_permutation_sum", _must_not_run)
    assert bpf(T, mats) == want
    assert bpf(build_T(0, 0), {}) == 1


def test_bpf_permutation_sum_guarded_beyond_n6(monkeypatch):
    T = build_T(1, 3)
    mats = seeded_mats(7, 170, "Q")
    Tm = build_T(1, 3, multilinear=True)
    mats_m = {k: random_matrix(7, 170 + k) for k in Tm.labels()}
    image = T.apply_tau((2, 1, 3, 4, 5, 6, 7))
    calls = [
        (Tm, mats_m, "restricted"),
        (image, mats, "restricted"),
        (T, mats, "full"),
        (T, mats, "Q"),
    ]
    for Ti, m, form in calls:
        with pytest.raises(ValueError, match="allow_large"):
            bpf(Ti, m, form=form)
    monkeypatch.setattr(tableau, "_bpf_permutation_sum", lambda *args: "summed")
    for Ti, m, form in calls:
        assert bpf(Ti, m, form=form, allow_large=True) == "summed"


def test_bpf_other_tableaux_keep_permutation_sum(monkeypatch):
    T = build_T(2, 1)
    mats = seeded_mats(4, 160, "Q")
    Tm = build_T(2, 1, multilinear=True)
    mats_m = {k: random_matrix(4, 160 + k) for k in Tm.labels()}
    images = [T.apply_tau(tau) for tau in list(permutations(range(1, 5)))[1:]]
    want_m = _bpf_permutation_sum(Tm, mats_m, "restricted", "Q")
    want_images = [_bpf_permutation_sum(Ti, mats, "restricted", "Q") for Ti in images]
    want_forms = [_bpf_permutation_sum(T, mats, form, "Q") for form in ("full", "Q")]
    assert any(w != bpf(T, mats) for w in want_images)

    monkeypatch.setattr(tableau, "_bpf_pfaffian", _must_not_run)
    assert bpf(Tm, mats_m) == want_m
    assert [bpf(Ti, mats) for Ti in images] == want_images
    assert [bpf(T, mats, form=form) for form in ("full", "Q")] == want_forms


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
