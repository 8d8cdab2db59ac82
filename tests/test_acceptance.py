"""Acceptance gate: one test per advertised guarantee of the package.

Every comparison is exact, over Q or F_p; there are no tolerances anywhere.
Each test prints a single `[criterion NN] PASS/FAIL <summary>` line with
capture suspended, so the verdicts reach the real stdout even on success.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

from sigmaring.matrices import (
    EvalContext,
    ExactMatrix,
    as_element,
    random_matrix,
    random_symmetric,
)
from sigmaring.relations import (
    o_relation_generators,
    poly_degree,
    verify_exact,
    verify_randomized,
)
from sigmaring.ring import (
    SigmaPoly,
    lin,
    multiplicity_stats,
    normalize,
    parse_poly,
    poly_text,
    power_reduce,
    sigma_of_word,
    substitute,
)
from sigmaring.sigmatr import sigma_lin, sigma_tr
from sigmaring.tableau import (
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
from sigmaring.words import (
    Letter,
    LinComb,
    Naming,
    Word,
    canonicalize,
    glue,
)

XYZ = Naming.xyz(1, 1, 1)


@contextmanager
def criterion(num, desc, capsys):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {status} {desc}", flush=True)


def W(*pairs):
    return Word(Letter(i, t) for i, t in pairs)


def lc(index, coeff=1):
    return LinComb.of(Word([Letter(index)]), coeff)


def rational(n, seed, den=1):
    return random_matrix(n, seed).scale(Fraction(1, den))


def kind_mats(T, x, y, z):
    by_kind = {"x": x, "y": y, "z": z}
    return {lab: by_kind[T.kinds[lab]] for lab in T.labels()}


def interp_coeffs(points, p=None):
    """Exact polynomial coefficients (low degree first) through the given
    (x, y) points: over Q on Fractions, over F_p (p given) on ints in
    [0, p), inverting by pow(x, -1, p)."""
    zero = points[0][1] * 0
    one = zero + 1
    out = [zero] * len(points)
    for i, (xi, yi) in enumerate(points):
        num = [one]
        denom = one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            shifted = [zero] + num
            num = [a - b * xj for a, b in zip(shifted, num + [zero])]
            denom = denom * (xi - xj)
        scale = yi / denom if p is None else yi * pow(denom, -1, p)
        for k, c in enumerate(num):
            out[k] = out[k] + c * scale
    return out if p is None else [c % p for c in out]


def xyz_context(n, seed, field="Q", dens=(1, 2, 3)):
    mats = {
        k + 1: random_matrix(n, seed + k, field=field).scale(
            as_element(Fraction(1, dens[k]), field)
        )
        for k in range(3)
    }
    return EvalContext(mats)


def test_criterion_01_worked_examples(capsys):
    with criterion(1, "sigma_{0,1} and sigma_{1,1} print in the documented form", capsys):
        assert poly_text(sigma_tr(0, 1), XYZ) == "-tr[y z] + tr[y z']"
        assert poly_text(sigma_tr(1, 1), XYZ) == (
            "-tr[x]*tr[y z] + tr[x]*tr[y z'] + tr[x y z] - tr[x y z'] "
            "- tr[x y' z] + tr[x y' z']"
        )


def test_criterion_02_r_zero_collapses(capsys):
    with criterion(2, "sigma_{t,0} equals sigma_t(x) symbolically for t <= 5", capsys):
        assert sigma_tr(0, 0) == SigmaPoly.one()
        for t in range(1, 6):
            assert sigma_tr(t, 0) == sigma_of_word(t, W((1, False)))


def test_criterion_03_sum_expansion(capsys):
    combos = [
        LinComb.of(W((1, False)), Fraction(2, 3)),
        lc(1, Fraction(-2, 3)) + LinComb.of(W((2, False), (2, True)), Fraction(1, 2)),
        LinComb.of(W((1, False), (2, False)), 3)
        + lc(3, Fraction(-1, 2))
        + LinComb.of(W((1, True)), Fraction(5, 7)),
    ]
    expansions = {
        (i, t): normalize(t, arg)
        for i, arg in enumerate(combos)
        for t in range(1, 5)
    }
    with criterion(3, "sigma_t of a sum of words evaluates correctly, 20 trials", capsys):
        for trial in range(20):
            ctx = xyz_context(4, 300 + 10 * trial)
            for i, arg in enumerate(combos):
                total = ExactMatrix.zero(4)
                for w, c in arg.terms.items():
                    total = total + ctx.word_matrix(w).scale(c)
                for t in range(1, 5):
                    assert ctx.eval_poly(expansions[(i, t)]) == total.sigma(t)


def test_criterion_04_power_formula(capsys):
    with criterion(4, "sigma_t of a matrix power matches its trace polynomial", capsys):
        assert poly_text(power_reduce(1, 2), Naming.single("a")) == "tr[a]^2 - 2*s2[a]"
        pairs = [(t, l) for t in range(1, 7) for l in range(1, 7) if t * l <= 6]
        for t, l in pairs:
            p = power_reduce(t, l)
            for n in range(1, 7):
                for seed in ((40 + n, 80 + n) if n == 6 else (40 + n,)):
                    a = rational(n, seed, den=2)
                    power = ExactMatrix.identity(n)
                    for _ in range(l):
                        power = power * a
                    assert EvalContext({1: a}).eval_poly(p) == power.sigma(t)


def test_criterion_05_linearization_factor(capsys):
    with criterion(5, "merging the multilinear form recovers t!(r!)^2 sigma_{t,r}", capsys):
        for t, r in [(1, 1), (2, 1), (0, 2), (3, 1)]:
            full = sigma_lin(t, r)
            assign = {i: lc(1) for i in range(1, t + 1)}
            assign.update({t + j: lc(2) for j in range(1, r + 1)})
            assign.update({t + r + k: lc(3) for k in range(1, r + 1)})
            scale = Fraction(math.factorial(t) * math.factorial(r) ** 2)
            assert substitute(full, assign) == scale * sigma_tr(t, r)


def test_criterion_06_symmetric_vanishing(capsys):
    with criterion(6, "multilinear form vanishes when any y or z slot is symmetric", capsys):
        for t, r in [(1, 1), (0, 2)]:
            form = sigma_lin(t, r)
            slots = [("y", j) for j in range(1, r + 1)]
            slots += [("z", k) for k in range(1, r + 1)]
            for n in (3, 4):
                for trial in range(20):
                    base = 600 + 100 * t + 10 * r + trial
                    kind, j = slots[trial % len(slots)]
                    assign = {}
                    for i in range(1, t + 1):
                        assign[i] = random_matrix(n, base + i)
                    for jj in range(1, r + 1):
                        idx = t + jj
                        sym = kind == "y" and jj == j
                        assign[idx] = (
                            random_symmetric(n, base + idx)
                            if sym
                            else random_matrix(n, base + idx)
                        )
                    for kk in range(1, r + 1):
                        idx = t + r + kk
                        sym = kind == "z" and kk == j
                        assign[idx] = (
                            random_symmetric(n, base + idx)
                            if sym
                            else random_matrix(n, base + idx)
                        )
                    assert EvalContext(assign).eval_poly(form) == 0


def test_criterion_07_identity_slot_reduction(capsys):
    with criterion(7, "an identity x slot contracts with factor n-(t+2r)+1", capsys):
        for t, r in [(1, 1), (2, 1)]:
            big = sigma_lin(t, r)
            small = sigma_lin(t - 1, r)
            for n in (3, 4):
                a = n - (t + 2 * r) + 1
                for trial in range(20):
                    base = 700 + 100 * t + 10 * r + 7 * trial
                    xs = [random_matrix(n, base + i) for i in range(t - 1)]
                    ys = [random_matrix(n, base + 20 + j) for j in range(r)]
                    zs = [random_matrix(n, base + 40 + k) for k in range(r)]
                    left = {i + 1: xs[i] for i in range(t - 1)}
                    left[t] = ExactMatrix.identity(n)
                    left.update({t + 1 + j: ys[j] for j in range(r)})
                    left.update({t + r + 1 + k: zs[k] for k in range(r)})
                    right = {i + 1: xs[i] for i in range(t - 1)}
                    right.update({t + j: ys[j] for j in range(r)})
                    right.update({t - 1 + r + 1 + k: zs[k] for k in range(r)})
                    lhs = EvalContext(left).eval_poly(big)
                    rhs = EvalContext(right).eval_poly(small)
                    assert lhs == a * rhs


def test_criterion_08_scalar_shift(capsys):
    lams = [Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    with criterion(8, "shifting x by lambda*E expands binomially in sigma_{t-i,r}", capsys):
        for t, r in [(1, 1), (2, 1), (0, 2), (3, 1)]:
            for n in range(t + 2 * r, 7):
                ctx = xyz_context(n, 800 + 10 * t + r + n)
                x, y, z = ctx.assignment[1], ctx.assignment[2], ctx.assignment[3]
                lower = [ctx.eval_poly(sigma_tr(t - i, r)) for i in range(t + 1)]
                for lam in lams:
                    shifted = x + ExactMatrix.identity(n).scale(lam)
                    lhs = EvalContext({1: shifted, 2: y, 3: z}).eval_poly(
                        sigma_tr(t, r)
                    )
                    rhs = sum(
                        math.comb(n - (t + 2 * r) + i, i) * lam**i * lower[i]
                        for i in range(t + 1)
                    )
                    assert lhs == rhs


def test_criterion_09_tableau_bridge(capsys):
    shapes = [(0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (0, 2), (4, 0)]
    with criterion(9, "the tableau function realizes sigma_{t,r} at n = t+2r", capsys):
        for t, r in shapes:
            n = t + 2 * r
            T = build_T(t, r)
            for seed in (910, 920):
                x, y, z = (rational(n, seed + k, den=k + 1) for k in range(3))
                ctx = EvalContext({1: x, 2: y, 3: z})
                assert bpf(T, kind_mats(T, x, y, z)) == ctx.eval_poly(sigma_tr(t, r))
                # full lambda expansion of the shifted first argument
                E = ExactMatrix.identity(n)
                pts = [
                    (Fraction(lam), dp(r, x + E.scale(lam), y, z))
                    for lam in range(t + 1)
                ]
                coeffs = interp_coeffs(pts)
                for i in range(t + 1):
                    assert coeffs[i] == ctx.eval_poly(sigma_tr(t - i, r))


def test_criterion_10_decomposition_and_signs(capsys):
    with criterion(10, "tableau decomposition and both sign computations agree, n <= 5", capsys):
        for n in range(1, 6):
            for r in range(n // 2 + 1):
                t = n - 2 * r
                T = build_T(t, r)
                D = decompose(T)
                for seed in (1010,) if n == 5 else (1010, 1020):
                    x, y, z = (rational(n, seed + k, den=k + 1) for k in range(3))
                    ctx = EvalContext({1: x, 2: y, 3: z})
                    assert ctx.eval_poly(D) == bpf(T, kind_mats(T, x, y, z))
                hits = 0
                for xi in permutations(range(1, n + 1)):
                    Ti = T.apply_tau(xi)
                    paths = closed_path_reps(Ti)
                    words = [path_word(Ti, p) for p in paths]
                    if any(canonicalize(w)[1] != 1 for w in words):
                        continue
                    hits += 1
                    prod = 1
                    for w in words:
                        s = path_sign_rules(T, w)
                        assert s == path_sign_closed_form(T, w)
                        prod *= s
                    assert prod == _perm_sign(xi)
                assert hits > 0


def test_criterion_11_relation_generators_vanish(capsys):
    with criterion(11, "emitted generators vanish at size n; witnesses stop at t+2r = n", capsys):
        randomized = [(1, 1, 3), (2, 1, 4), (2, 2, 3), (3, 1, 5), (3, 2, 4)]
        for n, d, budget in randomized:
            for rel in o_relation_generators(n, d, budget, 2):
                assert sum(rel.ts) + sum(rel.rs) + sum(rel.ss) > n
                assert verify_randomized(rel.poly, n, d, 20, 2024)

        exact = [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 4)]
        for n, d, budget in exact:
            for rel in o_relation_generators(n, d, budget, 2):
                if poly_degree(rel.poly) <= 4:
                    assert verify_exact(rel.poly, n, d)

        # at t + 2r = n the same shapes are not identically zero
        for n, (t, r) in [(1, (1, 0)), (2, (0, 1)), (3, (1, 1))]:
            p = sigma_tr(t, r)
            found = False
            for seed in range(50):
                ctx = EvalContext(
                    {k: random_matrix(n, 1100 + 3 * seed + k) for k in (1, 2, 3)}
                )
                if ctx.eval_poly(p) != 0:
                    found = True
                    break
            assert found


def test_criterion_12_linearization_examples(capsys):
    cases = [
        ("s2[x1]", 1),
        ("tr[x1]^3", 1),
        ("s2[x1]*tr[x1]", 1),
        ("s2[x1]^2", 1),
        ("s3[x1]", 1),
        ("tr[x1]*tr[x2]*tr[x1 x2]", 2),
    ]
    with criterion(12, "linearization examples and the leading-coefficient law", capsys):
        one = lin(parse_poly("s2[x1]", Naming.generic(1)), 1)
        assert one == parse_poly(
            "tr[x1]*tr[x2] - tr[x1 x2]", Naming.generic(2)
        )
        cube = lin(parse_poly("tr[x1]^3", Naming.generic(1)), 1)
        assert cube == parse_poly(
            "6*tr[x1]*tr[x2]*tr[x3]", Naming.generic(3)
        )

        for text, d in cases:
            f = parse_poly(text, Naming.generic(d))
            ((m, _),) = f.monomials.items()
            c_f, p = multiplicity_stats(m)
            sign = (-1) ** (sum(g.t for g in m) - p)
            expected_glue = sorted((tuple(g.cycle), g.t) for g in m)
            for mono, coeff in lin(f, d).monomials.items():
                assert all(g.t == 1 for g in mono)
                if len(mono) == p:
                    assert coeff == sign * c_f
                    glued = sorted(
                        (tuple(root), power)
                        for root, power in (
                            canonicalize(glue(g.cycle, d)) for g in mono
                        )
                    )
                    assert glued == expected_glue
                else:
                    assert len(mono) > p
                    assert coeff % c_f == 0
        assert multiplicity_stats(
            next(iter(parse_poly("s2[x1]^2", Naming.generic(1)).monomials))
        ) == (2, 2)
        assert multiplicity_stats(
            next(iter(parse_poly("tr[x1]^3", Naming.generic(1)).monomials))
        ) == (6, 3)


def test_criterion_13_characteristic_p_coherence(capsys):
    combos = [
        LinComb.of(W((1, False)), 1)
        + LinComb.of(W((2, False), (2, True)), -2),
        LinComb.of(W((1, False), (2, False)), 3)
        + lc(3, -1)
        + LinComb.of(W((1, True)), 2),
    ]
    with criterion(13, "F_5 and F_7 runs agree with mod-p reduction of the Q results", capsys):
        for p in (5, 7):
            # sums of words on integral matrices
            for trial in range(5):
                base = 1300 + 10 * trial
                mats_q = {k: random_matrix(4, base + k) for k in (1, 2, 3)}
                mats_p = {k: random_matrix(4, base + k, field=p) for k in (1, 2, 3)}
                ctx_q, ctx_p = EvalContext(mats_q), EvalContext(mats_p)
                for arg in combos:
                    total = ExactMatrix.zero(4, p)
                    for w, c in arg.terms.items():
                        total = total + ctx_p.word_matrix(w).scale(as_element(c, p))
                    for t in range(1, 5):
                        expansion = normalize(t, arg)
                        got = ctx_p.eval_poly(expansion)
                        assert got == as_element(ctx_q.eval_poly(expansion), p)
                        assert got == total.sigma(t)

            # powers of one integral matrix
            for t, l in [(1, 2), (2, 2), (2, 3), (3, 2), (1, 6)]:
                form = power_reduce(t, l)
                a_q = random_matrix(4, 1400 + t + l)
                a_p = random_matrix(4, 1400 + t + l, field=p)
                pow_p = ExactMatrix.identity(4, p)
                for _ in range(l):
                    pow_p = pow_p * a_p
                got = EvalContext({1: a_p}).eval_poly(form)
                assert got == as_element(EvalContext({1: a_q}).eval_poly(form), p)
                assert got == pow_p.sigma(t)

            # tableau bridge and lambda expansion
            for t, r in [(0, 1), (1, 1), (2, 1), (0, 2)]:
                n = t + 2 * r
                T = build_T(t, r)
                seeds = [1500 + k for k in range(3)]
                xq, yq, zq = (random_matrix(n, s) for s in seeds)
                xp, yp, zp = (random_matrix(n, s, field=p) for s in seeds)
                got = bpf(T, kind_mats(T, xp, yp, zp))
                assert got == as_element(bpf(T, kind_mats(T, xq, yq, zq)), p)
                ctx_p = EvalContext({1: xp, 2: yp, 3: zp})
                assert got == ctx_p.eval_poly(sigma_tr(t, r))
                E = ExactMatrix.identity(n, p)
                pts = [
                    (as_element(lam, p), dp(r, xp + E.scale(lam), yp, zp))
                    for lam in range(t + 1)
                ]
                coeffs = interp_coeffs(pts, p)
                ctx_q = EvalContext({1: xq, 2: yq, 3: zq})
                for i in range(t + 1):
                    low = sigma_tr(t - i, r)
                    assert coeffs[i] == ctx_p.eval_poly(low)
                    assert coeffs[i] == as_element(ctx_q.eval_poly(low), p)
