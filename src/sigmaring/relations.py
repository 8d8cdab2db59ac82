"""Relation-ideal generators and their verification.

For n x n matrices with transposes, every sigma_{tbar, rbar, sbar} with
arbitrary word arguments vanishes identically as soon as
sum(tbar) + 2 * sum(rbar) > n; without transposes the classical generators
are s_t of word combinations for t > n.  This module enumerates both
families within degree budgets, verifies vanishing either on seeded random
matrices or exactly on generic matrix entries, and serializes replayable
certificates.

Verification seeds follow a fixed schedule: the matrix for letter k in
trial i is drawn with seed + 1000 * i + k, so a certificate replays
bit-for-bit from its seed alone.  Since the trial matrices depend only on
(n, d, trials, seed, field), a run shares one set of trial contexts, with
their word-product and sigma_t caches, across all of its relations.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .matrices import EvalContext, field_of, random_matrix
from .ring import SigmaPoly, normalize
from .sigmatr import sigma_partial_subst
from .words import Letter, LinComb, Naming, Word, parse_word, word_text

EXACT_MAX_N = 2
EXACT_MAX_D = 2
EXACT_MAX_DEGREE = 4


@dataclass(frozen=True)
class Relation:
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
    return max((sum(g.degree for g in m) for m in p.monomials), default=0)


def enumerate_words(d: int, max_len: int, transposes: bool = True) -> list[Word]:
    letters = [Letter(i, tr) for i in range(1, d + 1) for tr in ((False, True) if transposes else (False,))]
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            out.append(Word(combo))
    out.sort(key=lambda w: (len(w), w.key()))
    return out


def _slot_multisets(slots, budget: int):
    """Multisets of (degree, word) slots with total degree * len(word)
    weight <= budget; slots arrive sorted, output is nondecreasing."""

    def rec(i: int, remaining: int, chosen: list):
        yield list(chosen)
        for j in range(i, len(slots)):
            deg, w = slots[j]
            cost = deg * len(w)
            if cost <= remaining:
                chosen.append(slots[j])
                yield from rec(j, remaining - cost, chosen)
                chosen.pop()

    yield from rec(0, budget, [])


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
    budget, hence the laziness."""
    if max_total_degree is None:
        max_total_degree = n + 4
    naming = Naming.generic(d)
    words = enumerate_words(d, max_word_len)
    slots = [(deg, w) for deg in range(1, max_total_degree + 1) for w in words]
    slots.sort(key=lambda s: (s[0], len(s[1]), s[1].key()))

    for xs in _slot_multisets(slots, max_total_degree):
        t = sum(deg for deg, _ in xs)
        x_weight = sum(deg * len(w) for deg, w in xs)
        for ys in _slot_multisets(slots, max_total_degree - x_weight):
            r = sum(deg for deg, _ in ys)
            if t + 2 * r <= n:
                continue  # only the overflow shapes vanish
            y_weight = sum(deg * len(w) for deg, w in ys)
            for zs in _slot_multisets(slots, max_total_degree - x_weight - y_weight):
                if sum(deg for deg, _ in zs) != r:
                    continue
                ts = tuple(deg for deg, _ in xs)
                rs = tuple(deg for deg, _ in ys)
                ss = tuple(deg for deg, _ in zs)
                args = [LinComb.of(w) for _, w in xs + ys + zs]
                poly = sigma_partial_subst(ts, rs, ss, args)
                texts = tuple(word_text(w, naming)[1:-1] for _, w in xs + ys + zs)
                yield Relation("o", n, d, ts, rs, ss, texts, poly)


def gl_relation_generators(
    n: int,
    d: int,
    max_total_degree: int | None = None,
    max_word_len: int = 2,
):
    """Yields s_t of sums of at most two transpose-free words, t > n."""
    if max_total_degree is None:
        max_total_degree = n + 4
    naming = Naming.generic(d)
    words = enumerate_words(d, max_word_len, transposes=False)
    for t in range(n + 1, max_total_degree + 1):
        for size in (1, 2):
            for combo in itertools.combinations(words, size):
                if t * max(len(w) for w in combo) > max_total_degree:
                    continue
                arg = LinComb({w: Fraction(1) for w in combo})
                poly = normalize(t, arg)
                texts = tuple(word_text(w, naming)[1:-1] for w in combo)
                yield Relation("gl", n, d, (t,), (), (), texts, poly)


# ---------------------------------------------------------------------------
# Randomized verification.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _trial_contexts(n: int, d: int, trials: int, seed: int, field) -> tuple[EvalContext, ...]:
    return tuple(
        EvalContext(
            {k: random_matrix(n, seed + 1000 * i + k, field=field) for k in range(1, d + 1)}
        )
        for i in range(trials)
    )


def verify_randomized(
    poly: SigmaPoly, n: int, d: int, trials: int, seed: int, field="Q"
) -> bool:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for ctx in _trial_contexts(n, d, trials, seed, field_of(field)):
        if ctx.eval_poly(poly):
            return False
    return True


# ---------------------------------------------------------------------------
# Exact verification on generic matrices: entries are independent commuting
# variables e(k, i, j), and the sigma-polynomial must vanish identically.
# ---------------------------------------------------------------------------


class MultiPoly:
    """Sparse exact polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(e)] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)


def _generic_matrices(n: int, d: int) -> dict[int, list[list[MultiPoly]]]:
    nv = d * n * n
    mats = {}
    for k in range(1, d + 1):
        mats[k] = [
            [MultiPoly.var(nv, ((k - 1) * n + i) * n + j) for j in range(n)]
            for i in range(n)
        ]
    return mats


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


def verify_exact(poly: SigmaPoly, n: int, d: int) -> bool:
    """Identically-zero check on generic matrix entries; refuses inputs
    beyond small hard caps since the expansion is dense."""
    if n > EXACT_MAX_N or d > EXACT_MAX_D:
        raise ValueError(
            f"exact mode is capped at n <= {EXACT_MAX_N}, d <= {EXACT_MAX_D}"
        )
    if poly_degree(poly) > EXACT_MAX_DEGREE:
        raise ValueError(f"exact mode is capped at degree {EXACT_MAX_DEGREE}")
    nv = d * n * n
    gm = _generic_matrices(n, d)
    word_cache: dict[tuple, list[list[MultiPoly]]] = {}

    def word_matrix(w: Word):
        key = w.key()
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

    sigma_cache: dict[tuple, MultiPoly] = {}
    total = MultiPoly.const(nv, 0)
    for mono, coeff in poly.monomials.items():
        term = MultiPoly.const(nv, coeff)
        for g in mono:
            key = (g.t, g.cycle.key())
            if key not in sigma_cache:
                sigma_cache[key] = _pm_sigma(word_matrix(g.cycle), g.t, nv)
            term = term * sigma_cache[key]
        total = total + term
    return not total


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
        poly = normalize(ts[0], LinComb({w: Fraction(1) for w in parsed}))
    else:
        raise ValueError(f"unknown certificate kind {cert['kind']!r}")
    return Relation(cert["kind"], cert["n"], d, ts, rs, ss, words, poly)


def replay_certificate(cert: dict) -> bool:
    rel = rebuild_relation(cert)
    if cert["mode"] == "randomized":
        field = cert.get("field", "Q")
        field = "Q" if field == "Q" else int(str(field).split(":")[1])
        return verify_randomized(
            rel.poly, rel.n, rel.d, cert["trials"], cert["seed"], field
        )
    if cert["mode"] == "exact":
        return verify_exact(rel.poly, rel.n, rel.d)
    raise ValueError(f"unknown certificate mode {cert['mode']!r}")


def write_certificates(certs: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"version": CERT_VERSION, "certificates": certs}, fh, indent=1)


def read_certificates(path: str) -> list[dict]:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version") != CERT_VERSION:
        raise ValueError("unsupported certificate file version")
    return data["certificates"]
