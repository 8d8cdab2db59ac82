"""Mixed trace polynomials sigma_{t,r} and their partial linearizations.

sigma_{t,r}(x, y, z) is the signed sum over index sets: selections of
pairwise distinct primitive closed-path classes alpha_i in the two-vertex
quiver with exponents j_i >= 1 whose weighted multidegrees add up to
(t, r, r).  Each selection contributes

    (-1)^xi * prod_i s_{j_i}(alpha_i),
    xi = t + sum_i j_i * (deg_y(alpha_i) + deg_z(alpha_i) + 1),

with deg_y, deg_z counting untransposed letters of the middle and last
block.  The partial linearization sigma_{tbar, rbar, sbar} over blocks of
sizes u, v, w generalizes the target multidegree to (tbar, rbar, sbar) and
the sign exponent to sum(tbar) + sum_i j_i * (...); it requires the balance
sum(rbar) == sum(sbar), since every closed path crosses between the two
vertices equally often in both directions.

Letters are packed x_i -> i, y_j -> u + j, z_k -> u + v + k; for the
three-letter case x, y, z are letters 1, 2, 3.
"""

from __future__ import annotations

from fractions import Fraction

from .quiver import Quiver, index_sets
from .ring import SigmaGen, SigmaPoly, substitute
from .words import LinComb

DEGREE_GUARD = 10

_cache: dict[tuple, SigmaPoly] = {}


def _signed_sum(q: Quiver, target: dict[int, int], base_exp: int) -> SigmaPoly:
    total: dict[tuple, Fraction] = {}
    for sel in index_sets(q, target):
        xi = base_exp + sum(j * (c.deg_y + c.deg_z + 1) for j, c in sel)
        gens = tuple(sorted((SigmaGen(j, c.word) for j, c in sel), key=SigmaGen.key))
        total[gens] = total.get(gens, Fraction(0)) + (-1) ** xi
    return SigmaPoly(total)


def sigma_partial(
    ts: tuple[int, ...],
    rs: tuple[int, ...],
    ss: tuple[int, ...],
    allow_large: bool = False,
) -> SigmaPoly:
    """sigma_{tbar, rbar, sbar} over letters x_1..x_u, y_1..y_v, z_1..z_w."""
    ts, rs, ss = tuple(ts), tuple(rs), tuple(ss)
    if any(k < 0 for k in ts + rs + ss):
        raise ValueError("block degrees must be nonnegative")
    if sum(rs) != sum(ss):
        raise ValueError("unbalanced blocks: sum(rbar) must equal sum(sbar)")
    degree = sum(ts) + sum(rs) + sum(ss)
    if degree > DEGREE_GUARD and not allow_large:
        raise ValueError(
            f"total degree {degree} exceeds guard {DEGREE_GUARD}; "
            "pass allow_large=True to force"
        )
    key = ("partial", ts, rs, ss)
    if key in _cache:
        return _cache[key]
    u, v, w = len(ts), len(rs), len(ss)
    q = Quiver(u, v, w)
    target = {i + 1: k for i, k in enumerate(ts + rs + ss)}
    result = _signed_sum(q, target, sum(ts))
    _cache[key] = result
    return result


def sigma_tr(t: int, r: int, allow_large: bool = False) -> SigmaPoly:
    """sigma_{t,r}(x, y, z); sigma_{0,0} = 1 and sigma_{t,0} = s_t(x)."""
    if t < 0 or r < 0:
        raise ValueError("t and r must be nonnegative")
    return sigma_partial((t,), (r,), (r,), allow_large=allow_large)


def sigma_lin(u: int, v: int, allow_large: bool = False) -> SigmaPoly:
    """Fully multilinear form sigma_{1^u, 1^v, 1^v}; every j_i is forced
    to 1, so every monomial is a product of plain traces."""
    return sigma_partial((1,) * u, (1,) * v, (1,) * v, allow_large=allow_large)


def sigma_tr_subst(t: int, r: int, x: LinComb, y: LinComb, z: LinComb) -> SigmaPoly:
    """sigma_{t,r} with the three letters replaced by word combinations."""
    return substitute(sigma_tr(t, r), {1: x, 2: y, 3: z})


def sigma_partial_subst(
    ts: tuple[int, ...],
    rs: tuple[int, ...],
    ss: tuple[int, ...],
    args: list[LinComb],
) -> SigmaPoly:
    """sigma_{tbar, rbar, sbar} applied to u + v + w word combinations."""
    if len(args) != len(ts) + len(rs) + len(ss):
        raise ValueError("argument count does not match block sizes")
    base = sigma_partial(ts, rs, ss)
    return substitute(base, {i + 1: a for i, a in enumerate(args)})
