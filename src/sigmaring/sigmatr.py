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

from collections.abc import Sequence
from operator import itemgetter

from .quiver import Quiver, QuiverCycle, index_sets
from .ring import SigmaGen, SigmaPoly, _keep_plan, substitute
from .words import LinComb

DEGREE_GUARD = 10

_cache: dict[tuple, SigmaPoly] = {}


def _check_degree(degree: int) -> None:
    """The one refusal past DEGREE_GUARD, shared by every degree guard."""
    if degree > DEGREE_GUARD:
        raise ValueError(f"total degree {degree} exceeds guard {DEGREE_GUARD}")


def _signed_pick(j: int, c: QuiverCycle) -> tuple[int, SigmaGen, int]:
    """The pair (j, c) of an index set as (j, s_j(c), parity of its term
    j * (deg_y + deg_z + 1) of the sign exponent)."""
    return j, SigmaGen(j, c.word), j * (c.deg_y + c.deg_z + 1) & 1


_J = itemgetter(0)


def _signed_sum(q: Quiver, target: dict[int, int], base_exp: int) -> SigmaPoly:
    # Distinct index sets give distinct monomials, so each selection sets
    # its own coefficient.  A selection lists its cycles in cycle order,
    # which is the generator order for equal j, so ordering its picks by j
    # alone (sorted is stable) orders its generators.
    total: dict[tuple, int] = {}
    for sel in index_sets(q, target, _signed_pick):
        if sel:
            _, gens, odd = zip(*sorted(sel, key=_J))
            total[gens] = -1 if (base_exp + sum(odd)) & 1 else 1
        else:
            total[()] = -1 if base_exp & 1 else 1
    return SigmaPoly._of_clean(total)


def sigma_partial(
    ts: tuple[int, ...],
    rs: tuple[int, ...],
    ss: tuple[int, ...],
) -> SigmaPoly:
    """sigma_{tbar, rbar, sbar} over letters x_1..x_u, y_1..y_v, z_1..z_w."""
    ts, rs, ss = tuple(ts), tuple(rs), tuple(ss)
    key = ("partial", ts, rs, ss)
    hit = _cache.get(key)
    if hit is not None:  # only shapes that passed the checks below are cached
        return hit
    if any(k < 0 for k in ts + rs + ss):
        raise ValueError("block degrees must be nonnegative")
    if sum(rs) != sum(ss):
        raise ValueError("unbalanced blocks: sum(rbar) must equal sum(sbar)")
    _check_degree(sum(ts) + sum(rs) + sum(ss))
    u, v, w = len(ts), len(rs), len(ss)
    q = Quiver(u, v, w)
    target = {i + 1: k for i, k in enumerate(ts + rs + ss)}
    mdeg = tuple((i, k) for i, k in target.items() if k)
    result = _cache[key] = _keep_plan(_signed_sum(q, target, sum(ts)), mdeg)
    return result


def sigma_tr(t: int, r: int) -> SigmaPoly:
    """sigma_{t,r}(x, y, z); sigma_{0,0} = 1 and sigma_{t,0} = s_t(x)."""
    if t < 0 or r < 0:
        raise ValueError("t and r must be nonnegative")
    return sigma_partial((t,), (r,), (r,))


def sigma_lin(u: int, v: int) -> SigmaPoly:
    """Fully multilinear form sigma_{1^u, 1^v, 1^v}; every j_i is forced
    to 1, so every monomial is a product of plain traces."""
    return sigma_partial((1,) * u, (1,) * v, (1,) * v)


def sigma_partial_subst(
    ts: tuple[int, ...],
    rs: tuple[int, ...],
    ss: tuple[int, ...],
    args: Sequence[LinComb],
) -> SigmaPoly:
    """sigma_{tbar, rbar, sbar} applied to u + v + w word combinations."""
    if len(args) != len(ts) + len(rs) + len(ss):
        raise ValueError("argument count does not match block sizes")
    base = sigma_partial(ts, rs, ss)
    return substitute(base, dict(enumerate(args, 1)))
