"""Two-vertex quiver whose closed paths index the mixed trace generators.

Vertices 1 and 2 are swapped by the involution.  For an alphabet split into
u loops x_i, v arrows y_j and w arrows z_k, the traversal directions are

    x_i : 1 -> 1      x_i' : 2 -> 2
    y_j : 1 -> 2      y_j' : 1 -> 2
    z_k : 2 -> 1      z_k' : 2 -> 1

so a word is a path when read left to right.  Letter indices are packed as
x_i -> i, y_j -> u + j, z_k -> u + v + k.

Closed paths are taken up to rotation and transpose; enumeration returns one
canonical primitive representative per class together with its multidegree
and its counts of untransposed y and z letters (the transpose-parity of
deg_y + deg_z is class-invariant because closed paths cross between the two
vertices an even number of times).

The cost follows the output: closed_cycles walks only prefixes that can
still end in a canonical word and builds a Word only for a cycle it returns,
reading each letter's transpose and degree increments from tables made once
per call.  index_sets packs each multidegree into one int with a guard bit
per component, so whether a cycle fits is one subtraction and one mask.
Fitting is monotone in the remaining degree, so the candidates of a node are
the cycles that fit its remaining degree and come after its last pick.
index_sets keeps one ascending list of fitting cycles per distinct remaining
degree, filtered once from the list of the node that first reached it, and
cuts it at the last pick by bisection, so a node looks its candidates up
instead of filtering its parent's.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub
from typing import Iterator, NamedTuple

from .words import Letter, Word, least_rotation


class QuiverCycle(NamedTuple):
    word: Word
    mdeg: tuple[int, ...]
    deg_y: int
    deg_z: int

    def key(self) -> tuple:
        return (len(self.word), self.word)


class Quiver:
    """The quiver Q(u, v, w) with the packed-letter conventions above."""

    def __init__(self, u: int, v: int, w: int):
        if min(u, v, w) < 0:
            raise ValueError("block sizes must be nonnegative")
        self.u, self.v, self.w = u, v, w
        self.d = u + v + w

    def kind(self, index: int) -> str:
        if 1 <= index <= self.u:
            return "x"
        if index <= self.u + self.v:
            return "y"
        if index <= self.d:
            return "z"
        raise ValueError(f"letter index {index} out of range")

    def step(self, lt: Letter, at: int) -> int | None:
        """Target vertex when traversing lt from vertex `at`, else None."""
        k = self.kind(lt.index)
        if k == "x":
            home = 2 if lt.transposed else 1
            return at if at == home else None
        if k == "y":
            return 2 if at == 1 else None
        return 1 if at == 2 else None

    def steps_from(self, at: int) -> list[tuple[Letter, int]]:
        out = []
        for i in range(1, self.d + 1):
            for tr in (False, True):
                lt = Letter(i, tr)
                nxt = self.step(lt, at)
                if nxt is not None:
                    out.append((lt, nxt))
        return out

    def closed_cycles(self, budget: dict[int, int]) -> list[QuiverCycle]:
        """Canonical primitive closed-path classes with mdeg <= budget.

        A canonical word starts with its least letter, an untransposed x or
        y, so it is a closed walk from vertex 1; the walk below records
        exactly the canonical ones.  It extends only prenecklaces (prefixes
        of words no larger than their rotations; Cattell et al., "Fast
        algorithms to generate necklaces, unlabeled necklaces and
        irreducible polynomials over GF(2)", J. Algorithms 2000): a letter
        below path[len - period] makes every extension larger than one of
        its rotations.  A prenecklace is strictly smaller than its
        nontrivial rotations, so a Lyndon word and hence primitive, exactly
        when period == len; it is canonical when in addition no rotation of
        its transpose is smaller.
        """
        budget = [0] + [budget.get(i, 0) for i in range(1, self.d + 1)]
        if any(b < 0 for b in budget):
            raise ValueError("negative degree budget")
        full = list(budget)
        steps = {at: self.steps_from(at) for at in (1, 2)}
        # per-call tables: each letter's transpose and its (deg_y, deg_z)
        # increment, which only untransposed y and z letters have
        flip: dict[Letter, Letter] = {}
        incr: dict[Letter, tuple[int, int]] = {}
        for i in range(1, self.d + 1):
            kind = self.kind(i)
            for tr in (False, True):
                lt = Letter(i, tr)
                flip[lt] = Letter(i, not tr)
                incr[lt] = (0, 0) if tr else (int(kind == "y"), int(kind == "z"))
        found: list[QuiverCycle] = []
        path: list[Letter] = []

        def record():
            seq = tuple(path)
            if seq > least_rotation(tuple(map(flip.__getitem__, reversed(seq)))):
                return
            deg_y = deg_z = 0
            for dy, dz in map(incr.__getitem__, seq):
                deg_y += dy
                deg_z += dz
            mdeg = tuple(map(sub, full, budget))[1:]
            found.append(QuiverCycle(Word(seq), mdeg, deg_y, deg_z))

        def walk(at: int, period: int):
            # path is a prenecklace; period is the length of its longest
            # Lyndon prefix
            n = len(path)
            if n and at == 1 and period == n:
                record()
            for lt, nxt in steps[at]:
                if budget[lt.index] == 0:
                    continue
                if n:
                    ref = path[n - period]
                    if lt < ref:
                        continue
                    grown = period if lt == ref else n + 1
                elif lt.transposed:
                    continue  # larger than its own transpose
                else:
                    grown = 1
                budget[lt.index] -= 1
                path.append(lt)
                walk(nxt, grown)
                path.pop()
                budget[lt.index] += 1

        walk(1, 0)
        found.sort(key=QuiverCycle.key)
        return found


IndexPair = tuple[int, QuiverCycle]


def index_sets(q: Quiver, target: dict[int, int]) -> Iterator[tuple[IndexPair, ...]]:
    """All ways to write the target multidegree as sum j_i * mdeg(cycle_i)
    over pairwise distinct primitive closed-path classes, j_i >= 1.

    The empty selection is yielded exactly when the target is zero.
    """
    goal = tuple(target.get(i, 0) for i in range(1, q.d + 1))
    if any(g < 0 for g in goal):
        raise ValueError("negative target multidegree")
    cycles = q.closed_cycles({i + 1: g for i, g in enumerate(goal)})
    # Multidegrees packed into one int: component i gets a field of
    # goal[i].bit_length() bits under one guard bit.  Every component is at
    # most its goal, so (rem | guard) - m borrows inside no field, and m
    # fits rem exactly when every guard bit survives; rem - m is then the
    # packed difference.
    shifts, shift = [], 0
    for g in goal:
        shifts.append(shift)
        shift += g.bit_length() + 1
    guard = sum(1 << (s + g.bit_length()) for s, g in zip(shifts, goal))

    def pack(degrees: tuple[int, ...]) -> int:
        return sum(k << s for k, s in zip(degrees, shifts))

    masses = [pack(c.mdeg) for c in cycles]
    # rem -> ascending positions of the cycles that fit rem.  A new rem is
    # filtered from its parent's list, which holds every cycle fitting rem
    # because the parent's remaining degree is larger.
    whole = pack(goal)
    fitting = {whole: list(range(len(cycles)))}
    chosen: list[IndexPair] = []

    def descend(rem: int, after: int, parent: int) -> Iterator[tuple[IndexPair, ...]]:
        if not rem:
            yield tuple(chosen)
            return  # further cycles would only add degree
        fits = fitting.get(rem)
        if fits is None:
            top = rem | guard
            fits = fitting[rem] = [
                k for k in fitting[parent] if (top - masses[k]) & guard == guard
            ]
        # One frame per picked cycle, never per skipped one: a target can
        # have thousands of cycles but picks at most its total degree.
        # Picking from the last cycle down keeps the order of the
        # skip-first recursion.
        for k in reversed(fits[bisect_left(fits, after) :]):
            m = masses[k]
            j, nxt = 1, rem
            while ((nxt | guard) - m) & guard == guard:
                nxt -= m
                chosen.append((j, cycles[k]))
                yield from descend(nxt, k + 1, rem)
                chosen.pop()
                j += 1

    yield from descend(whole, 0, whole)
