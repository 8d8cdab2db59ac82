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

The cost follows the output.  closed_cycles walks int-coded letters and
extends only prefixes that can still end in a canonical word, so it tests
no word it does not return.  index_sets packs each multidegree into one int
with a guard bit per component, keeps one list of fitting cycles per
distinct remaining degree (the AND of one bitset per component), and cuts
it at the last pick by bisection.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import add, itemgetter, sub
from typing import Any, Callable, Iterator, NamedTuple

from .words import Letter, Word


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
        """Canonical primitive closed-path classes with mdeg <= budget,
        shortest first, then in letter order.

        A canonical word starts with its least letter L, an untransposed x
        or y, so it is a closed walk from vertex 1.  The walk extends only
        prenecklaces (prefixes of words no larger than their rotations;
        Cattell et al., "Fast algorithms to generate necklaces, unlabeled
        necklaces and irreducible polynomials over GF(2)", J. Algorithms
        2000): a letter below path[len - period] makes every extension
        larger than one of its rotations.  A prenecklace is strictly
        smaller than its nontrivial rotations, so a Lyndon word and hence
        primitive, exactly when period == len.

        It is canonical when in addition no rotation of its transpose is
        smaller.  The transpose holds letters no smaller than L, and L only
        where the word holds L', so only the rotations that start at the
        transpose of an L' can be smaller.  The one for the L' at position
        k starts with the transpose of path[:k + 1], which is known when
        the L' is placed, and never equals path[:k + 1]: its middle letter,
        or its two middle letters, would be a letter that is its own
        transpose, or a letter followed by its transpose, and no path has
        either (a letter's transpose starts where the letter does not end).
        So that placement decides the rotation: a smaller head rules out
        every extension and the walk does not extend it, a larger one rules
        out nothing.  As in Sawada's bracelet generation ("Generating
        bracelets in constant amortized time", SIAM J. Comput. 2001), no
        word is tested when it closes: every Lyndon word the walk closes
        at vertex 1 is canonical.
        """
        goal = tuple(budget.get(i, 0) for i in range(1, self.d + 1))
        if any(b < 0 for b in goal):
            raise ValueError("negative degree budget")
        d = self.d
        codes = range(2, 2 * d + 2)
        letters = [None, None] + [Letter(c >> 1, bool(c & 1)) for c in codes]
        # untransposed y and z letters, which deg_y and deg_z count
        ys = [0, 0] + [int(not c & 1 and self.kind(c >> 1) == "y") for c in codes]
        zs = [0, 0] + [int(not c & 1 and self.kind(c >> 1) == "z") for c in codes]
        # from each vertex: (code, letter index - 1, next vertex)
        steps = {}
        for at in (1, 2):
            steps[at] = [
                (2 * lt.index + lt.transposed, lt.index - 1, nxt)
                for lt, nxt in self.steps_from(at)
            ]
        # moves[at][ref - 2]: the steps from at whose letter is not below ref
        moves = {at: [[s for s in steps[at] if s[0] >= ref] for ref in codes] for at in (1, 2)}
        left = list(goal)
        total = sum(goal)
        by_len: list[list[tuple]] = [[] for _ in range(total + 1)]
        path: list[int] = []
        twin = 0  # the code of L'

        def walk(at: int, period: int) -> None:
            # path is a prenecklace of length n; period is the length of
            # its longest Lyndon prefix
            n = len(path)
            ref = path[n - period]
            for c, i, nxt in moves[at][ref - 2]:
                if not left[i]:
                    continue
                path.append(c)
                if c == twin and [x ^ 1 for x in reversed(path)] < path:
                    path.pop()  # a rotation of the transpose is smaller
                    continue
                left[i] -= 1
                if c > ref:  # path is a Lyndon word
                    if nxt == 1:
                        by_len[n + 1].append((tuple(path), tuple(map(sub, goal, left))))
                    if n + 1 < total:
                        walk(nxt, n + 1)
                elif n + 1 < total:
                    walk(nxt, period)
                left[i] += 1
                path.pop()

        for c, i, nxt in steps[1]:
            if c & 1 or not left[i]:
                continue  # a transposed first letter is larger than its transpose
            twin = c + 1
            path.append(c)
            left[i] -= 1
            if nxt == 1:
                by_len[1].append(((c,), tuple(map(sub, goal, left))))
            if total > 1:
                walk(nxt, 1)
            left[i] += 1
            path.pop()

        # the walk visits words in letter order, so each length is sorted
        return [
            QuiverCycle._make((
                tuple.__new__(Word, map(letters.__getitem__, seq)),
                mdeg,
                sum(map(ys.__getitem__, seq)),
                sum(map(zs.__getitem__, seq)),
            ))
            for rows in by_len
            for seq, mdeg in rows
        ]


IndexPair = tuple[int, QuiverCycle]

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _pair(j: int, cycle: QuiverCycle) -> IndexPair:
    return (j, cycle)


def index_sets(
    q: Quiver,
    target: dict[int, int],
    pick: Callable[[int, QuiverCycle], Any] = _pair,
) -> Iterator[tuple]:
    """All ways to write the target multidegree as sum j_i * mdeg(cycle_i)
    over pairwise distinct primitive closed-path classes, j_i >= 1.

    Each selection is a tuple of its pairs (j_i, cycle_i), or of
    pick(j_i, cycle_i) when pick is given.  pick is called at most once
    per (j, cycle), and every selection with that pair holds the same
    object, so a caller that derives a term from each pair derives it once.
    The empty selection is yielded exactly when the target is zero.
    """
    goal = tuple(target.get(i, 0) for i in range(1, q.d + 1))
    if any(g < 0 for g in goal):
        raise ValueError("negative target multidegree")
    cycles = q.closed_cycles({i + 1: g for i, g in enumerate(goal)})
    if not any(goal):
        yield ()
        return
    if not cycles:
        return
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
    whole = sum(g << s for g, s in zip(goal, shifts))
    # Component by component, over the column of that component of every
    # cycle's multidegree: each mass gains its field, and below[i][k] is
    # the bitset over positions of the cycles whose component i is at most
    # k (the column as a str of chr codes, so str.translate marks it in C).
    masses = [0] * len(cycles)
    below = []
    for g, s, column in zip(goal, shifts, zip(*map(itemgetter(1), cycles))):
        masses = list(map(add, masses, map((1 << s).__mul__, column)))
        column = "".join(map(chr, column))
        below.append(
            [
                int(column.translate({v: "01"[v <= k] for v in range(g + 1)})[::-1], 2)
                for k in range(g + 1)
            ]
        )
    fields = [(s, (1 << g.bit_length()) - 1) for s, g in zip(shifts, goal)]
    everything = range(len(cycles))
    lengths = [len(c.word) for c in cycles]
    # shorter[n]: the number of cycles shorter than n
    shorter = [bisect_left(lengths, n) for n in range(sum(goal) + 2)]
    # rem -> ascending positions of the cycles that fit rem
    fitting: dict[int, list[int]] = {}
    # picks[k][j - 1] = pick(j, cycles[k]), made on first use
    picks: list[list] = [[] for _ in cycles]
    chosen: list = []

    def descend(rem: int, size: int, after: int) -> Iterator[tuple]:
        # rem has total degree size
        fits = fitting.get(rem)
        if fits is None:
            bits = -1
            for (s, mask), sets in zip(fields, below):
                bits &= sets[(rem >> s) & mask]
            flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
            fits = fitting[rem] = list(compress(everything, flags))
        # Cycles come shortest first, so every later pick is at least as
        # long as this one: a cycle longer than size / 2 can only be the
        # last pick, and then as long as rem, fitting it exactly, once.
        # The ones between are skipped.  Picking from the last cycle down
        # keeps the order of the skip-first recursion.  One frame per pick
        # that leaves a remainder, never per skipped cycle: a target can
        # have thousands of cycles but picks at most its total degree.
        lo = bisect_left(fits, after)
        short = bisect_left(fits, shorter[size // 2 + 1], lo)
        for k in reversed(fits[bisect_left(fits, shorter[size], short) :]):
            made = picks[k]
            if not made:
                made.append(pick(1, cycles[k]))
            chosen.append(made[0])
            yield tuple(chosen)
            chosen.pop()
        for k in reversed(fits[lo:short]):
            m = masses[k]
            length = lengths[k]
            made = picks[k]
            nxt, rest, j = rem, size, 0
            while ((nxt | guard) - m) & guard == guard:
                nxt -= m
                rest -= length
                if 0 < rest < length:
                    break  # no later cycle is short enough to fill it
                if j == len(made):
                    made.append(pick(j + 1, cycles[k]))
                chosen.append(made[j])
                if rest:
                    yield from descend(nxt, rest, k + 1)
                else:
                    yield tuple(chosen)
                chosen.pop()
                j += 1

    yield from descend(whole, sum(goal), 0)
