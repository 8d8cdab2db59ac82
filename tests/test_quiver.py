import itertools
import sys

import pytest

from sigmaring.quiver import Quiver, QuiverCycle, index_sets
from sigmaring.words import Letter, Naming, Word, canonicalize, is_primitive, word_text

XYZ = Naming.xyz(1, 1, 1)


def texts(cycles):
    return [word_text(c.word, XYZ) for c in cycles]


def is_closed_path(q, word: Word) -> bool:
    for start in (1, 2):
        at = start
        ok = True
        for lt in word:
            at = q.step(lt, at)
            if at is None:
                ok = False
                break
        if ok and at == start:
            return True
    return False


def test_step_table():
    q = Quiver(1, 1, 1)
    # x loops at 1, x' at 2; y-block leaves 1; z-block returns
    assert q.step(Letter(1), 1) == 1 and q.step(Letter(1), 2) is None
    assert q.step(Letter(1, True), 2) == 2 and q.step(Letter(1, True), 1) is None
    assert q.step(Letter(2), 1) == 2 and q.step(Letter(2, True), 1) == 2
    assert q.step(Letter(2), 2) is None
    assert q.step(Letter(3), 2) == 1 and q.step(Letter(3, True), 2) == 1
    assert q.step(Letter(3), 1) is None


def test_kind_packing():
    q = Quiver(2, 1, 3)
    assert [q.kind(i) for i in range(1, 7)] == ["x", "x", "y", "z", "z", "z"]
    with pytest.raises(ValueError):
        q.kind(7)


def test_closed_cycles_small_budgets():
    q = Quiver(1, 1, 1)
    assert texts(q.closed_cycles({1: 1})) == ["[x]"]
    assert texts(q.closed_cycles({1: 3})) == ["[x]"]  # powers are not primitive
    assert texts(q.closed_cycles({2: 1, 3: 1})) == ["[y z]", "[y z']"]
    got = texts(q.closed_cycles({1: 1, 2: 1, 3: 1}))
    assert got == [
        "[x]",
        "[y z]",
        "[y z']",
        "[x y z]",
        "[x y z']",
        "[x y' z]",
        "[x y' z']",
    ]


def seen_set_closed_cycles(q, budget):
    """closed_cycles as every closed walk from vertex 1, canonicalized and
    deduplicated through a seen set."""
    budget = {i: budget.get(i, 0) for i in range(1, q.d + 1)}
    seen = set()
    found = []
    path = []

    def record():
        w = Word(path)
        root, power = canonicalize(w)
        if power != 1 or root in seen:
            return
        seen.add(root)
        md = [0] * q.d
        deg_y = deg_z = 0
        for lt in root:
            md[lt.index - 1] += 1
            if not lt.transposed:
                k = q.kind(lt.index)
                if k == "y":
                    deg_y += 1
                elif k == "z":
                    deg_z += 1
        found.append(QuiverCycle(root, tuple(md), deg_y, deg_z))

    def walk(at):
        if at == 1 and path:
            record()
        for lt, nxt in q.steps_from(at):
            if budget[lt.index] == 0:
                continue
            budget[lt.index] -= 1
            path.append(lt)
            walk(nxt)
            path.pop()
            budget[lt.index] += 1

    walk(1)
    found.sort(key=QuiverCycle.key)
    return found


def budgets_up_to(d, total):
    """Every budget over letters 1..d with total degree at most `total`."""
    for comp in itertools.product(range(total + 1), repeat=d):
        if sum(comp) <= total:
            yield {i + 1: k for i, k in enumerate(comp)}


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (3, 0, 0)])
def test_closed_cycles_match_seen_set_walk(blocks):
    q = Quiver(*blocks)

    def rows(cycles):
        return [(tuple(c.word), c.mdeg, c.deg_y, c.deg_z) for c in cycles]

    for budget in budgets_up_to(q.d, 7):
        assert rows(q.closed_cycles(budget)) == rows(seen_set_closed_cycles(q, budget))


def test_closed_cycles_rejects_negative_budget():
    q = Quiver(1, 1, 1)
    for budget in ({1: -1}, {1: 1, 3: -2}):
        with pytest.raises(ValueError, match="negative degree budget"):
            q.closed_cycles(budget)


def test_cycles_are_canonical_closed_and_primitive():
    q = Quiver(1, 2, 1)
    for c in q.closed_cycles({1: 2, 2: 1, 3: 1, 4: 2}):
        assert is_closed_path(q, c.word)
        root, e = canonicalize(c.word)
        assert e == 1 and root == c.word
        assert is_primitive(c.word)
        assert sum(c.mdeg) == len(c.word)


def test_cycle_degrees_count_untransposed_only():
    q = Quiver(1, 1, 1)
    by_text = {word_text(c.word, XYZ): c for c in q.closed_cycles({1: 1, 2: 1, 3: 1})}
    assert (by_text["[y z]"].deg_y, by_text["[y z]"].deg_z) == (1, 1)
    assert (by_text["[y z']"].deg_y, by_text["[y z']"].deg_z) == (1, 0)
    assert (by_text["[x y' z']"].deg_y, by_text["[x y' z']"].deg_z) == (0, 0)


def test_index_sets_basics():
    q = Quiver(1, 1, 1)
    assert list(index_sets(q, {})) == [()]
    got = list(index_sets(q, {1: 3}))
    assert len(got) == 1 and got[0][0][0] == 3  # only x^3, exponent 3
    # unbalanced targets admit no closed-path decomposition
    assert list(index_sets(q, {2: 1})) == []
    assert list(index_sets(q, {2: 2, 3: 1})) == []


def test_index_sets_multidegree_and_distinctness():
    q = Quiver(1, 1, 1)
    target = {1: 1, 2: 1, 3: 1}
    sels = list(index_sets(q, target))
    seen = set()
    for sel in sels:
        total = [0, 0, 0]
        words = [c.word for _, c in sel]
        assert len(set(words)) == len(words)  # pairwise distinct classes
        for j, c in sel:
            assert j >= 1
            for i in range(3):
                total[i] += j * c.mdeg[i]
        assert total == [1, 1, 1]
        key = tuple(sorted((j, c.word) for j, c in sel))
        assert key not in seen
        seen.add(key)
    # 4 three-cycles plus 2 pairs {x, two-cycle}
    assert len(sels) == 6


def test_index_sets_exponents():
    q = Quiver(1, 1, 1)
    sels = list(index_sets(q, {2: 2, 3: 2}))
    keys = {
        tuple(sorted((j, word_text(c.word, XYZ)) for j, c in sel)) for sel in sels
    }
    assert ((2, "[y z]"),) in keys
    assert ((1, "[y z']"), (1, "[y z]")) in keys
    # four-letter primitive cycles appear with exponent 1
    assert any(any(len(c.word) == 4 for _, c in sel) for sel in sels)


def skip_first_oracle(q, target):
    """index_sets as one recursion frame per cycle, skipped or picked."""
    goal = tuple(target.get(i, 0) for i in range(1, q.d + 1))
    cycles = q.closed_cycles({i + 1: g for i, g in enumerate(goal)})
    chosen = []

    def descend(i, remaining):
        if not any(remaining):
            yield tuple(chosen)
            return
        if i >= len(cycles):
            return
        yield from descend(i + 1, remaining)
        j = 1
        while True:
            nxt = tuple(r - j * m for r, m in zip(remaining, cycles[i].mdeg))
            if any(r < 0 for r in nxt):
                break
            chosen.append((j, cycles[i]))
            yield from descend(i + 1, nxt)
            chosen.pop()
            j += 1

    yield from descend(0, goal)


@pytest.mark.parametrize(
    "blocks, target",
    [
        ((1, 1, 1), {1: 2, 2: 2, 3: 2}),
        ((1, 1, 1), {1: 3, 2: 2, 3: 2}),
        ((1, 1, 1), {2: 3, 3: 3}),
        ((2, 1, 1), {1: 1, 2: 2, 3: 1, 4: 1}),
        ((0, 2, 2), {1: 1, 2: 1, 3: 1, 4: 1}),
        # one component much larger than the rest: fields of unequal width
        ((1, 1, 1), {1: 8, 2: 1, 3: 1}),
        # zero components between nonzero ones
        ((1, 2, 2), {1: 1, 2: 2, 3: 0, 4: 1, 5: 1}),
        ((2, 1, 1), {1: 2, 2: 0, 3: 2, 4: 2}),
        # x^4 and (y z)^4 use up a component exactly, at a power of two
        ((1, 1, 1), {1: 4, 2: 2, 3: 2}),
        ((1, 1, 1), {2: 4, 3: 4}),
        # the sigma-tr targets of the benchmark's kernels workload
        ((1, 1, 1), {1: 5, 2: 2, 3: 2}),
        ((1, 1, 1), {1: 2, 2: 3, 3: 3}),
        # multilinear targets: every selection is a set of distinct cycles
        ((2, 2, 2), {i: 1 for i in range(1, 7)}),
        ((4, 2, 2), {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 7: 1}),
    ],
)
def test_index_sets_order_matches_skip_first_recursion(blocks, target):
    q = Quiver(*blocks)
    assert list(index_sets(q, target)) == list(skip_first_oracle(q, target))


def test_index_sets_many_cycles_at_default_recursion_limit():
    # the index sets of sigma_{2,4}: more cycles than the recursion limit
    q = Quiver(1, 1, 1)
    target = {1: 2, 2: 4, 3: 4}
    goal = (2, 4, 4)
    cycles = q.closed_cycles(target)
    assert len(cycles) > sys.getrecursionlimit()
    # count the selections by a table over remaining multidegrees
    ways = {goal: 1}
    for c in cycles:
        nxt = dict(ways)
        for rem, k in ways.items():
            j = 1
            while all(r >= j * m for r, m in zip(rem, c.mdeg)):
                key = tuple(r - j * m for r, m in zip(rem, c.mdeg))
                nxt[key] = nxt.get(key, 0) + k
                j += 1
        ways = nxt
    count = 0
    for sel in index_sets(q, target):
        total = [sum(j * c.mdeg[i] for j, c in sel) for i in range(3)]
        assert tuple(total) == goal
        count += 1
    assert count == ways[(0, 0, 0)] > 0
