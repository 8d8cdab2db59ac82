"""Two-column arrow tableaux and their determinant-pfaffian functions.

A tableau of n rows is a set of n labeled arrows whose 2n endpoints fill
the 2n cells (column, row), column in {1, 2}, exactly once.  Its function
bpf on n x n matrices X_1, X_2, ... is

    sum over pi_1, pi_2 in S_n of sign(pi_1) sign(pi_2) *
        prod over arrows a of (X_label(a))[pi_tailcol(tailrow), pi_headcol(headrow)]

restricted so that for arrows with equal labels the tail-column permutation
is increasing along their tail rows.  Dropping the restriction and dividing
by the product of factorials of the label multiplicities gives the same
function in characteristic zero.

The builder T(t, r) stacks t horizontal x-arrows over r vertical (y, z)
arrow pairs; bpf(T(t, r)) coincides with sigma_{t,r} on matrices of size
n = t + 2r.  Every form of every tableau is read off one Pfaffian, the
determinant-pfaffian identity of Lopatin-Zubkov: with the arrows grouped
by g = (label, tail column, head column), m_g arrows each,

    bpf(T) = eps(T) [prod w_g^(m_g)] Pf(sum_g w_g B_g),

where B_g holds X_label in block (tail column, head column) of a 2n x 2n
skew matrix and eps(T) is the sign of the cells read arrow by arrow,
tail then head.  Rows enter only through eps, so permuting the column-2
rows by tau multiplies bpf by sign(tau).  The full form multiplies by
prod m_g!, and the Q form is the restricted value once that divisor is
invertible in the field.  On T(t, r), its tau-images and every form the
coefficient is interpolated in one weight from at most n // 2 + 1
Pfaffians; a multilinear tableau costs 2^n Pfaffians and is refused
beyond n = DEGREE_GUARD = 10.  A tableau whose arrows of one label and tail
column end in both columns is refused: the identity fails there.
Both rules read the raw entries of `ExactMatrix` rows directly and map
only the value they return into the field: a Fraction over Q, an int in
[0, p) over F_p.  Each Pfaffian is the
exact rational one, over Q and over F_p alike: _pfaffian clears the
denominators, bounds the integer Pfaffian by Hadamard's inequality and
recovers it by the Chinese remainder theorem from skew eliminations on
ints modulo primes just below 2^62, enough of them for their product to
exceed twice that bound; no Fraction enters the elimination.
decompose() recovers that sigma-polynomial combinatorially: closed paths
of T with its column-2 rows permuted by xi split into transpose pairs
whose words, when all primitive, contribute sign(xi) * prod
s_{j_i}(word_i), deduplicated over xi.  The sign of a path is also given
by a closed form and by a rewriting recursion on its word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, lcm, prod
from typing import NamedTuple

from .matrices import ExactMatrix, _is_prime, _reduce, as_element
from .ring import Monomial, SigmaGen, SigmaPoly
from .sigmatr import _check_degree
from .words import Letter, Word, canonicalize

Cell = tuple[int, int]  # (column, row), both 1-based


class Arrow(NamedTuple):
    label: int
    tail: Cell
    head: Cell


class Element(NamedTuple):
    """An arrow of the tableau or its formal transpose."""

    arrow: int
    transposed: bool


class Tableau:
    def __init__(self, arrows: list[Arrow], kinds: dict[int, str] | None = None):
        self.arrows = [Arrow(*a) for a in arrows]
        self.n = len(self.arrows)
        self.kinds = dict(kinds) if kinds else None
        cells = [c for a in self.arrows for c in (a.tail, a.head)]
        expected = {(c, r) for c in (1, 2) for r in range(1, self.n + 1)}
        if len(set(cells)) != 2 * self.n or set(cells) != expected:
            raise ValueError("arrow endpoints must fill every cell exactly once")
        if any(a.label < 1 for a in self.arrows):
            raise ValueError("labels must be positive")
        # every cell is the tail of exactly one element (arrow or transpose)
        self._tail_at: dict[Cell, Element] = {}
        for i, a in enumerate(self.arrows):
            self._tail_at[a.tail] = Element(i, False)
            self._tail_at[a.head] = Element(i, True)

    def apply_tau(self, tau: tuple[int, ...]) -> "Tableau":
        """Permute the rows of the column-2 cells: tau[r-1] is the image
        of row r; column-1 cells stay put."""
        if sorted(tau) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of the rows")

        def move(cell: Cell) -> Cell:
            c, r = cell
            return (c, tau[r - 1]) if c == 2 else cell

        return Tableau(
            [Arrow(a.label, move(a.tail), move(a.head)) for a in self.arrows],
            self.kinds,
        )

    # -- elements ----------------------------------------------------------

    def tail_of(self, e: Element) -> Cell:
        a = self.arrows[e.arrow]
        return a.head if e.transposed else a.tail

    def head_of(self, e: Element) -> Cell:
        a = self.arrows[e.arrow]
        return a.tail if e.transposed else a.head

    def letter_of(self, e: Element) -> Letter:
        return Letter(self.arrows[e.arrow].label, e.transposed)

    def successor(self, e: Element) -> Element:
        c, r = self.head_of(e)
        return self._tail_at[(3 - c, r)]

    def labels(self) -> set[int]:
        return {a.label for a in self.arrows}


def build_T(t: int, r: int, multilinear: bool = False) -> Tableau:
    """t horizontal x-rows on top, then r stacked (y, z) vertical pairs."""
    if t < 0 or r < 0:
        raise ValueError("t and r must be nonnegative")
    arrows = []
    for i in range(1, t + 1):
        arrows.append(Arrow(i if multilinear else 1, (1, i), (2, i)))
    for j in range(1, r + 1):
        lo, hi = t + 2 * j - 1, t + 2 * j
        arrows.append(Arrow(t + j if multilinear else 2, (1, lo), (1, hi)))
        arrows.append(Arrow(t + r + j if multilinear else 3, (2, lo), (2, hi)))
    if multilinear:
        kinds = {i: "x" for i in range(1, t + 1)}
        kinds.update({t + j: "y" for j in range(1, r + 1)})
        kinds.update({t + r + j: "z" for j in range(1, r + 1)})
    else:
        kinds = {1: "x", 2: "y", 3: "z"}
    return Tableau(arrows, kinds)


# ---------------------------------------------------------------------------
# bpf and the dp specialization.
# ---------------------------------------------------------------------------


def _perm_sign(p: tuple[int, ...]) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def bpf(T: Tableau, mats: dict[int, ExactMatrix], form: str = "restricted"):
    """Evaluate the tableau function; form is "restricted", "full" or "Q"
    (full divided by the label-multiplicity factorials; needs those
    factorials invertible in the field).  Every form is read off the one
    Pfaffian of _pfaffian_coefficient.  The value is a Fraction over Q and
    an int in [0, p) over F_p."""
    if form not in ("restricted", "full", "Q"):
        raise ValueError(f"unknown form {form!r}")
    n = T.n
    for lab in T.labels():
        if lab not in mats:
            raise ValueError(f"no matrix for label {lab}")
        if mats[lab].n != n:
            raise ValueError("matrix size must equal the number of rows")
    # A tableau without arrows (n = 0) evaluates to the empty product 1.
    fields = {m.field for m in mats.values()} or {"Q"}
    if len(fields) > 1:
        raise ValueError("matrices must share one field")
    (field,) = fields
    groups: dict[tuple[int, int, int], int] = {}
    heads: dict[tuple[int, int], int] = {}
    for a in T.arrows:
        g = (a.label, a.tail[0], a.head[0])
        if heads.setdefault(g[:2], g[2]) != g[2]:
            raise ValueError(
                f"label {a.label} has arrows from column {g[1]} into both columns"
            )
        groups[g] = groups.get(g, 0) + 1
    divisor = prod(factorial(m) for m in groups.values())
    if form == "Q":
        # refuses a divisor that vanishes mod p before any Pfaffian
        _reduce(Fraction(1, divisor), field)
    cells = tuple((c - 1) * n + row - 1 for a in T.arrows for c, row in (a.tail, a.head))
    value = _perm_sign(cells) * _pfaffian_coefficient(groups, mats, n)
    return as_element(value * divisor if form == "full" else value, field)


def _pfaffian_coefficient(
    groups: dict[tuple[int, int, int], int], mats: dict[int, ExactMatrix], n: int
) -> Fraction:
    """[prod w_g^(m_g)] Pf(sum_g w_g B_g) for the arrow groups
    g = (label, tail column, head column) with m_g arrows each.

    B_g is the 2n x 2n skew matrix with X_label in block (tail column,
    head column) and -X_label^T in the mirrored block.  Pf is homogeneous
    of degree n = sum m_g in the weights.  With at most one group per kind
    (horizontal, vertical in column 1, vertical in column 2) a perfect
    matching has as many pairs inside column 1 as inside column 2, so the
    other two weights are set to 1 and the column-1 weight lambda, if
    there is one, is interpolated from lambda = 0, ..., n // 2.
    Otherwise the coefficient is the mixed forward difference
    Delta^m Pf(0) / prod m_g! over the grid prod (m_g + 1), 2^n Pfaffians
    for a multilinear tableau, which is refused beyond n = DEGREE_GUARD.  Over F_p it runs on the raw integer
    representatives of the entries: both sides are integer polynomials in
    the entries.
    """

    def pf(weights: dict[tuple[int, int, int], int]) -> Fraction:
        m = [[0] * (2 * n) for _ in range(2 * n)]
        for (label, tail_col, head_col), w in weights.items():
            if not w:
                continue
            top, left = (tail_col - 1) * n, (head_col - 1) * n
            for i, row in enumerate(mats[label].rows):
                for j, v in enumerate(row):
                    m[top + i][left + j] += w * v
                    m[left + j][top + i] -= w * v
        return _pfaffian(m)

    kinds = [tail_col if tail_col == head_col else 0 for _, tail_col, head_col in groups]
    if len(set(kinds)) == len(kinds):
        lam = next((g for g in groups if g[1] == g[2] == 1), None)
        points = n // 2 + 1 if lam else 1  # without lambda Pf is one constant
        values = [pf({g: v if g == lam else 1 for g in groups}) for v in range(points)]
        return _coefficient(values, groups.get(lam, 0))
    _check_degree(n)
    total = Fraction(0)
    for point in product(*(range(m + 1) for m in groups.values())):
        weight = prod(
            (-1) ** (m - k) * comb(m, k) for m, k in zip(groups.values(), point)
        )
        total += weight * pf(dict(zip(groups, point)))
    return total / prod(factorial(m) for m in groups.values())


_PRIMES: list[int] = []  # the primes below 2^62, descending; found on first use


def _prime(i: int) -> int:
    """The i-th largest prime below 2^62, i = 0, 1, ..."""
    while len(_PRIMES) <= i:
        p = _PRIMES[-1] - 2 if _PRIMES else 2**62 - 1
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[i]


def _pfaffian(m: list[list]) -> Fraction:
    """Exact Pfaffian of a skew-symmetric matrix of ints and Fractions.

    The matrix is scaled by the lcm L of its denominators, so that
    Pf(m) = Pf(L m) / L^(size/2) with Pf(L m) an integer.  Hadamard's
    bound H = prod over rows of sum_j a_ij^2 gives Pf^4 = det^2 <= H.  The
    integer Pfaffian is computed modulo primes just below 2^62
    (_pfaffian_mod) until their product M satisfies M^4 > 16 H, i.e.
    M > 2 |Pf|, and recovered exactly by the Chinese remainder theorem as
    the representative in (-M/2, M/2]."""
    scale = lcm(*(v.denominator for row in m for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in m]
    bound = 16 * prod(sum(v * v for v in row) for row in a)
    residue, modulus, i = 0, 1, 0
    while modulus**4 <= bound:
        p = _prime(i)
        r = _pfaffian_mod(a, p)
        residue += modulus * ((r - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        i += 1
    if residue > modulus // 2:
        residue -= modulus
    return Fraction(residue, scale ** (len(m) // 2))


def _pfaffian_mod(m: list[list[int]], p: int) -> int:
    """Pfaffian mod p of a skew-symmetric integer matrix by skew Gaussian
    elimination over F_p: Pf [[B, C], [-C^T, D]] = Pf(B) Pf(D + C^T B^-1 C)
    with B the leading 2 x 2 block, whose entry a = m[0][1] is made
    nonzero mod p by swapping an index into position 1 (each swap flips
    the sign)."""
    a = [[v % p for v in row] for row in m]
    pf = 1
    while a:
        piv = next((j for j in range(1, len(a)) if a[0][j]), None)
        if piv is None:
            return 0
        if piv != 1:
            a[1], a[piv] = a[piv], a[1]
            for row in a:
                row[1], row[piv] = row[piv], row[1]
            pf = -pf
        pivot = a[0][1]
        pf = pf * pivot % p
        inv = pow(pivot, -1, p)
        q0, q1 = a[0][2:], [v * inv % p for v in a[1][2:]]
        a = [
            [(v + q1[i] * q0[j] - q0[i] * q1[j]) % p for j, v in enumerate(row[2:])]
            for i, row in enumerate(a[2:])
        ]
    return pf % p


def _coefficient(values: list[Fraction], k: int) -> Fraction:
    """[lambda^k] of the polynomial of degree < len(values) that takes
    values[i] at lambda = i (Lagrange interpolation)."""
    total = Fraction(0)
    for i, v in enumerate(values):
        basis = [Fraction(1)]  # prod over j != i of (lambda - j) / (i - j)
        for j in range(len(values)):
            if j != i:
                shifted = [Fraction(0)] + basis
                basis = [(hi - j * lo) / (i - j) for hi, lo in zip(shifted, basis + [0])]
        total += v * basis[k]
    return total


def dp(r: int, x: ExactMatrix, y: ExactMatrix, z: ExactMatrix):
    """bpf of T(n - 2r, r) at (x, y, z) for n x n inputs."""
    n = x.n
    if n - 2 * r < 0:
        raise ValueError("need 2r <= n")
    return bpf(build_T(n - 2 * r, r), {1: x, 2: y, 3: z})


# ---------------------------------------------------------------------------
# Closed paths and the combinatorial decomposition.
# ---------------------------------------------------------------------------


def closed_path_reps(T: Tableau) -> list[list[Element]]:
    """One representative per transpose pair of closed paths.

    Successive elements share a row between the head of one and the tail of
    the next in opposite columns, which makes the successor map a
    permutation of the 2n arrows-and-transposes; its cycles come in
    transpose pairs and the representatives' lengths add up to n.
    """
    all_elements = [Element(i, tr) for i in range(T.n) for tr in (False, True)]
    seen: set[Element] = set()
    cycles: list[list[Element]] = []
    for e0 in all_elements:
        if e0 in seen:
            continue
        cycle = [e0]
        seen.add(e0)
        e = T.successor(e0)
        while e != e0:
            cycle.append(e)
            seen.add(e)
            e = T.successor(e)
        cycles.append(cycle)

    reps: list[list[Element]] = []
    taken: set[frozenset[Element]] = set()
    for cycle in cycles:
        key = frozenset(cycle)
        mate = frozenset(Element(i, not tr) for i, tr in cycle)
        if mate == key:
            raise ValueError("closed path equal to its own transpose")
        if mate in taken:
            continue
        taken.add(key)
        reps.append(cycle)
    assert sum(len(c) for c in reps) == T.n
    return reps


def path_word(T: Tableau, path: list[Element]) -> Word:
    return Word([T.letter_of(e) for e in path])


def decompose(T: Tableau) -> SigmaPoly:
    """The signed sum over distinct primitive closed-path selections
    arising from all column permutations of T, for n <= 6."""
    if T.n > 6:
        raise ValueError("decompose enumerates S_n; n is capped at 6")
    found: dict[Monomial, int] = {}
    for xi in permutations(range(1, T.n + 1)):
        Ti = T.apply_tau(xi)
        roots = []
        ok = True
        for path in closed_path_reps(Ti):
            root, power = canonicalize(path_word(Ti, path))
            if power != 1:
                ok = False
                break
            roots.append(root)
        if not ok:
            continue
        counts: dict[Word, int] = {}
        for root in roots:
            counts[root] = counts.get(root, 0) + 1
        mono = tuple(sorted([SigmaGen(j, c) for c, j in counts.items()]))
        sign = _perm_sign(xi)
        old = found.setdefault(mono, sign)
        assert old == sign, "conflicting signs for one selection"
    return SigmaPoly(found)


# ---------------------------------------------------------------------------
# Two independent sign computations for one closed path.
# ---------------------------------------------------------------------------


def _kind(T: Tableau, lt: Letter) -> str:
    if not T.kinds:
        raise ValueError("tableau carries no label kinds")
    return T.kinds[lt.index]


def path_sign_closed_form(T: Tableau, word: Word) -> int:
    """(-1) ** (deg_x + deg_x' + deg_y' + deg_z' + 1)."""
    e = 1
    for lt in word:
        k = _kind(T, lt)
        if k == "x" or (lt.transposed and k in ("y", "z")):
            e += 1
    return (-1) ** e


_DROPS = {
    ("y", False, "z", False): 1,
    ("y", False, "z", True): -1,
    ("z", False, "y", False): 1,
    ("z", True, "y", False): -1,
}


def path_sign_rules(T: Tableau, word: Word) -> int:
    """Rewriting recursion on the path word, cyclically invariant:
    strip untransposed x-letters with a sign flip, fall back to the
    transposed word when only transposed letters block progress, drop
    adjacent y/z pairs with the tabulated signs, and read off two-letter
    and pure-x base cases directly."""
    letters = list(word)
    kinds = [_kind(T, lt) for lt in letters]
    if all(k == "x" for k in kinds):
        if all(not lt.transposed for lt in letters):
            return (-1) ** (len(letters) + 1)
        if all(lt.transposed for lt in letters):
            return path_sign_rules(T, word.T)
        raise ValueError("x and transposed x cannot meet in one closed path")
    for i, lt in enumerate(letters):
        if kinds[i] == "x" and not lt.transposed:
            return -path_sign_rules(T, Word(letters[:i] + letters[i + 1 :]))
    if any(k == "x" for k in kinds):
        return path_sign_rules(T, word.T)
    if len(letters) == 2:
        ntr = sum(1 for lt in letters if lt.transposed)
        return (-1) ** (ntr + 1)
    k = len(letters)
    for i in range(k):
        a, b = letters[i], letters[(i + 1) % k]
        s = _DROPS.get((kinds[i], a.transposed, kinds[(i + 1) % k], b.transposed))
        if s is not None:
            rest = [letters[j] for j in range(k) if j not in (i, (i + 1) % k)]
            return s * path_sign_rules(T, Word(rest))
    return path_sign_rules(T, word.T)
