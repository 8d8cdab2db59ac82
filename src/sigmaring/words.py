"""Words over a letter alphabet with a transpose involution.

Letters are pairs (index, transposed) with indices 1, 2, 3, ...; the
involution toggles the flag and reverses products.  Words are nonempty
(the monoid has no unity).  Two words are equivalent when one is a cyclic
rotation of the other or of its transpose; every equivalence class of a
primitive word has a unique canonical representative, chosen as the
lexicographic minimum over all rotations of the word and of its transpose
under the letter order x1 < x1' < x2 < x2' < ...

A Letter is a NamedTuple and a Word a tuple subclass over its letters, so
both hash, compare and sort in C, and that order is the canonical one: a
word needs no separate key.  A word equals the plain tuple of its letters,
and its slices are plain tuples; `*` of two words concatenates them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple


class Letter(NamedTuple):
    index: int
    transposed: bool = False

    @property
    def T(self) -> "Letter":
        return Letter(self.index, not self.transposed)


class Word(tuple):
    """Immutable nonempty tuple of letters.  A word is its own key: it
    hashes, compares and sorts as the tuple of its letters, in C."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("a word must contain at least one letter")
        for lt in letters:
            if not isinstance(lt, Letter) or lt.index < 1:
                raise ValueError(f"bad letter {lt!r}")
        return super().__new__(cls, letters)

    def __mul__(self, other: "Word") -> "Word":
        # concatenation, not tuple repetition
        return Word(tuple.__add__(self, other))

    def __repr__(self) -> str:
        body = " ".join(f"{lt.index}{'T' if lt.transposed else ''}" for lt in self)
        return f"Word[{body}]"

    @property
    def T(self) -> "Word":
        return Word(transpose_letters(self))


def _period(seq: tuple) -> int:
    """Least p such that seq is seq[:p] repeated; len(seq) when seq is
    primitive."""
    n = len(seq)
    return next(p for p in range(1, n + 1) if n % p == 0 and seq == seq[:p] * (n // p))


def is_primitive(w: Word) -> bool:
    """True iff w is not a proper power of a shorter word."""
    return _period(w) == len(w)


class _Flips(dict):
    """Letter -> the same letter with its flag toggled, made on first use."""

    def __missing__(self, lt: Letter) -> Letter:
        flipped = self[lt] = Letter(lt.index, not lt.transposed)
        return flipped


_flip = _Flips().__getitem__


def transpose_letters(seq: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters of the transpose: reversed, each flag toggled."""
    return tuple(map(_flip, reversed(seq)))


def least_rotation(seq: tuple) -> tuple:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def canonicalize(w: Word) -> tuple[Word, int]:
    """Canonical representative of the class of the primitive root of w.

    Returns (root, e) with w equivalent to root**e, e >= 1, and root the
    minimum over all rotations of the root and of its transpose, compared
    as letter tuples.
    """
    period = _period(w)
    root = w[:period]
    best = min(least_rotation(root), least_rotation(transpose_letters(root)))
    # the letters of w, rotated and possibly transposed: no check needed
    return tuple.__new__(Word, best), len(w) // period


def mdeg(w: Word, d: int) -> tuple[int, ...]:
    """Per-index degree vector of length d, a letter and its transpose counted together."""
    counts = [0] * d
    for lt in w:
        if lt.index > d:
            raise ValueError(f"letter index {lt.index} exceeds alphabet size {d}")
        counts[lt.index - 1] += 1
    return tuple(counts)


def mdeg_map(w: Word) -> dict[int, int]:
    counts: dict[int, int] = {}
    for lt in w:
        counts[lt.index] = counts.get(lt.index, 0) + 1
    return counts


def glue(w: Word, d: int) -> Word:
    """Collapse the extended alphabet: every index i+jd (j>0) becomes i."""
    if d < 1:
        raise ValueError("d must be positive")
    return Word(
        Letter((lt.index - 1) % d + 1, lt.transposed) for lt in w
    )


class LinComb:
    """Finite linear combination of words with nonzero rational coefficients.

    `word` is the word itself when the combination is one word with
    coefficient 1, else None, decided once at construction."""

    __slots__ = ("terms", "word")

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[w] = c
        object.__setattr__(self, "terms", clean)
        word = None
        if len(clean) == 1:
            ((w, c),) = clean.items()
            if c == 1:
                word = w
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @classmethod
    def of(cls, w: Word, coeff=1) -> "LinComb":
        return cls({w: Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return LinComb(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "LinComb":
        s = Fraction(scalar)
        return LinComb({w: s * c for w, c in self.terms.items()})

    def __mul__(self, other: "LinComb") -> "LinComb":
        # concatenation product, extended bilinearly
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return LinComb(out)

    def __repr__(self) -> str:
        return f"LinComb({self.terms!r})"

    @property
    def T(self) -> "LinComb":
        return LinComb({w.T: c for w, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        # the words are distinct, so no coefficient is ever compared
        return sorted(self.terms.items())


# ---------------------------------------------------------------------------
# Naming: the bridge between numeric letter indices and display names.
#
# Text grammar: a word is `[tok tok ...]` where tok is a base name with an
# optional subscript and an optional trailing apostrophe for the transpose,
# e.g. `[x1 y1' z1]`.  A bare name means subscript 1, so with one letter per
# kind `[x y' z]` is valid.  A linear combination is terms joined by `+`/`-`,
# each term an optional rational coefficient (`p/q` or integer) times a word:
# `2*[x1] - 1/3*[x2']`; a coefficient of +-1 may be omitted.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"([A-Za-z]+)(\d*)('?)")
_KIND_RANK = {"x": 0, "y": 1, "z": 2}


def _kind_key(kind: str, sub: int) -> tuple:
    return (_KIND_RANK.get(kind, 3), kind, sub)


class Naming:
    """Bidirectional map between letter indices and display names."""

    def __init__(self, names: Iterable[str]):
        self.names = list(names)
        self._to_index: dict[str, int] = {}
        for i, name in enumerate(self.names, start=1):
            self._register(name, i)

    def _register(self, name: str, index: int) -> None:
        m = _TOKEN_RE.fullmatch(name)
        if not m or m.group(3):
            raise ValueError(f"bad letter name {name!r}")
        self._to_index[name] = index
        kind, sub = m.group(1), m.group(2)
        # alias: `x` <-> `x1` refer to the same letter
        if sub == "":
            self._to_index.setdefault(kind + "1", index)
        elif sub == "1":
            self._to_index.setdefault(kind, index)

    @classmethod
    def xyz(cls, u: int = 1, v: int = 1, w: int = 1) -> "Naming":
        names = [f"x{i + 1}" if u > 1 else "x" for i in range(u)]
        names += [f"y{j + 1}" if v > 1 else "y" for j in range(v)]
        names += [f"z{k + 1}" if w > 1 else "z" for k in range(w)]
        return cls(names)

    @classmethod
    def single(cls, name: str) -> "Naming":
        return cls([name])

    @classmethod
    def generic(cls, d: int, base: str = "x") -> "Naming":
        return cls([f"{base}{i + 1}" for i in range(d)])

    @classmethod
    def scan(cls, text: str) -> "Naming":
        """Alphabet of all letter tokens inside brackets, ordered x < y < z < other."""
        seen: set[tuple[str, int]] = set()
        by_kind: dict[str, set[int]] = {}
        for body in re.findall(r"\[([^\]]*)\]", text):
            for tok in body.split():
                m = _TOKEN_RE.fullmatch(tok)
                if not m:
                    raise ValueError(f"bad letter token {tok!r}")
                kind, sub = m.group(1), int(m.group(2)) if m.group(2) else 1
                seen.add((kind, sub))
                by_kind.setdefault(kind, set()).add(sub)
        names = []
        for kind, sub in sorted(seen, key=lambda ks: _kind_key(*ks)):
            if sub == 1 and by_kind[kind] == {1}:
                names.append(kind)
            else:
                names.append(f"{kind}{sub}")
        return cls(names)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._to_index[name]
        except KeyError:
            raise ValueError(f"unknown letter {name!r}") from None

    def name(self, index: int) -> str:
        if not 1 <= index <= len(self.names):
            raise ValueError(f"letter index {index} outside alphabet of size {len(self.names)}")
        return self.names[index - 1]

    def letter_text(self, lt: Letter) -> str:
        return self.name(lt.index) + ("'" if lt.transposed else "")

    def parse_letter(self, tok: str) -> Letter:
        m = _TOKEN_RE.fullmatch(tok)
        if not m:
            raise ValueError(f"bad letter token {tok!r}")
        name = m.group(1) + m.group(2)
        return Letter(self.index(name), transposed=bool(m.group(3)))


def word_text(w: Word, naming: Naming) -> str:
    return "[" + " ".join(naming.letter_text(lt) for lt in w) + "]"


def parse_word(text: str, naming: Naming) -> Word:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"a word must be bracketed: {text!r}")
    toks = text[1:-1].split()
    if not toks:
        raise ValueError("empty word")
    return Word(naming.parse_letter(tok) for tok in toks)


def lincomb_text(lc: LinComb, naming: Naming) -> str:
    terms = lc.sorted_terms()
    if not terms:
        return "0"
    parts = []
    for i, (w, c) in enumerate(terms):
        mag = abs(c)
        body = ("" if mag == 1 else f"{mag}*") + word_text(w, naming)
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on +/- outside brackets; returns (sign, chunk) pairs."""
    chunks: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    cur: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if depth == 0 and ch in "+-":
            if cur and "".join(cur).strip():
                chunks.append((sign, "".join(cur).strip()))
                sign = 1
            sign *= -1 if ch == "-" else 1
            cur = []
            continue
        cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets")
    tail = "".join(cur).strip()
    if tail:
        chunks.append((sign, tail))
    return chunks


def parse_lincomb(text: str, naming: Naming) -> LinComb:
    text = text.strip()
    if text == "0":
        return LinComb()
    out: dict[Word, Fraction] = {}
    for sign, chunk in _split_terms(text):
        if "*" in chunk:
            coeff_txt, _, word_txt = chunk.partition("*")
            coeff = Fraction(coeff_txt.strip())
        else:
            coeff, word_txt = Fraction(1), chunk
        w = parse_word(word_txt.strip(), naming)
        c = sign * coeff
        out[w] = out.get(w, Fraction(0)) + c
    lc = LinComb(out)
    if not lc:
        raise ValueError("linear combination collapsed to zero")
    return lc
