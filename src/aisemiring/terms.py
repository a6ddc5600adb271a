"""Terms and identities over additively idempotent semirings.

A term is kept in a canonical normal form: a nonempty, duplicate-free,
sorted tuple of nonempty words, where a word is a tuple of variable
names. Addition is set union, multiplication distributes through, and
additive idempotency is absorbed by the set representation, so equality
of normal forms is plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

Word = tuple[str, ...]


class TermSyntaxError(ValueError):
    """Malformed term or identity text; carries the offending column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class UnboundVariableError(KeyError):
    pass


def word_str(w: Word) -> str:
    return "".join(w)


def _word_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


class TermNF:
    """A sum of words in normal form.

    The word tuple is sorted by (length, lexicographic) and free of
    duplicates; instances are immutable and hashable.
    """

    __slots__ = ("words",)

    words: tuple[Word, ...]

    def __init__(self, words: Iterable[Word]):
        seen = {tuple(w) for w in words}
        if not seen:
            raise ValueError("a term needs at least one word")
        for w in seen:
            if not w:
                raise ValueError("words must be nonempty")
        object.__setattr__(self, "words", tuple(sorted(seen, key=_word_key)))

    def __setattr__(self, name, value):
        raise AttributeError("TermNF is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, TermNF) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __add__(self, other: "TermNF") -> "TermNF":
        return TermNF(self.words + other.words)

    def __mul__(self, other: "TermNF") -> "TermNF":
        return TermNF(u + v for u in self.words for v in other.words)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for w in self.words for v in w}))

    def size(self) -> int:
        """Total number of variable occurrences across all words."""
        return sum(len(w) for w in self.words)

    def contains(self, other: "TermNF") -> bool:
        return set(other.words) <= set(self.words)

    def __str__(self) -> str:
        return "+".join(word_str(w) for w in self.words)

    def __repr__(self) -> str:
        return f"TermNF({self})"


def term_of(text: str) -> TermNF:
    """Parse a single term (no identity separator)."""
    toks = _tokenize(text)
    term, pos = _parse_sum(toks, 0)
    if pos != len(toks):
        raise TermSyntaxError("unexpected trailing input", toks[pos][2])
    return term


@dataclass(frozen=True)
class Identity:
    """An ordered pair of normal-form terms sharing a variable universe."""

    lhs: TermNF
    rhs: TermNF

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.lhs.variables()) | set(self.rhs.variables())))

    @property
    def trivial(self) -> bool:
        return self.lhs == self.rhs

    def mirror(self) -> "Identity":
        """Reverse every word on both sides (the multiplicative dual)."""
        return Identity(
            TermNF(tuple(reversed(w)) for w in self.lhs.words),
            TermNF(tuple(reversed(w)) for w in self.rhs.words),
        )

    def swapped(self) -> "Identity":
        return Identity(self.rhs, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


# ---------------------------------------------------------------------------
# parsing
#
# identity := sum ('≈' | '==' | '=') sum
# sum      := product ('+' product)*
# product  := primary (('*')? primary)*
# primary  := VARRUN | '(' sum ')'
#
# A variable is a lowercase letter with optional trailing digits; an
# unspaced letter run such as "x1x2" is the product of its variables.


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()+*":
            toks.append(("op", c, i))
            i += 1
            continue
        if c == "≈":  # ≈
            toks.append(("sep", c, i))
            i += 1
            continue
        if c == "=":
            j = i + 1
            if j < n and text[j] == "=":
                j += 1
            toks.append(("sep", "=", i))
            i = j
            continue
        if c.isalpha() and c.islower() and c.isascii():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("var", text[i:j], i))
            i = j
            continue
        raise TermSyntaxError(f"unexpected character {c!r}", i)
    return toks


def _parse_primary(toks, pos) -> tuple[TermNF, int]:
    if pos >= len(toks):
        where = toks[-1][2] + 1 if toks else 0
        raise TermSyntaxError("unexpected end of input", where)
    kind, val, at = toks[pos]
    if kind == "var":
        return TermNF([(val,)]), pos + 1
    if kind == "op" and val == "(":
        inner, pos = _parse_sum(toks, pos + 1)
        if pos >= len(toks) or toks[pos][:2] != ("op", ")"):
            raise TermSyntaxError("missing closing parenthesis", at)
        return inner, pos + 1
    raise TermSyntaxError(f"unexpected token {val!r}", at)


def _parse_product(toks, pos) -> tuple[TermNF, int]:
    term, pos = _parse_primary(toks, pos)
    while pos < len(toks):
        kind, val, _ = toks[pos]
        if kind == "op" and val == "*":
            nxt, pos = _parse_primary(toks, pos + 1)
        elif kind == "var" or (kind == "op" and val == "("):
            nxt, pos = _parse_primary(toks, pos)
        else:
            break
        term = term * nxt
    return term, pos


def _parse_sum(toks, pos) -> tuple[TermNF, int]:
    term, pos = _parse_product(toks, pos)
    while pos < len(toks) and toks[pos][:2] == ("op", "+"):
        nxt, pos = _parse_product(toks, pos + 1)
        term = term + nxt
    return term, pos


def parse_identity(text: str) -> Identity:
    """Parse an identity; both sides come back in normal form."""
    toks = _tokenize(text)
    sep_positions = [i for i, t in enumerate(toks) if t[0] == "sep"]
    if not sep_positions:
        raise TermSyntaxError("identity needs a '=' or '≈' separator", len(text))
    if len(sep_positions) > 1:
        raise TermSyntaxError("more than one separator", toks[sep_positions[1]][2])
    sep = sep_positions[0]
    if sep == 0:
        raise TermSyntaxError("empty left-hand side", toks[0][2])
    lhs, pos = _parse_sum(toks[:sep], 0)
    if pos != sep:
        raise TermSyntaxError("unexpected token before separator", toks[pos][2])
    right_toks = toks[sep + 1 :]
    if not right_toks:
        raise TermSyntaxError("empty right-hand side", toks[sep][2] + 1)
    rhs, pos = _parse_sum(right_toks, 0)
    if pos != len(right_toks):
        raise TermSyntaxError("unexpected trailing input", right_toks[pos][2])
    return Identity(lhs, rhs)


def parse_identities(text: str) -> list[Identity]:
    """Parse an identities file: one identity per line, '#' comments."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_identity(line))
    return out


# ---------------------------------------------------------------------------
# substitution and the sum decomposition


Substitution = Mapping[str, TermNF]


def substitute(t: TermNF, sigma: Substitution) -> TermNF:
    """Apply a substitution homomorphically and renormalize."""
    result: TermNF | None = None
    for w in t.words:
        img: TermNF | None = None
        for v in w:
            if v not in sigma:
                raise UnboundVariableError(v)
            img = sigma[v] if img is None else img * sigma[v]
        assert img is not None
        result = img if result is None else result + img
    assert result is not None
    return result


def rename(t: TermNF, mapping: Mapping[str, str]) -> TermNF:
    return TermNF(tuple(mapping.get(v, v) for v in w) for w in t.words)


@dataclass(frozen=True)
class DecomposedPiece:
    identity: Identity
    trivial: bool


def decompose_identity(ident: Identity) -> list[DecomposedPiece]:
    """Split u = v into the one-word-absorption identities.

    For u with words u_1..u_k and v with words v_1..v_l, returns
    u = u + v_j for each j followed by v = v + u_i for each i. A piece
    whose absorbed word is already a summand is trivial and flagged.
    """
    pieces = []
    for side, other in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
        for w in other.words:
            enlarged = side + TermNF([w])
            pieces.append(
                DecomposedPiece(Identity(side, enlarged), trivial=(enlarged == side))
            )
    return pieces
