"""Identity satisfaction in finite algebras.

`satisfies` is the exhaustive semantic check. `fast_satisfies` decides
identities of the absorption shape u = u + q in the four named
two-element algebras from word statistics alone, with no evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteAlgebra, ResourceBudgetError
from .terms import Identity, TermNF, Word, parse_identity, word_stats

DEFAULT_ASSIGNMENT_BUDGET = 10**8


class ShapeError(ValueError):
    """Identity is not of the u = u + q shape; decompose it first."""


@dataclass(frozen=True)
class SatisfactionResult:
    holds: bool
    assignment: dict[str, int] | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def evaluate(a: FiniteAlgebra, t: TermNF, assignment: dict[str, int]) -> int:
    """Value of a term: sum over words of left-folded products."""
    add, mul = a.add, a.mul
    total: int | None = None
    for w in t.words:
        try:
            acc = assignment[w[0]]
            for v in w[1:]:
                acc = mul[acc][assignment[v]]
        except KeyError as exc:
            raise KeyError(f"unbound variable {exc.args[0]!r}") from None
        total = acc if total is None else add[total][acc]
    assert total is not None
    return total


def satisfies(
    a: FiniteAlgebra,
    ident: Identity | str,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> SatisfactionResult:
    """Exhaustive scan over all assignments, in lexicographic order.

    The reported counterexample is the first one in that order, so
    results are reproducible. Raises ResourceBudgetError when the scan
    would exceed `budget` assignments.
    """
    if isinstance(ident, str):
        ident = parse_identity(ident)
    a.validate()
    variables = ident.variables()
    n = a.order
    if n ** len(variables) > budget:
        raise ResourceBudgetError(
            f"{n}^{len(variables)} assignments exceed the budget of {budget}"
        )
    for values in itertools.product(range(n), repeat=len(variables)):
        asg = dict(zip(variables, values))
        left = evaluate(a, ident.lhs, asg)
        right = evaluate(a, ident.rhs, asg)
        if left != right:
            return SatisfactionResult(False, asg, left, right)
    return SatisfactionResult(True)


# ---------------------------------------------------------------------------
# structural satisfaction for the two-element algebras


def absorption_shape(ident: Identity) -> tuple[TermNF, Word]:
    """Split a nontrivial u = u + q identity into (u, q).

    The right side must be the left side plus exactly one new word.
    """
    if ident.trivial:
        raise ShapeError("identity is trivial")
    lhs_words = set(ident.lhs.words)
    extra = [w for w in ident.rhs.words if w not in lhs_words]
    if len(extra) != 1 or not lhs_words <= set(ident.rhs.words):
        raise ShapeError(
            "expected shape u = u + q with one absorbed word; "
            "run decompose_identity first"
        )
    return ident.lhs, extra[0]


FAST_NAMES = ("L2", "R2", "N2", "T2")


def fast_satisfies(which: str, ident: Identity | str) -> bool:
    """Decide u = u + q in L2, R2, N2 or T2 from word statistics.

    L2 looks for a summand with the head of q, R2 for one with its
    tail, N2 only at the length of q, and T2 for any summand of
    length at least two.
    """
    if isinstance(ident, str):
        ident = parse_identity(ident)
    if which not in FAST_NAMES:
        raise ValueError(f"which must be one of {FAST_NAMES}")
    u, q = absorption_shape(ident)
    q_stats = word_stats(q)
    stats = [word_stats(w) for w in u.words]
    if which == "L2":
        return any(s.first == q_stats.first for s in stats)
    if which == "R2":
        return any(s.last == q_stats.last for s in stats)
    if which == "N2":
        return q_stats.length >= 2
    return any(s.length >= 2 for s in stats)


# ---------------------------------------------------------------------------
# the named identity catalog

_CATALOG_SOURCES: dict[str, tuple[str, ...]] = {
    "id0703": ("xy = xz",),
    "id0703_dual": ("yx = zx",),
    "L": ("xx = xx + yy",),
    "N": ("xx = xx + x",),
    "T": ("x = x + xx",),
    "lt02": ("xx = xx + x",),  # same identity as (N)
    "lt03": ("x + yy = xx + yy",),
    "ln02": ("x = x + xy",),
    "nt01": ("x1x2 = y1y2",),
    "lnt02": ("x + yy = x + yy + xx",),
    "base_L2": ("xy = x",),
    "base_R2": ("xy = y",),
    "base_N2": ("x1x2 = y1y2", "x = xx + x"),
    "base_T2": ("x1x2 = y1y2", "xx = xx + x"),
    "base_S56": ("xy = zy", "xx = xx + x"),
    "base_S58": ("xy = xz", "xx = xx + x"),
}

CATALOG: dict[str, tuple[Identity, ...]] = {
    label: tuple(parse_identity(s) for s in sources)
    for label, sources in _CATALOG_SOURCES.items()
}


def catalog_identity(label: str) -> Identity:
    """The single identity behind a catalog label (bases excluded)."""
    entry = CATALOG[label]
    if len(entry) != 1:
        raise ValueError(f"{label!r} is a multi-identity basis")
    return entry[0]


def classify_against_catalog(a: FiniteAlgebra) -> dict[str, bool]:
    """Satisfaction bit per catalog label, in the catalog's fixed order."""
    a.validate()
    return {
        label: all(satisfies(a, ident).holds for ident in entry)
        for label, entry in CATALOG.items()
    }
