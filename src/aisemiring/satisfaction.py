"""Identity satisfaction in finite algebras, and the named identity
catalog.

`satisfies` is the exhaustive semantic check. Identities in varieties
inside R (xy = xz) are decided from the closed form of F_R(k) by
`variety.holds_in`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteAlgebra, ResourceBudgetError
from .terms import Identity, TermNF, parse_identity

DEFAULT_ASSIGNMENT_BUDGET = 10**8


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
