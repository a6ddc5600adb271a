"""Plain-text algebra files.

One algebra per block, blocks separated by blank lines::

    name S58          # optional label
    order 3
    elements 1 2 3    # optional: fixes the label order explicitly
    add
    1 1 3
    1 2 3
    3 3 3
    mul
    3 3 3
    2 2 2
    3 3 3

Table entries use the source's own element labels (any whitespace-free
token). Row k is the row of the k-th element. Without an ``elements``
line the label order is inferred from first appearance scanning the add
block row-major, which is validated against the diagonal; tables where
that inference is ambiguous must carry an ``elements`` line. '#' starts
a comment.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra


class AlgebraFormatError(ValueError):
    pass


def _clean_lines(text: str) -> list[list[str]]:
    """Lines as token lists, comments stripped; empty lines kept as []."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        out.append(line.split() if line else [])
    return out


def loads(text: str, validate: bool = True) -> list[FiniteAlgebra]:
    lines = _clean_lines(text)
    blocks: list[list[list[str]]] = []
    current: list[list[str]] = []
    for toks in lines:
        if toks:
            current.append(toks)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return [_parse_block(block, validate) for block in blocks]


def load_one(text: str, validate: bool = True) -> FiniteAlgebra:
    algebras = loads(text, validate)
    if len(algebras) != 1:
        raise AlgebraFormatError(f"expected one algebra, found {len(algebras)}")
    return algebras[0]


def _parse_block(block: list[list[str]], validate: bool) -> FiniteAlgebra:
    name: str | None = None
    order: int | None = None
    labels: list[str] | None = None
    pos = 0
    while pos < len(block) and block[pos][0] in ("name", "order", "elements"):
        head, *rest = block[pos]
        if head == "name":
            if len(rest) != 1:
                raise AlgebraFormatError("name takes exactly one token")
            name = rest[0]
        elif head == "order":
            if len(rest) != 1 or not rest[0].isdigit():
                raise AlgebraFormatError("order takes one integer")
            order = int(rest[0])
        else:
            labels = rest
        pos += 1
    if order is None:
        raise AlgebraFormatError("missing 'order' line")
    if labels is not None and len(set(labels)) != order:
        raise AlgebraFormatError(f"'elements' must list {order} distinct labels")

    def read_table(which: str, at: int) -> tuple[list[list[str]], int]:
        if at >= len(block) or block[at] != [which]:
            raise AlgebraFormatError(f"expected '{which}' line")
        rows = block[at + 1 : at + 1 + order]
        if len(rows) != order or any(len(r) != order for r in rows):
            raise AlgebraFormatError(f"{which} table needs {order} rows of {order} entries")
        return rows, at + 1 + order

    add_rows, pos = read_table("add", pos)
    mul_rows, pos = read_table("mul", pos)
    if pos != len(block):
        raise AlgebraFormatError("trailing content after mul table")

    if labels is None:
        labels = list(dict.fromkeys(tok for row in add_rows for tok in row))
        if len(labels) != order:
            raise AlgebraFormatError(
                f"add table mentions {len(labels)} labels, expected {order}; "
                "use an 'elements' line"
            )
        for k in range(order):
            if add_rows[k][k] != labels[k]:
                raise AlgebraFormatError(
                    "inferred label order disagrees with the add diagonal; "
                    "add an 'elements' line to fix the element order"
                )
    index = {lab: i for i, lab in enumerate(labels)}

    def to_indices(rows: list[list[str]], which: str) -> list[list[int]]:
        out = []
        for row in rows:
            try:
                out.append([index[tok] for tok in row])
            except KeyError as exc:
                raise AlgebraFormatError(f"unknown label {exc.args[0]!r} in {which}") from None
        return out

    algebra = FiniteAlgebra(order, to_indices(add_rows, "add"), to_indices(mul_rows, "mul"), name)
    if validate:
        algebra.validate()
    return algebra


def dumps(a: FiniteAlgebra) -> str:
    """One block for `a`, its elements labelled 0..n-1 in carrier order."""
    labels = [str(i) for i in range(a.order)]
    lines = []
    if a.name:
        lines.append(f"name {a.name}")
    lines.append(f"order {a.order}")
    lines.append("elements " + " ".join(labels))
    for which, table in (("add", a.add), ("mul", a.mul)):
        lines.append(which)
        for row in table:
            lines.append(" ".join(labels[x] for x in row))
    return "\n".join(lines) + "\n"
