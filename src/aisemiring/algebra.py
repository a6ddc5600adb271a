"""Finite additively idempotent semirings as pairs of Cayley tables.

Elements are the indices 0..n-1; ``add`` and ``mul`` are n x n tables of
element indices. Tables are immutable tuples so algebras are hashable
and safe to share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

Table = tuple[tuple[int, ...], ...]


class TableFormatError(ValueError):
    """Structurally malformed table: wrong shape or out-of-range entry."""


class AxiomError(ValueError):
    """The structure is not an additively idempotent semiring."""

    def __init__(self, report: "AxiomReport", name: str | None):
        self.report = report
        self.name = name
        label = name or "algebra"
        super().__init__(f"{label} fails: {', '.join(report.failed_laws())}")

    def __reduce__(self):
        # rebuilt from (report, name), so it crosses a process boundary
        return type(self), (self.report, self.name)


class CongruenceError(ValueError):
    """The supplied partition is not compatible with the operations."""


class ResourceBudgetError(RuntimeError):
    """A configured search/evaluation budget was exhausted (not a verdict)."""


LAWS = (
    "commutative_add",
    "idempotent_add",
    "associative_add",
    "associative_mul",
    "left_distributive",
    "right_distributive",
)


@dataclass(frozen=True, slots=True)
class AxiomReport:
    commutative_add: bool
    idempotent_add: bool
    associative_add: bool
    associative_mul: bool
    left_distributive: bool
    right_distributive: bool
    witnesses: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(getattr(self, law) for law in LAWS)

    def failed_laws(self) -> list[str]:
        return [law for law in LAWS if not getattr(self, law)]


_PASSED = AxiomReport(**dict.fromkeys(LAWS, True))


def _freeze_table(rows: Iterable[Sequence[int]], n: int, which: str) -> Table:
    """`rows` as a new Table, each row converted and checked by
    `_freeze_row`; TableFormatError on a bad shape or entry.

    Every input is converted, a tuple of tuples included. Tables that
    are already trusted (the enumeration streams, the free algebras,
    `dual`) skip this through `_frozen_algebra`.
    """
    out = tuple(_freeze_row(row, n, which) for row in rows)
    if len(out) != n:
        raise TableFormatError(f"{which} has {len(out)} rows, expected {n}")
    return out


def _freeze_row(row: Iterable[int], n: int, which: str) -> tuple[int, ...]:
    """`row` as a tuple of n ints in 0..n-1, or TableFormatError."""
    row = tuple(int(x) for x in row)
    if len(row) != n:
        raise TableFormatError(f"{which} row has length {len(row)}, expected {n}")
    for x in row:
        if not 0 <= x < n:
            raise TableFormatError(f"{which} entry {x} out of range 0..{n - 1}")
    return row


class FiniteAlgebra:
    """Carrier 0..n-1 with addition and multiplication tables.

    Construction only checks table shape; semantic validation runs on
    first use (or via :meth:`validate`) and is cached. Operations that
    assume the axioms refuse algebras that fail them.
    """

    __slots__ = ("order", "add", "mul", "name", "_report")

    def __init__(self, order: int, add, mul, name: str | None = None):
        if order < 1:
            raise TableFormatError("order must be positive")
        self.order = order
        self.add = _freeze_table(add, order, "add")
        self.mul = _freeze_table(mul, order, "mul")
        self.name = name
        self._report: AxiomReport | None = None

    # -- identity is table identity; names are labels only
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.order == other.order
            and self.add == other.add
            and self.mul == other.mul
        )

    def __hash__(self) -> int:
        return hash((self.order, self.add, self.mul))

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"FiniteAlgebra({label})"

    @property
    def is_validated(self) -> bool:
        return self._report is not None and self._report.ok

    def axiom_report(self) -> AxiomReport:
        if self._report is None:
            self._report = verify_axioms(self)
        return self._report

    def validate(self) -> "FiniteAlgebra":
        """Check the axioms (cached); raise AxiomError on failure."""
        report = self.axiom_report()
        if not report.ok:
            raise AxiomError(report, self.name)
        return self


def verify_axioms(a: FiniteAlgebra) -> AxiomReport:
    """Exhaustively check the six defining laws (see `verify_tables`)."""
    return verify_tables(a.order, a.add, a.mul)


def verify_tables(n: int, add: Table, mul: Table) -> AxiomReport:
    """Exhaustively check the six defining laws on two n x n tables.

    Witnesses record the first failing tuple in row-major scan order,
    keyed by law name. The scan is `_law_witnesses`. The enumerations
    decide their tables after a reduct's first with
    `_product_law_checker` instead, and run the scan on the product
    laws alone only for a table it rejects, so the witnesses they
    report are this scan's; every passing check returns the one shared
    report.
    """
    return _report(_law_witnesses(n, add, mul, True))


def _report(witnesses: dict[str, tuple[int, ...]]) -> AxiomReport:
    """The report failing the laws keyed in `witnesses`; `_PASSED` if none."""
    if not witnesses:
        return _PASSED
    return AxiomReport(witnesses=witnesses, **{law: law not in witnesses for law in LAWS})


def _law_witnesses(n: int, add: Table, mul: Table, additive: bool) -> dict[str, tuple[int, ...]]:
    """The first failing tuple of each law the tables break, in one scan
    of the triples: the three product laws (associativity of the
    product, left and right distributivity), and with `additive` the
    three laws of `add` alone."""
    rng = range(n)
    out: dict[str, tuple[int, ...]] = {}
    if additive:
        for x in rng:
            if add[x][x] != x:
                out.setdefault("idempotent_add", (x,))
            for y in rng:
                if add[x][y] != add[y][x]:
                    out.setdefault("commutative_add", (x, y))
    for x in rng:
        add_x, mul_x = add[x], mul[x]
        for y in rng:
            add_y, mul_y = add[y], mul[y]
            # rows indexed by x + y and xy, fixed across the z loop
            add_xy, mul_xy = add[add_x[y]], mul[mul_x[y]]
            mul_sum, add_prod = mul[add_x[y]], add[mul_x[y]]
            for z in rng:
                if additive and add_xy[z] != add_x[add_y[z]]:
                    out.setdefault("associative_add", (x, y, z))
                if mul_xy[z] != mul_x[mul_y[z]]:
                    out.setdefault("associative_mul", (x, y, z))
                if mul_x[add_y[z]] != add_prod[mul_x[z]]:
                    out.setdefault("left_distributive", (x, y, z))
                if mul_sum[z] != add[mul_x[z]][mul_y[z]]:
                    out.setdefault("right_distributive", (x, y, z))
    return out


def _product_law_checker(n: int, add: Table) -> Callable[[bytes], bool]:
    """A test of the three product laws for flat n x n multiplication
    tables packed as bytes (n < 256), over the one reduct `add`.

    Each law is decided exhaustively as one equivalent statement on
    whole rows, with C-level bytes operations:

    * associativity: the rows of the table's entries, in row-major
      order, list (xy)z, and the table read through each row x in turn
      lists x(yz);
    * left distributivity: every row r is a join-endomorphism of the
      reduct, r(y + z) = r(y) + r(z) for all y, z;
    * right distributivity: every column is one.

    Whether r is a join-endomorphism depends on r and `add` alone, so
    the returned test keeps the set of rows and columns it has proved
    additive, and later tables skip them. Only a proof is kept; a table
    that fails is re-tested in full. The set lives as long as the test.
    It says nothing of the additive laws, or of which instance fails:
    `_law_witnesses` does both.
    """
    pad = bytes(256 - n)
    sums = bytes(x for row in add for x in row)  # y + z, row-major
    adds = [bytes(row) + pad for row in add]  # read through: c + (.)
    proved: set[bytes] = set()

    def additive(r: bytes) -> bool:
        # r(y + z) against r(y) + r(z), row-major
        return sums.translate(r + pad) == b"".join([r.translate(adds[c]) for c in r])

    def check(mul: bytes) -> bool:
        rows = [mul[i : i + n] for i in range(0, n * n, n)]
        by_product = b"".join(map(rows.__getitem__, mul))
        if by_product != b"".join([mul.translate(r + pad) for r in rows]):
            return False
        for r in {*rows, *(mul[j::n] for j in range(n))} - proved:
            if not additive(r):
                return False
            proved.add(r)
        return True

    return check


def _frozen_algebra(
    n: int, add: Table, mul: Table, name: str | None = None, report: AxiomReport | None = None
) -> FiniteAlgebra:
    """An algebra on tables the caller has frozen, built without scanning
    them again: the one way round `FiniteAlgebra.__init__`.

    `report` is the caller's verdict on the six laws, such as `_PASSED`
    for tables it has checked; with none, the axioms are checked on
    first use, as for any algebra.
    """
    a = object.__new__(FiniteAlgebra)
    a.order, a.add, a.mul, a.name, a._report = n, add, mul, name, report
    return a


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product on pairs, encoded as i*|b| + j."""
    a.validate()
    b.validate()
    m = b.order

    def enc(i: int, j: int) -> int:
        return i * m + j

    pairs = [(i, j) for i in range(a.order) for j in range(m)]
    add = [[enc(a.add[i][k], b.add[j][l]) for (k, l) in pairs] for (i, j) in pairs]
    mul = [[enc(a.mul[i][k], b.mul[j][l]) for (k, l) in pairs] for (i, j) in pairs]
    name = f"{a.name or '?'}x{b.name or '?'}"
    return FiniteAlgebra(len(pairs), add, mul, name).validate()


def subalgebra_generated(
    a: FiniteAlgebra, seed: Iterable[int]
) -> tuple[tuple[int, ...], FiniteAlgebra]:
    """Close the seed under both operations.

    Returns the closed subset (in order of first appearance, seed first)
    and the induced algebra relabeled along that order.
    """
    a.validate()
    elements = list(dict.fromkeys(seed))
    if not elements:
        raise ValueError("seed must be nonempty")
    for e in elements:
        if not 0 <= e < a.order:
            raise ValueError(f"seed element {e} out of range")
    seen = set(elements)
    queue = list(elements)
    while queue:
        x = queue.pop(0)
        for y in list(elements):
            for z in (a.add[x][y], a.add[y][x], a.mul[x][y], a.mul[y][x]):
                if z not in seen:
                    seen.add(z)
                    elements.append(z)
                    queue.append(z)
    index = {e: i for i, e in enumerate(elements)}
    add = [[index[a.add[x][y]] for y in elements] for x in elements]
    mul = [[index[a.mul[x][y]] for y in elements] for x in elements]
    sub = FiniteAlgebra(len(elements), add, mul).validate()
    return tuple(elements), sub


@dataclass(frozen=True)
class Congruence:
    """A partition given as a block index per element, blocks numbered
    by first appearance."""

    block_of: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], order: int) -> "Congruence":
        assignment = [-1] * order
        for i, block in enumerate(blocks):
            for e in block:
                if not 0 <= e < order:
                    raise ValueError(f"element {e} out of range")
                if assignment[e] != -1:
                    raise ValueError(f"element {e} in two blocks")
                assignment[e] = i
        if -1 in assignment:
            raise ValueError("partition does not cover the carrier")
        # renumber blocks by first appearance so the encoding is canonical
        remap: dict[int, int] = {}
        out = []
        for b in assignment:
            if b not in remap:
                remap[b] = len(remap)
            out.append(remap[b])
        return cls(tuple(out))

    @property
    def block_count(self) -> int:
        return max(self.block_of) + 1


def congruence_quotient(a: FiniteAlgebra, c: Congruence) -> FiniteAlgebra:
    """Quotient by a congruence; raises CongruenceError naming a violating
    pair if the partition is not compatible with some operation."""
    a.validate()
    if len(c.block_of) != a.order:
        raise ValueError("partition size does not match the carrier")
    blk = c.block_of
    n = a.order
    for x in range(n):
        for y in range(n):
            if blk[x] != blk[y]:
                continue
            for z in range(n):
                for op, table in (("add", a.add), ("mul", a.mul)):
                    if blk[table[x][z]] != blk[table[y][z]]:
                        raise CongruenceError(
                            f"{op}({x},{z}) and {op}({y},{z}) land in different blocks"
                        )
                    if blk[table[z][x]] != blk[table[z][y]]:
                        raise CongruenceError(
                            f"{op}({z},{x}) and {op}({z},{y}) land in different blocks"
                        )
    k = c.block_count
    rep = [blk.index(b) for b in range(k)]
    add = [[blk[a.add[rep[i]][rep[j]]] for j in range(k)] for i in range(k)]
    mul = [[blk[a.mul[rep[i]][rep[j]]] for j in range(k)] for i in range(k)]
    return FiniteAlgebra(k, add, mul).validate()


def dual(a: FiniteAlgebra) -> FiniteAlgebra:
    """Same addition, transposed multiplication.

    The six laws are self-dual: transposing keeps the additive laws and
    associativity (x*y*z read backwards) and swaps the two distributive
    laws. So the dual of a validated algebra is an ai-semiring, and it
    takes over `a`'s passing report instead of checking the laws again.
    It shares `a`'s add table, and neither table is scanned: both come
    from `a`, whose tables are already frozen.
    """
    a.validate()
    name = f"dual({a.name})" if a.name else None
    return _frozen_algebra(a.order, a.add, tuple(zip(*a.mul)), name, a._report)


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The permutation sending perm[x] back to x."""
    inv = [0] * len(perm)
    for x, px in enumerate(perm):
        inv[px] = x
    return tuple(inv)


def relabel(a: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Rename element x to perm[x] in both tables."""
    n = a.order
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the carrier")
    inv = _inverse(perm)
    add = [[perm[a.add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    mul = [[perm[a.mul[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return FiniteAlgebra(n, add, mul, a.name)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically least (add || mul) row-major flattening over all
    relabelings, plus one permutation that achieves it."""

    key: tuple[int, ...]
    perm: tuple[int, ...]


def _flatten(tables: Sequence[Table], n: int, perm: Sequence[int]) -> tuple[int, ...]:
    inv = _inverse(perm)
    out = []
    for t in tables:
        for i in range(n):
            row = t[inv[i]]
            out.extend(perm[row[inv[j]]] for j in range(n))
    return tuple(out)


def canonical_tables(tables: Sequence[Table], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal flattening of the given tables over all relabelings.

    Branch and bound over the inverse permutation: a branch dies as soon
    as some fully-determined prefix cell already exceeds the best known
    key. Returns (key, permutation old->new); ties on the key pick the
    lexicographically least permutation.

    When tables[0] is a join-semilattice (x <= y iff x + y = y), only
    top-down linear extensions are tried: an element is labelled after
    every element strictly above it. This loses nothing, because every
    labelling whose tables[0] block is least is one. Suppose one is not.
    Let r be the first label with an element above it labelled higher,
    e its element, U the elements labelled below r (an up-set in which
    labels fall going up) and c a maximal element outside U above e,
    labelled s. Swapping the labels of e and c makes the block smaller.
    Rows in U change only at columns r and s, and the first row u with
    u + e != u + c falls at column r, since u + c > u + e. If there is
    none, row r is equal before column r and at r; at a column x up to
    s it holds c + x, which is c (label r) or in U, against e + x, which
    is e (then c + x = c), in U (then so is c + x >= e + x) or labelled
    above r; and at s it falls from s to r.
    """
    best_key = _flatten(tables, n, tuple(range(n)))
    best_perm = tuple(range(n))
    cells = [(ti, i, j) for ti in range(len(tables)) for i in range(n) for j in range(n)]
    rng, t = range(n), tables[0]
    semilattice = all(t[x][x] == x for x in rng) and all(
        t[x][y] == t[y][x] and t[t[x][y]][z] == t[x][t[y][z]]
        for x in rng for y in rng for z in rng
    )
    above = [{y for y in rng if semilattice and y != x and t[x][y] == y} for x in rng]

    def descend(chosen: list[int], used: set[int]):
        nonlocal best_key, best_perm
        r = len(chosen)
        if r == n:
            perm = _inverse(chosen)  # chosen[new] = old
            key = _flatten(tables, n, perm)
            if key < best_key or (key == best_key and perm < best_perm):
                best_key, best_perm = key, perm
            return
        pos = {old: new for new, old in enumerate(chosen)}
        for nxt in range(n):
            if nxt in used or not above[nxt] <= used:
                continue
            pos[nxt] = r
            # Compare determined prefix cells against the best key; stop at
            # the first undetermined or unequal cell. Pruning on ">" is
            # sound because all earlier cells compared equal.
            prune = False
            for idx, (ti, i, j) in enumerate(cells):
                if i > r or j > r:
                    break
                src = tables[ti][chosen[i] if i < r else nxt][chosen[j] if j < r else nxt]
                val = pos.get(src)
                if val is None:
                    break
                if val != best_key[idx]:
                    prune = val > best_key[idx]
                    break
            del pos[nxt]
            if not prune:
                descend(chosen + [nxt], used | {nxt})

    descend([], set())
    return best_key, best_perm


def canonical_form(a: FiniteAlgebra) -> CanonicalForm:
    key, perm = canonical_tables((a.add, a.mul), a.order)
    return CanonicalForm(key, perm)


def are_isomorphic(
    a: FiniteAlgebra, b: FiniteAlgebra
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide isomorphism via canonical forms; on success also return a
    permutation carrying a onto b."""
    if a.order != b.order:
        return False, None
    ca, cb = canonical_form(a), canonical_form(b)
    if ca.key != cb.key:
        return False, None
    inv_b = _inverse(cb.perm)
    witness = tuple(inv_b[ca.perm[x]] for x in range(a.order))
    moved = relabel(a, witness)
    assert moved.add == b.add and moved.mul == b.mul
    return True, witness


def automorphisms(tables: Sequence[Table], n: int) -> list[tuple[int, ...]]:
    """All permutations preserving every given table (identity included),
    in lexicographic order.

    Backtracks over perm[0], perm[1], ...; each cell t[x][y] = z is
    checked once x, y and z are all mapped, at the largest of the three.
    """
    # closing[k]: the cells whose row, column and value are all mapped
    # once perm[k] is
    closing = [[] for _ in range(n)]
    for t in tables:
        for x in range(n):
            for y in range(n):
                z = t[x][y]
                closing[max(x, y, z)].append((t, x, y, z))
    perm = [-1] * n
    free = [True] * n
    out = []

    def dfs(k: int):
        if k == n:
            out.append(tuple(perm))
            return
        for v in range(n):
            if not free[v]:
                continue
            perm[k] = v
            if all(perm[z] == t[perm[x]][perm[y]] for t, x, y, z in closing[k]):
                free[v] = False
                dfs(k + 1)
                free[v] = True

    dfs(0)
    return out


def find_subalgebra_isomorphic(
    a: FiniteAlgebra, target: FiniteAlgebra
) -> tuple[int, ...] | None:
    """Lexicographically least closed subset of `a` inducing an algebra
    isomorphic to `target`, or None."""
    a.validate()
    target.validate()
    k = target.order
    if k > a.order:
        return None
    for subset in itertools.combinations(range(a.order), k):
        inside = set(subset)
        if any(
            a.add[x][y] not in inside or a.mul[x][y] not in inside
            for x in subset
            for y in subset
        ):
            continue
        index = {e: i for i, e in enumerate(subset)}
        add = [[index[a.add[x][y]] for y in subset] for x in subset]
        mul = [[index[a.mul[x][y]] for y in subset] for x in subset]
        induced = FiniteAlgebra(k, add, mul)
        if are_isomorphic(induced, target)[0]:
            return subset
    return None


TRIVIAL = FiniteAlgebra(1, ((0,),), ((0,),), "trivial").validate()
