"""Isomorph-free exhaustive generation.

Three pipelines:

* semilattices (the additive reducts), grown order by order: every
  finite join-semilattice arises from a smaller one by inserting a new
  minimal element below an order filter, so candidates are generated
  that way and deduplicated by canonical form;
* all ai-semirings of a given order: for each canonical reduct,
  backtracking over multiplication cells with distributivity
  bitmasks, incremental associativity checks, forced cells and
  lex-leader pruning, so only tables minimal under the reduct's
  automorphism group complete; the (reduct, first value) chunks go to
  the workers largest first, each worker checks its tables against the
  six laws (`_check_laws`: the scan `_law_witnesses` on the first
  table, and a bytes-level test of the product laws, which reuses the
  rows and columns it has proved, on the rest, so only the scan
  reports witnesses), and the parent builds each chunk's algebras as
  they arrive;
* the row-constant class: multiplication x*y = f(x) with f an
  idempotent additive endomorphism of the reduct, enumerated as (reduct,
  f) pairs up to reduct automorphism. The column-constant class (the
  duals) and the constant class (f constant) are views of that one
  stream, not enumerated again. `_check_laws` checks the row-constant
  tables too, one reduct at a time.

The second and third pipelines are deliberately independent; for small
orders each serves as the other's oracle. Emitted streams are sorted so
that every emitted table pair literally equals its canonical form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import (
    AxiomError,
    FiniteAlgebra,
    Table,
    _checked_algebra,
    _freeze_row,
    _inverse,
    _law_witnesses,
    _product_law_checker,
    _report,
    automorphisms,
    canonical_tables,
    dual,
)

MAX_SEMILATTICE_ORDER = 6
MAX_GENERAL_ORDER = 5


@dataclass(frozen=True)
class EnumerationReport:
    order: int
    class_name: str
    count: int
    items: tuple
    elapsed: float
    nodes: int
    complete: bool


def _check_order(n: int, limit: int):
    if not 1 <= n <= limit:
        raise ValueError(f"order must be between 1 and {limit}, got {n}")


# ---------------------------------------------------------------------------
# semilattices


def _filter_extensions(table: Table, n: int):
    """All ways to add a new minimal element below an order filter."""
    leq = [[table[a][b] == b for b in range(n)] for a in range(n)]
    for mask in range(1, 1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        if any(
            leq[a][b] and not mask >> b & 1 for a in members for b in range(n)
        ):
            continue  # not upward closed
        joins = []
        ok = True
        for a in range(n):
            if mask >> a & 1:
                joins.append(a)
                continue
            cands = [y for y in members if leq[a][y]]
            least = next((y for y in cands if all(leq[y][z] for z in cands)), None)
            if least is None:
                ok = False
                break
            joins.append(least)
        if not ok:
            continue
        new = [list(row) + [joins[i]] for i, row in enumerate(table)]
        new.append(joins + [n])
        yield tuple(tuple(row) for row in new)


@lru_cache(maxsize=None)
def canonical_semilattices(n: int) -> tuple[Table, ...]:
    """Canonical commutative idempotent associative tables of order n,
    sorted by their flattened form."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    if n == 1:
        return (((0,),),)
    reps: dict[tuple[int, ...], Table] = {}
    for smaller in canonical_semilattices(n - 1):
        for candidate in _filter_extensions(smaller, n - 1):
            key = canonical_tables((candidate,), n)[0]
            if key not in reps:  # the key is the relabelled table, flattened
                reps[key] = tuple(key[i : i + n] for i in range(0, n * n, n))
    return tuple(reps[k] for k in sorted(reps))


def enumerate_semilattices(n: int) -> EnumerationReport:
    started = time.perf_counter()
    tables = canonical_semilattices(n)
    return EnumerationReport(
        order=n,
        class_name="semilattice",
        count=len(tables),
        items=tables,
        elapsed=time.perf_counter() - started,
        nodes=len(tables),
        complete=True,
    )


@lru_cache(maxsize=None)
def _reduct_automorphisms(add: Table) -> tuple[tuple[int, ...], ...]:
    return tuple(automorphisms((add,), len(add)))


# ---------------------------------------------------------------------------
# general ai-semirings over a fixed canonical reduct


def _mul_search(add_flat, n, auts, first_value, node_budget):
    """Backtrack over multiplication cells in row-major order, cell
    (0, 0) fixed to `first_value`.

    Invariant: an associativity or distributivity instance is checked
    when the last of its cells is assigned; every other instance is
    still open or was checked at an ancestor, so a completed table
    satisfies all of them. Each law has one owner:

    * distributivity, `dist[pos]`: the reduct must be labelled
      top-down, as `canonical_semilattices` labels it, so that
      y + z <= min(y, z) for all y and z (else ValueError): y + z lies
      above y and z, and a top-down labelling numbers it before both.
      So the sum cell (a, y + z) of a(y + z) = ay + az, y < z, comes
      before (a, z), and (x + y, b) of (x + y)b = xb + yb, x < y,
      before (y, b): every sum cell is filled first, and the later
      product cell owns the instance. With (a, b) that cell, a(b + z)
      = ab + az, z < b, and (a + y)b = ab + yb, y < a, pin v to
      v + c = d, read through `sol[c][d]`. The cell ANDs these masks
      once, before any value is tried (forward checking);
    * associativity, `consistent`: with the new cell as xy, as yz, and
      as the outer product of (xy)z and of x(yz), in the order that
      rejects soonest (at order 5 the xy and yz loops reject almost
      all). A cell fixed by an associativity instance whose other cells
      are known (x(yb) with xy = a, (ay)z with yz = b) tries only that
      value, through `forced`, still through the checks, as one node.

    Every value is counted as a node, and checked against `node_budget`,
    before its bit is read, so node counts and budget cut points do not
    depend on the masks. Cells are filled row-major, so the rows past a
    and the cells past b in row a are empty: the yz loop skips them
    through the prefixes `above`.

    Lex-leader: per automorphism p in `auts`, the first cell where the
    table and its image under p are not yet compared advances over the
    known cells; a smaller image there cuts the subtree and a larger
    one settles p, so exactly the tables least in their orbits
    complete. Returns (tables, nodes, completed).
    """
    rng = range(n)
    adds = [add_flat[x * n : x * n + n] for x in rng]
    if any(adds[y][z] > min(y, z) for y in rng for z in rng):
        raise ValueError("the multiplication search needs a reduct labelled top-down")
    rows = [[-1] * n for _ in rng]
    flat = [-1] * (n * n)  # the same cells, row-major
    above = [rows[:k] for k in range(n + 1)]  # the rows before row k
    # sol[c][d]: the values v with v + c = d, as a bitmask
    sol = [[sum(1 << v for v in rng if adds[v][c] == d) for d in rng] for c in rng]
    # dist[a * n + b]: the cells (i, j) of the instances listed in the
    # docstring, the value of (a, b) in sol[flat[i]][flat[j]]
    dist = [
        [(a * n + z, a * n + adds[b][z]) for z in range(b)]
        + [(y * n + b, adds[a][y] * n + b) for y in range(a)]
        for a in rng
        for b in rng
    ]
    results: list[tuple[int, ...]] = []
    nodes = 0
    # holding[v]: the assigned cells (x, y) with xy = v, as (row x, x, y)
    holding: list[list[tuple[list[int], int, int]]] = [[] for _ in rng]
    # (p, the cell that p carries to each cell, first cell not compared)
    inverses = [(p, _inverse(p)) for p in auts]
    leaders = [(p, [q[i] * n + q[j] for i in rng for j in rng], 0) for p, q in inverses]

    def forced(a: int, b: int):
        arow = rows[a]
        for xrow, _x, y in holding[a]:
            if (yb := rows[y][b]) != -1 and (v := xrow[yb]) != -1:
                return v
        for _row, y, z in holding[b]:
            if (ay := arow[y]) != -1 and (v := rows[ay][z]) != -1:
                return v
        return None

    def consistent(a: int, b: int, v: int) -> bool:
        arow = rows[a]
        # associativity with the new cell as xy: (ab)z = a(bz); rows b
        # and v are empty unless both are at most a
        if b <= a and v <= a:
            for bz, left in zip(rows[b], rows[v]):
                if bz != -1 and left != -1:
                    right = arow[bz]
                    if right != -1 and left != right:
                        return False
        # associativity with the new cell as yz: (xa)b = x(ab), x <= a
        for xrow in above[a + 1]:
            xa = xrow[a]
            if xa != -1:
                left = rows[xa][b]
                if left != -1:
                    right = xrow[v]
                    if right != -1 and left != right:
                        return False
        # associativity with the new cell as the outer product of (xy)z
        # and of x(yz)
        for xrow, _x, y in holding[a]:
            yb = rows[y][b]
            if yb != -1:
                right = xrow[yb]
                if right != -1 and right != v:
                    return False
        for _row, y, z in holding[b]:
            ay = arow[y]
            if ay != -1:
                left = rows[ay][z]
                if left != -1 and left != v:
                    return False
        return True

    def advance(pos: int, active):
        """`active` once cells 0..pos are known, settled automorphisms
        dropped; None if some image is smaller."""
        kept = []
        for perm, image, k in active:
            while k <= pos and flat[image[k]] != -1 and perm[flat[image[k]]] == flat[k]:
                k += 1
            if k > pos or flat[image[k]] == -1:
                kept.append((perm, image, k))
            elif perm[flat[image[k]]] < flat[k]:
                return None
        return kept

    def dfs(pos: int, active) -> bool:
        nonlocal nodes
        if pos == n * n:
            results.append(tuple(flat))
            return True
        a, b = divmod(pos, n)
        arow = rows[a]
        cell = (arow, a, b)
        if pos == 0:
            values = (first_value,)
        else:
            v = forced(a, b)
            values = rng if v is None else (v,)
        mask = -1
        for i, j in dist[pos]:
            mask &= sol[flat[i]][flat[j]]
        for v in values:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return False
            if not mask >> v & 1:
                continue
            arow[b] = flat[pos] = v
            held = holding[v]
            held.append(cell)
            if consistent(a, b, v):
                kept = advance(pos, active) if active else active
                if kept is not None and not dfs(pos + 1, kept):
                    return False
            held.pop()
            arow[b] = flat[pos] = -1
        return True

    completed = dfs(0, leaders)
    return results, nodes, completed


def _check_laws(n: int, add: Table, packed: list[bytes]):
    """Check each flat n x n table in `packed` on the six laws over the
    one reduct `add`, raising AxiomError at the first that fails one.

    The scan `_law_witnesses` checks the first table on all six laws,
    so the reduct's three additive laws are checked once. Every later
    table is decided by `_product_law_checker` on the three product
    laws, and a table it rejects is scanned too, so the scan alone
    reports witnesses, the first failing tuple of each law.
    """
    cuts = range(0, n * n, n)
    check = _product_law_checker(n, add)
    for k, mul in enumerate(packed):
        if k == 0 or not check(mul):
            if witnesses := _law_witnesses(n, add, [mul[i : i + n] for i in cuts], k == 0):
                raise AxiomError(_report(witnesses), None)


def _chunk_worker(args):
    """One chunk's search, its tables packed into one bytes object.

    Entries are below MAX_GENERAL_ORDER = 5 < 256, so each fits a byte;
    the flat n x n tables are concatenated in result order. Each table
    is checked on all six laws here, in the worker, by `_check_laws` on
    the chunk's one reduct, and a failure raises AxiomError, which the
    pool re-raises in the parent.
    """
    add_flat, n, auts, first_value, node_budget = args
    muls, nodes, completed = _mul_search(add_flat, n, auts, first_value, node_budget)
    packed = list(map(bytes, muls))
    _check_laws(n, tuple(add_flat[i : i + n] for i in range(0, n * n, n)), packed)
    return b"".join(packed), nodes, completed


def enumerate_ai_semirings(
    n: int,
    node_budget: int | None = None,
    workers: int = 1,
) -> EnumerationReport:
    """One representative per isomorphism class of order-n ai-semirings.

    The stream is sorted so each (add, mul) pair equals its canonical
    form. `node_budget` bounds the number of search nodes per top-level
    chunk; exhaustion is reported as complete=False rather than raising.
    """
    _check_order(n, MAX_GENERAL_ORDER)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    started = time.perf_counter()
    chunks = []
    adds = []  # the reduct of each chunk, one shared table per reduct
    for add in canonical_semilattices(n):
        add_flat = tuple(x for row in add for x in row)
        auts = tuple(p for p in _reduct_automorphisms(add) if p != tuple(range(n)))
        for v in range(n):
            chunks.append((add_flat, n, auts, v, node_budget))
            adds.append(add)

    built: list[list[FiniteAlgebra]] = [[] for _ in chunks]
    nodes = 0
    complete = True
    rows: dict[bytes, tuple[int, ...]] = {}  # interned mul rows, shapes checked once
    for index, (packed, used, ok) in _run_chunks(chunks, workers):
        nodes += used
        complete = complete and ok
        add = adds[index]
        for start in range(0, len(packed), n * n):
            keys = (packed[i : i + n] for i in range(start, start + n * n, n))
            mul = tuple(rows.get(k) or rows.setdefault(k, _freeze_row(k, n, "mul")) for k in keys)
            built[index].append(_checked_algebra(n, add, mul))
    algebras = [a for part in built for a in part]
    return EnumerationReport(
        order=n,
        class_name="all",
        count=len(algebras),
        items=tuple(algebras),
        elapsed=time.perf_counter() - started,
        nodes=nodes,
        complete=complete,
    )


def _run_chunks(chunks, workers: int):
    """Yield (chunk index, chunk worker output) once for every chunk, the
    chunks whose first value v has the largest down-set first.

    Multiplication is monotone and label 0 is the top of a canonical
    reduct, so every product lies below 0 * 0 = v: the larger the
    down-set of v, the larger the chunk's search, and dispatching the
    largest chunks first keeps the pool's tail short. Outputs arrive in
    that order; the caller places them by index, so the merged stream
    does not depend on the worker count or scheduling. The pool is
    started before any chunk runs, so if it cannot start, the serial
    path runs each chunk once.
    """
    below = [sum(f[x * n + v] == v for x in range(n)) for f, n, _, v, _ in chunks]
    order = sorted(range(len(chunks)), key=lambda i: -below[i])
    pool = None
    if workers > 1 and len(chunks) > 1:
        try:
            import multiprocessing as mp

            pool = mp.get_context("fork").Pool(workers)
        except (ImportError, OSError):
            pass
    if pool is None:
        for i in order:
            yield i, _chunk_worker(chunks[i])
        return
    with pool:
        yield from zip(order, pool.imap(_chunk_worker, [chunks[i] for i in order]))


# ---------------------------------------------------------------------------
# the row-constant class, structurally


@lru_cache(maxsize=None)
def _idempotent_additive_endos(add: Table) -> tuple[tuple[int, ...], ...]:
    """The maps f with f(f(x)) = f(x) and f(x + y) = f(x) + f(y), in
    lexicographic order.

    Backtracks over f[0], f[1], ...; each idempotence and additivity
    instance is checked once all the positions it reads are fixed.
    """
    n = len(add)
    # closing[k]: the pairs x < y whose positions x, y, x + y are all
    # fixed once f[k] is (the largest of the three is k)
    closing = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            closing[max(y, add[x][y])].append((x, y, add[x][y]))
    f = [-1] * n
    out = []

    def dfs(k: int):
        if k == n:
            out.append(tuple(f))
            return
        for v in range(n):
            # idempotence f(f(x)) = f(x): at x = k if f[v] is already
            # fixed, and at every earlier x with f[x] = k now that f[k] is
            if v < k and f[v] != v:
                continue
            if v != k and k in f[:k]:
                continue
            f[k] = v
            if all(f[s] == add[f[x]][f[y]] for x, y, s in closing[k]):
                dfs(k + 1)
        f[k] = -1

    dfs(0)
    return tuple(out)


def _orbit_minimal_endos(add: Table) -> list[tuple[int, ...]]:
    auts = _reduct_automorphisms(add)
    keep = []
    for f in _idempotent_additive_endos(add):
        conjugates = (
            tuple(perm[f[inv]] for inv in _inverse(perm)) for perm in auts
        )
        if all(f <= g for g in conjugates):
            keep.append(f)
    return keep


def enumerate_row_constant(n: int) -> EnumerationReport:
    """All ai-semirings with constant multiplication rows, up to
    isomorphism, via (reduct, endomorphism) pairs."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    started = time.perf_counter()
    algebras = []
    nodes = 0
    rows = tuple((v,) * n for v in range(n))  # one shared row per value
    for add in canonical_semilattices(n):
        nodes += len(_idempotent_additive_endos(add))
        # x*y = f(x), checked per reduct as the chunk workers check theirs
        endos = sorted(_orbit_minimal_endos(add))
        _check_laws(n, add, [bytes(v for v in f for _ in range(n)) for f in endos])
        for f in endos:
            algebras.append(_checked_algebra(n, add, tuple(rows[v] for v in f)))
    return EnumerationReport(
        order=n,
        class_name="row-constant",
        count=len(algebras),
        items=tuple(algebras),
        elapsed=time.perf_counter() - started,
        nodes=nodes,
        complete=True,
    )


def enumerate_column_constant(n: int) -> EnumerationReport:
    """Duals x*y = f(y) of the row-constant class, in its order.

    Each dual is already canonical, so nothing is relabelled. The add
    table is canonical, so only the reduct's automorphisms keep it.
    Under an automorphism p the dual becomes x*y = g(y) with
    g = p f p^-1, whose flattening is g repeated n times: least exactly
    when g is least, which is the condition `_orbit_minimal_endos`
    already imposes on x*y = f(x). Sorting by f sorts by it too.
    """
    started = time.perf_counter()
    report = enumerate_row_constant(n)
    return replace(
        report,
        class_name="column-constant",
        items=tuple(dual(a) for a in report.items),
        elapsed=time.perf_counter() - started,
    )


def _constant_items(report: EnumerationReport) -> tuple[FiniteAlgebra, ...]:
    return tuple(a for a in report.items if len({row[0] for row in a.mul}) == 1)


def enumerate_constant_mul(n: int) -> EnumerationReport:
    """Algebras whose multiplication is a single constant: the overlap of
    the row-constant and column-constant classes.

    They are the row-constant items with f = (c, ..., c), one per orbit
    of the reduct's automorphisms: such an f is orbit-minimal exactly
    when c is least in its orbit.
    """
    started = time.perf_counter()
    report = enumerate_row_constant(n)
    items = _constant_items(report)
    return replace(
        report,
        class_name="both",
        count=len(items),
        items=items,
        elapsed=time.perf_counter() - started,
        nodes=len(items),
    )


ENUMERATORS = {
    "row-constant": enumerate_row_constant,
    "column-constant": enumerate_column_constant,
    "both": enumerate_constant_mul,
}


# ---------------------------------------------------------------------------
# the restricted union count


@dataclass(frozen=True)
class RestrictedUnionRow:
    order: int
    row_constant: int
    column_constant: int
    both: int

    @property
    def union(self) -> int:
        return self.row_constant + self.column_constant - self.both


@dataclass(frozen=True)
class RestrictedUnionReport:
    """Counts of algebras with row-constant or column-constant
    multiplication, by order, with totals under both conventions for
    including the one-element algebra."""

    rows: tuple[RestrictedUnionRow, ...]
    total_from_order_1: int
    total_from_order_2: int

    def convention_matching(self, target: int) -> str | None:
        if self.total_from_order_1 == target:
            return "including order 1"
        if self.total_from_order_2 == target:
            return "excluding order 1"
        return None


def count_restricted_union(max_order: int) -> RestrictedUnionReport:
    if not 1 <= max_order <= 5:
        raise ValueError("max_order must be between 1 and 5")
    rows = []
    for n in range(1, max_order + 1):
        report = enumerate_row_constant(n)
        r, b = report.count, len(_constant_items(report))
        rows.append(
            RestrictedUnionRow(order=n, row_constant=r, column_constant=r, both=b)
        )
    total1 = sum(row.union for row in rows)
    total2 = sum(row.union for row in rows if row.order >= 2)
    return RestrictedUnionReport(
        rows=tuple(rows),
        total_from_order_1=total1,
        total_from_order_2=total2,
    )
