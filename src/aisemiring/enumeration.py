"""Isomorph-free exhaustive generation.

Three pipelines:

* semilattices (the additive reducts), grown order by order: every
  finite join-semilattice arises from a smaller one by inserting a new
  minimal element below an order filter, so candidates are generated
  that way and deduplicated by canonical form;
* all ai-semirings of a given order: for each canonical reduct,
  backtracking over multiplication cells with incremental
  associativity/distributivity checks, forced cells and lex-leader
  pruning, so only tables minimal under the reduct's automorphism
  group complete; the (reduct, first value) chunks go to the workers
  largest first, each worker checks its tables against the six laws,
  and the parent builds each chunk's algebras as they arrive;
* the row-constant class: multiplication x*y = f(x) with f an
  idempotent additive endomorphism of the reduct, enumerated as (reduct,
  f) pairs up to reduct automorphism. The column-constant class (the
  duals) and the constant class (f constant) are views of that one
  stream, not enumerated again.

The second and third pipelines are deliberately independent; for small
orders each serves as the other's oracle. Emitted streams are sorted so
that every emitted table pair literally equals its canonical form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import (
    LAWS,
    AxiomError,
    AxiomReport,
    FiniteAlgebra,
    Table,
    _inverse,
    automorphisms,
    canonical_tables,
    dual,
    relabel,
    verify_tables,
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
            key, perm = canonical_tables((candidate,), n)
            if key not in reps:
                moved = relabel(FiniteAlgebra(n, candidate, candidate), perm)
                reps[key] = moved.add
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
    """Backtrack over multiplication cells in row-major order.

    Invariant: an associativity or distributivity instance is checked
    when the last of its cells is assigned; every other instance is
    still open or was checked at an ancestor, so a completed table
    satisfies all of them. A cell fixed by an instance whose other cells
    are known (x(yb) with xy = a, (x + y)b with x + y = a, (ay)z with
    yz = b, ay + az with y + z = b) tries only that value, still through
    the check, as one node. Lex-leader: per automorphism p in `auts`,
    the first cell where the table and its image under p are not yet
    compared advances over the known cells; a smaller image there cuts
    the subtree and a larger one settles p, so exactly the tables least
    in their orbits complete. Returns (tables, nodes, completed).

    `consistent` runs its checks in the order that rejects soonest: at
    order 5, associativity with the new cell as xy, then as yz, then
    left and right distributivity reject almost all of the nodes that
    fail; the `holding` loops reject few and the `sums` loops none.
    Cells are filled row-major, so the rows past a and the cells past b
    in row a are empty: the loops skip them through the prefixes `above`
    and `lead`, and read the known cells before them without a -1 test.
    """
    rng = range(n)
    rows = [[-1] * n for _ in rng]
    flat = [-1] * (n * n)  # the same cells, row-major
    adds = [add_flat[x * n : x * n + n] for x in rng]
    above = [rows[:k] for k in range(n + 1)]  # the rows before row k
    lead = [row[:k] for k, row in enumerate(adds)]  # x + y for y < x
    results: list[tuple[int, ...]] = []
    nodes = 0
    # sums[c]: the pairs y < z, both other than c, with y + z = c; an
    # instance a(y + z) with y or z equal to c is one of a(c + z)
    sums = [[] for _ in rng]
    for y in rng:
        for z in range(y + 1, n):
            c = adds[y][z]
            if c != y and c != z:
                sums[c].append((y, z))
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
        for x, y in sums[a]:
            if (xb := rows[x][b]) != -1 and (yb := rows[y][b]) != -1:
                return adds[xb][yb]
        for _row, y, z in holding[b]:
            if (ay := arow[y]) != -1 and (v := rows[ay][z]) != -1:
                return v
        for y, z in sums[b]:
            if (ay := arow[y]) != -1 and (az := arow[z]) != -1:
                return adds[ay][az]
        return None

    def consistent(a: int, b: int, v: int) -> bool:
        arow = rows[a]
        vsum = adds[v]
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
        # left distributivity a(b + z) = ab + az, z < b (z = b holds
        # since v + v = v, and the cells past b in row a are empty)
        for az, bz in zip(arow, lead[b]):
            abz = arow[bz]
            if abz != -1 and abz != vsum[az]:
                return False
        # right distributivity (a + y)b = ab + yb, y < a (y = a holds
        # since v + v = v)
        for yrow, ay in zip(above[a], adds[a]):
            ayb = rows[ay][b]
            if ayb != -1 and ayb != vsum[yrow[b]]:
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
        # distributivity a(y + z) = ay + az with y + z = b, and
        # (x + y)b = xb + yb with x + y = a
        for y, z in sums[b]:
            ay = arow[y]
            if ay != -1:
                az = arow[z]
                if az != -1 and v != adds[ay][az]:
                    return False
        for x, y in sums[a]:
            xb = rows[x][b]
            if xb != -1:
                yb = rows[y][b]
                if yb != -1 and v != adds[xb][yb]:
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
        if pos == 0 and first_value is not None:
            values = (first_value,)
        else:
            v = forced(a, b)
            values = rng if v is None else (v,)
        for v in values:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return False
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


_PASSED = AxiomReport(**dict.fromkeys(LAWS, True))


def _chunk_worker(args):
    """One chunk's search, its tables packed into one bytes object.

    Each table found is checked against the six laws here, in the
    worker; a failure raises AxiomError, which the pool re-raises in the
    parent. Entries are below MAX_GENERAL_ORDER = 5 < 256, so each fits
    a byte; the flat n x n tables are concatenated in result order.
    """
    add_flat, n, auts, first_value, node_budget = args
    muls, nodes, completed = _mul_search(add_flat, n, auts, first_value, node_budget)
    cuts = range(0, n * n, n)
    add = tuple(add_flat[i : i + n] for i in cuts)
    for mul in muls:
        report = verify_tables(n, add, tuple(mul[i : i + n] for i in cuts))
        if not report.ok:
            raise AxiomError(report, None)
    return b"".join(map(bytes, muls)), nodes, completed


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
    rows: dict[bytes, tuple[int, ...]] = {}  # interned mul rows
    for index, (packed, used, ok) in _run_chunks(chunks, workers):
        nodes += used
        complete = complete and ok
        add = adds[index]
        for start in range(0, len(packed), n * n):
            keys = (packed[i : i + n] for i in range(start, start + n * n, n))
            mul = tuple(rows.setdefault(k, tuple(k)) for k in keys)
            algebra = FiniteAlgebra(n, add, mul)
            algebra._report = _PASSED  # checked in the worker
            built[index].append(algebra)
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


def _row_constant_algebra(add: Table, f: tuple[int, ...], rows: Table) -> FiniteAlgebra:
    """x*y = f(x), built from rows[v] = (v,) * n, one shared row per value."""
    mul = tuple(rows[v] for v in f)
    return FiniteAlgebra(len(add), add, mul).validate()


def enumerate_row_constant(n: int) -> EnumerationReport:
    """All ai-semirings with constant multiplication rows, up to
    isomorphism, via (reduct, endomorphism) pairs."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    started = time.perf_counter()
    algebras = []
    nodes = 0
    rows = tuple((v,) * n for v in range(n))
    for add in canonical_semilattices(n):
        endos = _orbit_minimal_endos(add)
        nodes += len(_idempotent_additive_endos(add))
        for f in sorted(endos):
            algebras.append(_row_constant_algebra(add, f, rows))
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
    "all": enumerate_ai_semirings,
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
