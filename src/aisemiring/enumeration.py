"""Isomorph-free exhaustive generation.

Three pipelines:

* semilattices (the additive reducts), grown order by order: every
  finite join-semilattice arises from a smaller one by inserting a new
  minimal element below an order filter, so candidates are generated
  that way and deduplicated by canonical form;
* all ai-semirings of a given order: for each canonical reduct,
  backtracking over multiplication cells with incremental
  associativity/distributivity checks, keeping tables minimal under the
  reduct's automorphism group;
* the row-constant class: multiplication x*y = f(x) with f an
  idempotent additive endomorphism of the reduct, enumerated as (reduct,
  f) pairs up to reduct automorphism.

The second and third pipelines are deliberately independent; for small
orders each serves as the other's oracle. Emitted streams are sorted so
that every emitted table pair literally equals its canonical form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    FiniteAlgebra,
    Table,
    automorphisms,
    canonical_tables,
    dual,
    relabel,
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
            least = None
            for y in cands:
                if all(leq[y][z] for z in cands):
                    least = y
                    break
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


def _aut_minimal(flat: tuple[int, ...], n: int, auts) -> bool:
    for perm in auts:
        inv = [0] * n
        for x, px in enumerate(perm):
            inv[px] = x
        for i in range(n):
            ibase = inv[i] * n
            for j in range(n):
                v = perm[flat[ibase + inv[j]]]
                w = flat[i * n + j]
                if v != w:
                    if v < w:
                        return False
                    break
            else:
                continue
            break
    return True


def _mul_search(add_flat, n, auts, first_value, node_budget):
    """Backtrack over multiplication cells in row-major order.

    Invariant: an associativity or distributivity instance is checked
    when the last of its cells is assigned. Every other instance is
    either still open or was fully determined, and checked, at an
    ancestor node, so only the instances that contain the new cell need
    checking, and a completed table satisfies all of them. Returns
    (list of flat mul tables, nodes visited, completed flag).
    """
    rng = range(n)
    rows = [[-1] * n for _ in rng]
    adds = [add_flat[x * n : x * n + n] for x in rng]
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

    def consistent(a: int, b: int, v: int) -> bool:
        arow = rows[a]
        # associativity with the new cell as xy, as yz, as the outer
        # product of (xy)z and as the outer product of x(yz)
        for bz, left in zip(rows[b], rows[v]):
            if bz != -1 and left != -1:
                right = arow[bz]
                if right != -1 and left != right:
                    return False
        for xrow in rows:
            xa = xrow[a]
            if xa != -1:
                left = rows[xa][b]
                if left != -1:
                    right = xrow[v]
                    if right != -1 and left != right:
                        return False
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
        # left distributivity a(y + z) = ay + az with y = b or y + z = b
        vsum = adds[v]
        for az, bz in zip(arow, adds[b]):
            if az != -1:
                abz = arow[bz]
                if abz != -1 and abz != vsum[az]:
                    return False
        for y, z in sums[b]:
            ay = arow[y]
            if ay != -1:
                az = arow[z]
                if az != -1 and v != adds[ay][az]:
                    return False
        # right distributivity (x + y)b = xb + yb with x = a or x + y = a
        for yrow, ay in zip(rows, adds[a]):
            yb = yrow[b]
            if yb != -1:
                ayb = rows[ay][b]
                if ayb != -1 and ayb != vsum[yb]:
                    return False
        for x, y in sums[a]:
            xb = rows[x][b]
            if xb != -1:
                yb = rows[y][b]
                if yb != -1 and v != adds[xb][yb]:
                    return False
        return True

    def dfs(pos: int) -> bool:
        nonlocal nodes
        if pos == n * n:
            flat = tuple(x for row in rows for x in row)
            if _aut_minimal(flat, n, auts):
                results.append(flat)
            return True
        a, b = divmod(pos, n)
        arow = rows[a]
        cell = (arow, a, b)
        values = (first_value,) if pos == 0 and first_value is not None else rng
        for v in values:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return False
            arow[b] = v
            held = holding[v]
            held.append(cell)
            if consistent(a, b, v) and not dfs(pos + 1):
                return False
            held.pop()
            arow[b] = -1
        return True

    completed = dfs(0)
    return results, nodes, completed


def _chunk_worker(args):
    add_flat, n, auts, first_value, node_budget = args
    return _mul_search(add_flat, n, auts, first_value, node_budget)


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
    for add in canonical_semilattices(n):
        add_flat = tuple(x for row in add for x in row)
        auts = tuple(p for p in _reduct_automorphisms(add) if p != tuple(range(n)))
        for v in range(n):
            chunks.append((add_flat, n, auts, v, node_budget))

    outputs = _run_chunks(chunks, workers)

    algebras: list[FiniteAlgebra] = []
    nodes = 0
    complete = True
    for (add_flat, size, _auts, _v, _b), (muls, used, ok) in zip(chunks, outputs):
        nodes += used
        complete = complete and ok
        add = tuple(tuple(add_flat[i * size + j] for j in range(size)) for i in range(size))
        for flat in muls:
            mul = tuple(tuple(flat[i * size + j] for j in range(size)) for i in range(size))
            algebras.append(FiniteAlgebra(size, add, mul).validate())
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
    """Map the chunk worker over all chunks, merging in chunk order.

    The merge order is fixed by the chunk list, so output does not
    depend on the worker count or scheduling.
    """
    if workers > 1 and len(chunks) > 1:
        try:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(workers) as pool:
                return list(pool.map(_chunk_worker, chunks, chunksize=1))
        except (ImportError, OSError):
            pass
    return [_chunk_worker(c) for c in chunks]


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


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for x, px in enumerate(perm):
        inv[px] = x
    return tuple(inv)


def _row_constant_algebra(add: Table, f: tuple[int, ...]) -> FiniteAlgebra:
    n = len(add)
    mul = tuple((f[i],) * n for i in range(n))
    return FiniteAlgebra(n, add, mul).validate()


def enumerate_row_constant(n: int) -> EnumerationReport:
    """All ai-semirings with constant multiplication rows, up to
    isomorphism, via (reduct, endomorphism) pairs."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    started = time.perf_counter()
    algebras = []
    nodes = 0
    for add in canonical_semilattices(n):
        endos = _orbit_minimal_endos(add)
        nodes += len(_idempotent_additive_endos(add))
        for f in sorted(endos):
            algebras.append(_row_constant_algebra(add, f))
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
    """Duals of the row-constant class, re-canonicalized."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    started = time.perf_counter()
    report = enumerate_row_constant(n)
    moved = []
    for a in report.items:
        d = dual(a)
        key, perm = canonical_tables((d.add, d.mul), n)
        moved.append((key, relabel(d, perm).renamed(None)))
    moved.sort(key=lambda kv: kv[0])
    algebras = tuple(a.validate() for _, a in moved)
    return EnumerationReport(
        order=n,
        class_name="column-constant",
        count=len(algebras),
        items=algebras,
        elapsed=time.perf_counter() - started,
        nodes=report.nodes,
        complete=True,
    )


def enumerate_constant_mul(n: int) -> EnumerationReport:
    """Algebras whose multiplication is a single constant: the overlap of
    the row-constant and column-constant classes."""
    _check_order(n, MAX_SEMILATTICE_ORDER)
    started = time.perf_counter()
    algebras = []
    for add in canonical_semilattices(n):
        auts = _reduct_automorphisms(add)
        seen = set()
        for c in range(n):
            orbit_min = min(perm[c] for perm in auts)
            if orbit_min in seen:
                continue
            seen.add(orbit_min)
            mul = tuple((orbit_min,) * n for _ in range(n))
            algebras.append(FiniteAlgebra(n, add, mul).validate())
    algebras.sort(key=lambda a: (a.add, a.mul))
    return EnumerationReport(
        order=n,
        class_name="both",
        count=len(algebras),
        items=tuple(algebras),
        elapsed=time.perf_counter() - started,
        nodes=len(algebras),
        complete=True,
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
        r = enumerate_row_constant(n).count
        b = enumerate_constant_mul(n).count
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
