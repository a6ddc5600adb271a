"""Isomorph-free generation: counts, oracles, cross-pipeline checks."""

import itertools

import pytest

from aisemiring import catalog
from aisemiring.algebra import (
    FiniteAlgebra,
    automorphisms,
    canonical_form,
    canonical_tables,
    dual,
    relabel,
)
from aisemiring.enumeration import (
    _aut_minimal,
    _idempotent_additive_endos,
    _mul_search,
    canonical_semilattices,
    count_restricted_union,
    enumerate_ai_semirings,
    enumerate_column_constant,
    enumerate_constant_mul,
    enumerate_row_constant,
    enumerate_semilattices,
)
from aisemiring.satisfaction import satisfies


def keys(algebras):
    return sorted(canonical_form(a).key for a in algebras)


def test_semilattice_counts():
    assert [enumerate_semilattices(n).count for n in range(1, 7)] == [1, 1, 2, 5, 15, 53]


def brute_semilattices(n):
    """All commutative idempotent associative tables, brute force over the
    strict upper triangle, bucketed by canonical form."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = set()
    for combo in itertools.product(range(n), repeat=len(cells)):
        table = [[i if i == j else -1 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, combo):
            table[i][j] = table[j][i] = v
        ok = True
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            frozen = tuple(tuple(r) for r in table)
            found.add(canonical_tables((frozen,), n)[0])
    return found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_semilattices_match_brute_force(n):
    pipeline = {canonical_tables((t,), n)[0] for t in canonical_semilattices(n)}
    assert pipeline == brute_semilattices(n)


def test_semilattice_range_check():
    with pytest.raises(ValueError):
        enumerate_semilattices(7)
    with pytest.raises(ValueError):
        enumerate_semilattices(0)


def test_ai_semiring_counts_small():
    assert enumerate_ai_semirings(1).count == 1
    assert enumerate_ai_semirings(2).count == 6
    assert enumerate_ai_semirings(3).count == 61


def test_order_2_stream_is_the_catalog():
    names = ("L2", "R2", "N2", "T2", "M2_or_D2_a", "M2_or_D2_b")
    expected = keys(catalog.get(n) for n in names)
    assert keys(enumerate_ai_semirings(2).items) == expected


def brute_ai_semirings_order_2():
    """Fully naive oracle: all 2^4 add tables x 2^4 mul tables."""
    found = set()
    values = list(itertools.product(range(2), repeat=4))
    for addf in values:
        add = (addf[0:2], addf[2:4])
        for mulf in values:
            mul = (mulf[0:2], mulf[2:4])
            a = FiniteAlgebra(2, add, mul)
            if a.axiom_report().ok:
                found.add(canonical_form(a).key)
    return found


def test_order_2_matches_naive_all_tables_oracle():
    assert set(keys(enumerate_ai_semirings(2).items)) == brute_ai_semirings_order_2()


def brute_ai_semirings_order_3():
    """Naive oracle at order 3: every labeled additive table that passes
    the semilattice axioms, crossed with every one of the 3^9
    multiplication tables, filtered by the remaining axioms."""
    n = 3
    adds = []
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in itertools.product(range(n), repeat=len(cells)):
        add = [[i if i == j else -1 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, combo):
            add[i][j] = add[j][i] = v
        if all(
            add[add[a][b]][c] == add[a][add[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            adds.append(tuple(tuple(r) for r in add))
    rng3 = range(3)
    triples = [(a, b, c) for a in rng3 for b in rng3 for c in rng3]
    found = set()
    for add in adds:
        for flat in itertools.product(rng3, repeat=9):
            mul = (flat[0:3], flat[3:6], flat[6:9])
            ok = True
            for a, b, c in triples:
                if (
                    mul[mul[a][b]][c] != mul[a][mul[b][c]]
                    or mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
                    or mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]
                ):
                    ok = False
                    break
            if ok:
                found.add(canonical_tables((add, mul), n)[0])
    return found


def test_order_3_matches_naive_all_tables_oracle():
    expected = {
        tuple(x for row in a.add for x in row) + tuple(x for row in a.mul for x in row)
        for a in enumerate_ai_semirings(3).items
    }
    assert brute_ai_semirings_order_3() == expected


def test_canonical_form_naive_on_sampled_order_5_algebras():
    # the order-5 class counts lean on canonicalization at n=5; compare
    # against the all-120-permutations minimum on scrambled samples
    import itertools as it
    import random

    rng = random.Random(55)
    sample = list(enumerate_row_constant(5).items)
    rng.shuffle(sample)
    for a in sample[:25]:
        perm = list(range(5))
        rng.shuffle(perm)
        moved = relabel(a, tuple(perm))
        best = min(
            tuple(
                x
                for row in relabel(moved, p).add + relabel(moved, p).mul
                for x in row
            )
            for p in it.permutations(range(5))
        )
        assert canonical_form(moved).key == best
        assert best == canonical_form(a).key


def test_canonical_form_naive_on_full_order_3_stream():
    # branch-and-bound canonicalization agrees with the all-permutations
    # minimum on every order-3 class representative
    for a in enumerate_ai_semirings(3).items:
        best = None
        for perm in itertools.permutations(range(3)):
            moved = relabel(a, perm)
            flat = tuple(x for row in moved.add for x in row) + tuple(
                x for row in moved.mul for x in row
            )
            if best is None or flat < best:
                best = flat
        assert canonical_form(a).key == best


def test_emitted_algebras_are_canonical_and_valid():
    for n in (2, 3):
        report = enumerate_ai_semirings(n)
        seen = set()
        for a in report.items:
            assert a.is_validated
            flat = tuple(x for row in a.add for x in row) + tuple(
                x for row in a.mul for x in row
            )
            assert canonical_form(a).key == flat
            assert flat not in seen
            seen.add(flat)


def test_row_constant_counts():
    assert [enumerate_row_constant(n).count for n in range(1, 6)] == [1, 3, 12, 60, 362]


def test_row_constant_order_2_is_l2_n2_t2():
    expected = keys(catalog.get(n) for n in ("L2", "N2", "T2"))
    assert keys(enumerate_row_constant(2).items) == expected


def test_row_constant_emissions_satisfy_defining_identity():
    for n in (1, 2, 3, 4):
        for a in enumerate_row_constant(n).items:
            assert a.is_validated
            assert satisfies(a, "xy = xz").holds


def test_column_constant_is_dual_class():
    for n in (2, 3, 4):
        row = enumerate_row_constant(n)
        col = enumerate_column_constant(n)
        assert col.count == row.count
        assert keys(col.items) == sorted(canonical_form(dual(a)).key for a in row.items)
        for a in col.items:
            assert satisfies(a, "yx = zx").holds


def test_constant_class_is_the_overlap():
    for n in (2, 3):
        both = set(keys(enumerate_constant_mul(n).items))
        row = set(keys(enumerate_row_constant(n).items))
        col = set(keys(enumerate_column_constant(n).items))
        assert both == row & col


def test_cross_pipeline_row_constant_oracle():
    for n in (2, 3):
        general = [
            a for a in enumerate_ai_semirings(n).items if satisfies(a, "xy = xz").holds
        ]
        assert keys(general) == keys(enumerate_row_constant(n).items)


def test_restricted_union_small_orders():
    report = count_restricted_union(2)
    assert [r.union for r in report.rows] == [1, 4]
    assert report.total_from_order_1 == 5
    assert report.total_from_order_2 == 4
    one = count_restricted_union(1)
    assert one.rows[0].union == 1


def test_restricted_union_order_2_is_the_four_named_algebras():
    row = set(keys(enumerate_row_constant(2).items))
    col = set(keys(enumerate_column_constant(2).items))
    expected = set(keys(catalog.get(n) for n in ("L2", "R2", "N2", "T2")))
    assert row | col == expected


def test_streams_deterministic_across_workers():
    base = enumerate_ai_semirings(3, workers=1)
    multi = enumerate_ai_semirings(3, workers=3)
    assert [(a.add, a.mul) for a in base.items] == [(a.add, a.mul) for a in multi.items]


def test_rerun_is_identical():
    one = enumerate_ai_semirings(3)
    two = enumerate_ai_semirings(3)
    assert [(a.add, a.mul) for a in one.items] == [(a.add, a.mul) for a in two.items]


def test_node_budget_reported_distinctly():
    report = enumerate_ai_semirings(4, node_budget=5)
    assert not report.complete
    assert report.count <= 866


def test_order_range_check():
    with pytest.raises(ValueError):
        enumerate_ai_semirings(6)
    with pytest.raises(ValueError):
        count_restricted_union(6)


def test_workers_below_one_rejected():
    with pytest.raises(ValueError, match="workers"):
        enumerate_ai_semirings(3, workers=0)


def reference_mul_search(add_flat, n, auts, first_value, node_budget):
    """The multiplication search as it was before its checks were cut to
    the instances containing the new cell: after each assignment it
    rechecks every determined distributivity instance in the cell's row
    and column and scans the whole table for the (xy)z and x(yz) roles."""
    N = n * n
    mul = [-1] * N
    add = add_flat
    results: list[tuple[int, ...]] = []
    nodes = 0
    rng = range(n)

    def consistent(a: int, b: int) -> bool:
        v = mul[a * n + b]
        # associativity instances touching cell (a, b)
        for z in rng:
            bz = mul[b * n + z]
            if bz != -1:
                left = mul[v * n + z]
                right = mul[a * n + bz]
                if left != -1 and right != -1 and left != right:
                    return False
        for x in rng:
            xa = mul[x * n + a]
            if xa != -1:
                left = mul[xa * n + b]
                right = mul[x * n + v]
                if left != -1 and right != -1 and left != right:
                    return False
        for x in rng:
            base = x * n
            for y in rng:
                if mul[base + y] == a:
                    yb = mul[y * n + b]
                    if yb != -1:
                        right = mul[base + yb]
                        if right != -1 and v != right:
                            return False
        for y in rng:
            base = y * n
            for z in rng:
                if mul[base + z] == b:
                    ay = mul[a * n + y]
                    if ay != -1:
                        left = mul[ay * n + z]
                        if left != -1 and left != v:
                            return False
        # left distributivity: instances with first argument a
        arow = a * n
        for y in rng:
            my = mul[arow + y]
            if my == -1:
                continue
            for z in rng:
                mz = mul[arow + z]
                if mz == -1:
                    continue
                myz = mul[arow + add[y * n + z]]
                if myz != -1 and myz != add[my * n + mz]:
                    return False
        # right distributivity: instances with second argument b
        for x in rng:
            mx = mul[x * n + b]
            if mx == -1:
                continue
            for y in rng:
                my = mul[y * n + b]
                if my == -1:
                    continue
                mxy = mul[add[x * n + y] * n + b]
                if mxy != -1 and mxy != add[mx * n + my]:
                    return False
        return True

    def dfs(pos: int) -> bool:
        nonlocal nodes
        if pos == N:
            flat = tuple(mul)
            if _aut_minimal(flat, n, auts):
                results.append(flat)
            return True
        a, b = divmod(pos, n)
        values = (first_value,) if pos == 0 and first_value is not None else rng
        for v in values:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return False
            mul[pos] = v
            if consistent(a, b) and not dfs(pos + 1):
                mul[pos] = -1
                return False
            mul[pos] = -1
        return True

    completed = dfs(0)
    return results, nodes, completed


def search_inputs(n, reverse=False):
    """(add_flat, auts) for every canonical reduct of order n, as the
    general enumeration builds them. With `reverse`, each reduct is
    relabelled by x -> n-1-x first, so the top is the last label and a
    cell (a, y + z) can be filled after (a, y) and (a, z)."""
    identity = tuple(range(n))
    for add in canonical_semilattices(n):
        if reverse:
            add = relabel(FiniteAlgebra(n, add, add), identity[::-1]).add
        auts = tuple(p for p in automorphisms((add,), n) if p != identity)
        yield tuple(x for row in add for x in row), auts


@pytest.mark.parametrize("reverse", [False, True], ids=["canonical", "reversed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mul_search_matches_reference(n, reverse):
    for add_flat, auts in search_inputs(n, reverse):
        for v in range(n):
            got = _mul_search(add_flat, n, auts, v, None)
            assert got == reference_mul_search(add_flat, n, auts, v, None), (add_flat, v)


@pytest.mark.parametrize("budget", [1, 50, 500])
def test_mul_search_matches_reference_under_node_budget(budget):
    for add_flat, auts in search_inputs(4):
        for v in range(4):
            got = _mul_search(add_flat, 4, auts, v, budget)
            assert got == reference_mul_search(add_flat, 4, auts, v, budget), (add_flat, v)


def idempotent_maps(n):
    return [
        f
        for f in itertools.product(range(n), repeat=n)
        if all(f[f[x]] == f[x] for x in range(n))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_endomorphisms_match_brute_force(n):
    # filtering the idempotent maps keeps itertools.product's
    # lexicographic order, so the tuples must agree element by element
    maps = idempotent_maps(n)
    rng = range(n)
    for add in canonical_semilattices(n):
        brute = tuple(
            f
            for f in maps
            if all(f[add[x][y]] == add[f[x]][f[y]] for x in rng for y in rng)
        )
        assert _idempotent_additive_endos(add) == brute, add
