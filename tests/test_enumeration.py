"""Isomorph-free generation: counts, oracles, cross-pipeline checks."""

import itertools
import random

import pytest

from aisemiring import algebra, catalog, enumeration
from aisemiring.algebra import (
    AxiomError,
    FiniteAlgebra,
    TableFormatError,
    _flatten,
    _inverse,
    _law_witnesses,
    _product_law_checker,
    _report,
    automorphisms,
    canonical_form,
    canonical_tables,
    dual,
    relabel,
    verify_tables,
)
from aisemiring.enumeration import (
    _filter_extensions,
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


def least_labelings(tables, n):
    """(key, permutation) pairs over all n! relabelings, least first,
    with every permutation that reaches the least key."""
    ranked = sorted((_flatten(tables, n, p), p) for p in itertools.permutations(range(n)))
    return ranked[0], [p for key, p in ranked if key == ranked[0][0]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_key_minimal_labelings_are_top_down_linear_extensions(n):
    # canonical_tables tries only labelings that place an element after
    # every element strictly above it; its docstring proves that every
    # key-minimal labelling is one, and this checks it by brute force
    for add in canonical_semilattices(n):
        best, perms = least_labelings((add,), n)
        assert canonical_tables((add,), n) == best
        for p in perms:
            for x, y in itertools.permutations(range(n), 2):
                if add[x][y] == y:  # y strictly above x
                    assert p[y] < p[x], (add, p)


def test_canonical_tables_outside_semilattices_tries_every_labelling():
    # commutative and idempotent, not associative: x + y is the winner of
    # rock-paper-scissors, so "strictly above" is a cycle and no labelling
    # is a top-down linear extension
    rps = ((0, 1, 0), (1, 1, 2), (0, 2, 2))
    assert canonical_tables((rps,), 3) == least_labelings((rps,), 3)[0]
    assert canonical_tables((rps,), 3)[0] != _flatten((rps,), 3, (0, 1, 2))


def test_canonical_tables_matches_brute_force_on_relabelled_order_4_stream():
    rng = random.Random(4)
    for a in enumerate_ai_semirings(4).items:
        perm = list(range(4))
        rng.shuffle(perm)
        moved = relabel(a, perm)
        tables = (moved.add, moved.mul)
        assert canonical_tables(tables, 4) == least_labelings(tables, 4)[0]


def test_order_7_semilattices_count_the_8_element_lattices():
    # adding a bottom is a bijection from semilattices of order n to
    # lattices of order n + 1; OEIS A006966 gives 222 lattices on 8 elements
    keys = {
        canonical_tables((candidate,), 7)[0]
        for smaller in canonical_semilattices(6)
        for candidate in _filter_extensions(smaller, 6)
    }
    assert len(keys) == 222


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_column_constant_and_constant_streams_are_canonical_and_sorted(n):
    # canonical_tables is the old route: relabel each item to its key
    row = enumerate_row_constant(n)
    col, both = enumerate_column_constant(n), enumerate_constant_mul(n)
    assert (col.nodes, both.nodes) == (row.nodes, both.count)
    for report in (col, both):
        flats = []
        for a in report.items:
            key, perm = canonical_tables((a.add, a.mul), n)
            moved = relabel(a, perm)
            assert (moved.add, moved.mul) == (a.add, a.mul)
            flats.append(key)
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)


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
    # the pool delivers the chunks largest first; the merge by chunk
    # index gives the same items and node counts at every worker count
    for n in (3, 4):
        base = enumerate_ai_semirings(n, workers=1)
        for workers in (2, 3):
            multi = enumerate_ai_semirings(n, workers=workers)
            assert [(a.add, a.mul) for a in multi.items] == [
                (a.add, a.mul) for a in base.items
            ], (n, workers)
            assert (multi.nodes, multi.complete) == (base.nodes, base.complete)


def search_chunks(n):
    """The (reduct, first value) chunks of order n, in chunk order."""
    identity = tuple(range(n))
    chunks = []
    for add in canonical_semilattices(n):
        add_flat = tuple(x for row in add for x in row)
        auts = tuple(p for p in automorphisms((add,), n) if p != identity)
        chunks += [(add_flat, n, auts, v, None) for v in range(n)]
    return chunks


@pytest.mark.parametrize("workers", [1, 2])
def test_run_chunks_yields_every_chunk_once_largest_down_sets_first(workers):
    chunks = search_chunks(4)

    def down_set(chunk):
        add_flat, n, _auts, v, _budget = chunk
        return sum(add_flat[x * n + v] == v for x in range(n))

    yielded = list(enumeration._run_chunks(chunks, workers))
    order = [i for i, _ in yielded]
    assert order == sorted(range(len(chunks)), key=lambda i: (-down_set(chunks[i]), i))
    assert down_set(chunks[order[0]]) == 4  # v = 0, the top
    for i, output in yielded:
        assert output == enumeration._chunk_worker(chunks[i])


def test_serial_fallback_runs_every_chunk_once_when_the_pool_cannot_start(monkeypatch):
    import multiprocessing as mp

    def no_pool(*args, **kwargs):
        raise OSError("no pool here")

    base = enumerate_ai_semirings(4, workers=1)
    worker = enumeration._chunk_worker
    ran = []

    def counted(chunk):
        ran.append((chunk[0], chunk[3]))
        return worker(chunk)

    monkeypatch.setattr(mp.get_context("fork"), "Pool", no_pool)
    monkeypatch.setattr(enumeration, "_chunk_worker", counted)
    report = enumerate_ai_semirings(4, workers=2)
    # each (reduct, first value) exactly once
    assert sorted(ran) == sorted((c[0], c[3]) for c in search_chunks(4))
    assert [(a.add, a.mul) for a in report.items] == [(a.add, a.mul) for a in base.items]
    assert report.nodes == base.nodes


def test_emitted_algebras_share_their_tables():
    items = enumerate_ai_semirings(4).items
    assert all(a.is_validated for a in items)
    # one add object per reduct, and each mul row value held once
    assert len({id(a.add) for a in items}) == len(canonical_semilattices(4))
    rows = {id(row) for a in items for row in a.mul}
    assert len(rows) == len({row for a in items for row in a.mul}) <= 4**4
    items = enumerate_row_constant(5).items
    assert len({id(row) for a in items for row in a.mul}) == 5


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


def reference_aut_minimal(flat, n, auts):
    """Whether the flat table is least among its images under `auts`."""
    for perm in auts:
        inv = _inverse(perm)
        image = tuple(perm[flat[inv[i] * n + inv[j]]] for i in range(n) for j in range(n))
        if image < flat:
            return False
    return True


def reference_mul_search(add_flat, n, auts, first_value, node_budget):
    """The multiplication search as it was before its checks were cut to
    the instances containing the new cell: after each assignment it
    rechecks every determined distributivity instance in the cell's row
    and column and scans the whole table for the (xy)z and x(yz) roles.
    It tries every value at every cell and tests minimality under the
    reduct's automorphisms only at the leaves."""
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
            if reference_aut_minimal(flat, n, auts):
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


def permutation_filter(tables, n):
    """The automorphisms of `tables` by trying every permutation."""
    rng = range(n)
    return [
        p
        for p in itertools.permutations(rng)
        if all(p[t[x][y]] == t[p[x]][p[y]] for t in tables for x in rng for y in rng)
    ]


def test_automorphisms_match_a_filter_over_all_permutations():
    # the backtrack keeps itertools.permutations' lexicographic order, so
    # the lists must agree element by element
    for n in range(1, 7):
        for add in canonical_semilattices(n):
            assert automorphisms((add,), n) == permutation_filter((add,), n), add
    for a in enumerate_ai_semirings(3).items:
        tables = (a.add, a.mul)
        assert automorphisms(tables, 3) == permutation_filter(tables, 3), tables


def search_inputs(n):
    """(add_flat, auts) for every canonical reduct of order n, as the
    general enumeration builds them."""
    identity = tuple(range(n))
    for add in canonical_semilattices(n):
        auts = tuple(p for p in automorphisms((add,), n) if p != identity)
        yield tuple(x for row in add for x in row), auts


# the ids name the top-down labelling, the only one the search accepts
@pytest.mark.parametrize("n", [1, 2, 3, 4], ids="{}-canonical".format)
def test_mul_search_matches_reference(n):
    # the same tables in the same order; forced cells and lex-leader
    # pruning only ever visit fewer nodes
    for add_flat, auts in search_inputs(n):
        for v in range(n):
            tables, nodes, completed = _mul_search(add_flat, n, auts, v, None)
            want, want_nodes, want_completed = reference_mul_search(
                add_flat, n, auts, v, None
            )
            assert (tables, completed) == (want, want_completed), (add_flat, v)
            assert nodes <= want_nodes, (add_flat, v)


@pytest.mark.parametrize("budget", [1, 50, 500])
def test_mul_search_matches_reference_under_node_budget(budget):
    # a budgeted search returns a prefix of the reference's full list,
    # and completes exactly when the whole search fits the budget
    for add_flat, auts in search_inputs(4):
        for v in range(4):
            full = reference_mul_search(add_flat, 4, auts, v, None)[0]
            tables, nodes, completed = _mul_search(add_flat, 4, auts, v, budget)
            assert tables == full[: len(tables)], (add_flat, v)
            full_nodes = _mul_search(add_flat, 4, auts, v, None)[1]
            assert completed == (nodes <= budget) == (full_nodes <= budget)


def test_mul_search_node_counts():
    # the search tree, not a contract of the tables: pinned so that a
    # change to the pruning shows up here
    assert [enumerate_ai_semirings(n).nodes for n in (2, 3, 4)] == [18, 473, 13380]


def test_mul_search_refuses_reducts_not_labelled_top_down():
    # relabelled by x -> n-1-x, a reduct has its top last, so x + y can
    # exceed min(x, y) and a sum cell could come after both product
    # cells of its distributivity instance
    for n in (2, 3, 4):
        for add in canonical_semilattices(n):
            moved = relabel(FiniteAlgebra(n, add, add), tuple(range(n))[::-1]).add
            with pytest.raises(ValueError, match="labelled top-down"):
                _mul_search(tuple(x for row in moved for x in row), n, (), 0, None)


def test_axiom_check_runs_in_the_chunk_workers(monkeypatch):
    # x*y = 1 + x on two elements is not associative: (0*0)*0 = 0, 0*(0*0) = 1
    search = enumeration._mul_search

    def with_bad_table(add_flat, n, auts, first_value, node_budget):
        tables, nodes, completed = search(add_flat, n, auts, first_value, node_budget)
        return tables + [(1, 1, 0, 0)], nodes, completed

    monkeypatch.setattr(enumeration, "_mul_search", with_bad_table)
    for workers in (1, 2):
        with pytest.raises(AxiomError, match="associative_mul") as caught:
            enumerate_ai_semirings(2, workers=workers)
        assert caught.value.report.witnesses["associative_mul"] == (0, 0, 0)


def test_the_parent_checks_no_law_again(monkeypatch):
    # emitted algebras adopt the workers' passing report, so validating
    # them in the parent would call verify_axioms
    def recheck(a):
        raise AssertionError("laws checked again in the parent")

    monkeypatch.setattr(algebra, "verify_axioms", recheck)
    for workers in (1, 2):
        items = enumerate_ai_semirings(3, workers=workers).items
        assert all(a.is_validated and a.validate() is a for a in items)


# two-element reducts that break one additive law each: x + y = y is not
# commutative, and x + y = 1 is not idempotent at 0
BROKEN_REDUCTS = [
    (((0, 1), (0, 1)), "commutative_add", (0, 1)),
    (((1, 1), (1, 1)), "idempotent_add", (0,)),
]


# reducts labelled top-down (x + y <= min(x, y)), as the search requires,
# that break one additive law each: 1 + 2 = 0 but 2 + 1 = 1 is not
# commutative, and x + y = 0 is not idempotent at 1
TOP_DOWN_BROKEN_REDUCTS = [
    (((0, 0, 0), (0, 1, 0), (0, 1, 2)), "commutative_add", (1, 2)),
    (((0, 0), (0, 0)), "idempotent_add", (1,)),
]


@pytest.mark.parametrize("add, law, witness", TOP_DOWN_BROKEN_REDUCTS)
def test_chunk_workers_check_the_reduct(monkeypatch, add, law, witness):
    # the workers check the reduct's additive laws once per chunk, with
    # its first table, so a broken reduct still fails every table on it
    monkeypatch.setattr(enumeration, "canonical_semilattices", lambda n: (add,))
    for workers in (1, 2):
        with pytest.raises(AxiomError, match=law) as caught:
            enumerate_ai_semirings(len(add), workers=workers)
        assert caught.value.report.witnesses[law] == witness


@pytest.mark.parametrize("add, law, witness", BROKEN_REDUCTS)
def test_row_constant_stream_checks_the_reduct(monkeypatch, add, law, witness):
    monkeypatch.setattr(enumeration, "canonical_semilattices", lambda n: (add,))
    with pytest.raises(AxiomError, match=law) as caught:
        enumerate_row_constant(2)
    assert caught.value.report.witnesses[law] == witness


def test_parent_checks_the_shape_of_each_interned_row(monkeypatch):
    worker = enumeration._chunk_worker

    def out_of_range(chunk):
        packed, nodes, completed = worker(chunk)
        return packed[:-1] + bytes([9]) if packed else packed, nodes, completed

    monkeypatch.setattr(enumeration, "_chunk_worker", out_of_range)
    with pytest.raises(TableFormatError, match=r"mul entry 9 out of range 0\.\.2"):
        enumerate_ai_semirings(3, workers=1)


def test_product_scan_witnesses_match_verify_tables_on_single_cell_corruptions():
    # the workers scan a table after a chunk's first, one the checker
    # rejects, on the product laws alone; on a valid reduct that scan
    # must report exactly what the full check does
    for a in enumerate_ai_semirings(4).items:
        mul = [list(row) for row in a.mul]
        for r, c, v in itertools.product(range(4), repeat=3):
            if a.mul[r][c] == v:
                continue
            mul[r][c] = v
            bad = tuple(map(tuple, mul))
            mul[r][c] = a.mul[r][c]
            want = verify_tables(4, a.add, bad)
            assert _report(_law_witnesses(4, a.add, bad, False)) == want, (a.add, bad)


def as_bytes(mul):
    return bytes(x for row in mul for x in row)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_checker_agrees_with_the_scan_on_single_cell_corruptions(n):
    # one checker per reduct, as in the enumerations, so rows and columns
    # proved on earlier tables are reused on later ones
    checks = {add: _product_law_checker(n, add) for add in canonical_semilattices(n)}
    for a in enumerate_ai_semirings(n).items:
        check = checks[a.add]
        assert check(as_bytes(a.mul))
        mul = [list(row) for row in a.mul]
        for r, c, v in itertools.product(range(n), repeat=3):
            if a.mul[r][c] == v:
                continue
            mul[r][c] = v
            bad = tuple(map(tuple, mul))
            mul[r][c] = a.mul[r][c]
            assert check(as_bytes(bad)) == (not _law_witnesses(n, a.add, bad, False)), bad


@pytest.mark.parametrize("n", [5, 6])
def test_product_checker_accepts_the_row_constant_stream(n):
    checks = {add: _product_law_checker(n, add) for add in canonical_semilattices(n)}
    assert all(checks[a.add](as_bytes(a.mul)) for a in enumerate_row_constant(n).items)


# the order-3 reduct whose top 0 is the join of 1 and 2, and a table on
# it breaking each distributive law alone (the second is the transpose
# of the first); a row-constant table x*y = f(x) on it with f idempotent
# but not additive breaks right distributivity alone
V3 = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
ONE_SIDED = [
    (((0, 0, 0), (0, 1, 1), (0, 2, 2)), "left_distributive", (1, 1, 2)),
    (((0, 0, 0), (0, 1, 2), (0, 1, 2)), "right_distributive", (1, 2, 1)),
]


@pytest.mark.parametrize("mul, law, witness", ONE_SIDED)
def test_chunk_workers_report_a_later_tables_one_sided_failure(monkeypatch, mul, law, witness):
    # the bad table follows a chunk's first, so the checker decides it
    # and the scan reports the witness
    search = enumeration._mul_search

    def with_bad_table(add_flat, n, auts, first_value, node_budget):
        tables, nodes, completed = search(add_flat, n, auts, first_value, node_budget)
        return tables + [sum(mul, ())] if tables else tables, nodes, completed

    monkeypatch.setattr(enumeration, "canonical_semilattices", lambda n: (V3,))
    monkeypatch.setattr(enumeration, "_mul_search", with_bad_table)
    for workers in (1, 2):
        with pytest.raises(AxiomError, match=law) as caught:
            enumerate_ai_semirings(3, workers=workers)
        assert caught.value.report.witnesses == {law: witness}


def test_row_constant_stream_reports_a_later_tables_failure(monkeypatch):
    endos = enumeration._orbit_minimal_endos
    monkeypatch.setattr(enumeration, "canonical_semilattices", lambda n: (V3,))
    monkeypatch.setattr(enumeration, "_orbit_minimal_endos", lambda add: [*endos(add), (0, 1, 1)])
    assert min(endos(V3)) < (0, 1, 1)  # not the reduct's first table
    with pytest.raises(AxiomError, match="right_distributive") as caught:
        enumerate_row_constant(3)
    assert caught.value.report.witnesses == {"right_distributive": (1, 2, 0)}


def test_product_checker_keeps_only_proofs():
    # the right-distributive failure's rows are those of x*y = y and
    # x*y = 0, so a checker that has proved them must still test its
    # columns, and reject the table again on a second call
    check = _product_law_checker(3, V3)
    assert check(as_bytes(((0, 1, 2),) * 3)) and check(as_bytes(((0, 0, 0),) * 3))
    for mul, _, _ in ONE_SIDED:
        assert not check(as_bytes(mul))
        assert not check(as_bytes(mul))


@pytest.mark.parametrize("n, labelled", [(2, 6), (3, 74), (4, 1246)])
def test_orbit_stabiliser_mass_matches_the_labelled_tables(n, labelled):
    # a class (S, m) stands for |Aut S| / |Aut(S, m)| labelled tables on
    # the reduct S; the reference search without automorphisms finds
    # every labelled table on S, by its own checks
    items = enumerate_ai_semirings(n).items
    total = 0
    for add in canonical_semilattices(n):
        group = len(automorphisms((add,), n))
        mass = sum(
            group // len(automorphisms((a.add, a.mul), n)) for a in items if a.add == add
        )
        add_flat = tuple(x for row in add for x in row)
        assert mass == len(reference_mul_search(add_flat, n, (), None, None)[0]), add
        total += mass
    assert total == labelled


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
