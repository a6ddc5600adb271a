"""Core algebra operations: axioms, order, products, quotients, canonical
forms, isomorphism and subalgebra search."""

import itertools
import pickle
import random

import pytest

from aisemiring import catalog
from aisemiring.algebra import (
    AxiomError,
    AxiomReport,
    Congruence,
    CongruenceError,
    FiniteAlgebra,
    LAWS,
    TRIVIAL,
    TableFormatError,
    are_isomorphic,
    automorphisms,
    canonical_form,
    canonical_tables,
    congruence_quotient,
    direct_product,
    dual,
    find_subalgebra_isomorphic,
    relabel,
    subalgebra_generated,
    verify_axioms,
)
from aisemiring.satisfaction import satisfies

CHAIN_ADD = ((0, 1), (1, 1))


def test_catalog_algebras_pass_axioms():
    for name in catalog.builtin_names():
        report = verify_axioms(catalog.get(name))
        assert report.ok, name


def test_trivial_algebra_passes():
    assert verify_axioms(TRIVIAL).ok


def reference_verify_axioms(a):
    """`verify_axioms` as it was before its rows were hoisted out of the
    inner loops: every law indexes the tables afresh for each tuple."""
    n, add, mul = a.order, a.add, a.mul
    flags = dict.fromkeys(LAWS, True)
    witnesses = {}

    def fail(law, witness):
        if flags[law]:
            flags[law] = False
            witnesses[law] = witness

    rng = range(n)
    for x in rng:
        if add[x][x] != x:
            fail("idempotent_add", (x,))
    for x in rng:
        for y in rng:
            if add[x][y] != add[y][x]:
                fail("commutative_add", (x, y))
    for x in rng:
        for y in rng:
            for z in rng:
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    fail("associative_add", (x, y, z))
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    fail("associative_mul", (x, y, z))
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    fail("left_distributive", (x, y, z))
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    fail("right_distributive", (x, y, z))
    return AxiomReport(witnesses=witnesses, **flags)


def single_cell_corruptions(a):
    """Every algebra that differs from `a` in exactly one table cell."""
    n = a.order
    for which in ("add", "mul"):
        for r in range(n):
            for c in range(n):
                for v in range(n):
                    tables = {"add": [list(row) for row in a.add],
                              "mul": [list(row) for row in a.mul]}
                    if tables[which][r][c] == v:
                        continue
                    tables[which][r][c] = v
                    yield FiniteAlgebra(n, tables["add"], tables["mul"])


@pytest.mark.parametrize("name", catalog.builtin_names())
def test_verify_axioms_matches_reference_on_single_cell_corruptions(name):
    a = catalog.get(name)
    assert verify_axioms(a) == reference_verify_axioms(a)
    failing = 0
    for b in single_cell_corruptions(a):
        report = verify_axioms(b)
        assert report == reference_verify_axioms(b), (name, b.add, b.mul)
        failing += not report.ok
    # most corruptions break some law, so the witnesses are exercised
    assert a.order == 1 or failing > 0


def test_malformed_tables_rejected():
    with pytest.raises(TableFormatError):
        FiniteAlgebra(2, ((0, 1),), CHAIN_ADD)
    with pytest.raises(TableFormatError):
        FiniteAlgebra(2, ((0, 2), (1, 1)), CHAIN_ADD)
    with pytest.raises(TableFormatError):
        FiniteAlgebra(0, (), ())


def test_freeze_table_messages_and_conversions():
    with pytest.raises(TableFormatError, match="add row has length 1, expected 2"):
        FiniteAlgebra(2, ((0,), (1, 1)), CHAIN_ADD)
    with pytest.raises(TableFormatError, match="add has 1 rows, expected 2"):
        FiniteAlgebra(2, ((0, 1),), CHAIN_ADD)
    with pytest.raises(TableFormatError, match=r"mul entry 2 out of range 0\.\.1"):
        FiniteAlgebra(2, CHAIN_ADD, ((0, 2), (1, 1)))
    with pytest.raises(TableFormatError, match=r"mul entry -1 out of range 0\.\.1"):
        FiniteAlgebra(2, CHAIN_ADD, [[0, -1], [1, 1]])
    # bools and lists are converted to tuples of ints
    for add in ([[0, 1], [1, 1]], ((False, True), (True, True))):
        a = FiniteAlgebra(2, add, [[0, 0], [0, 0]])
        assert a.add == CHAIN_ADD and a.add is not add
        assert all(type(x) is int for row in a.add + a.mul for x in row)
        assert type(a.mul) is tuple and all(type(row) is tuple for row in a.mul)
    # an in-range frozen table is converted too, to equal tuples
    zero = ((0, 0), (0, 0))
    b = FiniteAlgebra(2, CHAIN_ADD, zero)
    assert b.add == CHAIN_ADD and b.mul == zero


def test_interned_rows_are_kept_and_still_checked():
    add = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
    row = (1, 1, 1)
    shared = (row, row, row)
    a = FiniteAlgebra(3, add, shared)
    assert a.add == add and a.mul == shared
    # a row object met three times is still checked
    with pytest.raises(TableFormatError, match=r"mul entry 3 out of range 0\.\.2"):
        FiniteAlgebra(3, add, ((0, 0, 3),) * 3)
    with pytest.raises(TableFormatError, match="mul row has length 2, expected 3"):
        FiniteAlgebra(3, add, ((0, 0),) * 3)
    b = FiniteAlgebra(3, add, ((0, True, 0),) * 3)
    assert all(type(x) is int for row in b.mul for x in row)


def test_validated_algebra_survives_pickle():
    a = catalog.get("S4_475").validate()
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.name == a.name and b.is_validated
    assert b.axiom_report() == a.axiom_report()
    # a failing report travels with its witnesses
    bad = FiniteAlgebra(2, ((1, 1), (1, 1)), ((0, 0), (0, 0)))
    report = pickle.loads(pickle.dumps(bad.axiom_report()))
    assert report == bad.axiom_report() and report.witnesses["idempotent_add"] == (0,)
    assert pickle.loads(pickle.dumps(bad))._report == report
    assert not hasattr(report, "__dict__")


def test_axiom_failure_distinct_from_format_error():
    # a structurally fine table that fails idempotency
    bad = FiniteAlgebra(2, ((1, 1), (1, 1)), ((0, 0), (0, 0)))
    report = verify_axioms(bad)
    assert not report.idempotent_add
    assert report.witnesses["idempotent_add"] == (0,)
    with pytest.raises(AxiomError):
        bad.validate()


def test_corrupting_l2_mul_entry_1_0_gives_meet_algebra():
    # flipping mul[1][0] from 1 to 0 lands on the (valid) meet algebra,
    # one of the six order-2 ai-semirings
    corrupted = FiniteAlgebra(2, CHAIN_ADD, ((0, 0), (0, 1)))
    assert verify_axioms(corrupted).ok
    assert are_isomorphic(corrupted, catalog.get("M2_or_D2_a"))[0]


def test_left_distributivity_failure_witness():
    corrupted = FiniteAlgebra(2, CHAIN_ADD, ((1, 0), (1, 1)))
    report = verify_axioms(corrupted)
    assert not report.left_distributive
    assert report.witnesses["left_distributive"] == (0, 0, 1)
    # independent oracle: exhaustive scan over all 8 triples
    add, mul = corrupted.add, corrupted.mul
    violations = [
        (x, y, z)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
    ]
    assert violations[0] == (0, 0, 1)


def test_product_with_trivial_is_isomorphic():
    for name in ("L2", "S58"):
        a = catalog.get(name)
        assert are_isomorphic(direct_product(TRIVIAL, a), a)[0]


def test_product_l2_t2_satisfies_row_constant_identity():
    p = direct_product(catalog.get("L2"), catalog.get("T2"))
    assert p.order == 4
    assert satisfies(p, "xy = xz").holds


def test_product_l2_r2_fails_row_constant_identity():
    p = direct_product(catalog.get("L2"), catalog.get("R2"))
    res = satisfies(p, "xy = xz")
    assert not res.holds
    assert res.assignment is not None


def test_subalgebra_generated_s4_475():
    a = catalog.get("S4_475")
    elements, sub = subalgebra_generated(a, [3])  # catalog label 4
    assert elements == (3, 2, 0)  # catalog labels 4, 3, 1
    assert sub.order == 3


def test_subalgebra_whole_carrier():
    a = catalog.get("S58")
    elements, sub = subalgebra_generated(a, range(3))
    assert elements == (0, 1, 2)
    assert sub.add == a.add and sub.mul == a.mul


def test_subalgebra_singleton_idempotent_element():
    # catalog label 2 of S58 is closed by itself
    elements, sub = subalgebra_generated(catalog.get("S58"), [1])
    assert elements == (1,)
    assert sub.order == 1


def test_subalgebra_monotone_and_idempotent():
    a = catalog.get("S4_475")
    small, _ = subalgebra_generated(a, [3])
    bigger, _ = subalgebra_generated(a, [3, 1])
    assert set(small) <= set(bigger)
    again, _ = subalgebra_generated(a, small)
    assert set(again) == set(small)


def test_empty_seed_rejected():
    with pytest.raises(ValueError):
        subalgebra_generated(catalog.get("L2"), [])


def test_quotient_fixture_gives_t2():
    a = catalog.get("S4_475")
    _, sub = subalgebra_generated(a, [0, 2, 3])  # catalog labels {1, 3, 4}
    cong = Congruence.from_blocks([{0, 1}, {2}], 3)  # labels {{1,3},{4}}
    q = congruence_quotient(sub, cong)
    assert q.order == 2
    assert are_isomorphic(q, catalog.get("T2"))[0]


def test_quotient_identity_partition():
    a = catalog.get("S58")
    cong = Congruence.from_blocks([{0}, {1}, {2}], 3)
    q = congruence_quotient(a, cong)
    assert q.add == a.add and q.mul == a.mul


def test_quotient_single_block():
    a = catalog.get("S58")
    cong = Congruence.from_blocks([{0, 1, 2}], 3)
    q = congruence_quotient(a, cong)
    assert q.order == 1


def test_non_congruence_rejected():
    a = catalog.get("S58")
    cong = Congruence.from_blocks([{0, 1}, {2}], 3)
    with pytest.raises(CongruenceError):
        congruence_quotient(a, cong)


def test_quotient_of_validated_is_validated():
    a = catalog.get("S4_475")
    _, sub = subalgebra_generated(a, [0, 2, 3])
    q = congruence_quotient(sub, Congruence.from_blocks([{0, 1}, {2}], 3))
    assert q.is_validated


def test_dual_s58_is_s56_exactly():
    d = dual(catalog.get("S58"))
    s56 = catalog.get("S56")
    assert d.add == s56.add and d.mul == s56.mul
    ok, witness = are_isomorphic(d, s56)
    assert ok and witness == (0, 1, 2)


def test_dual_l2_is_r2_exactly():
    d = dual(catalog.get("L2"))
    r2 = catalog.get("R2")
    assert d.add == r2.add and d.mul == r2.mul


def test_dual_involution():
    for name in catalog.builtin_names():
        a = catalog.get(name)
        dd = dual(dual(a))
        assert dd.add == a.add and dd.mul == a.mul


def test_dual_swaps_row_and_column_identities():
    for name in ("L2", "S58", "S4_475", "N2"):
        a = catalog.get(name)
        assert satisfies(a, "xy = xz").holds == satisfies(dual(a), "yx = zx").holds


def test_dual_takes_over_a_passing_report_that_holds(monkeypatch):
    from aisemiring import algebra
    from aisemiring.enumeration import enumerate_ai_semirings

    algebras = [catalog.get(name) for name in catalog.builtin_names()]
    algebras += [a for n in (1, 2, 3, 4) for a in enumerate_ai_semirings(n).items]
    calls = []

    def counting(a):
        calls.append(a)
        return verify_axioms(a)

    monkeypatch.setattr(algebra, "verify_axioms", counting)
    for a in algebras:
        a.validate()
        calls.clear()
        d = dual(a)
        assert calls == [] and d.is_validated  # no law is checked again
        assert verify_axioms(d).ok, (a.add, a.mul)


def test_trusted_paths_convert_no_table(monkeypatch):
    from aisemiring import algebra
    from aisemiring.enumeration import enumerate_column_constant
    from aisemiring.variety import VarietySpec, free_algebra

    builtins = [catalog.get(name).validate() for name in catalog.builtin_names()]
    top = VarietySpec("R", (catalog.get("S4_475"),))

    def refuse(*args):
        raise AssertionError("a trusted table was converted again")

    # dual, the streams and the free algebras build on tables already checked
    monkeypatch.setattr(algebra, "_freeze_table", refuse)
    for a in builtins:
        d = dual(a)
        assert d.add is a.add and d.mul == tuple(zip(*a.mul))
    assert enumerate_column_constant(4).count == 60
    assert free_algebra(top, 2).algebra.order == 15


def _naive_canonical(a):
    n = a.order
    best = None
    for perm in itertools.permutations(range(n)):
        moved = relabel(a, perm)
        flat = tuple(x for row in moved.add for x in row) + tuple(
            x for row in moved.mul for x in row
        )
        if best is None or flat < best:
            best = flat
    return best


def test_canonical_form_matches_naive_oracle():
    rng = random.Random(11)
    algebras = [catalog.get(n) for n in catalog.builtin_names()]
    for a in algebras:
        assert canonical_form(a).key == _naive_canonical(a)
    # and on scrambled copies
    for a in algebras:
        perm = list(range(a.order))
        rng.shuffle(perm)
        moved = relabel(a, tuple(perm))
        assert canonical_form(moved).key == canonical_form(a).key


def _relabelled(tables, perm):
    n = len(perm)
    inv = [perm.index(x) for x in range(n)]
    return tuple(
        tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        for t in tables
    )


def _assert_least_perm_breaks_ties(tables, n):
    # relabelled inputs move the tie set (the isomorphisms onto the
    # minimal tables); the brute force sees all n! candidates
    for start in itertools.permutations(range(n)):
        moved = _relabelled(tables, start)
        keys = {
            perm: tuple(x for t in _relabelled(moved, perm) for row in t for x in row)
            for perm in itertools.permutations(range(n))
        }
        least = min(keys.values())
        key, perm = canonical_tables(moved, n)
        assert key == least
        assert perm == min(p for p, k in keys.items() if k == least), (tables, start)


def test_canonical_perm_is_least_among_ties():
    from aisemiring.enumeration import enumerate_ai_semirings

    algebras = [catalog.get(n) for n in catalog.builtin_names()]
    for order in (1, 2, 3):
        algebras.extend(enumerate_ai_semirings(order).items)
    for a in algebras:
        _assert_least_perm_breaks_ties((a.add, a.mul), a.order)
    # On the algebras above, the first minimal relabelling the search
    # meets is already the least one. This table's only nontrivial
    # automorphism is (0 1)(2 3), and there the two differ.
    _assert_least_perm_breaks_ties(
        (((1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0)),), 4
    )


def test_canonical_form_orbit_invariance():
    a = catalog.get("S4_475")
    for perm in itertools.permutations(range(4)):
        assert canonical_form(relabel(a, perm)).key == canonical_form(a).key


def test_canonical_form_separates():
    assert canonical_form(catalog.get("L2")).key != canonical_form(catalog.get("R2")).key
    assert (
        canonical_form(catalog.get("S4_475")).key
        != canonical_form(catalog.get("S4_477")).key
    )


def test_canonical_perm_achieves_key():
    for name in ("S58", "S4_477", "S7"):
        a = catalog.get(name)
        cf = canonical_form(a)
        moved = relabel(a, cf.perm)
        flat = tuple(x for row in moved.add for x in row) + tuple(
            x for row in moved.mul for x in row
        )
        assert flat == cf.key


def test_are_isomorphic_with_witness():
    a = catalog.get("S58")
    perm = (2, 0, 1)
    ok, witness = are_isomorphic(a, relabel(a, perm))
    assert ok
    moved = relabel(a, witness)
    assert moved.add == relabel(a, perm).add and moved.mul == relabel(a, perm).mul


def test_n2_t2_not_isomorphic():
    ok, witness = are_isomorphic(catalog.get("N2"), catalog.get("T2"))
    assert not ok and witness is None


def test_find_subalgebra_l2_in_s4_475():
    found = find_subalgebra_isomorphic(catalog.get("S4_475"), catalog.get("L2"))
    assert found == (1, 2)  # catalog labels {2, 3}


def test_find_subalgebra_n2_in_s4_475():
    found = find_subalgebra_isomorphic(catalog.get("S4_475"), catalog.get("N2"))
    assert found == (0, 2)  # catalog labels {1, 3}


def test_find_subalgebra_t2_in_s58():
    found = find_subalgebra_isomorphic(catalog.get("S58"), catalog.get("T2"))
    assert found == (0, 2)  # catalog labels {1, 3}


def test_find_subalgebra_absent():
    assert find_subalgebra_isomorphic(catalog.get("N2"), catalog.get("L2")) is None


def test_automorphisms_contain_identity():
    for name in ("L2", "S58", "S4_475"):
        a = catalog.get(name)
        auts = automorphisms((a.add, a.mul), a.order)
        assert tuple(range(a.order)) in auts


def test_canonical_tables_single_table():
    key, perm = canonical_tables((CHAIN_ADD,), 2)
    assert key == (0, 0, 0, 1)
    assert sorted(perm) == [0, 1]
