"""Variety membership, free algebras, comparison, the ten-variety lattice."""

import functools
import itertools
import random
from collections import Counter, OrderedDict

import pytest

from aisemiring import catalog, variety
from aisemiring.algebra import ResourceBudgetError, direct_product, dual, relabel
from aisemiring.enumeration import (
    canonical_semilattices,
    enumerate_ai_semirings,
    enumerate_row_constant,
)
from gen_util import random_identity
from aisemiring.satisfaction import evaluate, satisfies
from aisemiring.terms import Identity, TermNF
from aisemiring.variety import (
    DEFAULT_CELL_LIMIT,
    EQUAL,
    INCOMPARABLE,
    LEFT_IN_RIGHT,
    RIGHT_IN_LEFT,
    LatticeIncompleteError,
    VarietySpec,
    build_lattice,
    classify_generated,
    compare,
    free_algebra,
    holds_in,
    _closed_form,
    _first_failing_subset,
    _join_values,
    _pattern,
    _pattern_index,
    _universe,
    member,
    standard_subvariety_specs,
)

g = catalog.get


def spec(label, *names):
    return VarietySpec(label, tuple(g(n) for n in names))


R_SPEC = spec("R", "S4_475")


@functools.lru_cache(maxsize=64)
def _closure(generators, k):
    return variety._Universe(generators, k, DEFAULT_CELL_LIMIT)


def closure_member(a, s):
    """member's verdict read from the closure, whichever route member
    itself takes: the closure stays the oracle."""
    return variety._separating_identity(a, _closure(s.generators, a.order)) is None


def test_free_algebra_of_l2_rank_1_is_trivial():
    res = free_algebra(spec("V(L2)", "L2"), 1)
    assert res.algebra.order == 1


def test_free_algebra_of_r_rank_1():
    res = free_algebra(R_SPEC, 1)
    assert res.algebra.order == 3
    assert [str(w) for w in res.witnesses] == ["x1", "x1x1", "x1+x1x1"]
    # evaluation vector of the generator runs over all four assignments
    assert res.vectors[0] == (0, 1, 2, 3)


def test_free_algebra_witnesses_reproduce_vectors():
    res = free_algebra(spec("R", "S4_475"), 2)
    a = g("S4_475")
    assignments = [(x, y) for x in range(4) for y in range(4)]
    for element, witness in enumerate(res.witnesses):
        vec = res.vectors[element]
        for column, (x, y) in enumerate(assignments):
            assert evaluate(a, witness, {"x1": x, "x2": y}) == vec[column]


def test_free_algebra_nt_rank_2_collapses_long_words():
    res = free_algebra(spec("V(N2,T2)", "N2", "T2"), 2)
    m = res.algebra.mul
    # all products coincide: words of length >= 2 collapse to one element
    assert m[0][1] == m[1][0] == m[0][0] == m[1][1]


def componentwise(gens, k, op, u, v):
    """u op v entry by entry, read straight off the generator tables;
    blocks follow the generator order, as in FreeAlgebraResult.vectors."""
    out = []
    pos = 0
    for gen in gens:
        table = getattr(gen, op)
        for _ in range(gen.order**k):
            out.append(table[u[pos]][v[pos]])
            pos += 1
    return tuple(out)


@pytest.mark.parametrize(
    "names, k", [(("S4_475",), 3), (("L2", "N2", "T2"), 4)], ids=["R-3", "LNT-4"]
)
def test_free_algebra_tables_match_componentwise_products(names, k):
    gens = tuple(g(n) for n in names)
    res = free_algebra(VarietySpec("V", gens), k)
    index = {vec: i for i, vec in enumerate(res.vectors)}
    assert len(index) == res.algebra.order
    for op in ("add", "mul"):
        table = getattr(res.algebra, op)
        for i, u in enumerate(res.vectors):
            for j, v in enumerate(res.vectors):
                assert table[i][j] == index[componentwise(gens, k, op, u, v)], (
                    op, i, j
                )


def test_free_algebra_tuple_path_matches_packed_path():
    # five copies of S4_475 make a 20-letter alphabet, beyond the 16
    # that fit a packed byte pair; the variety is still R
    five = VarietySpec("R5", (g("S4_475"),) * 5)
    assert sum(gen.order for gen in five.generators) > 16
    wide = free_algebra(five, 2)
    packed = free_algebra(R_SPEC, 2)
    assert wide.algebra.add == packed.algebra.add
    assert wide.algebra.mul == packed.algebra.mul
    assert [str(w) for w in wide.witnesses] == [str(w) for w in packed.witnesses]
    assert [v * 5 for v in packed.vectors] == list(wide.vectors)


def test_free_algebra_closure_route_on_both_vector_paths():
    # V(M2_or_D2_a, S4_475) lies in neither R nor its dual, so its free
    # algebra is built by closure; its generators tripled span 18
    # letters, beyond the 16 of a packed byte pair, so that closure runs
    # on tuples, and must give the same algebra
    gens = (g("M2_or_D2_a"), g("S4_475"))
    once, thrice = VarietySpec("V", gens), VarietySpec("V3", gens * 3)
    assert variety._closed_route(once, 2, DEFAULT_CELL_LIMIT) is None
    assert sum(gen.order for gen in thrice.generators) == 18
    packed, wide = free_algebra(once, 2), free_algebra(thrice, 2)
    assert packed.algebra.order == 24 and packed.algebra.is_validated
    assert wide.algebra.add == packed.algebra.add
    assert wide.algebra.mul == packed.algebra.mul
    assert [str(w) for w in wide.witnesses] == [str(w) for w in packed.witnesses]
    assert [v * 3 for v in packed.vectors] == list(wide.vectors)
    verdicts = [member(g(name), thrice).member for name in ("L2", "M2_or_D2_b", "R2")]
    assert verdicts == [True, False, False]


def test_free_algebra_satisfies_exactly_the_two_variable_identities():
    res = free_algebra(spec("V(L2,T2)", "L2", "T2"), 2)
    f = res.algebra
    for label in ("id0703", "L", "N", "T", "lt03", "ln02", "lnt02"):
        idents = [i for i in [*__import__("aisemiring").CATALOG[label]]]
        if any(len(i.variables()) > 2 for i in idents):
            continue
        both = all(
            satisfies(g("L2"), i).holds and satisfies(g("T2"), i).holds for i in idents
        )
        assert all(satisfies(f, i).holds for i in idents) == both, label


def test_member_positive():
    assert member(g("L2"), R_SPEC).member
    assert member(g("N2"), R_SPEC).member
    assert member(g("T2"), R_SPEC).member
    assert member(g("S58"), R_SPEC).member


def test_member_trivial_everywhere():
    for s in standard_subvariety_specs():
        assert member(g("trivial"), s).member


@pytest.mark.parametrize(
    "candidate, gens, expected",
    [
        ("R2", ("S4_475",), "x1x1 = x1x2"),
        ("R2", ("S4_475",) * 5, "x1x1 = x1x2"),
        ("L2", ("trivial",), "x1 = x2"),
        ("L2", ("N2",), "x1x1 = x2x2"),
        ("S7", ("S4_475",), "x2x1 = x2x3"),
        ("S58", ("L2", "N2", "T2"), "x1+x2+x1x1 = x1+x2+x2x2"),
    ],
    ids=["R2-in-R", "R2-in-R5", "L2-in-T", "L2-in-N2", "S7-in-R", "S58-in-LNT"],
)
def test_member_negative_with_checkable_certificate(candidate, gens, expected):
    variety = spec("V", *gens)
    a = g(candidate)
    res = member(a, variety)
    assert not res.member
    sep = res.separating_identity
    assert str(sep) == expected
    # the separating identity holds in every generator of the variety
    for generator in variety.generators:
        assert satisfies(generator, sep).holds
    # and fails in the candidate, in particular under the recorded assignment
    check = satisfies(a, sep)
    assert not check.holds
    lhs = evaluate(a, sep.lhs, res.assignment)
    rhs = evaluate(a, sep.rhs, res.assignment)
    assert lhs != rhs


def reference_member(a, uni):
    """The pair walk `_separating_identity` replaced, over the free
    algebra `uni` of rank |a|: a FIFO queue of (free element, value,
    derivation) triples, processed in the closure's sweep order. Returns
    (member, separating identity as text or None, assignment)."""
    k = a.order
    assignment = {f"x{i + 1}": i for i in range(k)}

    values: dict[int, int] = {}
    settled: list[int] = []
    derivation: dict[int, tuple] = {}
    pending: list[tuple[int, int, tuple]] = [
        (fid, i, ("x", i, -1)) for i, fid in enumerate(uni.seed_ids)
    ]

    def term_of(parent: tuple) -> TermNF:
        op, left, right = parent
        if op == "x":
            return TermNF([(f"x{left + 1}",)])
        lt = term_of(derivation[left])
        rt = term_of(derivation[right])
        return lt + rt if op == "+" else lt * rt

    pos = 0
    while pos < len(pending):
        fid, val, parent = pending[pos]
        pos += 1
        if fid in values:
            if values[fid] != val:
                separating = Identity(term_of(derivation[fid]), term_of(parent))
                return False, str(separating), assignment
            continue
        values[fid] = val
        derivation[fid] = parent
        settled.append(fid)
        add_row, mul_row = uni.add_tab[fid], uni.mul_tab[fid]
        for other in settled:
            oval = values[other]
            pending.append((add_row[other], a.add[val][oval], ("+", fid, other)))
            pending.append((mul_row[other], a.mul[val][oval], ("*", fid, other)))
            pending.append((uni.mul_tab[other][fid], a.mul[oval][val], ("*", other, fid)))
    return True, None, assignment


def test_member_matches_reference_walk_on_all_algebras_up_to_order_3():
    # the universe walk stays the oracle: _separating_identity must give
    # the reference walk's certificate, and member its verdict
    standard = standard_subvariety_specs()
    specs = [
        *standard,
        *(
            VarietySpec(f"dual {s.label}", tuple(dual(x) for x in s.generators))
            for s in standard
        ),
        VarietySpec("R5", (g("S4_475"),) * 5),  # tuple path
        # a sum and a product clash at the same sweep step here, so this
        # spec pins the order of the checks within a step
        spec("V(S7)", "S7"),
    ]
    algebras = [a for n in (1, 2, 3) for a in enumerate_ai_semirings(n).items]
    assert len(algebras) == 1 + 6 + 61
    # no free algebra is kept between calls, so each is built once here
    universes = {(i, n): _universe(s, n) for i, s in enumerate(specs) for n in (1, 2, 3)}
    members = 0
    for a in algebras:
        for i, s in enumerate(specs):
            uni = universes[i, a.order]
            sep = variety._separating_identity(a, uni)
            res = member(a, s)
            got = (sep is None, None if sep is None else str(sep), res.assignment)
            assert got == reference_member(a, uni), (a.add, a.mul, s.label)
            assert res.member == (sep is None), (a.add, a.mul, s.label)
            members += res.member
    # both verdicts are exercised
    assert 0 < members < len(algebras) * len(specs)


def test_member_isomorphism_invariant():
    rng = random.Random(17)
    for name in ("L2", "R2", "S56", "S58"):
        a = g(name)
        perm = list(range(a.order))
        rng.shuffle(perm)
        moved = relabel(a, tuple(perm))
        assert member(a, R_SPEC).member == member(moved, R_SPEC).member


def test_member_invariant_under_equal_generating_sets():
    other = spec("V(S58,N2)", "S58", "N2")
    for name in ("L2", "R2", "N2", "T2", "S56", "S58", "S7"):
        assert member(g(name), R_SPEC).member == member(g(name), other).member


def test_member_monotone_along_inclusions():
    specs = standard_subvariety_specs()
    algebras = [g(n) for n in ("L2", "N2", "T2", "S58", "S56", "R2")]
    for i, small in enumerate(specs):
        for j, big in enumerate(specs):
            if compare(small, big) not in (EQUAL, LEFT_IN_RIGHT):
                continue
            for a in algebras:
                if member(a, small).member:
                    assert member(a, big).member


def test_compare_generator_equality():
    assert compare(R_SPEC, spec("V(S58,N2)", "S58", "N2")) == EQUAL


def test_compare_strict_inclusion():
    assert compare(spec("V(L2)", "L2"), spec("V(L2,N2)", "L2", "N2")) == LEFT_IN_RIGHT


def test_compare_incomparable_atoms():
    assert compare(spec("V(L2)", "L2"), spec("V(N2)", "N2")) == INCOMPARABLE


def test_lattice_of_the_ten():
    lat = build_lattice(standard_subvariety_specs())
    labels = lat.labels()
    assert len(labels) == 10
    assert lat.distributive
    assert sorted(labels[i] for i in lat.atoms()) == ["V(L2)", "V(N2)", "V(T2)"]
    assert len(lat.hasse_edges) == 15
    assert labels[lat.bottom()] == "T"


def test_lattice_two_chain():
    lat = build_lattice([spec("T", "trivial"), spec("V(L2)", "L2")])
    assert lat.hasse_edges == ((0, 1),)
    assert lat.distributive


def test_lattice_rejects_duplicate_varieties():
    with pytest.raises(
        LatticeIncompleteError,
        match=r"specs 'R' and 'V\(S58,N2\)' generate the same variety",
    ):
        build_lattice([R_SPEC, spec("V(S58,N2)", "S58", "N2")])


def test_lattice_reports_escaping_join():
    with pytest.raises(LatticeIncompleteError) as err:
        build_lattice([spec("T", "trivial"), spec("V(L2)", "L2"), spec("V(N2)", "N2")])
    assert "join" in str(err.value)


def test_lattice_negative_control_s56_for_s58():
    # swapping in S56 (which fails xy = xz) must not yield the ten-variety
    # lattice: its joins with the row-constant varieties escape the list
    assert not satisfies(g("S56"), "xy = xz").holds
    specs = [
        s if s.label != "V(S58)" else spec("V(S56)", "S56")
        for s in standard_subvariety_specs()
    ]
    with pytest.raises(LatticeIncompleteError):
        build_lattice(specs)


def test_classification_of_named_algebras():
    assert classify_generated(g("trivial")) == "T"
    assert classify_generated(g("L2")) == "V(L2)"
    assert classify_generated(g("N2")) == "V(N2)"
    assert classify_generated(g("T2")) == "V(T2)"
    assert classify_generated(g("S58")) == "V(S58)"
    assert classify_generated(g("S4_475")) == "R"


def test_classification_requires_row_constant_input():
    with pytest.raises(ValueError):
        classify_generated(g("R2"))


def test_classification_agrees_with_membership_for_order_3():
    for a in enumerate_row_constant(3).items:
        classify_generated(a)


# satisfaction pattern on (L, N, T, lt03, lnt02) of each standard spec,
# as the classification table listed it before it was derived
PINNED_PATTERNS = {
    "T": (True, True, True, True, True),
    "V(L2)": (False, True, True, True, True),
    "V(N2)": (True, False, True, False, True),
    "V(T2)": (True, True, False, True, True),
    "V(L2,N2)": (False, False, True, False, True),
    "V(N2,T2)": (True, False, False, False, True),
    "V(L2,T2)": (False, True, False, True, True),
    "V(L2,N2,T2)": (False, False, False, False, True),
    "V(S58)": (False, True, False, False, False),
    "R": (False, False, False, False, False),
}


def test_generator_patterns_match_pinned_table():
    specs = standard_subvariety_specs()
    assert {s.label: _pattern(s.generators) for s in specs} == PINNED_PATTERNS


def test_specs_sharing_a_pattern_are_rejected():
    with pytest.raises(ValueError, match="'V\\(L2\\)' and 'V\\(L2,T\\)' share"):
        _pattern_index([spec("V(L2)", "L2"), spec("V(L2,T)", "L2", "trivial")])


def test_standard_order_comes_from_the_closed_form(monkeypatch):
    # the closure stays the oracle: its verdict on every generator
    specs = standard_subvariety_specs()
    expected = tuple(
        tuple(all(closure_member(x, t) for x in s.generators) for t in specs)
        for s in specs
    )

    def refuse(*args, **kwargs):
        raise AssertionError("_standard() compared specs through the closure")

    calls = []
    ask = variety.member

    def counted(a, s, *args):
        calls.append((a, s.label))
        return ask(a, s, *args)

    monkeypatch.setattr(variety, "compare", refuse)
    monkeypatch.setattr(variety, "_universe", refuse)
    monkeypatch.setattr(variety, "_separating_identity", refuse)
    monkeypatch.setattr(variety, "member", counted)
    variety._standard.cache_clear()
    variety._closed_forms.clear()
    assert variety._standard()[1] == expected
    # one call per (generator, spec) question: 6 generators against 10
    # specs, less those the diagonal or an earlier failing generator
    # leaves unasked
    assert len(calls) == len(set(calls)) == 56


def test_build_lattice_asks_each_join_only_the_reverse_inclusion(monkeypatch):
    """A join check asks only whether each generator of the least upper
    bound lies in the merged spec: the other inclusion follows from leq,
    so no (generator, spec) question of _leq is asked again."""
    calls = []
    ask = variety.member

    def counted(a, s, *args):
        calls.append((a, s.label))
        return ask(a, s, *args)

    monkeypatch.setattr(variety, "member", counted)
    lat = build_lattice(standard_subvariety_specs())
    # _leq's 56 distinct questions, then one per generator of the least
    # upper bound for each of the 13 incomparable pairs: 28 in all
    assert len(calls) == 84
    leq_calls, join_calls = calls[:56], calls[56:]
    assert len(set(leq_calls)) == 56
    assert all("+" in label for _, label in join_calls)
    assert lat.labels()[lat.join_table[1][2]] == "V(L2,N2)"


def _closure_verdict(v1, v2):
    """compare's verdict from member's closure alone."""
    left_in_right = all(closure_member(x, v2) for x in v1.generators)
    right_in_left = all(closure_member(x, v1) for x in v2.generators)
    return {
        (True, True): EQUAL,
        (True, False): LEFT_IN_RIGHT,
        (False, True): RIGHT_IN_LEFT,
        (False, False): INCOMPARABLE,
    }[left_in_right, right_in_left]


def _dual_specs():
    return [
        VarietySpec(f"dual {s.label}", tuple(map(dual, s.generators)))
        for s in standard_subvariety_specs()
    ]


@pytest.mark.parametrize(
    "family",
    [
        standard_subvariety_specs,
        _dual_specs,
        lambda: [spec("V(L2)", "L2"), spec("V(R2)", "R2")],
    ],
    ids=["standard", "dual", "mixed"],
)
def test_compare_agrees_with_the_closure(family):
    for v1, v2 in itertools.permutations(family(), 2):
        assert compare(v1, v2) == _closure_verdict(v1, v2), (v1.label, v2.label)


def test_compare_builds_no_closure_inside_r_or_its_dual(monkeypatch):
    # nor does it dualise an algebra: the dual family is decided on its
    # own closed forms and on the columns of its generators' products
    def refuse(*args, **kwargs):
        raise AssertionError("compare reached the closure or dualised an algebra")

    monkeypatch.setattr(variety, "_universe", refuse)
    monkeypatch.setattr(variety, "_separating_identity", refuse)
    monkeypatch.setattr(variety, "dual", refuse)
    assert build_lattice(standard_subvariety_specs()).distributive
    assert build_lattice(_dual_specs()).distributive


def test_compare_outside_r_and_its_dual_reaches_member(monkeypatch):
    # member walks a universe only outside R and its dual
    calls = []
    walk = variety._separating_identity

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(variety, "_separating_identity", counted)
    outside = spec("V(M2_or_D2_a)", "M2_or_D2_a")
    assert compare(outside, spec("V(L2)", "L2")) == _closure_verdict(
        outside, spec("V(L2)", "L2")
    )
    assert calls
    calls.clear()
    assert compare(spec("V(L2)", "L2"), spec("V(L2,N2)", "L2", "N2")) == LEFT_IN_RIGHT
    assert not calls


def test_compare_across_r_and_its_dual_builds_no_universe(monkeypatch):
    # R2 lies outside R and L2 outside its dual, so neither is a member of
    # the other's variety, and the closed-form route says so at once
    def refuse(*args, **kwargs):
        raise AssertionError("compare built a universe")

    monkeypatch.setattr(variety, "_universe", refuse)
    assert compare(spec("V(R2)", "R2"), spec("V(L2)", "L2")) == INCOMPARABLE


def test_compare_over_the_closed_form_budget_falls_back_to_the_closure():
    # L2^3 in V(L2) at rank 8: the closed form's 65,535 x 256 cells exceed
    # the default budget, the closure's 255 x 256 do not
    l2 = spec("V(L2)", "L2")
    cube = direct_product(direct_product(g("L2"), g("L2")), g("L2"))
    assert variety._closed_route(l2, cube.order, DEFAULT_CELL_LIMIT) is None
    assert compare(VarietySpec("V(L2^3)", (cube,)), l2) == EQUAL


def test_compare_honours_the_cell_budget():
    for left, right in (
        (spec("V(L2)", "L2"), R_SPEC),  # closed form
        (spec("V(R2)", "R2"), spec("V(S4_477)", "S4_477")),  # dual
        (spec("V(M2_or_D2_a)", "M2_or_D2_a"), R_SPEC),  # closure
    ):
        with pytest.raises(ResourceBudgetError):
            compare(left, right, cell_limit=10)
    with pytest.raises(ResourceBudgetError):
        build_lattice(standard_subvariety_specs(), cell_limit=10)


def test_budget_errors_are_not_answers():
    with pytest.raises(ResourceBudgetError):
        member(g("S4_475"), R_SPEC, cell_limit=10)
    with pytest.raises(ResourceBudgetError):
        free_algebra(R_SPEC, 2, cell_limit=2 * 16)  # two vectors of width 16


def test_cold_closed_form_free_algebra_computes_the_letter_joins_once_by_rule_twice_by_evaluation(
    monkeypatch,
):
    # a standard spec's closed form is built by rule, so only the universe
    # computes the joins, which its check reads; a spec the rules do not
    # cover (V(S58,N2) is R, but not by its generators) computes them once
    # more for its closed form. With the closed form cached only the
    # universe computes them
    calls = []
    letter_joins = variety._letter_joins

    def counted(vectors):
        calls.append(vectors)
        return letter_joins(vectors)

    monkeypatch.setattr(variety, "_letter_joins", counted)
    monkeypatch.setattr(variety, "_closed_forms", OrderedDict())
    uncovered = spec("V(S58,N2)", "S58", "N2")
    assert variety._rule(R_SPEC) is not None and variety._rule(uncovered) is None
    for s, cold in ((R_SPEC, 1), (uncovered, 2)):
        calls.clear()
        order = free_algebra(s, 3).algebra.order
        assert len(calls) == cold, s.label
        assert free_algebra(s, 3).algebra.order == order == 63
        assert len(calls) == cold + 1, s.label


def test_check_closed_form_rejects_a_corrupted_rep():
    # V(L2,N2) at rank 2 has 8 classes over the 15 nonempty subsets
    ln = spec("V(L2,N2)", "L2", "N2")
    route = variety._closed_route(ln, 2, DEFAULT_CELL_LIMIT)
    rep = route[0]
    uni = variety._Universe(ln.generators, 2, DEFAULT_CELL_LIMIT, route)
    variety._check_closed_form(uni, rep, ln.label)
    # two classes merged: some subset no longer has its representative's join
    first, second = sorted(set(rep[1:]))[:2]
    merged = tuple(first if r == second else r for r in rep)
    # a class split: two representatives share one join
    s = next(s for s, r in enumerate(rep) if s != r)
    split = rep[:s] + (s,) + rep[s + 1 :]
    for bad in (merged, split):
        with pytest.raises(RuntimeError, match="disagrees with the closed form"):
            variety._check_closed_form(uni, bad, ln.label)


def test_cell_limit_cuts_exactly_at_size_times_width():
    # the rank-k closure holds size x width vector cells, so that product
    # is the least budget that admits it
    uni = _universe(R_SPEC, 2)
    assert (uni.size, uni.width) == (15, 16)
    cells = uni.size * uni.width
    calls = (
        lambda limit: free_algebra(R_SPEC, 2, cell_limit=limit).algebra.order == 15,
        lambda limit: member(g("L2"), R_SPEC, cell_limit=limit).member,
    )
    for call in calls:
        for limit, fits in ((cells - uni.width, False), (cells, True)):
            if fits:
                assert call(limit)
            else:
                with pytest.raises(ResourceBudgetError):
                    call(limit)


def test_closed_form_agrees_with_member_up_to_order_4():
    # the closure stays the oracle: every row-constant algebra of orders
    # 1-4 and a relabelling of each, against all ten specs
    rng = random.Random(9)
    specs = standard_subvariety_specs()
    members = checks = 0
    for n in (1, 2, 3, 4):
        for a in enumerate_row_constant(n).items:
            moved = relabel(a, rng.sample(range(n), n))
            for b in (a, moved):
                values = _join_values(b)
                for s in specs:
                    got = _first_failing_subset(values, _closed_form(s, n)) is None
                    assert got == member(b, s).member == closure_member(b, s), (
                        b.add,
                        b.mul,
                        s.label,
                    )
                    members += got
                    checks += 1
    assert checks == 2 * (1 + 3 + 12 + 60) * 10
    assert 0 < members < checks


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_of_r_separates_every_subset(k):
    # F_R(k) has one element per nonempty subset of the 2k letters, and
    # S4_475 tells all of them apart: every subset is its own representative
    assert free_algebra(R_SPEC, k).algebra.order == 4**k - 1
    assert _closed_form(R_SPEC, k) == tuple(range(4**k))


def test_closed_route_flips_the_dual_and_refuses_mixed_specs():
    # R2 lies in the dual of R, and its route reads its own closed form;
    # S4_475 and R2 together lie in neither, so the closure answers
    assert not satisfies(g("R2"), "xy = xz").holds
    r2 = spec("V(R2)", "R2")
    assert variety._closed_route(r2, 2, DEFAULT_CELL_LIMIT) == (_closed_form(r2, 2), True)
    mixed = spec("V(S4_475,R2)", "S4_475", "R2")
    assert variety._closed_route(mixed, 1, DEFAULT_CELL_LIMIT) is None


def test_classification_builds_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify_generated reached the closure")

    # cold: the inclusion order and the closed forms are built afresh
    variety._standard.cache_clear()
    variety._closed_forms.clear()
    monkeypatch.setattr(variety, "compare", refuse)
    monkeypatch.setattr(variety, "_universe", refuse)
    monkeypatch.setattr(variety, "_separating_identity", refuse)
    for a in enumerate_row_constant(4).items:
        classify_generated(a)


def _refuse_closed_form_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the budget check")

    for name in ("_pattern", "_join_values", "_rule_form", "_evaluated_form"):
        monkeypatch.setattr(variety, name, refuse)
    monkeypatch.setattr(variety._Vectors, "__init__", refuse)


def test_classification_budget_is_raised_before_any_work(monkeypatch):
    # the ten closed forms are built by rule, 4^k cells each: order 12 is
    # the first over the default budget
    a = direct_product(g("L2"), direct_product(g("L2"), enumerate_row_constant(3).items[-1]))
    assert a.order == 12 and satisfies(a, "xy = xz").holds
    assert 4**11 <= DEFAULT_CELL_LIMIT < 4**12
    variety._standard()
    _refuse_closed_form_work(monkeypatch)
    with pytest.raises(ResourceBudgetError, match="closed form of 16777216 cells exceeds the cell budget"):
        classify_generated(a)


def test_holds_in_agrees_with_satisfies_on_the_generators():
    # an identity holds in V(G) iff it holds in every generator in G
    rng = random.Random(11)
    specs = standard_subvariety_specs()
    holding = 0
    for _ in range(400):
        ident = random_identity(rng, max_vars=3)
        for s in specs:
            got = holds_in(s, ident)
            assert got == all(satisfies(a, ident).holds for a in s.generators), (
                str(ident),
                s.label,
            )
            holding += got
    assert 0 < holding < 400 * len(specs)


def test_holds_in_accepts_a_string_identity():
    assert holds_in(R_SPEC, "xy = xz")
    assert not holds_in(R_SPEC, "x = x + xx")
    assert holds_in(spec("V(T2)", "T2"), "xx = xx + x")


def test_holds_in_rejects_specs_outside_r():
    for outside in (spec("V(R2)", "R2"), spec("V(M2_or_D2_a)", "M2_or_D2_a")):
        with pytest.raises(ValueError, match="falsifies xy = xz"):
            holds_in(outside, "x = x + xx")


def test_holds_in_budget_is_raised_before_any_vector(monkeypatch):
    # seven variables fit R's rule-built closed form, 4^7 cells, but not
    # the evaluated one of a spec the rules do not cover, (4^7 - 1) x
    # (4^7 + 2^7) cells; twelve variables exceed 4^k too
    seven = "x1 + x2 + x3 + x4 + x5 + x6 + x7 = x1"
    assert not holds_in(R_SPEC, seven)
    twelve = " + ".join(f"x{i}" for i in range(1, 13)) + " = x1"
    variety._rules()
    _refuse_closed_form_work(monkeypatch)
    for s, ident in ((spec("V(S4_475,L2)", "S4_475", "L2"), seven), (R_SPEC, twelve)):
        with pytest.raises(ResourceBudgetError, match="cell budget"):
            holds_in(s, ident)


def _cached_cells():
    return sum(map(len, variety._closed_forms.values()))


def test_closed_form_cache_stays_bounded(monkeypatch):
    # the ten standard specs at ranks 1-5 fit, 13,640 ints
    assert variety._CLOSED_FORM_CACHE_CELLS >= 10 * sum(4**k for k in range(1, 6))
    # with room for ranks 1, 2 and 3 (4 + 16 + 64 ints), a second rank-2
    # entry evicts the least recently used one
    monkeypatch.setattr(variety, "_CLOSED_FORM_CACHE_CELLS", 84)
    variety._closed_forms.clear()
    a, b, c, d = (spec(f"V({n})", n) for n in ("T2", "N2", "L2", "S58"))
    _closed_form(a, 1)
    _closed_form(b, 2)
    _closed_form(c, 3)
    _closed_form(a, 1)  # a is now the most recently used
    _closed_form(d, 2)
    key = variety._closed_form_key
    assert list(variety._closed_forms) == [(key(c), 3), (key(a), 1), (key(d), 2)]
    assert _cached_cells() == 84


def test_closed_form_cache_ignores_labels():
    # a join spec such as V(L2)+V(N2) reuses the entry of V(L2,N2)
    variety._closed_forms.clear()
    rep = _closed_form(spec("V(L2,N2)", "L2", "N2"), 2)
    assert _closed_form(spec("V(L2)+V(N2)", "L2", "N2"), 2) is rep
    assert list(variety._closed_forms) == [(variety._closed_form_key(spec("", "L2", "N2")), 2)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_spec_and_its_dual_share_one_closed_form(k):
    # subset joins read only + and the squares, which dualising keeps
    variety._closed_forms.clear()
    for s, d in zip(standard_subvariety_specs(), _dual_specs()):
        rep = _closed_form(s, k)
        assert _closed_form(d, k) is rep, (s.label, k)
    assert len(variety._closed_forms) == 10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_rule_built_closed_forms_equal_evaluation(k):
    # the ten standard specs and their duals are covered by the rules, and
    # evaluation stays the reference
    for s in standard_subvariety_specs() + _dual_specs():
        invariant = variety._rule(s)
        assert invariant is not None, s.label
        rule = variety._rule_form(invariant, k)
        assert rule == variety._evaluated_form(s.generators, k), (s.label, k)
        assert _closed_form(s, k) == rule, (s.label, k)


def test_rules_cover_only_the_generator_sets_of_the_ten():
    # a merged join spec, a relabelled generator and an extra generator
    # all keep evaluation, even where the variety is one of the ten
    covered = [
        spec("V(N2,L2)", "N2", "L2"),
        spec("V(L2,L2)", "L2", "L2"),
        spec("V(R2,T2)", "R2", "T2"),
    ]
    swapped = relabel(g("L2"), [1, 0])
    uncovered = [
        spec("V(L2,N2,S58)", "L2", "N2", "S58"),
        spec("V(S58,N2)", "S58", "N2"),
        spec("V(L2,T)", "L2", "trivial"),
        VarietySpec("V(L2')", (swapped,)),
    ]
    assert all(variety._rule(s) is not None for s in covered)
    assert all(variety._rule(s) is None for s in uncovered)
    assert compare(uncovered[1], R_SPEC) == compare(uncovered[3], spec("V(L2)", "L2")) == EQUAL


# classes of F_V(k) by the number of values of V's invariant
CLASS_COUNTS = {
    "T": lambda k: 1,
    "V(L2)": lambda k: 2**k - 1,
    "V(N2)": lambda k: 2**k,
    "V(T2)": lambda k: 2**k,
    "V(L2,N2)": lambda k: 3**k - 1,
    "V(N2,T2)": lambda k: 2 ** (k + 1) - 1,
    "V(L2,T2)": lambda k: 2 ** (k + 1) - 2,
    "V(L2,N2,T2)": lambda k: 3**k + 2**k - 2,
    "V(S58)": lambda k: 3**k - 1,
    "R": lambda k: 4**k - 1,
}


@pytest.mark.parametrize("k", range(1, 9))
def test_rule_built_class_counts_follow_the_formulas(k):
    counts = {
        s.label: len(set(variety._rule_form(variety._rule(s), k))) - 1
        for s in standard_subvariety_specs()
    }
    assert counts == {label: count(k) for label, count in CLASS_COUNTS.items()}
    if k == 6:
        assert list(counts.values()) == [1, 63, 64, 64, 728, 127, 126, 791, 728, 4095]


def test_the_four_generators_have_the_facts_the_rules_rest_on():
    # each is row-constant, xy = f(x) with f(x) = xx, so the join of a
    # subset S is sum_{i in A} a_i + sum_{i in B} f(a_i)
    def f(a):
        return [a.mul[x][x] for x in range(a.order)]

    for name in ("L2", "N2", "T2", "S58"):
        assert variety._in_r(g(name)), name
    l2, n2, t2, s58 = (g(n) for n in ("L2", "N2", "T2", "S58"))
    assert f(l2) == list(range(l2.order))  # f = id: the value reads U
    assert f(n2) == [_bottoms(n2)[0]] * n2.order  # constant at the bottom: A
    assert f(t2) == [_top(t2)] * t2.order  # constant at the top: A, or e
    # a + f(a) = f(a): the value reads B and U
    assert all(s58.add[x][y] == y for x, y in enumerate(f(s58)))
    # and S58 is none of the other three shapes
    assert f(s58) != list(range(s58.order)) and len(set(f(s58))) > 1


def test_build_lattice_computes_each_generators_join_values_once(monkeypatch):
    # per call, not per process: a second call computes them again
    calls = Counter()
    join_values = variety._join_values

    def counted(a):
        calls[a] += 1
        return join_values(a)

    monkeypatch.setattr(variety, "_join_values", counted)
    for specs in (standard_subvariety_specs(), _dual_specs()):
        generators = {x for s in specs for x in s.generators}
        assert len(generators) == 6
        for times in (1, 2):
            calls.clear()
            for _ in range(times):
                build_lattice(specs)
            assert calls == Counter(dict.fromkeys(generators, times))


def test_order_6_sample_classifies_to_pinned_labels():
    # every hundredth algebra of the order-6 row-constant stream, as given
    # and relabelled; the label counts of the whole pool are checked in CI
    pool = enumerate_row_constant(6).items
    assert len(pool) == 2549
    rng = random.Random(6)
    labels = []
    for a in pool[::100]:
        label = classify_generated(a)
        assert classify_generated(relabel(a, rng.sample(range(6), 6))) == label
        labels.append(label)
    assert labels == ORDER_6_SAMPLE_LABELS


ORDER_6_SAMPLE_LABELS = [
    "V(T2)", "V(L2,N2,T2)", "V(L2,N2,T2)", "R", "V(S58)", "V(L2,N2,T2)",
    "R", "V(S58)", "R", "V(S58)", "V(S58)", "V(T2)", "R", "V(S58)", "R",
    "V(L2,N2)", "R", "V(L2,N2)", "V(L2,T2)", "V(S58)", "V(N2,T2)", "V(S58)",
    "R", "V(L2,N2)", "V(L2,N2,T2)", "R",
]


def test_rank_9_closed_form_leaves_the_cache_within_its_cap():
    variety._closed_forms.clear()
    for s in standard_subvariety_specs():
        _closed_form(s, 2)
    trivial = spec("T", "trivial")
    assert holds_in(trivial, " + ".join(f"x{i}" for i in range(1, 10)) + " = x1")
    assert _cached_cells() <= variety._CLOSED_FORM_CACHE_CELLS
    assert (variety._closed_form_key(trivial), 9) in variety._closed_forms


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_algebra_order_matches_the_closed_form(k):
    for s in standard_subvariety_specs():
        classes = len(set(_closed_form(s, k))) - 1
        assert free_algebra(s, k).algebra.order == classes


def test_free_algebra_order_mismatch_raises(monkeypatch):
    def merged(spec, k):
        # a closed form that merges every subset, as of the trivial variety
        return (0,) + (1,) * (4**k - 1)

    monkeypatch.setattr(variety, "_closed_form", merged)
    with pytest.raises(RuntimeError, match="closed form"):
        free_algebra(spec("V(L2)", "L2"), 2)
    assert free_algebra(spec("T", "trivial"), 2).algebra.order == 1


def _universe_fields(uni):
    return (
        uni._parents,
        uni.add_tab,
        uni.mul_tab,
        uni.seed_ids,
        [uni.decode(v) for v in uni.vectors],
        [str(uni.witness(i)) for i in range(uni.size)],
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_replayed_universe_equals_the_closure(k):
    # the sweep over closed-form classes discovers the closure's elements in
    # the closure's order, inside R and (through the dual's closed form,
    # with products read from the right factor) inside its dual
    specs = standard_subvariety_specs() + (_dual_specs() if k <= 3 else [])
    flipped = []
    for s in specs:
        route = variety._closed_route(s, k, DEFAULT_CELL_LIMIT)
        assert route is not None, s.label
        if route[1]:
            flipped.append(s.label)
        replayed = variety._Universe(s.generators, k, DEFAULT_CELL_LIMIT, route)
        closure = variety._Universe(s.generators, k, DEFAULT_CELL_LIMIT)
        assert _universe_fields(replayed) == _universe_fields(closure), (s.label, k)
    assert ("dual R" in flipped) == (k <= 3)


def test_closed_form_certificates_are_sound_and_verdicts_match_the_closure():
    # every algebra of orders 1-3 and the row-constant ones of order 4,
    # against the ten standard specs and their duals: all on member's
    # closed-form route, the closure stays the oracle for the verdicts
    algebras = [
        *(a for n in (1, 2, 3) for a in enumerate_ai_semirings(n).items),
        *enumerate_row_constant(4).items,
    ]
    specs = standard_subvariety_specs() + _dual_specs()
    assert all(variety._closed_route(s, 4, DEFAULT_CELL_LIMIT) for s in specs)
    members = pairs = 0
    for s in specs:
        inside_r = all(satisfies(x, "xy = xz").holds for x in s.generators)
        for a in algebras:
            res = member(a, s)
            assert res.member == closure_member(a, s), (a.add, a.mul, s.label)
            pairs += 1
            members += res.member
            sep = res.separating_identity
            if res.member:
                assert sep is None
                continue
            for generator in s.generators:
                assert satisfies(generator, sep).holds, (str(sep), s.label)
            lhs = evaluate(a, sep.lhs, res.assignment)
            assert lhs != evaluate(a, sep.rhs, res.assignment), (str(sep), s.label)
            if inside_r:
                assert holds_in(s, sep), (str(sep), s.label)
    assert (pairs, members) == (2560, 425)


def test_closed_form_over_the_budget_falls_back_to_the_closure():
    # V(L2) at rank 8: the closure's 255 x 256 cells fit the default budget,
    # the closed form's 65,535 x 256 do not, so the closure answers
    l2 = spec("V(L2)", "L2")
    assert 255 * 2**8 <= DEFAULT_CELL_LIMIT < (4**8 - 1) * 2**8
    assert variety._closed_route(l2, 8, DEFAULT_CELL_LIMIT) is None
    assert free_algebra(l2, 8).algebra.order == 255


def _top(a):
    return next(t for t in range(a.order) if all(a.add[t][x] == t for x in range(a.order)))


def _bottoms(a):
    return [b for b in range(a.order) if all(a.add[b][x] == x for x in range(a.order))]


@pytest.mark.parametrize("n", [4, 5])
def test_three_label_counts_match_semilattice_counts(n):
    # a third route to three label counts of the row-constant algebras:
    # - V(L2): the product is xy = x, one algebra per semilattice;
    # - V(T2): the product is constant at the top, one per semilattice;
    # - V(N2): the product is constant at a bottom, and removing the bottom
    #   maps these one to one onto the semilattices of order n - 1
    pool = enumerate_row_constant(n).items
    labels = Counter()
    for a in pool:
        label = classify_generated(a)
        labels[label] += 1
        products = {a.mul[x][y] for x in range(a.order) for y in range(a.order)}
        if label == "V(L2)":
            assert all(a.mul[x][y] == x for x in range(n) for y in range(n))
        elif label == "V(T2)":
            assert products == {_top(a)}
        elif label == "V(N2)":
            assert [*products] == _bottoms(a)
    assert labels["V(L2)"] == labels["V(T2)"] == len(canonical_semilattices(n))
    assert labels["V(N2)"] == len(canonical_semilattices(n - 1))
