"""Acceptance suite: one test per criterion, in order.

Each test prints a single PASS line naming the criterion when it
succeeds (run with -s or -v to see them); a failing criterion fails its
test with the measured values in the message.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest

from aisemiring import catalog
from aisemiring.algebra import (
    Congruence,
    are_isomorphic,
    canonical_form,
    congruence_quotient,
    dual,
    find_subalgebra_isomorphic,
    subalgebra_generated,
)
from aisemiring.derive import derive_bounded, replay_proof
from aisemiring.enumeration import (
    count_restricted_union,
    enumerate_ai_semirings,
    enumerate_column_constant,
    enumerate_constant_mul,
    enumerate_row_constant,
)
from aisemiring.satisfaction import CATALOG, satisfies
from aisemiring.variety import (
    EQUAL,
    VarietySpec,
    classify_generated,
    compare,
    holds_in,
    member,
)
from gen_util import random_absorption_identity, random_identity

g = catalog.get

# CLI subprocesses import the same package copy as this module
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(catalog.__file__))
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    ),
}


def keys(algebras):
    return sorted(canonical_form(a).key for a in algebras)


@lru_cache(maxsize=None)
def general(n):
    """The general enumeration at order n, run once per module."""
    return enumerate_ai_semirings(n, workers=os.cpu_count() or 1)


def test_criterion_1_enumeration_counts():
    got = {n: general(n).count for n in (2, 3, 4)}
    assert got == {2: 6, 3: 61, 4: 866}, got
    # self-measured regression values, not published counts: 15,751 is
    # what the general search gives at order 5 and 2,549 what the
    # structural row-constant pipeline gives at order 6
    assert general(5).count == 15751, general(5).count
    row6 = enumerate_row_constant(6).count
    assert row6 == 2549, row6
    print(
        "\nACCEPTANCE 1 PASS: isomorphism-class counts 6 / 61 / 866 reproduced; "
        "regression counts 15,751 (order 5) and 2,549 (row-constant, order 6) held"
    )


def constant_classes(algebras):
    """(row-constant, column-constant, constant) algebras, read straight
    from the multiplication tables."""
    row = [a for a in algebras if all(len(set(r)) == 1 for r in a.mul)]
    col = [a for a in algebras if all(len(set(c)) == 1 for c in zip(*a.mul))]
    both = [a for a in row if len({r[0] for r in a.mul}) == 1]
    return row, col, both


def test_criterion_2_restricted_union_789():
    # Does the union count at orders <= 5 reproduce the reported 789
    # under either convention for the one-element algebra?  The counts
    # are checked against the general enumeration first, so the verdict
    # rests on two independent routes at every order.
    report = count_restricted_union(5)
    rows = {
        r.order: (r.row_constant, r.column_constant, r.both) for r in report.rows
    }
    expected = {}
    for n in range(1, 6):
        from_tables = constant_classes(general(n).items)
        expected[n] = tuple(len(c) for c in from_tables)
        assert rows.get(n) == expected[n], (
            f"order {n}: count_restricted_union gives (row, col, both) = "
            f"{rows.get(n)}, the general enumeration's tables give {expected[n]}"
        )
        structural = (
            ("enumerate_row_constant", enumerate_row_constant(n).items),
            ("enumerate_column_constant", enumerate_column_constant(n).items),
            ("enumerate_constant_mul", enumerate_constant_mul(n).items),
        )
        for (route, items), mine in zip(structural, from_tables):
            assert keys(items) == keys(mine), (
                f"order {n}: {route} and the general enumeration's tables "
                "give different isomorphism classes"
            )
    unions = {n: r + c - b for n, (r, c, b) in expected.items()}
    total = sum(unions.values())
    totals = (report.total_from_order_1, report.total_from_order_2)
    assert totals == (total, total - unions[1]) == (792, 791), (totals, unions)
    matching = report.convention_matching(789)
    print(
        "\nACCEPTANCE 2: per-order (row, col, both) = "
        f"{rows}; totals incl/excl order 1 = {totals}; "
        f"convention matching 789: {matching}"
    )
    assert matching is None, (
        f"789 matched under convention {matching!r}, but the totals confirmed "
        f"by the general enumeration are {totals}"
    )
    print(
        "ACCEPTANCE 2 PASS: per-order unions "
        f"{list(unions.values())} confirmed by the structural "
        "pipelines and the general enumeration; 789 matches neither convention"
    )


def test_criterion_3_cross_pipeline_oracle_equivalence():
    for n in (1, 2, 3, 4, 5):
        items = general(n).items
        row_general = [a for a in items if satisfies(a, "xy = xz").holds]
        col_general = [a for a in items if satisfies(a, "yx = zx").holds]
        row_structural = enumerate_row_constant(n).items
        assert keys(row_general) == keys(row_structural), n
        assert keys(col_general) == sorted(
            canonical_form(dual(a)).key for a in row_structural
        ), n
    assert len(row_general) == len(col_general) == 362
    print("\nACCEPTANCE 3 PASS: structural and general pipelines agree (n <= 5)")


def test_criterion_4_lattice_verification():
    proc = subprocess.run(
        [sys.executable, "-m", "aisemiring.cli", "figure1"],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 9 and "FAIL" not in proc.stdout
    print("\nACCEPTANCE 4 PASS: ten-variety lattice verified (order, Hasse fixture, "
          "joins closed, distributivity, atoms)")


def test_criterion_5_generator_equalities():
    top = VarietySpec("R", (g("S4_475"),))
    pair = VarietySpec("V(S58,N2)", (g("S58"), g("N2")))
    assert compare(top, pair) == EQUAL
    assert member(g("S58"), top).member
    assert member(g("N2"), top).member
    assert member(g("S4_475"), pair).member
    print("\nACCEPTANCE 5 PASS: generating-set equalities verified")


@pytest.mark.parametrize("which", ["L2", "R2", "N2", "T2"])
def test_criterion_6_fast_predicate_agreement(which):
    # the closed form decides identities in V(L2), V(N2), V(T2); R2 is
    # dual(L2), outside R, so its identities are the mirrors in V(L2)
    rng = random.Random(20260808 + sum(map(ord, which)))
    a = g(which)
    name = "L2" if which == "R2" else which
    structural = VarietySpec(f"V({name})", (g(name),))
    for _ in range(10_000):
        ident = random_absorption_identity(rng)
        fast = holds_in(structural, ident.mirror() if which == "R2" else ident)
        slow = satisfies(a, ident).holds
        assert fast == slow, str(ident)
    print(f"\nACCEPTANCE 6 PASS [{which}]: 10000/10000 predicate agreements")


def _row_constant_pool():
    pool = []
    for n in (1, 2, 3, 4):
        pool.extend(enumerate_row_constant(n).items)
    return pool


def _assert_exclusions(a):
    """V(a) contains L2, N2, T2 exactly when a falsifies L, N, T."""
    for name, label in (("L2", "L"), ("N2", "N"), ("T2", "T")):
        contains = member(g(name), VarietySpec("V(A)", (a,))).member
        excludes = satisfies(a, CATALOG[label][0]).holds
        assert contains != excludes, (name, label, a.add, a.mul)


def test_criterion_7_classification_and_exclusions():
    pool = _row_constant_pool()
    for a in pool:
        # (a) pattern-based and membership-based classification agree
        # (classify_generated raises when either route escapes or differs)
        classify_generated(a)
        # (b) exclusion equivalences
        _assert_exclusions(a)
    print(f"\nACCEPTANCE 7 PASS: {len(pool)} algebras classified consistently; "
          "all exclusion equivalences hold")


# labels of the 362 row-constant algebras of order 5, self-measured by
# classify_generated; the pattern and membership routes agree on each
ORDER_5_LABELS = {
    "V(L2)": 15,
    "V(N2)": 5,
    "V(T2)": 15,
    "V(L2,N2)": 39,
    "V(N2,T2)": 40,
    "V(L2,T2)": 56,
    "V(L2,N2,T2)": 59,
    "V(S58)": 72,
    "R": 61,
}


def test_criterion_7_order_5_classification_and_exclusions():
    pool = enumerate_row_constant(5).items
    assert Counter(classify_generated(a) for a in pool) == ORDER_5_LABELS
    for a in pool:
        _assert_exclusions(a)
    print(f"\nACCEPTANCE 7 PASS (order 5): {len(pool)} algebras classified "
          "consistently; all exclusion equivalences hold")


def test_criterion_8_witness_constructions():
    pool = _row_constant_pool()
    s58 = g("S58")
    hits = 0
    for a in pool:
        if satisfies(a, CATALOG["N"][0]).holds and not satisfies(a, CATALOG["lt03"][0]).holds:
            assert find_subalgebra_isomorphic(a, s58) is not None, (a.add, a.mul)
            hits += 1
    assert hits > 0
    # quotient fixture: labels {1,3,4} of S4_475 with blocks {{1,3},{4}}
    _, sub = subalgebra_generated(g("S4_475"), [0, 2, 3])
    quotient = congruence_quotient(sub, Congruence.from_blocks([{0, 1}, {2}], 3))
    assert are_isomorphic(quotient, g("T2"))[0]
    print(f"\nACCEPTANCE 8 PASS: {hits} witness subalgebras found; quotient fixture "
          "collapses to T2")


DEFINED_SUBVARIETIES = (
    (("L2", "T2"), ("id0703", "lt02", "lt03")),
    (("L2", "N2"), ("id0703", "ln02")),
    (("N2", "T2"), ("nt01",)),
    (("L2", "N2", "T2"), ("id0703", "lnt02")),
)


def test_criterion_9_derivations_and_random_transfer():
    # displayed chains
    p1 = derive_bounded([("id0703", "xy = xz")], "xy = xx", depth=8)
    assert p1 is not None and p1.depth == 1
    p2 = derive_bounded(
        [("L", "xx = xx + yy"), ("id0703", "xy = xz")], "x1x2 = y1y2", depth=8
    )
    assert p2 is not None and p2.depth <= 8
    p3 = derive_bounded([("base_L2", "xy = x")], "xx = xx + x", depth=8)
    assert p3 is not None
    for proof in (p1, p2, p3):
        assert replay_proof(proof) == (True, None)
        for name in catalog.builtin_names():
            a = g(name)
            if all(satisfies(a, ident).holds for _, ident in proof.basis):
                assert satisfies(a, proof.target).holds, name

    # randomized transfer checks: identities
    # transfer between the generating pairs and their defined classes
    pool = []
    for n in (1, 2, 3):
        pool.extend(general(n).items)
    pool.extend(enumerate_row_constant(4).items)
    rng = random.Random(97)
    samples = [random_identity(rng) for _ in range(200)]
    samples += [random_absorption_identity(rng) for _ in range(200)]
    for names, labels in DEFINED_SUBVARIETIES:
        generators = [g(n) for n in names]
        defining = [CATALOG[label][0] for label in labels]
        defined_class = [
            a for a in pool if all(satisfies(a, d).holds for d in defining)
        ]
        assert defined_class
        for ident in samples:
            on_generators = all(satisfies(a, ident).holds for a in generators)
            on_class = all(satisfies(a, ident).holds for a in defined_class)
            assert on_generators == on_class, (names, str(ident))
    print("\nACCEPTANCE 9 PASS: displayed chains derived, replayed, sound; "
          "400 random identities transfer correctly for all four defined classes")


# (command, expected exit status); count-restricted reports the
# falsified 789 claim with status 1
DETERMINISM_COMMANDS = (
    (("enumerate", "--order", "4", "--count-only", "--format", "json"), 0),
    (("enumerate", "--order", "3", "--format", "json"), 0),
    (("enumerate", "--order", "3", "--class", "row-constant", "--format", "json"), 0),
    (("count-restricted", "--max-order", "5", "--format", "json"), 1),
    (("figure1",), 0),
    (("figure1", "--dual"), 0),
    (("check", "--algebra", "builtin:S58", "--identity", "xy=xz", "--format", "json"),
     0),
    (("member", "--algebra", "builtin:R2", "--variety", "builtin:S4_475",
      "--format", "json"), 0),
    (("derive", "--basis", "xx = xx + yy; xy = xz", "--target", "x1x2 = y1y2",
      "--format", "json"), 0),
)


def test_criterion_10_determinism_across_workers():
    for command, expected_code in DETERMINISM_COMMANDS:
        outputs = []
        for workers in ("1", "4", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "aisemiring.cli", *command,
                 "--workers", workers],
                capture_output=True,
                env=CLI_ENV,
            )
            assert proc.returncode == expected_code, (command, workers, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2], command
    print(f"\nACCEPTANCE 10 PASS: {len(DETERMINISM_COMMANDS)} reports byte-identical "
          "across 1, 4 and 8 workers")
