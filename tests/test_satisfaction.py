"""Semantic satisfaction, the closed-form route for two-element
algebras, the catalog."""

import random

import pytest

from aisemiring import catalog
from aisemiring.algebra import ResourceBudgetError, direct_product, dual, relabel
from aisemiring.satisfaction import (
    CATALOG,
    catalog_identity,
    evaluate,
    satisfies,
)
from aisemiring.terms import decompose_identity, parse_identity, term_of
from aisemiring.variety import VarietySpec, holds_in


def test_evaluate_l2():
    assert evaluate(catalog.get("L2"), term_of("xy"), {"x": 0, "y": 1}) == 0


def test_evaluate_variable():
    for name in ("L2", "S58"):
        a = catalog.get(name)
        for e in range(a.order):
            assert evaluate(a, term_of("x"), {"x": e}) == e


def test_evaluate_square_in_s58():
    # in source labels 1*1 = 3; as indices 0*0 = 2
    assert evaluate(catalog.get("S58"), term_of("xx"), {"x": 0}) == 2


def test_evaluate_unbound():
    with pytest.raises(KeyError):
        evaluate(catalog.get("L2"), term_of("xy"), {"x": 0})


def test_satisfies_s58_row_constant():
    assert satisfies(catalog.get("S58"), "xy = xz").holds


def test_satisfies_l2_fails_L_with_lex_first_witness():
    res = satisfies(catalog.get("L2"), "xx = xx + yy")
    assert not res.holds
    assert res.assignment == {"x": 0, "y": 1}
    assert (res.lhs_value, res.rhs_value) == (0, 1)


def test_satisfies_s7_commutative():
    assert satisfies(catalog.get("S7"), "xy = yx").holds


def test_counterexample_reevaluates():
    res = satisfies(catalog.get("S4_475"), "x + yy = x + yy + xx")
    assert not res.holds
    ident = parse_identity("x + yy = x + yy + xx")
    a = catalog.get("S4_475")
    assert evaluate(a, ident.lhs, res.assignment) == res.lhs_value
    assert evaluate(a, ident.rhs, res.assignment) == res.rhs_value
    assert res.lhs_value != res.rhs_value


def test_budget_guard():
    ident = "+".join(f"x{i}" for i in range(14)) + " = x0"
    with pytest.raises(ResourceBudgetError):
        satisfies(catalog.get("S4_475"), ident, budget=10**8)


# The fast route decides identities in V(L2), V(N2), V(T2) from the
# closed form of F_R(k); R2 = dual(L2) lies outside R, so its identities
# are decided as the mirror images in V(L2).


def fast_holds(which, ident):
    if isinstance(ident, str):
        ident = parse_identity(ident)
    if which == "R2":
        which, ident = "L2", ident.mirror()
    return holds_in(VarietySpec(f"V({which})", (catalog.get(which),)), ident)


def test_fast_satisfies_spec_examples():
    assert fast_holds("L2", "x+yz = x+yz+yx") is True
    assert fast_holds("N2", "x = x+y") is False
    assert fast_holds("T2", "xx = xx+x") is True


def test_fast_satisfies_brute_agreement_on_examples():
    for which, text in (
        ("L2", "x+yz = x+yz+yx"),
        ("N2", "x = x+y"),
        ("T2", "xx = xx+x"),
        ("R2", "x+yz = x+yz+yx"),
    ):
        assert fast_holds(which, text) == satisfies(catalog.get(which), text).holds


from gen_util import random_absorption_identity


@pytest.mark.parametrize("which", ["L2", "R2", "N2", "T2"])
def test_fast_satisfies_agrees_with_exhaustive_sample(which):
    rng = random.Random(sum(map(ord, which)))
    a = catalog.get(which)
    for _ in range(1000):
        ident = random_absorption_identity(rng)
        assert fast_holds(which, ident) == satisfies(a, ident).holds


def test_catalog_entries():
    assert str(catalog_identity("id0703")) == "xy = xz"
    assert CATALOG["lt02"] == CATALOG["N"]
    assert len(CATALOG["base_N2"]) == 2
    with pytest.raises(ValueError):
        catalog_identity("base_N2")


def catalog_bits(a):
    """Satisfaction bit per catalog label: every identity of the entry."""
    return {
        label: all(satisfies(a, ident).holds for ident in entry)
        for label, entry in CATALOG.items()
    }


def test_classify_l2():
    bits = catalog_bits(catalog.get("L2"))
    assert bits["id0703"] and bits["N"] and bits["lt03"] and bits["ln02"] and bits["T"]
    assert not bits["L"] and not bits["nt01"]
    assert bits["base_L2"]


def test_classify_trivial_satisfies_everything():
    bits = catalog_bits(catalog.get("trivial"))
    assert all(bits.values())


def test_classify_s4_475():
    bits = catalog_bits(catalog.get("S4_475"))
    assert bits["id0703"]
    assert not any(bits[l] for l in ("L", "N", "T", "lt03", "lnt02"))


def test_two_element_algebras_match_their_bases():
    for name in ("L2", "R2", "N2", "T2", "S56", "S58"):
        bits = catalog_bits(catalog.get(name))
        assert bits[f"base_{name}"], name


def test_satisfaction_isomorphism_invariant():
    rng = random.Random(3)
    idents = [catalog_identity(l) for l in ("id0703", "L", "N", "T", "lt03")]
    for name in ("S58", "S4_475", "S7"):
        a = catalog.get(name)
        perm = list(range(a.order))
        rng.shuffle(perm)
        moved = relabel(a, tuple(perm))
        for ident in idents:
            assert satisfies(a, ident).holds == satisfies(moved, ident).holds


def test_satisfaction_respects_products():
    idents = [catalog_identity(l) for l in ("id0703", "N", "T", "nt01")]
    for x, y in (("L2", "T2"), ("L2", "R2"), ("N2", "T2")):
        a, b = catalog.get(x), catalog.get(y)
        p = direct_product(a, b)
        for ident in idents:
            assert satisfies(p, ident).holds == (
                satisfies(a, ident).holds and satisfies(b, ident).holds
            )


def test_satisfaction_mirrors_through_dual():
    idents = [
        catalog_identity(l) for l in ("id0703", "id0703_dual", "N", "T", "ln02")
    ]
    for name in ("L2", "S58", "S4_475", "S7", "S56"):
        a = catalog.get(name)
        d = dual(a)
        for ident in idents:
            assert satisfies(d, ident).holds == satisfies(a, ident.mirror()).holds


def test_decompose_preserves_satisfaction():
    rng = random.Random(5)
    algebras = [catalog.get(n) for n in ("L2", "R2", "N2", "T2", "S58", "S7")]
    idents = [catalog_identity(l) for l in ("id0703", "lt03", "lnt02", "nt01")]
    for _ in range(30):
        idents.append(random_absorption_identity(rng))
    for a in algebras:
        for ident in idents:
            whole = satisfies(a, ident).holds
            pieces = all(
                satisfies(a, p.identity).holds for p in decompose_identity(ident)
            )
            assert whole == pieces
