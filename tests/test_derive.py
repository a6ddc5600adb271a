"""Bounded derivation search, proof replay, soundness."""

import dataclasses
import hashlib
import itertools
import json

import pytest

from aisemiring import catalog, derive
from aisemiring.algebra import ResourceBudgetError
from aisemiring.derive import (
    DeriveError,
    Occurrence,
    Proof,
    ProofStep,
    _apply_occurrence,
    _directed_rules,
    _fresh_assignments,
    _image,
    _match_summands,
    _match_word,
    _normalize_basis,
    _step,
    _successors,
    derive_bounded,
    format_proof,
    proof_to_json_dict,
    replay_proof,
)
from aisemiring.satisfaction import satisfies
from aisemiring.terms import Identity, TermNF, parse_identity, substitute, term_of


def assert_sound_over_catalog(proof):
    """Every catalog algebra satisfying the whole basis satisfies the
    conclusion."""
    for name in catalog.builtin_names():
        a = catalog.get(name)
        if all(satisfies(a, ident).holds for _, ident in proof.basis):
            assert satisfies(a, proof.target).holds, name


def test_one_step_collapse():
    proof = derive_bounded(["xy = xz"], "xy = xx")
    assert proof is not None
    assert proof.depth == 1
    assert len(proof.rewrite_chain()) == 1
    step = proof.steps[0]
    assert step.kind == "axiom-instance"
    assert dict(step.substitution)["z"] == term_of("x")
    assert replay_proof(proof) == (True, None)
    assert_sound_over_catalog(proof)


def test_absorption_from_left_projection():
    proof = derive_bounded(["xy = x"], "xx = xx + x")
    assert proof is not None
    assert proof.depth <= 4
    assert replay_proof(proof) == (True, None)
    assert satisfies(catalog.get("L2"), proof.target).holds
    assert_sound_over_catalog(proof)


def test_collapse_chain_from_exclusion_identity():
    proof = derive_bounded(
        [("L", "xx = xx + yy"), ("id0703", "xy = xz")], "x1x2 = y1y2", depth=8
    )
    assert proof is not None
    assert proof.depth <= 6
    chain = proof.rewrite_chain()
    rendered = [str(chain[0].lhs)] + [str(s.rhs) for s in chain]
    assert rendered[0] == "x1x2" and rendered[-1] == "y1y2"
    assert replay_proof(proof) == (True, None)
    assert_sound_over_catalog(proof)


def test_trivial_target_is_reflexivity():
    proof = derive_bounded(["xy = xz"], "x(y+z) = xy+xz")
    assert proof is not None
    assert proof.steps[0].kind == "reflexivity"
    assert replay_proof(proof) == (True, None)


def test_not_found_is_bounded_verdict():
    proof = derive_bounded(["xy = x"], "xy = y", depth=3, node_budget=5000)
    assert proof is None


def test_decomposition_fallback_assembles():
    # two independent expansions; depth 1 forces the piecewise route
    proof = derive_bounded(["x = x + xx"], "x+y = x+y+xx+yy", depth=1)
    assert proof is not None
    kinds = {s.kind for s in proof.steps}
    assert "add-congruence" in kinds or "reflexivity" in kinds
    assert proof.steps[-1].result == parse_identity("x+y = x+y+xx+yy")
    assert replay_proof(proof) == (True, None)
    assert_sound_over_catalog(proof)


# sha256 of json.dumps(proof_to_json_dict(proof), sort_keys=True) and of
# format_proof(proof). The JSON digests were pinned from the two-pass
# fallback that proved every piece before assembling, the text digests from
# the one-pass fallback that replaced it; both assemble the same steps.
FALLBACK_DIGESTS = {
    ("x = x + xx", "x+y = x+y+xx+yy"): (
        "72bad0e9fad7f06f67344466613838e0c7f34a69a79aed603b8e7d925abfbaa5",
        "6aa4a0b550604452b84767a99887c9e54cec59f574d76ddbb6c6296c1949f41a",
    ),
    ("x = x + xx", "x+y+z = x+y+z+xx+yy+zz"): (
        "b7d427feec4724acc0c5a9de59f5a126f5fd6bd1048c13cdd8b477e4c82ccfe2",
        "287bd06c74b6eba9ef3bc2b7210e5f74950009e187ee7185e72d057035a09641",
    ),
    ("x = x + xy", "x + y = x + y + xy + yx"): (
        "66890538ece7b564e1b04657c35de9efd5fe1149bce2d869cfaed884515f4b4b",
        "ce647d25f4c8c975c9a9a805664b4c83ba109d17625dadbd5b6b6de511f19432",
    ),
    ("xy = xz", "xy + yx = xx + yy"): (
        "e37563c2440cb9583728f87f2f1c4a86ff8c9e755ec78400e7bb0b3b2ba975d2",
        "be03390d913c0bb9f45099785afd63de58db9be8e309ec6bcadea34e4c0cdb15",
    ),
    ("x = x + xx", "x + yy = x + xx + yy + yyyy"): (
        "aadfe987a368609cbd5cc19dbf57bafe9c8c992394494d7c26f68378040b57b8",
        "3f92470afc0c1dfb76960304a552a7b5fe1291c04458ec4c37c357498dfacf88",
    ),
    ("x = x + xy", "xx + y = y + yx + xx + xxx"): (
        "b56e8e7583dce7921f24ff71ac8e3bed645649c151de28e5cde2ea347482ebdb",
        "c6e6f5fe7a165234f4dfa8662d9fb41b7aadc17519aae841b77106b0e345138e",
    ),
}


@pytest.mark.parametrize(("basis", "target"), list(FALLBACK_DIGESTS))
def test_fallback_proofs_are_pinned(basis, target):
    proof = derive_bounded([basis], target, depth=1)
    assert proof.steps[-2].kind == "symmetry"  # the decomposition route
    json_digest, text_digest = FALLBACK_DIGESTS[(basis, target)]
    payload = json.dumps(proof_to_json_dict(proof), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == json_digest
    assert hashlib.sha256(format_proof(proof).encode()).hexdigest() == text_digest
    assert replay_proof(proof) == (True, None)


# (basis, target, depth): the chains of the derive benchmark with their
# own bases and depths, then the chain of the criterion-10 `derive`
# command, whose basis the CLI labels b1, b2. Which chain the search
# finds depends on the order of the successor lists, so the sha256 of
# json.dumps(proof_to_json_dict(proof), sort_keys=True) (which holds
# `nodes`) and of format_proof(proof) pin that order as well.
CHAIN_DIGESTS = {
    ((("id0703", "xy = xz"),), "xy = xx", 8): (
        "4fed3c1424cccedf06fa4c39e489439bae602d88d8e3a914aceb37050f447aff",
        "c06d59d9e093fa743e4e390745e6423d4c654c19a4493b64b8bc85f4a16abb6b",
    ),
    ((("L", "xx = xx + yy"), ("id0703", "xy = xz")), "x1x2 = y1y2", 8): (
        "07d41b565fd1f61ceb30c8002f63ae4652e66a679776faae952e9cf6f409cec3",
        "57f0221a7845053e7a30590dd07421007b6f543baaa4786ef1512e9432250d13",
    ),
    ((("base_L2", "xy = x"),), "xx = xx + x", 8): (
        "26fb2e2e48c56f00f0dcb9229231e89622b4ee58a9b192274e4449832c0cffce",
        "0070c079d54137b4f7ea4192f5549501b1cb919879d2482869876fb13c102c6e",
    ),
    (
        (("lt02", "xx = xx + x"), ("lt03", "x + yy = xx + yy"), ("id0703", "xy = xz")),
        "xy = xy + x",
        6,
    ): (
        "43997604a983538fb21d644c302caefe13646e45a573d496cd1868cb4c5342c1",
        "2188be2a65954805e8be370fc484ee972492ee6d0355497500f592640e58fecf",
    ),
    (
        (("lnt02", "x + yy = x + yy + xx"), ("id0703", "xy = xz")),
        "x + yy = x + yy + xz",
        6,
    ): (
        "7fbfc77385055e89d9b67d7f6764c52295ad396d8fe79acc55491c494d66aed8",
        "2491993ee82dbdd78ad3c1633f7dd0645f7986e4bb5dbf17643dc2434eb1c93a",
    ),
    ((("ln02", "x = x + xy"), ("id0703", "xy = xz")), "xw = xw + xz", 6): (
        "66591afdea8f7c022e69a51f9cb065a7d1d802ab7de766bc7528d6a1c14963c3",
        "452f7cddece13ab7cd2ff7ac30cc334cef8ac70eefcadf51365cf31fe2c1ce75",
    ),
    ((("nt01", "x1x2 = y1y2"),), "yy = yy + z1z2", 6): (
        "0ecd8fa9aceb8caf052a3219f4a59e798d2bc7ddb2748f8eb3218bff21cd9fd0",
        "bcc2025f7b8d0cf9addc7f9ae94def5f20b07b754731783b49917a69a9025e72",
    ),
    (("xx = xx + yy", "xy = xz"), "x1x2 = y1y2", 8): (
        "a90562fa713517986b476590d6882ea5991a5d54c1e0c5d0e3d5bfb94771003b",
        "96d870f6567ee78e71c5a402b974112e6ed26c00734f8114ae0fe8ba5daacc7d",
    ),
}


@pytest.mark.parametrize(("basis", "target", "depth"), list(CHAIN_DIGESTS))
def test_chain_proofs_are_pinned(basis, target, depth):
    proof = derive_bounded(list(basis), target, depth=depth)
    json_digest, text_digest = CHAIN_DIGESTS[(basis, target, depth)]
    payload = json.dumps(proof_to_json_dict(proof), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == json_digest
    assert hashlib.sha256(format_proof(proof).encode()).hexdigest() == text_digest
    assert replay_proof(proof) == (True, None)


def test_manual_transcription_of_absorption_chain_replays():
    # u + h(q) = u + h(q) + h(q)s(q) at u = {x}, q = xy, via x = x + xy
    basis = (("ln02", parse_identity("x = x + xy")),)
    t0 = term_of("x")
    t1 = term_of("x + xy")
    steps = (
        ProofStep(kind="reflexivity", result=Identity(t0, t0)),
        ProofStep(
            kind="axiom-instance",
            result=Identity(t0, t1),
            axiom="ln02",
            direction="lr",
            substitution=(("x", term_of("x")), ("y", term_of("y"))),
            occurrence=Occurrence(mode="summands", keep=False, matched=(("x",),)),
        ),
        ProofStep(kind="transitivity", result=Identity(t0, t1), premises=(0, 1)),
    )
    proof = Proof(basis, Identity(t0, t1), steps, depth=1, nodes=0)
    assert replay_proof(proof) == (True, None)


def test_replay_rejects_corrupted_substitution():
    proof = derive_bounded(
        [("L", "xx = xx + yy"), ("id0703", "xy = xz")], "x1x2 = y1y2"
    )
    bad_step = dataclasses.replace(
        proof.steps[0],
        substitution=(("x", term_of("y1")), ("y", term_of("y1")), ("z", term_of("y1"))),
    )
    corrupted = dataclasses.replace(
        proof, steps=(bad_step,) + proof.steps[1:]
    )
    ok, first_bad = replay_proof(corrupted)
    assert not ok and first_bad == 0


def test_replay_rejects_broken_chain():
    proof = derive_bounded(["xy = xz"], "xy = xx")
    stranger = dataclasses.replace(
        proof, target=parse_identity("xy = yy")
    )
    ok, first_bad = replay_proof(stranger)
    assert not ok


_X_IS_X = Identity(term_of("x"), term_of("x"))
_REFL = ProofStep(kind="reflexivity", result=_X_IS_X)


@pytest.mark.parametrize(
    ("steps", "first_bad"),
    [
        pytest.param((), 0, id="empty-proof"),
        pytest.param(
            (_REFL, ProofStep(kind="transitivity", result=_X_IS_X, premises=(0,))),
            1,
            id="transitivity-with-one-premise",
        ),
        pytest.param(
            (_REFL, _REFL, ProofStep(kind="symmetry", result=_X_IS_X, premises=(0, 1))),
            2,
            id="symmetry-with-two-premises",
        ),
        pytest.param(
            (
                _REFL,
                _REFL,
                ProofStep(
                    kind="add-congruence",
                    result=_X_IS_X,
                    premises=(0, 1),
                    context=term_of("x"),
                ),
            ),
            2,
            id="add-congruence-with-two-premises",
        ),
        pytest.param(
            (
                _REFL,
                ProofStep(kind="mul-congruence", result=_X_IS_X, left_factor=term_of("x")),
            ),
            1,
            id="mul-congruence-without-a-premise",
        ),
        pytest.param(
            (
                _REFL,
                _REFL,
                ProofStep(
                    kind="substitution-instance",
                    result=_X_IS_X,
                    premises=(0, 1),
                    substitution=(("x", term_of("x")),),
                ),
            ),
            2,
            id="substitution-instance-with-two-premises",
        ),
        pytest.param(
            (_REFL, ProofStep(kind="normalize", result=_X_IS_X)), 1, id="normalize-step"
        ),
    ],
)
def test_replay_rejects_malformed_proofs(steps, first_bad):
    proof = Proof((("b1", parse_identity("x = xx")),), _X_IS_X, steps, depth=0, nodes=0)
    assert replay_proof(proof) == (False, first_bad)


def test_mul_congruence_and_substitution_steps_replay():
    basis = (("b1", parse_identity("x = x + xx")),)
    base = ProofStep(
        kind="axiom-instance",
        result=Identity(term_of("x"), term_of("x + xx")),
        axiom="b1",
        direction="lr",
        substitution=(("x", term_of("x")),),
        occurrence=Occurrence(mode="summands", keep=False, matched=(("x",),)),
    )
    mul_step = ProofStep(
        kind="mul-congruence",
        result=Identity(term_of("yx"), term_of("yx + yxx")),
        premises=(0,),
        left_factor=term_of("y"),
    )
    subst_step = ProofStep(
        kind="substitution-instance",
        result=Identity(term_of("zz"), term_of("zz + zzzz")),
        premises=(0,),
        substitution=(("x", term_of("zz")),),
    )
    proof = Proof(
        basis,
        Identity(term_of("zz"), term_of("zz + zzzz")),
        (base, mul_step, subst_step),
        depth=1,
        nodes=0,
    )
    assert replay_proof(proof) == (True, None)


def test_depth_bound_respected():
    fast = derive_bounded(
        [("L", "xx = xx + yy"), ("id0703", "xy = xz")], "x1x2 = y1y2", depth=2
    )
    # the shortest chain needs four rewrites; at depth 2 the direct route
    # fails and the decomposition route may or may not close it
    if fast is not None:
        assert replay_proof(fast) == (True, None)


def test_format_and_json_export():
    proof = derive_bounded(["xy = xz"], "xy = xx")
    text = format_proof(proof)
    assert "chain:" in text and "xy" in text
    payload = proof_to_json_dict(proof)
    assert payload["schema"] == 1
    assert payload["steps"][0]["kind"] == "axiom-instance"
    assert payload["target"] == "xy = xx"


def test_bad_configuration():
    with pytest.raises(ValueError):
        derive_bounded(["xy = xz"], "xy = xx", depth=0)
    with pytest.raises(ValueError):
        derive_bounded(["xy = xz"], "xy = xx", size_factor=0)


def test_repeated_basis_label_rejected():
    with pytest.raises(ValueError, match="'L' is used twice"):
        derive_bounded([("L", "xy = xz"), ("L", "x = x + xx")], "xy = xx")
    # an explicit label may not repeat an automatic one either
    with pytest.raises(ValueError, match="'b1' is used twice"):
        _normalize_basis(["xy = xz", ("b1", "x = x + xx")])
    proof = derive_bounded([("L", "xy = xz"), ("M", "x = x + xx")], "xy = xx")
    assert replay_proof(proof) == (True, None)


@pytest.mark.parametrize("missing", ["substitution", "occurrence"])
def test_format_proof_renders_a_malformed_axiom_step(missing):
    step = ProofStep(
        kind="axiom-instance",
        result=Identity(term_of("x"), term_of("x + xx")),
        axiom="b1",
        direction="lr",
        substitution=(("x", term_of("x")),),
        occurrence=Occurrence(mode="summands", keep=False, matched=(("x",),)),
    )
    step = dataclasses.replace(step, **{missing: None})
    proof = Proof(
        (("b1", parse_identity("x = x + xx")),), step.result, (step,), depth=1, nodes=0
    )
    assert replay_proof(proof) == (False, 0)
    assert f"<no {missing}>" in format_proof(proof).splitlines()[-1]


def test_other_displayed_absorption_chains():
    # one-word absorptions behind the catalog bases, at representative
    # instantiations; each proof must replay and be catalog-sound
    cases = [
        ((("lt02", "xx = xx + x"), ("lt03", "x + yy = xx + yy"),
          ("id0703", "xy = xz")), "xy = xy + x"),
        ((("lnt02", "x + yy = x + yy + xx"), ("id0703", "xy = xz")),
         "x + yy = x + yy + xz"),
        ((("ln02", "x = x + xy"), ("id0703", "xy = xz")), "xw = xw + xz"),
        ((("nt01", "x1x2 = y1y2"),), "yy = yy + z1z2"),
    ]
    for basis, target in cases:
        proof = derive_bounded(list(basis), target, depth=6)
        assert proof is not None, target
        assert replay_proof(proof) == (True, None)
        assert_sound_over_catalog(proof)


def _generated(state, rules, candidates, size_cap):
    """The generator's (next_state, step) pairs from a term, every step
    built and every next state a term."""
    here = frozenset(state.words)
    return [
        (TermNF(new), _step(here, new, edge))
        for new, edge in _successors(here, rules, candidates, size_cap)
    ]


def test_every_generated_rewrite_step_is_sound():
    # one-step soundness of the successor generator itself: whatever the
    # engine produces from a state must be an identity valid in every
    # catalog algebra satisfying the basis, and the checked rewrite that
    # replay runs must reproduce it from its step
    bases = (
        ["xy = xz"],
        ["xx = xx + yy", "xy = xz"],
        ["x = x + xy"],
        ["x1x2 = y1y2", "xx = xx + x"],
    )
    starts = ("xy", "x + yy", "x1x2 + y", "xyx")
    for raw in bases:
        named = _normalize_basis(raw)
        rules = _directed_rules(named)
        models = [
            catalog.get(n)
            for n in catalog.builtin_names()
            if all(satisfies(catalog.get(n), i).holds for _, i in named)
        ]
        assert models
        for text in starts:
            state = term_of(text)
            for new, step in _generated(state, rules, ("x", "y", "z"), 16):
                assert step.result == Identity(state, new)
                ident = dict(named)[step.axiom]
                src, dst = (
                    (ident.lhs, ident.rhs)
                    if step.direction == "lr"
                    else (ident.rhs, ident.lhs)
                )
                sigma = dict(step.substitution)
                rebuilt = _apply_occurrence(
                    state,
                    substitute(src, sigma),
                    substitute(dst, sigma),
                    step.occurrence,
                )
                assert rebuilt == new, (raw, text, str(step.result))
                for a in models:
                    assert satisfies(a, step.result).holds, (raw, text, str(step.result))


# ---------------------------------------------------------------------------
# the word-set successor kernel against the generator it replaced


def _word_term(sigma):
    return {v: TermNF([w]) for v, w in sigma.items()}


def _reference_fresh_assignments(rule, sigma, candidates):
    fresh = [v for v in rule.dst.variables() if v not in sigma]
    if not fresh:
        yield sigma
        return
    for combo in itertools.product(candidates, repeat=len(fresh)):
        extended = dict(sigma)
        extended.update({v: (c,) for v, c in zip(fresh, combo)})
        yield extended


def reference_successors(state, rules, candidates, size_cap):
    """The successor generator as it was before it worked on word sets:
    every candidate goes through `substitute`, the checked
    `_apply_occurrence` and a full ProofStep."""
    out = []
    seen = set()
    for rule in rules:
        matches = []
        for sigma in _match_summands(rule.src.words, state.words):
            matches.append(("summands", sigma, None, None))
        if len(rule.src.words) == 1:
            pattern = rule.src.words[0]
            for w in state.words:
                for i in range(len(w)):
                    # a span must host one nonempty factor per pattern variable
                    for j in range(i + len(pattern), len(w) + 1):
                        if (i, j) == (0, len(w)):
                            continue  # whole-word spans are summand matches
                        for sigma in _match_word(pattern, w[i:j], {}):
                            matches.append(("factor", sigma, w, (i, j)))
        for mode, sigma, w, span in matches:
            for full in _reference_fresh_assignments(rule, sigma, candidates):
                subst = _word_term(full)
                matched = substitute(rule.src, subst)
                replacement = substitute(rule.dst, subst)
                for keep in (False, True):
                    occ = Occurrence(
                        mode=mode,
                        keep=keep,
                        matched=tuple(matched.words) if mode == "summands" else (),
                        word=w,
                        span=span,
                    )
                    try:
                        new = _apply_occurrence(state, matched, replacement, occ)
                    except DeriveError:
                        continue
                    if new == state or new.size() > size_cap or new in seen:
                        continue
                    seen.add(new)
                    step = ProofStep(
                        kind="axiom-instance",
                        result=Identity(state, new),
                        axiom=rule.label,
                        direction=rule.direction,
                        substitution=tuple(sorted(subst.items())),
                        occurrence=occ,
                    )
                    out.append((new, step))
    return out


# the refuted searches of the derive benchmark: (basis, target, depth),
# each with the states it visits when run to exhaustion
REFUTED = [
    (["xy = x"], "xy = y", 5, 389),
    (["xy = xz"], "xyz = zyx", 4, 311),
    (["x = x + xx"], "xy = xy + yx", 4, 125),
    (["x = x + xy"], "x = x + yx", 5, 109),
    (["xx = x"], "xy = yx", 4, 133),
]


def _record_searches(monkeypatch):
    """The list that every later `_Search` appends itself to."""
    searches = []

    class Recording(derive._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(derive, "_Search", Recording)
    return searches


def _recorded_search(monkeypatch, basis, target, depth):
    """Run derive_bounded to exhaustion and return the search it used."""
    searches = _record_searches(monkeypatch)
    assert derive_bounded(basis, target, depth=depth, node_budget=None) is None
    (search,) = searches
    return search


@pytest.mark.parametrize(("basis", "target", "depth", "nodes"), REFUTED)
def test_refuted_search_node_counts_are_pinned(monkeypatch, basis, target, depth, nodes):
    assert _recorded_search(monkeypatch, basis, target, depth).nodes == nodes


@pytest.mark.parametrize(("basis", "target", "depth", "nodes"), REFUTED)
def test_node_budget_counts_expanded_states_exactly(basis, target, depth, nodes):
    # the per-word memo must not change how many states count as expanded
    assert derive_bounded(basis, target, depth=depth, node_budget=nodes) is None
    with pytest.raises(ResourceBudgetError):
        derive_bounded(basis, target, depth=depth, node_budget=nodes - 1)


@pytest.mark.parametrize(("basis", "target", "depth", "nodes"), REFUTED)
def test_successors_match_the_reference_generator(
    monkeypatch, basis, target, depth, nodes
):
    # one level shallower than the benchmark keeps the reference cheap.
    # The cache holds every state the search counted, None for those whose
    # list the frontier bound spared, so each of them is compared here
    search = _recorded_search(monkeypatch, basis, target, depth - 1)
    assert 0 < search.nodes < nodes
    assert len(search._succ_cache) == search.nodes
    for state in search._succ_cache:
        term = TermNF(state)
        assert _generated(
            term, search.rules, search.candidates, search.size_cap
        ) == reference_successors(
            term, search.rules, search.candidates, search.size_cap
        )


def _ruled_out_pairs(monkeypatch, runs):
    """Each distinct (state, goal) pair, with its search, that the
    frontier bound rules out while `runs` calls derive_bounded."""
    pairs = {}

    class Recording(derive._Search):
        def _rules_out(self, state, goal):
            out = super()._rules_out(state, goal)
            if out:
                pairs.setdefault((state, goal), self)
            return out

    monkeypatch.setattr(derive, "_Search", Recording)
    runs()
    return pairs


def test_the_frontier_bound_rules_out_only_unreachable_goals(monkeypatch):
    # a state with more than `reach` words outside the goal is ruled out
    # with one step left: the goal must then not be among its rewrites,
    # by the reference generator. The refuted searches are run one level
    # shallower than the benchmark, as above; the chain searches reach
    # their goals, so a bound that is too tight would drop their last link
    def runs():
        for basis, target, depth, _ in REFUTED:
            derive_bounded(basis, target, depth=depth - 1, node_budget=None)
        for basis, target, depth in CHAIN_DIGESTS:
            assert derive_bounded(list(basis), target, depth=depth) is not None

    pairs = _ruled_out_pairs(monkeypatch, runs)
    assert len(pairs) > 100
    for (state, goal), search in pairs.items():
        assert len(state - goal) > search.reach
        config = (search.rules, search.candidates, search.size_cap)
        goal_term = TermNF(goal)
        assert all(new != goal_term for new, _ in reference_successors(TermNF(state), *config))


def test_reach_is_the_most_words_on_a_side():
    # x + y = xy matches two words on its left and one on its right; the
    # goal ab is one step from a + b, whose two words both leave, so the
    # bound must allow two
    proof = derive_bounded(["x + y = xy"], "a + b = ab", depth=1)
    assert proof.rewrite_chain() == [parse_identity("a + b = ab")]
    assert proof.nodes == 1


def test_empty_basis_derives_nothing():
    # no rules: reach is 0, and every state but the goal is ruled out
    assert derive_bounded([], "xy = yx", depth=3) is None


def _reference_word_pieces(rule, w, candidates):
    """Every (part, sigma, mode, word, span, R) that rule.src, one word,
    has inside the summand w, in the visit order and with repeats."""
    pattern = rule.src.words[0]
    matches = [(0, sigma, "summands", None, None) for sigma in _match_word(pattern, w, {})]
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            if (i, j) != (0, len(w)):
                for sigma in _match_word(pattern, w[i:j], {}):
                    matches.append((1, sigma, "factor", w, (i, j)))
    for part, sigma, mode, word, span in matches:
        for full in _reference_fresh_assignments(rule, sigma, candidates):
            image = substitute(rule.dst, _word_term(full)).words
            if span is not None:
                i, j = span
                image = [w[:i] + u + w[j:] for u in image]
            yield part, full, mode, word, span, frozenset(image)


@pytest.mark.parametrize(("basis", "target", "depth", "nodes"), REFUTED)
def test_word_memo_keeps_the_first_piece_of_each_replacement_set(
    monkeypatch, basis, target, depth, nodes
):
    # every piece of (rule, w) leaves the same rest S - {w}, so a piece
    # whose replacement set R is {w}, or repeats an earlier piece's R,
    # reaches no new state: each memo entry holds exactly the first piece
    # of every other R, in the order the search visits them, and the
    # repeats it drops are really there
    search = _recorded_search(monkeypatch, basis, target, depth)
    repeats = 0
    for (index, w), entry in search._word_memo.items():
        rule = search.rules[index]
        expected = ([], [])
        kept = {frozenset([w])}
        for part, *piece, replacement in _reference_word_pieces(
            rule, w, search.candidates
        ):
            if replacement in kept:
                repeats += replacement != frozenset([w])
                continue
            kept.add(replacement)
            size = sum(map(len, replacement))
            expected[part].append((*piece, replacement, size))
        assert entry == expected
        replacements = [piece[4] for piece in entry[0] + entry[1]]
        assert len(set(replacements)) == len(replacements)
        assert frozenset([w]) not in replacements
    assert repeats > 0


@pytest.mark.parametrize(("basis", "target", "depth", "nodes"), REFUTED)
def test_match_memo_holds_the_rewrites_of_each_rule_and_subject(
    monkeypatch, basis, target, depth, nodes
):
    # `_word_pieces` reads the matches of a one-word rule.src onto a whole
    # word and onto each of its factor spans from one memo per search,
    # keyed by (rule index, subject). Each entry must be every (sigma, R)
    # of that pair in match order, whichever word first asked for it; and
    # one factor recurs in many words, so the memo holds fewer entries
    # than the subjects looked up: each word, then its factor spans
    search = _recorded_search(monkeypatch, basis, target, depth)
    for (index, subject), entry in search._matches.items():
        rule = search.rules[index]
        assert entry == [
            (full, frozenset(_image(rule.dst.words, full)))
            for sigma in _match_word(rule.src.words[0], subject, {})
            for full in _fresh_assignments(rule.fresh, sigma, search.candidates)
        ]
    lookups = 0
    for index, w in search._word_memo:
        width = len(search.rules[index].src.words[0])
        lookups += 1 + sum(
            (i, j) != (0, len(w))
            for i in range(len(w))
            for j in range(i + width, len(w) + 1)
        )
    assert 0 < len(search._matches) < lookups


@pytest.mark.parametrize("seed", range(4))
def test_memoised_successors_match_memo_free_calls(monkeypatch, seed):
    # the per-(rule, word) memo is shared by every state of one search, so
    # nothing that depends on the state may leak into an entry: each
    # cached list must equal a memo-free call and, on small states (those
    # the frontier bound spared included), the reference generator.
    # y = yy rewrites factor spans, x + yy = xx + yy has two-word sides,
    # and the random identities bring variables absent from one side.
    import random

    from gen_util import random_identity

    rng = random.Random(seed)
    searches = _record_searches(monkeypatch)
    modes, fresh, several = set(), 0, 0
    for _ in range(4):
        basis = [random_identity(rng), "y = yy", "x + yy = xx + yy"]
        try:
            derive_bounded(
                basis, random_identity(rng), depth=3, size_factor=2, node_budget=100
            )
        except ResourceBudgetError:
            pass  # the states expanded before the budget ran out still count
    assert searches
    for search in searches:
        for state, cached in search._succ_cache.items():
            config = (search.rules, search.candidates, search.size_cap)
            built = _successors(state, *config)
            assert cached is None or cached == built
            if len(state) <= 3:
                assert [
                    (TermNF(new), _step(state, new, edge)) for new, edge in built
                ] == reference_successors(TermNF(state), *config)
            for _, (rule, sigma, mode, *_rest) in built:
                modes.add(mode)
                fresh += not set(rule.dst.variables()) <= set(rule.src.variables())
                several += len(rule.src.words) > 1
    assert modes == {"summands", "factor"} and fresh and several


def test_factor_rewrite_inside_a_word():
    proof = derive_bounded(["y = yy"], "xyz = xyyz", depth=2)
    assert proof is not None
    step = proof.steps[0]
    assert step.occurrence.mode == "factor"
    assert step.occurrence.span is not None
    assert replay_proof(proof) == (True, None)


def test_fuzzed_proofs_replay_and_are_sound():
    import random

    from gen_util import random_absorption_identity, random_identity

    rng = random.Random(1234)
    found = 0
    for _ in range(60):
        basis = [random_identity(rng) for _ in range(rng.randint(1, 2))]
        target = (
            random_absorption_identity(rng)
            if rng.random() < 0.5
            else random_identity(rng)
        )
        try:
            proof = derive_bounded(
                basis, target, depth=2, size_factor=1, node_budget=400
            )
        except ResourceBudgetError:
            proof = None  # a spent budget, like a bounded miss, is no proof
        if proof is None:
            continue
        found += 1
        assert replay_proof(proof) == (True, None)
        assert_sound_over_catalog(proof)
    assert found > 0
