"""Bounded equational derivations with replayable proof objects.

A rewrite step applies a substitution instance of a basis identity (in
either direction) at an occurrence inside a normal-form term: either a
subset of summands or a factor span inside one word. Renormalization
after each step absorbs the ai-semiring axioms themselves, so only the
basis identities appear as rewrite rules. Because summands form a set,
a step may keep the matched occurrence alongside the replacement
(additive idempotency) or replace it.

`derive_bounded` searches for a rewrite chain from one side of the
target to the other by iterative deepening. If no direct chain exists
within the depth bound it proves each nontrivial piece of
`terms.decompose_identity` by its own chain and joins the pieces with
congruence, symmetry and transitivity steps. Both routes append to one
plain list of steps, and `_fold` chains each rewrite sequence into one
conclusion; `replay_proof` re-checks every step without the search.

The search's states are frozen word sets, not `TermNF`s: its cache,
its visited marks and its goal test all work on frozensets, and a
state's words are sorted into normal-form order once, when the state is
expanded, so successors come in the order the normal forms would give.
Each successor carries a compact edge record; `_step` builds the
`TermNF`s and the `ProofStep` only for the links of the chain the search
returns. The search never calls the checked `_apply_occurrence`: its
matched words are images of summands of the state, and a factor span is
the matched slice, so those checks cannot fail there. `replay_proof`
runs that checked rewrite on every step.

A rule whose source is one word matches inside one summand w at a
time, and its matches, substitutions and replacement words depend only
on (rule, w). Each search memoises those pieces per pair, and the
matches per (rule, subject word or factor), for reuse in every state
where they recur; a state then only forms its next word sets. Every
piece of w leaves the same rest S - {w}, so a piece whose replacement
set is {w}, or repeats the replacement set of an earlier piece of the
pair, could only reach states already emitted or skipped; the memo
keeps neither.

`Proof.nodes` counts the states the search expanded: those whose
successors it generated, or ruled out from reaching the goal in one
step. A successor of S is (S - M) | R or S | R, with at most m matched
words M (m: the most words on either side of a basis identity). The
goal is (S - M) | R only if S - goal lies inside M, and S | R only if
S - goal is empty, so it is one step from S only if |S - goal| <= m.
The bound is exact and the count is taken at the same point either
way, so neither the memo nor the bound changes proofs, node counts or
where a node budget runs out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .algebra import ResourceBudgetError
from .terms import (
    Identity,
    TermNF,
    Word,
    _word_key,
    decompose_identity,
    parse_identity,
    substitute,
    word_str,
)


DEFAULT_DEPTH = 8
DEFAULT_SIZE_FACTOR = 4
DEFAULT_NODE_BUDGET = 200_000


class DeriveError(ValueError):
    pass


@dataclass(frozen=True)
class Occurrence:
    """Where a rewrite happened.

    mode "summands": `matched` lists the words of the matched instance.
    mode "factor": the span `span` inside the word `word` was matched.
    `keep` records whether the matched occurrence stayed in place
    (idempotent duplication) or was removed.
    """

    mode: str
    keep: bool
    matched: tuple[Word, ...] = ()
    word: Word | None = None
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class ProofStep:
    kind: str
    result: Identity
    premises: tuple[int, ...] = ()
    axiom: str | None = None
    direction: str | None = None
    substitution: tuple[tuple[str, TermNF], ...] | None = None
    occurrence: Occurrence | None = None
    context: TermNF | None = None
    left_factor: TermNF | None = None
    right_factor: TermNF | None = None


@dataclass(frozen=True)
class Proof:
    basis: tuple[tuple[str, Identity], ...]
    target: Identity
    steps: tuple[ProofStep, ...]
    depth: int
    nodes: int

    def rewrite_chain(self) -> list[Identity]:
        return [s.result for s in self.steps if s.kind == "axiom-instance"]


# ---------------------------------------------------------------------------
# matching


def _match_word(pattern: Word, subject: Word, sigma: dict[str, Word]):
    """All extensions of sigma mapping the pattern word onto the whole
    subject word; variables bind nonempty factors."""

    def walk(pi: int, si: int):
        if pi == len(pattern):
            if si == len(subject):
                yield dict(sigma)
            return
        var = pattern[pi]
        bound = sigma.get(var)
        if bound is not None:
            end = si + len(bound)
            if subject[si:end] == bound:
                yield from walk(pi + 1, end)
            return
        slack = len(subject) - si - (len(pattern) - pi - 1)
        for length in range(1, slack + 1):
            sigma[var] = subject[si : si + length]
            yield from walk(pi + 1, si + length)
            del sigma[var]

    yield from walk(0, 0)


def _match_summands(pwords: tuple[Word, ...], words: Sequence[Word]):
    """Substitutions sending every pattern word onto some summand, the
    summands `words` taken in normal-form order."""

    def walk(i: int, sigma: dict[str, Word]):
        if i == len(pwords):
            yield dict(sigma)
            return
        for w in words:
            for extended in _match_word(pwords[i], w, sigma):
                yield from walk(i + 1, extended)

    seen = set()
    for sigma in walk(0, {}):
        key = tuple(sorted(sigma.items()))
        if key not in seen:
            seen.add(key)
            yield sigma


def _apply_occurrence(
    state: TermNF, matched_instance: TermNF, replacement: TermNF, occ: Occurrence
) -> TermNF:
    """Recompute the rewrite described by an occurrence, checking that
    the occurrence is really there; this is how replay re-executes an
    axiom-instance step, independently of the search."""
    if occ.mode == "summands":
        if not state.contains(matched_instance):
            raise DeriveError("matched summands are not present in the term")
        if set(occ.matched) != set(matched_instance.words):
            raise DeriveError("occurrence does not list the matched instance")
        if occ.keep:
            return state + replacement
        remaining = [w for w in state.words if w not in set(occ.matched)]
        if remaining:
            return TermNF(remaining) + replacement
        return replacement
    if occ.mode == "factor":
        if occ.word is None or occ.span is None:
            raise DeriveError("factor occurrence needs a word and a span")
        if len(matched_instance.words) != 1:
            raise DeriveError("factor rewrites need a one-word instance")
        i, j = occ.span
        w = occ.word
        if w not in set(state.words) or w[i:j] != matched_instance.words[0]:
            raise DeriveError("factor occurrence does not match the term")
        new_words = [w[:i] + u + w[j:] for u in replacement.words]
        if occ.keep:
            return state + TermNF(new_words)
        remaining = [x for x in state.words if x != w]
        if remaining:
            return TermNF(remaining) + TermNF(new_words)
        return TermNF(new_words)
    raise DeriveError(f"unknown occurrence mode {occ.mode!r}")


# ---------------------------------------------------------------------------
# successor generation


@dataclass(frozen=True)
class _Rule:
    label: str
    direction: str
    src: TermNF
    dst: TermNF
    fresh: tuple[str, ...]  # the variables of dst missing from src


def _directed_rules(basis: Sequence[tuple[str, Identity]]) -> list[_Rule]:
    rules = []
    for label, ident in basis:
        lhs, rhs = ident.lhs, ident.rhs
        for direction, src, dst in (("lr", lhs, rhs), ("rl", rhs, lhs)):
            bound = set(src.variables())
            fresh = tuple(v for v in dst.variables() if v not in bound)
            rules.append(_Rule(label, direction, src, dst, fresh))
    return rules


def _fresh_assignments(fresh: Sequence[str], sigma: dict[str, Word], candidates):
    if not fresh:
        yield sigma
        return
    for combo in itertools.product(candidates, repeat=len(fresh)):
        extended = dict(sigma)
        extended.update({v: (c,) for v, c in zip(fresh, combo)})
        yield extended


def _image(words: Iterable[Word], sigma: dict[str, Word]) -> set[Word]:
    """The words of a substitution instance under a word-valued sigma."""
    return {tuple(c for v in w for c in sigma[v]) for w in words}


def _rewrites(index: int, rule: _Rule, subject: Word, candidates, matches):
    """(sigma, R) for each match of rule.src, one word, onto all of subject,
    in match order, R the replacement words: memoised per (rule index,
    subject) in `matches`. Pieces and edges share the sigmas; none mutates."""
    key = (index, subject)
    if key not in matches:
        matches[key] = [
            (full, frozenset(_image(rule.dst.words, full)))
            for sigma in _match_word(rule.src.words[0], subject, {})
            for full in _fresh_assignments(rule.fresh, sigma, candidates)
        ]
    return matches[key]


def _word_pieces(index: int, rule: _Rule, w: Word, candidates, matches):
    """The rewrites of a one-word rule.src inside the summand w, as two
    lists of (sigma, mode, word, span, R, size of R) in the order
    `_successors` visits them: the whole-word matches, then the factor
    spans. R is the frozenset of replacement words. The matched set M is
    {w} for every piece, so none of this depends on the rest of the
    state. The matches onto w and onto each factor w[i:j] are read from
    the `matches` memo (`_rewrites`): one factor recurs in many words.

    Every piece leaves the same rest S - {w}, so its states are
    (S - {w}) | R and S | R. A piece whose R is {w} reaches only S, and
    one whose R repeats that of an earlier piece, in visit order, reaches
    only states the earlier one emitted or skipped; both are dropped.
    """
    firsts = {frozenset((w,)): None}  # R -> the first piece with it
    for full, replacement in _rewrites(index, rule, w, candidates, matches):
        firsts.setdefault(replacement, (full, "summands", None, None, replacement))
    for i in range(len(w)):
        # a span must host one nonempty factor per pattern variable
        for j in range(i + len(rule.src.words[0]), len(w) + 1):
            if (i, j) == (0, len(w)):
                continue  # whole-word spans are summand matches
            for full, image in _rewrites(index, rule, w[i:j], candidates, matches):
                spliced = frozenset(w[:i] + u + w[j:] for u in image)
                firsts.setdefault(spliced, (full, "factor", w, (i, j), spliced))
    whole, factor = [], []
    for piece in firsts.values():
        if piece is not None:
            found = whole if piece[1] == "summands" else factor
            found.append((*piece, sum(map(len, piece[4]))))
    return whole, factor


def _successors(state, rules, candidates, size_cap, memo=None, matches=None):
    """Deterministically ordered (next_state, edge) rewrites of state, a
    frozen word set; the next states are frozen word sets too.

    Each candidate is computed on word sets: the matched words M and the
    replacement words R are images of the rule's words, and the next
    state is (S - M) | R when the match is replaced, S | R when it is
    kept. A factor match has {w} for M and R spliced into w. An edge is
    the record (rule, sigma, mode, word, span, keep); `_step` turns it
    into a ProofStep. The words of S are sorted into normal-form order
    here, once, and matched in that order. A candidate's size is bounded
    by size(S - M) + size(R) or size(S) + size(R) first; it is summed
    only when that bound exceeds the cap.

    When rule.src is one word, every match lies inside one summand w, so
    its pieces depend only on (rule, w). `_word_pieces` computes them
    once per pair into `memo`, from the per-(rule, subject) `matches`;
    a caller may keep both across one search (same rules and candidates).
    Rules whose source has several words are matched against the state.
    """
    memo = {} if memo is None else memo
    matches = {} if matches is None else matches
    words = sorted(state, key=_word_key)
    size = sum(map(len, words))
    rests = [(w, state - {w}, size - len(w)) for w in words]
    out = []
    seen = set()

    def emit(rule, rest, rest_size, sigma, mode, w, span, replacement, r_size):
        for keep, base, base_size in ((False, rest, rest_size), (True, state, size)):
            new = base | replacement
            if new == state or new in seen:
                continue
            if base_size + r_size > size_cap and sum(map(len, new)) > size_cap:
                continue
            seen.add(new)
            out.append((new, (rule, sigma, mode, w, span, keep)))

    for index, rule in enumerate(rules):
        if len(rule.src.words) == 1:
            pieces = []
            for w, rest, rest_size in rests:
                key = (index, w)
                if key not in memo:
                    memo[key] = _word_pieces(index, rule, w, candidates, matches)
                pieces.append((rest, rest_size, memo[key]))
            for part in (0, 1):  # whole-word matches first, then factor spans
                for rest, rest_size, found in pieces:
                    for piece in found[part]:
                        emit(rule, rest, rest_size, *piece)
            continue
        # a match binds exactly the variables of rule.src, onto summands
        for sigma in _match_summands(rule.src.words, words):
            for full in _fresh_assignments(rule.fresh, sigma, candidates):
                matched = _image(rule.src.words, full)
                replacement = frozenset(_image(rule.dst.words, full))
                rest = state - matched
                rest_size = size - sum(map(len, matched))
                r_size = sum(map(len, replacement))
                emit(
                    rule, rest, rest_size, full, "summands", None, None, replacement, r_size
                )
    return out


def _step(state: frozenset[Word], new: frozenset[Word], edge) -> ProofStep:
    """The proof step of one edge that `_successors` found from state;
    the only place the search's word sets become `TermNF`s."""
    rule, sigma, mode, w, span, keep = edge
    matched = TermNF(_image(rule.src.words, sigma)).words if mode == "summands" else ()
    return ProofStep(
        kind="axiom-instance",
        result=Identity(TermNF(state), TermNF(new)),
        axiom=rule.label,
        direction=rule.direction,
        substitution=tuple(sorted((v, TermNF([u])) for v, u in sigma.items())),
        occurrence=Occurrence(mode=mode, keep=keep, matched=matched, word=w, span=span),
    )


# ---------------------------------------------------------------------------
# the searcher


class _Search:
    """One iterative-deepening search over frozen word sets: its
    successor lists per state, `_successors`' per-(rule, word) memo
    `_word_memo` and per-(rule, subject) match memo `_matches`, and the
    count of states it expanded. The caches live and die with the
    search. `chain` takes terms and returns proof steps; the states in
    between are never `TermNF`s.

    A state is expanded when its rewrites are generated or when, with
    one step left, it has more than `reach` (m) words outside the goal:
    every successor is (S - M) | R or S | R with |M| <= m, and either
    one equals the goal only if S - goal lies inside M. `_count` counts
    each state once, however it is first expanded; `_succ_cache` holds
    None for a counted state whose list is not built yet, and a later
    pass or goal that needs the list builds it without a second count.
    """

    def __init__(self, rules, candidates, size_cap, node_budget):
        self.rules = rules
        self.candidates = candidates
        self.size_cap = size_cap
        self.node_budget = node_budget
        self.reach = max((len(rule.src.words) for rule in rules), default=0)
        self.nodes = 0
        self._succ_cache: dict[frozenset[Word], list | None] = {}
        self._word_memo: dict[tuple[int, Word], tuple[list, list]] = {}
        self._matches: dict[tuple[int, Word], list] = {}

    def _count(self, state: frozenset[Word]):
        """Count state as expanded, the first time the search expands it."""
        if state not in self._succ_cache:
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise ResourceBudgetError("node budget exhausted")
            self._succ_cache[state] = None

    def successors(self, state: frozenset[Word]):
        cached = self._succ_cache.get(state)
        if cached is None:
            self._count(state)
            cached = _successors(
                state, self.rules, self.candidates, self.size_cap,
                self._word_memo, self._matches,
            )
            self._succ_cache[state] = cached
        return cached

    def _rules_out(self, state: frozenset[Word], goal: frozenset[Word]) -> bool:
        """Whether no single rewrite of state can give goal (see above)."""
        return len(state - goal) > self.reach

    def chain(self, start: TermNF, goal: TermNF, depth: int):
        """Shortest rewrite chain start -> goal, as a list of steps."""
        if start == goal:
            return []
        start, goal = frozenset(start.words), frozenset(goal.words)
        for limit in range(1, depth + 1):
            best_seen: dict[frozenset[Word], int] = {start: limit}
            path = self._dfs(start, goal, limit, best_seen)
            if path is not None:
                return [_step(*link) for link in path]
        return None

    def _dfs(self, state, goal, remaining, best_seen):
        """A path of (state, next_state, edge) links to goal, or None."""
        if remaining <= 1 and self._rules_out(state, goal):
            self._count(state)
            return None
        successors = self.successors(state)
        for new, edge in successors:
            if new == goal:
                return [(state, new, edge)]
        if remaining <= 1:
            return None
        for new, edge in successors:
            if best_seen.get(new, -1) >= remaining - 1:
                continue
            best_seen[new] = remaining - 1
            rest = self._dfs(new, goal, remaining - 1, best_seen)
            if rest is not None:
                return [(state, new, edge)] + rest
        return None


def _trans(steps: list[ProofStep], a: int, b: int) -> int:
    """Append the transitivity step joining steps a and b; returns its index."""
    result = Identity(steps[a].result.lhs, steps[b].result.rhs)
    steps.append(ProofStep(kind="transitivity", result=result, premises=(a, b)))
    return len(steps) - 1


def _fold(steps: list[ProofStep], links: list[ProofStep]) -> int:
    """Append a rewrite chain and fold its links into one conclusion with
    transitivity steps; returns the index of that conclusion."""
    acc = len(steps)
    steps.extend(links)
    for nxt in range(acc + 1, len(steps)):
        acc = _trans(steps, acc, nxt)
    return acc


def _normalize_basis(basis) -> tuple[tuple[str, Identity], ...]:
    """(label, identity) pairs; an unlabelled entry i is labelled b{i + 1}.

    Raises ValueError on a repeated label, since a proof names its
    axioms by label.
    """
    out = []
    seen = set()
    for i, entry in enumerate(basis):
        if isinstance(entry, str):
            entry = parse_identity(entry)
        if isinstance(entry, Identity):
            label, ident = f"b{i + 1}", entry
        else:
            label, ident = entry
            if isinstance(ident, str):
                ident = parse_identity(ident)
        if label in seen:
            raise ValueError(f"basis label {label!r} is used twice")
        seen.add(label)
        out.append((label, ident))
    return tuple(out)


def derive_bounded(
    basis: Iterable,
    target: Identity | str,
    depth: int = DEFAULT_DEPTH,
    size_factor: int = DEFAULT_SIZE_FACTOR,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Proof | None:
    """Search for a replayable derivation of the target from the basis.

    Returns None when no proof is found within the depth and size
    bounds; that is a bounded verdict, never a refutation. Raises
    ResourceBudgetError when the search visits more than `node_budget`
    states.
    """
    if isinstance(target, str):
        target = parse_identity(target)
    named = _normalize_basis(basis)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if size_factor < 1:
        raise ValueError("size cap misconfigured: factor must be at least 1")

    if target.trivial:
        step = ProofStep(kind="reflexivity", result=target)
        return Proof(named, target, (step,), depth=0, nodes=0)

    rules = _directed_rules(named)
    candidates = tuple(target.variables())
    size_cap = size_factor * max(target.lhs.size(), target.rhs.size(), 2)
    search = _Search(rules, candidates, size_cap, node_budget)

    # direct chain from left to right
    steps: list[ProofStep] = []
    links = search.chain(target.lhs, target.rhs, depth)
    if links is not None:
        conclusion = _fold(steps, links)
        assert steps[conclusion].result == target
        return Proof(named, target, tuple(steps), depth=len(links), nodes=search.nodes)

    # sum decomposition fallback: prove each nontrivial piece side = side + w
    # of decompose_identity, fold each side's pieces into side = lhs + rhs
    # with congruence and transitivity, then join the two sides
    total = target.lhs + target.rhs
    pieces = decompose_identity(target)
    side_ids = []
    longest = 0
    for side in (target.lhs, target.rhs):
        acc, acc_idx = side, None
        for piece in pieces:
            if piece.trivial or piece.identity.lhs != side:
                continue
            links = search.chain(side, piece.identity.rhs, depth)
            if links is None:
                return None
            longest = max(longest, len(links))
            idx = _fold(steps, links)
            grown = acc + piece.identity.rhs
            if acc_idx is not None:
                steps.append(
                    ProofStep(
                        kind="add-congruence",
                        result=Identity(acc, grown),
                        premises=(idx,),
                        context=acc,
                    )
                )
                idx = _trans(steps, acc_idx, len(steps) - 1)
            acc, acc_idx = grown, idx
        assert acc == total
        if acc_idx is None:
            steps.append(ProofStep(kind="reflexivity", result=Identity(side, total)))
            acc_idx = len(steps) - 1
        side_ids.append(acc_idx)
    left, right = side_ids
    swapped = steps[right].result.swapped()
    steps.append(ProofStep(kind="symmetry", result=swapped, premises=(right,)))
    conclusion = _trans(steps, left, len(steps) - 1)
    assert steps[conclusion].result == target
    return Proof(named, target, tuple(steps), depth=longest, nodes=search.nodes)


# ---------------------------------------------------------------------------
# replay


# each step kind: its tag in `format_proof` and its number of premises
_KINDS = {
    "axiom-instance": ("by", 0),
    "reflexivity": ("refl", 0),
    "symmetry": ("sym", 1),
    "transitivity": ("trans", 2),
    "add-congruence": ("+cong", 1),
    "mul-congruence": ("*cong", 1),
    "substitution-instance": ("subst", 1),
}


def replay_proof(proof: Proof) -> tuple[bool, int | None]:
    """Re-execute every step independently of the search.

    Returns (True, None) when all steps check out and the conclusion is
    the target, else (False, index-of-first-invalid-step). A step of an
    unknown kind, or with the wrong number of premises or a premise that
    is not an earlier step, is invalid; a proof without steps is
    (False, 0).
    """
    if not proof.steps:
        return False, 0
    named = dict(proof.basis)
    for i, step in enumerate(proof.steps):
        if step.kind not in _KINDS or len(step.premises) != _KINDS[step.kind][1]:
            return False, i
        if not all(0 <= p < i for p in step.premises):
            return False, i
        if not _replay_step(step, proof.steps, named):
            return False, i
    if proof.steps[-1].result != proof.target:
        return False, len(proof.steps) - 1
    return True, None


def _replay_step(step: ProofStep, steps, named: dict[str, Identity]) -> bool:
    """Check one step whose premise count `replay_proof` has checked."""
    kind = step.kind
    res = step.result
    prems = [steps[p].result for p in step.premises]
    if kind == "reflexivity":
        return res.lhs == res.rhs
    if kind == "symmetry":
        return res == prems[0].swapped()
    if kind == "transitivity":
        a, b = prems
        return a.rhs == b.lhs and res == Identity(a.lhs, b.rhs)
    if kind == "add-congruence":
        if step.context is None:
            return False
        (prem,) = prems
        return res == Identity(prem.lhs + step.context, prem.rhs + step.context)
    if kind == "mul-congruence":
        lhs, rhs = prems[0].lhs, prems[0].rhs
        if step.left_factor is not None:
            lhs, rhs = step.left_factor * lhs, step.left_factor * rhs
        if step.right_factor is not None:
            lhs, rhs = lhs * step.right_factor, rhs * step.right_factor
        return res == Identity(lhs, rhs)
    if kind == "substitution-instance":
        if step.substitution is None:
            return False
        sigma = dict(step.substitution)
        (prem,) = prems
        try:
            return res == Identity(
                substitute(prem.lhs, sigma), substitute(prem.rhs, sigma)
            )
        except KeyError:
            return False
    if kind == "axiom-instance":
        if step.axiom not in named or step.substitution is None or step.occurrence is None:
            return False
        ident = named[step.axiom]
        src, dst = (
            (ident.lhs, ident.rhs) if step.direction == "lr" else (ident.rhs, ident.lhs)
        )
        sigma = dict(step.substitution)
        try:
            matched = substitute(src, sigma)
            replacement = substitute(dst, sigma)
            rebuilt = _apply_occurrence(res.lhs, matched, replacement, step.occurrence)
        except (KeyError, DeriveError):
            return False
        return rebuilt == res.rhs
    return False


# ---------------------------------------------------------------------------
# rendering


def format_proof(proof: Proof) -> str:
    lines = [f"target: {proof.target}"]
    for label, ident in proof.basis:
        lines.append(f"basis {label}: {ident}")
    chain = proof.rewrite_chain()
    if chain:
        pretty = [str(chain[0].lhs)] + [str(s.rhs) for s in chain]
        lines.append("chain: " + " ≈ ".join(pretty))
    for i, step in enumerate(proof.steps):
        tag = _KINDS[step.kind][0] if step.kind in _KINDS else step.kind
        detail = ""
        if step.kind == "axiom-instance":
            # a malformed step (replay rejects it) renders with placeholders
            if step.substitution is None:
                sub = "<no substitution>"
            else:
                sub = ", ".join(f"{v}↦{t}" for v, t in step.substitution)
            arrow = "l→r" if step.direction == "lr" else "r→l"
            if step.occurrence is None:
                keep = " <no occurrence>"
            else:
                keep = "+keep" if step.occurrence.keep else ""
            detail = f" [{tag} {step.axiom} {arrow}{keep}; {sub}]"
        elif step.premises:
            detail = f" [{tag} {','.join(str(p + 1) for p in step.premises)}]"
        else:
            detail = f" [{tag}]"
        lines.append(f"{i + 1:3d}. {step.result}{detail}")
    return "\n".join(lines)


def _json_value(value):
    """One proof-step field as JSON: a term or identity as its text, a
    word as its letters, an occurrence as an object, a tuple as a list."""
    if isinstance(value, (TermNF, Identity)):
        return str(value)
    if isinstance(value, Occurrence):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        if value and all(isinstance(v, str) for v in value):
            return word_str(value)
        return [_json_value(v) for v in value]
    return value


def _step_json(step: ProofStep) -> dict:
    entry = {f.name: _json_value(getattr(step, f.name)) for f in fields(step)}
    if step.substitution is not None:
        entry["substitution"] = dict(entry["substitution"])
    return entry


def proof_to_json_dict(proof: Proof) -> dict:
    return {
        "schema": 1,
        "basis": [{"label": l, "identity": str(i)} for l, i in proof.basis],
        "target": str(proof.target),
        "depth": proof.depth,
        "nodes": proof.nodes,
        "steps": [_step_json(s) for s in proof.steps],
    }
