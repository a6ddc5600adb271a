"""Mutation checks: each entry breaks the source on purpose, and the
tests it names must then fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py           # every entry
    python tests/mutants.py NAME ...  # the named entries

For each entry the script copies src/, tests/ and pyproject.toml to a
temporary directory, replaces the entry's old text, which must occur
exactly once in its file, by the new text, and runs
`python -m pytest -q -x -p no:cacheprovider <test ids>` there. The
mutant is killed when that run reports a failing test (exit status 1);
a run that passes, or collects nothing, lets it survive. An unmutated
copy runs the same ids first, so a test that fails anyway kills
nothing. The script exits 1 if any old text is missing or repeated or
any mutant survives: a refactor that moves mutated code updates its
entry, and a survivor is a finding, not an entry to drop. Nothing is
written outside the temporary directories. pytest does not collect
this file, since its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


ENUMERATION = "src/aisemiring/enumeration.py"
VARIETY = "src/aisemiring/variety.py"
ALGEBRA = "src/aisemiring/algebra.py"
DERIVE = "src/aisemiring/derive.py"
CLOSURE_PATHS = "tests/test_variety.py::test_free_algebra_closure_route_on_both_vector_paths"
REFUTED_NODES = "tests/test_derive.py::test_refuted_search_node_counts_are_pinned"
FALLBACK_PINS = "tests/test_derive.py::test_fallback_proofs_are_pinned"
CHAIN_PINS = "tests/test_derive.py::test_chain_proofs_are_pinned"
FIRST_PIECES = "tests/test_derive.py::test_word_memo_keeps_the_first_piece_of_each_replacement_set"
REFERENCE = "tests/test_derive.py::test_successors_match_the_reference_generator"
RULES = "tests/test_variety.py::test_rule_built_closed_forms_equal_evaluation"
REPLAYED = "tests/test_variety.py::test_replayed_universe_equals_the_closure"
# the lines of `_Search.successors` between its cache lookup and its fill
CACHE_FILL = """\
        if cached is None:
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                raise ResourceBudgetError("node budget exhausted")
            cached = _successors(
                state, self.rules, self.candidates, self.size_cap, self._word_memo
            )
            """

MUTANTS = (
    Mutant(
        "tuple pair code read once",
        VARIETY,
        "self.pair = lambda u, v: tuple(zip(u, v))",
        "self.pair = lambda u, v: zip(u, v)",
        (CLOSURE_PATHS,),
    ),
    Mutant(
        "tuple pair code with swapped factors",
        VARIETY,
        "self.pair = lambda u, v: tuple(zip(u, v))",
        "self.pair = lambda u, v: tuple(zip(v, u))",
        (CLOSURE_PATHS,),
    ),
    Mutant(
        "distributivity mask read transposed",
        ENUMERATION,
        "mask &= sol[flat[i]][flat[j]]",
        "mask &= sol[flat[j]][flat[i]]",
        ("tests/test_enumeration.py::test_mul_search_matches_reference",),
    ),
    Mutant(
        "top-down check removed",
        ENUMERATION,
        "if any(adds[y][z] > min(y, z) for y in rng for z in rng):",
        "if False:",
        ("tests/test_enumeration.py::test_mul_search_refuses_reducts_not_labelled_top_down",),
    ),
    Mutant(
        "product checker tests no column",
        ALGEBRA,
        "for r in {*rows, *(mul[j::n] for j in range(n))} - proved:",
        "for r in {*rows} - proved:",
        ("tests/test_enumeration.py::test_product_checker_keeps_only_proofs",),
    ),
    Mutant(
        "lex-leader comparison reversed",
        ENUMERATION,
        "elif perm[flat[image[k]]] < flat[k]:",
        "elif perm[flat[image[k]]] > flat[k]:",
        ("tests/test_enumeration.py::test_order_3_matches_naive_all_tables_oracle",),
    ),
    Mutant(
        "dual class step keeps its factors",
        VARIETY,
        "return rep[u[0] | v[0]], v[1], u[1]",
        "return rep[u[0] | v[0]], u[1], v[1]",
        ("tests/test_variety.py::test_member_matches_reference_walk_on_all_algebras_up_to_order_3",),
    ),
    Mutant(
        "V(L2)'s invariant U replaced by A",
        VARIETY,
        "lambda a, b, u, e: u,  # V(L2)",
        "lambda a, b, u, e: a,  # V(L2)",
        (RULES,),
    ),
    Mutant(
        "V(S58)'s invariant (B, U) replaced by (A, U)",
        VARIETY,
        "lambda a, b, u, e: (b, u),  # V(S58)",
        "lambda a, b, u, e: (a, u),  # V(S58)",
        (RULES,),
    ),
    Mutant(
        "dual fill reads the square of the left factor",
        VARIETY,
        "self.mul_tab = (tuple(squares),) * n",
        "self.mul_tab = tuple((p,) * n for p in squares)",
        (REPLAYED,),
    ),
    Mutant(
        "size bound with the keep and replace bases swapped",
        DERIVE,
        "for keep, base, base_size in ((False, rest, rest_size), (True, state, size)):",
        "for keep, base, base_size in ((False, rest, size), (True, state, rest_size)):",
        (REFUTED_NODES, REFERENCE),
    ),
    Mutant(
        "whole-word piece dedupe keeps the last repeat",
        DERIVE,
        'firsts.setdefault(replacement, (full, "summands", None, None, replacement))',
        'firsts[replacement] = (full, "summands", None, None, replacement)',
        (FIRST_PIECES,),
    ),
    Mutant(
        "factor piece dedupe keeps the last repeat",
        DERIVE,
        'firsts.setdefault(spliced, (full, "factor", w, (i, j), spliced))',
        'firsts[spliced] = (full, "factor", w, (i, j), spliced)',
        (FIRST_PIECES, FALLBACK_PINS, REFERENCE),
    ),
    Mutant(
        "goal left a term, never equal to a word set",
        DERIVE,
        "start, goal = frozenset(start.words), frozenset(goal.words)",
        "start = frozenset(start.words)",
        (CHAIN_PINS, FALLBACK_PINS),
    ),
    Mutant(
        "successor cache keyed on the word lengths",
        DERIVE,
        "cached = self._succ_cache.get(state)\n" + CACHE_FILL + "self._succ_cache[state] = cached",
        "cached = self._succ_cache.get(frozenset(map(len, state)))\n"
        + CACHE_FILL
        + "self._succ_cache[frozenset(map(len, state))] = cached",
        (REFUTED_NODES, CHAIN_PINS),
    ),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(tree: str, tests) -> int:
    """pytest's exit status on the ids in `tree`, importing that tree's
    src/ before anything installed."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def _patch(tree: str, mutant: Mutant) -> str | None:
    """Apply the mutant in `tree`; the problem, if its old text does not
    occur exactly once."""
    path = os.path.join(tree, mutant.path)
    with open(path) as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text occurs {found} times in {mutant.path}"
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return None


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        ids = sorted({t for m in chosen for t in m.tests})
        if _pytest(tree, ids) != 0:
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 1
    problems = 0
    for mutant in chosen:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            problem = _patch(tree, mutant)
            if problem is None:
                code = _pytest(tree, mutant.tests)
                if code != 1:
                    problem = f"survived (pytest exit status {code})"
        elapsed = time.perf_counter() - started
        verdict = "killed" if problem is None else f"FAILED: {problem}"
        print(f"{mutant.name}: {verdict} ({elapsed:.1f} s)")
        problems += problem is not None
    print(f"{len(chosen) - problems} of {len(chosen)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
