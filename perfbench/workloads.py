"""Workload job lists, output checks and the layer metrics of a traced run.

A job is one call into the library plus a check of its output. The
library is reached only through public functions of its modules and
through `cli.main(argv)`, always as module attributes, so a tracer
that rebinds those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import aisemiring.algebra as algebra
import aisemiring.catalog as catalog
import aisemiring.cli as cli
import aisemiring.derive as derive
import aisemiring.enumeration as enumeration
import aisemiring.satisfaction as satisfaction
import aisemiring.terms as terms
import aisemiring.variety as variety

from tracing import count, self_times, total_time

def load_expected() -> dict:
    return json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    # (output, counters) -> whether the output is right; may add to counters
    check: Callable[[Any, dict], bool]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stream_digest(algebras) -> str:
    """sha256 over the flattened add and mul tables of each algebra, in
    stream order."""
    h = hashlib.sha256()
    for a in algebras:
        h.update(bytes(x for table in (a.add, a.mul) for row in table for x in row))
    return h.hexdigest()


def constant_shapes(algebras) -> list[int]:
    """[constant rows, constant columns, both] counted straight from the
    multiplication tables, without calling the library."""
    rows = cols = both = 0
    for a in algebras:
        r = all(len(set(row)) == 1 for row in a.mul)
        c = all(len(set(col)) == 1 for col in zip(*a.mul))
        rows += r
        cols += c
        both += r and c
    return [rows, cols, both]


# ---------------------------------------------------------------------------
# enumerate: both enumeration pipelines; no free inputs


def _check_stream(report, want: dict, counters: dict) -> bool:
    ok = (
        report.complete
        and report.count == want["count"]
        and stream_digest(report.items) == want["digest"]
    )
    if "shapes" in want:  # general stream: second route to the structural counts
        ok = ok and constant_shapes(report.items) == want["shapes"]
        counters["enumeration.nodes"] += report.nodes
        counters["enumeration.classes"] += report.count
    return ok


def _check_union(report, want: dict, counters: dict) -> bool:
    rows = [[r.row_constant, r.column_constant, r.both] for r in report.rows]
    return (
        rows == want["rows"]
        and report.total_from_order_1 == want["total_from_order_1"]
        and report.total_from_order_2 == want["total_from_order_2"]
    )


def enumerate_jobs(seed: int, expected: dict) -> list[Job]:
    want = expected["enumerate"]
    workers = nproc()
    calls = {
        "general4": lambda: enumeration.enumerate_ai_semirings(4),
        "general5": lambda: enumeration.enumerate_ai_semirings(5, workers=workers),
        "row5": lambda: enumeration.enumerate_row_constant(5),
        "row6": lambda: enumeration.enumerate_row_constant(6),
        "col5": lambda: enumeration.enumerate_column_constant(5),
    }
    jobs = [
        Job(name, call, lambda r, c, w=want[name]: _check_stream(r, w, c))
        for name, call in calls.items()
    ]
    jobs.append(
        Job(
            "union5",
            lambda: enumeration.count_restricted_union(5),
            lambda r, c: _check_union(r, want["union5"], c),
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# lattice: the figure-1 reports and a free algebra through the CLI


LATTICE_COMMANDS = {
    "figure1": ["figure1"],
    "figure1_dual": ["figure1", "--dual"],
    "free_S4_475_rank4": ["free", "--variety", "S4_475", "--rank", "4"],
}


def _cli_run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def lattice_jobs(seed: int, expected: dict) -> list[Job]:
    want = expected["lattice"]
    workers = ["--workers", str(nproc())]
    return [
        Job(
            name,
            lambda argv=argv: _cli_run(argv + workers),
            lambda r, c, w=want[name]: r[0] == w["exit"]
            and sha256_text(r[1]) == w["stdout_sha256"],
        )
        for name, argv in LATTICE_COMMANDS.items()
    ]


# ---------------------------------------------------------------------------
# classify: the order-4 row-constant pool, relabelled and shuffled by seed


def classify_jobs(seed: int, expected: dict) -> list[Job]:
    labels = expected["classify"]["labels"]
    pool = enumeration.enumerate_row_constant(4).items
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    jobs = []
    for i in order:
        a = algebra.relabel(pool[i], rng.sample(range(pool[i].order), pool[i].order))
        jobs.append(
            Job(
                f"classify{i}",
                lambda a=a: variety.classify_generated(a),
                lambda r, c, w=labels[i]: r == w,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# derive: the paper's chains, then searches that must exhaust their depth

# (basis, target, depth): the three chains of acceptance criterion 9 and
# the four absorption chains of the derive tests
CHAINS = [
    ([("id0703", "xy = xz")], "xy = xx", 8),
    ([("L", "xx = xx + yy"), ("id0703", "xy = xz")], "x1x2 = y1y2", 8),
    ([("base_L2", "xy = x")], "xx = xx + x", 8),
    (
        [("lt02", "xx = xx + x"), ("lt03", "x + yy = xx + yy"), ("id0703", "xy = xz")],
        "xy = xy + x",
        6,
    ),
    ([("lnt02", "x + yy = x + yy + xx"), ("id0703", "xy = xz")], "x + yy = x + yy + xz", 6),
    ([("ln02", "x = x + xy"), ("id0703", "xy = xz")], "xw = xw + xz", 6),
    ([("nt01", "x1x2 = y1y2")], "yy = yy + z1z2", 6),
]

# the derive command of acceptance criterion 10
CLI_CHAIN = (["xx = xx + yy", "xy = xz"], "x1x2 = y1y2")

# (basis, target, depth, catalog algebra satisfying the basis and
# falsifying the target). Only targets with such a witness belong here:
# for a true target the search cannot reach, "not derived" is not
# known to be the right verdict.
REFUTED = [
    (["xy = x"], "xy = y", 5, "L2"),
    (["xy = xz"], "xyz = zyx", 4, "S58"),
    (["x = x + xx"], "xy = xy + yx", 4, "L2"),
    (["x = x + xy"], "x = x + yx", 5, "L2"),
    (["xx = x"], "xy = yx", 4, "L2"),
]

_NAMES = [c + d for c in "abcdefghijklmnopqrstuvwxyz" for d in ("", "1", "2")]


def _renamed(rng: random.Random, texts: list[str]):
    """A consistent random renaming of every variable in `texts`.

    The renaming keeps the order of variable names, so normal forms list
    their words in the same order and the search does the same work
    for every seed.
    """
    idents = [terms.parse_identity(t) for t in texts]
    variables = sorted({v for i in idents for v in i.variables()})
    mapping = dict(zip(variables, sorted(rng.sample(_NAMES, len(variables)))))

    def rename(ident):
        return terms.Identity(
            terms.rename(ident.lhs, mapping), terms.rename(ident.rhs, mapping)
        )

    return [rename(i) for i in idents]


def _sound_over_catalog(basis, target) -> bool:
    for name in catalog.builtin_names():
        a = catalog.get(name)
        if all(satisfaction.satisfies(a, b).holds for b in basis):
            if not satisfaction.satisfies(a, target).holds:
                return False
    return True


def _check_found(res, basis, target, depth_at_most, counters) -> bool:
    proof, replay = res
    if proof is None or replay != (True, None) or proof.target != target:
        return False
    counters["derive.nodes"] += proof.nodes
    counters["derive.steps"] += len(proof.steps)
    return proof.depth <= depth_at_most and _sound_over_catalog(basis, target)


def _check_cli_chain(res, basis, target, counters) -> bool:
    code, text = res
    if code != cli.OK:
        return False
    proof = json.loads(text)
    if proof["target"] != str(target):
        return False
    counters["derive.nodes"] += proof["nodes"]
    counters["derive.steps"] += len(proof["steps"])
    return _sound_over_catalog(basis, target)


def _check_refuted(res, basis, target, witness) -> bool:
    a = catalog.get(witness)
    return (
        res is None
        and all(satisfaction.satisfies(a, b).holds for b in basis)
        and not satisfaction.satisfies(a, target).holds
    )


def _derive_and_replay(basis, target, depth):
    proof = derive.derive_bounded(basis, target, depth=depth)
    return proof, (derive.replay_proof(proof) if proof is not None else None)


def derive_jobs(seed: int, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for k, (named, target, depth) in enumerate(CHAINS):
        *basis, goal = _renamed(rng, [text for _, text in named] + [target])
        labelled = [(label, b) for (label, _), b in zip(named, basis)]
        # the first chain is the one-step collapse of criterion 9
        bound = 1 if k == 0 else depth
        jobs.append(
            Job(
                f"chain{k}",
                lambda l=labelled, g=goal, d=depth: _derive_and_replay(l, g, d),
                lambda r, c, b=basis, g=goal, m=bound: _check_found(r, b, g, m, c),
            )
        )
    *basis, goal = _renamed(rng, CLI_CHAIN[0] + [CLI_CHAIN[1]])
    argv = ["derive", "--basis", "; ".join(map(str, basis)), "--target", str(goal),
            "--format", "json"]
    jobs.append(
        Job(
            "cli_chain",
            lambda: _cli_run(argv),
            lambda r, c, b=basis, g=goal: _check_cli_chain(r, b, g, c),
        )
    )
    for k, (texts, target, depth, witness) in enumerate(REFUTED):
        *basis, goal = _renamed(rng, texts + [target])
        jobs.append(
            Job(
                f"refuted{k}",
                lambda b=basis, g=goal, d=depth: derive.derive_bounded(
                    b, g, depth=d, node_budget=None
                ),
                lambda r, c, b=basis, g=goal, w=witness: _check_refuted(r, b, g, w),
            )
        )
    return jobs


# workload name -> job list builder, called as builder(seed, expected)
JOBS = {
    "enumerate": enumerate_jobs,
    "lattice": lattice_jobs,
    "classify": classify_jobs,
    "derive": derive_jobs,
}


# ---------------------------------------------------------------------------
# tracing: which attributes are wrapped, and the layer metrics


def install_tracing(tracer) -> None:
    """Wrap the public functions each layer's callers look up.

    `member` spans are tagged cold when the (generators, rank) pair is
    new in this process, so the free algebra is built inside the span;
    warm otherwise. `repeat` marks an (algebra, variety) question asked
    before in this process.
    """
    universes: set = set()
    questions: set = set()

    def member_tag(args, kwargs):
        a, spec = args[0], args[1]
        question = ((a.order, a.add, a.mul), spec.key())
        if question in questions:
            return "repeat"
        questions.add(question)
        universe = (spec.key(), a.order)
        if universe in universes:
            return "warm"
        universes.add(universe)
        return "cold"

    def free_tag(args, kwargs):
        universes.add((args[0].key(), args[1]))
        return None

    def verdict(proof):
        return "exhaust" if proof is None else "found"

    wrapped = [
        (enumeration, "canonical_semilattices", "enumeration", None, None),
        (enumeration, "enumerate_ai_semirings", "enumeration",
         lambda args, kwargs: f"n{args[0]}", None),
        (enumeration, "enumerate_row_constant", "enumeration", None, None),
        (enumeration, "enumerate_column_constant", "enumeration", None, None),
        (enumeration, "enumerate_constant_mul", "enumeration", None, None),
        (enumeration, "count_restricted_union", "enumeration", None, None),
        (enumeration, "canonical_tables", "algebra", None, None),
        (algebra, "verify_axioms", "algebra", None, None),
        (variety, "member", "variety", member_tag, None),
        (cli, "member", "variety", member_tag, None),
        (variety, "compare", "variety", None, None),
        (cli, "compare", "variety", None, None),
        (cli, "build_lattice", "variety", None, None),
        (cli, "free_algebra", "variety", free_tag, None),
        (variety, "classify_generated", "variety", None, None),
        (variety, "satisfies", "satisfaction", None, None),
        (cli, "satisfies", "satisfaction", None, None),
        (derive, "derive_bounded", "derive", None, verdict),
        (cli, "derive_bounded", "derive", None, verdict),
        (derive, "replay_proof", "derive", None, None),
        (cli, "replay_proof", "derive", None, None),
        (derive, "substitute", "terms", None, None),
        (derive, "parse_identity", "terms", None, None),
        (cli, "main", "cli", None, None),
    ]
    for module, attr, layer, before, after in wrapped:
        tracer.wrap(module, attr, f"{layer}.{attr}", before, after)


STRUCTURAL = (
    "enumeration.enumerate_row_constant",
    "enumeration.enumerate_column_constant",
    "enumeration.enumerate_constant_mul",
    "enumeration.count_restricted_union",
)

# metrics a traced run reports; 0 where the workload does not reach the layer
LAYER_METRICS = {
    "enumeration.semilattices_s": "s",
    "enumeration.general4_s": "s",
    "enumeration.general5_s": "s",
    "enumeration.nodes": "count",
    "enumeration.nodes_per_s": "1/s",
    "enumeration.classes_per_node": "ratio",
    "enumeration.structural_s": "s",
    "enumeration.parallelism": "ratio",
    "algebra.verify_axioms_s": "s",
    "algebra.verify_axioms_calls": "count",
    "algebra.canonical_tables_s": "s",
    "algebra.canonical_tables_calls": "count",
    "variety.member_cold_s": "s",
    "variety.member_cold_calls": "count",
    "variety.member_warm_s": "s",
    "variety.member_warm_calls": "count",
    "variety.member_repeat_calls": "count",
    "variety.compare_s": "s",
    "variety.compare_calls": "count",
    "variety.build_lattice_s": "s",
    "variety.free_algebra_s": "s",
    "variety.classify_p50_s": "s",
    "variety.classify_p90_s": "s",
    "satisfaction.satisfies_s": "s",
    "satisfaction.satisfies_calls": "count",
    "derive.search_found_s": "s",
    "derive.search_exhaust_s": "s",
    "derive.nodes": "count",
    "derive.steps": "count",
    "derive.replay_s": "s",
    "terms.substitute_s": "s",
    "terms.substitute_calls": "count",
    "terms.parse_s": "s",
    "cli.self_s": "s",
    "run.cpu_s": "s",
    "trace.overhead_s": "s",  # filled in by run.py
}


def layer_metrics(spans, counters: dict, job_times: dict) -> dict[str, float]:
    """Per-layer figures of one traced process. `job_times` maps each
    job to its (wall, cpu) seconds, cpu counting reaped worker children.
    `trace.overhead_s` needs an untraced process too and is left to
    run.py."""
    general = total_time(spans, "enumeration.enumerate_ai_semirings")
    nodes = counters.get("enumeration.nodes", 0)
    member_warm = ("warm", "repeat")
    classify = sorted(
        s.end - s.start for s in spans if s.name == "variety.classify_generated"
    )
    selfs = self_times(spans)
    return {
        "enumeration.semilattices_s": total_time(spans, "enumeration.canonical_semilattices"),
        "enumeration.general4_s": total_time(
            spans, "enumeration.enumerate_ai_semirings", "n4"
        ),
        "enumeration.general5_s": total_time(
            spans, "enumeration.enumerate_ai_semirings", "n5"
        ),
        "enumeration.nodes": nodes,
        "enumeration.nodes_per_s": nodes / general if general else 0.0,
        "enumeration.classes_per_node": (
            counters.get("enumeration.classes", 0) / nodes if nodes else 0.0
        ),
        "enumeration.structural_s": total_time(spans, STRUCTURAL),
        "enumeration.parallelism": (
            job_times["general5"][1] / job_times["general5"][0]
            if "general5" in job_times
            else 0.0
        ),
        "algebra.verify_axioms_s": total_time(spans, "algebra.verify_axioms"),
        "algebra.verify_axioms_calls": count(spans, "algebra.verify_axioms"),
        "algebra.canonical_tables_s": total_time(spans, "algebra.canonical_tables"),
        "algebra.canonical_tables_calls": count(spans, "algebra.canonical_tables"),
        "variety.member_cold_s": total_time(spans, "variety.member", "cold"),
        "variety.member_cold_calls": count(spans, "variety.member", "cold"),
        "variety.member_warm_s": sum(
            total_time(spans, "variety.member", t) for t in member_warm
        ),
        "variety.member_warm_calls": sum(
            count(spans, "variety.member", t) for t in member_warm
        ),
        "variety.member_repeat_calls": count(spans, "variety.member", "repeat"),
        "variety.compare_s": total_time(spans, "variety.compare"),
        "variety.compare_calls": count(spans, "variety.compare"),
        "variety.build_lattice_s": total_time(spans, "variety.build_lattice"),
        "variety.free_algebra_s": total_time(spans, "variety.free_algebra"),
        "variety.classify_p50_s": statistics.median(classify) if classify else 0.0,
        "variety.classify_p90_s": (
            statistics.quantiles(classify, n=10)[-1] if len(classify) > 1 else 0.0
        ),
        "satisfaction.satisfies_s": total_time(spans, "satisfaction.satisfies"),
        "satisfaction.satisfies_calls": count(spans, "satisfaction.satisfies"),
        "derive.search_found_s": total_time(spans, "derive.derive_bounded", "found"),
        "derive.search_exhaust_s": total_time(spans, "derive.derive_bounded", "exhaust"),
        "derive.nodes": counters.get("derive.nodes", 0),
        "derive.steps": counters.get("derive.steps", 0),
        "derive.replay_s": total_time(spans, "derive.replay_proof"),
        "terms.substitute_s": total_time(spans, "terms.substitute"),
        "terms.substitute_calls": count(spans, "terms.substitute"),
        "terms.parse_s": total_time(spans, "terms.parse_identity"),
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s.name == "cli.main"),
        "run.cpu_s": sum(cpu for _, cpu in job_times.values()),
    }
