"""Command-line interface.

Exit status: 0 = success / claim verified; 1 = a checked claim is
falsified (an identity fails, a derivation is not found, a count or
lattice claim does not hold); 2 = usage or resource errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import catalog, fileformat
from .algebra import (
    AxiomError,
    FiniteAlgebra,
    LAWS,
    ResourceBudgetError,
    dual,
    verify_axioms,
)
from .derive import DEFAULT_DEPTH, DEFAULT_NODE_BUDGET, DEFAULT_SIZE_FACTOR
from .derive import derive_bounded, format_proof, proof_to_json_dict, replay_proof
from .enumeration import ENUMERATORS, count_restricted_union, enumerate_ai_semirings
from .satisfaction import DEFAULT_ASSIGNMENT_BUDGET, satisfies
from .terms import TermSyntaxError, parse_identities, parse_identity
from .variety import (
    DEFAULT_CELL_LIMIT,
    EQUAL,
    LEFT_IN_RIGHT,
    LatticeIncompleteError,
    VarietySpec,
    build_lattice,
    classify_generated,
    ClassificationError,
    compare,
    free_algebra,
    member,
    standard_subvariety_specs,
)

OK, FALSIFIED, USAGE = 0, 1, 2

# Pinned Hasse diagram of the ten-variety lattice (lower, upper).
FIGURE1_EDGES = (
    ("T", "V(L2)"),
    ("T", "V(N2)"),
    ("T", "V(T2)"),
    ("V(L2)", "V(L2,N2)"),
    ("V(L2)", "V(L2,T2)"),
    ("V(N2)", "V(L2,N2)"),
    ("V(N2)", "V(N2,T2)"),
    ("V(T2)", "V(L2,T2)"),
    ("V(T2)", "V(N2,T2)"),
    ("V(L2,N2)", "V(L2,N2,T2)"),
    ("V(N2,T2)", "V(L2,N2,T2)"),
    ("V(L2,T2)", "V(L2,N2,T2)"),
    ("V(L2,T2)", "V(S58)"),
    ("V(L2,N2,T2)", "R"),
    ("V(S58)", "R"),
)

FIGURE1_ATOMS = ("V(L2)", "V(N2)", "V(T2)")

# label correspondence between the primary lattice and its dual
_DUAL_LABELS = {
    "T": "T",
    "V(L2)": "V(R2)",
    "V(N2)": "V(N2)",
    "V(T2)": "V(T2)",
    "V(L2,N2)": "V(R2,N2)",
    "V(N2,T2)": "V(N2,T2)",
    "V(L2,T2)": "V(R2,T2)",
    "V(L2,N2,T2)": "V(R2,N2,T2)",
    "V(S58)": "V(S56)",
    "R": "C",
}


def _load_algebra(ref: str, validate: bool = True) -> FiniteAlgebra:
    """A builtin by name (with or without the `builtin:` prefix) or an
    algebra file; `validate=False` lets a file that breaks the axioms
    load, so `verify` can report which laws fail."""
    if ref.startswith("builtin:"):
        return catalog.get(ref[len("builtin:") :])
    try:
        return catalog.get(ref)
    except KeyError:
        pass
    if os.path.exists(ref):
        with open(ref) as fh:
            return fileformat.load_one(fh.read(), validate)
    raise SystemExit2(f"no builtin algebra or file named {ref!r}")


def _load_variety(ref: str) -> VarietySpec:
    gens = tuple(_load_algebra(part.strip()) for part in ref.split(","))
    return VarietySpec(ref, gens)


class SystemExit2(Exception):
    """Usage-level error, reported on stderr with exit status 2."""


def _emit(payload: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    names = args.algebra or [f"builtin:{n}" for n in catalog.builtin_names()]
    results = []
    lines = []
    status = OK
    for ref in names:
        a = _load_algebra(ref, validate=False)
        report = verify_axioms(a)
        label = a.name or ref
        results.append(
            {
                "algebra": label,
                "ok": report.ok,
                "laws": {law: getattr(report, law) for law in LAWS},
                "witnesses": {k: list(v) for k, v in sorted(report.witnesses.items())},
            }
        )
        if report.ok:
            lines.append(f"{label}: ok (order {a.order})")
        else:
            status = FALSIFIED
            failed = ", ".join(report.failed_laws())
            lines.append(f"{label}: FAILS {failed}")
    _emit({"results": results}, args, lines)
    return status


def cmd_check(args) -> int:
    a = _load_algebra(args.algebra)
    idents = []
    if args.identity:
        idents.append(parse_identity(args.identity))
    if args.identities_file:
        with open(args.identities_file) as fh:
            idents.extend(parse_identities(fh.read()))
    if not idents:
        raise SystemExit2("need --identity or --identities-file")
    results = []
    lines = []
    status = OK
    for ident in idents:
        res = satisfies(a, ident, budget=args.budget)
        entry = {"identity": str(ident), "holds": res.holds}
        if res.holds:
            lines.append(f"{ident}: holds")
        else:
            status = FALSIFIED
            entry["counterexample"] = {
                "assignment": res.assignment,
                "lhs_value": res.lhs_value,
                "rhs_value": res.rhs_value,
            }
            asg = ", ".join(f"{v}={e}" for v, e in sorted(res.assignment.items()))
            lines.append(
                f"{ident}: fails at {asg} "
                f"(lhs={res.lhs_value}, rhs={res.rhs_value})"
            )
        results.append(entry)
    _emit({"algebra": a.name or args.algebra, "results": results}, args, lines)
    return status


def cmd_enumerate(args) -> int:
    kind = args.klass
    if kind == "all":
        report = enumerate_ai_semirings(
            args.order, node_budget=args.node_budget, workers=args.workers
        )
    else:
        for flag, given in (
            ("--node-budget", args.node_budget is not None),
            ("--workers", args.workers > 1),
        ):
            if given:
                print(
                    f"note: {flag} applies only to --class all; --class {kind} ignores it",
                    file=sys.stderr,
                )
        report = ENUMERATORS[kind](args.order)
    payload = {
        "order": report.order,
        "class": report.class_name,
        "count": report.count,
        "complete": report.complete,
        "nodes": report.nodes,
    }
    lines = [
        f"order {report.order} class {report.class_name}: "
        f"{report.count} algebras up to isomorphism"
    ]
    if not report.complete:
        lines.append("WARNING: node budget exhausted; count is a lower bound")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        written = []
        for a in report.items:
            flat = tuple(x for row in a.add for x in row) + tuple(
                x for row in a.mul for x in row
            )
            digest = hashlib.sha256(bytes(flat)).hexdigest()[:16]
            path = os.path.join(args.out_dir, f"{digest}.alg")
            with open(path, "w") as fh:
                fh.write(fileformat.dumps(a))
            written.append(path)
        payload["files"] = written
        lines.append(f"wrote {len(written)} files to {args.out_dir}")
    if not args.count_only and args.format == "json":
        payload["algebras"] = [
            {"add": [list(r) for r in a.add], "mul": [list(r) for r in a.mul]}
            for a in report.items
        ]
    _emit(payload, args, lines)
    return OK if report.complete else USAGE


def cmd_count_restricted(args) -> int:
    report = count_restricted_union(args.max_order)
    matching = report.convention_matching(789)
    payload = {
        "max_order": args.max_order,
        "per_order": [
            {
                "order": r.order,
                "row_constant": r.row_constant,
                "column_constant": r.column_constant,
                "both": r.both,
                "union": r.union,
            }
            for r in report.rows
        ],
        "total_including_order_1": report.total_from_order_1,
        "total_excluding_order_1": report.total_from_order_2,
        "convention_matching_789": matching,
    }
    lines = ["order  row  col  both  union"]
    for r in report.rows:
        lines.append(
            f"{r.order:5d}  {r.row_constant:3d}  {r.column_constant:3d}  "
            f"{r.both:4d}  {r.union:5d}"
        )
    lines.append(f"total including order 1: {report.total_from_order_1}")
    lines.append(f"total excluding order 1: {report.total_from_order_2}")
    status = OK
    if args.max_order == 5:
        if matching:
            lines.append(f"789 matched by convention: {matching}")
        else:
            lines.append(
                "CLAIM FALSIFIED: neither convention equals 789 "
                f"(got {report.total_from_order_1} / {report.total_from_order_2})"
            )
            status = FALSIFIED
    _emit(payload, args, lines)
    return status


def cmd_member(args) -> int:
    a = _load_algebra(args.algebra)
    spec = _load_variety(args.variety)
    res = member(a, spec, cell_limit=args.cell_limit)
    payload = {
        "algebra": a.name or args.algebra,
        "variety": spec.label,
        "member": res.member,
        "separating_identity": (
            str(res.separating_identity) if res.separating_identity else None
        ),
        "assignment": res.assignment,
    }
    if res.member:
        lines = [f"{a.name or args.algebra} is a member of V({spec.label})"]
    else:
        asg = ", ".join(f"{v}={e}" for v, e in sorted(res.assignment.items()))
        lines = [
            f"{a.name or args.algebra} is not a member of V({spec.label})",
            f"separating identity: {res.separating_identity}",
            f"falsified under {asg}",
        ]
    _emit(payload, args, lines)
    return OK


def cmd_free(args) -> int:
    spec = _load_variety(args.variety)
    res = free_algebra(spec, args.rank, cell_limit=args.cell_limit)
    payload = {
        "variety": spec.label,
        "rank": args.rank,
        "order": res.algebra.order,
        "witnesses": [str(w) for w in res.witnesses],
    }
    lines = [f"free algebra of V({spec.label}) on {args.rank} generators: "
             f"order {res.algebra.order}"]
    for i, w in enumerate(res.witnesses):
        lines.append(f"  element {i}: {w}")
    _emit(payload, args, lines)
    return OK


def cmd_compare(args) -> int:
    left = _load_variety(args.left)
    right = _load_variety(args.right)
    verdict = compare(left, right)
    _emit(
        {"left": left.label, "right": right.label, "verdict": verdict},
        args,
        [f"V({left.label}) vs V({right.label}): {verdict}"],
    )
    return OK


def _lattice_payload(lat) -> dict:
    labels = lat.labels()
    return {
        "labels": list(labels),
        "hasse_edges": [[labels[i], labels[j]] for i, j in lat.hasse_edges],
        "distributive": lat.distributive,
        "atoms": sorted(labels[i] for i in lat.atoms()),
        "inclusion": [[bool(x) for x in row] for row in lat.leq],
    }


def _lattice_dot(lat, title: str) -> str:
    labels = lat.labels()
    lines = [f"digraph {title} {{", "  rankdir=BT;"]
    for lab in labels:
        lines.append(f'  "{lab}";')
    for i, j in sorted(lat.hasse_edges, key=lambda e: (labels[e[0]], labels[e[1]])):
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines)


def _report_lattice(lat, title: str, args, payload: dict, lines: list[str]) -> None:
    """Write the dot text to --dot-out when given, then print the dot
    text (--format dot) or the report."""
    dot = _lattice_dot(lat, title)
    if args.dot_out:
        with open(args.dot_out, "w") as fh:
            fh.write(dot + "\n")
        lines.append(f"dot written to {args.dot_out}")
    if args.format == "dot":
        print(dot)
    else:
        _emit(payload, args, lines)


def cmd_lattice(args) -> int:
    if args.specs:
        specs = [_load_variety(ref) for ref in args.specs]
    else:
        specs = standard_subvariety_specs()
    try:
        lat = build_lattice(specs)
    except LatticeIncompleteError as exc:
        print(f"lattice incomplete: {exc}", file=sys.stderr)
        return FALSIFIED
    labels = lat.labels()
    lines = [f"order: {len(labels)}", f"distributive: {lat.distributive}"]
    lines.append("atoms: " + ", ".join(sorted(labels[i] for i in lat.atoms())))
    lines.append("hasse edges:")
    for i, j in lat.hasse_edges:
        lines.append(f"  {labels[i]} -> {labels[j]}")
    _report_lattice(lat, "subvarieties", args, _lattice_payload(lat), lines)
    return OK


def cmd_classify(args) -> int:
    a = _load_algebra(args.algebra)
    label = classify_generated(a)
    _emit(
        {"algebra": a.name or args.algebra, "variety": label},
        args,
        [f"{a.name or args.algebra} generates {label}"],
    )
    return OK


def cmd_derive(args) -> int:
    basis = []
    if args.basis:
        basis.extend(s.strip() for s in args.basis.split(";") if s.strip())
    if args.basis_file:
        with open(args.basis_file) as fh:
            basis.extend(str(i) for i in parse_identities(fh.read()))
    if not basis:
        raise SystemExit2("need --basis or --basis-file")
    proof = derive_bounded(
        basis,
        args.target,
        depth=args.depth,
        size_factor=args.size_factor,
        node_budget=args.node_budget,
    )
    if proof is None:
        print(f"not derived within depth {args.depth} (bounded verdict)")
        return FALSIFIED
    ok, bad = replay_proof(proof)
    if not ok:
        print(f"internal error: emitted proof fails replay at step {bad}", file=sys.stderr)
        return USAGE
    if args.format == "json":
        print(json.dumps(proof_to_json_dict(proof), sort_keys=True, indent=2))
    else:
        print(format_proof(proof))
    return OK


def _figure1_claims(lat, expected_edges, expected_atoms, dual_mode: bool):
    labels = lat.labels()
    got_edges = sorted((labels[i], labels[j]) for i, j in lat.hasse_edges)
    claims = [
        ("order is 10", len(labels) == 10, f"got {len(labels)}"),
        (
            "hasse diagram matches the pinned fixture",
            got_edges == sorted(expected_edges),
            f"{len(got_edges)} edges",
        ),
        ("all pairwise joins stay inside the ten", True, "build succeeded"),
        ("lattice is distributive", lat.distributive, str(lat.distributive)),
        (
            "atoms are exactly " + ", ".join(expected_atoms),
            sorted(labels[i] for i in lat.atoms()) == sorted(expected_atoms),
            ", ".join(sorted(labels[i] for i in lat.atoms())),
        ),
    ]
    # the lattice's top by its label: R = V(S4_475), or its dual C
    top = labels.index("C" if dual_mode else "R")
    g = catalog.get
    big = VarietySpec("S58,N2", (g("S58"), g("N2")))
    name = "V(S4_475) equals V(S58,N2)"
    if dual_mode:
        big = _dual_spec(big, "S56,N2")
        name = "V(dual S4_475) equals V(S56,N2)"
    verdict = compare(lat.specs[top], big)
    claims.append((name, verdict == EQUAL, verdict))
    if not dual_mode:
        # V(S58), V(N2) and the top have one generator each: S58, N2, S4_475
        in_top = {labels[i]: row[top] for i, row in enumerate(lat.leq)}
        claims += [
            ("S58 is in the top variety", in_top["V(S58)"], "member"),
            ("N2 is in the top variety", in_top["V(N2)"], "member"),
            ("S4_475 is in V(S58,N2)", verdict in (EQUAL, LEFT_IN_RIGHT), "member"),
        ]
    return claims


def _dual_spec(spec: VarietySpec, label: str) -> VarietySpec:
    return VarietySpec(label, tuple(dual(x) for x in spec.generators))


def cmd_figure1(args) -> int:
    if args.dual:
        specs = [
            _dual_spec(s, _DUAL_LABELS[s.label]) for s in standard_subvariety_specs()
        ]
        expected_edges = [
            (_DUAL_LABELS[a], _DUAL_LABELS[b]) for a, b in FIGURE1_EDGES
        ]
        expected_atoms = [_DUAL_LABELS[a] for a in FIGURE1_ATOMS]
    else:
        specs = standard_subvariety_specs()
        expected_edges = list(FIGURE1_EDGES)
        expected_atoms = list(FIGURE1_ATOMS)

    try:
        lat = build_lattice(specs)
    except LatticeIncompleteError as exc:
        print(f"FAIL lattice construction: {exc}")
        return FALSIFIED

    claims = _figure1_claims(lat, expected_edges, expected_atoms, args.dual)
    lines = []
    all_ok = True
    for name, ok, detail in claims:
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    payload = {
        **_lattice_payload(lat),
        "claims": [{"claim": n, "ok": ok, "detail": str(d)} for n, ok, d in claims],
    }
    _report_lattice(lat, "figure1", args, payload, lines)
    return OK if all_ok else FALSIFIED


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for enumerate; other subcommands accept and ignore it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisemiring",
        description="workbench for finite additively idempotent semirings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining axioms")
    p.add_argument("--algebra", action="append")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="does an algebra satisfy identities")
    p.add_argument("--algebra", required=True)
    p.add_argument("--identity")
    p.add_argument("--identities-file")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_ASSIGNMENT_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="isomorph-free enumeration")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--class",
        dest="klass",
        choices=("all", "row-constant", "column-constant", "both"),
        default="all",
    )
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out-dir")
    p.add_argument("--node-budget", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count-restricted", help="row/column-constant union count")
    p.add_argument("--max-order", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_count_restricted)

    p = sub.add_parser("member", help="variety membership")
    p.add_argument("--algebra", required=True)
    p.add_argument("--variety", required=True, help="comma-separated generators")
    p.add_argument("--cell-limit", type=_positive_int, default=DEFAULT_CELL_LIMIT)
    _add_common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("free", help="relatively free algebra with witnesses")
    p.add_argument("--variety", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--cell-limit", type=_positive_int, default=DEFAULT_CELL_LIMIT)
    _add_common(p)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("compare", help="compare two finitely generated varieties")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lattice", help="inclusion lattice of variety specs")
    p.add_argument("--specs", nargs="*")
    p.add_argument("--dot-out")
    _add_common(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("classify", help="which of the ten subvarieties is generated")
    p.add_argument("--algebra", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("derive", help="bounded equational derivation")
    p.add_argument("--basis", help="semicolon-separated identities")
    p.add_argument("--basis-file")
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=_positive_int, default=DEFAULT_DEPTH)
    p.add_argument("--size-factor", type=_positive_int, default=DEFAULT_SIZE_FACTOR)
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("figure1", help="verify the ten-variety lattice report")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--dot-out")
    _add_common(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (TermSyntaxError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, (AxiomError, ClassificationError, LatticeIncompleteError)):
            print(f"FINDING: {exc}", file=sys.stderr)
            return FALSIFIED
        # str() of a KeyError is the repr of its key; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
