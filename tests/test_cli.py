"""Command-line surface: subcommands, exit statuses, formats."""

import ast
import hashlib
import inspect
import json
import os

import pytest

from aisemiring import cli
from aisemiring.cli import main
from aisemiring.derive import derive_bounded
from aisemiring.fileformat import load_one
from aisemiring.satisfaction import satisfies
from aisemiring.variety import ClassificationError, free_algebra, member


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "builtin:S58", "--identity", "xy=xz")
    assert code == 0
    assert "holds" in out


def test_check_fails_with_counterexample(capsys):
    code, out, _ = run(
        capsys, "check", "--algebra", "builtin:L2", "--identity", "xx = xx + yy"
    )
    assert code == 1
    assert "fails at x=0, y=1" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--algebra",
        "builtin:S58",
        "--identity",
        "xy=xz",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["results"][0]["holds"] is True


def test_check_identities_file(tmp_path, capsys):
    path = tmp_path / "ids.txt"
    path.write_text("# basis of S58\nxy = xz\nxx = xx + x\n")
    code, out, _ = run(
        capsys, "check", "--algebra", "S58", "--identities-file", str(path)
    )
    assert code == 0
    assert out.count("holds") == 2


def test_verify_catalog(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "S4_475: ok" in out


def test_verify_bad_algebra_file(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("order 2\nelements a b\nadd\nb b\nb b\nmul\na a\na a\n")
    code, out, _ = run(capsys, "verify", "--algebra", str(path))
    assert code == 1
    assert "FAILS" in out


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--count-only")
    assert code == 0
    assert "61 algebras" in out


def test_enumerate_out_dir_round_trips(tmp_path, capsys):
    out_dir = tmp_path / "algs"
    code, out, _ = run(
        capsys,
        "enumerate",
        "--order",
        "2",
        "--out-dir",
        str(out_dir),
    )
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 6
    for f in files:
        a = load_one((out_dir / f).read_text())
        assert a.order == 2


def test_enumerate_row_constant_class(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "3", "--class", "row-constant", "--count-only"
    )
    assert code == 0
    assert "12 algebras" in out


def test_count_restricted_small(capsys):
    code, out, _ = run(capsys, "count-restricted", "--max-order", "2")
    assert code == 0
    assert "total including order 1: 5" in out
    assert "total excluding order 1: 4" in out


def test_count_restricted_full_reports_both_conventions(capsys):
    code, out, _ = run(capsys, "count-restricted", "--max-order", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["total_including_order_1"] == 792
    assert payload["total_excluding_order_1"] == 791
    # the tool records which convention matches 789; neither does, so the
    # claim is reported as falsified via the exit status
    assert payload["convention_matching_789"] is None
    assert code == 1


def test_member_not_a_member(capsys):
    code, out, _ = run(
        capsys, "member", "--algebra", "builtin:R2", "--variety", "builtin:S4_475"
    )
    assert code == 0
    assert "not a member" in out
    assert "separating identity" in out


def test_member_positive(capsys):
    code, out, _ = run(
        capsys, "member", "--algebra", "builtin:L2", "--variety", "builtin:S4_475"
    )
    assert code == 0
    assert "is a member" in out


def test_free(capsys):
    code, out, _ = run(
        capsys, "free", "--variety", "builtin:S4_475", "--rank", "1"
    )
    assert code == 0
    assert "order 3" in out
    assert "x1+x1x1" in out


def test_compare(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--left",
        "builtin:S4_475",
        "--right",
        "builtin:S58,builtin:N2",
    )
    assert code == 0
    assert "equal" in out


def test_lattice_text_and_dot(tmp_path, capsys):
    dot_path = tmp_path / "lat.dot"
    code, out, _ = run(capsys, "lattice", "--dot-out", str(dot_path))
    assert code == 0
    assert "order: 10" in out
    dot = dot_path.read_text()
    assert '"V(S58)" -> "R";' in dot
    code, out, _ = run(capsys, "lattice", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


# sha256 of stdout of the lattice and figure1 reports, recorded before
# both commands shared one renderer
LATTICE_REPORTS = {
    ("lattice", "text"): "fc8c2d3b35ae259c1472ca8315f94eff69892a203d6fe53dd653edfaaea0f935",
    ("lattice", "json"): "e902be8af644a15065581f92145f1486bc1cb4c72cc9257cada68d5bbf5bf483",
    ("lattice", "dot"): "915d6ff0c6a100addb55e1e4df063a90c46d68c9bfc925956841ff6359332f09",
    ("figure1", "text"): "59194770af45f877b40d24ec513889ee6163e32142316a975bb244d0f280722b",
    ("figure1", "json"): "d35fea86bc4eeed6880039fd0e139ee4e54231a29683420311531020c57a3ebb",
    ("figure1", "dot"): "7b1085bfbd492214806c51e96e1eefa7cc830a61adf6bda9e52574a3899f9d2f",
    ("figure1 --dual", "text"): "0e9a90492f153dc849c1b36e77d11599608aa14afea504a41dea4cc06801070c",
    ("figure1 --dual", "json"): "3ec352c835362385040ef9168597baff744aed1c631ab1c13d167bc8acb03e6a",
    ("figure1 --dual", "dot"): "0096c97fc2dc43bea4f10047d88bab1bde4cd852e6eee4b7fa3cb95243431bd2",
}


@pytest.mark.parametrize(
    "command, fmt", list(LATTICE_REPORTS), ids=[" ".join(k) for k in LATTICE_REPORTS]
)
def test_lattice_reports_are_pinned(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_REPORTS[command, fmt]


@pytest.mark.parametrize("command", ["lattice", "figure1"])
def test_dot_out_with_dot_format_writes_the_printed_dot(tmp_path, capsys, command):
    path = tmp_path / "out.dot"
    code, out, _ = run(capsys, command, "--format", "dot", "--dot-out", str(path))
    assert code == 0
    assert out.startswith("digraph")
    assert path.read_text() == out


def test_cli_imports_no_private_variety_name():
    names = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.ImportFrom) and node.module == "variety"
        for alias in node.names
    ]
    assert "member" in names
    assert not [name for name in names if name.startswith("_")]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "builtin:S58")
    assert code == 0
    assert "V(S58)" in out


def test_classify_order_6_exceeds_budget(tmp_path, capsys):
    from aisemiring import catalog
    from aisemiring.algebra import direct_product
    from aisemiring.enumeration import enumerate_row_constant
    from aisemiring.fileformat import dumps

    a = direct_product(catalog.get("L2"), enumerate_row_constant(3).items[-1])
    path = tmp_path / "order6.alg"
    path.write_text(dumps(a))
    code, out, err = run(capsys, "classify", "--algebra", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("resource budget exceeded: ")


def test_derive_text(capsys):
    code, out, _ = run(
        capsys, "derive", "--basis", "xy = xz", "--target", "xy = xx"
    )
    assert code == 0
    assert "chain:" in out


def test_derive_json(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--basis",
        "xx = xx + yy; xy = xz",
        "--target",
        "x1x2 = y1y2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["target"] == "x1x2 = y1y2"


def test_derive_not_found(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--basis",
        "xy = x",
        "--target",
        "xy = y",
        "--depth",
        "3",
        "--node-budget",
        "4000",
    )
    assert code == 1
    assert "not derived" in out


def test_derive_budget_exhaustion_is_resource_status(capsys):
    code, out, err = run(
        capsys,
        "derive",
        "--basis",
        "xx = xx + yy; xy = xz",
        "--target",
        "x1x2 = y1y2",
        "--node-budget",
        "3",
    )
    assert code == 2
    assert "budget exhausted" in err
    assert out == ""


def test_derive_basis_file_prints_what_basis_prints(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    path.write_text("xx = xx + yy\nxy = xz\n")
    target = ("--target", "x1x2 = y1y2")
    inline = run(capsys, "derive", "--basis", "xx = xx + yy; xy = xz", *target)
    assert inline[0] == 0
    assert run(capsys, "derive", "--basis-file", str(path), *target) == inline


def test_lattice_of_listed_specs(capsys):
    code, out, err = run(capsys, "lattice", "--specs", "trivial", "L2", "N2", "L2,N2")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["order: 4", "distributive: True", "atoms: L2, N2"]
    assert "  L2 -> L2,N2" in out.splitlines()
    # without their join, L2 and N2 form no lattice
    assert run(capsys, "lattice", "--specs", "L2", "N2") == (
        1,
        "",
        "lattice incomplete: join of 'L2' and 'N2' is not among the listed specs\n",
    )


def test_figure1_passes(capsys):
    code, out, _ = run(capsys, "figure1")
    assert code == 0
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_figure1_dual_passes(capsys):
    code, out, _ = run(capsys, "figure1", "--dual")
    assert code == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 6
    assert "PASS atoms are exactly V(R2), V(N2), V(T2) (V(N2), V(R2), V(T2))" in lines


def test_figure1_top_claims_read_the_top_by_its_label():
    """The top is R by label, so a lattice whose leq denies V(S58) <= R
    makes that claim fail rather than moving the top elsewhere."""
    from dataclasses import replace

    from aisemiring.variety import build_lattice, standard_subvariety_specs

    lat = build_lattice(standard_subvariety_specs())
    labels = lat.labels()
    s58, top = labels.index("V(S58)"), labels.index("R")
    leq = [list(row) for row in lat.leq]
    leq[s58][top] = False
    claims = cli._figure1_claims(
        replace(lat, leq=tuple(map(tuple, leq))),
        cli.FIGURE1_EDGES,
        cli.FIGURE1_ATOMS,
        False,
    )
    verdicts = {name: ok for name, ok, _ in claims}
    assert verdicts["S58 is in the top variety"] is False
    assert verdicts["N2 is in the top variety"] is True


def test_figure1_dot(tmp_path, capsys):
    dot_path = tmp_path / "fig.dot"
    code, out, _ = run(capsys, "figure1", "--dot-out", str(dot_path))
    assert code == 0
    assert '"V(L2,N2,T2)" -> "R";' in dot_path.read_text()


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--algebra", "builtin:nope", "--identity", "x=x")
    assert code == 2
    assert "nope" in err


def test_unknown_builtin_message_is_printed_unquoted(capsys):
    code, out, err = run(capsys, "classify", "--algebra", "builtin:NOPE")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown builtin algebra 'NOPE'; known: trivial, ")
    assert '"' not in err


def test_bad_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--algebra", "builtin:L2", "--identity", "x+y^2=x")
    assert code == 2


def test_enumerate_budget_exhaustion_is_resource_status(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "4", "--count-only", "--node-budget", "10"
    )
    assert code == 2
    assert "budget exhausted" in out


@pytest.mark.parametrize("klass", ["row-constant", "column-constant", "both"])
def test_structural_classes_note_the_ignored_node_budget(capsys, klass):
    # stdout and the exit status are those of the run without the budget;
    # --workers gets the same note, but not at its default of 1
    argv = ("enumerate", "--order", "3", "--class", klass)
    code, out, err = run(capsys, *argv)
    assert err == ""
    note = "note: {} applies only to --class all; --class " + klass + " ignores it\n"
    assert run(capsys, *argv, "--node-budget", "1") == (code, out, note.format("--node-budget"))
    assert run(capsys, *argv, "--workers", "2") == (code, out, note.format("--workers"))
    assert run(capsys, *argv, "--workers", "1") == (code, out, "")


def test_workers_below_one_is_usage_error(capsys):
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--order", "3", "--workers", bad])
        assert exc.value.code == 2
        assert "argument --workers: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--order", "3", "--node-budget", "-3"),
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--node-budget", "-5"),
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--node-budget", "0"),
        # derive's other search bounds are checked the same way
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--depth", "0"),
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--depth", "-2"),
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--size-factor", "0"),
        ("derive", "--basis", "xy = xz", "--target", "xy = xx", "--size-factor", "-2"),
    ],
)
def test_node_budget_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be at least 1" in captured.err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("member", "--algebra", "L2", "--variety", "S4_475", "--cell-limit", "-3"),
         "argument --cell-limit: must be at least 1"),
        (("free", "--variety", "L2", "--rank", "2", "--cell-limit", "0"),
         "argument --cell-limit: must be at least 1"),
        (("check", "--algebra", "L2", "--identity", "x = x", "--budget", "0"),
         "argument --budget: must be at least 1"),
        (("check", "--algebra", "L2", "--identity", "x = x", "--budget", "-1"),
         "argument --budget: must be at least 1"),
        # the variety layer has one budget, --cell-limit
        (("member", "--algebra", "L2", "--variety", "S4_475", "--closure-limit", "10"),
         "unrecognized arguments: --closure-limit 10"),
        (("free", "--variety", "L2", "--rank", "2", "--closure-limit", "10"),
         "unrecognized arguments: --closure-limit 10"),
        (("enumerate", "--order", "3", "--node-budget", "abc"),
         "argument --node-budget: invalid int value: 'abc'"),
    ],
)
def test_bad_budget_flags_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--algebra", "builtin:S58", "--identity", "xy=xz"),
        ("classify", "--algebra", "builtin:L2"),
        ("member", "--algebra", "builtin:R2", "--variety", "builtin:S4_475"),
    ],
)
def test_dot_format_only_for_lattice_and_figure1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "dot"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'dot'" in capsys.readouterr().err


def test_parser_defaults_match_library_signatures():
    parser = cli.build_parser()
    cases = [
        (["check", "--algebra", "L2"], satisfies, ("budget",)),
        (["derive", "--target", "x = x"], derive_bounded,
         ("depth", "size_factor", "node_budget")),
        (["member", "--algebra", "L2", "--variety", "L2"], member, ("cell_limit",)),
        (["free", "--variety", "L2", "--rank", "1"], free_algebra, ("cell_limit",)),
    ]
    for argv, func, names in cases:
        args = parser.parse_args(argv)
        params = inspect.signature(func).parameters
        for name in names:
            assert getattr(args, name) == params[name].default, (argv[0], name)


def test_classify_finding_exits_1(capsys, monkeypatch):
    def unclassifiable(a):
        raise ClassificationError(f"{a.name} matches no listed variety", a)

    monkeypatch.setattr(cli, "classify_generated", unclassifiable)
    code, out, err = run(capsys, "classify", "--algebra", "builtin:S58")
    assert code == 1
    assert out == ""
    assert err == "FINDING: S58 matches no listed variety\n"
