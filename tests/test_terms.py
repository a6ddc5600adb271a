"""Parser, normal forms, substitution, decomposition."""

import random

import pytest

from aisemiring.terms import (
    TermNF,
    TermSyntaxError,
    UnboundVariableError,
    decompose_identity,
    parse_identities,
    parse_identity,
    substitute,
    term_of,
)


def words(t):
    return set(t.words)


def test_parse_simple_identity():
    ident = parse_identity("xy ≈ xz")
    assert words(ident.lhs) == {("x", "y")}
    assert words(ident.rhs) == {("x", "z")}


def test_separator_variants():
    for sep in ("=", "==", "≈"):
        ident = parse_identity(f"xy {sep} xz")
        assert words(ident.lhs) == {("x", "y")}


def test_distributivity_normalizes_away():
    ident = parse_identity("x(y+z) = xy+xz")
    assert ident.lhs == ident.rhs
    assert ident.trivial
    assert words(ident.lhs) == {("x", "y"), ("x", "z")}


def test_numbered_variables_split():
    ident = parse_identity("x1x2 = y1y2")
    assert words(ident.lhs) == {("x1", "x2")}
    assert words(ident.rhs) == {("y1", "y2")}


def test_mixed_sum():
    ident = parse_identity("x+yy ≈ xx+yy")
    assert words(ident.lhs) == {("x",), ("y", "y")}
    assert words(ident.rhs) == {("x", "x"), ("y", "y")}


def test_star_and_juxtaposition_agree():
    assert term_of("x*y*x") == term_of("xyx")
    assert term_of("(x+y)(y+z)") == term_of("xy+xz+yy+yz")


def test_idempotent_sum_collapses():
    assert term_of("x + x") == term_of("x")
    assert len(term_of("x+y+x").words) == 2


def test_caret_not_in_grammar():
    with pytest.raises(TermSyntaxError):
        parse_identity("x+y^2 = x")


def test_syntax_errors_carry_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_identity("xy = ")
    assert "right-hand" in str(err.value)
    with pytest.raises(TermSyntaxError):
        parse_identity("xy")
    with pytest.raises(TermSyntaxError):
        parse_identity("x = y = z")
    with pytest.raises(TermSyntaxError):
        parse_identity("(x + y = z")
    with pytest.raises(TermSyntaxError):
        parse_identity("xY = z")


@pytest.mark.parametrize(
    ("text", "column"),
    [("x = y +", 7), ("x + = y", 3), ("x = y*", 6)],
)
def test_input_ending_inside_a_side_points_past_its_last_token(text, column):
    # a side that ends where a primary is due points one past its last
    # token: for the left side, that is where the separator is
    with pytest.raises(TermSyntaxError) as err:
        parse_identity(text)
    assert str(err.value) == f"unexpected end of input (column {column})"
    assert err.value.position == column


def test_empty_term_is_a_syntax_error_at_column_0():
    # term_of passes an empty token list on; parse_identity never does
    for text in ("", "   "):
        with pytest.raises(TermSyntaxError) as err:
            term_of(text)
        assert str(err.value) == "unexpected end of input (column 0)"


def test_words_sorted_by_length_then_lex():
    t = term_of("yyy + x + zz")
    assert t.words == (("x",), ("z", "z"), ("y", "y", "y"))


def _random_term(rng, max_words=4, max_len=4, variables="wxyz"):
    n = rng.randint(1, max_words)
    ws = set()
    while len(ws) < n:
        length = rng.randint(1, max_len)
        ws.add(tuple(rng.choice(variables) for _ in range(length)))
    return TermNF(ws)


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        t = _random_term(rng)
        assert term_of(str(t)) == t


def test_normalization_idempotent():
    rng = random.Random(8)
    for _ in range(100):
        t = _random_term(rng)
        assert TermNF(t.words) == t


def test_substitute_rename():
    t = term_of("xy")
    out = substitute(t, {"x": term_of("x"), "y": term_of("z")})
    assert out == term_of("xz")


def test_substitute_distributes():
    t = term_of("xy")
    out = substitute(t, {"x": term_of("x"), "y": term_of("y+z")})
    assert out == term_of("xy+xz")


def test_substitute_collapses_duplicates():
    t = term_of("x+yy")
    out = substitute(t, {"x": term_of("yy"), "y": term_of("y")})
    assert out == term_of("yy")


def test_substitute_unbound():
    with pytest.raises(UnboundVariableError):
        substitute(term_of("xy"), {"x": term_of("x")})


def test_substitute_union_homomorphic():
    rng = random.Random(9)
    for _ in range(100):
        a = _random_term(rng, max_words=3)
        b = _random_term(rng, max_words=3)
        sigma = {v: _random_term(rng, max_words=2, max_len=2) for v in "wxyz"}
        assert substitute(a + b, sigma) == substitute(a, sigma) + substitute(b, sigma)


def test_decompose_simple():
    pieces = decompose_identity(parse_identity("xy = xz"))
    got = [(str(p.identity), p.trivial) for p in pieces]
    # summands print in sorted order, so xz + xy renders as xy+xz
    assert got == [("xy = xy+xz", False), ("xz = xy+xz", False)]


def test_decompose_trivial_identity():
    pieces = decompose_identity(parse_identity("x = x"))
    assert all(p.trivial for p in pieces)


def test_decompose_mixed():
    pieces = decompose_identity(parse_identity("x+yy = xx+yy"))
    assert len(pieces) == 4
    assert sum(p.trivial for p in pieces) == 2
    nontrivial = [str(p.identity) for p in pieces if not p.trivial]
    assert nontrivial == ["x+yy = x+xx+yy", "xx+yy = x+xx+yy"]


def test_identities_file_parsing():
    text = "# comment\nxy = xz\n\nx = x+xy  # inline\n"
    idents = parse_identities(text)
    assert [str(i) for i in idents] == ["xy = xz", "x = x+xy"]


def test_mirror_and_swap():
    ident = parse_identity("xy = xz")
    assert str(ident.mirror()) == "yx = zx"
    assert str(ident.swapped()) == "xz = xy"
    assert ident.mirror().mirror() == ident


def test_term_immutable_and_hashable():
    t = term_of("x+y")
    with pytest.raises(AttributeError):
        t.words = ()
    assert hash(t) == hash(term_of("y+x"))
