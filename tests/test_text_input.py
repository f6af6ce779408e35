"""The shared lexer and the three text parsers built on it.

Every parser must either return or raise a ``CharcalcError``; nothing a user
can type may surface as a raw ``ValueError`` or ``RecursionError``.  Fuzzed
bundle trees are only parsed, never evaluated: an ``E<m>`` token can ask for
any rank.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcalc.bundlecalc import Universal, parse_bundle_expr
from charcalc.exactring import (
    CharcalcError,
    GradedPoly,
    GradedRing,
    InvalidInputError,
    parse_int,
    parse_poly,
    parse_rational,
    parse_signed_int,
    tokenize,
)

RING = GradedRing(("y", "y0", "E4"), (2, 2, 4))
LONG = "9" * 5000

PIECES = [
    "0", "1", "2", "9", "²", "٣", LONG,
    "y", "y0", "E", "E4", "triv", "dual", "sum", "tensor", "lambda2", "_",
    "+", "-", "*", "^", "/", ".", "e", "(", ")", ",", " ",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
def test_parsers_return_or_raise_charcalc_error(text):
    for parse in (lambda t: parse_poly(RING, t), parse_bundle_expr, parse_rational):
        try:
            parse(text)
        except CharcalcError:
            pass


def test_tokenize_kinds():
    assert tokenize(" 2*y1^2 - 1/3*y_3 ") == ["2", "*", "y1", "^", "2", "-", "1/3", "*", "y_3"]
    assert tokenize("sum(E4, triv(2))") == ["sum", "(", "E4", ",", "triv", "(", "2", ")", ")"]
    # a superscript digit is not a decimal digit, so it lexes as a name
    assert tokenize("y^²") == ["y", "^", "²"]
    assert tokenize("") == []


def test_parse_int():
    assert parse_int("12") == 12
    assert parse_int("007") == 7
    # "٣" is a decimal digit in another script, which int() would read as 3
    for bad in ("", "-1", "+1", "²", "٣", "1_0", "1.0", "x", LONG):
        with pytest.raises(InvalidInputError):
            parse_int(bad)


def test_parse_signed_int():
    assert parse_signed_int("12") == 12
    assert parse_signed_int("-3") == -3
    assert parse_signed_int("+3") == 3
    assert parse_signed_int("-0") == 0
    for bad in ("", "-", "+-1", "--1", " 1", "-٣", "²", "1_0", "-" + LONG):
        with pytest.raises(InvalidInputError):
            parse_signed_int(bad)


@pytest.mark.parametrize("text", ["y^²", "y^", f"y^{LONG}", f"{LONG}*y", f"1/{LONG}", "y^-1", "(y)"])
def test_parse_poly_rejects(text):
    with pytest.raises(InvalidInputError):
        parse_poly(RING, text)


@pytest.mark.parametrize(
    "text",
    ["E²", "triv(²)", f"E{LONG}", f"triv({LONG})", "triv(3/4)", "E", "Efoo",
     "dual(E2,E3)", "sum(E2,)", "(", "dual(" * 5000 + "E1" + ")" * 5000],
)
def test_parse_bundle_expr_rejects(text):
    with pytest.raises(InvalidInputError):
        parse_bundle_expr(text)


def test_parse_bundle_expr_tokens_and_sharing():
    expr = parse_bundle_expr(" tensor( E2 , sum(E2, triv( 3 )) ) ")
    assert expr.left is expr.right.left
    assert isinstance(expr.left, Universal) and expr.left.m == 2
    assert expr.right.right.r == 3
    # distinct spellings are distinct leaves, as before
    expr = parse_bundle_expr("sum(E2,E02)")
    assert expr.left is not expr.right and expr.right.m == 2


def test_parse_rational_accepts_only_p_and_p_over_q():
    assert parse_rational("3") == 3
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+6/4") == Fraction(3, 2)
    assert parse_rational("0/5") == 0
    for bad in ("1.5", "1e3", "1_000", ".5", "1e4000000", "1e99999999", "3/-4",
                "- 3", "3 / 4", "1/0", "", "/2", "1/", "++1", LONG):
        with pytest.raises(InvalidInputError):
            parse_rational(bad)


def test_parse_poly_adds_its_terms_in_one_pass(monkeypatch):
    """Oracle: the sum of the terms parsed one by one, in the same term order,
    cancellations included; the parse itself adds no polynomials."""
    rng = random.Random(7)
    pieces = ["y", "y0", "E4", "y^2", "y*y0", "2*y0", "1/3*E4", "3", "0", "0*y", "y0*y"]
    for _ in range(200):
        terms = [rng.choice("+-") + " " + rng.choice(pieces) for _ in range(rng.randint(1, 9))]
        want = RING.zero()
        for term in terms:
            want = want + parse_poly(RING, term)
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "__add__", None)
            got = parse_poly(RING, " ".join(terms))
        assert list(got.terms.items()) == list(want.terms.items()), terms
