from fractions import Fraction

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from cycdaha.exprparse import ParseError, parse_expr, parse_gen
from cycdaha.ops import Gen, OperatorExpr


def test_generator_tokens():
    assert parse_gen("T1") == Gen("T", 1)
    assert parse_gen("T2^-1") == Gen("T^-1", 2)
    assert parse_gen("X10") == Gen("X", 10)
    assert parse_gen("Y1^-1") == Gen("Y^-1", 1)
    assert parse_gen("y3") == Gen("y", 3)
    assert parse_gen("s2") == Gen("s", 2)
    assert parse_gen("s0") == Gen("s0")
    assert parse_gen("pi") == Gen("pi")
    assert parse_gen("pi^-1") == Gen("pi^-1")
    assert parse_gen("pi-") == Gen("pi-")
    assert parse_gen("D1") == Gen("D", 1)
    assert parse_gen("D1^(l)") == Gen("Dl", 1)
    assert parse_gen("Dtrig2") == Gen("Dtrig", 2)
    assert parse_gen("DO1") == Gen("DO", 1)
    assert parse_gen("sigma1^-1") == Gen("sigma^-1", 1)
    assert parse_gen("tau2") == Gen("tau", 2)
    assert parse_gen("omega^-1") == Gen("omega^-1")


def test_bare_word():
    e = parse_expr("T1 X2 Y1^-1")
    assert e == OperatorExpr.word([Gen("T", 1), Gen("X", 2), Gen("Y^-1", 1)])


def test_linear_combination():
    e = parse_expr("(3/2)*[T1 T2] + [X1]")
    expect = OperatorExpr.word([Gen("T", 1), Gen("T", 2)], Fraction(3, 2)) + (
        OperatorExpr.gen("X", 1)
    )
    assert e == expect


def test_subtraction_and_negative_scalars():
    e = parse_expr("[X1] - 2*[Y1]")
    expect = OperatorExpr.gen("X", 1) - OperatorExpr.word([Gen("Y", 1)], 2)
    assert e == expect
    e2 = parse_expr("-[T1] + (1/3)*[T1]")
    assert e2 == OperatorExpr.word([Gen("T", 1)], Fraction(-2, 3))


def test_bare_scalar_term():
    e = parse_expr("[X1 D1^(l)] + 1")
    expect = OperatorExpr.word([Gen("X", 1), Gen("Dl", 1)]) + OperatorExpr.one()
    assert e == expect


def test_evaluation_of_parsed_expression():
    from cycdaha.algebra import sample_rep

    rep = sample_rep("daha", 2, seed=1)
    tb = rep.params["tb"]
    lhs = parse_expr("T1 T1")
    rhs = parse_expr("[T1]") * (tb - 1 / tb) + OperatorExpr.one()
    p = rep.monomial((1, -2))
    assert rep.apply(lhs, p) == rep.apply(rhs, p)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("[T1")
    with pytest.raises(ParseError):
        parse_expr("Q5")
    with pytest.raises(ParseError):
        parse_expr("T1 + +")
    with pytest.raises(ParseError):
        parse_gen("tau1^-1")
    with pytest.raises(ParseError):
        parse_gen("X0")


def test_minus_is_an_operator_and_star_needs_a_factor():
    # a '-' before a number is the operator, never the number's sign
    assert parse_expr("[X1]-2*[X2]") == parse_expr("[X1] - 2*[X2]")
    assert parse_expr("X1 -3*X2") == parse_expr("X1 - 3*X2")
    # a '*' with no word after it is an error, not a scalar term
    for text in ("2*", "(3/2)*", "2 * + X1", "2*-X1"):
        with pytest.raises(ParseError):
            parse_expr(text)


def test_a_zero_denominator_is_a_parse_error():
    for text in ("1/0 + X1", "(3/0)*X1", "X1 - (-2/0)", "0/0"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_expr(text)
    assert parse_expr("(0/3)*X1 + X2") == parse_expr("X2")


# (token, generator) pairs the property below renders words from
GENS = [("T1", Gen("T", 1)), ("T2^-1", Gen("T^-1", 2)), ("X2", Gen("X", 2)),
        ("X1^-1", Gen("X^-1", 1)), ("Y1^-1", Gen("Y^-1", 1)), ("y3", Gen("y", 3)),
        ("s0", Gen("s0")), ("s2", Gen("s", 2)), ("pi", Gen("pi")), ("pi^-1", Gen("pi^-1")),
        ("pi-", Gen("pi-")), ("D1", Gen("D", 1)), ("D2^(l)", Gen("Dl", 2)),
        ("Dtrig2", Gen("Dtrig", 2)), ("DO1", Gen("DO", 1)), ("sigma1^-1", Gen("sigma^-1", 1)),
        ("tau2", Gen("tau", 2)), ("omega", Gen("omega")), ("omega^-1", Gen("omega^-1"))]


@st.composite
def rendered_exprs(draw):
    """(text, expr): a random OperatorExpr and its rendering in the documented
    syntax, with bare and parenthesized scalars and random spacing."""
    space = st.sampled_from(["", " ", "  "])
    tight = st.sampled_from(["", " "])
    text, expr = "", OperatorExpr.zero()
    for k in range(draw(st.integers(1, 4))):
        c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4)))
        pairs = draw(st.lists(st.sampled_from(GENS), max_size=3))
        gens = [g for _, g in pairs]
        expr = expr + OperatorExpr.word(gens, c)
        signed = draw(st.booleans())  # a parenthesized scalar carries the sign
        op = "+" if signed or c > 0 else "-"
        if text.endswith("pi"):  # "pi-" is a token of its own
            text += " "
        text += draw(tight) + ("" if k == 0 and op == "+" else op) + draw(tight)
        if signed:
            text += f"({draw(space)}{c}{draw(space)})"
        elif abs(c) != 1 or not gens or draw(st.booleans()):  # else a unit is left out
            text += str(abs(c))
        if gens:
            if text[-1:] not in ("", "+", "-", " "):
                text += draw(st.sampled_from(["*", " * ", "* ", " ", ""]))
            words = " ".join(t for t, _ in pairs)
            text += f"[{draw(space)}{words}{draw(space)}]" if draw(st.booleans()) else words
    return text, expr


@seed(20160)
@given(rendered_exprs())
def test_rendered_expressions_parse_back(case):
    text, expr = case
    assert parse_expr(text) == expr, text


def test_every_token_names_a_table_tag():
    """Each generator token the grammar accepts (every tag pattern with index
    0, 1, 2 and each suffix, and the bare tokens) names a tag that some
    family's generator table defines."""
    import re

    from cycdaha import exprparse
    from cycdaha.ops import GENERATORS

    tags = set().union(*GENERATORS.values())
    heads = re.search(r"\(\?P<tag>([^)]*)\)", exprparse._GEN_RE.pattern).group(1).split("|")
    candidates = [f"{h}{i}{s}" for h in heads for i in (0, 1, 2) for s in ("", "^-1", "^(l)")]
    accepted = []
    for token in candidates + list(exprparse._BARE_TOKENS):
        try:
            accepted.append((token, parse_gen(token)))
        except ParseError:
            continue
    for token, g in accepted:
        assert g.tag in tags, token
    # conversely every tag but s_ij (built in code, never typed) has a token
    assert {g.tag for _, g in accepted} == tags - {"sij"}
