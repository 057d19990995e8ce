from fractions import Fraction

import pytest

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
