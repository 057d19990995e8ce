"""Text syntax for operator expressions, used by the CLI.

Grammar (whitespace-separated generator tokens inside words):

    expr    := term (('+' | '-') term)*
    term    := ['-'] scalar                    scalar term
             | ['-'] [scalar ['*']] factor     word term
    factor  := '[' token* ']'        bracketed word
             | token+                bare word
    scalar  := integer | rational 'p/q' | '(' ['-'] integer-or-p/q ')'

A '-' is always an operator, so "[X1]-2*[X2]" reads as "[X1] - 2*[X2]";
a '*' must be followed by a factor, and a signed scalar goes in
parentheses: "(-2)*[X2]".

Generator tokens:

    T1  T1^-1  X2  X2^-1  Y1  Y1^-1  y3  s2  s0  pi  pi^-1  pi-
    D1 (rational Dunkl)   Dtrig2   DO1   sigma1  sigma1^-1
    D1^(l) (q-deformed Dunkl)      tau2   omega  omega^-1

Example:  "(3/2)*[T1 T2] + [X1] - 2*[Y1^-1]"
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ops import Gen, OperatorExpr


class ParseError(ValueError):
    pass


# the indexed generator heads, each with the one suffix it may carry
_HEADS = {"T": "^-1", "X": "^-1", "Y": "^-1", "y": "", "s": "", "sigma": "^-1",
          "Dtrig": "", "DO": "", "D": "^(l)", "tau": ""}

_GEN_RE = re.compile(
    rf"^(?P<tag>{'|'.join(_HEADS)})(?P<idx>\d+)(?P<suffix>\^-1|\^\(l\))?$"
)


# tokens without an index, each its own tag
_BARE_TOKENS = ("pi", "pi^-1", "pi-", "omega", "omega^-1")

_GEN_TOKEN = "|".join([rf"{h}\d+(?:{re.escape(s)})?" for h, s in _HEADS.items()]
                      + [re.escape(t) for t in sorted(_BARE_TOKENS, key=len, reverse=True)])

# one token after optional whitespace: a generator (the longest bare token
# first), an unsigned or parenthesized scalar, an operator, or a character
# outside the grammar
_TOKEN_RE = re.compile(rf"\s*(?:(?P<gen>{_GEN_TOKEN})|(?P<num>\d+(?:/\d+)?|\(\s*-?\d+(?:/\d+)?\s*\))"
                       r"|(?P<op>[-+*\[\]])|(?P<bad>\S))")


def _tokenize(text):
    """(kind, text) pairs, where kind is "gen", "num" or the operator itself."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r} at position {m.start(kind)}")
        tokens.append((m.group(kind) if kind == "op" else kind, m.group(kind)))
    return tokens


def parse_gen(token):
    """Parse a single generator token into a Gen."""
    if token in _BARE_TOKENS:
        return Gen(token)
    m = _GEN_RE.match(token)
    if not m:
        raise ParseError(f"bad generator token {token!r}")
    tag, idx, suffix = m.group("tag"), int(m.group("idx")), m.group("suffix")
    if tag == "s" and idx == 0:
        return Gen("s0")
    if idx == 0:
        raise ParseError(f"generator indices start at 1, got {token!r}")
    if suffix and suffix != _HEADS[tag]:
        raise ParseError(f"{tag} has no inverse token" if suffix == "^-1"
                         else f"bad token {token!r}")
    if suffix == "^(l)":
        return Gen("Dl", idx)
    return Gen(tag + (suffix or ""), idx)


def generator_tokens(text):
    """The generator tokens of an expression, in order."""
    return [value for kind, value in _tokenize(text) if kind == "gen"]


def _factor(tokens, pos):
    """The generators of the word at tokens[pos], and the position after it."""
    kind, value = tokens[pos]
    if kind not in ("[", "gen"):
        raise ParseError(f"expected word, found {value!r}")
    start = end = pos + (kind == "[")
    while tokens[end][0] == "gen":
        end += 1
    gens = [parse_gen(v) for _, v in tokens[start:end]]
    if kind == "[":
        if tokens[end][0] != "]":
            raise ParseError("expected generator token inside [...]")
        end += 1
    return gens, end


def _number(token):
    """The scalar of a number token, such as 3, 3/2 or (-3/2); a zero
    denominator raises ParseError."""
    try:
        return Fraction(token.strip("() \t"))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token.strip()!r}") from None


def parse_expr(text):
    """Parse the documented operator-expression syntax into an OperatorExpr."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    tokens.append((None, None))  # end marker: a look-ahead never runs off the list
    out, pos, sign = OperatorExpr.zero(), 0, 1
    while True:
        coeff, gens = Fraction(sign), ()
        if tokens[pos][0] == "-":
            coeff, pos = -coeff, pos + 1
        if tokens[pos][0] != "num":
            gens, pos = _factor(tokens, pos)
        else:
            coeff *= _number(tokens[pos][1])
            pos += 1
            if tokens[pos][0] == "*":
                gens, pos = _factor(tokens, pos + 1)
            elif tokens[pos][0] in ("[", "gen"):
                gens, pos = _factor(tokens, pos)
        out = out + OperatorExpr.word(gens, coeff)
        if tokens[pos][0] not in ("+", "-"):
            break
        sign = 1 if tokens[pos][0] == "+" else -1
        pos += 1
    if pos != len(tokens) - 1:
        raise ParseError(f"trailing tokens at position {pos}")
    return out
