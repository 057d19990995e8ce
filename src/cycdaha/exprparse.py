"""Text syntax for operator expressions, used by the CLI.

Grammar (whitespace-separated generator tokens inside words):

    expr    := term (('+' | '-') term)*
    term    := [scalar '*'] factor
    factor  := '[' token+ ']'        bracketed word
             | token+                bare word (single-term expressions)
    scalar  := integer | rational 'p/q' | '(' rational ')'

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


_TOKEN_RE = re.compile(
    r"""
    (?P<lbrack>\[) | (?P<rbrack>\]) |
    (?P<plus>\+) | (?P<times>\*) |
    (?P<scalar_paren>\(\s*-?\d+(?:/\d+)?\s*\)) |
    (?P<gen>
        (?:T|X|Y)\d+(?:\^-1)? |
        y\d+ |
        s\d+ |
        sigma\d+(?:\^-1)? |
        Dtrig\d+ |
        DO\d+ |
        D\d+(?:\^\(l\))? |
        tau\d+ |
        pi(?:\^-1|-)? |
        omega(?:\^-1)?
    ) |
    (?P<rational>-?\d+(?:/\d+)?) |
    (?P<minus>-)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = m.lastgroup
        tokens.append((kind, m.group()))
        pos = m.end()
    return tokens


_GEN_RE = re.compile(
    r"^(?P<tag>T|X|Y|y|s|sigma|Dtrig|DO|D|tau)(?P<idx>\d+)(?P<suffix>\^-1|\^\(l\))?$"
)


# tokens without an index, each its own tag
_BARE_TOKENS = ("pi", "pi^-1", "pi-", "omega", "omega^-1")


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
    if suffix == "^-1":
        if tag not in ("T", "X", "Y", "sigma"):
            raise ParseError(f"{tag} has no inverse token")
        return Gen(tag + "^-1", idx)
    if suffix == "^(l)":
        if tag != "D":
            raise ParseError(f"bad token {token!r}")
        return Gen("Dl", idx)
    return Gen(tag, idx)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_expr(self):
        out = self.parse_term(sign=1)
        while True:
            kind, _ = self.peek()
            if kind == "plus":
                self.take()
                out = out + self.parse_term(sign=1)
            elif kind == "minus":
                self.take()
                out = out + self.parse_term(sign=-1)
            else:
                break
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing tokens at position {self.pos}")
        return out

    def parse_term(self, sign):
        coeff = Fraction(sign)
        kind, value = self.peek()
        if kind == "minus":
            self.take()
            coeff = -coeff
            kind, value = self.peek()
        if kind in ("rational", "scalar_paren"):
            self.take()
            text = value.strip("() \t")
            coeff *= Fraction(text)
            kind, _ = self.peek()
            if kind == "times":
                self.take()
            kind, value = self.peek()
            if kind not in ("lbrack", "gen"):
                # bare scalar term
                return OperatorExpr.scalar(coeff)
        word = self.parse_word()
        return OperatorExpr.word(word, coeff)

    def parse_word(self):
        kind, value = self.peek()
        gens = []
        if kind == "lbrack":
            self.take()
            while True:
                kind, value = self.peek()
                if kind == "rbrack":
                    self.take()
                    break
                if kind != "gen":
                    raise ParseError("expected generator token inside [...]")
                self.take()
                gens.append(parse_gen(value))
            return gens
        if kind != "gen":
            raise ParseError(f"expected word, found {value!r}")
        while True:
            kind, value = self.peek()
            if kind != "gen":
                break
            self.take()
            gens.append(parse_gen(value))
        return gens


def generator_tokens(text):
    """The generator tokens of an expression, in order."""
    return [value for kind, value in _tokenize(text) if kind == "gen"]


def parse_expr(text):
    """Parse the documented operator-expression syntax into an OperatorExpr."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens).parse_expr()
