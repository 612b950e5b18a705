"""Recursive-descent parser for polynomial expressions.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' NAT)?
    base   := RAT | VAR | '(' expr ')' | '-' base
    RAT    := INT ('/' POSINT)?

Expressions are expanded on the fly into canonical MultiPoly values over
exact rationals (converted once at the end when float mode is requested).
Errors carry the byte offset of the offending character.  Input past
MAX_NESTING or MAX_EXPONENT is refused with a ParseError, so that no
expression overflows the interpreter's stack or expands without end.
"""

from __future__ import annotations

from .errors import ParseError
from .poly import EXACT, FLOAT, MultiPoly

# Deepest run of nested '(' and unary '-' a base may open.  Each level
# takes four Python frames (expr, term, factor, base), well inside the
# interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# Largest exponent after '^'; a power is expanded by repeated products.
MAX_EXPONENT = 1000


class _Parser:
    def __init__(self, text, var_index):
        self.text = text
        self.pos = 0
        self.vars = var_index
        self.nvars = len(var_index)
        self.depth = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            exponent = self.nat()
            if exponent > MAX_EXPONENT:
                self.pos = start
                self.error(f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}")
            return base ** exponent
        return base

    def base(self):
        ch = self.peek()
        if ch in ("-", "(") and self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        if ch == "-":
            self.pos += 1
            self.depth += 1
            inner = -self.base()
            self.depth -= 1
            return inner
        if ch == "(":
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if ch.isdigit():
            return self.rational()
        if ch.isalpha() or ch == "_":
            return self.variable()
        self.error("expected a number, variable, '(' or '-'")

    def nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural-number exponent")
        return int(self.text[start:self.pos])

    def rational(self):
        num = self.nat()
        save = self.pos
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den_start = self.pos
            den = self.nat()
            if den == 0:
                self.pos = den_start
                self.error("zero denominator")
            from fractions import Fraction

            return MultiPoly.const(self.nvars, Fraction(num, den))
        self.pos = save
        return MultiPoly.const(self.nvars, num)

    def variable(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        idx = self.vars.get(name)
        if idx is None:
            self.pos = start
            self.error(f"unknown variable {name!r}")
        return MultiPoly.variable(self.nvars, idx)


def parse_poly(text, var_names, mode=EXACT):
    """Parse an expression into a canonical MultiPoly over the named variables."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    var_index = {name: i for i, name in enumerate(var_names)}
    if len(var_index) != len(var_names):
        raise ValueError("duplicate variable names")
    parser = _Parser(text, var_index)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error(f"unexpected character {text[parser.pos]!r}")
    if mode == FLOAT:
        return result.to_float()
    return result
