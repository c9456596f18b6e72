"""The token-list parser and the fold that liftlab.expr used before it
lexed each text with one regex call, kept as the reference the parser is
tested against: the same grammar and error messages, read from a list
of (kind, lexeme, position) tokens made by one regex match per token,
with every fold through folded.  Build with

    b = ReferenceBuilder(); slot = parse(b, text, n)

and compare b's columns with those of an expr._Builder after
expr._parse(builder, text, n).  Kept as it was, it raises a bare
ValueError on an exponent of more than 4,300 digits, which expr reads.
"""

import math
import re

from liftlab.expr import (ADD, CONST, DIV, FIRST, MAX_NESTING, MUL, NEG, POW, SECOND, ParseError,
                          _Builder, _FUNCTIONS, folded)


class ReferenceBuilder(_Builder):
    """An expr._Builder whose fold takes every operand through folded."""

    __slots__ = ()

    def fold(self, op: int, a: int, b: int, k: int = 0) -> int:
        ops, args_a, consts = self.ops, self.args_a, self.consts
        if op == NEG and ops[a] == NEG:
            return args_a[a]
        ca = consts[args_a[a]] if ops[a] == CONST else None
        cb = consts[args_a[b]] if ops[b] == CONST else None
        r = None if ca is None and cb is None and op != POW else folded(op, ca, cb, k)
        if r is None:
            if op == POW:
                return self.power(a, k)
            return self._slot((a << 32 | b) << 4 | op, op, a, b)
        if r is FIRST or r is SECOND:
            return a if r is FIRST else b
        if not math.isfinite(r):
            raise OverflowError("constant out of float range")
        return self.const(r)


# One token after optional whitespace: a number (ASCII digits and dots,
# then an exponent only when digits follow it), a name, an operator, or
# any other character, which is an error; nothing at the end of the text.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.))?",
    re.S,
)


def _tokens(text: str) -> list:
    """The (kind, lexeme, position) tokens of text, the last of kind
    "end".  A bad character or a malformed number is kept as an "error"
    token whose lexeme is the message, raised only when the parser
    reaches it, so the first error in reading order is reported."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            toks.append(("end", "", m.end()))
            break
        lexeme, start = m.group(kind), m.start(kind)
        if kind == "bad":
            kind, lexeme = "error", f"unexpected character {lexeme!r}"
        elif kind == "num":
            try:
                if not math.isfinite(float(lexeme)):
                    kind, lexeme = "error", f"number {lexeme!r} out of float range"
            except ValueError:
                kind, lexeme = "error", f"malformed number {lexeme!r}"
        toks.append((kind, lexeme, start))
    return toks


def _fail(tok, message: str):
    """Raise message at tok, or tok's own message if it is an error token."""
    kind, lexeme, pos = tok
    raise ParseError(lexeme if kind == "error" else message, pos)


def _fold(b: _Builder, pos: int, op: int, x: int, y: int, k: int = 0) -> int:
    """b.fold(op, x, y, k); a fold that leaves float range is a
    ParseError at pos, the operator's position."""
    try:
        return b.fold(op, x, y, k)
    except OverflowError:
        pass
    raise ParseError("constant out of float range", pos)


def _exponent(toks: list, i: int) -> tuple[int, int]:
    """The integer literal, with an optional minus, at token i, and the
    index of the token after it."""
    sign = 1
    if toks[i][1] == "-":
        sign, i = -1, i + 1
    kind, lexeme, _ = toks[i]
    if kind != "num" or any(c in lexeme for c in ".eE"):
        _fail(toks[i], "exponent must be an integer literal")
    return sign * int(lexeme), i + 1


def parse(b: _Builder, text: str, dim: int) -> int:
    """The slot of text's expression over x1..x<dim>, built into b, by
    the grammar of liftlab.expr, each operator folded from the left as
    soon as its right operand ends; nesting on a list, not the stack."""
    toks = _tokens(text)
    stack: list = []  # the enclosing expressions, innermost last
    total = term = None  # the sum and the product read so far
    sum_op = term_op = ""  # the operators waiting for their right operand
    sum_pos = term_pos = i = 0
    while True:
        # An operand: unary minuses, then an atom.
        negs = 0
        while toks[i][1] == "-":
            negs, i = negs + 1, i + 1
        kind, lexeme, pos = toks[i]
        i += 1
        if kind == "num":
            s = b.const(float(lexeme))
        elif lexeme == "(" or lexeme in _FUNCTIONS:
            if len(stack) == MAX_NESTING:
                raise ParseError("expression nested too deeply", pos)
            if lexeme != "(":
                if toks[i][1] != "(":
                    _fail(toks[i], f"expected '(' after {lexeme}")
                i += 1
            stack.append((total, sum_op, sum_pos, term, term_op, term_pos, negs, lexeme, pos))
            total = term = None
            sum_op = term_op = ""
            continue
        elif kind == "ident":
            if not (lexeme[0] == "x" and lexeme[1:].isdigit() and lexeme.isascii()):
                raise ParseError(f"unknown identifier {lexeme!r}", pos)
            axis = lexeme[1:].lstrip("0")  # int() refuses more than 4,300 digits
            if not axis or len(axis) > len(str(dim)) or int(axis) > dim:
                raise ParseError(f"variable {lexeme} out of range for dimension {dim}", pos)
            s = b.var(int(axis))
        else:
            _fail(toks[i - 1], f"unexpected {lexeme!r}" if lexeme else "unexpected end of input")
        # The operand s ends at the first token that is not a power: its
        # minuses apply, then it closes the product, the sum, and maybe
        # the expression of a parenthesis or call, which is itself an
        # operand of the enclosing expression.
        while True:
            kind, lexeme, pos = toks[i]
            if kind == "error":
                raise ParseError(lexeme, pos)
            if lexeme == "^":
                k, i = _exponent(toks, i + 1)
                s = _fold(b, pos, POW, s, s, k)
                continue
            for _ in range(negs):
                s = b.fold(NEG, s, s)
            if term_op:
                s = _fold(b, term_pos, MUL if term_op == "*" else DIV, term, s)
            if lexeme == "*" or lexeme == "/":
                term, term_op, term_pos = s, lexeme, pos
                i += 1
                break
            term_op = ""
            if sum_op:
                if sum_op == "-":
                    s = b.fold(NEG, s, s)
                s = _fold(b, sum_pos, ADD, total, s)
            if lexeme == "+" or lexeme == "-":
                total, sum_op, sum_pos = s, lexeme, pos
                i += 1
                break
            sum_op = ""
            if not stack:
                if kind != "end":
                    raise ParseError(f"unexpected {lexeme!r}", pos)
                return s
            if lexeme != ")":
                raise ParseError("expected ')'", pos)
            i += 1
            total, sum_op, sum_pos, term, term_op, term_pos, negs, opener, at = stack.pop()
            if opener != "(":
                s = _fold(b, at, _FUNCTIONS[opener], s, s)
