"""Scalar expressions over chart coordinates x1..xn, parsed straight
into tapes.

Grammar: decimal literals, variables x1..xn, binary + - * /, unary -,
integer powers via ^, the functions sin, cos, exp, and parentheses.
Subtraction is lowered to addition of a negation as it is read.

A Tape holds expressions as slots listed arguments first, in array
columns: an opcode, two integer arguments, a constants list, and the
output slots.  The parser reads the lexemes of one regex call once, left
to right (lexing again only to find an error's position), and hands each
operand and operator to a slot builder, which hash-conses (a
subexpression written twice, in one text or in two components, has one
slot) and folds constants by the rules of folded below; no expression
tree is built, and slots a fold leaves unread are dropped.  Parentheses
and calls nest on a list, not on the interpreter's stack, up to
MAX_NESTING deep; past that the text is a ParseError.  Text and numbers
are the only way into a tape; this module alone knows the opcodes.  A
tape depends on its components alone and never changes once built, so
compiled keeps the last MAX_TAPES for later lists of the same components.

Trees (liftlab.tree) are output only: Tape.tree renders an output as
one, and parse returns the tree of a text's tape.  A tree prints as
text that parses back to the same slots, so a tree is compiled through
its text, Tape([(str(tree), n)]).

Running a tape applies one NumPy operation per group of like slots and
Taylor term over the whole (..., n) batch of points, and a subexpression
shared by many outputs, or repeated inside one, is computed once.
Derivatives are never built as expressions: Tape.jets carries the value,
the gradient and the Hessian of every slot level by level (truncated
Taylor propagation, one rule per opcode), so the partials it returns are
exact up to rounding.  A part the same at every point is computed once:
a constant, a linear slot's gradient, and the Hessian of a slot of
degree <= 2, a square's among them, whose second-derivative factor is
the constant 2.
"""

from __future__ import annotations

import math
import re
import struct
from array import array
from bisect import bisect_right
from itertools import compress, islice

import numpy as np

from .tree import Add, Const, Cos, Div, Exp, IntPow, Mul, Neg, ScalarExpr, Sin, Var

# Opcodes: the binary ones first, then the unary ones, then the leaves.
MUL, ADD, DIV, NEG, POW, SIN, COS, EXP, CONST, VAR = range(10)
SQUARE = 10  # not an opcode: POW with exponent 2 in a flags key, its Hessian factor constant

# The node class of each opcode but CONST, VAR and POW, for Tape.tree.
_NODES = {ADD: Add, MUL: Mul, DIV: Div, NEG: Neg, SIN: Sin, COS: Cos, EXP: Exp}

# The kinds of a slot's value, gradient and Hessian (its parts): one for
# each point, one for all points (a constant's value, a linear term's
# gradient), or none (a derivative that vanishes identically), held in
# bits 0, 1-2 and 3-4 of its flags.  A part of kind _EACH makes the lower
# parts _EACH too, so slots sorted by _RANK put those with more first.
_EACH, _ALL, _NONE = 0, 1, 2
_CONST_FLAGS, _VAR_FLAGS = _ALL | _NONE << 1 | _NONE << 3, _EACH | _ALL << 1 | _NONE << 3
_KINDS = [(f & 1, f >> 1 & 3, f >> 3 & 3) for f in range(32)]
_RANK = bytes(3 - kinds.count(_EACH) for kinds in _KINDS)


class _Flags(dict):
    """Flags of op's result by op << 10 | fa << 5 | fb (fb = fa if unary, op SQUARE for
    POW with exponent 2): op's Taylor rule run once on stand-ins with one point for a
    part of kind _ALL, two for _EACH; 3 stands in for any other exponent."""

    def __missing__(self, key):
        a, b = ([None if kind == _NONE else np.ones((1, 2 - kind) + shape)
                 for kind, shape in zip(_KINDS[f], ((1, 1), (2, 1), (2, 2)))]
                for f in (key >> 5 & 31, key & 31))
        op, k = (POW, 2) if key >> 10 == SQUARE else (key >> 10, 3)
        got = [_NONE if x is None else 2 - len(x[0]) for x in _taylor(op, k, a, b, 2, None)]
        assert got == sorted(got), got
        return self.setdefault(key, _KINDS.index(tuple(got)))


_FLAGS = _Flags()

# The bytes of slot parts for each point a tape run holds: it runs by blocks of points.
BLOCK_BYTES = 1 << 20


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularPointError(ArithmeticError):
    """Raised on a pole or an overflow at a sample point.  subtree is the
    innermost non-finite subexpression of an input field's component, or
    None (an operator output, a residual)."""

    def __init__(self, message: str, subtree: ScalarExpr | None = None):
        super().__init__(message)
        self.subtree = subtree


def named(key: str, term):
    """term(), with key (a check, a residual) in front of the
    SingularPointError it raises; same type and subtree."""
    try:
        return term()
    except SingularPointError as exc:
        raise SingularPointError(f"{key}: {exc}", exc.subtree) from None


# ---------------------------------------------------------------------------
# The slot builder


FIRST, SECOND = "first", "second"  # fold results: that operand
_MATH = {NEG: float.__neg__, SIN: math.sin, COS: math.cos, EXP: math.exp}


def folded(op: int, ca, cb, k: int = 0):
    """The folding rules of op over two operands (one for a unary op),
    whose constant values are ca and cb, None for an operand that is not
    a constant; k is POW's exponent.  Returns the float the result folds
    to, FIRST or SECOND when it is that operand, or None when nothing
    folds."""
    if op == ADD:
        if ca is not None and cb is not None:
            return ca + cb
        if ca == 0.0:
            return SECOND
        if cb == 0.0:
            return FIRST
    elif op == MUL:
        if ca is not None and cb is not None:
            return ca * cb
        if ca == 0.0 or cb == 0.0:
            return 0.0
        if ca == 1.0:
            return SECOND
        if cb == 1.0:
            return FIRST
    elif op == DIV:
        if cb == 1.0:
            return FIRST
        if ca is not None and cb is not None and cb != 0.0:
            return ca / cb
    elif op == POW:
        if k == 0:
            return 1.0
        if k == 1:
            return FIRST
        if ca is not None and not (ca == 0.0 and k < 0):
            return ca**k
    elif ca is not None:  # NEG, SIN, COS, EXP
        return _MATH[op](ca)
    return None


_BITS = struct.Struct("d").pack


class _Builder:
    """Tape slots under construction, hash-consed: a slot is added only
    when no slot of the same structure exists.  ops, args_a and args_b
    are the tape's columns and consts its constants, as lists of Python
    numbers; table maps each structure to its slot: an int packing opcode and
    argument slots, a tuple for POW, and a constant's bit pattern, so
    that 0.0 and -0.0 stay apart, and so do nan and inf of either sign."""

    __slots__ = ("ops", "args_a", "args_b", "consts", "table")

    def __init__(self):
        self.ops, self.args_a, self.args_b = [], [], []
        self.consts: list = []
        self.table: dict = {}

    def _slot(self, key, op: int, a: int, b: int, value=None) -> int:
        """The slot of key, added as (op, a, b) when new; a new CONST or
        POW slot appends value, its constant or exponent, to consts."""
        slot = self.table.get(key)
        if slot is None:
            slot = self.table[key] = len(self.ops)
            self.ops.append(op)
            self.args_a.append(a)
            self.args_b.append(b)
            if value is not None:
                self.consts.append(value)
        return slot

    def const(self, c: float) -> int:
        return self._slot(_BITS(c), CONST, len(self.consts), 0, c)

    def var(self, axis: int) -> int:
        return self._slot(axis - 1 << 4 | VAR, VAR, axis - 1, 0)

    def power(self, a: int, k: int) -> int:
        return self._slot((POW, a, k), POW, a, len(self.consts), k)

    def fold(self, op: int, a: int, b: int, k: int = 0) -> int:
        """op over slots a and b (b = a for a unary op; k is POW's
        exponent), folded by the rules of folded, with
        neg(neg(a)) = a.  A fold that leaves float range raises
        OverflowError."""
        ops, args_a = self.ops, self.args_a
        oa, ob = ops[a], ops[b]
        if op == NEG and oa == NEG:
            return args_a[a]
        if oa == CONST or ob == CONST or op == POW:  # else nothing folds: op as it stands
            consts = self.consts
            r = folded(op, consts[args_a[a]] if oa == CONST else None,
                       consts[args_a[b]] if ob == CONST else None, k)
            if r is FIRST or r is SECOND:
                return a if r is FIRST else b
            if r is not None:
                if not math.isfinite(r):
                    raise OverflowError("constant out of float range")
                return self.const(r)
            if op == POW:
                return self.power(a, k)
        key = (a << 32 | b) << 4 | op  # the common case: found or added here, not by _slot
        slot = self.table.get(key)
        if slot is None:
            slot = self.table[key] = len(ops)
            ops.append(op)
            args_a.append(a)
            self.args_b.append(b)
        return slot


# ---------------------------------------------------------------------------
# Parsing: text to slots


_FUNCTIONS = {"sin": SIN, "cos": COS, "exp": EXP}

# Parentheses and function calls open at most this many levels, one
# inside another; the token that opens one more is a ParseError.
MAX_NESTING = 256


# One token after optional whitespace, in the one group: a number (ASCII digits
# and dots, then an exponent only when digits follow), a name, an operator or any
# other character (an error); optional, so the end is one match, which gives "".
_TOKEN = re.compile(r"\s*([0-9.]+(?:[eE][+-]?[0-9]+)?|[^\W\d]\w*|[-+*/^()]|.)?", re.S)
_NUMBER_START = frozenset("0123456789.")
_OPERATORS = frozenset("+-*/^()")


def _position(text: str, i: int) -> int:
    """The character position of token i of text, by lexing it again."""
    m = next(islice(_TOKEN.finditer(text), i, None))
    return m.start(1) if m.lastindex else m.end()


def _own_error(lexeme: str) -> str | None:
    """The message of a token that is an error wherever it stands, a
    number float() refuses or reads as infinite or a character that
    starts no token (a name starts as [^\\W\\d] matches); else None."""
    c = lexeme[:1]
    if c in _NUMBER_START:
        try:
            return None if math.isfinite(float(lexeme)) else f"number {lexeme!r} out of float range"
        except ValueError:
            return f"malformed number {lexeme!r}"
    if c and c not in _OPERATORS and not (c == "_" or c.isalnum() and not c.isdecimal()):
        return f"unexpected character {lexeme!r}"
    return None


def _fail(text: str, toks: list, i: int, message: str):
    """Raise message at token i, or the token's own error if it has one,
    so that the first error in reading order is reported."""
    raise ParseError(_own_error(toks[i]) or message, _position(text, i))


def _parse(b: _Builder, text: str, dim: int) -> int:
    """The slot of text's expression over x1..x<dim>, built into b.

    One left-to-right pass over the lexemes, by the grammar
        expression = term (("+" | "-") term)*
        term       = unary (("*" | "/") unary)*
        unary      = "-" unary | atom ("^" ["-"] integer)*
        atom       = number | variable | "(" expression ")"
                     | ("sin" | "cos" | "exp") "(" expression ")"
    with each operator folded, from the left, as soon as its right
    operand ends.  The expression being read lives in local variables:
    its sum so far, the pending product, and the count of unary minuses
    before the current operand.  An opening parenthesis or call pushes
    them onto a list and starts afresh, and its closing parenthesis pops
    them, so nesting takes no Python frames.  Tokens are kept by index."""
    toks = _TOKEN.findall(text)  # ends with "", the end of the text
    stack: list = []  # the enclosing expressions, innermost last
    total = term = None  # the sum and the product read so far
    sum_op = term_op = ""  # the operators waiting for their right operand
    sum_at = term_at = at = i = 0  # at: the operator being folded
    try:
        while True:
            # An operand: unary minuses, then an atom.
            negs = 0
            while toks[i] == "-":
                negs, i = negs + 1, i + 1
            lexeme, i = toks[i], i + 1
            if lexeme[:1] in _NUMBER_START:
                try:
                    c = float(lexeme)
                except ValueError:
                    c = math.nan
                if not math.isfinite(c):
                    _fail(text, toks, i - 1, "")
                s = b.const(c)
            elif lexeme == "(" or lexeme in _FUNCTIONS:
                if len(stack) == MAX_NESTING:
                    _fail(text, toks, i - 1, "expression nested too deeply")
                stack.append((total, sum_op, sum_at, term, term_op, term_at, negs, lexeme, i - 1))
                if lexeme != "(":
                    if toks[i] != "(":
                        _fail(text, toks, i, f"expected '(' after {lexeme}")
                    i += 1
                total, term, sum_op, term_op = None, None, "", ""
                continue
            elif lexeme[:1] == "x" and lexeme[1:].isdigit() and lexeme.isascii():
                axis = lexeme[1:].lstrip("0")  # int() refuses more than 4,300 digits
                if not axis or len(axis) > len(str(dim)) or int(axis) > dim:
                    _fail(text, toks, i - 1, f"variable {lexeme} out of range for dimension {dim}")
                s = b.var(int(axis))
            else:  # what starts no operand: a name, an operator, the end
                _fail(text, toks, i - 1, f"unexpected {lexeme!r}" if lexeme in _OPERATORS else
                      f"unknown identifier {lexeme!r}" if lexeme else "unexpected end of input")
            # The operand s ends at the first token that is not a power: its
            # minuses apply, then it closes the product, the sum, and maybe
            # the expression of a parenthesis or call, which is itself an
            # operand of the enclosing expression.
            while True:
                lexeme = toks[i]
                if lexeme == "^":  # then an integer literal, with an optional minus
                    at, sign, i = i, 1, i + 1
                    if toks[i] == "-":
                        sign, i = -1, i + 1
                    k = toks[i]  # a number's lexeme is ASCII: isdigit means 0-9 only
                    if not (k[:1] in _NUMBER_START and k.isdigit() and math.isfinite(float(k))):
                        _fail(text, toks, i, "exponent must be an integer literal")
                    # int() refuses over 4,300 digits; a finite one has at most 309 past its zeros
                    s, i = b.fold(POW, s, s, sign * int(k.lstrip("0") or "0")), i + 1
                    continue
                if lexeme not in _OPERATORS and _own_error(lexeme):
                    _fail(text, toks, i, "")  # before the folds, as the first error
                for _ in range(negs):
                    s = b.fold(NEG, s, s)
                if term_op:
                    at = term_at
                    s = b.fold(MUL if term_op == "*" else DIV, term, s)
                if lexeme == "*" or lexeme == "/":
                    term, term_op, term_at, i = s, lexeme, i, i + 1
                    break
                term_op = ""
                if sum_op:
                    if sum_op == "-":
                        s = b.fold(NEG, s, s)
                    at = sum_at
                    s = b.fold(ADD, total, s)
                if lexeme == "+" or lexeme == "-":
                    total, sum_op, sum_at, i = s, lexeme, i, i + 1
                    break
                sum_op = ""
                if not stack:
                    if lexeme:
                        _fail(text, toks, i, f"unexpected {lexeme!r}")
                    return s
                if lexeme != ")":
                    _fail(text, toks, i, "expected ')'")
                i += 1
                total, sum_op, sum_at, term, term_op, term_at, negs, opener, at = stack.pop()
                if opener != "(":
                    s = b.fold(_FUNCTIONS[opener], s, s)
    except OverflowError:
        pass  # a fold left float range
    raise ParseError("constant out of float range", _position(text, at))


def parse(text: str, dim: int) -> ScalarExpr:
    """Parse text into an expression over x1..x<dim>: the tree of its
    one-output tape.

    A variable is x followed by ASCII digits.  Raises ParseError (with
    character position) on malformed input, on any other name, on a
    variable whose axis exceeds dim, and on parentheses and calls nested
    more than MAX_NESTING deep.
    """
    if not 1 <= dim:
        raise ValueError(f"dimension must be positive, got {dim}")
    return Tape([(text, dim)]).tree(0)


# ---------------------------------------------------------------------------
# Evaluation and differentiation


class Tape:
    """A list of expressions compiled for batch evaluation.

    Slot i holds one structurally distinct subexpression.  ops[i] is the
    opcode, and args_a[i], args_b[i] its arguments: argument slots (a
    unary op's in both), or for CONST an index into consts, for VAR the
    0-based axis, for POW the argument slot and the index of the
    exponent in consts.  Calling the tape on points of shape (..., n)
    returns shape (..., len(outputs)), column r the value of expression r.

    Slots alike in level (one more than their arguments' highest, 0 for
    CONST and VAR), opcode, POW exponent and argument flags form a group
    and read none of each other, so one gather of their arguments and
    one ufunc call per Taylor term run them all.  Slots are numbered by
    group, groups by rank and then level, so a group's rows are one
    block and, for each order, the slots with a part for each point lead.
    """

    __slots__ = ("ops", "args_a", "args_b", "consts", "outputs", "_plan")

    def __init__(self, exprs):
        """exprs: each a (text, n) pair, text over x1..xn, parsed into
        slots once however often it repeats, or a number.  A tree goes
        in as its text, (str(tree), n)."""
        b = _Builder()
        texts: dict = {}
        outputs = []
        for e in exprs:
            if type(e) is tuple:
                if e not in texts:
                    texts[e] = _parse(b, *e)
                outputs.append(texts[e])
            elif isinstance(e, (int, float)):
                outputs.append(b.const(float(e)))
            else:
                raise TypeError(f"cannot use {type(e).__name__} as an expression; give its text")
        ops, args_a, args_b, consts = b.ops, b.args_a, b.args_b, b.consts
        # From the last slot back: a slot is kept when an output or a kept
        # slot reads it; what folds left unread goes.
        live = bytearray(len(ops))
        for s in outputs:
            live[s] = 1
        for i in range(len(ops) - 1, -1, -1):
            if live[i] and ops[i] < CONST:
                live[args_a[i]] = 1
                if ops[i] != POW:
                    live[args_b[i]] = 1
        # Each kept slot's level, flags and group key (rank, level, opcode or
        # SQUARE, argument flags, and for POW the exponent's place in powers), by
        # which the slots are then renumbered.
        kept = list(compress(range(len(ops)), live))
        level, flags, keys, powers = [0] * len(ops), bytearray(len(ops)), [0] * len(ops), {}
        for i in kept:
            op, a, c = ops[i], args_a[i], args_b[i]
            if op >= CONST:
                f, flags[i] = op << 10, _CONST_FLAGS if op == CONST else _VAR_FLAGS
            else:
                arg, rule = (a, SQUARE if consts[c] == 2 else op) if op == POW else (c, op)
                f = rule << 10 | flags[a] << 5 | flags[arg]
                level[i] = (level[a] if level[a] > level[arg] else level[arg]) + 1
                flags[i] = _FLAGS[f]
            keys[i] = ((_RANK[flags[i]] << 32 | level[i]) << 14 | f) << 32 | (
                powers.setdefault(consts[c], len(powers)) if op == POW else 0)
        kept.sort(key=keys.__getitem__)
        new = dict(zip(kept, range(len(kept))))  # old slot -> new slot
        self.ops, self.consts = array("B", bytes(map(ops.__getitem__, kept))), consts
        self.args_a = array("i", [new[args_a[i]] if ops[i] < CONST else args_a[i] for i in kept])
        self.args_b = array("i", [new[args_b[i]] if ops[i] < CONST and ops[i] != POW else args_b[i]
                                  for i in kept])
        self.outputs = array("i", [new[s] for s in outputs])
        # The groups by level: (level, opcode, exponent or a CONST group's
        # values or a VAR group's axes, rows, argument rows a and b (None
        # for a unary op), argument flags a and b, flags); and by order,
        # how many slots lead with a part for each point.
        keys = list(map(keys.__getitem__, kept))
        plan, start, each = [], 0, [0, 0, 0]
        while start < len(keys):
            op, f, g = self.ops[start], keys[start] >> 32 & 0x3FFF, flags[kept[start]]
            stop = bisect_right(keys, keys[start], start)
            ra, rb = self.args_a[start:stop], self.args_b[start:stop]
            if op >= CONST:  # the leaves
                k = np.array([consts[c] for c in ra]) if op == CONST else np.array(ra, np.intp)
                ra, rb = np.arange(start, stop), None
            else:
                k = consts[rb[0]] if op == POW else 0
                ra, rb = _rows(ra), _rows(rb) if op <= DIV else None
            plan.append((level[kept[start]], op, k, start, stop, ra, rb, f >> 5 & 31, f & 31, g))
            each[: 3 - _RANK[g]] = [stop] * (3 - _RANK[g])
            start = stop
        plan.sort(key=lambda group: group[:2])
        # Each order's output rows in the array for each point: a part of
        # kind _ALL is copied past the slots from the row in spread, and
        # one of kind _NONE reads the last row, of zeros.
        reads = []
        for d in range(3):
            kinds = [_KINDS[flags[s]][d] for s in outputs]
            spread = np.array([new[s] for s, kind in zip(outputs, kinds) if kind == _ALL], np.intp)
            past = iter(range(each[d], each[d] + len(spread)))
            rows = [new[s] if kind == _EACH else next(past) if kind == _ALL else -1
                    for s, kind in zip(outputs, kinds)]
            reads.append((np.array(rows, dtype=np.intp), spread, each[d] + len(spread) + 1))
        self._plan = (plan, each, reads)

    def tree(self, r: int) -> ScalarExpr:
        """Output r as an expression tree, a fresh node on every path: a
        slot read twice gives two equal nodes.  Keeps its own stack, so
        depth is not bounded by the recursion limit."""
        done: list = []  # finished nodes, the last on top
        todo = [self.outputs[r]]  # slots to render; ~s: build slot s from done
        while todo:
            s = todo.pop()
            slot = ~s if s < 0 else s
            op, a, c = self.ops[slot], self.args_a[slot], self.args_b[slot]
            if op == CONST:
                done.append(Const(self.consts[a]))
            elif op == VAR:
                done.append(Var(a + 1))
            elif s >= 0:
                todo.append(~s)
                todo += (c, a) if op in (ADD, MUL, DIV) else (a,)
            elif op == POW:
                done.append(IntPow(done.pop(), self.consts[c]))
            elif op in (ADD, MUL, DIV):
                right = done.pop()
                done.append(_NODES[op](done.pop(), right))
            else:
                done.append(_NODES[op](done.pop()))
        return done[0]

    def __len__(self) -> int:
        return len(self.ops)

    def _run(self, x: np.ndarray, order: int) -> list:
        """The parts of every slot to order <= 2 at the points x (n, w),
        raw: by order, (rows, w, 1, 1) values, (rows, w, n, 1) gradients or
        (rows, w, n, n) Hessians for each point, of the leading slots, and
        (slots, 1, ...) for all points.  A part reads 0 where its kind does
        not put it; the rules take one of kind _NONE as absent, so that it
        times an infinite value stays 0, not NaN."""
        n, w = x.shape
        shapes = ((1, 1), (n, 1), (n, n))[: order + 1]
        store = [(np.zeros((size, w) + shape), np.zeros((len(self.ops), 1) + shape))
                 for (_, _, size), shape in zip(self._plan[2], shapes)]
        V, G, H = store + [None] * (2 - order)
        with np.errstate(all="ignore"):
            for _, op, k, s, e, ra, rb, fa, fb, f in self._plan[0]:
                if op == CONST:
                    V[_ALL][s:e, 0, 0, 0] = k
                elif op == VAR:
                    V[_EACH][s:e, :, 0, 0] = x[k]
                    if order:
                        G[_ALL][ra, 0, k, 0] = 1.0
                else:  # the arguments' parts, None for kind _NONE or an order not run
                    a, b = (None if rows is None else [None if kind == _NONE or d > order else
                            store[d][kind][rows] for d, kind in enumerate(_KINDS[fx])]
                            for fx, rows in ((fa, ra), (fb, rb)))
                    _, g, h = _taylor(op, k, a, b, order, V[f & 1][s:e])
                    if g is not None:
                        G[f >> 1 & 3][s:e] = g
                    if h is not None:
                        H[f >> 3 & 3][s:e] = h
        return store

    def non_finite_subtree(self, r: int, tree: ScalarExpr, point, order: int) -> ScalarExpr:
        """The node of tree, output r as self.tree(r) renders it, whose
        jet to order is non-finite at one point (n,): the innermost one
        whose own jet is non-finite while its arguments' are finite.
        Reruns the tape at that point; for error messages."""
        store = self._run(np.asarray(point, dtype=np.float64).reshape(-1, 1), order)
        finite = np.ones(len(self.ops), dtype=bool)
        for e, (per_point, for_all) in zip(self._plan[1], store):
            finite[:e] &= np.isfinite(per_point[:e]).all(axis=(1, 2, 3))
            finite &= np.isfinite(for_all).all(axis=(1, 2, 3))
        node, slot = tree, self.outputs[r]
        while True:
            # the argument columns of a slot start with its children's slots
            args = (self.args_a[slot], self.args_b[slot])[: len(node.children)]
            bad = next((k for k, s in enumerate(args) if not finite[s]), None)
            if bad is None:
                return node
            node, slot = node.children[bad], args[bad]

    def __call__(self, points) -> np.ndarray:
        return self.jets(points, 0)[0]

    def jets(self, points, order: int) -> list:
        """Values and partials of the outputs at points (..., n), to
        order <= 2: [(..., K)], then (..., n, K) and (..., n, n, K), the
        derivative axes right after the batch axes, each stored with the
        first axis fastest (order "F").  The points run in blocks whose
        parts for each point take at most BLOCK_BYTES."""
        if not 0 <= order <= 2:
            raise ValueError(f"tape jets go up to order 2, not {order}")
        p = np.asarray(points, dtype=np.float64)
        batch, n, k = p.shape[:-1], p.shape[-1], len(self.outputs)
        w, (_, each, reads) = math.prod(batch), self._plan
        x = p.T.reshape(n, w)  # the points in order "F", as columns
        size = 8 * (1 + k + each[0] + n * each[1] * (order > 0) + n * n * each[2] * (order > 1))
        step = max(1, BLOCK_BYTES // size)  # points per block
        out = [np.empty(batch + (n,) * d + (k,), order="F") for d in range(order + 1)]
        flat = [a.reshape((w,) + a.shape[len(batch) :], order="F") for a in out]  # views
        for c in range(0, w, step):
            parts = zip(flat, each, reads, self._run(x[:, c : c + step], order))
            for d, (a, e, (rows, spread, _), (per_point, for_all)) in enumerate(parts):
                if len(spread):
                    per_point[e : e + len(spread)] = for_all[spread]
                part = per_point[rows].reshape((k, -1) + (n,) * d)
                a[c : c + step] = part.transpose(*range(1, d + 2), 0)
        return out


MAX_TAPES = 16  # compiled tapes kept for reuse, the least recently used first out
_TAPES: dict = {}  # key -> Tape, least recently used first


def compiled(exprs: list) -> Tape:
    """Tape(exprs), kept for a later list of the same components: a (text,
    n) pair keyed as itself, a number by its float bit pattern (so 1, 1.0
    and True share a tape, 0.0 and -0.0 do not).  A list with another
    type, an unhashable pair or a number out of float range is compiled
    uncached, so it raises what Tape raises."""
    numbers = [e for e in exprs if type(e) is not tuple]
    try:
        if not {int, float, bool}.issuperset(map(type, numbers)):
            raise TypeError
        key = tuple(e if type(e) is tuple else None for e in exprs), array("d", numbers).tobytes()
        tape = _TAPES.pop(key, None)
    except (TypeError, OverflowError):
        return Tape(exprs)
    _TAPES[key] = tape = Tape(exprs) if tape is None else tape  # now the most recently used
    if len(_TAPES) > MAX_TAPES:
        del _TAPES[next(iter(_TAPES))]
    return tape


def _rows(slots: array):
    """The rows of slots: a slice when they run on, else an index array."""
    first, m = slots[0], len(slots)
    if slots[-1] - first == m - 1 and (m < 3 or slots == array("i", range(first, first + m))):
        return slice(first, first + m)
    return np.array(slots, dtype=np.intp)


def _taylor(op: int, k: int, a, b, order: int, out) -> tuple:
    """Op's Taylor rule over a group of slots: the value, written to out,
    and to order <= 2 the gradient and Hessian, from the parts a and b of
    the arguments (b None for a unary op; k is POW's exponent, never 0 or
    1).  None stands for a derivative that vanishes or is not asked for."""
    (va, ga, ha), (vb, gb, hb) = a, b or (None, None, None)
    g = h = None
    if op == MUL:
        v = np.multiply(va, vb, out=out)
        if order:
            g = _plus(_scale(ga, vb), _scale(gb, va))
            if order == 2:
                h = _plus(_plus(_scale(ha, vb), _scale(hb, va)), _sym(ga, gb))
    elif op == ADD:
        v = np.add(va, vb, out=out)
        g, h = _plus(ga, gb), _plus(ha, hb)
    elif op == DIV:  # from a = v b: g = (ga - v gb) / b, and h likewise
        v = np.divide(va, vb, out=out)
        if order:
            inv, minus = 1.0 / vb, -v
            g = _scale(_plus(ga, _scale(gb, minus)), inv)
            if order == 2:
                h = _scale(_plus(_plus(ha, _scale(hb, minus)), _scale(_sym(g, gb), -1)), inv)
    else:  # f(a): g = f' ga and h = f' ha + f'' ga ga
        if op == NEG:
            v, d1, d2 = np.negative(va, out=out), -1.0, None
        elif op == EXP:
            v = d1 = d2 = np.exp(va, out=out)
        elif op == POW:
            v = np.power(va, k, out=out)
            if order:
                d1 = k * np.power(va, k - 1)
                d2 = 2.0 if k == 2 else k * (k - 1) * np.power(va, k - 2)  # 2 x^0 at every x
        else:
            v = (np.sin if op == SIN else np.cos)(va, out=out)
            if order:
                d1, d2 = np.cos(va) if op == SIN else -np.sin(va), -v
        if order:
            g = _scale(ga, d1)
            if order == 2:
                h = _plus(_scale(ha, d1), _scale(_outer(ga, ga), d2))
    return v, g, h


def _plus(x, y):
    """Sum of two derivatives, where None stands for an identically zero one."""
    return y if x is None else x if y is None else x + y


def _scale(d, s):
    return None if d is None or s is None else d * s


def _outer(x, y):
    return None if x is None or y is None else x * y.swapaxes(-1, -2)


def _sym(x, y):
    """x y^T + y x^T, the mixed term of a product's Hessian."""
    return _plus(_outer(x, y), _outer(y, x))
