"""Scalar expressions over chart coordinates x1..xn, parsed straight
into tapes.

Grammar: decimal literals, variables x1..xn, binary + - * /, unary -,
integer powers via ^, the functions sin, cos, exp, and parentheses.
Subtraction is lowered to addition of a negation as it is read.

A Tape holds expressions as slots listed arguments first, in array
columns: an opcode, two integer arguments, a constants list, and the
output slots.  The parser builds them: it reads a text once, left to
right, and hands each operand and operator to a slot builder, which
hash-conses (a structure already present is not added again, so a
subexpression written twice, in one text or in two components of one
field, has one slot) and folds constants by the rules of folded below.
No expression tree is built on the way.  Slots a fold leaves unread are
dropped when the tape is finished.  Parentheses and calls nest on a
list, not on the interpreter's stack, up to MAX_NESTING deep; past that
the text is a ParseError.  Text and numbers are the only way into a
tape; this module alone knows the opcodes.

Trees (liftlab.tree) are output only: Tape.tree renders an output as
one, and parse returns the tree of a text's tape.  A tree prints as
text that parses back to the same slots, so a tree is compiled through
its text, Tape([(str(tree), n)]).

Running a tape applies one NumPy operation per slot over the whole
(..., n) batch of points, so a subexpression shared by many outputs, or
repeated inside one, is computed once.  Derivatives are never built as
expressions: Tape.jets carries the value, the gradient and the Hessian
of every slot through the same slot order (truncated Taylor
propagation, one rule per opcode), so the partials it returns are exact
up to rounding.
"""

from __future__ import annotations

import math
import re
import struct
from array import array

import numpy as np

from .tree import Add, Const, Cos, Div, Exp, IntPow, Mul, Neg, ScalarExpr, Sin, Var

# Opcodes, in the order the evaluation loop tests them.
MUL, ADD, NEG, POW, DIV, CONST, VAR, SIN, COS, EXP = range(10)

# The node class of each opcode but CONST, VAR and POW, for Tape.tree.
_NODES = {ADD: Add, MUL: Mul, DIV: Div, NEG: Neg, SIN: Sin, COS: Cos, EXP: Exp}

# Flags on an opcode: after this slot, drop the value of argument a / b,
# which no later slot and no output reads.
_DROP_A, _DROP_B = 16, 32
_OP_MASK = 15


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
    are the tape's columns and consts its constants, as Python numbers;
    table maps each structure to its slot: an int packing opcode and
    argument slots, a tuple for POW, and a constant's bit pattern, so
    that 0.0 and -0.0 stay apart, and so do nan and inf of either sign."""

    __slots__ = ("ops", "args_a", "args_b", "consts", "table")

    def __init__(self):
        self.ops, self.args_a, self.args_b = array("B"), array("i"), array("i")
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

    def node(self, op: int, a: int, b: int) -> int:
        """op over slots a and b as it stands; a unary op carries its
        argument in both."""
        return self._slot((a << 32 | b) << 4 | op, op, a, b)

    def power(self, a: int, k: int) -> int:
        return self._slot((POW, a, k), POW, a, len(self.consts), k)

    def fold(self, op: int, a: int, b: int, k: int = 0) -> int:
        """op over slots a and b (b = a for a unary op; k is POW's
        exponent), folded by the rules of folded, with
        neg(neg(a)) = a.  A fold that leaves float range raises
        OverflowError."""
        ops, args_a, consts = self.ops, self.args_a, self.consts
        if op == NEG and ops[a] == NEG:
            return args_a[a]
        ca = consts[args_a[a]] if ops[a] == CONST else None
        cb = consts[args_a[b]] if ops[b] == CONST else None
        r = None if ca is None and cb is None and op != POW else folded(op, ca, cb, k)
        if r is None:
            return self.power(a, k) if op == POW else self.node(op, a, b)
        if r is FIRST or r is SECOND:
            return a if r is FIRST else b
        if not math.isfinite(r):
            raise OverflowError("constant out of float range")
        return self.const(r)


# ---------------------------------------------------------------------------
# Parsing: text to slots


_FUNCTIONS = {"sin": SIN, "cos": COS, "exp": EXP}

# Parentheses and function calls open at most this many levels, one
# inside another; the token that opens one more is a ParseError.
MAX_NESTING = 256


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


def _parse(b: _Builder, text: str, dim: int) -> int:
    """The slot of text's expression over x1..x<dim>, built into b.

    One left-to-right pass over the tokens, by the grammar
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
    them, so nesting takes no Python frames."""
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

    Slot i holds one structurally distinct subexpression; its arguments
    sit in earlier slots.  ops[i] is the opcode (with drop flags), and
    args_a[i], args_b[i] its arguments: argument slots (a unary op's in
    both), or for CONST an index into consts, for VAR the 0-based axis,
    for POW the argument slot and the index of the exponent in consts.
    Calling the tape on points of shape (..., n) returns shape
    (..., len(outputs)), column r the value of expression r.
    """

    __slots__ = ("ops", "args_a", "args_b", "consts", "outputs")

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
        # slot reads it, and its value is dropped after the kept slot that
        # reads it last, unless it is an output.
        live = bytearray(len(ops))
        for s in outputs:
            live[s] = 1
        for i in range(len(ops) - 1, -1, -1):
            op = ops[i]
            if not live[i] or op == CONST or op == VAR:
                continue
            if not live[args_a[i]]:
                live[args_a[i]] = 1
                ops[i] |= _DROP_A
            if op != POW and not live[args_b[i]]:
                live[args_b[i]] = 1
                ops[i] |= _DROP_B
        # The kept slots in order, renumbered: what folds left unread goes.
        new = array("i", [0]) * len(ops)  # old slot -> new slot
        self.ops, self.args_a, self.args_b = array("B"), array("i"), array("i")
        self.consts = []
        for i, code in enumerate(ops):
            if not live[i]:
                continue
            op, a, c = code & _OP_MASK, args_a[i], args_b[i]
            if op == CONST:
                a = len(self.consts)
                self.consts.append(np.float64(consts[args_a[i]]))
            elif op == POW:
                a, c = new[a], len(self.consts)
                self.consts.append(consts[args_b[i]])
            elif op != VAR:  # a VAR keeps its axis
                a, c = new[a], new[c]
            new[i] = len(self.ops)
            self.ops.append(code)
            self.args_a.append(a)
            self.args_b.append(c)
        self.outputs = array("i", [new[s] for s in outputs])

    def tree(self, r: int) -> ScalarExpr:
        """Output r as an expression tree, a fresh node on every path: a
        slot read twice gives two equal nodes.  Keeps its own stack, so
        depth is not bounded by the recursion limit."""
        done: list = []  # finished nodes, the last on top
        todo = [self.outputs[r]]  # slots to render; ~s: build slot s from done
        while todo:
            s = todo.pop()
            slot = ~s if s < 0 else s
            op, a, c = self.ops[slot] & _OP_MASK, self.args_a[slot], self.args_b[slot]
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

    def _slots(self, p: np.ndarray, order: int = 0, keep: bool = False) -> list:
        """(value, gradient, Hessian) of every slot at points p (..., n), to
        order <= 2, raw (inf/nan pass through).  Each opcode has one Taylor
        rule; None stands for a derivative that vanishes identically or is
        not asked for.  Values go through the ufuncs even for one point,
        whose NumPy scalar operators order NaN operands differently.
        Unless keep, a slot is dropped after its last read."""
        unit = np.eye(p.shape[-1]) if order else None
        consts, hess = self.consts, order == 2
        jet: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for i, (code, a, b) in enumerate(zip(self.ops, self.args_a, self.args_b)):
                op = code & _OP_MASK
                g = h = None
                if op == MUL:
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.multiply(va, vb)
                    if order:
                        g = _plus(_scale(ga, vb, 1), _scale(gb, va, 1))
                        if hess:
                            h = _plus(_plus(_scale(ha, vb, 2), _scale(hb, va, 2)), _sym(ga, gb))
                elif op == ADD:
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.add(va, vb)
                    if order:
                        g, h = _plus(ga, gb), _plus(ha, hb)
                elif op == CONST:
                    v = consts[a]
                elif op == VAR:
                    v, g = p[..., a], None if unit is None else unit[a]
                elif op == DIV:  # from a = v b: g = (ga - v gb) / b, and h likewise
                    (va, ga, ha), (vb, gb, hb) = jet[a], jet[b]
                    v = np.divide(va, vb)
                    if order:
                        inv = 1.0 / vb
                        g = _scale(_plus(ga, _scale(gb, -v, 1)), inv, 1)
                        if hess:
                            h = _plus(_plus(ha, _scale(hb, -v, 2)), _scale(_sym(g, gb), -1, 2))
                            h = _scale(h, inv, 2)
                else:  # f(a): g = f' ga and h = f' ha + f'' ga ga
                    va, ga, ha = jet[a]
                    v, d1, d2 = _unary(op, va, consts[b] if op == POW else 0, order)
                    if order:
                        g = _scale(ga, d1, 1)
                        if hess:
                            h = _plus(_scale(ha, d1, 2), _scale(_outer(ga, ga), d2, 2))
                jet[i] = (v, g, h)
                if code > _OP_MASK and not keep:
                    if code & _DROP_A:
                        jet[a] = None
                    if code & _DROP_B:
                        jet[b] = None
        return jet

    def non_finite_subtree(self, r: int, tree: ScalarExpr, point, order: int) -> ScalarExpr:
        """The node of tree, output r as self.tree(r) renders it, whose
        jet to order is non-finite at one point (n,): the innermost one
        whose own jet is non-finite while its arguments' are finite.
        Reruns the tape at that point; for error messages."""
        jet = self._slots(np.asarray(point, dtype=np.float64), order, keep=True)
        node, slot = tree, self.outputs[r]
        while True:
            # the argument columns of a slot start with its children's slots
            args = (self.args_a[slot], self.args_b[slot])[: len(node.children)]
            bad = next((k for k, s in enumerate(args)
                        if not all(d is None or np.isfinite(d).all() for d in jet[s])), None)
            if bad is None:
                return node
            node, slot = node.children[bad], args[bad]

    def __call__(self, points) -> np.ndarray:
        return self.jets(points, 0)[0]

    def jets(self, points, order: int) -> list:
        """Values and partials of the outputs at points (..., n), to
        order <= 2: [(..., K)], then (..., n, K) and (..., n, n, K), the
        derivative axes right after the batch axes, each stored with the
        first axis fastest (order "F")."""
        if not 0 <= order <= 2:
            raise ValueError(f"tape jets go up to order 2, not {order}")
        p = np.asarray(points, dtype=np.float64)
        jet = self._slots(p, order)
        batch, n, k = p.shape[:-1], p.shape[-1], len(self.outputs)
        out = [np.empty(batch + (k,), order="F")]
        out += [np.zeros(batch + (n,) * d + (k,), order="F") for d in range(1, order + 1)]
        for d, arr in enumerate(out):
            for r, s in enumerate(self.outputs):
                part = jet[s][d]
                if part is not None:
                    arr[..., r] = part
        return out


def _plus(x, y):
    """Sum of two derivatives, where None stands for an identically zero one."""
    if x is None:
        return y
    return x if y is None else x + y


def _scale(d, s, k: int):
    """A gradient (k = 1) or Hessian (k = 2) times s, a number or one
    value per point; None for None."""
    if d is None or s is None:
        return None
    return d * (s.reshape(s.shape + (1,) * k) if np.ndim(s) else s)


def _outer(x, y):
    if x is None or y is None:
        return None
    return x[..., :, None] * y[..., None, :]


def _sym(x, y):
    """x y^T + y x^T, the mixed term of a product's Hessian."""
    return _plus(_outer(x, y), _outer(y, x))


def _unary(op: int, a, k: int, order: int):
    """f(a) of a unary opcode, with f'(a) and f''(a) (None for 0) when
    order; k is POW's exponent."""
    if op == NEG:
        return np.negative(a), -1.0, None
    if op == EXP:
        v = np.exp(a)
        return v, v, v
    if op == POW:
        v = np.power(a, k)
        if not order:
            return v, None, None
        d1 = k * np.power(a, k - 1) if k else None
        return v, d1, k * (k - 1) * np.power(a, k - 2) if k not in (0, 1) else None
    v = np.sin(a) if op == SIN else np.cos(a)
    if not order:
        return v, None, None
    return v, np.cos(a) if op == SIN else -np.sin(a), -v

