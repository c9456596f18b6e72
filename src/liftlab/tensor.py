"""Tensor fields on an n-dimensional chart.

Every field is a Field: a chart dimension n and an index shape.  An
input field holds a tape of its components in row-major order; an
operator output holds a rule over its operands' values, or over none
(liftlab.presets.random_probe).  Every kind
shares one layout: evaluate(points) has shape points.shape[:-1] + shape
(a batch puts the point axis first), jets(points, order) adds the
derivative axes right after the batch axes, and partials() is the field
d_m (component) of shape (n,) + shape, derivative axis first.

The named kinds differ only in how their constructors read components
and in the order of evaluate's component axes, which is also the
row-major order of comps.  Indices count from 1, so index i sits at
position i - 1 of its axis, and coordinates are x1..xn.

- CovariantField, a (0,q) field: A_{j1..jq} on axes (j1, .., jq),
  ranked by rank_multi_index, which is also the fibre-coordinate order
  used by the bundle machinery;
- VectorField: V^i on axis (i);
- EndomorphismField: phi^i_j on axes (i, j), rows indexing the upper
  slot, so the evaluated matrix acts on column vectors;
- OneTwoTensorField: T^l_{jk} on axes (l, j, k);
- ConnectionField: Gamma^h_{ji} on axes (h, j, i), with the derivative
  (first lower) subscript j; its symmetry in (j, i) is measured at
  sample points, never declared;
- CurvatureField: R_{kji}^l on axes (k, j, i, l), lower indices first,
  following
  R_{kji}^l = d_k Gamma^l_{ji} - d_j Gamma^l_{ki}
              + Gamma^l_{km} Gamma^m_{ji} - Gamma^l_{jm} Gamma^m_{ki}.

An input field's components are strings over x1..xn or numbers, and
nothing else: a tree is given as its text.  The field takes its
expr.Tape from expr.compiled when it is built, the same tape as an
earlier field with the same components, and its jets from Tape.jets, to
order 2.  comps, the components as trees, is rendered from the tape on
first read (for an error message, a test, the benchmark's expression
counts) and then kept.  Points are (..., n) on the field's own chart;
any other last axis is a ValueError.

An operator is a float einsum over its operands' jets: its values
contract the operands' values and partials, its first partials follow
by the product rule, so it carries jets to order 1 and never asks an
input for more than 2.  Building one costs nothing.

One cache rule: nothing that depends on the points outlives the case,
and a case trusts by identity only the arrays it made.  All of it lives
in the table of one_case(), opened per case by cli.run_scenario and by a
public check called outside one (in_case); outside a case every read
computes.  enter(points) gives the case its own read-only copy of its
points.  There each field has one jets entry: its raw jets, non-finite
entries and all, and the lowest order at which they are not finite; a
read at any other array keeps nothing.  A shared form keys fields and
ints as themselves, and an array by identity only when the case made it
and holds it (its points, their jets); with any other, it forms anew.
An order-2 run holds the lower-order runs bit for bit (lower-order
Taylor coefficients do not depend on the truncation order), so one
entry serves every order up to its own.

Memory layout: every batched array keeps the point axis first in its
shape but stores it fastest in memory (stride one item), so that numpy's
inner loops run over the points rather than over index extents of 2 to
4.  Tape.jets writes its outputs that way, evaluate and partials_at copy
in the same order, and einsum below, the one contraction entry point,
returns its outputs that way too.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
from typing import Mapping, Sequence

import numpy as np

from .expr import SingularPointError, compiled

MAX_DIM = 4

# einsum letters for tensor slots; "m" is kept for the summed index.
SLOTS = "ABCDEFGH"


def rank_multi_index(mi: Sequence[int], n: int) -> int:
    """Row-major position of a multi-index (entries 1..n) in 0..n^q - 1."""
    q = len(mi)
    r = 0
    for slot, j in enumerate(mi, start=1):
        if not 1 <= j <= n:
            raise ValueError(f"multi-index entry {j} outside 1..{n}")
        r += (j - 1) * n ** (q - slot)
    return r


_CASE = contextvars.ContextVar("liftlab_case")  # the open case's table


@contextlib.contextmanager
def one_case():
    """A case table for the block; nothing in it refers back to it."""
    token = _CASE.set({})
    try:
        yield
    finally:
        _CASE.reset(token)


def enter(points) -> np.ndarray:
    """The open case's own read-only float64 copy of points, the one it is
    on when they are bit for bit the same (the table stays), else a new
    one (the table is emptied); outside a case, points as given."""
    table = _CASE.get(None)
    if table is None or table.get(enter) is points:
        return points
    p, own = np.array(points, dtype=np.float64), table.get(enter)
    if own is None or own.shape != p.shape or own.tobytes() != p.tobytes():
        table.clear()
        p.flags.writeable = False
        table[enter] = table[id(p)] = own = p  # the points, and an array the case made
    return own


def in_case(check):
    """check(.., points, ..) run as called when points are the open case's,
    else on enter(points) in a one_case() of its own."""
    signature = inspect.signature(check)
    at = list(signature.parameters).index("points")

    @functools.wraps(check)
    def run(*args, **kwargs):
        if len(args) > at and args[at] is _CASE.get({}).get(enter):
            return check(*args, **kwargs)
        call = signature.bind(*args, **kwargs)  # which raises as check would on a bad call
        with one_case():
            call.arguments["points"] = enter(call.arguments["points"])
            return check(*call.args, **call.kwargs)
    return run


def shared(form):
    """form(*operands), formed once per one_case() for the same operands
    (keyed as above), else on every call; an array output, alone or in a
    tuple, is made read-only, and a field output is named for the form."""
    @functools.wraps(form)
    def build(*operands):
        table, key = _CASE.get({}), [form]
        for a in operands:  # an operand the case did not make gives None
            key.append(a if isinstance(a, (Field, int))
                       else id(a) if table.get(id(a)) is a else None)
        key = tuple(key)
        if None not in key and key in table:
            return table[key][0]
        out = _read_only(form(*operands))
        if isinstance(out, Field):
            out.name = form.__name__.strip("_")
        if None not in key:  # the operands go in too, so that no other array takes their ids
            table[key] = out, operands
        return out
    return build


def _read_only(out):
    for a in out if isinstance(out, tuple) else (out,):
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base
    return out


class Jets(tuple):
    """Values and partials of one field at a batch of points: [0] the
    values, [k] the k-th partials, the derivative axes right after the
    batch axes.  + and - go entry by entry, to the lower of the two
    orders."""

    __slots__ = ()

    def __add__(self, other: "Jets") -> "Jets":
        return Jets(a + b for a, b in zip(self, other))

    def __sub__(self, other: "Jets") -> "Jets":
        return Jets(a - b for a, b in zip(self, other))

    @property
    def d(self) -> "Jets":
        """The partials as a field of their own, derivative index first."""
        return Jets(self[1:])


def einsum(spec: str, *operands: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.einsum with the output stored points-fastest (order "F"), so
    that the long point axis, not an index extent of 2 to 4, runs in
    einsum's inner loop; the logical shape is np.einsum's.  Every
    contraction of the package goes through here; out, when given, is
    written in place as by np.einsum."""
    return np.einsum(spec, *operands, order="F", out=out)


def jet_einsum(spec: str, *operands: Jets) -> Jets:
    """einsum of Jets over their batch axes: the values contract by
    spec, and so, by the product rule, do the first partials when every
    operand carries them.  The result carries order 0 or 1."""

    values = [j[0] for j in operands]
    out = einsum(_term_spec(spec, -1), *values)
    if min(map(len, operands)) < 2:
        return Jets((out,))
    terms = (einsum(_term_spec(spec, d), *values[:d], j[1], *values[d + 1 :])
             for d, j in enumerate(operands))  # with operand d differentiated
    partials = next(terms)  # a new array when a second term follows
    for term in terms:
        partials += term
    return Jets((out, partials))


@functools.cache
def _term_spec(spec: str, d: int) -> str:
    """jet_einsum's spec over the batch axes, with operand d's derivative
    axis Z in front of its subscripts and of the output's (d >= 0)."""
    ins, out = spec.split("->")
    subs = ",".join("..." + "Z" * (i == d) + s for i, s in enumerate(ins.split(",")))
    return f"{subs}->...{'Z' * (d >= 0)}{out}"


def slot_einsum(spec: str, q: int, *operands, slot: int = 0):
    """einsum with a subscript template over the q slots of a tensor.

    In spec, {S} stands for the slot letters, {s} for the letter of the
    given 0-based slot, and {R} for the slot letters with that one
    replaced by the summed index m.  Works alike on float arrays and,
    through jet_einsum, on Jets.
    """
    spec = _slot_spec(spec, q, slot)
    if isinstance(operands[0], Jets):
        return jet_einsum(spec, *operands)
    return einsum(spec, *operands)


@functools.cache
def _slot_spec(spec: str, q: int, slot: int) -> str:
    """slot_einsum's template spec written out for q slots and that slot."""
    letters = SLOTS[:q]
    swapped = letters[:slot] + "m" + letters[slot + 1 :]
    return spec.format(S=letters, s=letters[slot], R=swapped)


def sum_over_slots(spec: str, q: int, *operands):
    """slot_einsum summed over every slot, as in sum_s A_{j1..m..jq} (..)."""
    out = slot_einsum(spec, q, *operands)
    for s in range(1, q):
        out = out + slot_einsum(spec, q, *operands, slot=s)
    return out


def _check_dim(n: int) -> int:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"chart dimension must be in 1..{MAX_DIM}, got {n}")
    return n


def _same_chart(a: "Field", b: "Field", what: str) -> None:
    if a.n != b.n:
        raise ValueError(f"{what} live on different charts")


class Field:
    """Components of one index shape on an n-dimensional chart: symbolic
    for an input field, a rule over its operands for an operator output.
    An input field's tape is compiled from its components at
    construction; an operator output has no comps and its tape is None.
    name: the shared builder of an operator output, else None."""

    __slots__ = ("n", "shape", "tape", "name", "_comps", "_rule")
    kind = "field"  # names the field in a singular-point error

    def __init__(self, n: int, shape: tuple[int, ...], components):
        """components: nested sequences (or an array) of the given shape,
        or a Mapping of 1-based index tuples with every other component
        zero; each component a string over x1..xn or a number."""
        self.n = _check_dim(n)
        if isinstance(components, Mapping):
            grid = np.zeros(shape, dtype=object)
            for idx, v in components.items():
                if len(idx) != len(shape):
                    raise ValueError(f"index {idx} needs {len(shape)} entries")
                grid.flat[rank_multi_index(idx, n)] = v
        else:
            grid = np.array(components, dtype=object)
        if grid.shape != shape:
            raise ValueError(f"expected a {' x '.join(map(str, shape))} component grid")
        self.shape = shape
        if tuple in map(type, grid.flat):  # else the tape reads it as a (text, n) pair
            raise TypeError("cannot use tuple as an expression; give its text")
        self.tape = compiled([(v, n) if isinstance(v, str) else v for v in grid.flat])
        self.name, self._comps, self._rule = None, None, None

    @classmethod
    def _of(cls, n: int, shape: tuple[int, ...], rule) -> "Field":
        """Operator output: rule(points, order) gives its Jets to order
        <= 1, from the Jets of validated operands or, with none, from
        the points alone; it has no comps."""
        f = object.__new__(cls)
        f.n, f.shape, f._comps, f.tape, f._rule, f.name = n, shape, (), None, rule, None
        return f

    @property
    def comps(self) -> tuple:
        """The component expressions in row-major order, rendered from the
        tape on first read and kept: each a tree of its own, with a fresh
        node on every path.  Empty for an operator output."""
        if self._comps is None:
            self._comps = tuple(map(self.tape.tree, range(len(self.tape.outputs))))
        return self._comps

    def evaluate(self, points) -> np.ndarray:
        """Component values, shape points.shape[:-1] + shape."""
        return self.jets(points, 0)[0].copy(order="K")

    def partials(self) -> "Field":
        """Plain partial-derivative field d_m (component), derivative axis
        first; not itself a tensor.  That of a (0,q) field is a (0,q+1)
        CovariantField, that of any other kind a bare Field."""
        cls = type(self) if isinstance(self, CovariantField) else Field
        return cls._of(self.n, (self.n,) + self.shape, lambda p, k: self.jets(p, k + 1).d)

    def partials_at(self, points) -> np.ndarray:
        """Values of partials(), shape points.shape[:-1] + (n,) + shape."""
        return self.jets(points, 1)[1].copy(order="K")

    def jets(self, points, order: int) -> Jets:
        """Values and partials to the given order at points (..., n), as
        read-only arrays: an input field goes to order 2, an operator output
        to order 1.  At the case's points, the kept jets, unvalidated, when
        they are finite to order (the kept Jets itself when they end there).
        Raises SingularPointError when one of them is not finite."""
        entry = self._entry(points)
        if entry and 0 <= order < entry[1]:
            raw = entry[0]  # finite to order: what the path below returns
        else:
            p = self._points(points, order)
            raw, bad = self._raw(p, order)
            if bad <= order:
                self._non_finite(p, raw[bad], bad)
        return raw if len(raw) == order + 1 else Jets(raw[: order + 1])

    def finite_rows(self, points, order: int, fill: int | None = None) -> np.ndarray:
        """Mask of shape points.shape[:-1], True where an input field's
        values and partials to order are all finite; never raises.  A miss
        computes the jets to fill (order when not given, at least order),
        which at the case's points a later jets call up to fill reads."""
        p = self._points(points, order)
        fill = order if fill is None else max(order, fill)
        raw, bad = self._raw(self._points(p, fill), fill)
        rows = np.ones(p.shape[:-1], dtype=bool)
        for a in raw[bad : order + 1]:
            rows &= np.isfinite(a).all(axis=tuple(range(p.ndim - 1, a.ndim)))
        return rows

    @property
    def _top(self) -> int:
        """The highest jet order: 2 for an input field, 1 for an operator output."""
        return 2 if self._rule is None else 1

    def _points(self, points, order: int) -> np.ndarray:
        if not 0 <= order <= self._top:
            raise ValueError(f"{self.kind} jets go up to order {self._top}, not {order}")
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 0 or p.shape[-1] != self.n:
            raise ValueError(f"points on a chart of dimension {self.n} have shape "
                             f"(..., {self.n}), not {p.shape}")
        return p

    def _entry(self, p):
        """This field's jets entry (raw, bad) when p is the case's points."""
        table = _CASE.get({})
        return table.get(self) if table.get(enter) is p else None

    def _raw(self, p: np.ndarray, order: int) -> tuple[Jets, int]:
        """The jets at p to order or beyond, non-finite entries and all, and
        the lowest order at which one is not finite (len(jets) when none
        is): the entry when it goes that far, else computed to order, and
        at the case's points kept, as arrays the case made."""
        table, entry = _CASE.get({}), self._entry(p)
        if entry:
            if len(entry[0]) > order:
                return entry
            for a in table.pop(self)[0]:  # let the old jets go before the new ones are made
                table.pop(id(a), None)
        if self._rule is None:
            raw = Jets(a.reshape(p.shape[:-1] + (self.n,) * k + self.shape)
                       for k, a in enumerate(self.tape.jets(p, order)))
        else:
            raw = Jets(self._rule(p, order)[: order + 1])
        _read_only(raw)  # the owners too, the tape's outputs included
        bad = next((k for k, a in enumerate(raw) if not np.isfinite(a).all()), len(raw))
        if table.get(enter) is p:
            table[self] = raw, bad
            table.update((id(a), a) for a in raw)
        return raw, bad

    def _non_finite(self, p: np.ndarray, a: np.ndarray, k: int):
        at = np.unravel_index(np.argmin(np.isfinite(a)), a.shape)
        b = p.ndim - 1
        comp, point = at[b + k :], p[at[:b]]
        what = ("values", "partials", "second partials")[k]
        along = "".join(f" x{int(i) + 1}" for i in at[b : b + k])
        r = np.ravel_multi_index(comp, self.shape)
        subtree = None if self.tape is None else self.tape.non_finite_subtree(
            r, self.comps[r], point, k)
        raise SingularPointError(
            f"{self.kind} {what} evaluated non-finite at component "
            f"{tuple(int(i) + 1 for i in comp)}{' along' + along if k else ''}, "
            f"point {tuple(float(c) for c in point)}"
            f"{'' if self.name is None else f', in {self.name}'}"
            f"{'' if subtree is None else f', from {subtree}'}; the point is singular", subtree)


class CovariantField(Field):
    """A (0,q) tensor field with one symbolic component per multi-index.

    Built from a flat sequence in rank order, or from a Mapping of
    multi-index to component with the rest zero.  q >= 1 always; ranks
    above 3 only occur as outputs of derivative operators.
    """

    __slots__ = ()
    kind = "tensor field"

    def __init__(self, n: int, q: int, components):
        _check_dim(n)
        if q < 1:
            raise ValueError(f"covariant rank must be >= 1, got {q}")
        if not isinstance(components, Mapping):
            flat = list(components)
            if len(flat) != n**q:
                raise ValueError(f"expected {n ** q} components, got {len(flat)}")
            grid = np.empty(n**q, dtype=object)
            grid[:] = flat
            components = grid.reshape((n,) * q)
        super().__init__(n, (n,) * q, components)

    @property
    def q(self) -> int:
        return len(self.shape)


class VectorField(Field):
    __slots__ = ()
    kind = "vector field"

    def __init__(self, n: int, components):
        super().__init__(n, (n,), components)


class EndomorphismField(Field):
    """A (1,1) tensor field phi^i_j; rows index the upper slot."""

    __slots__ = ()
    kind = "endomorphism field"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n), components)


class OneTwoTensorField(Field):
    """A (1,2) tensor field T^l_{jk}, upper index first."""

    __slots__ = ()
    kind = "(1,2) tensor field"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n, n), components)


class ConnectionField(Field):
    """Affine connection coefficients Gamma^h_{ji} on the chart, symmetric
    in (j, i) or not; connection_lift measures the symmetry it needs."""

    __slots__ = ()
    kind = "connection"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n, n), components)


class CurvatureField(Field):
    """Curvature components R_{kji}^l of a connection, lower indices first."""

    __slots__ = ()
    kind = "curvature"

    def __init__(self, n: int, components):
        super().__init__(n, (n, n, n, n), components)


# ---------------------------------------------------------------------------
# Operators.  Each returns an output whose rule(p, k) gives its Jets to
# order k from its operands', taking one order more from an operand the
# formula differentiates.


@shared
def lie_derivative_cov(v: VectorField, a: CovariantField) -> CovariantField:
    """(L_V A)_{j1..jq} = V^m d_m A_{j1..jq} + sum_s A_{j1..m..jq} d_{js} V^m."""
    _same_chart(v, a, "vector field and tensor field")
    q = a.q

    def rule(p, k):
        vj, aj = v.jets(p, k + 1), a.jets(p, k + 1)
        transport = slot_einsum("m,m{S}->{S}", q, vj, aj.d)
        return transport + sum_over_slots("{s}m,{R}->{S}", q, vj.d, aj)

    return CovariantField._of(a.n, a.shape, rule)


@shared
def lie_derivative_endo(v: VectorField, phi: EndomorphismField) -> EndomorphismField:
    """(L_V phi)^i_j = V^m d_m phi^i_j - phi^m_j d_m V^i + phi^i_m d_j V^m."""
    _same_chart(v, phi, "vector field and endomorphism")

    def rule(p, k):
        vj, f = v.jets(p, k + 1), phi.jets(p, k + 1)
        dv = vj.d
        return (
            jet_einsum("m,mij->ij", vj, f.d)
            - jet_einsum("mj,mi->ij", f, dv)
            + jet_einsum("im,jm->ij", f, dv)
        )

    return EndomorphismField._of(phi.n, phi.shape, rule)


def contraction(cls, shape, spec: str, a: Field, b: Field, q: int = 0, slot: int = 0):
    """The cls output of that shape contracting a and b by spec, with no
    derivative taken; with q, spec is a slot_einsum template over q slots."""

    def rule(p, k):
        aj, bj = a.jets(p, k), b.jets(p, k)
        return slot_einsum(spec, q, aj, bj, slot=slot) if q else jet_einsum(spec, aj, bj)

    return cls._of(a.n, shape, rule)


@shared
def apply_endo_cov(phi: EndomorphismField, a: CovariantField) -> CovariantField:
    """First-slot action (phi A)_{j1..jq} = phi^m_{j1} A_{m j2..jq}."""
    _same_chart(phi, a, "endomorphism and tensor field")
    return contraction(CovariantField, a.shape, "m{s},{R}->{S}", phi, a, a.q)


@shared
def apply_endo_vec(phi: EndomorphismField, v: VectorField) -> VectorField:
    """(phi V)^i = phi^i_m V^m."""
    _same_chart(phi, v, "endomorphism and vector field")
    return contraction(VectorField, v.shape, "im,m->i", phi, v)


@shared
def compose_endo(f: EndomorphismField, g: EndomorphismField) -> EndomorphismField:
    """(f g)^i_j = f^i_m g^m_j."""
    _same_chart(f, g, "endomorphisms")
    return contraction(EndomorphismField, f.shape, "im,mj->ij", f, g)


@shared
def contract_slot_endo(a: CovariantField, phi: EndomorphismField, slot: int) -> CovariantField:
    """Contraction of phi into one lower slot:
    out_{j1..jq} = phi^m_{j(slot)} A_{j1..m..jq}, slot counted from 1."""
    _same_chart(phi, a, "endomorphism and tensor field")
    if not 1 <= slot <= a.q:
        raise ValueError(f"slot {slot} outside 1..{a.q}")
    return contraction(CovariantField, a.shape, "m{s},{R}->{S}", phi, a, a.q, slot - 1)


@shared
def covariant_derivative_cov(gamma: ConnectionField, a: CovariantField) -> CovariantField:
    """(nabla A)_{i j1..jq} = d_i A_{j1..jq} - sum_s Gamma^m_{i js} A_{j1..m..jq}.

    The derivative index comes first in the result's multi-index.
    """
    _same_chart(gamma, a, "connection and tensor field")
    q = a.q

    def rule(p, k):
        aj = a.jets(p, k + 1)
        return aj.d - sum_over_slots("mi{s},{R}->i{S}", q, gamma.jets(p, k), aj)

    return CovariantField._of(a.n, (a.n,) + a.shape, rule)


@shared
def curvature(gamma: ConnectionField) -> CurvatureField:
    """Curvature of the connection."""

    def rule(p, k):
        dg = gamma.jets(p, k + 1).d  # dg[.., m, h, j, i] = d_m Gamma^h_{ji}
        g = gamma.jets(p, k)
        return (
            jet_einsum("klji->kjil", dg)
            - jet_einsum("jlki->kjil", dg)
            + jet_einsum("lkm,mji->kjil", g, g)
            - jet_einsum("ljm,mki->kjil", g, g)
        )

    return CurvatureField._of(gamma.n, (gamma.n,) * 4, rule)
