"""Parse, differentiate and evaluate one-variable function text.

Grammar (no implicit multiplication)::

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' unary]              # right-associative, tightest
    atom    := NUMBER | 'pi' | IDENT | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := exp | sin | cos | sqrt | log  # log is natural log

``-x^2`` parses as ``-(x^2)``.  Numeric literals are kept as decimal text in
the tree and converted at evaluation precision, so ``0.083`` stays honest at
1000 digits.  Trees are immutable; evaluation is reentrant.

:func:`build_tape` flattens a tree and its derivative into a :class:`Tape`
that depends on the text alone: its constants fold when a *lowering* (op
names -> functions on one kind of value) binds it, at that binding's
precision.  :func:`compile_tape` parses text into a tape and :func:`lower`
binds it: under :func:`mp_lowering` it is :func:`compile_pair`'s jet
``x -> (f(x), f'(x))`` for the solver, and its f-only form is
:func:`compile_fn`; the basin renderer lowers it onto fixed-point integer
lanes, a group of pixels at once (:mod:`iciroot.basins`).
"""

from __future__ import annotations

import operator
import re as _re
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import MappingProxyType

from mpmath.libmp import mpc_mul, mpc_pos, mpc_reciprocal, mpc_square, round_down

from .mpscalar import Precision, cos_sin_real, digits_of, exp_real, is_real_scalar, ln_abs, parse_real

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "log")
CONSTANTS = ("pi",)


class ExprError(ValueError):
    """Base error for expression parsing/evaluation."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(f"{message} (at offset {offset})" if offset >= 0 else message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


def _within_stack(fn):
    """``fn`` with a tree too deep for the interpreter's stack reported as ExprSyntaxError."""
    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ExprSyntaxError("expression is nested too deeply") from None
    return guarded


# ---------------------------------------------------------------------------
# tree nodes

@dataclass(frozen=True)
class Num:
    text: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


def free_variables(e) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.child)
    if isinstance(e, Bin):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return set()


# ---------------------------------------------------------------------------
# parsing

_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = _bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = _bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _neg(self.unary())
        if kind == "op" and val == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return _bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {val!r}", off)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in CONSTANTS:
                return Const(val)
            if val in FUNCTIONS:
                raise ExprSyntaxError(f"function {val!r} needs an argument list", off)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


@_within_stack
def parse(text: str):
    """Parse function text into an expression tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus the 0/1 identities, nothing deeper

def _is_int_literal(e) -> bool:
    # up to 2000 digits, so a folded product stays within Python's 4300-digit
    # int <-> text limit; longer integers stay literals, read by parse_real
    return isinstance(e, Num) and _re.fullmatch(r"\d{1,2000}", e.text) is not None


_ZERO = Num("0")
_ONE = Num("1")


def _is_zero(e):
    # by value: a literal is zero when every digit of its mantissa is, so
    # ".0", "0e1" and "0.0e5" are zero as well as "0"
    return isinstance(e, Num) and _re.fullmatch(r"[0.]+(?:[eE][+-]?\d+)?", e.text) is not None


def _is_one(e):
    return isinstance(e, Num) and _re.fullmatch(r"1(\.0*)?", e.text) is not None


def _neg(e):
    if _is_zero(e):
        return _ZERO
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


def _bin(op, a, b):
    if op == "+":
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if _is_int_literal(a) and _is_int_literal(b):
            return Num(str(int(a.text) + int(b.text)))
        return Bin("+", a, b)
    if op == "-":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return _neg(b)
        if _is_int_literal(a) and _is_int_literal(b) and int(a.text) >= int(b.text):
            return Num(str(int(a.text) - int(b.text)))
        return Bin("-", a, b)
    if op == "*":
        if _is_zero(a) or _is_zero(b):
            return _ZERO
        if _is_one(a):
            return b
        if _is_one(b):
            return a
        if _is_int_literal(a) and _is_int_literal(b):
            return Num(str(int(a.text) * int(b.text)))
        return Bin("*", a, b)
    if op == "/":
        if _is_zero(a) and not _is_zero(b):
            return _ZERO
        if _is_one(b):
            return a
        return Bin("/", a, b)
    if op == "^":
        if _is_zero(b):
            return _ONE
        if _is_one(b):
            return a
        if _is_one(a):
            return _ONE
        return Bin("^", a, b)
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, var: str):
    """Exact symbolic derivative of ``e`` with respect to ``var``.

    Only constant folding and 0/1 identities are applied; derivative trees
    are correct, not pretty.
    """
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(differentiate(e.child, var))
    if isinstance(e, Bin):
        u, v = e.left, e.right
        du, dv = differentiate(u, var), differentiate(v, var)
        if e.op in "+-":
            return _bin(e.op, du, dv)
        if e.op == "*":
            return _bin("+", _bin("*", du, v), _bin("*", u, dv))
        if e.op == "/":
            num = _bin("-", _bin("*", du, v), _bin("*", u, dv))
            return _bin("/", num, _bin("^", v, Num("2")))
        if e.op == "^":
            if not free_variables(v):
                # constant exponent: power rule (an integer literal folds, v - 1 >= 1)
                return _bin("*", _bin("*", v, _bin("^", u, _bin("-", v, _ONE))), du)
            # general case: u^v * (dv*log(u) + v*du/u)
            t1 = _bin("*", dv, Call("log", u))
            t2 = _bin("/", _bin("*", v, du), u)
            return _bin("*", _bin("^", u, v), _bin("+", t1, t2))
    if isinstance(e, Call):
        u, du = e.arg, differentiate(e.arg, var)
        if e.fn == "exp":
            outer = Call("exp", u)
        elif e.fn == "sin":
            outer = Call("cos", u)
        elif e.fn == "cos":
            outer = _neg(Call("sin", u))
        elif e.fn == "sqrt":
            return _bin("/", du, _bin("*", Num("2"), Call("sqrt", u)))
        elif e.fn == "log":
            return _bin("/", du, u)
        else:
            raise UnknownIdentifierError(f"unknown function {e.fn!r}")
        return _bin("*", outer, du)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation: one tape, lowered once per kind of value

@dataclass(frozen=True)
class Tape:
    """A tree, and optionally its derivative, flattened into numbered slots.

    It depends on the text alone.  Slot 0 is x; each other slot k has one
    step ``(k, op, i, j, arg)`` computing ``lowering[op](arg)(vals[i],
    vals[j])`` (op: ``num pi add sub mul div neg powint pow exp log sqrt
    cos_sin pick``; a unary op ignores vals[j]).  ``consts`` are the steps
    of the constant slots (``num`` of a literal's text, ``pi``, an op on
    constant slots), which :func:`lower` runs once per binding; ``steps``
    run on each call.  ``outputs`` are f's slot and, if held, f''s.  A
    division by zero or an overflow in an output's ``cone`` (the slots it
    depends on) makes it NaN, as in a tree walk that the exception ends:
    mpmath alone would let a NaN vanish (an mpc NaN**0 is 1).
    """

    consts: tuple
    steps: tuple
    outputs: tuple
    cones: tuple


_BINARY_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}
_EXACT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_EXACT_DIGITS = 2000
_EXACT_LIMIT = 10 ** _EXACT_DIGITS
_MAX_ARG_MAG = 1 << 16
_MAX_EXP_MAG = 1024         # pow: log2 of the exponent magnitude at which it raises OverflowError


def _int_exponent(e):
    """The integer that the exponent ``e`` is, exactly, else None.

    An integer literal is read from its text; anything else folds as an
    exact rational through literals, ``+ - * /`` and negation only (``6/2``
    is 3; ``3+1e-50``, ``pi`` and functions are None).  A literal past
    _EXACT_DIGITS digits and exponent, or a value whose numerator or
    denominator reaches _EXACT_LIMIT, is None: ``1e100000000`` builds none.
    """
    if _is_int_literal(e):
        return int(e.text)
    from fractions import Fraction          # off the cold start: only for other exponents

    def exact(node):
        v = None
        if isinstance(node, Num):
            mantissa, _, exp = node.text.lower().partition("e")
            if len(mantissa) + abs(int(exp or 0)) <= _EXACT_DIGITS:
                v = Fraction(node.text)
        elif isinstance(node, Neg):
            v = exact(node.child)
            v = None if v is None else -v
        elif isinstance(node, Bin) and node.op in _EXACT_OPS:
            a, b = exact(node.left), exact(node.right)
            if a is not None and b is not None and (b or node.op != "/"):
                v = _EXACT_OPS[node.op](a, b)
        return v if v is not None and abs(v.numerator) < _EXACT_LIMIT > v.denominator else None
    v = exact(e)
    return v.numerator if v is not None and v.denominator == 1 else None


def build_tape(e, var: str, derivative: bool = True):
    """Flatten ``e`` (and ``differentiate(e, var)`` when ``derivative``) into a :class:`Tape`.

    Each distinct subexpression gets one slot, shared by f and f'.
    Variable-free subtrees are constant steps; ``sin`` and ``cos`` of one
    argument read one ``cos_sin`` slot; ``exp(u)`` is one slot serving f
    and f'; ``u^n`` (n >= 3) is ``powint``, u^(n-1) * u, reusing the
    u^(n-1) of n*u^(n-1); a ``pow`` carries :func:`_int_exponent` as arg.
    """
    consts, steps = [], []
    cones = [frozenset({0})]    # per slot: the slots it depends on, itself included; 0 is x
    # Equal subtrees share a slot.  A frozen node rehashes its whole subtree on
    # every hash, so subtrees are keyed by a structural id instead: one id per
    # distinct (kind, fields, ids of children), found once per node object.
    ids = {}        # id(node) -> structural id
    interned = {}   # key -> structural id
    index = {}      # structural id, or ("cos_sin", structural id) -> slot

    def sid(node):
        s = ids.get(id(node))
        if s is None:
            kind = type(node)
            if kind is Bin:
                key = (Bin, node.op, sid(node.left), sid(node.right))
            elif kind is Neg:
                key = (Neg, sid(node.child))
            elif kind is Call:
                key = (Call, node.fn, sid(node.arg))
            else:
                key = node          # a leaf hashes in O(1)
            s = ids[id(node)] = interned.setdefault(key, len(interned))
        return s

    def add(op, i, j=None, arg=None):
        j = i if j is None else j
        k = len(cones)
        cones.append(cones[i] | cones[j] | {k})
        (steps if 0 in cones[k] else consts).append((k, op, i, j, arg))
        return k

    def constant(op, arg=None):
        consts.append((len(cones), op, 0, 0, arg))
        cones.append(frozenset())
        return len(cones) - 1

    def slot(node):
        s = sid(node)
        k = index.get(s)
        if k is None:
            k = index[s] = build(node)
        return k

    def build(node):
        if isinstance(node, Num):
            return constant("num", node.text)
        if isinstance(node, Const):
            return constant("pi")
        if isinstance(node, Var):
            if node.name != var:
                raise UnknownIdentifierError(
                    f"unbound identifier {node.name!r} (expected variable {var!r})")
            return 0
        if isinstance(node, Neg):
            return add("neg", slot(node.child))
        if isinstance(node, Bin):
            u = slot(node.left)
            n = _int_exponent(node.right) if node.op == "^" else None
            if _is_int_literal(node.right) and n is not None and n >= 3:
                lower = index.get(interned.get((Bin, "^", sid(node.left),
                                                interned.get(Num(str(n - 1))))))
                if lower is not None:       # f' is built first: it needs u^(n-1)
                    return add("powint", lower, u, n)
            return add(_BINARY_OPS[node.op], u, slot(node.right), n)
        if isinstance(node, Call):
            if node.fn in ("sin", "cos"):
                key = ("cos_sin", sid(node.arg))
                pair = index.get(key)
                if pair is None:
                    pair = index[key] = add("cos_sin", slot(node.arg))
                return add("pick", pair, arg=0 if node.fn == "cos" else 1)
            return add(node.fn, slot(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    kd = slot(differentiate(e, var)) if derivative else None     # f' first: see powint
    kf = slot(e)
    outputs = (kf,) if kd is None else (kf, kd)
    return Tape(tuple(consts), tuple(steps), outputs, tuple(cones[k] for k in outputs))


def square_and_multiply(a, n: int, mul, square):
    """a**n for an int n >= 0 by binary powering on ``mul(u, v)`` and ``square(u)``; None for n = 0."""
    r = None
    while n:
        if n & 1:
            r = a if r is None else mul(r, a)
        n >>= 1
        if n:
            a = square(a)
    return r


@lru_cache(maxsize=None)
def mp_lowering(ctx, complex_mode: bool = False) -> MappingProxyType:
    """The mpmath lowering: each op name -> ``arg -> fn(a, b)`` on ``ctx``'s values.

    Built once per context (a :class:`~iciroot.mpscalar.Precision`'s) and
    mode, and shared, so it is read-only.  "const" (the identity) and "nan"
    (the mode's NaN) are not ops.  The args: ``num`` takes a literal's text;
    ``pick`` 0 for cos and 1 for sin of a ``cos_sin`` pair; ``powint`` n;
    ``pow`` its exponent when that is exactly an integer, else None.  In
    real mode a domain violation of ``pow``/``log``/``sqrt`` gives NaN; in
    complex mode the principal branches are used.

    ``pow`` by an integer n, |n| >= 3, of a finite complex value is binary
    powering on mpmath's raw tuples at ``prec + 2*bitlen(|n|) + 10`` bits,
    rounded once (for n < 0, u^|n| is cut to ``prec + 4`` bits and inverted
    once, as mpmath does): mpmath's ``**`` takes log and exp once |n| times
    the operand's bits reach 10,000, about 70 times as long at 1000 digits.
    Below that cutoff the two round to the same bits unless u^n lies within
    about 2**-(prec + bitlen(|n|) + 10) of a rounding boundary.  Real
    values, non-finite bases (mpmath's NaN**3 == 0), |n| <= 2 and other
    exponents keep ``**``.

    A real-mode jet takes mpfs only.  Its ``exp``, ``log`` (NaN below zero)
    and ``cos_sin`` are :func:`~iciroot.mpscalar.exp_real`,
    :func:`~iciroot.mpscalar.ln_abs` and :func:`~iciroot.mpscalar.cos_sin_real`:
    fixed-point kernels from about 750 to 12,000 digits, mpmath's functions
    elsewhere.  In both modes ``exp`` and ``cos_sin`` of a finite a with
    log2|a| past _MAX_ARG_MAG raise OverflowError: mpmath's time for them
    grows with the square of log2|a| (0.1 s at 2**16, 23 s at 2**20).  So
    does ``pow`` by an exponent with a part of magnitude 2**_MAX_EXP_MAG or
    more, read from its raw tuple: mpmath's working precision for it grows
    with the exponent's bits (11 s for 0.3**1e3000 at 30 digits).
    """
    nan = ctx.nan
    p = Precision(digits_of(ctx))

    def real_only(r):
        return r if is_real_scalar(r) else nan

    def pow_(a, b):
        if any(t[2] + t[3] > _MAX_EXP_MAG for t in getattr(b, "_mpc_", None) or (b._mpf_,)):
            raise OverflowError("exponent too large")
        return a ** b if complex_mode else real_only(a ** b)

    def pow_step(n):
        if not complex_mode or n is None or abs(n) < 3 or n.bit_length() > _MAX_EXP_MAG:
            return pow_
        guard = 2 * abs(n).bit_length() + 10

        def int_pow(a, b):
            if not (hasattr(a, "_mpc_") and ctx.isfinite(a)):
                return pow_(a, b)
            prec, rnd = ctx._prec_rounding
            wp = prec + guard
            r = square_and_multiply(a._mpc_, abs(n), lambda u, v: mpc_mul(u, v, wp, rnd),
                                    lambda u: mpc_square(u, wp, rnd))
            if n < 0:
                return ctx.make_mpc(mpc_reciprocal(mpc_pos(r, prec + 4, round_down), prec, rnd))
            return ctx.make_mpc(mpc_pos(r, prec, rnd))
        return int_pow

    def call(fn):
        g = getattr(ctx, fn)
        if complex_mode:
            return lambda a, _: g(a)
        return lambda a, _: real_only(g(a))

    def real_exp(a, _):
        return ctx.make_mpf(exp_real(a, ctx.prec))

    def real_log(a, _):
        return nan if a._mpf_[0] else ctx.make_mpf(ln_abs(a, ctx.prec))

    def real_cos_sin(a, _):
        c, s = cos_sin_real(a, ctx.prec)
        return ctx.make_mpf(c), ctx.make_mpf(s)

    def powint(n):
        n_mp = ctx.mpf(n)

        # mpmath's integer powers of a non-finite complex value follow their
        # own rules (NaN**3 == 0): keep ** there
        def times_base(lower_pow, base):
            return lower_pow * base if ctx.isfinite(base) else pow_(base, n_mp)
        return times_base

    def fixed(fn):
        return lambda _: fn

    def bounded(fn):
        def guarded(a, b):
            if ctx.isfinite(a) and ctx.mag(a) > _MAX_ARG_MAG:
                raise OverflowError("argument too large")
            return fn(a, b)
        return guarded

    return MappingProxyType({
        "const": lambda v: v,
        "nan": ctx.mpc(nan, nan) if complex_mode else nan,
        "num": lambda text: lambda a, b: parse_real(text, p),
        "pi": fixed(lambda a, b: +ctx.pi),
        "add": fixed(operator.add),
        "sub": fixed(operator.sub),
        "mul": fixed(operator.mul),
        "div": fixed(operator.truediv),
        "neg": fixed(lambda a, _: -a),
        "pow": pow_step,
        "powint": powint,
        "exp": fixed(bounded(call("exp") if complex_mode else real_exp)),
        "log": fixed(call("log") if complex_mode else real_log),
        "sqrt": fixed(call("sqrt")),
        "cos_sin": fixed(bounded(call("cos_sin") if complex_mode else real_cos_sin)),
        "pick": lambda k: lambda t, _: t[k],
    })


def lower(tape: Tape, lowering: dict):
    """Bind ``tape`` to one lowering; returns ``run(x)``, f(x) or (f(x), f'(x)).

    The constant steps run once here, on the mpmath lowering
    ``lowering["fold"]`` (else ``lowering``), at its precision and mode;
    "const" puts each value in the lowering's form.  An output is NaN (the
    fold's "nan") where a division by zero or an overflow in its cone did.

    Under :func:`mp_lowering` one call runs the tape once, so each distinct
    subexpression is evaluated once, and each output keeps the semantics of
    a node-by-node walk of its own tree, every fold of ``differentiate``
    included: it is NaN where that walk gives NaN, and only there
    (``sqrt(x)`` at 0 gives f = 0 and f' = NaN).  Values are bit-identical
    to that walk's except integer powers: u^n for n >= 3 is u^(n-1) * u,
    rounded twice, and a complex ``pow`` by an integer is binary powering
    (:func:`mp_lowering`), whose last bits may differ above mpmath's
    exact-power cutoff.
    """
    def execute(vals, steps, failed):
        for k, fn, i, j in steps:
            try:
                vals[k] = fn(vals[i], vals[j])
            except (ZeroDivisionError, OverflowError):
                vals[k] = nan
                failed = failed | {k}
        return failed

    fold = lowering.get("fold", lowering)
    nan, const = fold["nan"], lowering["const"]
    vals = [None] * (1 + len(tape.consts) + len(tape.steps))
    raised = execute(vals, [(k, fold[op](arg), i, j) for k, op, i, j, arg in tape.consts], frozenset())
    template = [None if v is None else const(v) for v in vals]
    steps = [(k, lowering[op](arg), i, j) for k, op, i, j, arg in tape.steps]
    outputs = tuple(zip(tape.outputs, tape.cones))
    get = operator.itemgetter(*tape.outputs)

    def run(x):
        vals = template.copy()
        vals[0] = x
        failed = execute(vals, steps, raised)
        if failed:
            for k, cone in outputs:
                if not failed.isdisjoint(cone):
                    vals[k] = nan
        return get(vals)
    return run


def compile_fn(e, var: str, p: Precision, complex_mode: bool = False):
    """Compile a tree into ``x -> f(x)`` at precision ``p``: its f-only tape under :func:`mp_lowering`."""
    return lower(build_tape(e, var, derivative=False), mp_lowering(p.ctx, complex_mode))


def _sole_variable(e) -> str:
    """The one free variable of ``e`` ("x" when there is none, which no node reads)."""
    names = free_variables(e)
    if len(names) > 1:
        extra = sorted(names)[1]
        raise UnknownIdentifierError(f"more than one variable in expression: {extra!r}")
    return names.pop() if names else "x"


@_within_stack
def compile_tape(text: str) -> Tape:
    """Parse one-variable function text into the tape of f and f'."""
    tree = parse(text)
    return build_tape(tree, _sole_variable(tree))


def compile_pair(text: str, p: Precision, complex_mode: bool):
    """Parse one-variable function text into its mpmath jet ``x -> (f(x), f'(x))``."""
    return lower(compile_tape(text), mp_lowering(p.ctx, complex_mode))

