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

:func:`compile_fn` compiles one tree into a closure ``x -> value``; it is
the reference evaluator.  :func:`compile_jet` compiles a tree and its
symbolic derivative into one "jet" closure ``x -> (f(x), f'(x))`` that
evaluates every subexpression the two share once per call: variable-free
subtrees are folded to values at compile time, ``sin``/``cos`` of one
argument come from a single cos/sin evaluation, ``exp(u)`` serves as its own
derivative factor, and ``u^n`` reuses the ``u^(n-1)`` of n*u^(n-1).  Each
component equals :func:`compile_fn` of its own tree, NaN where that gives
NaN.  :func:`compile_pair` parses text into this jet; the solver and the
basin renderer use it.
"""

from __future__ import annotations

import operator
import re as _re
from dataclasses import dataclass

from .mpscalar import Precision, is_complex_scalar, is_real_scalar

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


def parse(text: str):
    """Parse function text into an expression tree."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus the 0/1 identities, nothing deeper

def _is_int_literal(e) -> bool:
    return isinstance(e, Num) and _re.fullmatch(r"\d+", e.text) is not None


def _int_of(e) -> int:
    return int(e.text)


_ZERO = Num("0")
_ONE = Num("1")


def _is_zero(e):
    return isinstance(e, Num) and _re.fullmatch(r"0+(\.0*)?", e.text) is not None


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
            return Num(str(_int_of(a) + _int_of(b)))
        return Bin("+", a, b)
    if op == "-":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return _neg(b)
        if _is_int_literal(a) and _is_int_literal(b) and _int_of(a) >= _int_of(b):
            return Num(str(_int_of(a) - _int_of(b)))
        return Bin("-", a, b)
    if op == "*":
        if _is_zero(a) or _is_zero(b):
            return _ZERO
        if _is_one(a):
            return b
        if _is_one(b):
            return a
        if _is_int_literal(a) and _is_int_literal(b):
            return Num(str(_int_of(a) * _int_of(b)))
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
                # constant exponent: power rule
                if _is_int_literal(v):
                    new_exp = Num(str(_int_of(v) - 1))
                else:
                    new_exp = _bin("-", v, _ONE)
                return _bin("*", _bin("*", v, _bin("^", u, new_exp)), du)
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
# rendering (canonical, fully parenthesized)

def render(e) -> str:
    if isinstance(e, Num):
        return e.text
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{render(e.child)})"
    if isinstance(e, Bin):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def compile_fn(e, var: str, p: Precision, complex_mode: bool = False):
    """Compile a tree into a fast single-argument closure at precision ``p``.

    Literals are converted once at the target precision.  In real mode a
    domain violation (sqrt/log/power of a negative argument) or a division
    by zero yields a NaN sentinel instead of raising; in complex mode the
    principal branches are used and only division by zero maps to NaN.
    """
    ctx = p.ctx
    nan = ctx.mpf("nan")
    nan_result = ctx.mpc(nan, nan) if complex_mode else nan

    def build(node):
        if isinstance(node, Num):
            c = ctx.mpf(node.text)
            return lambda x: c
        if isinstance(node, Const):
            c = +ctx.pi
            return lambda x: c
        if isinstance(node, Var):
            if node.name != var:
                raise UnknownIdentifierError(
                    f"unbound identifier {node.name!r} (expected variable {var!r})")
            return lambda x: x
        if isinstance(node, Neg):
            f = build(node.child)
            return lambda x: -f(x)
        if isinstance(node, Bin):
            lf, rf = build(node.left), build(node.right)
            op = node.op
            if op == "+":
                return lambda x: lf(x) + rf(x)
            if op == "-":
                return lambda x: lf(x) - rf(x)
            if op == "*":
                return lambda x: lf(x) * rf(x)
            if op == "/":
                return lambda x: lf(x) / rf(x)
            if complex_mode:
                return lambda x: lf(x) ** rf(x)

            def real_pow(x):
                r = lf(x) ** rf(x)
                return r if is_real_scalar(r) else nan
            return real_pow
        if isinstance(node, Call):
            f = build(node.arg)
            fn = getattr(ctx, node.fn)
            if complex_mode or node.fn in ("exp", "sin", "cos"):
                return lambda x: fn(f(x))

            def real_call(x):
                r = fn(f(x))
                return r if is_real_scalar(r) else nan
            return real_call
        raise TypeError(f"not an expression node: {node!r}")

    body = build(e)

    def evaluate_at(x):
        try:
            return body(x)
        except ZeroDivisionError:
            return nan_result
    return evaluate_at


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def compile_jet(e, var: str, p: Precision, complex_mode: bool = False):
    """Compile ``e`` and its exact derivative into one closure ``x -> (f(x), f'(x))``.

    One call sweeps once over the DAG that ``e`` and ``differentiate(e, var)``
    form together, so each distinct subexpression is evaluated once (the
    module docstring lists what is shared).  Each component keeps the
    semantics of :func:`compile_fn` on its own tree, every fold of
    ``differentiate`` included: it is NaN where that closure gives NaN, and
    only there (``sqrt(x)`` at 0 gives f = 0 and f' = NaN).  Values are
    bit-identical to that closure's except u^n for n >= 3, rounded twice.
    """
    ctx = p.ctx
    nan = ctx.mpf("nan")
    nan_result = ctx.mpc(nan, nan) if complex_mode else nan

    def real_only(r):
        return r if is_real_scalar(r) else nan

    def pow_(a, b):
        return a ** b if complex_mode else real_only(a ** b)

    def call(fn):
        g = getattr(ctx, fn)
        if complex_mode or fn == "exp":
            return lambda a, _: g(a)
        return lambda a, _: real_only(g(a))

    # slot 0 is x; a slot holds a value fixed here, or None when a step
    # (slot, fn, i, j) computes it per call as fn(vals[i], vals[j]) (a unary
    # fn ignores its second argument)
    template = [None]
    steps = []
    # compile_fn turns a ZeroDivisionError anywhere in its tree into a NaN
    # result, even where a NaN would not propagate (an mpc NaN**0 is 1): a
    # component is NaN when a slot in its cone raised
    raised = set()          # slots whose evaluation here raised ZeroDivisionError
    cones = [frozenset()]   # per slot: the computed slots it depends on, itself included
    index = {}

    def add(fn, i, j=None):
        j = i if j is None else j
        k = len(template)
        value = None
        if template[i] is None or template[j] is None:
            steps.append((k, fn, i, j))
        else:
            try:
                value = fn(template[i], template[j])
            except ZeroDivisionError:
                value = nan_result
                raised.add(k)
        template.append(value)
        cones.append(cones[i] | cones[j] | {k})
        return k

    def constant(value):
        template.append(value)
        cones.append(frozenset())
        return len(template) - 1

    def slot(node):
        k = index.get(node)
        if k is None:
            k = index[node] = build(node)
        return k

    def build(node):
        if isinstance(node, Num):
            return constant(ctx.mpf(node.text))
        if isinstance(node, Const):
            return constant(+ctx.pi)
        if isinstance(node, Var):
            if node.name != var:
                raise UnknownIdentifierError(
                    f"unbound identifier {node.name!r} (expected variable {var!r})")
            return 0
        if isinstance(node, Neg):
            return add(lambda a, _: -a, slot(node.child))
        if isinstance(node, Bin):
            u = slot(node.left)
            if node.op == "^" and _is_int_literal(node.right) and _int_of(node.right) >= 3:
                n = _int_of(node.right)
                lower = index.get(Bin("^", node.left, Num(str(n - 1))))
                if lower is not None:       # f' is built first: it needs u^(n-1)
                    n_mp = ctx.mpf(n)

                    # mpmath's integer powers of a non-finite complex value
                    # follow their own rules (NaN**3 == 0): keep ** there
                    def times_base(lower_pow, base):
                        return lower_pow * base if ctx.isfinite(base) else pow_(base, n_mp)
                    return add(times_base, lower, u)
            return add(_ARITH.get(node.op, pow_), u, slot(node.right))
        if isinstance(node, Call):
            if node.fn in ("sin", "cos"):
                pair = index.get(("cos_sin", node.arg))
                if pair is None:
                    pair = index[("cos_sin", node.arg)] = add(
                        lambda a, _: ctx.cos_sin(a), slot(node.arg))
                pick = 0 if node.fn == "cos" else 1
                return add(lambda t, _: t[pick], pair)
            return add(call(node.fn), slot(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    kd = slot(differentiate(e, var))
    kf = slot(e)
    cone_f, cone_d = cones[kf], cones[kd]
    static_raised = frozenset(raised)

    def jet(x):
        vals = template.copy()
        vals[0] = x
        failed = static_raised
        for k, fn, i, j in steps:
            try:
                vals[k] = fn(vals[i], vals[j])
            except ZeroDivisionError:
                vals[k] = nan_result
                failed = failed | {k}
        if failed:
            return (vals[kf] if failed.isdisjoint(cone_f) else nan_result,
                    vals[kd] if failed.isdisjoint(cone_d) else nan_result)
        return vals[kf], vals[kd]
    return jet


def _sole_variable(e) -> str:
    """The one free variable of ``e`` ("x" when there is none, which no node reads)."""
    names = free_variables(e)
    if len(names) > 1:
        extra = sorted(names)[1]
        raise UnknownIdentifierError(f"more than one variable in expression: {extra!r}")
    return names.pop() if names else "x"


def compile_pair(text: str, p: Precision, complex_mode: bool):
    """Parse one-variable function text into its jet ``x -> (f(x), f'(x))``."""
    tree = parse(text)
    return compile_jet(tree, _sole_variable(tree), p, complex_mode)


def evaluate(e, x, p: Precision):
    """Evaluate ``e`` at the point ``x`` (real or complex) at precision ``p``."""
    f = compile_fn(e, _sole_variable(e), p, is_complex_scalar(x))
    return f(p.scalar(x))
