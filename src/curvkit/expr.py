"""Symbolic scalar expressions in chart coordinates.

The AST is deliberately small: numeric constants, coordinate variables, unary
negation, the functions sin/cos/tan/exp/log/sqrt, and the binary operators
``+ - * / ^``.  Differentiation is exact and closed over this vocabulary;
evaluation is plain float arithmetic.  Both are loops over one topological
order of the expression DAG (:func:`topological`, an explicit-stack walk), so
neither recurses, and expression size is bounded by memory alone.  There is
no general simplifier, only constant folding and neutral-element elimination,
enough to keep derivative trees from silting up with ``0*...`` and ``...^1``
debris.  The parser keeps any operand such a fold would drop (``0*u``,
``0/u``, ``u^0``), so every subexpression of a parsed entry is evaluated.

Grammar (infix), as documented in the README::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?        # right-associative
    atom   := NUMBER | 'pi' | COORD | FUNC '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, so ``-x^2`` parses as ``-(x^2)``.
Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; numbers are ordinary decimal
literals with optional fraction and exponent, and one too large for a float
(``1e999``) is a ParseError at its offset.  The parser recurses, so it
bounds nesting: a factor inside more than 100 parentheses, function calls,
unary minuses and exponents is a ParseError at the first token that deep.

Expressions are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, ParseError, UnknownIdentifier
from .tensor import _point_values

__all__ = [
    "Expression", "parse", "differentiate", "evaluate",
    "Num", "Var", "Neg", "Fun", "BinOp",
]


# --------------------------------------------------------------------------
# AST nodes

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Fun(Node):
    name: str
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node


_FUNCTIONS = {name: getattr(math, name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt")}

_ZERO = Num(0.0)
_ONE = Num(1.0)


# --------------------------------------------------------------------------
# Pointwise semantics (shared by evaluation and constant folding)

def _apply_fun(name: str, x: float, node_text: str | None = None) -> float:
    if name == "log" and x <= 0.0:
        raise DomainError(f"log of non-positive value {x!r}", node_text)
    if name == "sqrt" and x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}", node_text)
    try:
        y = _FUNCTIONS[name](x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{name} failed: {exc}", node_text) from None
    if not math.isfinite(y):
        raise DomainError(f"{name} produced non-finite value", node_text)
    return y


def _apply_binop(op: str, a: float, b: float, node_text: str | None = None) -> float:
    if op == "+":
        y = a + b
    elif op == "-":
        y = a - b
    elif op == "*":
        y = a * b
    elif op == "/":
        if b == 0.0:
            raise DomainError("division by zero", node_text)
        y = a / b
    elif op == "^":
        if a == 0.0 and b < 0.0:
            raise DomainError("zero raised to a negative power", node_text)
        if a < 0.0 and not float(b).is_integer():
            raise DomainError("negative base with non-integer exponent", node_text)
        try:
            y = math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"power failed: {exc}", node_text) from None
    else:  # pragma: no cover - guarded by the parser
        raise AssertionError(f"unknown operator {op!r}")
    if not math.isfinite(y):
        raise DomainError("operation produced non-finite value", node_text)
    return y


# --------------------------------------------------------------------------
# Smart constructors (constant folding only; no algebraic rewriting)

def num(value: float) -> Num:
    return Num(float(value))


def neg(x: Node) -> Node:
    if isinstance(x, Num):
        return Num(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return Neg(x)


def add(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold_binop("+", a, b)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold_binop("-", a, b)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold_binop("*", a, b)
    if isinstance(a, Num):
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def div(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return _fold_binop("/", a, b)
    if isinstance(a, Num) and a.value == 0.0:
        return _ZERO
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def power(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold_binop("^", a, b)
    if isinstance(b, Num):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
    return BinOp("^", a, b)


def fun(name: str, arg: Node) -> Node:
    if name not in _FUNCTIONS:
        raise UnknownIdentifier(name)
    if isinstance(arg, Num):
        try:
            return Num(_apply_fun(name, arg.value))
        except DomainError:
            pass  # defer to evaluation time
    return Fun(name, arg)


def _fold_binop(op: str, a: Num, b: Num) -> Node:
    try:
        return Num(_apply_binop(op, a.value, b.value))
    except DomainError:
        return BinOp(op, a, b)  # defer to evaluation time


# --------------------------------------------------------------------------
# Traversal, differentiation and evaluation
#
# Smart constructors share subtrees aggressively, so large expressions are
# DAGs rather than trees (the same inverse-metric node appears in every
# Christoffel symbol, say).  Differentiation and evaluation therefore both
# loop over one topological order of the DAG and key their tables on node
# identity -- nodes are immutable, so this is sound -- which keeps them
# linear in the DAG size instead of exponential, and keeps the Python stack
# flat however deep the expression is.

def topological(roots: Iterable[Node], known=()) -> list[Node]:
    """Every node reachable from `roots` whose id is not in `known`, once each,
    children before parents, left before right: the order in which a
    depth-first walk finishes them.  On the explicit stack, a None marks that
    the node below it has all its children done."""
    order: list[Node] = []
    seen: set[int] = set()
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
            elif (key := id(node)) not in seen and key not in known:
                seen.add(key)
                stack += (node, None)
                kind = type(node)
                if kind is BinOp:
                    stack += (node.right, node.left)
                elif kind is Neg or kind is Fun:
                    stack.append(node.arg)
    return order


def diff_nodes(nodes: Sequence[Node], name: str, memo: dict | None = None) -> list[Node]:
    """The partials of several nodes along `name`, in one traversal.  `memo`
    maps id(node) -> derivative; one dict passed across calls shares the
    derivatives of common subtrees."""
    if memo is None:
        memo = {}
    for node in topological(nodes, memo):
        memo[id(node)] = _diff_rule(node, name, memo)
    return [memo[id(node)] for node in nodes]


# d f(u) / du for each function f, as a node in u
_OUTER = {
    "sin": lambda u: fun("cos", u),
    "cos": lambda u: neg(fun("sin", u)),
    "tan": lambda u: div(_ONE, power(fun("cos", u), Num(2.0))),
    "exp": lambda u: fun("exp", u),
    "log": lambda u: div(_ONE, u),
    "sqrt": lambda u: div(_ONE, mul(Num(2.0), fun("sqrt", u))),
}


def _diff_rule(node: Node, name: str, memo: dict) -> Node:
    """The derivative of `node`, given those of its children in `memo`."""
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == name else _ZERO
    if isinstance(node, Neg):
        return neg(memo[id(node.arg)])
    if isinstance(node, Fun):
        return mul(_OUTER[node.name](node.arg), memo[id(node.arg)])
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da = memo[id(a)]
        if node.op == "^" and isinstance(b, Num):
            # d(u^c) = c * u^(c-1) * u'
            return mul(mul(b, power(a, Num(b.value - 1.0))), da)
        db = memo[id(b)]
        if node.op == "+":
            return add(da, db)
        if node.op == "-":
            return sub(da, db)
        if node.op == "*":
            return add(mul(da, b), mul(a, db))
        if node.op == "/":
            return div(sub(mul(da, b), mul(a, db)), power(b, Num(2.0)))
        if node.op == "^":
            # general rule via u^v = exp(v log u)
            return mul(power(a, b), add(mul(db, fun("log", a)),
                                        mul(b, div(da, a))))
    raise AssertionError(f"unreachable node {node!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# Evaluation
#
# Evaluation runs a compiled program over one flat list of values with a
# slot per node: the coordinates first, then every constant, then each
# operation in topological order, which reads its operands from earlier
# slots and appends its own value.  A compiled program is never mutated,
# so threads may run it at once, each on its own value list.

def compile_tapes(coords: Sequence[str], tapes: Sequence[Sequence[Node]]):
    """Slot-indexed programs for `tapes`, lists of nodes children first, each
    holding only the nodes that the tapes before it do not (as `topological`
    with `known` lists them).

    Returns ``(constants, programs, slot)``: the values of the slots after
    the coordinates' (every constant of every tape, so a value list starts
    as the point followed by `constants`); per tape, the ``(code, ops)``
    that `run_program` takes; and `slot`, id(node) -> its slot."""
    index = {name: k for k, name in enumerate(coords)}
    slot: dict[int, int] = {}
    constants: list[float] = []
    tape_ops = []
    for tape in tapes:
        ops = []
        for node in tape:
            kind = type(node)
            if kind is Var:
                slot[id(node)] = index[node.name]
            elif kind is Num:
                slot[id(node)] = len(index) + len(constants)
                constants.append(node.value)
            else:
                ops.append(node)
        tape_ops.append(ops)
    end = len(index) + len(constants)
    programs = []
    for ops in tape_ops:
        code = []
        for node in ops:
            kind = type(node)
            if kind is BinOp:
                code.append((node.op, slot[id(node.left)], slot[id(node.right)]))
            else:  # Fun, or Neg with no name
                code.append((node.name if kind is Fun else None, slot[id(node.arg)], -1))
            slot[id(node)] = end
            end += 1
        programs.append((code, ops))
    return constants, programs, slot


def run_program(code: list, ops: list[Node], values: list[float]) -> None:
    """Append the value of each operation of one compiled tape (`code`, with
    `ops` its nodes; see `compile_tapes`) to `values`, which holds every
    slot before the tape's.  A DomainError names the node that raised it."""
    start = len(values)
    append = values.append
    try:
        for op, i, j in code:
            if j >= 0:
                append(_apply_binop(op, values[i], values[j]))
            elif op is None:
                append(-values[i])
            else:
                append(_apply_fun(op, values[i]))
    except DomainError as exc:
        raise DomainError(exc.args[0], _error_context(ops[len(values) - start])) from None


def _error_context(node: Node, limit: int = 120) -> str:
    """Printable form of the offending node for error messages, truncated so
    huge derived expressions do not flood the message."""
    text = to_string(node, depth_limit=6)
    return text if len(text) <= limit else text[:limit] + "..."


# --------------------------------------------------------------------------
# Canonical printer

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 2.5
_PREC_POW = 3
_PREC_ATOM = 9


def _prec(node: Node) -> float:
    if isinstance(node, BinOp):
        return {"+": _PREC_ADD, "-": _PREC_ADD,
                "*": _PREC_MUL, "/": _PREC_MUL,
                "^": _PREC_POW}[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Num) and node.value < 0.0:
        # prints with a leading '-', so it binds like a negation
        return _PREC_NEG
    return _PREC_ATOM


def to_string(node: Node, depth_limit: int | None = None) -> str:
    """Canonical infix form; `parse(to_string(e))` reproduces `e` up to
    negative-constant normalization (stable from the second round trip on).
    `depth_limit` elides deeper subtrees as '...' (error messages only; the
    elided form is not parseable).  Written left to right from an explicit
    stack: a string item is emitted, a (node, depth_limit) item expands."""
    out: list[str] = []
    stack: list = [(node, depth_limit)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, limit = item
        deeper = None if limit is None else limit - 1
        if limit is not None and limit <= 0:
            out.append("...")
        elif isinstance(node, Num):
            out.append(repr(node.value))
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, Fun):
            stack += (")", (node.arg, deeper), f"{node.name}(")
        elif isinstance(node, Neg):
            stack += _operand(node.arg, deeper, _prec(node.arg) <= _PREC_NEG) + ("-",)
        else:
            p = _prec(node)
            if node.op == "^":
                # right-associative; a negative-constant base needs parens
                left_parens = _prec(node.left) <= p
                right_parens = _prec(node.right) < p
            else:
                left_parens = _prec(node.left) < p
                # left-associative: parenthesize same-precedence right operands;
                # also parenthesize leading-minus right operands for readability
                right_parens = _prec(node.right) <= p
            stack += (_operand(node.right, deeper, right_parens) + (node.op,)
                      + _operand(node.left, deeper, left_parens))
    return "".join(out)


def _operand(node: Node, limit: int | None, parens: bool) -> tuple:
    """The stack items that print `node`, in parentheses if `parens`, in the
    order they are pushed (the stack pops them last to first)."""
    return (")", (node, limit), "(") if parens else ((node, limit),)


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, byte_offset) triples, terminated by ('end', '', n)."""
    tokens = []
    pos = offset = 0  # character index and the byte offset it starts at
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), offset))
        offset += len(m.group().encode("utf-8"))
        pos = m.end()
    tokens.append(("end", "", offset))
    return tokens


_MAX_NESTING = 100  # the deepest nesting the parser accepts (module docstring)

_BUILDERS = {"*": mul, "/": div, "^": power}  # add and sub keep both operands


def _parsed_binop(op: str, a: Node, b: Node) -> Node:
    """The smart constructor's node for `a op b`, unless it folded an operand
    away (0*u, u*0, 0/u, u^0 give a literal): a parsed entry keeps every
    subexpression, so evaluation still reaches u and its domain errors."""
    node = _BUILDERS[op](a, b)
    if isinstance(node, Num) and not (isinstance(a, Num) and isinstance(b, Num)):
        return BinOp(op, a, b)
    return node


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.coords = frozenset(coords)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ParseError(f"expected {symbol!r}", offset)

    def parse(self) -> Node:
        node = self.expression()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if text == "+" else sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = _parsed_binop(text, node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, text, offset = self.peek()
        if self.depth > _MAX_NESTING:  # every recursion of the parser passes here
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", offset)
        self.depth += 1
        if kind == "op" and text == "-":
            self.advance()
            node = neg(self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return _parsed_binop("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows a float", offset)
            return Num(value)
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifier(text, offset)
                self.advance()
                arg = self.expression()
                self.expect_op(")")
                return fun(text, arg)
            if text in self.coords:
                return Var(text)
            if text == "pi":
                return Num(math.pi)
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {text!r}", offset)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_coords(coords: Iterable[str]) -> tuple[str, ...]:
    """`coords` as a tuple of distinct identifiers, or a ParseError."""
    try:
        coords = tuple(coords)
    except TypeError:
        raise ParseError(f"coordinate names must be a sequence, got "
                         f"{type(coords).__name__}", None) from None
    seen = set()
    for c in coords:
        if not isinstance(c, str):
            raise ParseError(f"a coordinate name must be text, got {type(c).__name__}", None)
        if not _IDENT_RE.match(c):
            raise ParseError(f"invalid coordinate name {c!r}", None)
        if c in seen:
            raise ParseError(f"duplicate coordinate name {c!r}", None)
        seen.add(c)
    return coords


# --------------------------------------------------------------------------
# Public wrapper

class Expression:
    """A symbolic function of an ordered coordinate tuple.

    Immutable, and built only by :func:`parse`.  Supports exact
    differentiation via :meth:`diff`, evaluation by calling it with a point
    (one value per coordinate, in order), structural `==` and `hash`, and
    printing in the canonical infix form.
    """

    __slots__ = ("root", "coords")

    def __init__(self, root: Node, coords: Sequence[str]):
        self.root = root
        self.coords = tuple(coords)

    # calculus --------------------------------------------------------------
    def diff(self, name: str) -> "Expression":
        if name not in self.coords:
            raise UnknownIdentifier(name)
        return Expression(diff_nodes([self.root], name)[0], self.coords)

    def __call__(self, point: Sequence[float]) -> float:
        values = _point_values(point, len(self.coords))
        constants, [program], slot = compile_tapes(self.coords, [topological([self.root])])
        values += constants
        run_program(*program, values)
        return values[slot[id(self.root)]]

    # identity ----------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Expression)
                and self.coords == other.coords and self.root == other.root)

    def __hash__(self):
        return hash((self.root, self.coords))

    def __str__(self):
        return to_string(self.root)

    def __repr__(self):
        return f"Expression({to_string(self.root)!r}, coords={self.coords!r})"


def parse(text: str, coords: Sequence[str]) -> Expression:
    """Parse infix `text` into an Expression over the given coordinate names."""
    coords = _check_coords(coords)
    if not isinstance(text, str):
        raise ParseError(f"expression text must be a string, got {type(text).__name__}", None)
    return Expression(_Parser(text, coords).parse(), coords)


def differentiate(expression: Expression, name: str) -> Expression:
    """Exact symbolic partial derivative along the declared coordinate `name`."""
    return expression.diff(name)


def evaluate(expression: Expression, point: Sequence[float]) -> float:
    """Evaluate at a point (one value per coordinate, in declaration order)."""
    return expression(point)
