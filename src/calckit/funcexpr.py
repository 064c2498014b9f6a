"""Math expression language: tokenizer, parser, array evaluator.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-x^2``
means ``-(x^2)``. One table, ``_BINARY``, gives each binary operator its
precedence and ufunc; the tokenizer, the parser, the evaluator and
``pretty`` all read it. Numbers use ASCII digits only, and any character
outside the grammar (a comma included) is a ParseError.

No function recurses, so the expressions accepted depend on their length,
not on the interpreter's stack. ``parse`` reduces an operand stack against
a stack of waiting operators (Dijkstra, "ALGOL 60 translation", report
MR 35/61, 1961) and refuses more than MAX_TOKENS tokens. ``evaluate`` runs
one loop over a value stack in Sethi-Ullman order (Sethi and Ullman, "The
Generation of Optimal Code for Arithmetic Expressions", JACM 17(4), 1970),
and ``pretty`` joins its pieces once, in linear time.

The call registry is fixed: sin, cos, tan, atan, exp, ln, sqrt, abs, sinh,
cosh, tanh; there are no user-defined functions. Evaluation follows IEEE
double semantics: 1/0 and ln(-1) come back as inf/nan rather than raising,
so integrators and root finders can observe them. Only structural problems
(unbound variable, unknown function name) raise.

Variables may be bound to numpy arrays: one pass then evaluates the
expression at every point with numpy ufuncs, and each element equals the
scalar evaluation at that point bit for bit.

ASTs are immutable after parse and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Token:
    kind: str    # number | identifier | operator | lparen | rparen
    lexeme: str
    position: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str      # one of + - * / ^
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, Neg, BinOp, Call]

MAX_TOKENS = 2**18     # parse refuses a longer token list
_NEG_PREC = 3        # unary minus: binds tighter than * and /, looser than ^
_ATOM_PREC = 9
# The binary operators: precedence and ufunc. All are left-associative but
# "^", whose right operand is parsed at its own precedence.
_BINARY = {
    "+": (1, np.add),
    "-": (1, np.subtract),
    "*": (2, np.multiply),
    "/": (2, np.divide),
    "^": (4, np.power),
}
_SINGLE = {**dict.fromkeys(_BINARY, "operator"), "(": "lparen", ")": "rparen"}
# ASCII digits only: str.isdigit also accepts superscripts and non-ASCII digits
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_DIGITS = "0123456789"


def tokenize(src: str) -> list[Token]:
    """Scan source text into tokens. Unknown characters raise ParseError.
    Scanning stops after MAX_TOKENS + 1 tokens, which parse refuses, so an
    overlong text costs no more than that."""
    if not src:
        raise ParseError("empty expression", 0)
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n and len(tokens) <= MAX_TOKENS:
        c = src[i]
        start = i
        if c in " \t\r\n":
            i += 1
        elif c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, start))
            i += 1
        elif number := _NUMBER.match(src, i):
            lexeme = number.group()
            if not math.isfinite(float(lexeme)):
                raise ParseError(f"number literal {lexeme!r} is not finite", start)
            tokens.append(Token("number", lexeme, start))
            i = number.end()
        elif c.isalpha() or c == "_":
            while i < n and (src[i].isalpha() or src[i] in _DIGITS or src[i] == "_"):
                i += 1
            tokens.append(Token("identifier", src[start:i], start))
        else:
            raise ParseError(f"unrecognized character {c!r}", start)
    if not tokens:
        raise ParseError("expression contains only whitespace", 0)
    return tokens


def parse(tokens: list[Token]) -> ExprAst:
    """Build an AST from at most MAX_TOKENS tokens by an operator-precedence
    stack over _BINARY, rejecting trailing garbage. A waiting operator's
    bound is the least precedence its right operand takes in: p + 1 after
    a binary operator of precedence p, p after ``^``, _NEG_PREC after unary
    minus and 0 after an open ``(`` or call."""
    if not tokens:
        raise ParseError("empty token sequence", 0)
    if len(tokens) > MAX_TOKENS:
        raise ParseError(f"expression over {MAX_TOKENS:,} tokens", tokens[MAX_TOKENS].position)
    # an "end" sentinel sits at the position just past the last token
    toks = [*tokens, Token("end", "", tokens[-1].position + len(tokens[-1].lexeme))]
    waiting, pos = [], 0        # (bound, operator, lhs or call name) of each waiting operator
    while True:
        tok = toks[pos]
        pos += 1
        if tok.lexeme in ("-", "("):            # unary minus or an open '('
            waiting.append((_NEG_PREC if tok.lexeme == "-" else 0, None, None))
            continue
        if tok.kind == "identifier" and toks[pos].kind == "lparen":
            waiting.append((0, None, tok.lexeme))
            pos += 1
            continue
        if tok.kind == "number":
            node = Const(float(tok.lexeme))
        elif tok.kind == "identifier":
            node = Var(tok.lexeme)
        else:
            raise ParseError("unexpected end of expression" if tok.kind == "end"
                             else f"unexpected {tok.lexeme!r}", tok.position)
        while True:         # node is a whole operand: complete what it ends
            tok = toks[pos]
            prec = _BINARY[tok.lexeme][0] if tok.kind == "operator" else 0
            while waiting and waiting[-1][0] > prec:
                _, op, lhs = waiting.pop()
                node = Neg(node) if op is None else BinOp(op, lhs, node)
            if prec:
                waiting.append((prec + (tok.lexeme != "^"), tok.lexeme, node))
                pos += 1
                break
            if not waiting:
                if tok.kind != "end":
                    raise ParseError(f"unexpected {tok.lexeme!r} after expression", tok.position)
                return node
            name = waiting.pop()[2]             # an open '(' or call
            if tok.kind != "rparen":
                raise ParseError("expected ')'" if name is None
                                 else "expected ')' closing the call argument", tok.position)
            node = node if name is None else Call(name, node)
            pos += 1


def parse_text(src: str) -> ExprAst:
    return parse(tokenize(src))


def evaluate(ast: ExprAst,
             bindings: Mapping[str, float | np.ndarray] | None = None) -> float | np.ndarray:
    """Evaluate in IEEE double arithmetic; pi and e are pre-bound (overridable).

    Scalar bindings give a float. Array bindings give a float64 array of
    their broadcast shape, element i being the value at the i-th points.
    Names are checked in source order before any arithmetic. Each binary
    node evaluates first the operand with the larger Sethi-Ullman number,
    so the value stack holds at most ceil(log2(leaves)) + 1 values of the
    grid's shape, besides one array per variable and the result of the
    operation in progress.
    """
    env = {**_CONSTANTS, **(bindings or {})}
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    grid = shape or (1,)        # a scalar evaluation runs on one-element arrays
    # Every variable is one contiguous float64 array of the full shape (one
    # element for a scalar evaluation), a binding that is one already taken
    # as it is, and every literal a numpy scalar. numpy picks a ufunc's inner
    # loop (SIMD or libm) by the operands' strides, so a point then gets the
    # same loop alone as within an array.
    arrays: dict[str, np.ndarray] = {}
    order, work = [], [ast]
    while work:                 # pre-order: the names in source order
        node = work.pop()
        order.append(node)
        if isinstance(node, Var) and node.name not in arrays:
            if node.name not in env:
                raise EvalError(f"unbound variable {node.name!r}")
            value = np.broadcast_to(env[node.name], grid)     # a read-only view
            taken = value.size > 1 and value.dtype == float and value.flags.c_contiguous
            arrays[node.name] = value if taken else np.array(value, dtype=float)
        elif isinstance(node, Call) and node.name not in FUNCTIONS:
            raise EvalError(f"unknown function {node.name!r}")
        work.extend(reversed(_operands(node)))
    need = {}                   # id(node) -> its Sethi-Ullman number
    for node in reversed(order):
        ns = [need[id(sub)] for sub in _operands(node)] or [1]
        need[id(node)] = ns[0] + 1 if ns[0] == ns[-1] and len(ns) == 2 else max(ns)
    values, work = [], [ast]
    with np.errstate(all="ignore"):
        while work:
            node = work.pop()
            if isinstance(node, tuple):         # (ufunc, rhs first?) of a binary node
                fn, swap = node
                values[-2:] = [fn(values[-1], values[-2]) if swap else fn(*values[-2:])]
            elif callable(node):                # the function of a unary node
                values[-1] = node(values[-1])
            elif isinstance(node, Const):
                values.append(np.float64(node.value))
            elif isinstance(node, Var):
                values.append(arrays[node.name])
            elif isinstance(node, Neg):
                work += (operator.neg, node.operand)
            elif isinstance(node, Call):
                work += (FUNCTIONS[node.name], node.arg)
            else:
                swap = need[id(node.rhs)] > need[id(node.lhs)]
                work += ((_BINARY[node.op][1], swap),
                         *((node.lhs, node.rhs) if swap else (node.rhs, node.lhs)))
    value = np.broadcast_to(values[0], grid)
    return np.array(value) if shape else float(value[0])


def _operands(node: ExprAst) -> tuple:
    """The child nodes of node, left to right."""
    if isinstance(node, BinOp):
        return node.lhs, node.rhs
    if isinstance(node, Neg):
        return (node.operand,)
    return (node.arg,) if isinstance(node, Call) else ()


def pretty(ast: ExprAst) -> str:
    """Render with minimal parentheses; parse(pretty(a)) is structurally a.

    Negative Const values render through a leading minus and therefore
    round-trip as a Neg node; parse itself never produces negative constants.
    """
    out, work = [], [(ast, 0)]  # work: pieces still to write, text or (node, min_prec)
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_prec = item
        prec = (_BINARY[node.op][0] if isinstance(node, BinOp)
                else _NEG_PREC if isinstance(node, Neg) else _ATOM_PREC)
        if prec < min_prec:     # node binds looser than its place needs
            out.append("(")
            work.append(")")
        if isinstance(node, Const):
            out.append(repr(float(node.value)))
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, Call):
            out.append(node.name + "(")
            work += (")", (node.arg, 0))
        elif isinstance(node, Neg):
            out.append("-")
            work.append((node.operand, _NEG_PREC))
        else:
            # the base of ^ is an atom and its exponent may be a negation; the
            # right operand of a left-associative operator binds tighter than it
            lhs_min, rhs_min = (prec + 1, _NEG_PREC) if node.op == "^" else (prec, prec + 1)
            work += ((node.rhs, rhs_min), node.op, (node.lhs, lhs_min))
    return "".join(out)
