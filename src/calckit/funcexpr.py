"""Math expression language: tokenizer, parser, array evaluator.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-x^2``
means ``-(x^2)``. One table, ``_BINARY``, gives each binary operator its
precedence and ufunc; the tokenizer, the precedence-climbing ``parse``, the
evaluator and ``pretty`` all read it. Numbers use ASCII digits only, and any
character outside the grammar (a comma included) is a ParseError.

The call registry is fixed: sin, cos, tan, atan, exp, ln, sqrt, abs, sinh,
cosh, tanh; there are no user-defined functions. Evaluation follows IEEE
double semantics: 1/0 and ln(-1) come back as inf/nan rather than raising,
so integrators and root finders can observe them. Only structural problems
(unbound variable, unknown function name) raise.

Variables may be bound to numpy arrays: one tree walk then evaluates the
expression at every point with numpy ufuncs, and each element equals the
scalar evaluation at that point bit for bit.

ASTs are immutable after parse and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
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
    """Scan source text into tokens. Unknown characters raise ParseError."""
    if not src:
        raise ParseError("empty expression", 0)
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n:
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
    """Build an AST from a token sequence by precedence climbing over
    _BINARY, rejecting trailing garbage and nesting deeper than the
    interpreter's recursion limit."""
    if not tokens:
        raise ParseError("empty token sequence", 0)
    last = tokens[-1]       # an "end" sentinel sits at the position just past it
    toks = [*tokens, Token("end", "", last.position + len(last.lexeme))]
    pos = 0

    def expect(kind: str, what: str) -> None:
        nonlocal pos
        if toks[pos].kind != kind:
            raise ParseError(f"expected {what}", toks[pos].position)
        pos += 1

    def atom() -> ExprAst:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "identifier":
            if toks[pos].kind != "lparen":
                return Var(tok.lexeme)
            pos += 1
            arg = climb(1)
            expect("rparen", "')' closing the call argument")
            return Call(tok.lexeme, arg)
        if tok.kind == "lparen":
            inner = climb(1)
            expect("rparen", "')'")
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of expression", tok.position)
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.position)

    def climb(min_prec: int) -> ExprAst:
        """A negation or an atom, extended by each following binary
        operator of precedence >= min_prec and its right operand."""
        nonlocal pos
        if toks[pos].kind == "operator" and toks[pos].lexeme == "-":
            pos += 1
            node = Neg(climb(_NEG_PREC))
        else:
            node = atom()
        while (tok := toks[pos]).kind == "operator":
            prec = _BINARY[tok.lexeme][0]
            if prec < min_prec:
                break
            pos += 1
            node = BinOp(tok.lexeme, node, climb(prec if tok.lexeme == "^" else prec + 1))
        return node

    try:
        ast = climb(1)
    except RecursionError:
        tok = tokens[min(pos, len(tokens) - 1)]
        raise ParseError("expression nested too deeply", tok.position) from None
    if toks[pos].kind != "end":
        raise ParseError(f"unexpected {toks[pos].lexeme!r} after expression", toks[pos].position)
    return ast


def parse_text(src: str) -> ExprAst:
    return parse(tokenize(src))


def evaluate(ast: ExprAst,
             bindings: Mapping[str, float | np.ndarray] | None = None) -> float | np.ndarray:
    """Evaluate in IEEE double arithmetic; pi and e are pre-bound (overridable).

    Scalar bindings give a float. Array bindings give a float64 array of
    their broadcast shape, element i being the value at the i-th points.
    """
    env = dict(_CONSTANTS)
    if bindings:
        env.update(bindings)
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    grid = shape or (1,)        # a scalar evaluation runs on one-element arrays
    with np.errstate(all="ignore"):
        try:
            value = np.broadcast_to(_eval(ast, env, grid), grid)
        except RecursionError:
            raise EvalError("expression nested too deeply to evaluate") from None
    return np.array(value) if shape else float(value[0])


def _eval(ast: ExprAst, env: Mapping, shape: tuple[int, ...]):
    # Every variable is a fresh contiguous array of the full shape (one
    # element for a scalar evaluation) and every literal a numpy scalar. numpy
    # picks a ufunc's inner loop (SIMD or libm) by the operands' strides, so
    # a point then gets the same loop alone as within an array.
    if isinstance(ast, Const):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        try:
            value = env[ast.name]
        except KeyError:
            raise EvalError(f"unbound variable {ast.name!r}") from None
        return np.array(np.broadcast_to(value, shape), dtype=float)
    if isinstance(ast, Neg):
        return -_eval(ast.operand, env, shape)
    if isinstance(ast, Call):
        fn = FUNCTIONS.get(ast.name)
        if fn is None:
            raise EvalError(f"unknown function {ast.name!r}")
        return fn(_eval(ast.arg, env, shape))
    return _BINARY[ast.op][1](_eval(ast.lhs, env, shape), _eval(ast.rhs, env, shape))


def _group(text: str, node: ExprAst, min_prec: int) -> str:
    """text, the rendering of node, parenthesized when node binds looser
    than min_prec."""
    if isinstance(node, BinOp):
        prec = _BINARY[node.op][0]
    else:
        prec = _NEG_PREC if isinstance(node, Neg) else _ATOM_PREC
    return f"({text})" if prec < min_prec else text


def pretty(ast: ExprAst) -> str:
    """Render with minimal parentheses; parse(pretty(a)) is structurally a.

    Negative Const values render through a leading minus and therefore
    round-trip as a Neg node; parse itself never produces negative constants.
    """
    if isinstance(ast, Const):
        return repr(float(ast.value))
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.name}({pretty(ast.arg)})"
    if isinstance(ast, Neg):
        return "-" + _group(pretty(ast.operand), ast.operand, _NEG_PREC)
    prec = _BINARY[ast.op][0]
    # the base of ^ is an atom and its exponent may be a negation; the right
    # operand of a left-associative operator binds tighter than the operator
    lhs_min, rhs_min = (prec + 1, _NEG_PREC) if ast.op == "^" else (prec, prec + 1)
    lhs = _group(pretty(ast.lhs), ast.lhs, lhs_min)
    return f"{lhs}{ast.op}{_group(pretty(ast.rhs), ast.rhs, rhs_min)}"
