"""Math expression language: tokenizer, parser, array evaluator.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-x^2``
means ``-(x^2)``. The call registry is fixed: sin, cos, tan, atan, exp, ln,
sqrt, abs, sinh, cosh, tanh; there are no user-defined functions. Evaluation
follows IEEE double semantics: 1/0 and ln(-1) come back as inf/nan rather
than raising, so integrators and root finders can observe them. Only
structural problems (unbound variable, unknown function name) raise.

Variables may be bound to numpy arrays: one tree walk then evaluates the
expression at every point with numpy ufuncs, and each element equals the
scalar evaluation at that point bit for bit.

ASTs are immutable after parse and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
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
    kind: str    # number | identifier | operator | lparen | rparen | comma
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

_OPERATORS = "+-*/^"


def tokenize(src: str) -> list[Token]:
    """Scan source text into tokens. Unknown characters raise ParseError."""
    if not src:
        raise ParseError("empty expression", 0)
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = i
        if c.isdigit():
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
            lexeme = src[start:i]
            if not math.isfinite(float(lexeme)):
                raise ParseError(f"number literal {lexeme!r} is not finite", start)
            tokens.append(Token("number", lexeme, start))
        elif c.isalpha() or c == "_":
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(Token("identifier", src[start:i], start))
        elif c in _OPERATORS:
            tokens.append(Token("operator", c, start))
            i += 1
        elif c == "(":
            tokens.append(Token("lparen", c, start))
            i += 1
        elif c == ")":
            tokens.append(Token("rparen", c, start))
            i += 1
        elif c == ",":
            tokens.append(Token("comma", c, start))
            i += 1
        else:
            raise ParseError(f"unrecognized character {c!r}", start)
    if not tokens:
        raise ParseError("expression contains only whitespace", 0)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            end = self.tokens[-1].position + len(self.tokens[-1].lexeme)
            raise ParseError("unexpected end of expression", end)
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.position if tok else self.tokens[-1].position + len(self.tokens[-1].lexeme)
            raise ParseError(f"expected {what}", pos)
        return self.advance()

    def expr(self) -> ExprAst:
        node = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.advance()
            node = BinOp(tok.lexeme, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.advance()
            node = BinOp(tok.lexeme, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt and nxt.kind == "lparen":
                self.advance()
                arg = self.expr()
                self.expect("rparen", "')' closing the call argument")
                return Call(tok.lexeme, arg)
            return Var(tok.lexeme)
        if tok.kind == "lparen":
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> ExprAst:
    """Build an AST from a token sequence, rejecting trailing garbage and
    nesting deeper than the interpreter's recursion limit."""
    if not tokens:
        raise ParseError("empty token sequence", 0)
    parser = _Parser(tokens)
    try:
        ast = parser.expr()
    except RecursionError:
        tok = parser.peek() or tokens[-1]
        raise ParseError("expression nested too deeply", tok.position) from None
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(f"unexpected {leftover.lexeme!r} after expression", leftover.position)
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
    lhs = _eval(ast.lhs, env, shape)
    rhs = _eval(ast.rhs, env, shape)
    if ast.op == "+":
        return lhs + rhs
    if ast.op == "-":
        return lhs - rhs
    if ast.op == "*":
        return lhs * rhs
    if ast.op == "/":
        return np.divide(lhs, rhs)
    return np.power(lhs, rhs)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 9


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return _ATOM_PREC


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
        inner = pretty(ast.operand)
        if _prec(ast.operand) < _NEG_PREC:   # +,-,*,/ must be grouped under -
            inner = f"({inner})"
        return "-" + inner
    p = _PREC[ast.op]
    lhs = pretty(ast.lhs)
    rhs = pretty(ast.rhs)
    if ast.op == "^":
        if _prec(ast.lhs) < _ATOM_PREC:       # base must be an atom
            lhs = f"({lhs})"
        if _prec(ast.rhs) < _NEG_PREC:        # exponent is a factor
            rhs = f"({rhs})"
    else:
        if _prec(ast.lhs) < p:
            lhs = f"({lhs})"
        if _prec(ast.rhs) <= p:               # left associativity
            rhs = f"({rhs})"
    return f"{lhs}{ast.op}{rhs}"
