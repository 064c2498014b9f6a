import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit.errors import EvalError, ParseError
from calckit.funcexpr import (FUNCTIONS, MAX_TOKENS, BinOp, Call, Const, Neg, Token, Var,
                              evaluate, parse, parse_text, pretty, tokenize)


def test_tokenize_smallest_arithmetic():
    kinds = [(t.kind, t.lexeme) for t in tokenize("2+3")]
    assert kinds == [("number", "2"), ("operator", "+"), ("number", "3")]


def test_tokenize_single_call():
    kinds = [(t.kind, t.lexeme) for t in tokenize("sin(x)")]
    assert kinds == [("identifier", "sin"), ("lparen", "("),
                     ("identifier", "x"), ("rparen", ")")]


def test_tokenize_illegal_character_position():
    with pytest.raises(ParseError) as err:
        tokenize("2 @ 3")
    assert err.value.position == 2


@pytest.mark.parametrize("text,position", [
    ("2\u00b3", 1),            # superscript three after a number
    ("\u0661+x", 0),           # Arabic-Indic digit one
    ("x\u00b2", 1),            # superscript two inside a name
])
def test_tokenizer_reads_ascii_digits_only(text, position):
    with pytest.raises(ParseError, match="unrecognized character") as err:
        parse_text(text)
    assert err.value.position == position


def test_tokenize_positions_strictly_increase():
    toks = tokenize("1 + sin(x)*2^3")
    positions = [t.position for t in toks]
    assert positions == sorted(set(positions))


def test_tokenize_concat_reproduces_source_modulo_whitespace():
    src = " 1.5e-3 + sin( x ) * 2 ^ y "
    joined = "".join(t.lexeme for t in tokenize(src))
    assert joined == src.replace(" ", "")


def test_parse_precedence():
    assert evaluate(parse(tokenize("2+3*4"))) == 14.0


def test_parse_power_right_associative():
    assert evaluate(parse_text("2^3^2")) == 512.0


def test_parse_unclosed_paren():
    with pytest.raises(ParseError):
        parse_text("(1+2")


def test_parse_dangling_operator():
    with pytest.raises(ParseError):
        parse_text("1+")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_text("1 2")


def test_parse_rejects_comma_argument_lists():
    with pytest.raises(ParseError):
        parse_text("sin(x, y)")


def test_unary_minus_binds_below_power():
    # -x^2 means -(x^2), fixed by the grammar
    assert evaluate(parse_text("-x^2"), {"x": 3.0}) == -9.0
    assert evaluate(parse_text("(-x)^2"), {"x": 3.0}) == 9.0


def test_evaluate_identity_value():
    assert evaluate(parse_text("sin(pi/2)")) == pytest.approx(1.0, abs=1e-15)


def test_prebound_constants_can_be_shadowed():
    assert evaluate(parse_text("exp(1) - e")) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(parse_text("pi"), {"pi": 3.0}) == 3.0


def test_evaluate_with_binding():
    assert evaluate(parse_text("x^2 - 2"), {"x": 2.0}) == 2.0


def test_evaluate_atan_quarter_pi():
    # analytic arctangent: atan(1) = pi/4
    assert evaluate(parse_text("atan(1)")) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert evaluate(parse_text("atan(1)")) == pytest.approx(0.7853981633974483, abs=0)


def test_nonfinite_results_propagate_not_raise():
    assert evaluate(parse_text("1/0")) == math.inf
    assert evaluate(parse_text("-1/0")) == -math.inf
    assert math.isnan(evaluate(parse_text("0/0")))
    assert math.isnan(evaluate(parse_text("ln(0-1)")))
    assert math.isnan(evaluate(parse_text("sqrt(0-4)")))


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        evaluate(parse_text("x+1"))


def test_unknown_function_raises_at_evaluation():
    ast = parse_text("foo(1)")
    with pytest.raises(EvalError):
        evaluate(ast)


def test_deep_nesting_evaluates_and_only_the_token_budget_raises():
    xs = np.array([0.5, 2.0, -3.0])
    assert evaluate(parse_text("(" * 3000 + "x" + ")" * 3000), {"x": xs}).tolist() == xs.tolist()
    assert evaluate(parse_text("-" * 3000 + "x"), {"x": xs}).tolist() == xs.tolist()
    # a flat sum parses into a left spine 19,999 nodes deep
    assert evaluate(parse_text("+".join(["x"] * 20_000)), {"x": xs}).tolist() == \
        (20_000 * xs).tolist()
    nested = "(" * 100 + "-x^2+1" + ")" * 100
    assert evaluate(parse_text(nested), {"x": np.array([0.5, 2.0])}).tolist() == [0.75, -3.0]
    tokens = tokenize("-" * MAX_TOKENS + "x")
    assert isinstance(parse(tokens[1:]), Neg)
    with pytest.raises(ParseError, match="expression over 262,144 tokens") as info:
        parse(tokens)
    assert info.value.position == tokens[MAX_TOKENS].position
    # scanning stops one token past the budget, however long the text
    long = tokenize("-" * (4 * MAX_TOKENS) + "x")
    assert long == tokens[:-1] + [Token("operator", "-", MAX_TOKENS)]


def test_deep_chains_round_trip_through_pretty():
    for text in ["^".join(["x"] * 800), "-" * 800 + "x", "(" * 400 + "x" + ")" * 400]:
        ast = parse_text(text)
        printed = pretty(ast)
        assert printed == _ref_pretty(ast)
        assert pretty(parse_text(printed)) == printed


_DEEP_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from calckit.errors import EvalError
    from calckit.funcexpr import evaluate, parse_text, pretty
    sys.setrecursionlimit(60)
    k = 20_000
    x = np.array([1.0, -1.0])
    sines = x
    for _ in range(5_000):
        sines = np.sin(sines)
    cases = [("+".join(["x"] * k), k * x),
             ("^".join(["x"] * k), x),
             ("-" * k + "x", x),
             ("(" * k + "x" + ")" * k, x),
             ("sin(" * 5_000 + "x" + ")" * 5_000, sines),
             ("+".join(["x"] * 100_000), 100_000 * x)]
    for text, want in cases:
        ast = parse_text(text)
        got = evaluate(ast, {"x": x})
        assert np.array_equal(got, want) and got.dtype == np.float64, text[:20]
        printed = pretty(ast)
        assert pretty(parse_text(printed)) == printed, text[:20]
    for text, message in [("x+foo(y)", "unknown function 'foo'"),
                          ("y+bar(x)", "unbound variable 'y'")]:
        try:
            evaluate(parse_text(text), {"x": x})
        except EvalError as err:
            assert str(err) == message, (text, str(err))
        else:
            raise AssertionError(text)
    print("ok")
""")


def test_parse_evaluate_and_print_need_no_stack_per_level():
    # a child interpreter with a recursion limit of 60 frames, which a walker
    # that recursed once per level would pass within its first few levels
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _DEEP_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_builtins_match_reference_library():
    names = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
             "atan": math.atan, "exp": math.exp, "ln": math.log,
             "sqrt": math.sqrt, "abs": abs, "sinh": math.sinh,
             "cosh": math.cosh, "tanh": math.tanh}
    for name, ref in names.items():
        got = evaluate(parse_text(f"{name}(x)"), {"x": 0.7})
        assert got == pytest.approx(ref(0.7), rel=1e-15)


def _random_ast(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return Const(round(float(rng.uniform(0.0, 9.0)), 3))
        return Var(rng.choice(["x", "y", "z", "t"]))
    kind = rng.choice(["bin", "neg", "call", "leaf"], p=[0.45, 0.2, 0.2, 0.15])
    if kind == "bin":
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == "neg":
        return Neg(_random_ast(rng, depth - 1))
    if kind == "call":
        name = rng.choice(sorted(["sin", "cos", "tan", "atan", "exp", "ln",
                                  "sqrt", "abs", "sinh", "cosh", "tanh"]))
        return Call(name, _random_ast(rng, depth - 1))
    return _random_ast(rng, 0)


def test_pretty_parse_round_trip_1000_random_asts():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        ast = _random_ast(rng, int(rng.integers(1, 5)))
        assert pretty(ast) == _ref_pretty(ast)
        assert parse_text(pretty(ast)) == ast


def test_sum_of_subexpressions_evaluates_to_sum():
    rng = np.random.default_rng(7)
    bindings = {"x": 1.3, "y": -0.4, "z": 2.0, "t": 0.9}
    for _ in range(200):
        e1 = _random_ast(rng, 2)
        e2 = _random_ast(rng, 2)
        combined = evaluate(BinOp("+", e1, e2), bindings)
        separate = evaluate(e1, bindings) + evaluate(e2, bindings)
        if math.isfinite(combined) and math.isfinite(separate):
            assert combined == separate
        else:
            # non-finite outcomes must at least agree on NaN-ness
            assert math.isnan(combined) == math.isnan(separate)


# ---------------------------------------------------------------- arrays

# Points where the registry overflows, divides by zero or leaves its domain,
# plus ordinary values; 40+ points so vectorized loop bodies run, not only
# their scalar tails.
_SPECIAL_POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, -1e-300, 710.0,
                   -710.0, 1e308, -1e308, math.inf, -math.inf, math.nan, math.pi / 2]

_leaves = st.one_of(
    st.builds(Const, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e300])),
    st.builds(Const, st.floats(min_value=0.0, max_value=1e3)),
    st.sampled_from([Var("x"), Var("x"), Var("pi"), Var("e")]),
)
_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(BinOp, st.sampled_from(list("+-*/^")), sub, sub),
    st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
), max_leaves=12)


def _assert_array_matches_scalar(tree, xs):
    got = evaluate(tree, {"x": xs})
    want = np.array([evaluate(tree, {"x": float(x)}) for x in xs])
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert not np.shares_memory(got, xs)
    # a contiguous binding is read in place, at any offset into its buffer
    assert np.array_equal(evaluate(tree, {"x": np.append(0.0, xs)[1:]}), got, equal_nan=True)
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


@pytest.mark.parametrize("text", [f"{name}(x)" for name in sorted(FUNCTIONS)]
                         + ["x+pi", "x-e", "x*x", "1/x", "x/3", "x^2", "2^x", "x^x",
                            "x^0.5", "-x"])
def test_each_operation_array_matches_scalar_bit_for_bit(text):
    xs = np.concatenate([_SPECIAL_POINTS, np.linspace(-40.0, 40.0, 97)])
    _assert_array_matches_scalar(parse_text(text), xs)


@settings(max_examples=300, deadline=None)
@given(_trees, st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=24,
                        max_size=64))
def test_random_tree_array_matches_scalar_bit_for_bit(tree, extra):
    _assert_array_matches_scalar(tree, np.array(_SPECIAL_POINTS + extra))


def test_array_evaluation_broadcasts_constants():
    got = evaluate(parse_text("2*pi"), {"x": np.zeros(5)})
    assert got.shape == (5,) and np.all(got == 2.0 * math.pi)
    assert isinstance(evaluate(parse_text("x+1"), {"x": 1.0}), float)


def test_array_evaluation_keeps_structural_errors():
    with pytest.raises(EvalError):
        evaluate(parse_text("x+y"), {"x": np.ones(3)})
    with pytest.raises(EvalError):
        evaluate(parse_text("foo(x)"), {"x": np.ones(3)})


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_parse_never_panics(text):
    try:
        parse_text(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text) + 1


# ------------------------------------------------ table-driven vs reference

# The tokenizer, recursive-descent parser and evaluator operator chain that
# held the five binary operators before they moved into one table. The
# table-driven module must give the same tokens, ASTs, errors and values.

def _ref_tokenize(src):
    if not src:
        raise ParseError("empty expression", 0)
    digits = "0123456789"
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = i
        if c in digits:
            while i < n and src[i] in digits:
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i] in digits:
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j] in digits:
                    i = j
                    while i < n and src[i] in digits:
                        i += 1
            lexeme = src[start:i]
            if not math.isfinite(float(lexeme)):
                raise ParseError(f"number literal {lexeme!r} is not finite", start)
            tokens.append(Token("number", lexeme, start))
        elif c.isalpha() or c == "_":
            while i < n and (src[i].isalpha() or src[i] in digits or src[i] == "_"):
                i += 1
            tokens.append(Token("identifier", src[start:i], start))
        elif c in "+-*/^":
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


class _RefParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        if tok is None:
            end = self.tokens[-1].position + len(self.tokens[-1].lexeme)
            raise ParseError("unexpected end of expression", end)
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.position if tok else self.tokens[-1].position + len(self.tokens[-1].lexeme)
            raise ParseError(f"expected {what}", pos)
        return self.advance()

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.advance()
            node = BinOp(tok.lexeme, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.advance()
            node = BinOp(tok.lexeme, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
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


def _ref_group(text, node, min_prec):
    if isinstance(node, BinOp):
        prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    else:
        prec = 3 if isinstance(node, Neg) else 9
    return f"({text})" if prec < min_prec else text


def _ref_pretty(ast):
    # the printer that recursed once per level, as it was before it took a
    # work stack
    if isinstance(ast, Const):
        return repr(float(ast.value))
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.name}({_ref_pretty(ast.arg)})"
    if isinstance(ast, Neg):
        return "-" + _ref_group(_ref_pretty(ast.operand), ast.operand, 3)
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[ast.op]
    lhs_min, rhs_min = (prec + 1, 3) if ast.op == "^" else (prec, prec + 1)
    lhs = _ref_group(_ref_pretty(ast.lhs), ast.lhs, lhs_min)
    return f"{lhs}{ast.op}{_ref_group(_ref_pretty(ast.rhs), ast.rhs, rhs_min)}"


def _ref_parse_text(src):
    tokens = _ref_tokenize(src)
    parser = _RefParser(tokens)
    ast = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(f"unexpected {leftover.lexeme!r} after expression", leftover.position)
    return ast


def _ref_eval(ast, env, shape):
    if isinstance(ast, Const):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        return np.array(np.broadcast_to(env[ast.name], shape), dtype=float)
    if isinstance(ast, Neg):
        return -_ref_eval(ast.operand, env, shape)
    if isinstance(ast, Call):
        return FUNCTIONS[ast.name](_ref_eval(ast.arg, env, shape))
    lhs = _ref_eval(ast.lhs, env, shape)
    rhs = _ref_eval(ast.rhs, env, shape)
    if ast.op == "+":
        return lhs + rhs
    if ast.op == "-":
        return lhs - rhs
    if ast.op == "*":
        return lhs * rhs
    if ast.op == "/":
        return np.divide(lhs, rhs)
    return np.power(lhs, rhs)


def _ref_evaluate(ast, bindings):
    env = {"pi": math.pi, "e": math.e, **bindings}
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    grid = shape or (1,)
    with np.errstate(all="ignore"):
        value = np.broadcast_to(_ref_eval(ast, env, grid), grid)
    return np.array(value) if shape else float(value[0])


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as err:
        return (str(err), err.position)


# Lexeme pieces: digits, decimals and exponents (complete, dangling and
# overflowing), names, non-ASCII digits and letters, the operators,
# parentheses, whitespace and stray characters. No comma: the reference
# tokenizer gave it a token kind of its own.
_PIECES = ["0", "7", "42", "3.", "0.25", "1e3", "2E-4", "5e+2", "6e", "8e+", "1.5e",
           "1e999", "x", "y", "pi", "e", "E", "sin", "ln", "foo", "_a1", "x2",
           "\u0661", "\u00b2", "\u00e9", "+", "-", "*", "/", "^", "(", ")", " ", "\t",
           "\n", ".", "@", "[", "--", "^-", "sqrt("]
_CHARS = list("0123456789.eE+-*/^() x_a\u0663")


def test_tokenizer_and_parser_match_reference_on_random_text():
    rng = np.random.default_rng(2024)
    messages = set()
    for k in range(20_000):
        alphabet = _CHARS if k % 5 == 0 else _PIECES    # every fifth: single characters
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 14))))
        want = _outcome(_ref_parse_text, text)
        assert _outcome(parse_text, text) == want, text
        messages.add(want[0].split(" ")[0] if isinstance(want, tuple) else "ast")
    # the strings reach an AST and each error family
    assert messages == {"ast", "empty", "expression", "unrecognized", "number",
                        "unexpected", "expected"}


def test_evaluate_matches_reference_operator_chain_bit_for_bit():
    rng = np.random.default_rng(99)
    xs = np.array(_SPECIAL_POINTS)
    arrays = {"x": xs, "y": xs[::-1], "z": np.roll(xs, 3), "t": np.roll(xs, 8)}
    for _ in range(2_000):
        tree = _random_ast(rng, int(rng.integers(1, 6)))
        got, want = evaluate(tree, arrays), _ref_evaluate(tree, arrays)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        i = int(rng.integers(len(xs)))
        point = {name: float(v[i]) for name, v in arrays.items()}
        got, want = evaluate(tree, point), _ref_evaluate(tree, point)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_comma_is_an_unrecognized_character():
    with pytest.raises(ParseError, match="unrecognized character ','") as err:
        parse_text("sin(x, 2)")
    assert err.value.position == 5
