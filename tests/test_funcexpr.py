import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calckit.errors import EvalError, ParseError
from calckit.funcexpr import (FUNCTIONS, BinOp, Call, Const, Neg, Var, evaluate,
                              parse, parse_text, pretty, tokenize)


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


def test_nesting_past_the_recursion_limit_raises_calckit_errors():
    with pytest.raises(ParseError) as info:
        parse_text("(" * 3000 + "x" + ")" * 3000)
    assert 0 < info.value.position < 3000
    with pytest.raises(ParseError):
        parse_text("-" * 3000 + "x")
    with pytest.raises(EvalError):          # a flat sum parses into a deep left spine
        evaluate(parse_text("+".join(["x"] * 20_000)), {"x": 1.0})
    nested = "(" * 100 + "-x^2+1" + ")" * 100
    assert evaluate(parse_text(nested), {"x": np.array([0.5, 2.0])}).tolist() == [0.75, -3.0]


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
