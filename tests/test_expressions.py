import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqmkz.cli import main, resolve_function
from pqmkz.expressions import (
    BinOp,
    Call,
    EvalError,
    Expression,
    Neg,
    Num,
    ParseError,
    Var,
    parse_function,
)
from pqmkz.presets import builtin


class TestParsing:
    def test_simple(self):
        assert parse_function("x")(0.7) == 0.7
        assert parse_function("1")(0.3) == 1.0
        assert parse_function("2.5e-1")(0.0) == 0.25

    def test_precedence(self):
        assert parse_function("1+2*3^2")(0.0) == 19.0
        assert parse_function("(1+2)*3")(0.0) == 9.0

    def test_power_right_associative(self):
        assert parse_function("2^3^2")(0.0) == 512.0

    def test_functions(self):
        assert parse_function("sin(x)")(0.5) == pytest.approx(math.sin(0.5))
        assert parse_function("sqrt(x)")(0.25) == 0.5
        assert parse_function("abs(x-1)")(0.3) == pytest.approx(0.7)

    def test_double_caret_position(self):
        with pytest.raises(ParseError) as exc:
            parse_function("x^^2")
        assert exc.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_function("y+1")
        # same text is fine when the variable is named y
        assert parse_function("y+1", var="y")(2.0) == 3.0

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_function("tan(x)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_function("(x+1")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_function("   ")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_function("x$2")

    def test_unary_minus(self):
        assert parse_function("-x").root == Neg(Var("x"))
        # looser than '^', tighter than '*' and '/'
        assert parse_function("-x^2").root == Neg(BinOp("^", Var("x"), Num(2.0)))
        assert parse_function("2^-x").root == BinOp("^", Num(2.0), Neg(Var("x")))
        assert parse_function("x*-2").root == BinOp("*", Var("x"), Neg(Num(2.0)))
        assert parse_function("-x^2")(0.5) == -0.25
        assert parse_function("1--x")(0.5) == 1.5
        assert parse_function("0-x").root == BinOp("-", Num(0.0), Var("x"))
        with pytest.raises(ParseError) as exc:
            parse_function("x-")
        assert exc.value.position == 3


class TestEvaluation:
    def test_division_by_zero(self):
        expr = parse_function("1/x")
        with pytest.raises(EvalError):
            expr(0.0)
        assert expr(0.5) == 2.0

    def test_sqrt_negative(self):
        expr = parse_function("sqrt(x-1)")
        with pytest.raises(EvalError):
            expr(0.5)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            parse_function("(x-2)^0.5")(1.0)

    def test_overflow(self):
        expr = parse_function("exp(1000*x)")
        assert expr(0.5) == math.exp(500.0)
        with pytest.raises(EvalError):
            expr(1.0)
        with pytest.raises(EvalError):
            expr.evaluate_array(np.array([0.0, 1.0]))

    def test_nonfinite_literal_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_function("x+1e999")
        assert exc.value.position == 3

    def test_array_matches_scalar(self):
        expr = parse_function("sin(x)*x^2+1/2")
        xs = np.linspace(0.0, 1.0, 17)
        got = expr.evaluate_array(xs)
        want = [expr(float(x)) for x in xs]
        assert got.tolist() == want

    def test_array_division_error_surfaces(self):
        expr = parse_function("1/x")
        with pytest.raises(EvalError):
            expr.evaluate_array(np.array([0.0, 0.5]))


# The function strings the benchmark workloads pass to the CLI, plus the
# presets they do not name.
SPECS = [
    "paper_cubic", "identity", "one", "x^2", "sin(40*x)*exp(0-x)",
    "1/(1+x)", "sqrt(1+x)*cos(3*x)", "abs(x-0.5)", "square", "abs_half",
]


class TestSingleEvaluator:
    """A Function called at a point is a view of its array evaluator."""

    XS = np.concatenate(
        [np.linspace(0.0, 1.0, 1001), np.random.default_rng(7).random(3000)]
    )

    @pytest.mark.parametrize("spec", SPECS)
    def test_point_equals_array_element_bitwise(self, spec):
        f = resolve_function(spec)
        scalar = np.array([f(float(x)) for x in self.XS])
        assert scalar.view(np.int64).tolist() == (
            f.values(self.XS).view(np.int64).tolist()
        )


class TestPresets:
    NAMES = {"one", "identity", "square", "paper_cubic", "abs_half"}

    def test_names(self):
        for name in self.NAMES:
            assert builtin(name).label == name
        assert builtin("cubic") is None

    def test_cubic_at_zero(self):
        assert builtin("paper_cubic")(0.0) == pytest.approx(-0.125)

    def test_cubic_roots(self):
        f = builtin("paper_cubic")
        for root in (1 / 3, 1 / 2, 3 / 4):
            assert f(root) == pytest.approx(0.0, abs=1e-15)

    def test_preset_requires_default_variable(self):
        with pytest.raises(ParseError):
            parse_function("identity", var="n")


def _ast_strategy(ops=("+", "-", "*"), funcs=("sin", "cos", "abs")):
    leaf = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
        st.just(Var("x")),
    )

    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(ops), children, children),
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(funcs), children),
        )

    return st.recursive(leaf, extend, max_leaves=12)


class TestRoundTrip:
    def test_examples(self):
        for text in ["x", "(x+1)*2", "sin(x)^2+cos(x)^2", "abs(x-1/2)"]:
            expr = parse_function(text)
            again = parse_function(expr.to_text())
            for x in (0.0, 0.3, 0.9):
                assert again(x) == pytest.approx(expr(x), abs=1e-15)

    @given(root=_ast_strategy())
    @settings(max_examples=80, deadline=None)
    def test_print_then_parse_preserves_tree(self, root):
        expr = Expression(root)
        assert parse_function(expr.to_text()).root == root


class TestNoTraceback:
    """Every expression is evaluated or rejected with an exit code."""

    @given(
        root=_ast_strategy(
            ops=("+", "-", "*", "/", "^"),
            funcs=("sin", "cos", "abs", "sqrt", "exp"),
        ),
        # x = 1 takes the interpolation branch, where only f(1) is evaluated
        x=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    )
    @example(root=BinOp("^", BinOp("-", Var("x"), Num(2.0)), Num(0.5)), x=1.0)
    @example(root=Call("exp", BinOp("*", Num(1000.0), Var("x"))), x=1.0)
    @settings(max_examples=150, deadline=None)
    def test_cli_eval_exits_cleanly(self, root, x):
        argv = [
            "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", Expression(root).to_text(), "--x", repr(x),
        ]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
