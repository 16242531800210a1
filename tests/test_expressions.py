import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqmkz.expressions import (
    BinOp,
    Call,
    EvalError,
    Expression,
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

    def test_no_unary_minus(self):
        with pytest.raises(ParseError):
            parse_function("-x")


class TestEvaluation:
    def test_division_by_zero(self):
        expr = parse_function("1/x")
        with pytest.raises(EvalError):
            expr.evaluate(0.0)
        assert expr.evaluate(0.5) == 2.0

    def test_sqrt_negative(self):
        expr = parse_function("sqrt(x-1)")
        with pytest.raises(EvalError):
            expr.evaluate(0.5)

    def test_array_matches_scalar(self):
        expr = parse_function("sin(x)*x^2+1/2")
        xs = np.linspace(0.0, 1.0, 17)
        got = expr.evaluate_array(xs)
        want = [expr.evaluate(float(x)) for x in xs]
        assert np.allclose(got, want, atol=1e-15)

    def test_array_division_error_surfaces(self):
        expr = parse_function("1/x")
        with pytest.raises(EvalError):
            expr.evaluate_array(np.array([0.0, 0.5]))


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


def _ast_strategy():
    leaf = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
        st.just(Var("x")),
    )

    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "*"]), children, children),
            st.builds(Call, st.sampled_from(["sin", "cos", "abs"]), children),
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
