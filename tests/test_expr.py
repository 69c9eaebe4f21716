import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fobw.expr import ExpressionError, parse_expression


class TestEvaluation:
    def test_sum_with_sine(self):
        assert parse_expression("1 + sin(t)")(0.0) == pytest.approx(1.0)

    def test_scaled_cosine(self):
        assert parse_expression("0.5 * cos(0.79 * t)")(0.0) == pytest.approx(0.5)

    def test_power_right_associative(self):
        assert parse_expression("2 ^ 3 ^ 2")(0.0) == pytest.approx(512.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_expression("-2 ^ 2")(0.0) == pytest.approx(-4.0)

    def test_negative_exponent(self):
        assert parse_expression("2 ^ -1")(0.0) == pytest.approx(0.5)

    def test_usual_precedence(self):
        assert parse_expression("2 + 3 * 4")(0.0) == pytest.approx(14.0)
        assert parse_expression("2 * 3 + 4")(0.0) == pytest.approx(10.0)
        assert parse_expression("(2 + 3) * 4")(0.0) == pytest.approx(20.0)

    def test_pi_constant(self):
        assert parse_expression("cos(pi * t)")(1.0) == pytest.approx(-1.0)

    def test_time_variable(self):
        expr = parse_expression("t / 2 + 1")
        assert expr(0.5) == pytest.approx(1.25)

    def test_array_evaluation(self):
        expr = parse_expression("sin(t) + t ^ 2")
        ts = np.array([0.0, 0.5, 1.0])
        assert np.allclose(expr(ts), np.sin(ts) + ts**2)

    def test_value_without_t_has_the_shape_of_t(self):
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        value = parse_expression("0.5")(ts)
        assert isinstance(value, np.ndarray) and value.shape == (2, 3)
        assert np.array_equal(value, np.full((2, 3), 0.5))
        assert parse_expression("2 * pi")(0.5) == 2 * np.pi

    def test_division_by_zero_is_not_an_exception(self):
        assert parse_expression("1/0")(0.5) == np.inf
        assert np.all(np.isnan(parse_expression("0/0 + t")(np.array([0.1, 0.2]))))


class TestErrors:
    def test_empty_source(self):
        with pytest.raises(ExpressionError):
            parse_expression("   ")

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + bogus")
        assert err.value.offset == 4

    def test_dangling_operator(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 +")

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin t")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + $")
        assert err.value.offset == 4

    def test_trailing_tokens(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2")

    @pytest.mark.parametrize(
        "src, offset", [("t ^ 2 + bogus", 8), ("\n 1 + bogus", 6)],
        ids=["after-caret", "leading-blanks"],
    )
    def test_offset_counts_characters_of_the_source(self, src, offset):
        with pytest.raises(ExpressionError) as err:
            parse_expression(src)
        assert err.value.offset == offset

    @pytest.mark.parametrize("src", ["-" * 3000 + "t", "2^" * 3000 + "t"], ids=["minus", "power"])
    def test_deep_nesting(self, src):
        with pytest.raises(ExpressionError, match="nested too deeply") as err:
            parse_expression(src)
        assert err.value.offset == 0


T = np.linspace(0.0, 2.0, 41)
LEAVES = ["2", "0.5", "3.", ".25", "1e-01", "1.5E+1", "007", "pi", "t", "t", "t"]
SPACES = ["", " ", "  ", "\t", "\n"]
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def random_case(rng, depth):
    """A random source text, its value at T computed with numpy alongside,
    and its precedence: 0 sum, 1 product, 2 unary minus, 3 power, 4 atom."""
    kind = rng.choice(["leaf", "paren", "call", "neg", "pow", "add", "mul"]) if depth else "leaf"
    if kind == "leaf":
        text = rng.choice(LEAVES)
        value = T if text == "t" else np.float64(np.pi if text == "pi" else float(text))
        return text, value, 4
    if kind in ("paren", "call"):
        name = "" if kind == "paren" else rng.choice(["sin", "cos"])
        text, value, _ = random_case(rng, depth - 1)
        return f"{name}({text})", getattr(np, name)(value) if name else value, 4
    if kind == "neg":
        text, value = operand(rng, depth - 1, 2)
        return f"-{rng.choice(SPACES)}{text}", -value, 2
    if kind == "pow":  # the base is an atom, the exponent may carry a minus
        (base, b), (exponent, e) = operand(rng, depth - 1, 4), operand(rng, depth - 1, 2)
        return f"{base}{rng.choice(SPACES)}^{rng.choice(SPACES)}{exponent}", np.power(b, e), 3
    rank = 0 if kind == "add" else 1
    op = rng.choice("+-" if kind == "add" else "*/")
    (left, lv), (right, rv) = operand(rng, depth - 1, rank), operand(rng, depth - 1, rank + 1)
    return f"{left}{rng.choice(SPACES)}{op}{rng.choice(SPACES)}{right}", OPERATORS[op](lv, rv), rank


def operand(rng, depth, rank):
    """A random text and value of precedence at least ``rank``, parenthesized if needed."""
    text, value, own = random_case(rng, depth)
    return (text if own >= rank else f"({text})"), value


class TestRoundTrip:
    def test_print_parse_identity(self):
        # each random text is printed together with its value computed by numpy
        rng = random.Random(1234)
        for _ in range(300):
            with np.errstate(all="ignore"):
                text, want, _ = random_case(rng, 4)
            want = np.broadcast_to(want, T.shape)
            got = parse_expression(rng.choice(SPACES) + text)(T)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), text
            assert got[~nan].tobytes() == want[~nan].tobytes(), text

    def test_source_is_reparseable_text(self):
        expr = parse_expression("-(1 + sin(t)) ^ 2 / 3")
        again = parse_expression(expr.source)
        assert again.source == expr.source
        assert expr(T).tobytes() == again(T).tobytes()


class TestLanguage:
    @pytest.mark.parametrize(
        "src",
        ["t**2", "+1", "abs(t)", "sin(t, t)", "sin(x=t)", "t if t else 1", "True", "1j",
         "t.real", "[t]", "lambda: t", "__import__('os')", "sin", "t(1)",
         "(sin)(t)", "sin(t,)", "t # comment", "1_0", "0x10"],
    )
    def test_outside_the_language(self, src):
        with pytest.raises(ExpressionError):
            parse_expression(src)


class TestGrammar:
    @pytest.mark.parametrize("src, offset", [("(t", 2), ("2t", 1), ("sin(t", 5)],
                             ids=["unclosed", "juxtaposed", "unclosed-call"])
    def test_error_offset_points_at_the_offending_token(self, src, offset):
        with pytest.raises(ExpressionError) as err:
            parse_expression(src)
        assert err.value.offset == offset

    def test_long_flat_sum_is_not_nesting(self):
        assert parse_expression("1+" * 1000 + "t")(0.5) == 1000.5

    def test_parentheses_nest_past_two_hundred(self):
        assert parse_expression("(" * 250 + "t" + ")" * 250)(0.5) == 0.5

    # the token alphabet, a few characters outside it, and blanks between them
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["0", "7", ".", "e", "E", "t", "pi", "sin", "cos", "(", ")",
                                     "+", "-", "*", "/", "^", " ", "\n", "_", "#", ",", "\\",
                                     "\u0661", "\u00e9"]), max_size=30).map("".join))
    def test_a_text_parses_to_its_shape_or_raises_expression_error(self, src):
        try:
            expr = parse_expression(src)
        except ExpressionError as err:
            assert 0 <= err.offset <= len(src)
        else:
            assert np.shape(expr(T)) == T.shape
