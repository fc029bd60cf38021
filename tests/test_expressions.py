"""Expression parsing, evaluation, and polynomial folding."""

import math
from fractions import Fraction

import numpy as np
import pytest

from treelie import ExpressionError, evaluate, parse_expression, to_multipoly
from treelie.expressions import BinOp, Pi
from treelie.polynomials import MultiPoly


class TestParsing:
    def test_polynomial_expression(self):
        ast = parse_expression("x1^2*x2 + 1/3", 2)
        assert evaluate(ast, [2.0, 3.0]) == pytest.approx(4 * 3 + 1 / 3)

    def test_analytic_expression(self):
        ast = parse_expression("sin(2*pi*x1)", 1)
        assert evaluate(ast, [0.25]) == pytest.approx(1.0)

    def test_variable_out_of_range(self):
        with pytest.raises(ExpressionError, match="variable out of range at offset 0"):
            parse_expression("x3", 2)

    def test_precedence(self):
        assert evaluate(parse_expression("2+3*4^2", 1), [0.0]) == 50
        assert evaluate(parse_expression("-x1^2", 1), [3.0]) == -9.0
        assert evaluate(parse_expression("2^3^2", 1), [0.0]) == 512
        assert evaluate(parse_expression("(2+3)*4", 1), [0.0]) == 20

    def test_decimals_stay_exact(self):
        ast = parse_expression("0.125*x1", 1)
        poly = to_multipoly(ast)
        assert poly == MultiPoly.var("x1") * Fraction(1, 8)

    def test_error_positions(self):
        with pytest.raises(ExpressionError, match="offset 4"):
            parse_expression("1 + @2", 1)
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_expression("foo + 1", 1)
        with pytest.raises(ExpressionError, match="empty"):
            parse_expression("   ", 1)
        with pytest.raises(ExpressionError, match="trailing"):
            parse_expression("1 2", 1)
        with pytest.raises(ExpressionError, match="expected"):
            parse_expression("sin x1", 1)


class TestPolynomialFolding:
    def test_exact_fold(self):
        poly = to_multipoly(parse_expression("(x1+x2)^2 - x2^2/2", 2))
        x1, x2 = MultiPoly.var("x1"), MultiPoly.var("x2")
        assert poly == (x1 + x2) ** 2 - x2 ** 2 * Fraction(1, 2)

    def test_rejects_transcendentals(self):
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression("sin(x1)", 1))
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression("pi*x1", 1))

    def test_rejects_variable_divisor_and_exponent(self):
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression("1/x1", 1))
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression("x1^x1", 1))
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression("x1^(0-2)", 1))

    def test_pi_folds_only_at_evaluation(self):
        ast = parse_expression("2*pi", 1)
        assert isinstance(ast, BinOp) and isinstance(ast.right, Pi)
        assert evaluate(ast, [0.0]) == pytest.approx(2 * math.pi)

    def test_array_broadcast(self):
        ast = parse_expression("x1^2 + x2", 2)
        xs = np.array([1.0, 2.0, 3.0])
        ys = np.array([0.5, 0.5, 0.5])
        out = evaluate(ast, [xs, ys])
        assert np.allclose(out, xs ** 2 + ys)
