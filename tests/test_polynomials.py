"""Exact polynomial arithmetic, integration, evaluation, and the series
coefficient extractor."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie.polynomials import MultiPoly, series_coeff

from . import poly_oracle

X1 = MultiPoly.var("x1")
X2 = MultiPoly.var("x2")
T = MultiPoly.var("t")
Y = MultiPoly.var("y1")


class TestArithmetic:
    def test_binomial_square(self):
        assert (X1 + T) ** 2 == X1 ** 2 + 2 * X1 * T + T ** 2

    def test_substitute_time_zero(self):
        p = X1 * T + T ** 2 * Fraction(1, 2)
        assert p.substitute({"t": 0}).is_zero

    def test_difference_of_squares(self):
        assert (X1 + Y) * (X1 - Y) == X1 ** 2 - Y ** 2

    def test_substitution_is_simultaneous(self):
        p = X1 * X2
        q = p.substitute({"x1": X2, "x2": X1})
        assert q == X1 * X2
        r = (X1 + X2).substitute({"x1": X1 + X2})
        assert r == X1 + 2 * X2

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X1 ** -1

    def test_unused_variables_are_pruned(self):
        p = X1 + X2 - X2
        assert p.variables == ("x1",)
        assert p == X1

    def test_canonical_difference_detects_equality(self):
        a = (X1 + T) ** 3
        b = X1 ** 3 + 3 * X1 ** 2 * T + 3 * X1 * T ** 2 + T ** 3
        assert (a - b).is_zero and a == b


class TestIntegration:
    def test_linear_integrand(self):
        # by hand: integral of (x1 + y) dy from 0 to t is x1*t + t^2/2
        p = (X1 + Y).integrate_from_zero("y1", "t")
        assert p == X1 * T + T ** 2 * Fraction(1, 2)

    def test_constant_integrand(self):
        assert MultiPoly.const(1).integrate_from_zero("y1", "t") == T

    def test_quadratic_integrand(self):
        # expand then integrate termwise: x1^2 t + x1 t^2 + t^3/3
        p = ((X1 + Y) ** 2).integrate_from_zero("y1", "t")
        assert p == X1 ** 2 * T + X1 * T ** 2 + T ** 3 * Fraction(1, 3)

    def test_same_symbol_upper_bound(self):
        # allowed when the integration symbol does not occur in the integrand
        assert MultiPoly.const(2).integrate_from_zero("y1", "y1") == 2 * Y
        with pytest.raises(ValueError):
            Y.integrate_from_zero("y1", "y1")

    def test_upper_bound_collision(self):
        with pytest.raises(ValueError):
            (Y * T).integrate_from_zero("y1", "t")


class TestEvaluation:
    def test_imaginary_square(self):
        p = T * MultiPoly.var("z1") ** 2
        assert p.eval_complex({"t": 1.0, "z1": 1j}) == pytest.approx(-1.0)

    def test_zero_polynomial(self):
        assert MultiPoly.zero().eval_complex({}) == 0

    def test_plain_arithmetic(self):
        p = X1 * T + T ** 2 * Fraction(1, 2)
        assert p.eval_complex({"x1": 2.0, "t": 3.0}).real == pytest.approx(10.5)

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            (X1 * T).eval_complex({"x1": 1.0})

    def test_float_matches_exact_rational_evaluation(self):
        p = (X1 + T) ** 4 - X2 ** 3 * Fraction(7, 3)
        xs = {"x1": Fraction(3, 7), "x2": Fraction(-2, 5), "t": Fraction(1, 3)}
        exact = Fraction(0)
        for exps, c in p.terms.items():
            v = c
            for var, e in zip(p.variables, exps):
                v *= xs[var] ** e
            exact += v
        approx = p.eval_complex({k: float(v) for k, v in xs.items()}).real
        assert abs(approx - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def _series_coeff_brute(factor_orders, k):
    """Independent oracle: count representations k = sum over factors of
    m_j * c_j by direct recursion."""
    factors = list(factor_orders)

    def count(pos, remaining):
        if pos == len(factors):
            return 1 if remaining == 0 else 0
        m = factors[pos]
        return sum(count(pos + 1, remaining - m * c) for c in range(remaining // m + 1))

    return count(0, k)


class TestSeriesCoeff:
    def test_small_values_match_brute_force(self):
        cases = [
            ([1, 1], 2),
            ([1, 1, 1], 2),
            ([1, 1, 2], 4),
            ([1, 2, 3], 6),
            ([2, 2], 4),
            ([1, 1, 1, 2, 6], 12),
        ]
        for factors, k in cases:
            assert series_coeff(factors, k) == _series_coeff_brute(factors, k)

    def test_ell_1_1_2_is_binomial(self):
        # product (1-t)^2 (1-t)(1-t): coefficient of t^2 equals C(5, 2)
        assert series_coeff([1, 1, 1, 1], 2) == 10 == comb(5, 2)

    def test_ell_single_weight(self):
        # (1-t)^-2 at degree m gives m + 1
        assert series_coeff([1, 1], 3) == 4

    def test_ell_2_2(self):
        assert series_coeff([1, 1, 2], 4) == 9

    def test_all_ones_gives_binomials(self):
        for r in range(6):
            for m in range(9):
                factors = [1, 1] + [1] * r
                assert series_coeff(factors, m) == comb(r + 1 + m, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            series_coeff([0], 1)
        with pytest.raises(ValueError):
            series_coeff([1], -1)


_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def _polys(draw, vars=("x1", "x2", "t")):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in vars)
        terms[exps] = Fraction(draw(_coeffs))
    return MultiPoly(vars, terms)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(_polys(), _polys(), _polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(_polys(vars=("x1", "x2", "y1")))
    def test_integration_then_differentiation(self, p):
        # fundamental theorem: d/dt of the integral from 0 to t recovers
        # the integrand with the integration symbol renamed
        integral = p.integrate_from_zero("y1", "t")
        recovered = integral.differentiate("t")
        assert recovered == p.substitute({"y1": MultiPoly.var("t")})

    @settings(max_examples=40, deadline=None)
    @given(_polys(), _polys())
    def test_substitution_is_a_ring_homomorphism(self, a, b):
        sub = {"x1": X2 + T, "t": MultiPoly.const(2)}
        assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)
        assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)

    @settings(max_examples=40, deadline=None)
    @given(_polys())
    def test_power_is_repeated_multiplication(self, p):
        product = MultiPoly.const(1)
        for k in range(7):
            assert p ** k == product
            product = product * p

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # one product per set bit and one squaring per bit after the first
        calls = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        for k in range(1, 9):
            calls.clear()
            (X1 + T) ** k
            assert len(calls) == bin(k).count("1") + k.bit_length() - 1, k


class TestSerialization:
    def test_canonical_text(self):
        p = X1 * T + T ** 2 * Fraction(1, 2)
        assert str(p) == "x1*t + 1/2*t^2"

    def test_degree_then_significance_order(self):
        assert str((X1 + T) ** 2) == "x1^2 + 2*x1*t + t^2"

    def test_negative_and_gaussian_coefficients(self):
        assert str(X1 - T) == "x1 - t"
        # coefficients are rationals only: the mode exponents keep sqrt(-1)
        # in the derivative symbols instead
        with pytest.raises(TypeError):
            MultiPoly.term(1j, k1=1)

    def test_zero(self):
        assert str(MultiPoly.zero()) == "0"


@st.composite
def _rational_polys(draw, vars=("x1", "x2", "t")):
    """Like _polys, with coefficients over small denominators."""
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in vars)
        terms[exps] = Fraction(draw(_coeffs), draw(st.integers(min_value=1, max_value=6)))
    return MultiPoly(vars, terms)


def _assert_normal(p):
    # one positive denominator with no factor common to every numerator
    assert p.den > 0 and gcd(p.den, *p.num.values()) == 1
    assert all(p.num.values())
    assert all(any(e[i] for e in p.num) for i in range(len(p.variables)))


def _assert_matches(p, oracle):
    # the same value, Fraction view and hash as the oracle's, whose
    # MultiPoly comes through the public constructor
    _assert_normal(p)
    assert poly_oracle.from_poly(p) == oracle
    q = poly_oracle.to_poly(oracle)
    assert p == q and hash(p) == hash(q)
    assert p.terms == q.terms


class TestIntegerKernel:
    """Integer numerators over one denominator against the Fraction routes
    of tests/poly_oracle.py."""

    @settings(max_examples=60, deadline=None)
    @given(_rational_polys(), _rational_polys())
    def test_ring_operations_match_the_oracle(self, a, b):
        fa, fb = poly_oracle.from_poly(a), poly_oracle.from_poly(b)
        _assert_matches(a, fa)
        _assert_matches(a + b, poly_oracle.add(fa, fb))
        _assert_matches(a - b, poly_oracle.add(fa, poly_oracle.neg(fb)))
        _assert_matches(a * b, poly_oracle.mul(fa, fb))
        _assert_matches(a ** 3, poly_oracle.power(fa, 3))
        _assert_matches(-a, poly_oracle.neg(fa))

    @settings(max_examples=60, deadline=None)
    @given(_rational_polys(), _rational_polys(vars=("x2", "y1")), _rational_polys(vars=("t",)))
    def test_substitute_matches_per_term_oracle(self, p, r1, r2):
        for mapping in ({"x1": r1, "t": r2}, {"x1": r2, "x2": r1}, {"t": Fraction(-2, 3)}):
            oracle = poly_oracle.substitute(
                poly_oracle.from_poly(p),
                {v: poly_oracle.from_poly(q if isinstance(q, MultiPoly) else MultiPoly.const(q))
                 for v, q in mapping.items()},
            )
            _assert_matches(p.substitute(mapping), oracle)

    @settings(max_examples=60, deadline=None)
    @given(_rational_polys(vars=("x1", "x2", "y1")))
    def test_integrate_and_differentiate_match_the_oracle(self, p):
        fp = poly_oracle.from_poly(p)
        _assert_matches(p.integrate_from_zero("y1", "t"), poly_oracle.integrate_from_zero(fp, "y1", "t"))
        _assert_matches(p.integrate_from_zero("z1", "t"), poly_oracle.integrate_from_zero(fp, "z1", "t"))
        integral = p.integrate_from_zero("y1", "t")
        _assert_normal(integral.differentiate("t"))
        _assert_normal(p.differentiate("x1"))
        _assert_normal(p.coeff_of("x2", 1))

    @settings(max_examples=60, deadline=None)
    @given(_rational_polys())
    def test_monomial_maps_match_substitution(self, p):
        fp = poly_oracle.from_poly(p)
        renamed = p.rename({"t": "y1"})
        _assert_matches(renamed, poly_oracle.substitute(fp, {"t": poly_oracle.var("y1")}))

    def test_rename_refuses_to_merge_variables(self):
        with pytest.raises(ValueError):
            (X1 * T).rename({"t": "x1"})

    def test_denominator_is_the_content(self):
        p = X1 * Fraction(2, 3) + T * Fraction(4, 9)
        assert (p.den, p.num) == (9, {(1, 0): 6, (0, 1): 4})
        q = p * Fraction(9, 2)
        assert (q.den, q.num) == (1, {(1, 0): 3, (0, 1): 2})
        assert MultiPoly.zero().den == 1 and (p - p) == MultiPoly.zero()
