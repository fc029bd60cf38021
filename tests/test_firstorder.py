"""Exponential-regrouping coefficients, characteristic shift polynomials,
and both verification routes for the first-order solver."""

from fractions import Fraction
from math import exp

import numpy as np
import pytest

from treelie import (
    bch_coefficients,
    chain,
    eta_family,
    eta_general_numeric,
    flow_rk4,
    solve_first_order,
    verify_first_order,
)
from treelie.firstorder import bch_coefficient_nested_sum
from treelie.polynomials import MultiPoly

from . import poly_oracle
from .corpus import CORPUS

X1 = MultiPoly.var("x1")
X2 = MultiPoly.var("x2")
T = MultiPoly.var("t")
S = MultiPoly.var("t2")


class TestBchCoefficients:
    def test_leading_values(self):
        data = bch_coefficients(6)
        assert data.a[0] == 1
        assert data.a[1] == Fraction(1, 2)
        assert data.a[2] == Fraction(1, 12)
        assert data.a[3] == 0
        assert data.a[4] == Fraction(-1, 720)

    def test_theta_series(self):
        data = bch_coefficients(4)
        assert data.theta == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(-1, 24),
            Fraction(1, 120),
        )

    def test_inversion_matches_nested_sum(self):
        data = bch_coefficients(6)
        for k in range(7):
            assert data.a[k] == bch_coefficient_nested_sum(k)

    def test_product_telescopes_to_one(self):
        order = 8
        data = bch_coefficients(order)
        prod = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(data.a):
            for j, tj in enumerate(data.theta):
                if i + j <= order:
                    prod[i + j] += ai * tj
        assert prod[0] == 1
        assert all(c == 0 for c in prod[1:])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bch_coefficients(-1)


class TestEtaFamily:
    def test_single_edge(self):
        fam = eta_family(chain([1]))
        assert fam.eta[2] == X1 * T + T ** 2 * Fraction(1, 2)

    def test_two_unit_edges(self):
        fam = eta_family(chain([1, 1]))
        assert fam.eta[3] == (
            X2 * T + X1 * T ** 2 * Fraction(1, 2) + T ** 3 * Fraction(1, 6)
        )

    def test_root_shift_is_time(self):
        for _, t in CORPUS:
            assert eta_family(t).eta[1] == T

    def test_corpus_matches_substitute_oracle(self):
        # renaming t -> y1 gives the family that substitution gave
        for name, tree in CORPUS + [("A5_2222", chain([2] * 4)), ("A4_123", chain([1, 2, 3]))]:
            fam = eta_family(tree)
            assert fam.eta == poly_oracle.eta_family(tree), name

    def test_vanishing_at_zero_and_clan_support(self):
        for _, tree in CORPUS:
            fam = eta_family(tree)
            for i in range(1, tree.n + 1):
                assert fam.eta[i].substitute({"t": 0}).is_zero
                allowed = {"t"} | {f"x{q}" for q in tree.clan(i)[:-1]}
                assert fam.eta[i].variables_used() <= allowed


class TestSolveFirstOrder:
    def test_single_edge_closed_form(self):
        sol = solve_first_order(chain([1]), "x2")
        t, x = 0.7, [0.3, -0.2]
        assert sol(t, x) == pytest.approx(x[1] + x[0] * t + t * t / 2)

    def test_identity_at_time_zero(self):
        sol = solve_first_order(chain([1, 2]), "x1*x3 + x2^2")
        x = [0.4, -1.1, 2.0]
        expected = x[0] * x[2] + x[1] ** 2
        assert sol(0.0, x) == pytest.approx(expected)

    def test_constants_are_stationary(self):
        sol = solve_first_order(chain([1, 1]), "3")
        assert sol(0.9, [0.1, 0.2, 0.3]) == pytest.approx(3.0)

    def test_dimension_check(self):
        sol = solve_first_order(chain([1]), "x1")
        with pytest.raises(ValueError):
            sol(0.1, [1.0])


class TestVerifyExact:
    def test_square_of_last_variable(self):
        report = verify_first_order(eta_family(chain([1, 2])), "x3^2", mode="exact")
        assert report.ok and report.residual.is_zero

    def test_corpus_cubics(self):
        for _, tree in CORPUS:
            last = tree.n
            fs = ["x1^3"]
            if tree.n >= 2:
                fs.append(f"x{last}^2 + 2*x1*x{last}")
            if tree.n >= 3:
                fs.append(f"x1*x2*x{last} - x2^3/3")
            for f in fs:
                report = verify_first_order(eta_family(tree), f, mode="exact")
                assert report.ok, (tree, f)

    def test_requires_polynomial(self):
        with pytest.raises(Exception):
            verify_first_order(eta_family(chain([1])), "sin(x1)", mode="exact")


class TestVerifyNumeric:
    def test_single_edge_point(self):
        x0 = np.array([0.3, -0.2])
        t = 0.7
        flow = flow_rk4(chain([1]), x0, t)
        expected = np.array([x0[0] + t, x0[1] + x0[0] * t + t * t / 2])
        assert np.max(np.abs(flow - expected)) <= 1e-6

    def test_batch_matches_per_start_calls(self):
        rng = np.random.default_rng(7)
        for name in ("A2_3", "A4_121", "star3_w2", "single"):
            tree = dict(CORPUS)[name]
            starts = rng.uniform(-1.0, 1.0, (12, tree.n))
            times = rng.uniform(-1.0, 1.0, 12)
            batch = flow_rk4(tree, starts, times, steps=200)
            assert batch.shape == starts.shape
            for x0, t, got in zip(starts, times, batch):
                assert np.max(np.abs(got - flow_rk4(tree, x0, t, steps=200))) <= 1e-14, name

    def test_corpus_flows(self):
        for name in ("A2_3", "A3_12", "A4_121", "E3_11", "star3_w2"):
            tree = dict(CORPUS)[name]
            report = verify_first_order(eta_family(tree), "x1", mode="numeric")
            assert report.ok, (name, report.max_error)


class TestFlowSemigroup:
    def test_exact_composition_identity(self):
        # eta(t + s, x) = eta(t, x) + eta(s, x + eta(t, x)), exactly
        for _, tree in CORPUS:
            fam = eta_family(tree)
            future = {f"x{i}": MultiPoly.var(f"x{i}") + fam.eta[i] for i in range(1, tree.n + 1)}
            for i in range(1, tree.n + 1):
                lhs = fam.eta[i].substitute({"t": T + S})
                shifted = fam.eta[i].substitute({"t": S})
                rhs = fam.eta[i] + shifted.substitute(future)
                assert lhs == rhs, (tree, i)


class TestGeneralCoefficients:
    def test_exponential_coefficient(self):
        evaluate = eta_general_numeric(chain([1]), {1: exp})
        t, x1 = 0.8, 0.4
        got = evaluate(t, [x1, 0.0])
        assert got[0] == pytest.approx(t)
        assert got[1] == pytest.approx(exp(x1) * (exp(t) - 1.0), abs=1e-9)

    def test_constant_coefficient(self):
        evaluate = eta_general_numeric(chain([1]), {1: lambda v: 1.0})
        assert evaluate(0.6, [2.0, 0.0])[1] == pytest.approx(0.6, abs=1e-12)

    def test_power_coefficients_match_exact_polynomials(self):
        tree = chain([2, 3])
        g = {1: lambda v: v ** 2, 2: lambda v: v ** 3}
        evaluate = eta_general_numeric(tree, g)
        fam = eta_family(tree)
        rng = np.random.default_rng(7)
        for _ in range(5):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-1.0, 1.0, 3)
            env = {"t": t, "x1": x[0], "x2": x[1], "x3": x[2]}
            exact = np.array([fam.eta[i].eval_float(env) for i in (1, 2, 3)])
            got = evaluate(t, x)
            assert np.max(np.abs(got - exact)) <= 1e-8

    def test_missing_function(self):
        with pytest.raises(ValueError, match="missing coefficient"):
            eta_general_numeric(chain([1, 1]), {1: exp})
