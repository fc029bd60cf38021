"""Exponential-regrouping coefficients, characteristic shift polynomials,
and both verification routes for the first-order solver."""

import time
from fractions import Fraction
from math import exp, factorial, inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelie import (
    ExpressionError,
    bch_coefficients,
    chain,
    eta_family,
    eta_general_numeric,
    parse_expression,
    solve_first_order,
    verify_first_order,
)
from treelie.cli import MAX_BCH_K
from treelie.firstorder import (
    MAX_GENERAL_POINTS,
    EtaFamily,
    _flow_points,
    _integration_matrix,
    _numeric_samples,
    _shifted_point,
    _shifted_points,
    _spectral_flow,
)
from treelie.liealg import dim_and_nilpotence
from treelie.polynomials import MultiPoly

from . import poly_oracle
from .bch_oracle import bch_coefficient_nested_sum, series_inversion
from .corpus import CORPUS, small_trees
from .flow_oracle import eta_simpson, flow_rk4
from .poly_oracle import to_multipoly
from .residual_oracle import f_residual

X1 = MultiPoly.var("x1")
X2 = MultiPoly.var("x2")
T = MultiPoly.var("t")
S = MultiPoly.var("t2")


def power_flow(tree, starts, times):
    """The numeric check's flow: starts plus the spectral walk's shift
    for the power field x_p^w."""
    power = lambda c, grid: grid ** tree.weight(c)
    return starts + _spectral_flow(tree, starts, times, power, _flow_points(tree))


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

    def test_matches_series_inversion(self):
        reference = series_inversion(150)
        for k in range(151):
            data = bch_coefficients(k)
            assert data.a == reference.a[:k + 1], k
            assert data.theta == reference.theta[:k + 1], k

    def test_matches_nested_sum(self):
        data = bch_coefficients(10)
        for k in range(11):
            assert data.a[k] == bch_coefficient_nested_sum(k)

    def test_odd_coefficients_vanish(self):
        data = bch_coefficients(301)
        assert all(data.a[k] == 0 for k in range(3, 302, 2))
        assert all(data.a[k] != 0 for k in range(0, 302, 2))

    def test_matches_sympy_bernoulli(self):
        sympy = pytest.importorskip("sympy")
        data = bch_coefficients(MAX_BCH_K)
        for k in range(0, MAX_BCH_K + 1, 2):
            b = sympy.bernoulli(k)
            assert data.a[k] == Fraction(int(b.p), int(b.q)) / factorial(k), k

    def test_product_telescopes_to_one(self):
        order = 300
        data = bch_coefficients(order)
        prod = [Fraction(0)] * (order + 1)
        for i, ai in enumerate(data.a):
            if ai:
                for j, tj in enumerate(data.theta[:order + 1 - i]):
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

    @settings(max_examples=100, deadline=None)
    @given(small_trees())
    def test_term_count_is_upward_dim(self, tree):
        # the premise of the solve-first size guard, which bounds eta by
        # the upward dim
        terms = sum(len(p.terms) for p in eta_family(tree).eta.values())
        assert terms == dim_and_nilpotence(tree, "up")[0]


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


# finite doubles of either sign, subnormals included, and 0, 1, -1 and -0.9
_COORDINATES = st.floats(-4.0, 4.0) | st.sampled_from([0.0, 1.0, -1.0, -0.9])


class TestShiftedPoint:
    """x + eta is exact and rounded once: each coordinate is the double
    nearest the exact value at the binary t and x."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 120), _COORDINATES, _COORDINATES, _COORDINATES)
    def test_single_edge_is_correctly_rounded(self, weight, t, x1, x2):
        # u = x2 + eta_2 = x2 + ((x1 + t)^(w+1) - x1^(w+1)) / (w + 1)
        exact = Fraction(x2) + (
            (Fraction(x1) + Fraction(t)) ** (weight + 1) - Fraction(x1) ** (weight + 1)
        ) / (weight + 1)
        assert solve_first_order(chain([weight]), "x2")(t, [x1, x2]) == float(exact)

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_weight=3), st.data())
    def test_every_coordinate_equals_the_rounded_oracle(self, tree, data):
        t = data.draw(_COORDINATES)
        x = data.draw(st.lists(_COORDINATES, min_size=tree.n, max_size=tree.n))
        point = {"t": t, **{f"x{i}": v for i, v in enumerate(x, 1)}}
        family = eta_family(tree)
        expected = [
            float(Fraction(x[j - 1]) + poly_oracle.evaluate(family.eta[j], point))
            for j in range(1, tree.n + 1)
        ]
        got = _shifted_point(family, t, x)
        assert [float(v).hex() for v in got] == [v.hex() for v in expected]

    def test_past_the_float_range_is_infinite(self):
        # x + eta on chain([2]) at t = 1 is (x1 + 1, x2 + ((x1+1)^3 - x1^3)/3)
        family = eta_family(chain([2]))
        assert list(_shifted_point(family, 1.0, [1e200, 0.0])) == [1e200, np.inf]
        assert list(_shifted_point(family, 1.0, [-1e200, 0.0])) == [-1e200, np.inf]
        assert list(_shifted_point(family, -1.0, [1e200, 0.0])) == [1e200, -np.inf]


def _polynomials(n):
    """Random polynomials in x1..xn of degree at most 3, as CLI text."""
    term = st.tuples(st.integers(-3, 3), st.lists(st.integers(1, n), max_size=3))
    return st.lists(term, min_size=1, max_size=4).map(
        lambda terms: " + ".join(
            "*".join([str(c)] + [f"x{i}" for i in factors]) for c, factors in terms
        )
    )


class TestVerifyExact:
    def test_square_of_last_variable(self):
        report = verify_first_order(eta_family(chain([1, 2])), "x3^2", mode="exact")
        assert report.ok and len(report.residual) == 3
        assert all(r.is_zero for r in report.residual)

    def test_corpus_cubics(self):
        # the coordinate residuals and the f-substitution oracle agree
        for _, tree in CORPUS:
            last = tree.n
            fs = ["x1^3"]
            if tree.n >= 2:
                fs.append(f"x{last}^2 + 2*x1*x{last}")
            if tree.n >= 3:
                fs.append(f"x1*x2*x{last} - x2^3/3")
            family = eta_family(tree)
            for f in fs:
                report = verify_first_order(family, f, mode="exact")
                assert report.ok, (tree, f)
                assert f_residual(family, f).is_zero, (tree, f)

    @settings(max_examples=40, deadline=None)
    @given(small_trees(), st.data())
    def test_random_polynomials_match_oracle(self, tree, data):
        family = eta_family(tree)
        f = data.draw(_polynomials(tree.n))
        assert verify_first_order(family, f, mode="exact").ok
        assert f_residual(family, f).is_zero

    @pytest.mark.parametrize("f", [
        "sin(x1)", "sin(x1)^9", "x1^(1/2)", "x1^x2", "x1^(0-1)", "exp(x2)*cos(x3)",
    ])
    def test_non_polynomial_f(self, f):
        # f(x + eta) has no polynomial expansion, so only the coordinate
        # residuals can settle it exactly
        with pytest.raises(ExpressionError):
            to_multipoly(parse_expression(f, 3))
        report = verify_first_order(eta_family(chain([1, 2])), f, mode="exact")
        assert report.ok

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    @pytest.mark.parametrize("f", ["x1 +", "x4", "foo(x1)", "1 2", ""])
    def test_malformed_f_is_an_error(self, f, mode):
        with pytest.raises(ExpressionError):
            verify_first_order(eta_family(chain([1, 2])), f, mode=mode)

    @pytest.mark.parametrize("node", [1, 2, 3, 4])
    def test_perturbed_eta_fails_at_its_node(self, node):
        family = eta_family(chain([1, 2, 1]))
        eta = dict(family.eta)
        eta[node] = eta[node] + T ** 2
        report = verify_first_order(EtaFamily(tree=family.tree, eta=eta), "x1", mode="exact")
        assert not report.ok
        # d/dt of the t^2 term, and nothing at any other node
        assert report.residual == tuple(
            T * 2 if j == node else MultiPoly.zero() for j in range(1, 5)
        )


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

    @pytest.mark.parametrize("name", [name for name, _ in CORPUS])
    def test_spectral_flow_is_exact_on_the_seeded_starts(self, name):
        # both batched routes against x + eta one start at a time
        tree = dict(CORPUS)[name]
        family = eta_family(tree)
        starts, times = _numeric_samples(tree.n)
        loop = np.array([_shifted_point(family, t, x0) for x0, t in zip(starts, times)])
        assert np.max(np.abs(power_flow(tree, starts, times) - loop)) <= 1e-12
        assert np.max(np.abs(_shifted_points(family, starts, times) - loop)) <= 1e-12
        assert verify_first_order(family, "x1", mode="numeric").max_error <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(small_trees(), st.integers(0, 2**32 - 1))
    def test_spectral_flow_matches_rk4_oracle(self, tree, seed):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(-1.0, 1.0, (8, tree.n))
        times = rng.uniform(-1.0, 1.0, 8)
        spectral = power_flow(tree, starts, times)
        np.testing.assert_allclose(spectral, flow_rk4(tree, starts, times), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("points", [2, 3, 4, 7, 16, 65, 141, 501])
    def test_integration_matrix_is_exact_below_its_size(self, points):
        tau = (1.0 - np.cos(np.pi * np.arange(points) / (points - 1))) / 2.0
        matrix = _integration_matrix(points)
        for p in range(points):
            assert np.max(np.abs(matrix @ tau ** p - tau ** (p + 1) / (p + 1))) <= 1e-14, p

    @settings(max_examples=100, deadline=None)
    @given(small_trees(max_weight=3))
    def test_points_are_upward_nilpotence_plus_one(self, tree):
        # the premise of the --verify numeric guard, which bounds the
        # points by the closed-form nilpotence
        assert _flow_points(tree) - 1 == dim_and_nilpotence(tree, "up")[1]


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
            exact = np.array([float(poly_oracle.evaluate(fam.eta[i], env)) for i in (1, 2, 3)])
            got = evaluate(t, x)
            assert np.max(np.abs(got - exact)) <= 1e-8

    def test_missing_function(self):
        with pytest.raises(ValueError, match="missing coefficient"):
            eta_general_numeric(chain([1, 1]), {1: exp})

    @pytest.mark.parametrize("t", [0.7, -0.6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exponential_chains_match_simpson_oracle(self, k, t):
        tree = chain([1] * k)
        g = {i: exp for i in range(1, k + 1)}
        x = np.random.default_rng(k).uniform(-1.0, 1.0, k + 1)
        got = eta_general_numeric(tree, g)(t, x)
        np.testing.assert_allclose(got, eta_simpson(tree, g, t, x), rtol=0, atol=1e-9)

    def test_long_exponential_chain_is_fast(self):
        evaluate = eta_general_numeric(chain([1] * 40), {i: exp for i in range(1, 41)})
        start = time.perf_counter()
        got = evaluate(0.5, [0.1] * 41)
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(got))

    def test_kink_crossed_raises_at_the_cap(self):
        # |v| at x1 = -0.3 crosses 0 at s = 0.3 < t: algebraic convergence only
        evaluate = eta_general_numeric(chain([1]), {1: abs})
        with pytest.raises(RuntimeError, match=f"cap of {MAX_GENERAL_POINTS} points"):
            evaluate(0.8, [-0.3, 0.0])

    def test_kink_not_crossed_converges(self):
        # |v| = v on [0.5, 0.7]: eta_2 = 0.5 t + t^2 / 2
        got = eta_general_numeric(chain([1]), {1: abs})(0.2, [0.5, 0.0])
        assert got[1] == pytest.approx(0.12, abs=1e-15)

    @pytest.mark.parametrize(
        "t, x, message",
        [(nan, [0.1, 0.2], "t must be finite"), (inf, [0.1, 0.2], "t must be finite"),
         (0.5, [0.1, -inf], "x must be finite"), (0.5, [nan, 0.2], "x must be finite")],
    )
    def test_non_finite_input_raises(self, t, x, message):
        with pytest.raises(ValueError, match=message):
            eta_general_numeric(chain([1]), {1: exp})(t, x)

    def test_non_finite_coefficient_names_its_node(self):
        evaluate = eta_general_numeric(chain([1, 1]), {1: exp, 2: lambda v: inf})
        with pytest.raises(ValueError, match="node 2's coefficient"):
            evaluate(0.5, [0.1, 0.2, 0.3])
