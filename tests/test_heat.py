"""Derivative-symbol polynomials, mode exponents, Fourier coefficients,
and the assembled heat-type solver."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treelie import (
    chain,
    e_tree,
    expressions,
    fourier_coefficients,
    mode_exponent,
    mode_exponent_symbolic,
    solve_heat,
    star,
    verify_modes,
    xi_family,
)
from treelie.heat import _exponent_parts, _grid_values, _mode_table, _waves, mode_weight
from treelie.polynomials import MultiPoly

from . import poly_oracle
from .corpus import CORPUS, small_trees
from .heat_oracle import (
    fourier_coefficients_fftn,
    mode_exponents,
    mode_sum,
    poly_to_sympy,
    split_exponent_sympy,
)

T = MultiPoly.var("t")
Z1 = MultiPoly.var("z1")
Z2 = MultiPoly.var("z2")
K1 = MultiPoly.var("k1")
K2 = MultiPoly.var("k2")
X1 = MultiPoly.var("x1")


class TestXiFamily:
    def test_chain_second_order(self):
        xi = xi_family(chain([1]), [2, 2])
        assert xi.xi_tilde[2] == T * Z2 ** 2
        assert xi.xi_tilde[1] == (
            T * Z1 ** 2 + T ** 2 * Z1 * Z2 ** 2 + T ** 3 * Z2 ** 4 * Fraction(1, 3)
        )

    def test_single_node(self):
        for m in (1, 2, 5):
            xi = xi_family(chain([]), [m])
            assert xi.xi_tilde[1] == T * Z1 ** m

    def test_chain_mixed_orders(self):
        xi = xi_family(chain([1]), [1, 2])
        assert xi.xi_tilde[1] == T * Z1 + T ** 2 * Z2 ** 2 * Fraction(1, 2)

    def test_tip_form_and_zero_at_time_zero(self):
        for _, tree in CORPUS:
            orders = [((i * 2) % 3) + 1 for i in range(tree.n)]
            xi = xi_family(tree, orders)
            for i in range(1, tree.n + 1):
                poly = xi.xi_tilde[i]
                assert poly.substitute({"t": 0}).is_zero
                allowed = {"t"} | {
                    f"z{s}" for s in (i,) + tree.descendants(i)
                }
                assert poly.variables_used() <= allowed
                if not tree.children(i):
                    assert poly == T * MultiPoly.term(1, **{f"z{i}": orders[i - 1]})

    def test_corpus_matches_substitute_oracle(self):
        # xi~ by renaming t -> y1 equals the substitution route, and so do
        # the growth and phase exponents A and B split from it
        for name, tree in CORPUS:
            for orders in _order_vectors(tree.n):
                xi = xi_family(tree, orders)
                oracle = poly_oracle.xi_family(tree, orders)
                assert xi.xi_tilde == oracle, (name, orders)
                expected = mode_exponent_symbolic(dataclasses.replace(xi, xi_tilde=oracle))
                assert mode_exponent_symbolic(xi) == expected, (name, orders)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            xi_family(chain([1]), [2])
        with pytest.raises(ValueError):
            xi_family(chain([1]), [0, 2])


class TestModeExponent:
    def test_chain_second_order_closed_form_symbolic(self):
        xi = xi_family(chain([1]), [2, 2])
        A, B = mode_exponent_symbolic(xi)
        expected_a = (
            -(K1 ** 2) * T
            - X1 * K2 ** 2 * T
            + K2 ** 4 * T ** 3 * Fraction(1, 3)
        )
        expected_b = -(K1 * K2 ** 2) * T ** 2
        assert A == expected_a
        assert B == expected_b

    def test_chain_second_order_numeric(self):
        xi = xi_family(chain([1]), [2, 2])
        k, box, t = (1, 2), (2.0, 1.5), 0.12
        A, B = mode_exponent(xi, k, box, t)
        k1 = 2 * math.pi * k[0] / box[0]
        k2 = 2 * math.pi * k[1] / box[1]
        assert A.const == pytest.approx(-k1 ** 2 * t + k2 ** 4 * t ** 3 / 3)
        assert A.coeffs[0] == pytest.approx(-k2 ** 2 * t)
        assert A.coeffs[1] == 0.0
        assert B.const == pytest.approx(-k1 * k2 ** 2 * t ** 2)

    def test_zero_frequency_mode_is_constant(self):
        xi = xi_family(chain([1]), [2, 2])
        A, B = mode_exponent(xi, (0, 0), (1.0, 1.0), 0.4)
        assert A.const == 0.0 and B.const == 0.0
        assert all(c == 0.0 for c in A.coeffs + B.coeffs)

    def test_zero_time(self):
        xi = xi_family(chain([1, 1]), [2, 1, 3])
        for k in [(1, 0, 2), (2, 2, 2)]:
            A, B = mode_exponent(xi, k, (1.0, 2.0, 1.0), 0.0)
            assert A.const == 0.0 and B.const == 0.0
            assert all(c == 0.0 for c in A.coeffs + B.coeffs)

    def test_odd_orders_shift_the_phase_affinely(self):
        xi = xi_family(chain([1]), [1, 1])
        A, B = mode_exponent(xi, (1, 1), (1.0, 1.0), 0.3)
        assert all(c == 0.0 for c in A.coeffs) and A.const == 0.0
        assert B.coeffs[0] != 0.0

    def test_dimension_mismatch(self):
        xi = xi_family(chain([1]), [2, 2])
        with pytest.raises(ValueError):
            mode_exponent(xi, (1,), (1.0, 1.0), 0.1)


class TestVerifyModes:
    def test_single_node(self):
        for m in (1, 2, 3):
            assert verify_modes(xi_family(chain([]), [m])).ok

    def test_chain_second_order(self):
        assert verify_modes(xi_family(chain([1]), [2, 2])).ok

    def test_branching_tree(self):
        assert verify_modes(xi_family(e_tree(2, 1, 1), [2, 2, 2, 2])).ok

    def test_corpus_order_sweeps(self):
        for _, tree in CORPUS:
            for orders in _order_vectors(tree.n):
                check = verify_modes(xi_family(tree, orders))
                assert check.ok, (tree, orders, str(check.residual))

    def test_wrong_exponent_is_rejected(self):
        # xi~_1 of chain([1]), orders [2, 2], with its t^3 coefficient
        # 1/3 raised to 1/2: the identity then misses by t^2*z2^4/2
        xi = xi_family(chain([1]), [2, 2])
        wrong = xi.xi_tilde[1] + T ** 3 * Z2 ** 4 * Fraction(1, 6)
        tampered = dataclasses.replace(xi, xi_tilde={**xi.xi_tilde, 1: wrong})
        check = verify_modes(tampered)
        assert check.ok is False
        assert check.residual == T ** 2 * Z2 ** 4 * Fraction(1, 2)


class TestSymbolicSplitOracle:
    def test_corpus_split_matches_sympy(self):
        # A + I*B against sympy's expansion of the exponent at z_r = I*k_r
        sympy = pytest.importorskip("sympy")
        for name, tree in CORPUS:
            if tree.n > 4:
                continue
            for orders in _order_vectors(tree.n):
                xi = xi_family(tree, orders)
                A, B = mode_exponent_symbolic(xi)
                re, im = split_exponent_sympy(xi)
                got = poly_to_sympy(A) + sympy.I * poly_to_sympy(B)
                assert sympy.expand(got - (re + sympy.I * im)) == 0, (name, orders)


def _order_vectors(n):
    fixed = [tuple([2] * n), tuple([1] * n)]
    cyc = tuple((i % 3) + 1 for i in range(n))
    return fixed + [cyc]


class TestFiniteDifferenceResidual:
    def test_chain_second_order_modes(self):
        # sixth-order central differences corroborate the symbolic identity
        tree = chain([1])
        box = (1.0, 1.0)
        xi = xi_family(tree, [2, 2])
        rng = np.random.default_rng(42)
        stencil1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        stencil2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        offsets = np.arange(-3, 4)

        def modes(k):
            table = _mode_table(xi, _waves(k, box))

            def phi(t, x):
                const, coeffs = _exponent_parts(table, xi.tree, t)
                e = const[0] + x[0] * coeffs[0, 0]
                theta = 2 * np.pi * (k[0] * x[0] / box[0] + k[1] * x[1] / box[1])
                return math.exp(e.real) * math.cos(theta + e.imag)

            return phi

        # the top mode's exponent varies on a 1e-3 time scale
        h = 1e-4
        for k in product(range(3), repeat=2):
            phi = modes(k)
            for _ in range(50):
                t = float(rng.uniform(0.0, 0.2))
                x = rng.uniform(-1.0, 1.0, 2)
                dt = sum(
                    w * phi(t + o * h, x) for w, o in zip(stencil1, offsets)
                ) / h
                dxx = sum(
                    w * phi(t, [x[0] + o * h, x[1]])
                    for w, o in zip(stencil2, offsets)
                ) / h ** 2
                dyy = sum(
                    w * phi(t, [x[0], x[1] + o * h])
                    for w, o in zip(stencil2, offsets)
                ) / h ** 2
                lhs = dt
                rhs = dxx + x[0] * dyy
                scale = max(1.0, abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-4 * scale, (k, t, x)


class TestFourierCoefficients:
    def test_constant(self):
        co = fourier_coefficients("1", (1.0, 1.0), 2, 16)
        assert co[(0, 0)][0] == pytest.approx(1.0)
        rest = max(
            abs(b) + abs(c) for k, (b, c) in co.items() if k != (0, 0)
        )
        assert rest <= 1e-12

    def test_single_cosine(self):
        co = fourier_coefficients("cos(2*pi*x1/1.5)", (1.5, 1.0, 1.0), 2, 16)
        assert co[(1, 0, 0)][0] == pytest.approx(1.0)
        rest = max(
            abs(b) + abs(c) for k, (b, c) in co.items() if k != (1, 0, 0)
        )
        assert rest <= 1e-12

    def test_product_projects_onto_the_sum_frequency(self):
        # sin(A)cos(B) = sin(A+B)/2 + sin(A-B)/2, and only the first summand
        # lies in the nonnegative-frequency family; the raw quadrature picks
        # up coefficient 1 at (1, 1), here unchanged by the weighting
        co = fourier_coefficients(
            "sin(2*pi*x1)*cos(2*pi*x2)", (1.0, 1.0), 2, 16
        )
        assert co[(1, 1)][1] == pytest.approx(1.0)
        rest = max(abs(b) + abs(c) for k, (b, c) in co.items() if k != (1, 1))
        assert rest <= 1e-12

    def test_weight_values(self):
        assert mode_weight((0, 0, 0)) == 0.125
        assert mode_weight((1, 0, 2)) == 0.5
        assert mode_weight((1, 1)) == 1.0

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            fourier_coefficients("1", (1.0,), 4, 8)
        with pytest.raises(ValueError):
            fourier_coefficients("1", (1.0,), 2, 12)

    def test_sparse_sampling_matches_the_full_mesh(self):
        box = (1.0, 1.5, 2.0)
        samples = 8
        axes = [(-a + 2.0 * a * np.arange(samples) / samples) for a in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        for f in (
            "cos(2*pi*x1/1) + 0.5*sin(pi*x3/2) - 0.25",
            "x1*x2^2 - exp(x3)/3 + 2",
            "sin(x2)",
            "-pi",
        ):
            full = np.broadcast_to(
                expressions.evaluate(expressions.parse_expression(f, 3), mesh), mesh[0].shape
            )
            got = _grid_values(f, box, samples)
            assert got.shape == (samples,) * 3
            assert np.array_equal(got, full), f

    def test_coefficients_equal_full_fft_oracle(self):
        # bit for bit: zero coefficients come out at rounding level, and
        # the mode sum multiplies them by exp(A), up to 1e29 on star(3, 2)
        # at t = 0.04, so u follows the FFT's rounding there
        cases = [(name, tree, f"exp(-x1^2) + x{tree.n}*cos(3*x1) - sin(pi*x{tree.n}/2)",
                  tuple(1.0 + 0.5 * (i % 3) for i in range(tree.n))) for name, tree in CORPUS]
        cases.append(("star(3,2)", star(3, 2),
                      "-1/2*sin(1*pi*x2/1.0) - 1/3*cos(2*pi*x4/1.5) + 1*sin(2*pi*x4/1.5)",
                      (2.0, 1.0, 1.0, 1.5)))
        for name, tree, f, box in cases:
            for samples in (16, 32):
                if samples ** tree.n > 1 << 20:
                    continue
                for cutoff in (1, 3, samples // 4):
                    got = fourier_coefficients(f, box, cutoff, samples)
                    assert got == fourier_coefficients_fftn(f, box, cutoff, samples), (
                        name, samples, cutoff)

    def test_gridded_samples_accepted(self):
        grid = np.ones((16, 16))
        co = fourier_coefficients(grid, (1.0, 1.0), 1, 16)
        assert co[(0, 0)][0] == pytest.approx(1.0)


class TestSolveHeat:
    def test_classical_decay_of_an_uncoupled_mode(self):
        tree = chain([1])
        sol = solve_heat(tree, [2, 2], "cos(2*pi*x1/2)", (2.0, 1.0), 2, 16)
        for t in (0.0, 0.05, 0.2):
            for x1, x2 in [(0.3, -0.4), (-1.2, 0.9)]:
                expected = math.exp(-4 * math.pi ** 2 * t / 4) * math.cos(
                    2 * math.pi * x1 / 2
                )
                assert sol(t, [x1, x2]) == pytest.approx(expected, abs=1e-10)

    def test_time_zero_recovery_of_axis_aligned_data(self):
        tree = chain([1])
        f = "cos(2*pi*x1/2) + 0.5*sin(2*pi*2*x2) - 0.25"
        sol = solve_heat(tree, [2, 2], f, (2.0, 1.0), 3, 32)
        worst = 0.0
        for x1 in np.linspace(-2, 2, 10):
            for x2 in np.linspace(-1, 1, 10):
                expected = (
                    math.cos(2 * math.pi * x1 / 2)
                    + 0.5 * math.sin(4 * math.pi * x2)
                    - 0.25
                )
                worst = max(worst, abs(sol(0.0, [x1, x2]) - expected))
        assert worst <= 1e-8

    def test_zero_data(self):
        sol = solve_heat(chain([1]), [2, 2], "0", (1.0, 1.0), 2, 16)
        assert sol(0.3, [0.2, 0.1]) == 0.0

    def test_mode_pair_stays_real(self):
        # the plus and minus frequency exponents are complex conjugates, so
        # the assembled cosine and sine modes carry no imaginary residue
        xi = xi_family(chain([1, 1]), [2, 1, 2])
        box = (1.0, 2.0, 1.0)
        for k in [(1, 0, 1), (2, 1, 1)]:
            plus = _mode_table(xi, _waves(k, box))
            minus = _mode_table(xi, -_waves(k, box))
            rng = np.random.default_rng(3)
            for _ in range(5):
                t = float(rng.uniform(0, 0.3))
                x = rng.uniform(-1, 1, 3)
                const, coeffs = _exponent_parts(plus, xi.tree, t)
                ep = const[0] + coeffs[0] @ x
                const, coeffs = _exponent_parts(minus, xi.tree, t)
                em = const[0] + coeffs[0] @ x
                theta = 2 * np.pi * sum(kv * xv / a for kv, xv, a in zip(k, x, box))
                mode_plus = np.exp(ep) * np.exp(1j * theta)
                mode_minus = np.exp(em) * np.exp(-1j * theta)
                phi = 0.5 * (mode_plus + mode_minus)
                psi = 0.5 / 1j * (mode_plus - mode_minus)
                assert abs(phi.imag) <= 1e-12 * max(1.0, abs(phi.real))
                assert abs(psi.imag) <= 1e-12 * max(1.0, abs(psi.real))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            solve_heat(chain([1]), [2, 2], "1", (1.0,), 2, 16)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_box_is_rejected(self, bound):
        with pytest.raises(ValueError, match="positive half-width"):
            solve_heat(chain([1]), [2, 2], "1", (1.0, bound), 1, 4)
        with pytest.raises(ValueError, match="must be positive"):
            mode_exponent(xi_family(chain([1]), [2, 2]), (1, 1), (1.0, bound), 0.1)

    def test_single_point_and_batch_shapes(self):
        sol = solve_heat(chain([1]), [2, 2], "cos(2*pi*x1/2)", (2.0, 1.0), 2, 16)
        points = np.array([[0.3, -0.4], [-1.2, 0.9], [0.0, 0.0]])
        batch = sol(0.05, points)
        assert batch.shape == (3,)
        single = [sol(0.05, p) for p in points]
        assert all(type(v) is float for v in single)
        assert np.allclose(batch, single, rtol=1e-14, atol=1e-14)
        with pytest.raises(ValueError):
            sol(0.05, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            sol(0.05, np.zeros((2, 2, 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        tree=small_trees(max_nodes=4, max_weight=1),
        data=st.data(),
    )
    def test_batched_evaluation_matches_the_mode_loop(self, tree, data):
        n = tree.n
        orders = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        cutoff = data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        t = data.draw(st.floats(0.0, 0.05))
        rng = np.random.default_rng(seed)
        box = rng.uniform(1.0, 2.0, n)
        sol = solve_heat(tree, orders, rng.uniform(-1.0, 1.0, (16,) * n), box, cutoff, 16)
        points = rng.uniform(-1.0, 1.0, (6, n)) * box
        want = mode_sum(sol, t, points)
        assume(np.all(np.isfinite(want)))
        got = sol(t, points)
        # both routes round each mode's exponent E (growth plus phase, in
        # the phase's radians) to about one ulp of |E|, so where growing or
        # fast-turning modes cancel the sum carries an error of order
        # eps * cond, cond = max over points of sum |b|+|c| times e^Re(E)
        # times (1 + |E|); 1e-14 * cond adds a 50-fold margin over the
        # largest ratio seen in 2000 random draws
        exponents = mode_exponents(sol, t)
        cond = 0.0
        for x in points:
            total = 0.0
            for mode, (const, coeffs) in zip(sol.modes, exponents):
                e = const + coeffs @ x + 2j * np.pi * np.dot(mode.k, x / np.array(sol.box))
                total += (abs(mode.b) + abs(mode.c)) * np.exp(e.real) * (1.0 + abs(e))
            cond = max(cond, total)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(want)))) + 1e-14 * cond
        assert np.max(np.abs(got - want)) <= bound
        assert abs(sol(t, points[0]) - want[0]) <= bound
