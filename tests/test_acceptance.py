"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either a frozen closed-form count, a hand-checked
structure, or is cross-checked in place against an independent route
(downset oracle, nested-sum coefficients, RK4 characteristics, sixth-order
finite differences, trigonometric orthogonality).
"""

import json
import math
import time
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from treelie import (
    brute_force_ideals,
    chain,
    classify_nodes,
    dim_and_nilpotence,
    e_tree,
    enumerate_basis,
    enumerate_ideals,
    eta_family,
    fourier_coefficients,
    maximal_ideals,
    mode_exponent_symbolic,
    solve_heat,
    tree_to_dict,
    verify_first_order,
    verify_modes,
    verify_structure,
    xi_family,
)
from treelie.cli import main as cli_main
from treelie.firstorder import bch_coefficients
from treelie.heat import _exponent_parts, _mode_table, _waves
from treelie.polynomials import MultiPoly

from . import poly_oracle
from .bch_oracle import bch_coefficient_nested_sum
from .corpus import CORPUS, WIDE_Y
from .flow_oracle import flow_rk4


def _report(number, text):
    print(f"criterion {number:02d}: PASS - {text}")


def test_criterion_01_abelian_ideal_counts():
    start = time.monotonic()
    for n in range(2, 6):
        assert enumerate_ideals(chain([1] * (n - 1)), "up", mode="count") == 2 ** n
    for n in range(2, 5):
        t = chain([1] * (n - 2) + [2])
        assert enumerate_ideals(t, "up", mode="count") == 2 ** n
    for m in (3, 4):
        t = chain([1, m])
        assert enumerate_ideals(t, "up", mode="count") == 2 ** (m + 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"unit chains 4..32, weighted-end chains 4..16, "
               f"(1,m)-chains 16/32, in {elapsed:.2f}s")


def test_criterion_02_weighted_y_tree_count():
    n0, n1, n2 = 2, 2, 1
    formula = 2 ** (n0 + n1) * (
        2 ** n2
        + sum(
            comb(i, r) * comb(n0, r) * 2 ** (n2 - i)
            for i in range(1, n2 + 1)
            for r in range(1, i + 1)
        )
    )
    assert formula == 64
    ideals = enumerate_ideals(WIDE_Y, "up")
    oracle = brute_force_ideals(WIDE_Y, "up")
    assert len(ideals) == 64 == len(oracle)
    assert sorted(i.canonical() for i in ideals) == sorted(oracle)
    _report(2, "weighted Y-tree count 64 equals the closed form and the oracle")


def test_criterion_03_maximal_ideal_counts():
    for n in range(2, 6):
        assert len(maximal_ideals(chain([1] * (n - 1)), "up")) == n
    for n in range(2, 5):
        assert len(maximal_ideals(chain([1] * (n - 2) + [2]), "up")) == 1
    assert len(maximal_ideals(e_tree(2, 1, 1), "down")) == 3
    for n0, n1, n2 in [(3, 1, 1), (2, 2, 2), (3, 2, 1)]:
        assert len(maximal_ideals(e_tree(n0, n1, n2), "down")) == n0 + n1 * n2
    _report(3, "maximal counts n / 1 / n0+n1*n2 all exact")


def test_criterion_04_oracle_equivalence():
    assert len(CORPUS) >= 12
    for name, tree in CORPUS:
        for direction in ("up", "down"):
            assert len(enumerate_basis(tree, direction)) <= 16
            got = sorted(i.canonical() for i in enumerate_ideals(tree, direction))
            want = sorted(brute_force_ideals(tree, direction))
            assert got == want, (name, direction)
    _report(4, f"enumeration equals the oracle on {len(CORPUS)} trees, both directions")


def test_criterion_05_dimension_formulas():
    for name, tree in CORPUS + [("wide_y", WIDE_Y)]:
        for direction in ("up", "down"):
            dim, _ = dim_and_nilpotence(tree, direction)
            assert dim == len(enumerate_basis(tree, direction)), (name, direction)
    # printed instances: weighted chain upward, unit Y-tree and weighted
    # trunk Y-tree downward
    dim, _ = dim_and_nilpotence(chain([1, 2]), "up")
    assert dim == comb(3 + 2 - 1, 2) + 3 * 2 // 2 == 9
    dim, _ = dim_and_nilpotence(e_tree(2, 1, 1), "down")
    assert dim == 2 * (1 + 1) + (4 + 1 + 1 + 2 + 1 + 1) // 2 == 9
    dim, _ = dim_and_nilpotence(e_tree(2, 1, 1, first_trunk_weight=2), "down")
    assert dim == comb(2 + 1 + 1 + 2 - 1, 2) + 1 * 2 + (4 + 1 + 1 - 2 + 1 + 1) // 2 == 15
    _report(5, "formula dimension equals basis count everywhere; 9/9/15 instances")


def test_criterion_06_nilpotence_and_center():
    for name, tree in CORPUS:
        cls = classify_nodes(tree)
        zero = tuple(0 for _ in range(tree.n))
        for direction in ("up", "down"):
            _, nilp = dim_and_nilpotence(tree, direction)
            report = verify_structure(tree, direction)
            assert report.closure, (name, direction)
            assert len(report.central_series_dims) == nilp, (name, direction)
            if direction == "up":
                expected = {(zero, i) for i in cls.tips}
            else:
                expected = {(zero, 1)}
            assert set(report.center_basis) == expected, (name, direction)
    _report(6, "series length equals the height formula; centers match exactly")


def test_criterion_07_bch_data():
    data = bch_coefficients(6)
    for k in range(7):
        assert data.a[k] == bch_coefficient_nested_sum(k)
    assert data.a[:7] == (
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
        Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
    )
    prod = [Fraction(0)] * 7
    for i, ai in enumerate(data.a):
        for j, tj in enumerate(data.theta):
            if i + j <= 6:
                prod[i + j] += ai * tj
    assert prod == [Fraction(1)] + [Fraction(0)] * 6
    _report(7, "a_0..a_6 match the nested sums; product with the theta series is 1")


def test_criterion_08_first_order_solver():
    for name, tree in CORPUS:
        last = tree.n
        fs = ["x1^3", "x1"]
        if tree.n >= 2:
            fs.append(f"x{last}^2 + 2*x1*x{last} - x{last}")
        if tree.n >= 3:
            fs.append(f"x1*x2*x{last}")
        for f in fs:
            report = verify_first_order(eta_family(tree), f, mode="exact")
            assert report.ok, (name, f)
    rng = np.random.default_rng(123)
    fam = eta_family(chain([1, 2]))
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1, 1, 3)
        t = rng.uniform(-1, 1)
        env = {"t": t, "x1": x0[0], "x2": x0[1], "x3": x0[2]}
        exact = np.array(
            [float(Fraction(x0[i - 1]) + poly_oracle.evaluate(fam.eta[i], env)) for i in (1, 2, 3)]
        )
        worst = max(worst, float(np.max(np.abs(flow_rk4(chain([1, 2]), x0, t) - exact))))
    assert worst <= 1e-6
    s = MultiPoly.var("t2")
    t = MultiPoly.var("t")
    for name, tree in CORPUS:
        fam = eta_family(tree)
        future = {
            f"x{i}": MultiPoly.var(f"x{i}") + fam.eta[i] for i in range(1, tree.n + 1)
        }
        for i in range(1, tree.n + 1):
            lhs = fam.eta[i].substitute({"t": t + s})
            rhs = fam.eta[i] + fam.eta[i].substitute({"t": s}).substitute(future)
            assert lhs == rhs, (name, i)
    _report(8, f"exact residuals vanish; RK4 worst error {worst:.2e}; "
               "flow composition exact")


def test_criterion_09_heat_solver():
    # frozen second-order chain polynomial
    t, z1, z2 = MultiPoly.var("t"), MultiPoly.var("z1"), MultiPoly.var("z2")
    xi = xi_family(chain([1]), [2, 2])
    assert xi.xi_tilde[1] == t * z1 ** 2 + t ** 2 * z1 * z2 ** 2 + t ** 3 * z2 ** 4 * Fraction(1, 3)
    k1, k2, x1 = MultiPoly.var("k1"), MultiPoly.var("k2"), MultiPoly.var("x1")
    A, B = mode_exponent_symbolic(xi)
    assert A == -(k1 ** 2) * t - x1 * k2 ** 2 * t + k2 ** 4 * t ** 3 * Fraction(1, 3)
    assert B == -(k1 * k2 ** 2) * t ** 2

    # exact mode identity across the corpus for small order vectors
    for name, tree in CORPUS:
        for orders in (
            tuple([1] * tree.n),
            tuple([2] * tree.n),
            tuple(((i * 2) % 3) + 1 for i in range(tree.n)),
        ):
            assert verify_modes(xi_family(tree, orders)).ok, (name, orders)

    # finite-difference residual on the second-order chain
    box = (1.0, 1.0)
    rng = np.random.default_rng(99)
    s1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    s2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    offs = np.arange(-3, 4)
    # the top mode's exponent varies on a 1e-3 time scale; h balances the
    # sixth-order truncation against rounding in the stencil sums
    h = 1e-4
    for k in product(range(3), repeat=2):
        table = _mode_table(xi, _waves(k, box))

        def phi(tv, xv):
            const, coeffs = _exponent_parts(table, xi.tree, tv)
            e = const[0] + xv[0] * coeffs[0, 0]
            theta = 2 * np.pi * (k[0] * xv[0] / box[0] + k[1] * xv[1] / box[1])
            return math.exp(e.real) * math.cos(theta + e.imag)

        for _ in range(50):
            tv = float(rng.uniform(0.0, 0.2))
            xv = rng.uniform(-1.0, 1.0, 2)
            dt = sum(w * phi(tv + o * h, xv) for w, o in zip(s1, offs)) / h
            dxx = sum(w * phi(tv, [xv[0] + o * h, xv[1]]) for w, o in zip(s2, offs)) / h ** 2
            dyy = sum(w * phi(tv, [xv[0], xv[1] + o * h]) for w, o in zip(s2, offs)) / h ** 2
            assert abs(dt - dxx - xv[0] * dyy) <= 1e-4 * max(1.0, abs(dt), abs(dxx + xv[0] * dyy))

    # time-zero recovery and normalization
    f = "cos(2*pi*x1/2) + 0.5*sin(2*pi*2*x2) - 0.25"
    sol = solve_heat(chain([1]), [2, 2], f, (2.0, 1.0), 3, 32)
    for x1v in np.linspace(-2, 2, 10):
        for x2v in np.linspace(-1, 1, 10):
            expected = (
                math.cos(math.pi * x1v) + 0.5 * math.sin(4 * math.pi * x2v) - 0.25
            )
            assert abs(sol(0.0, [x1v, x2v]) - expected) <= 1e-8
    b, _ = fourier_coefficients("1", (1.0, 1.0), 2, 16)
    assert b[0, 0] == pytest.approx(1.0)
    b, c = fourier_coefficients("cos(2*pi*x1/1.0)", (1.0, 1.0), 2, 16)
    assert b[1, 0] == pytest.approx(1.0)
    rest = np.abs(b) + np.abs(c)
    rest[1, 0] = 0.0
    assert rest.max() <= 1e-12
    _report(9, "chain polynomial frozen; mode identity exact on the corpus; "
               "FD residual, recovery, and normalization within tolerance")


def test_criterion_10_cli(tmp_path, capsys):
    a3 = tmp_path / "a3.json"
    a3.write_text(json.dumps(tree_to_dict(chain([1, 2]))))
    a2 = tmp_path / "a2.json"
    a2.write_text(json.dumps(tree_to_dict(chain([1]))))

    assert cli_main(["info", str(a3), "--direction", "up"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["dim"] == 9
    assert doc["center"] == ["d3"]
    assert doc["nilpotence"] == len(doc["central_series_dims"])

    assert cli_main(["info", str(a3), "--direction", "up"]) == 0
    assert capsys.readouterr().out == first

    assert cli_main(["ideals", str(a2), "--direction", "up", "--count-only"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4

    assert cli_main(["bch", "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"] == ["1", "1/2", "1/12", "0"]
    _report(10, "info/ideals/bch values verified; info output byte-identical")
