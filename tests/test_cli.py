"""Command-line surface: JSON values, determinism, and exit codes."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import cos, prod, sin, sqrt

import pytest

import treelie
from treelie import (
    build_tree, chain, cli, firstorder, heat, ideals, liealg, star, tree_to_dict, trees,
)
from treelie.cli import (
    CSV_BLOCK,
    MAX_BCH_K,
    MAX_CSV_ROWS,
    MAX_DIM,
    MAX_FLOW_NILPOTENCE,
    MAX_SIMPLEX_BOUND,
    _guard_dim,
    main,
)
from treelie.heat import MAX_MODES, MAX_QUADRATURE_POINTS, MAX_XI_PRODUCTS, MAX_XI_TERMS

from .heat_oracle import csv_writer_text


@pytest.fixture()
def tree_file(tmp_path):
    def write(name, tree):
        path = tmp_path / name
        path.write_text(json.dumps(tree_to_dict(tree)))
        return str(path)

    return write


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_weighted_chain_upward(self, tree_file, capsys):
        path = tree_file("a3.json", chain([1, 2]))
        code, out, _ = run(["info", path, "--direction", "up"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 9
        assert doc["center"] == ["d3"]
        assert doc["closure"] is True
        assert doc["central_series_dims"] == [9, 6, 4, 2, 1]
        assert doc["nilpotence"] == len(doc["central_series_dims"]) == 5

    def test_downward(self, tree_file, capsys):
        path = tree_file("a3.json", chain([1, 2]))
        code, out, _ = run(["info", path, "--direction", "down"], capsys)
        doc = json.loads(out)
        assert (doc["dim"], doc["nilpotence"], doc["center"]) == (8, 4, ["d1"])

    def test_byte_identical_reruns(self, tree_file, capsys):
        path = tree_file("a3.json", chain([1, 2]))
        _, first, _ = run(["info", path], capsys)
        _, second, _ = run(["info", path], capsys)
        assert first == second


class TestIdeals:
    def test_count_only(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, _ = run(
            ["ideals", path, "--direction", "up", "--count-only"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert doc["maximal_count"] == 2
        assert doc["oracle_checked"] is False

    def test_listing_with_oracle(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, _ = run(["ideals", path, "--oracle"], capsys)
        doc = json.loads(out)
        assert doc["oracle_checked"] is True
        assert doc["count"] == len(doc["ideals"]) == 4
        dims = sorted(i["dim"] for i in doc["ideals"])
        assert dims == [0, 1, 2, 2]
        for ideal in doc["ideals"]:
            for root in ideal["roots"]:
                assert len(root) == 2 and root.count(-1) == 1


class TestDimGuard:
    """info, basis and ideals refuse an algebra past MAX_DIM from its
    closed-form dim, before any structure, basis or classification work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("structure work started before the size guard")

        for name in ("verify_structure", "enumerate_basis", "structure_table"):
            monkeypatch.setattr(liealg, name, refuse)
        monkeypatch.setattr(trees, "classify_nodes", refuse)

    @pytest.mark.parametrize("command", ["info", "basis", "ideals"])
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_guard_before_any_work(self, tree_file, capsys, command, direction):
        path = tree_file("c12.json", chain([2] * 12))
        code, out, err = run([command, path, "--direction", direction], capsys)
        assert code == 2 and out == ""
        assert err.startswith("size guard: dim ") and err.count("\n") == 1
        assert str(MAX_DIM) in err
        # dim 6 092 (the largest timed) passes, dim 29 413 does not
        assert 6092 <= MAX_DIM < 29413

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_each_simplex_derived_once(self, monkeypatch, direction):
        # the guard's lower bound and the closed-form dim share the simplices
        tree = build_tree(5, [(1, 2, 2), (2, 3, 1), (2, 4, 2), (1, 5, 1)])
        want = liealg.dim_and_nilpotence(tree, direction)
        derived = []
        node_simplex = liealg.node_simplex

        def counting(tree, i, direction):
            derived.append(i)
            return node_simplex(tree, i, direction)

        monkeypatch.setattr(liealg, "node_simplex", counting)
        assert _guard_dim(tree, direction) == want
        assert derived == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("weight", [10**8, 10**11])
    @pytest.mark.parametrize("command", ["info", "basis", "ideals"])
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_lower_bound_before_any_series_work(
        self, tree_file, capsys, monkeypatch, weight, command, direction
    ):
        # series_coeff would loop to the weight, or fail to allocate it
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the size guard")

        monkeypatch.setattr(liealg, "series_coeff", refuse)
        path = tree_file("c1.json", chain([weight]))
        code, out, err = run([command, path, "--direction", direction], capsys)
        assert code == 2 and out == ""
        assert err == f"size guard: dim at least {weight + 2} exceeds the guard of {MAX_DIM}\n"

    @pytest.mark.parametrize("command", ["info", "basis", "ideals"])
    def test_simplex_bound_before_any_series_work(self, tree_file, capsys, monkeypatch, command):
        # the root simplex of this star has bound 2 * 3 * 5 * ... * 47 * 2,
        # about 1.2e18, a series list no machine can hold, while its axis
        # points number only a few hundred
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the size guard")

        monkeypatch.setattr(liealg, "series_coeff", refuse)
        weights = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 2]
        path = tree_file("star.json", build_tree(17, [(1, c, w) for c, w in enumerate(weights, 2)]))
        code, out, err = run([command, path, "--direction", "down"], capsys)
        assert code == 2 and out == ""
        assert err == (
            f"size guard: simplex bound {prod(weights)} at node 1"
            f" exceeds the guard of {MAX_SIMPLEX_BOUND}\n"
        )

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_exact_dim_past_a_small_lower_bound(self, tree_file, capsys, direction):
        # the axis points of chain([2] * 6) number 247, its dim is 29 413
        path = tree_file("c6.json", chain([2] * 6))
        code, out, err = run(["info", path, "--direction", direction], capsys)
        assert code == 2 and out == ""
        assert err == f"size guard: dim 29413 exceeds the guard of {MAX_DIM}\n"

    @pytest.mark.parametrize(
        "command, nodes", [(["info"], 1000), (["ideals", "--count-only"], 300)], ids=["info", "ideals"]
    )
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_long_unit_chain(self, tree_file, capsys, command, nodes, direction):
        # a unit chain's axis points number n(n + 1)/2 in either direction
        path = tree_file("chain.json", chain([1] * (nodes - 1)))
        code, out, err = run([command[0], path, "--direction", direction, *command[1:]], capsys)
        assert code == 2 and out == ""
        low = nodes * (nodes + 1) // 2
        assert err == f"size guard: dim at least {low} exceeds the guard of {MAX_DIM}\n"


class TestBch:
    def test_first_four(self, capsys):
        code, out, _ = run(["bch", "--k", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == ["1", "1/2", "1/12", "0"]

    def test_negative_order(self, capsys):
        code, _, err = run(["bch", "--k", "-2"], capsys)
        assert code == 1 and "nonnegative" in err

    def test_order_guard_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the size guard")

        monkeypatch.setattr(firstorder, "bch_coefficients", refuse)
        code, out, err = run(["bch", "--k", str(MAX_BCH_K + 1)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("size guard: ") and err.count("\n") == 1
        assert "--k" in err and str(MAX_BCH_K) in err
        assert 80 < MAX_BCH_K < 1400

    def test_guard_order_prints_every_digit(self, capsys):
        # Python's str() of an int stops at 4 300 digits, and a at the
        # guard is the longest coefficient the command prints
        code, out, _ = run(["bch", "--k", str(MAX_BCH_K)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["a"]) == len(doc["theta"]) == MAX_BCH_K + 1
        assert all(str(Fraction(v)) == v for v in doc["a"] + doc["theta"])


class TestSolveFirst:
    def test_closed_form_with_eta_and_verification(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, _ = run(
            [
                "solve-first", path,
                "--f", "x2", "--t", "0.7", "--x", "0.3,-0.2",
                "--emit-eta", "--verify", "exact",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["u"] == pytest.approx(-0.2 + 0.3 * 0.7 + 0.7 ** 2 / 2)
        assert doc["eta"] == ["t", "x1*t + 1/2*t^2"]
        assert doc["verified"] is True

    def test_wrong_coordinate_count(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, _, err = run(
            ["solve-first", path, "--f", "x1", "--t", "0.1", "--x", "1.0"], capsys
        )
        assert code == 1 and "coordinates" in err

    # u = x2 + ((x1+t)^(w+1) - x1^(w+1))/(w+1) at t = 1 and the double
    # nearest -0.9, correctly rounded: a float sum of eta's terms cancels
    @pytest.mark.parametrize("weight, u", [
        (40, 0.0003244584060314914),
        (60, 2.6513266720049027e-05),
        (100, 2.3668573266167118e-07),
    ])
    def test_heavy_edge_is_rounded_once(self, tree_file, capsys, weight, u):
        x1 = Fraction(-0.9)
        assert u == float(((x1 + 1) ** (weight + 1) - x1 ** (weight + 1)) / (weight + 1))
        path = tree_file("a2.json", chain([weight]))
        argv = ["solve-first", path, "--f", "x2", "--t", "1", "--x=-0.9,0", "--verify", "exact"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out) == {"u": u, "verified": True}

    # judged by the error relative to max(1, |flow|): at weight 40 the
    # coordinates reach about 2^41 / 41, past an absolute tolerance of 1e-6
    @pytest.mark.parametrize("weight", [20, 40])
    def test_heavy_edge_verifies_numerically(self, tree_file, capsys, weight):
        path = tree_file("a2.json", chain([weight]))
        argv = ["solve-first", path, "--f", "x2", "--t", "1", "--x=-0.9,0", "--verify", "numeric"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["verified"] is True


class TestDegreeGuard:
    """solve-first puts no bound on the degree of f: exact verification
    checks the coordinate residuals of x + eta, whatever f is. Its guard
    is the upward dim, which equals the number of terms of eta, and it
    runs before eta is built in every mode; --verify numeric also guards
    the upward nilpotence, which sets the points of the spectral flow."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("polynomial work started before the size guard")

        monkeypatch.setattr(firstorder, "eta_family", refuse)

    @pytest.mark.parametrize("verify", [[], ["--verify", "exact"], ["--verify", "numeric"]])
    def test_dim_guard_before_eta(self, tree_file, capsys, no_work, verify):
        tree = chain([2] * 6)
        dim = liealg.dim_and_nilpotence(tree, "up")[0]
        assert dim > MAX_DIM
        path = tree_file("a7.json", tree)
        argv = ["solve-first", path, "--f", "x1", "--t", "0.1", "--x", ",".join(["0"] * 7)]
        code, out, err = run(argv + verify, capsys)
        assert code == 2 and out == ""
        assert err.startswith("size guard: dim ") and err.endswith(f"the guard of {MAX_DIM}\n")

    def test_nilpotence_guard_before_eta(self, tree_file, capsys, no_work):
        # inside the dim guard, but the spectral flow would take 502 points
        tree = chain([MAX_FLOW_NILPOTENCE])
        dim, nilp = liealg.dim_and_nilpotence(tree, "up")
        assert dim <= MAX_DIM and nilp == MAX_FLOW_NILPOTENCE + 1
        path = tree_file("a2.json", tree)
        argv = ["solve-first", path, "--f", "x1", "--t", "0.1", "--x", "0,0", "--verify", "numeric"]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"size guard: upward nilpotence {nilp} exceeds the --verify numeric "
                       f"guard of {MAX_FLOW_NILPOTENCE}\n")
        # chain([1]*139), the worst solve-first tree of the dim guard, stays inside
        assert 140 <= MAX_FLOW_NILPOTENCE

    @pytest.mark.parametrize("verify, past", [
        ([], 0), (["--verify", "exact"], 0), (["--verify", "numeric"], 2),
    ])
    def test_nilpotence_guard_only_under_numeric(self, tree_file, capsys, verify, past):
        # at the guard every mode runs; past it only --verify numeric stops
        for weight, code in ((MAX_FLOW_NILPOTENCE - 1, 0), (MAX_FLOW_NILPOTENCE, past)):
            path = tree_file("a2.json", chain([weight]))
            argv = ["solve-first", path, "--f", "x2", "--t", "0.1", "--x", "0,0"]
            assert run(argv + verify, capsys)[0] == code, weight

    @pytest.mark.parametrize("verify", [[], ["--verify", "exact"], ["--verify", "numeric"]])
    def test_other_modes_are_not_guarded(self, tree_file, capsys, verify):
        path = tree_file("a3.json", chain([2, 1]))
        argv = ["solve-first", path, "--f", "(x1+x2+x3)^20", "--t", "0.1", "--x", "0,0,0.1"]
        code, out, _ = run(argv + verify, capsys)
        assert code == 0 and json.loads(out)["u"] > 0

    def test_at_the_guard_exact_verification_runs(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        argv = ["solve-first", path, "--f", "(x1+x2)^6", "--t", "0.1",
                "--x", "0,0", "--verify", "exact"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["verified"] is True

    @pytest.mark.parametrize("f", ["x1^7 * x2", "(x1+x2)^12"])
    def test_degree_above_six_verifies_exactly(self, tree_file, capsys, f):
        # these exited 2 under the former f-degree guard of 6
        path = tree_file("a3.json", chain([2, 1]))
        argv = ["solve-first", path, "--f", f, "--t", "0.1", "--x", "0,0,0", "--verify", "exact"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["verified"] is True

    # on chain([1, 2]) at x = 0 and t = 0.1, x + eta is (0.1, 0.005, 5e-7)
    @pytest.mark.parametrize("f, u", [
        ("sin(x1)", sin(0.1)), ("x1^(1/2)", sqrt(0.1)), ("cos(x2) + x3^(0-1)", cos(0.005) + 2e6),
    ])
    def test_non_polynomial_f_verifies_exactly(self, tree_file, capsys, f, u):
        path = tree_file("a3.json", chain([1, 2]))
        argv = ["solve-first", path, "--f", f, "--t", "0.1",
                "--x", "0,0,0", "--verify", "exact"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["verified"] is True and doc["u"] == pytest.approx(u)


class TestOneTablePerRequest:
    """Each ideals request builds the structure table once and hands it
    to the maximal ideals, the enumeration and the oracle."""

    @pytest.fixture()
    def tables(self, monkeypatch):
        calls = []
        build = liealg.structure_table

        def counting(tree, direction):
            calls.append(direction)
            return build(tree, direction)

        for module in (liealg, ideals):
            monkeypatch.setattr(module, "structure_table", counting)
        return calls

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize(
        "flags", [["--count-only"], [], ["--oracle"], ["--count-only", "--oracle"]]
    )
    def test_one_table(self, tree_file, capsys, tables, direction, flags):
        path = tree_file("a3.json", chain([1, 2]))
        code, out, _ = run(["ideals", path, "--direction", direction] + flags, capsys)
        assert code == 0 and json.loads(out)["oracle_checked"] is ("--oracle" in flags)
        assert tables == [direction]


class TestOneFamilyBuild:
    """Each solver request builds its polynomial family once: the
    verifier checks the family the solution was built from."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        for module, name in ((firstorder, "eta_family"), (heat, "xi_family")):
            build = getattr(module, name)

            def counting(*args, _build=build, _name=name):
                calls.append(_name)
                return _build(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("verify", ["exact", "numeric"])
    def test_solve_first(self, tree_file, capsys, builds, verify):
        path = tree_file("a3.json", chain([1, 2]))
        argv = ["solve-first", path, "--f", "x3^2 + x1", "--t", "0.3", "--x", "0.1,0.2,0.3",
                "--emit-eta", "--verify", verify]
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["verified"] is True
        assert builds == ["eta_family"]

    def test_solve_heat(self, tree_file, capsys, builds):
        path = tree_file("a2.json", chain([1]))
        code, out, _ = run(_heat_argv(path), capsys)
        assert code == 0 and json.loads(out)["verify_modes"] is True
        assert builds == ["xi_family"]


class TestSolveHeat:
    def test_decay_and_mode_check(self, tree_file, capsys):
        import math

        path = tree_file("a2.json", chain([1]))
        code, out, _ = run(
            [
                "solve-heat", path,
                "--orders", "2,2", "--f", "cos(2*pi*x1/2)",
                "--box", "2,1", "--modes", "2", "--samples", "16",
                "--eval", "0.05,0.3,-0.4",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        expected = math.exp(-4 * math.pi ** 2 * 0.05 / 4) * math.cos(
            2 * math.pi * 0.3 / 2
        )
        assert doc["u"] == pytest.approx(expected)
        assert doc["verify_modes"] is True
        assert doc["modes_used"] == 9

    def test_csv_dump(self, tree_file, tmp_path, capsys):
        path = tree_file("a2.json", chain([1]))
        out_csv = str(tmp_path / "grid.csv")
        code, out, _ = run(
            [
                "solve-heat", path,
                "--orders", "2,2", "--f", "1",
                "--box", "1,1", "--modes", "1", "--samples", "8",
                "--eval", "0.1,0.0,0.0", "--csv", out_csv, "--csv-grid", "4",
            ],
            capsys,
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "u"]
        assert len(rows) == 1 + 16


    def test_csv_cells_are_plain_floats(self, tree_file, tmp_path, capsys):
        path = tree_file("a2.json", chain([1]))
        out_csv = str(tmp_path / "grid.csv")
        code, _, _ = run(
            [
                "solve-heat", path,
                "--orders", "2,2", "--f", "cos(pi*x2)",
                "--box", "1,2", "--modes", "1", "--samples", "8",
                "--eval", "0.1,0.0,0.0", "--csv", out_csv, "--csv-grid", "3",
            ],
            capsys,
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))[1:]
        values = [[float(cell) for cell in row] for row in rows]
        assert sorted({v[1] for v in values}) == [-1.0, 0.0, 1.0]
        assert sorted({v[2] for v in values}) == [-2.0, 0.0, 2.0]

    @pytest.mark.parametrize("block", [1, 7, CSV_BLOCK])
    @pytest.mark.parametrize("grid", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, monkeypatch, n, grid, block):
        # blocks of one row, of runs that do not divide the grid, and the default
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        box = tuple(1.0 + 0.5 * (i % 3) for i in range(n))
        f = f"cos(pi*x1/{box[0]}) - 0.5*sin(2*pi*x{n}/{box[-1]}) + 0.25"
        sol = heat.solve_heat(chain([1] * (n - 1)), [2] * n, f, box, 2, 16)
        target = tmp_path / "g.csv"
        cli._dump_csv(sol, 0.03, str(target), grid)
        assert target.read_bytes() == csv_writer_text(sol, 0.03, grid).encode("utf-8")


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestNonFiniteAndOverflow:
    def test_infinite_result_is_an_error(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, err = run(
            ["solve-first", path, "--f", "exp(1000*x1)", "--t", "0.1", "--x", "1,1"],
            capsys,
        )
        _assert_one_line_error(code, out, err)
        assert err == "error: u is not finite at the --t, --x point\n"

    def test_coordinate_past_the_float_range_is_infinite(self, tree_file, capsys):
        # on chain([2]) at t = 1, x + eta = (x1 + 1, x1^2 + x1 + 1/3), which
        # rounds to (1e200, inf) at x1 = 1e200
        path = tree_file("a2.json", chain([2]))
        argv = ["solve-first", path, "--t", "1", "--x=1e200,0", "--f"]
        assert run(argv + ["x1"], capsys) == (0, '{"u": 1e+200}\n', "")
        code, out, err = run(argv + ["x2"], capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: u is not finite at the --t, --x point\n"

    def test_nan_time_is_an_error(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, err = run(
            ["solve-first", path, "--f", "x1", "--t", "nan", "--x", "1,1"], capsys
        )
        _assert_one_line_error(code, out, err)

    def test_power_overflow_is_an_error(self, tree_file, capsys):
        path = tree_file("a3.json", chain([1, 1]))
        code, out, err = run(
            ["solve-first", path, "--f", "x3^2^2^2^2^2", "--t", "0.1", "--x", "0,1,1"],
            capsys,
        )
        _assert_one_line_error(code, out, err)
        assert "OverflowError" in err

    @pytest.mark.parametrize("command", ["solve-first", "solve-heat"])
    @pytest.mark.parametrize(
        "f, message",
        [("1/0", "ZeroDivisionError"), ("0^-1", "ZeroDivisionError"),
         ("(0-1)^0.5", "error: u is not finite at the")],
    )
    def test_constant_arithmetic_is_an_error(self, tree_file, capsys, command, f, message):
        # constants are Python floats: division by zero raises, and a
        # fractional power of a negative number gives NaN as numpy does
        path = tree_file("a3.json", chain([1, 1]))
        if command == "solve-first":
            argv = ["solve-first", path, "--f", f, "--t", "1", "--x", "0,0,0"]
        else:
            argv = _heat_argv(path, orders="2,2,2", f=f, box="1,1,1", modes="1",
                              samples="4", eval="0.01,0,0,0")
        code, out, err = run(argv, capsys)
        _assert_one_line_error(code, out, err)
        assert message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_inputs_are_rejected_up_front(self, tree_file, capsys, monkeypatch,
                                                      value):
        def refuse(*args, **kwargs):
            raise AssertionError("solver work started before the input check")

        monkeypatch.setattr(heat, "solve_heat", refuse)
        monkeypatch.setattr(firstorder, "solve_first_order", refuse)
        path = tree_file("a2.json", chain([1]))
        heat_argv = _heat_argv(path)[:-2]  # without --eval
        for flag, argv in (
            ("--eval", heat_argv + [f"--eval=0.05,{value},0.2"]),
            ("--eval", heat_argv + [f"--eval={value},0.1,0.2"]),
            ("--t", ["solve-first", path, "--f", "x1", f"--t={value}", "--x", "1,1"]),
            ("--x", ["solve-first", path, "--f", "x1", "--t", "0.1", f"--x={value},1"]),
        ):
            code, out, err = run(argv, capsys)
            _assert_one_line_error(code, out, err)
            assert err.startswith(f"error: {flag} must be finite"), err

    def test_deep_nesting_is_an_error(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        deep = "(" * 2000 + "x1" + ")" * 2000
        code, out, err = run(
            ["solve-first", path, "--f", deep, "--t", "0.1", "--x", "1,1"], capsys
        )
        _assert_one_line_error(code, out, err)
        assert "nested too deeply" in err


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(["info", "/nonexistent/tree.json"], capsys)
        assert code == 1 and "not found" in err

    def test_bad_tree_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "edges": [
            {"parent": 1, "child": 2, "weight": 1},
            {"parent": 4, "child": 3, "weight": 1},
        ]}))
        code, _, err = run(["info", str(path)], capsys)
        assert code == 1 and "out of range" in err

    def test_bad_expression(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, _, err = run(
            ["solve-first", path, "--f", "x9", "--t", "0", "--x", "0,0"], capsys
        )
        assert code == 1 and "variable out of range" in err

    def test_unknown_command_and_flags(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1
        code, _, _ = run(["bch"], capsys)
        assert code == 1

    def test_size_guard_maps_to_two(self, tree_file, capsys):
        path = tree_file("big.json", chain([3, 3]))
        code, _, err = run(["ideals", path, "--direction", "up"], capsys)
        assert code == 2 and "guard" in err


def _heat_argv(path, **flags):
    argv = {
        "--orders": "2,2", "--f": "cos(pi*x1)", "--box": "1,1", "--modes": "2",
        "--samples": "16", "--eval": "0.05,0.1,0.2",
    }
    argv.update({f"--{k.replace('_', '-')}": v for k, v in flags.items()})
    return ["solve-heat", path] + [part for item in argv.items() for part in item]


class TestSolveHeatInputs:
    def test_zero_csv_grid_is_an_error(self, tree_file, tmp_path, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, err = run(
            _heat_argv(path, csv=str(tmp_path / "g.csv"), csv_grid="0"), capsys
        )
        _assert_one_line_error(code, out, err)
        assert "--csv-grid" in err

    def test_unwritable_csv_path_is_an_error(self, tree_file, tmp_path, capsys):
        path = tree_file("a2.json", chain([1]))
        target = str(tmp_path / "missing" / "g.csv")
        code, out, err = run(_heat_argv(path, csv=target), capsys)
        _assert_one_line_error(code, out, err)
        assert target in err

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_box_is_an_error(self, tree_file, capsys, bound):
        path = tree_file("a3.json", chain([1, 1]))
        argv = _heat_argv(path, orders="2,2,2", f="x1", box=f"1,1,{bound}", modes="1",
                          samples="4", eval="0.01,0,0,0")
        code, out, err = run(argv, capsys)
        _assert_one_line_error(code, out, err)
        assert "positive half-width" in err

    def test_negative_modes_is_an_error(self, tree_file, capsys):
        path = tree_file("a2.json", chain([1]))
        code, out, err = run(_heat_argv(path, modes="-1"), capsys)
        _assert_one_line_error(code, out, err)
        assert "--modes" in err


class TestSolveHeatNonFiniteCsv:
    """A CSV is written only when u is finite at --eval and at every grid
    point: otherwise the request exits 1 and leaves no file behind."""

    def _argv(self, path, target, t):
        return _heat_argv(path, orders="2,2,2,2", f="cos(pi*x1/0.5)", box="0.5,0.5,0.5,0.5",
                          modes="3", samples="16", eval=f"{t},0,0,0,0", csv=target,
                          csv_grid="5")

    def test_non_finite_grid_values(self, tree_file, tmp_path, capsys):
        # u at --eval is finite here, but exp(A) overflows at 250 grid points
        path = tree_file("s3.json", star(3))
        target = tmp_path / "g.csv"
        code, out, err = run(self._argv(path, str(target), 0.048), capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: u is not finite at 250 of 625 CSV grid points\n"
        assert not target.exists()

    def test_non_finite_eval_value(self, tree_file, tmp_path, capsys):
        path = tree_file("s3.json", star(3))
        target = tmp_path / "g.csv"
        code, out, err = run(self._argv(path, str(target), 0.05), capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: u is not finite at the --eval point\n"
        assert not target.exists()


class TestSolveHeatGuards:
    """Each guard trips on its closed form before any solver work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver work started before the size guard")

        for name in ("xi_family", "fourier_coefficients", "verify_modes"):
            monkeypatch.setattr(heat, name, refuse)

    def _guarded(self, argv, capsys, quantity, limit):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("size guard: ") and err.count("\n") == 1
        assert quantity in err and str(limit) in err

    def test_csv_rows(self, tree_file, tmp_path, capsys):
        path = tree_file("a4.json", chain([1, 1, 1]))
        grid = 32  # 32^4 rows, just past the guard
        argv = _heat_argv(path, orders="2,2,2,2", box="1,1,1,1", eval="0.05,0,0,0,0",
                          csv=str(tmp_path / "g.csv"), csv_grid=str(grid))
        self._guarded(argv, capsys, "CSV rows (grid^n)", MAX_CSV_ROWS)
        assert grid ** 4 > MAX_CSV_ROWS >= 216

    def test_quadrature_points(self, tree_file, capsys):
        path = tree_file("a4.json", chain([1, 1, 1]))
        argv = _heat_argv(path, orders="2,2,2,2", box="1,1,1,1", eval="0.05,0,0,0,0",
                          modes="1", samples="64")
        self._guarded(argv, capsys, "quadrature points (samples^n)", MAX_QUADRATURE_POINTS)
        assert 64 ** 4 > MAX_QUADRATURE_POINTS >= 32 ** 4

    def test_modes(self, tree_file, capsys):
        path = tree_file("a4.json", chain([1, 1, 1]))
        argv = _heat_argv(path, orders="2,2,2,2", box="1,1,1,1", eval="0.05,0,0,0,0",
                          modes="10", samples="64")
        self._guarded(argv, capsys, "modes ((modes+1)^n)", MAX_MODES)
        assert 11 ** 4 > MAX_MODES >= 625

    @pytest.mark.parametrize("tree, orders, quantity, limit", [
        (chain([1, 1]), "200,2,2", "xi~_1 terms", MAX_XI_TERMS),
        (chain([1] * 5), "3,3,3,3,3,3", "xi~_1 terms", MAX_XI_TERMS),
        (chain([1]), "3000,1", "3637021 xi~ term products", MAX_XI_PRODUCTS),
    ])
    def test_xi_family(self, tree_file, capsys, tree, orders, quantity, limit):
        path = tree_file("t.json", tree)
        argv = _heat_argv(path, orders=orders, box=",".join(["1"] * tree.n),
                          eval=",".join(["0.05"] + ["0"] * tree.n), modes="1", samples="4")
        self._guarded(argv, capsys, quantity, limit)


# ------------------------------------------------- fresh interpreters

# the layer modules that a traced benchmark run looks up in sys.modules
# once treelie.cli is imported
LAYERS = ("cli", "trees", "expressions", "polynomials", "liealg", "ideals",
          "firstorder", "heat")

# runs the CLI once, then reports on a last stderr line whether numpy was loaded
_CHILD = (
    "import sys\n"
    "from treelie.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(f\"numpy loaded: {'numpy' in sys.modules}\\n\")\n"
    "sys.exit(code)\n"
)


def _fresh(*args):
    """Run python with args in a fresh interpreter that imports this
    treelie, with every warning shown."""
    src = os.path.dirname(os.path.dirname(treelie.__file__))
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _fresh_cli(argv):
    """Exit code, stdout, stderr and whether numpy was loaded, for one CLI
    call in a fresh interpreter."""
    proc = _fresh("-c", _CHILD, *argv)
    err, marker = proc.stderr.rsplit("numpy loaded: ", 1)
    return proc.returncode, proc.stdout, err, marker.strip() == "True"


class TestFreshProcess:
    def test_import_loads_every_layer_but_not_numpy(self):
        proc = _fresh("-c", "import json, sys, treelie.cli; print(json.dumps(list(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert {f"treelie.{layer}" for layer in LAYERS} <= loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("command", [["info"], ["basis"], ["ideals", "--count-only"]])
    def test_structure_commands_load_no_numpy(self, tree_file, command, direction):
        path = tree_file("a3.json", chain([1, 2]))
        code, out, err, numpy_loaded = _fresh_cli(
            [command[0], path, "--direction", direction] + command[1:]
        )
        assert code == 0 and err == "" and json.loads(out)["direction"] == direction
        assert not numpy_loaded

    def test_bch_loads_no_numpy(self):
        code, out, err, numpy_loaded = _fresh_cli(["bch", "--k", "20"])
        assert code == 0 and err == "" and json.loads(out)["k"] == 20
        assert not numpy_loaded

    def test_solvers_load_numpy_and_succeed(self, tree_file, tmp_path):
        path = tree_file("a2.json", chain([1]))
        code, out, err, numpy_loaded = _fresh_cli(
            ["solve-first", path, "--f", "sin(x2)", "--t", "0.5", "--x", "0.1,0.2",
             "--verify", "numeric"]
        )
        assert code == 0 and err == "" and json.loads(out)["verified"] is True
        assert numpy_loaded
        target = str(tmp_path / "g.csv")
        code, out, err, numpy_loaded = _fresh_cli(_heat_argv(path, csv=target, csv_grid="3"))
        assert code == 0 and err == "" and json.loads(out)["csv"] == target
        assert numpy_loaded

    @pytest.mark.parametrize("argv", [
        ["solve-first", "--f", "exp(1000*x1)", "--t", "0.1", "--x", "1,1"],
        ["solve-heat", "--orders", "2,2", "--f", "exp(1000*x1)", "--box", "1,1",
         "--modes", "2", "--samples", "16", "--eval", "0.05,0.1,0.2"],
    ])
    def test_overflow_is_one_error_line(self, tree_file, argv):
        # pytest captures warnings in process, so only a fresh
        # interpreter shows what numpy would print
        path = tree_file("a2.json", chain([1]))
        proc = _fresh("-m", "treelie.cli", argv[0], path, *argv[1:])
        _assert_one_line_error(proc.returncode, proc.stdout, proc.stderr)
        assert proc.stderr.startswith("error: u is not finite at the --")



class TestOneProcess:
    """run_cli builds its parser once per process, on the first call, and
    what a call prints does not depend on the calls before it."""

    def test_mixed_sequence_matches_fresh_processes(self, tree_file, capsys):
        a2 = tree_file("a2.json", chain([1]))
        a3 = tree_file("a3.json", chain([1, 2]))
        big = tree_file("c12.json", chain([2] * 12))
        sequence = [
            ["info", a3, "--direction", "down"],
            ["bch", "--k", "x"],
            ["basis", a3],
            ["info"],
            ["ideals", a3, "--oracle"],
            ["bch", "--k", "5"],
            ["info", big],
            ["solve-first", a3, "--f", "x3^2 + x1", "--t", "0.3", "--x", "0.1,0.2,0.3",
             "--emit-eta", "--verify", "exact"],
            _heat_argv(a2),
            ["ideals", a3, "--direction", "down", "--count-only"],
            ["info", a3, "--direction", "down"],
        ]
        in_process = [run(argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            proc = _fresh("-m", "treelie.cli", *argv)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        codes = [code for code, _, _ in in_process]
        assert codes == [0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0]

    def test_parser_built_on_first_call_only(self):
        child = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import treelie.cli\n"
            "counts = [len(built)]\n"
            "for k in ('2', '3', 'x'):\n"
            "    treelie.cli.run_cli(['bch', '--k', k])\n"
            "    counts.append(len(built))\n"
            "print(*counts, file=sys.stderr)\n"
        )
        proc = _fresh("-c", child)
        assert proc.returncode == 0, proc.stderr
        at_import, first, *later = map(int, proc.stderr.split("\n")[-2].split())
        assert at_import == 0 and first > 0 and later == [first, first]
