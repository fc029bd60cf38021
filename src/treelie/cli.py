"""Command-line interface: structural reports, basis and ideal listings,
series coefficients, and both evolution solvers, all emitting JSON.

Exit codes: 0 success, 1 validation error (bad flags, bad files, bad
expressions) or arithmetic that divides by zero, overflows or gives a
non-finite result, 2 desk-scale size guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import product

from . import expressions, firstorder, heat, ideals, liealg, trees
from .errors import SizeGuardError

__all__ = ["main", "run_cli"]

# desk-scale size guards, checked before any work: solve-heat --csv rows;
# the bch order, for its printed digits rather than its time: a_1000 is
# already 4 358 characters (1001! alone has 2 571 digits), and a numerator
# or denominator passes Python's 4 300-digit str() limit near k = 1 560;
# and the dim of info, basis and ideals, from its closed form, as
# structure_table grows with the number of non-commuting basis pairs,
# about dim^2 on chains. solve-first guards the upward dim, which is the
# total term count of eta. On a 2-vCPU Xeon, bch --k 1000 takes 0.2 s in
# process (0.33 s from a fresh process), verify_structure 0.44 s at dim 2 076,
# 2.7 s at 6 092, 6.7 s at 7 381 and 13 s at 9 870, and solve-first on
# chain([1]*139) (upward dim 9 870) 0.35 s, 3.6-4.2 s with --verify exact
# and 0.6-0.8 s with --verify numeric.
MAX_CSV_ROWS = 1_000_000
MAX_BCH_K = 1000
MAX_DIM = 10_000
# solve-first --verify numeric integrates on upward nilpotence + 1 points,
# at a cost of about 100 starts x points^2 per non-tip node, and the dim
# guard leaves the nilpotence as high as the dim. On the same Xeon the
# worst tree found inside both guards, a weight-498 edge beside 1 900
# two-node branches (3 802 nodes, dim 10 000, nilpotence 499), takes
# 2.7 s with --verify numeric, and star(20) of weight 498 1.7 s.
MAX_FLOW_NILPOTENCE = 500
# the dim count runs one series pass per simplex coefficient up to the
# bound: at 10^6 with 17 coefficients it takes about 1.4 s
MAX_SIMPLEX_BOUND = 1_000_000
# rows per write of solve-heat --csv: the rows of one block are built as
# one string, a few MB whatever the grid
CSV_BLOCK = 1 << 16


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


@functools.cache  # one parser per process, built on the first call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="treelie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimension, nilpotence, center, node sets")
    p.add_argument("tree", help="tree JSON file")
    p.add_argument("--direction", choices=["up", "down"], default="up")

    p = sub.add_parser("basis", help="monomial basis listing")
    p.add_argument("tree")
    p.add_argument("--direction", choices=["up", "down"], default="up")

    p = sub.add_parser("ideals", help="abelian ideal enumeration")
    p.add_argument("tree")
    p.add_argument("--direction", choices=["up", "down"], default="up")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--oracle", action="store_true", help="cross-check with the downset oracle")

    p = sub.add_parser("bch", help="exponential-regrouping series coefficients")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("solve-first", help="first-order evolution solution")
    p.add_argument("tree")
    p.add_argument("--f", required=True, help="initial data expression")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--emit-eta", action="store_true")
    p.add_argument("--verify", choices=["exact", "numeric"])

    p = sub.add_parser("solve-heat", help="heat-type evolution solution")
    p.add_argument("tree")
    p.add_argument("--orders", required=True, help="comma-separated derivative orders")
    p.add_argument("--f", required=True)
    p.add_argument("--box", required=True, help="comma-separated half-widths")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--eval", dest="eval_point", required=True, help="t,x1,...,xn")
    p.add_argument("--csv", dest="csv_path", help="dump a solution grid at time t")
    p.add_argument("--csv-grid", type=int, default=10)
    return parser


def _csv_floats(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"bad float list {text!r}: {exc}")


def _csv_ints(text: str):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"bad integer list {text!r}: {exc}")


def _load(path: str) -> trees.TreeDiagram:
    try:
        return trees.load_tree(path)
    except FileNotFoundError:
        raise _CliError(f"tree file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"tree file is not valid JSON: {exc}")


def _guard_dim(tree: trees.TreeDiagram, direction: str):
    # every axis point m * e_s with m <= bound // coefs[s] of a node's
    # simplex is a basis exponent, so this lower bound on dim needs none
    # of the series work, which grows with the bound
    simplices = [liealg.node_simplex(tree, i, direction) for i in range(1, tree.n + 1)]
    low = sum(1 + sum(bound // c for c in coefs) for _, coefs, bound in simplices)
    if low > MAX_DIM:
        raise SizeGuardError(f"dim at least {low} exceeds the guard of {MAX_DIM}")
    # the lower bound caps every bound upward and on chains, but not on a
    # branching tree downward, where the bound is a product over branches
    for i, (_, _, bound) in enumerate(simplices, 1):
        if bound > MAX_SIMPLEX_BOUND:
            raise SizeGuardError(
                f"simplex bound {bound} at node {i} exceeds the guard of {MAX_SIMPLEX_BOUND}"
            )
    dim, nilp = liealg.dim_and_nilpotence(tree, direction, simplices)
    if dim > MAX_DIM:
        raise SizeGuardError(f"dim {dim} exceeds the guard of {MAX_DIM}")
    return dim, nilp


def _cmd_info(ns) -> dict:
    tree = _load(ns.tree)
    dim, nilp = _guard_dim(tree, ns.direction)
    cls = trees.classify_nodes(tree)
    report = liealg.verify_structure(tree, ns.direction)
    # the center is spanned by plain derivatives
    center = [f"d{dvar}" for _, dvar in report.center_basis]
    return {
        "n": tree.n,
        "direction": ns.direction,
        "dim": dim,
        "nilpotence": nilp,
        "tips": list(cls.tips),
        "upsilon": list(cls.upsilon),
        "phi": list(cls.phi),
        "omega": list(cls.omega),
        "center": sorted(center),
        "closure": report.closure,
        "central_series_dims": list(report.central_series_dims),
    }


def _cmd_basis(ns) -> dict:
    tree = _load(ns.tree)
    _guard_dim(tree, ns.direction)
    basis = liealg.enumerate_basis(tree, ns.direction)
    return {
        "direction": ns.direction,
        "dim": len(basis),
        "basis": [
            {"coeff": "1", "exps": list(m.exps), "d": m.dvar} for m in basis
        ],
    }


def _cmd_ideals(ns) -> dict:
    tree = _load(ns.tree)
    _guard_dim(tree, ns.direction)
    table = liealg.structure_table(tree, ns.direction)
    maximal = ideals.maximal_ideals(tree, ns.direction, table)
    oracle_checked = False
    if ns.count_only:
        count = ideals.enumerate_ideals(tree, ns.direction, mode="count", table=table)
        listing = None
    else:
        listing = ideals.enumerate_ideals(tree, ns.direction, mode="list", table=table)
        count = len(listing)
    if ns.oracle:
        oracle = ideals.brute_force_ideals(tree, ns.direction, table)
        enumerated = listing
        if enumerated is None:
            enumerated = ideals.enumerate_ideals(tree, ns.direction, mode="list", table=table)
        # both listings are ordered by size, then by the sorted roots
        if [i.canonical() for i in enumerated] != oracle:
            raise AssertionError("enumeration disagrees with the downset oracle")
        oracle_checked = True
    doc = {
        "direction": ns.direction,
        "count": count,
        "maximal_count": len(maximal),
        "oracle_checked": oracle_checked,
    }
    if listing is not None:
        doc["ideals"] = [
            {
                "roots": [list(r) for r in ideal.canonical()],
                "dim": ideal.dim,
                "maximal": bool(ideal.maximal),
            }
            for ideal in listing
        ]
    return doc


def _cmd_bch(ns) -> dict:
    if ns.k < 0:
        raise _CliError("--k must be nonnegative")
    if ns.k > MAX_BCH_K:
        raise SizeGuardError(f"--k {ns.k} exceeds the guard of {MAX_BCH_K}")
    data = firstorder.bch_coefficients(ns.k)
    return {
        "k": ns.k,
        "a": [str(v) for v in data.a],
        "theta": [str(v) for v in data.theta],
    }


def _finite(values, flag: str, text: str):
    if not all(map(math.isfinite, values)):
        raise _CliError(f"{flag} must be finite, got {text!r}")
    return values


def _cmd_solve_first(ns) -> dict:
    tree = _load(ns.tree)
    x = _finite(_csv_floats(ns.x), "--x", ns.x)
    if len(x) != tree.n:
        raise _CliError(f"expected {tree.n} coordinates, got {len(x)}")
    _finite([ns.t], "--t", str(ns.t))
    ast = expressions.parse_expression(ns.f, tree.n)
    _, nilp = _guard_dim(tree, "up")
    if ns.verify == "numeric" and nilp > MAX_FLOW_NILPOTENCE:
        raise SizeGuardError(
            f"upward nilpotence {nilp} exceeds the --verify numeric guard of {MAX_FLOW_NILPOTENCE}"
        )
    with _numpy_quiet():
        solution = firstorder.solve_first_order(tree, ast)
        doc = {"u": solution(ns.t, x)}
        if not math.isfinite(doc["u"]):
            raise _CliError("u is not finite at the --t, --x point")
        if ns.emit_eta:
            doc["eta"] = [str(solution.family.eta[i]) for i in range(1, tree.n + 1)]
        if ns.verify:
            report = firstorder.verify_first_order(solution.family, ast, mode=ns.verify)
            doc["verified"] = bool(report.ok)
    return doc


def _cmd_solve_heat(ns) -> dict:
    tree = _load(ns.tree)
    orders = _csv_ints(ns.orders)
    box = _csv_floats(ns.box)
    point = _finite(_csv_floats(ns.eval_point), "--eval", ns.eval_point)
    if len(point) != tree.n + 1:
        raise _CliError(f"--eval needs t plus {tree.n} coordinates")
    if ns.modes < 0:
        raise _CliError("--modes must be nonnegative")
    if ns.csv_grid < 1:
        raise _CliError("--csv-grid must be positive")
    if ns.csv_path and ns.csv_grid ** tree.n > MAX_CSV_ROWS:
        raise SizeGuardError(
            f"{ns.csv_grid ** tree.n} CSV rows (grid^n) exceeds the guard of {MAX_CSV_ROWS}"
        )
    t, x = point[0], point[1:]
    with _numpy_quiet():
        solution = heat.solve_heat(tree, orders, ns.f, box, ns.modes, ns.samples)
        check = heat.verify_modes(solution.family)
        doc = {
            "u": solution(t, x),
            "modes_used": solution.modes_used,
            "verify_modes": bool(check.ok),
        }
        if not math.isfinite(doc["u"]):
            raise _CliError("u is not finite at the --eval point")
        if ns.csv_path:
            _dump_csv(solution, t, ns.csv_path, ns.csv_grid)
            doc["csv"] = ns.csv_path
    return doc


def _numpy_quiet():
    """numpy with its floating-point warnings off, for the two solvers,
    the only commands that load numpy: both report a non-finite u as an
    error, so numpy need not warn on the way."""
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _dump_csv(solution: heat.HeatSolution, t: float, path: str, grid: int) -> None:
    """grid^n rows on the closed box, last coordinate fastest; no file is
    opened unless every value is finite.

    The bytes are those of ``csv.writer``: every cell is a float repr,
    which needs no quoting, and every row ends in CR LF. The cells before
    the last coordinate are shared by runs of grid rows, so they are
    joined once per run from per-axis repr tables, and rows are written
    CSV_BLOCK at a time.
    """
    import numpy as np

    n = solution.tree.n
    axes = [np.linspace(-a, a, grid) for a in solution.box]
    points = np.empty((grid,) * n + (n,))
    for i, axis in enumerate(axes):
        points[..., i] = axis.reshape((grid,) + (1,) * (n - 1 - i))
    values = solution(t, points.reshape(-1, n))
    del points
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise _CliError(f"u is not finite at {bad} of {len(values)} CSV grid points")
    cell = repr(float(t))
    cells = [[repr(v) for v in axis.tolist()] for axis in axes]
    heads = [",".join((cell,) + xs) + "," for xs in product(*cells[:-1])]
    tails = [x + "," for x in cells[-1]]
    step = max(1, CSV_BLOCK // grid)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(["t"] + [f"x{i}" for i in range(1, n + 1)] + ["u"]) + "\r\n")
            for lo in range(0, len(heads), step):
                us = values[lo * grid:(lo + step) * grid].tolist()
                fh.write("".join(
                    f"{head}{tail}{u!r}\r\n"
                    for (head, tail), u in zip(product(heads[lo:lo + step], tails), us)
                ))
    except OSError as exc:
        raise _CliError(f"cannot write CSV {path}: {exc.strerror or exc}")


_COMMANDS = {
    "info": _cmd_info,
    "basis": _cmd_basis,
    "ideals": _cmd_ideals,
    "bch": _cmd_bch,
    "solve-first": _cmd_solve_first,
    "solve-heat": _cmd_solve_heat,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        doc = _COMMANDS[ns.command](ns)
        text = json.dumps(doc, ensure_ascii=False, allow_nan=False) + "\n"
    except (_CliError, ValueError) as exc:  # tree and expression errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
