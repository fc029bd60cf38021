"""Seeded request streams for the four benchmark workloads.

Every workload is a fixed list of request *slots* (tree, command, size
parameters) that covers the ranges recorded in BENCHMARK.json.  A pass
runs every slot once.  The seed never changes which slots exist, only:

* the node labelling of every structure-ladder tree (a random order in
  which parents precede children, so each seed writes different tree
  files for the same algebras),
* the continuous inputs (times, points, boxes, polynomial and
  trigonometric coefficients, which tip a polynomial uses),
* the order of the sessions in a pass and of the questions in a session.

So every pass has the same request mix, and a timed run made of whole
passes measures the same mix for every seed while the program's inputs
differ.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("structure", "exact", "spectral", "cold_cli")

# --------------------------------------------------------------- tree shapes

Tree = Tuple[int, Tuple[Tuple[int, int, int], ...]]  # (n, ((parent, child, weight), ...))


def chain(ws: Sequence[int]) -> Tree:
    return len(ws) + 1, tuple((i, i + 1, w) for i, w in enumerate(ws, 1))


def star(k: int, w: int = 1) -> Tree:
    return k + 1, tuple((1, c, w) for c in range(2, k + 2))


def e_tree(n0: int, n1: int, n2: int, upper_tip_weight: int = 1) -> Tree:
    """Trunk 1..n0 with two branches of n1 and n2 nodes hanging off n0."""
    edges = [(i, i + 1, 1) for i in range(1, n0)]
    prev = n0
    for j in range(n1):
        node = n0 + 1 + j
        edges.append((prev, node, upper_tip_weight if j == n1 - 1 else 1))
        prev = node
    prev = n0
    for j in range(n2):
        node = n0 + n1 + 1 + j
        edges.append((prev, node, 1))
        prev = node
    return n0 + n1 + n2, tuple(edges)


TREES: Dict[str, Tree] = {
    **{f"A{n}": chain([1] * (n - 1)) for n in range(3, 13)},
    "A3_12": chain([1, 2]),
    "A3_21": chain([2, 1]),
    "A3_13": chain([1, 3]),
    "W22": chain([2, 2]),
    "W32": chain([3, 2]),
    "W121": chain([1, 2, 1]),
    "W222": chain([2, 2, 2]),
    "W1122": chain([1, 1, 2, 2]),
    "W1212": chain([1, 2, 1, 2]),
    "E211": e_tree(2, 1, 1),
    "E311": e_tree(3, 1, 1),
    "E221": e_tree(2, 2, 1),
    "E322": e_tree(3, 2, 2),
    "E533": e_tree(5, 3, 3),
    "Y211w2": e_tree(2, 1, 1, upper_tip_weight=2),
    "WIDE_Y": e_tree(2, 2, 1, upper_tip_weight=2),
    "S3": star(3),
    "S4": star(4),
    "S5": star(5),
    "S3w2": star(3, 2),
    "S4w2": star(4, 2),
    "T6": (6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (1, 6, 1))),
}


def tips(tree: Tree) -> List[int]:
    n, edges = tree
    parents = {p for p, _, _ in edges}
    return [i for i in range(1, n + 1) if i not in parents]


def relabel(tree: Tree, rng: random.Random) -> Tuple[Tree, Tuple[int, ...]]:
    """Random labelling in which every parent precedes its children.

    Returns the relabelled tree and ``perm`` with ``perm[old - 1] = new``;
    the root stays node 1.
    """
    n, edges = tree
    kids: Dict[int, List[int]] = {}
    for p, c, _ in edges:
        kids.setdefault(p, []).append(c)
    perm = [0] * n
    frontier = [1]
    nxt = 1
    while frontier:
        old = frontier.pop(rng.randrange(len(frontier)))
        perm[old - 1] = nxt
        nxt += 1
        frontier.extend(kids.get(old, ()))
    new_edges = sorted((perm[p - 1], perm[c - 1], w) for p, c, w in edges)
    new_edges.sort(key=lambda e: e[1])
    return (n, tuple(new_edges)), tuple(perm)


def tree_document(tree: Tree) -> dict:
    n, edges = tree
    return {"n": n, "edges": [{"parent": p, "child": c, "weight": w} for p, c, w in edges]}


# -------------------------------------------------------------------- requests


@dataclass
class Request:
    """One CLI invocation.  ``argv`` holds ``{tree}`` and ``{csv}``
    placeholders that the runner fills with paths in its work directory."""

    kind: str
    argv: List[str]
    tree: str = ""
    meta: dict = field(default_factory=dict)

    def resolve(self, tree_dir: str, csv_path: str) -> List[str]:
        out = []
        for a in self.argv:
            if a == "{tree}":
                out.append(os.path.join(tree_dir, f"{self.tree}.json"))
            elif a == "{csv}":
                out.append(csv_path)
            else:
                out.append(a)
        return out

    @property
    def label(self) -> str:
        return " ".join(a if a != "{tree}" else f"<{self.tree}>" for a in self.argv)


def _fmt(v: float) -> str:
    return repr(round(v, 6))


def _csv(values) -> str:
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values)


# ------------------------------------------------------------ structure slots

STRUCTURE_LADDER = [
    "A3_12", "A3_21", "A3_13", "S3", "S3w2", "E211", "E311", "A4", "A5", "A6", "A7", "A8",
    "A9", "A10", "A11", "A12", "W222", "W1122", "E322", "E533", "S4", "S5", "S4w2",
    "WIDE_Y", "T6",
]
# ladder trees whose algebras, in both directions, are within the listing
# guard (24 roots), and those also within the oracle guard (20 roots)
LISTABLE = {"A3_12", "A3_21", "A3_13", "S3", "S3w2", "E211", "E311", "A4", "A5", "A6",
            "E322", "S4", "S5", "S4w2", "WIDE_Y", "T6"}
ORACLE_OK = LISTABLE - {"A6", "E322"}


def _session(tree, direction, listing, oracle, rng) -> List[Request]:
    base = ["{tree}", "--direction", direction]
    qs = [
        Request("info", ["info"] + base, tree),
        Request("ideals", ["ideals"] + base + ["--count-only"], tree),
        Request("basis", ["basis"] + base, tree),
    ]
    if listing:
        qs.append(Request("ideals", ["ideals"] + base, tree))
    if oracle:
        qs.append(Request("ideals", ["ideals"] + base + ["--oracle"], tree))
    rng.shuffle(qs)
    # the session asks for the structure report again at its end, so a
    # per-tree table or cache is exercised within one session
    qs.append(Request("info", ["info"] + base, tree))
    return qs


def _structure_units(rng: random.Random) -> List[List[Request]]:
    return [
        _session(tree, direction, tree in LISTABLE, tree in ORACLE_OK, rng)
        for tree in STRUCTURE_LADDER
        for direction in ("up", "down")
    ]


# ---------------------------------------------------------------- exact slots

# solve-first --emit-eta --verify exact, each with the degree-2, mixed and
# degree-3 templates
EXACT_FIRST = ["W22", "W222", "A3_13", "W32", "W121", "W1212", "Y211w2", "S3w2", "A5"]
# solve-heat --modes 1 --samples 4: (tree, derivative order)
EXACT_HEAT = [
    ("A3", 2), ("A3", 3), ("W22", 2), ("W22", 3), ("S3", 2), ("S3", 3), ("S3w2", 3),
    ("E211", 2), ("E211", 3), ("Y211w2", 2), ("Y211w2", 3), ("A4", 2), ("A4", 3),
    ("S4", 2), ("S4", 3), ("E221", 2), ("E311", 2),
]
BCH_STRATA = [(20, 27), (28, 35), (36, 43), (44, 51), (52, 59), (60, 67), (68, 74), (75, 80)]


def _rational(rng: random.Random) -> str:
    value = Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3, 4])) * rng.choice([1, -1])
    return str(value)


def _poly_template(which: int, tree: Tree, rng: random.Random) -> str:
    n = tree[0]
    tip = rng.choice(tips(tree))
    other = rng.randrange(1, n + 1)
    c0, c1 = _rational(rng), _rational(rng)
    if which == 0:
        return f"{c1}*x{tip}^2 + x{other}"
    if which == 1:
        return f"{c1}*x1*x{tip} + {c0}"
    return f"{c1}*x{tip}^3 - x1*x{other}"


def _trig(rng: random.Random, n: int, box: Sequence[float]) -> str:
    """Band-limited data: a few axis-aligned cosine and sine terms."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        axis = rng.randrange(1, n + 1)
        k = rng.randint(1, 2)
        fn = rng.choice(["cos", "sin"])
        a = box[axis - 1]
        terms.append(f"{_rational(rng)}*{fn}({k}*pi*x{axis}/{_fmt(a)})")
    return " + ".join(terms).replace("+ -", "- ")


# Half-widths below 1 push the mode exponents of n = 4, modes >= 3 out of
# double range at t = 0.05, and the program then prints NaN (the
# non-finite-output defect listed in ROADMAP item 5).  Every request here
# must succeed, so boxes stay at half-width 1 or more.
BOX_HALF_WIDTHS = (1.0, 1.5, 2.0)


def _heat_request(tree_name, orders, modes, samples, rng, csv_grid=None) -> Request:
    tree = TREES[tree_name]
    n = tree[0]
    box = [rng.choice(BOX_HALF_WIDTHS) for _ in range(n)]
    t = rng.uniform(0.001, 0.05)
    x = [rng.uniform(-a, a) for a in box]
    argv = [
        "solve-heat", "{tree}", "--orders", _csv(orders), "--f=" + _trig(rng, n, box),
        "--box", _csv(box), "--modes", str(modes), "--samples", str(samples),
        "--eval=" + _csv([t] + x),
    ]
    meta = {"n": n, "modes": modes}
    if csv_grid is not None:
        argv += ["--csv", "{csv}", "--csv-grid", str(csv_grid)]
        meta["grid"] = csv_grid
        meta["t"] = float(_fmt(t))
        meta["box"] = box
    return Request("solve-heat", argv, tree_name, meta)


def _first_request(tree_name, f, rng, verify, emit_eta) -> Request:
    n = TREES[tree_name][0]
    t = rng.uniform(-0.5, 0.5)
    x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    argv = ["solve-first", "{tree}", "--f=" + f, "--t=" + _fmt(t), "--x=" + _csv(x)]
    if emit_eta:
        argv.append("--emit-eta")
    argv += ["--verify", verify]
    return Request("solve-first", argv, tree_name, {"n": n})


def bch_request(k: int) -> Request:
    return Request("bch", ["bch", "--k", str(k)])


def _exact_units(rng: random.Random) -> List[List[Request]]:
    units = []
    for tree_name in EXACT_FIRST:
        for which in range(3):
            f = _poly_template(which, TREES[tree_name], rng)
            units.append([_first_request(tree_name, f, rng, "exact", True)])
    for tree_name, order in EXACT_HEAT:
        n = TREES[tree_name][0]
        units.append([_heat_request(tree_name, [order] * n, 1, 4, rng)])
    for lo, hi in BCH_STRATA:
        units.append([bch_request(rng.randint(lo, hi))])
    return units


# ------------------------------------------------------------- spectral slots

# single --eval points: (tree, modes, samples)
SPECTRAL_EVAL = [
    ("A3", 2, 16), ("A3", 4, 32), ("W22", 3, 16), ("W22", 4, 16), ("A3_12", 2, 32),
    ("A3_12", 3, 32), ("S3", 2, 16), ("S3", 4, 32), ("E211", 3, 16), ("E211", 4, 16),
    ("Y211w2", 2, 32), ("Y211w2", 3, 16), ("A4", 2, 16), ("A4", 4, 32), ("S3w2", 3, 32),
    ("S3w2", 4, 16),
]
# --csv grids at samples 16: (tree, modes, grid)
SPECTRAL_CSV = [
    ("A3", 2, 6), ("A3", 3, 4), ("W22", 2, 4), ("W22", 3, 6), ("A3_12", 2, 6),
    ("A3_12", 4, 4), ("S3", 2, 3), ("E211", 2, 3),
]
# solve-first --verify numeric, the RK4 oracle
SPECTRAL_RK4 = ["W22", "S3"]


def _spectral_units(rng: random.Random) -> List[List[Request]]:
    units = []
    for tree_name, modes, samples in SPECTRAL_EVAL:
        n = TREES[tree_name][0]
        units.append([_heat_request(tree_name, [2] * n, modes, samples, rng)])
    for tree_name, modes, grid in SPECTRAL_CSV:
        n = TREES[tree_name][0]
        units.append([_heat_request(tree_name, [2] * n, modes, 16, rng, grid)])
    for tree_name in SPECTRAL_RK4:
        tip = rng.choice(tips(TREES[tree_name]))
        f = f"sin({_rational(rng)}*x1) + {_rational(rng)}*x{tip}^2"
        units.append([_first_request(tree_name, f, rng, "numeric", False)])
    return units


# ------------------------------------------------------------- cold_cli slots

COLD_STRUCTURE = [("S4", "up"), ("T6", "down"), ("A5", "up"), ("WIDE_Y", "down"), ("E211", "up")]
COLD_FIRST = ["W22", "A3_13", "Y211w2", "S3w2"]
COLD_HEAT = ["A3", "W22", "A3_12"]


def _cold_units(rng: random.Random) -> List[List[Request]]:
    units = []
    for tree, direction in COLD_STRUCTURE:
        base = ["{tree}", "--direction", direction]
        for argv in (["info"] + base, ["ideals"] + base + ["--count-only"], ["basis"] + base):
            units.append([Request(argv[0], argv, tree)])
    for lo, hi in BCH_STRATA[:4]:
        units.append([bch_request(rng.randint(lo, hi))])
    for tree_name in COLD_FIRST:
        f = _poly_template(rng.randrange(3), TREES[tree_name], rng)
        units.append([_first_request(tree_name, f, rng, "exact", True)])
    for tree_name in COLD_HEAT:
        n = TREES[tree_name][0]
        units.append([_heat_request(tree_name, [2] * n, 2, 16, rng)])
    return units


def _warm_up_units(workload: str, rng: random.Random) -> List[List[Request]]:
    """Small requests that touch each command kind of a workload once (one
    child process for cold_cli); they fill lazy imports and caches before
    timing and are not counted."""
    if workload == "structure":
        return [_session("A3_12", "up", True, True, rng)]
    if workload == "exact":
        return [
            [_first_request("A3_13", _poly_template(0, TREES["A3_13"], rng), rng, "exact", True)],
            [_heat_request("A3", [2, 2, 2], 1, 4, rng)],
            [bch_request(20)],
        ]
    if workload == "spectral":
        return [
            [_heat_request("A3", [2, 2, 2], 2, 16, rng)],
            [_heat_request("W22", [2, 2, 2], 2, 16, rng, 4)],
        ]
    return [[bch_request(20)]]


UNIT_BUILDERS = {
    "structure": _structure_units,
    "exact": _exact_units,
    "spectral": _spectral_units,
    "cold_cli": _cold_units,
}


def pass_requests(workload: str, seed: int, index: int) -> List[Request]:
    """Every slot of the workload once, in seeded order; the same
    (workload, seed, index) gives the same requests."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    units = UNIT_BUILDERS[workload](rng)
    rng.shuffle(units)
    return [r for u in units for r in u]


def warm_up_requests(workload: str, seed: int) -> List[Request]:
    rng = random.Random(f"warm-up:{workload}:{seed}")
    return [r for u in _warm_up_units(workload, rng) for r in u]


def tree_names(workload: str) -> List[str]:
    names = {r.tree for r in pass_requests(workload, 0, 0) if r.tree}
    names.update(r.tree for r in warm_up_requests(workload, 0) if r.tree)
    return sorted(names)


def tree_files(workload: str, seed: int) -> Dict[str, Tuple[dict, Tuple[int, ...]]]:
    """Tree documents for a run, with the labelling permutation used.
    Structure trees get a seeded labelling; solver trees keep their own."""
    rng = random.Random(f"labels:{seed}")
    out = {}
    for name in tree_names(workload):
        tree = TREES[name]
        if workload == "structure":
            tree, perm = relabel(tree, rng)
        else:
            perm = tuple(range(1, tree[0] + 1))
        out[name] = (tree_document(tree), perm)
    return out


def write_trees(workload: str, seed: int, directory: str) -> Dict[str, Tuple[int, ...]]:
    perms = {}
    for name, (doc, perm) in tree_files(workload, seed).items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        perms[name] = perm
    return perms
