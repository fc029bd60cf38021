"""Shared tree corpus: chains, Y-trees, stars, and a branching 6-node
tree, all with at most 16 basis monomials in both directions so the
downset oracle stays cheap."""

from hypothesis import strategies as st

from treelie import build_tree, chain, e_tree, star

CORPUS = [
    ("single", chain([])),
    ("A2_1", chain([1])),
    ("A2_2", chain([2])),
    ("A2_3", chain([3])),
    ("A3_11", chain([1, 1])),
    ("A3_12", chain([1, 2])),
    ("A3_21", chain([2, 1])),
    ("A3_13", chain([1, 3])),
    ("A4_111", chain([1, 1, 1])),
    ("A4_112", chain([1, 1, 2])),
    ("A4_121", chain([1, 2, 1])),
    ("A5_1111", chain([1, 1, 1, 1])),
    ("E2_11", e_tree(2, 1, 1)),
    ("E3_11", e_tree(3, 1, 1)),
    ("star3", star(3)),
    ("star3_w2", star(3, weight=2)),
    ("T6", build_tree(6, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (1, 6, 1)])),
]

CORPUS_BY_NAME = dict(CORPUS)

# heavier trees used by targeted tests (oracle still within its guard)
WIDE_Y = e_tree(2, 2, 1, upper_tip_weight=2)  # 19 upward roots
A3_14 = chain([1, 4])  # 18 upward roots


@st.composite
def small_trees(draw, max_nodes=5, max_weight=2):
    """Random trees: each node's parent is any smaller node."""
    n = draw(st.integers(1, max_nodes))
    edges = [
        (draw(st.integers(1, c - 1)), c, draw(st.integers(1, max_weight)))
        for c in range(2, n + 1)
    ]
    return build_tree(n, edges)


# the structure ladder the benchmark's `structure` workload runs
LADDER = [
    ("A3_12", chain([1, 2])),
    ("A3_21", chain([2, 1])),
    ("A3_13", chain([1, 3])),
    ("S3", star(3)),
    ("S3w2", star(3, weight=2)),
    ("E211", e_tree(2, 1, 1)),
    ("E311", e_tree(3, 1, 1)),
    *((f"A{n}", chain([1] * (n - 1))) for n in range(4, 13)),
    ("W222", chain([2, 2, 2])),
    ("W1122", chain([1, 1, 2, 2])),
    ("E322", e_tree(3, 2, 2)),
    ("E533", e_tree(5, 3, 3)),
    ("S4", star(4)),
    ("S5", star(5)),
    ("S4w2", star(4, weight=2)),
    ("WIDE_Y", WIDE_Y),
    ("T6", CORPUS_BY_NAME["T6"]),
]
