"""Weighted rooted trees stored parent-pointer style, plus the node
classifications and weight products that the operator algebras consume.

Nodes are 1-based. Node 1 is the root; every node i >= 2 has a parent
with a smaller index and a positive integer weight on its incoming edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import TreeValidationError

__all__ = [
    "TreeDiagram",
    "NodeClassification",
    "NodeWeights",
    "build_tree",
    "classify_nodes",
    "weights",
    "chain",
    "e_tree",
    "star",
    "tree_to_dict",
    "tree_from_dict",
    "load_tree",
]


@dataclass(frozen=True)
class TreeDiagram:
    """Rooted tree with positive integer edge weights.

    ``parents[i - 2]`` and ``edge_weights[i - 2]`` give the parent node and
    the weight of the incoming edge of node i, for i in 2..n.
    """

    n: int
    parents: Tuple[int, ...]
    edge_weights: Tuple[int, ...]

    def parent(self, i: int) -> int:
        self._check_node(i)
        if i == 1:
            raise TreeValidationError("the root node 1 has no parent")
        return self.parents[i - 2]

    def weight(self, i: int) -> int:
        """Weight of the edge (parent(i), i)."""
        self._check_node(i)
        if i == 1:
            raise TreeValidationError("the root node 1 has no incoming edge")
        return self.edge_weights[i - 2]

    def children(self, i: int) -> Tuple[int, ...]:
        self._check_node(i)
        return tuple(j for j in range(2, self.n + 1) if self.parents[j - 2] == i)

    def clan(self, i: int) -> Tuple[int, ...]:
        """The unique root-to-i path, starting at 1 and ending at i."""
        self._check_node(i)
        path = [i]
        while path[-1] != 1:
            path.append(self.parents[path[-1] - 2])
        return tuple(reversed(path))

    def descendants(self, i: int) -> Tuple[int, ...]:
        self._check_node(i)
        return tuple(j for j in range(i + 1, self.n + 1) if i in self.clan(j))

    def edges(self) -> Tuple[Tuple[int, int, int], ...]:
        """Edges as (parent, child, weight), ordered by child."""
        return tuple(
            (self.parents[i - 2], i, self.edge_weights[i - 2])
            for i in range(2, self.n + 1)
        )

    def path_weight(self, i: int, j: int) -> int:
        """Product of edge weights along the path from ancestor i down to j."""
        self._check_node(i)
        self._check_node(j)
        total = 1
        q = j
        while q != i:
            if q == 1:
                raise TreeValidationError(f"node {i} is not an ancestor of node {j}")
            total *= self.weight(q)
            q = self.parent(q)
        return total

    def _check_node(self, i: int) -> None:
        if not isinstance(i, int) or not 1 <= i <= self.n:
            raise TreeValidationError(f"node {i} out of range 1..{self.n}")


@dataclass(frozen=True)
class NodeClassification:
    """All node sets and maps the structural formulas draw on.

    tips: nodes with no children. upsilon: nodes whose descendants all sit
    below weight-1 edges. phi: the root plus nodes whose whole root path
    uses weight-1 edges. omega: children of the root. The maps give each
    node its descendant set, child set, and clan (root path).
    """

    tips: Tuple[int, ...]
    upsilon: Tuple[int, ...]
    phi: Tuple[int, ...]
    omega: Tuple[int, ...]
    descendants: Dict[int, Tuple[int, ...]]
    children: Dict[int, Tuple[int, ...]]
    clans: Dict[int, Tuple[int, ...]]


@dataclass(frozen=True)
class NodeWeights:
    """Per-node weight data.

    series_height: 1 plus the sum, over clan prefixes ending at the node,
    of the products of the remaining clan weights (the node's height in
    the lower central series grading; 1 at the root).
    kappa: product of all edge weights inside the subtree below the node.
    kappa_map: kappa divided by the path weight from the node to each
    descendant.
    """

    series_height: int
    kappa: int
    kappa_map: Dict[int, int]


def build_tree(n: int, edges: Iterable[Sequence[int]]) -> TreeDiagram:
    """Validate and build a tree from (parent, child, weight) triples.

    Children 2..n must each occur exactly once, parents must be smaller
    than their children, and weights must be positive; all are ints, not bools.
    """
    # type(...) is int, not isinstance: JSON true loads as bool, an int subclass
    if type(n) is not int or n < 1:
        raise TreeValidationError(f"node count must be a positive integer, got {n}")
    parents = [0] * (n - 1)
    wts = [0] * (n - 1)
    seen = set()
    for edge in edges:
        if len(edge) != 3:
            raise TreeValidationError(f"edge {edge!r} must be (parent, child, weight)")
        p, c, w = edge
        if type(c) is not int or not 2 <= c <= n:
            raise TreeValidationError(f"child node {c} out of range 2..{n}")
        if c in seen:
            raise TreeValidationError(f"duplicate child node {c}")
        seen.add(c)
        if type(p) is not int or not 1 <= p <= n:
            raise TreeValidationError(f"parent {p} out of range for child node {c}")
        if p >= c:
            raise TreeValidationError(
                f"parent {p} must be smaller than child node {c}"
            )
        if type(w) is not int or w < 1:
            raise TreeValidationError(f"weight {w} on child node {c} must be >= 1")
        parents[c - 2] = p
        wts[c - 2] = w
    missing = [c for c in range(2, n + 1) if c not in seen]
    if missing:
        raise TreeValidationError(f"missing child node {missing[0]}")
    return TreeDiagram(n, tuple(parents), tuple(wts))


def classify_nodes(tree: TreeDiagram) -> NodeClassification:
    """Compute all classification sets; deterministic ascending order."""
    nodes = range(1, tree.n + 1)
    children = {i: tree.children(i) for i in nodes}
    clans = {i: tree.clan(i) for i in nodes}
    descendants = {i: tree.descendants(i) for i in nodes}
    tips = tuple(i for i in nodes if not children[i])
    upsilon = tuple(
        i for i in nodes if all(tree.weight(j) == 1 for j in descendants[i])
    )
    phi = tuple(
        i
        for i in nodes
        if i == 1 or all(tree.weight(q) == 1 for q in clans[i][1:])
    )
    omega = children[1]
    return NodeClassification(
        tips=tips,
        upsilon=upsilon,
        phi=phi,
        omega=omega,
        descendants=descendants,
        children=children,
        clans=clans,
    )


def weights(tree: TreeDiagram, i: int) -> NodeWeights:
    """Series height, subtree weight product, and per-descendant quotients."""
    tree._check_node(i)
    path = tree.clan(i)
    ws = [tree.weight(q) for q in path[1:]]
    height = 1 + sum(prod(ws[s:]) for s in range(len(ws)))
    desc = tree.descendants(i)
    kappa = prod(tree.weight(d) for d in desc)
    kappa_map = {s: kappa // tree.path_weight(i, s) for s in desc}
    return NodeWeights(series_height=height, kappa=kappa, kappa_map=kappa_map)


# ------------------------------------------------------------------ builders


def chain(edge_weights: Sequence[int]) -> TreeDiagram:
    """Path tree on len(edge_weights) + 1 nodes with the given weights."""
    n = len(edge_weights) + 1
    return build_tree(n, [(i, i + 1, w) for i, w in enumerate(edge_weights, 1)])


def star(k: int, weight: int = 1) -> TreeDiagram:
    """Root node with k children, all edges carrying the same weight."""
    return build_tree(k + 1, [(1, c, weight) for c in range(2, k + 2)])


def e_tree(
    n0: int,
    n1: int,
    n2: int,
    *,
    first_trunk_weight: int = 1,
    upper_tip_weight: int = 1,
    lower_tip_weight: int = 1,
) -> TreeDiagram:
    """Y-shaped tree: a trunk of n0 nodes with two chains of n1 and n2 nodes.

    Trunk nodes are 1..n0, the first branch occupies the next n1 labels and
    the second branch the n2 labels after that; both branches hang off node
    n0. The optional weights land on the first trunk edge and on the last
    edge of each branch, all other edges have weight 1.
    """
    if n0 < 1 or n1 < 1 or n2 < 1:
        raise TreeValidationError("e_tree arm sizes must be positive")
    edges = []
    for i in range(1, n0):
        edges.append((i, i + 1, first_trunk_weight if i == 1 else 1))
    if n0 == 1 and first_trunk_weight != 1:
        raise TreeValidationError("first_trunk_weight needs a trunk edge")
    prev = n0
    for j in range(n1):
        node = n0 + 1 + j
        edges.append((prev, node, upper_tip_weight if j == n1 - 1 else 1))
        prev = node
    prev = n0
    for j in range(n2):
        node = n0 + n1 + 1 + j
        edges.append((prev, node, lower_tip_weight if j == n2 - 1 else 1))
        prev = node
    return build_tree(n0 + n1 + n2, edges)


# ------------------------------------------------------------------- file io


def tree_to_dict(tree: TreeDiagram) -> dict:
    return {
        "n": tree.n,
        "edges": [
            {"parent": p, "child": c, "weight": w} for p, c, w in tree.edges()
        ],
    }


def tree_from_dict(data: Mapping) -> TreeDiagram:
    try:
        n = data["n"]
        edges = [(e["parent"], e["child"], e["weight"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise TreeValidationError(f"malformed tree document: {exc}") from exc
    return build_tree(n, edges)


def load_tree(path: str) -> TreeDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))
