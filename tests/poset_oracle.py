"""Reference root posets and anchor sets, built the direct way.

What ``ideals._anchor_order`` reads off the structure table's closures
and ``ideals._independent_subsets`` finds from bitmasks, answered from
the definitions: every element
carries an explicit value vector (upward, clan-weighted cumulative sums
over the proper clan prefix; downward, per descendant m, the sum of the
exponents on the path to m times the path weights), the order compares
value vectors componentwise pair by pair, and antichains and independent
anchor sets grow by testing each candidate against every chosen member.
The simplex of each node is derived here from parents and weights alone,
and its lattice points are found by testing every point of a box.
"""

from itertools import product
from math import prod
from typing import Dict, List, Sequence, Tuple

from treelie.trees import TreeDiagram

Element = Tuple[int, ...]


def path_weight(tree: TreeDiagram, i: int, m: int) -> int:
    """Product of the edge weights on the path from ancestor i down to m."""
    total = 1
    while m != i:
        total *= tree.weight(m)
        m = tree.parent(m)
    return total


def box_lattice(coefs: Sequence[int], bound: int) -> List[Element]:
    """The j >= 0 with sum(coefs[s] * j_s) <= bound, by total degree and
    then descending exponent order."""
    box = product(*(range(bound // c + 1) for c in coefs))
    points = [j for j in box if sum(c * x for c, x in zip(coefs, j)) <= bound]
    points.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return points


class OraclePoset:
    def __init__(self, tree: TreeDiagram, i: int, direction: str):
        if direction == "up":
            path = tree.clan(i)
            support = path[:-1]
            ws = [tree.weight(q) for q in path[1:]]
            coefs = [prod(ws[:s]) for s in range(len(ws))]
            elements = box_lattice(coefs, prod(ws))
            values = [
                tuple(
                    el[s] + sum(el[e] * prod(ws[s:e]) for e in range(s + 1, len(ws)))
                    for s in range(len(ws))
                )
                for el in elements
            ]
        else:
            support = tree.descendants(i)
            bound = prod(tree.weight(m) for m in support)
            elements = box_lattice([bound // path_weight(tree, i, m) for m in support], bound)
            pos = {s: k for k, s in enumerate(support)}
            paths = {}
            for m in support:
                path, q = [], m
                while q != i:
                    path.append(q)
                    q = tree.parent(q)
                paths[m] = path  # nodes from m up to, not including, i
            values = [
                tuple(
                    sum(el[pos[r]] * path_weight(tree, r, m) for r in paths[m])
                    for m in support
                )
                for el in elements
            ]
        self.support = tuple(support)
        self.elements = tuple(elements)
        self.values: Dict[Element, Tuple[int, ...]] = dict(zip(elements, values))

    def leq(self, a: Element, b: Element) -> bool:
        return all(x <= y for x, y in zip(self.values[a], self.values[b]))

    def downset(self, tops: Sequence[Element]) -> Tuple[Element, ...]:
        return tuple(e for e in self.elements if any(self.leq(e, t) for t in tops))

    def antichains(self) -> List[Tuple[Element, ...]]:
        els = self.elements
        out: List[Tuple[Element, ...]] = []

        def rec(start, chosen):
            out.append(tuple(chosen))
            for k in range(start, len(els)):
                e = els[k]
                if all(not self.leq(e, c) and not self.leq(c, e) for c in chosen):
                    chosen.append(e)
                    rec(k + 1, chosen)
                    chosen.pop()

        rec(0, [])
        return out


def independent_subsets(tree: TreeDiagram, ground: Sequence[int]) -> List[Tuple[int, ...]]:
    """Subsets of ground in which no member descends from another."""
    ground = sorted(ground)
    desc = {i: set(tree.descendants(i)) for i in ground}
    out: List[Tuple[int, ...]] = []

    def rec(start, chosen):
        out.append(tuple(chosen))
        for k in range(start, len(ground)):
            i = ground[k]
            if all(i not in desc[c] for c in chosen):
                chosen.append(i)
                rec(k + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out
