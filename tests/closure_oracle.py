"""Reference algebra generated by the generators, by exact closure.

``liealg.enumerate_basis`` lists the lattice points of each node's
simplex and never brackets anything. This oracle starts from the
generators alone: upward d/dx_1 and x_i^w d/dx_j for each edge (i, j) of
weight w, downward the tip derivatives and x_j^w d/dx_i. It closes their
span under ad of the generators with ``lie_oracle.bracket``, keeping an
echelon basis over the rationals. A subspace that holds the generators
and is closed under their ad maps holds every iterated bracket of them,
so the result spans the generated algebra.
"""

from typing import Dict, List, Tuple

from .lie_oracle import LieElement, bracket

Key = Tuple[Tuple[int, ...], int]


def generators(tree, direction) -> List[LieElement]:
    zero = (0,) * tree.n

    def mono(node, power, dvar):
        exps = list(zero)
        if node:
            exps[node - 1] = power
        return LieElement.monomial(tree.n, 1, exps, dvar)

    if direction == "up":
        gens = [mono(0, 0, 1)]
        gens += [mono(p, w, c) for p, c, w in tree.edges()]
    else:
        gens = [mono(0, 0, i) for i in range(1, tree.n + 1) if not tree.children(i)]
        gens += [mono(c, w, p) for p, c, w in tree.edges()]
    return gens


def generated_algebra(tree, direction) -> Dict[Key, LieElement]:
    """An echelon basis of the generated algebra, keyed by pivot: each
    element has coefficient 1 at its pivot, its largest key, and no two
    elements share a pivot."""
    gens = generators(tree, direction)
    basis: Dict[Key, LieElement] = {}

    def reduce(v):
        while v.terms:
            pivot = max(v.terms)
            if pivot not in basis:
                return v.scale(1 / v.terms[pivot]), pivot
            v = v - basis[pivot].scale(v.terms[pivot])
        return None, None

    queue = []
    for v in gens:
        v, pivot = reduce(v)
        if v is not None:
            basis[pivot] = v
            queue.append(v)
    while queue:
        v = queue.pop()
        for g in gens:
            w, pivot = reduce(bracket(g, v))
            if w is not None:
                basis[pivot] = w
                queue.append(w)
    return basis
