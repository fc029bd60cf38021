"""The two nilpotent algebras of first-order differential operators
attached to a weighted tree, as explicit monomial spans.

The upward generators are d/dx_1 together with x_i^w d/dx_j for each
edge (i, j) of weight w; the downward ones are the tip derivatives
together with x_j^w d/dx_i. What is computed in either direction is the
span of the simplex monomials: the exponents of the basis monomials at
each node are the lattice points of one weighted simplex,
``node_simplex``, which the basis enumerates and the closed-form
dimension counts. That span contains the algebra the generators
generate and equals it upward and on chains; downward on a branching
tree it can be larger (the 3-node star with weights 2, 2 spans 8
monomials, the generators generate 7, and x2*x3*d1 is the one outside).
Closure under the bracket is verified separately rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .polynomials import series_coeff
from .trees import TreeDiagram

# a basis monomial x^exps d/dx_dvar as (exps, dvar)
Key = Tuple[Tuple[int, ...], int]
# a node's weighted simplex as (support, coefs, bound), see node_simplex
Simplex = Tuple[Tuple[int, ...], List[int], int]

__all__ = [
    "DiffOpMonomial",
    "StructureReport",
    "StructureTable",
    "enumerate_basis",
    "dim_and_nilpotence",
    "root_of_monomial",
    "verify_structure",
    "structure_table",
    "lattice_points",
]


class DiffOpMonomial(NamedTuple):
    """The basis monomial x^exps * d/dx_dvar."""

    exps: Tuple[int, ...]
    dvar: int


def lattice_points(coefs: Sequence[int], bound: int) -> List[Tuple[int, ...]]:
    """Nonnegative integer tuples j with sum(c_s * j_s) <= bound.

    Canonical order: total degree ascending, then descending exponent order.
    """
    points: List[Tuple[int, ...]] = []

    def rec(pos, prefix, remaining):
        if pos == len(coefs):
            points.append(tuple(prefix))
            return
        c = coefs[pos]
        for v in range(remaining // c + 1):
            prefix.append(v)
            rec(pos + 1, prefix, remaining - c * v)
            prefix.pop()

    rec(0, [], bound)
    points.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return points


def node_simplex(tree: TreeDiagram, i: int, direction: str) -> Simplex:
    """The weighted simplex of node i, as (support, coefs, bound): the
    exponents j of the basis monomials x^j d/dx_i are the nonnegative j
    over the nodes of support with sum(coefs[s] * j_s) <= bound.

    Upward, the support is the proper clan prefix of i, coefs[s] is the
    product of the first s clan weights and bound the product of all of
    them. Downward, the support is the descendants of i (ascending),
    bound is the product of their weights and coefs[s] is bound divided
    by the path weight from i down to support[s].
    """
    _check_direction(direction)
    w = tree.edge_weights
    if direction == "up":
        path = tree.clan(i)
        coefs = [1]
        for q in path[1:]:
            coefs.append(coefs[-1] * w[q - 2])
        return path[:-1], coefs[:-1], coefs[-1]
    tree._check_node(i)
    # parents precede children, so one ascending pass reaches every descendant
    path_weight = {i: 1}
    for j in range(i + 1, tree.n + 1):
        p = tree.parents[j - 2]
        if p in path_weight:
            path_weight[j] = path_weight[p] * w[j - 2]
    del path_weight[i]
    support = tuple(path_weight)
    bound = prod(w[s - 2] for s in support)
    return support, [bound // path_weight[s] for s in support], bound


def node_lattice(
    tree: TreeDiagram, i: int, direction: str
) -> Tuple[Tuple[int, ...], List[Tuple[int, ...]]]:
    """The nodes and exponent tuples of the basis monomials x^j d/dx_i at
    node i, as (support, elements): the lattice points of
    ``node_simplex`` in ``lattice_points`` order, which is the order of
    node i's monomials in the basis and the structure table."""
    support, coefs, bound = node_simplex(tree, i, direction)
    return support, lattice_points(coefs, bound)


def enumerate_basis(tree: TreeDiagram, direction: str) -> List[DiffOpMonomial]:
    """Monomial basis in deterministic order: by node, then by degree.

    Upward, node i carries all x^j d/dx_i with j over the clan prefix of i
    inside the clan-weighted simplex. Downward, node i carries all
    x^j d/dx_i with j over the descendants of i inside the subtree-weighted
    simplex, which leaves exactly the plain derivatives at the tips.
    """
    out: List[DiffOpMonomial] = []
    for i in range(1, tree.n + 1):
        support, elements = node_lattice(tree, i, direction)
        for el in elements:
            exps = [0] * tree.n
            for node, e in zip(support, el):
                exps[node - 1] = e
            out.append(DiffOpMonomial(tuple(exps), i))
    return out


def root_of_monomial(mono: DiffOpMonomial) -> Tuple[int, ...]:
    """Integer root vector: the exponents with -1 in the derivative slot."""
    if mono.exps[mono.dvar - 1] != 0:
        raise ValueError("monomial contains its own derivative variable")
    root = list(mono.exps)
    root[mono.dvar - 1] = -1
    return tuple(root)


def dim_and_nilpotence(
    tree: TreeDiagram, direction: str, simplices: Optional[Sequence[Simplex]] = None
) -> Tuple[int, int]:
    """Closed-form dimension and lower-central-series length.

    The dimension counts the lattice points of each node's simplex as the
    coefficient of t^bound in 1/(1 - t) times the product of 1/(1 - t^c)
    over its coefs, the first factor taking up the slack. The nilpotence
    is the number of nonzero terms of the lower central series, the
    largest per-node height: upward h(1) = 1 and
    h(i) = 1 + weight(i) * h(parent(i)); downward tips have height 1 and
    h(i) = 1 + max over children s of weight(s) * h(s).
    ``simplices`` holds ``node_simplex`` of nodes 1..n, derived here when
    omitted.
    """
    if simplices is None:
        simplices = [node_simplex(tree, i, direction) for i in range(1, tree.n + 1)]
    dim = sum(series_coeff([1, *coefs], bound) for _, coefs, bound in simplices)
    heights = [1] * (tree.n + 1)
    if direction == "up":
        for i in range(2, tree.n + 1):
            heights[i] = 1 + tree.weight(i) * heights[tree.parent(i)]
    else:
        for i in range(tree.n, 1, -1):
            p = tree.parent(i)
            heights[p] = max(heights[p], 1 + tree.weight(i) * heights[i])
    return dim, max(heights)


# --------------------------------------------------------- structure checks


@dataclass(frozen=True)
class StructureTable:
    """Bracket data of one algebra in its root grading.

    Roots add under the bracket and the basis roots are pairwise distinct,
    so the bracket of basis elements p and q is a nonzero multiple of at
    most one basis element, and for fixed p different q give different
    images. Every span the structure checks need is therefore spanned by
    basis elements and is held as an int bitmask whose bit k stands for
    basis element k.

    ``closed``: every term of every basis bracket is a basis monomial.
    ``commute[p]``: the q with [p, q] = 0 (p itself included).
    ``ad_images[q]``: the images of q under bracketing with the basis.
    ``central_series``: C_1 = the whole basis, C_{k+1} = [basis, C_k],
    down to the last nonzero term.
    ``closures[q]``: q and everything reached from it by repeated brackets.
    """

    keys: Tuple[Key, ...]
    roots: Tuple[Tuple[int, ...], ...]
    index: Dict[Tuple[int, ...], int]
    closed: bool
    commute: Tuple[int, ...]
    ad_images: Tuple[int, ...]
    central_series: Tuple[int, ...]
    closures: Tuple[int, ...]


def _bits(mask: int):
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def structure_table(tree: TreeDiagram, direction: str) -> StructureTable:
    """Build the structure table of the upward or downward algebra.

    Only the pairs that fail to commute are bracketed. They are read off
    per-node bitmasks, an OR of at most n + 1 masks per basis element,
    rather than found by testing every pair.
    """
    basis = enumerate_basis(tree, direction)
    keys = tuple((m.exps, m.dvar) for m in basis)
    roots_ = tuple(root_of_monomial(m) for m in basis)
    index = {r: k for k, r in enumerate(roots_)}
    if len(index) != len(roots_):
        raise AssertionError("duplicate root in basis enumeration")
    nb = len(keys)

    # [x^a d_i, x^b d_j] is nonzero exactly when b_i > 0 or a_j > 0, so the
    # partners of x^a d_i are holds[i] OR differentiates[j] over a_j > 0
    holds = [0] * (tree.n + 1)
    differentiates = [0] * (tree.n + 1)
    for k, (exps, dvar) in enumerate(keys):
        bit = 1 << k
        differentiates[dvar] |= bit
        for j, e in enumerate(exps, 1):
            if e:
                holds[j] |= bit

    closed = True
    commute = []
    ad_images = [0] * nb
    full = (1 << nb) - 1
    for (exps, dvar), root in zip(keys, roots_):
        partners = holds[dvar]
        for j, e in enumerate(exps, 1):
            if e:
                partners |= differentiates[j]
        for q in _bits(partners):
            exps_q, dvar_q = keys[q]
            # a two-term bracket holds x_j in its d/dx_j term, which is
            # never a basis monomial; a one-term bracket is a multiple of
            # the monomial whose root is the sum of the two roots
            if exps_q[dvar - 1] and exps[dvar_q - 1]:
                s = None
            else:
                s = index.get(tuple(map(add, root, roots_[q])))
            if s is None:
                closed = False
            else:
                ad_images[q] |= 1 << s
        commute.append(full & ~partners)

    series = []
    current = full
    while current:
        series.append(current)
        nxt = 0
        for q in _bits(current):
            nxt |= ad_images[q]
        current = nxt

    # images lie deeper in the central series, so this recursion ends
    closures = [0] * nb

    def close(q):
        if not closures[q]:
            mask = 1 << q
            for s in _bits(ad_images[q]):
                mask |= close(s)
            closures[q] = mask
        return closures[q]

    for q in range(nb):
        close(q)

    return StructureTable(
        keys=keys,
        roots=roots_,
        index=index,
        closed=closed,
        commute=tuple(commute),
        ad_images=tuple(ad_images),
        central_series=tuple(series),
        closures=tuple(closures),
    )


@dataclass(frozen=True)
class StructureReport:
    closure: bool
    central_series_dims: Tuple[int, ...]
    center_basis: Tuple[Key, ...]


def verify_structure(tree: TreeDiagram, direction: str) -> StructureReport:
    """Closure, iterated-bracket lower central series, and center.

    Closure holds when every term of every bracket of two basis monomials
    is itself a basis monomial. The series terms C_{k+1} = [g, C_k] and
    the center (the common kernel of all ad maps) are spans of basis
    monomials, read off the structure table as index sets: the dimensions
    are their sizes and the center is returned as the keys (exps, dvar) of
    its basis elements, in basis order. A failed check is reported, never
    raised.
    """
    table = structure_table(tree, direction)
    full = (1 << len(table.keys)) - 1
    center = tuple(key for key, commute in zip(table.keys, table.commute) if commute == full)
    return StructureReport(
        closure=table.closed,
        central_series_dims=tuple(mask.bit_count() for mask in table.central_series),
        center_basis=center,
    )


def _check_direction(direction: str) -> None:
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
