"""Classification, enumeration, and counting of the abelian ideals of the
solvable extensions of the two tree algebras.

Ideals are recorded as root sets: each basis monomial x^a d/dx_j is the
unique vector for the integer root (a with -1 in slot j), and every
abelian ideal is a sum of such one-dimensional root spaces. Every order
here is bracket reachability, read off the ``closures`` of
``liealg.structure_table``, and every ideal is held as a member bitmask
over its basis. Upward, ideals are built from generator data: an
independent anchor set plus, per anchor, an assignment of antichains of
the anchor's monomials, ordered by closure (x^e' d/dx_i lies below
x^e d/dx_i when the closure of the second holds the first). The ideal a
datum generates is the OR of the closures of its generators. One bitmask
recursion (``_antichains``) yields both the antichains at an anchor and
the anchor sets, which are the antichains of the ground nodes under
ancestry. Ideals are counted without being built, by a product over the
tree of the assignment counts at each possible anchor. Downward, and in
the oracle for both directions, ideals are the downsets of the
bracket-reachability preorder whose members pairwise commute, found by
one bitmask search that counts them or records them. One test on the
structure table (``_maximality``) decides maximality for both the
listing and ``maximal_ideals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from math import prod
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import SizeGuardError
from .liealg import StructureTable, _bits, node_lattice, structure_table
# perfbench's tracer test checks that its wrappers reach this binding too
from .liealg import enumerate_basis  # noqa: F401
from .trees import TreeDiagram, classify_nodes

__all__ = [
    "AdmissiblePair",
    "AbelianIdeal",
    "principal_ideal",
    "maximal_ideals",
    "enumerate_ideals",
    "brute_force_ideals",
    "is_abelian_ideal",
    "LIST_GUARD",
    "ORACLE_GUARD",
]

LIST_GUARD = 24
ORACLE_GUARD = 20

Root = Tuple[int, ...]


def _antichains(comparable: Sequence[int]) -> List[Tuple[int, ...]]:
    """Every antichain of the indices 0..len-1, as ascending tuples in
    depth-first order, the empty one first. ``comparable[k]`` is the
    bitmask of the indices related to k, k itself included."""
    out: List[Tuple[int, ...]] = []

    def rec(start, chosen, blocked):
        out.append(chosen)
        for k in range(start, len(comparable)):
            if not blocked >> k & 1:
                rec(k + 1, chosen + (k,), blocked | comparable[k])

    rec(0, (), 0)
    return out


@dataclass(frozen=True)
class AdmissiblePair:
    """Generator data of an upward abelian ideal: the independent anchor
    set and, for every node r in an anchor subtree, the antichain of
    exponent tuples e (in the anchor's closure order) whose monomials
    x^e d/dx_r generate at r."""

    anchors: Tuple[int, ...]
    antichains: Tuple[Tuple[int, Tuple[Tuple[int, ...], ...]], ...]


@dataclass(frozen=True)
class AbelianIdeal:
    roots: FrozenSet[Root]
    maximal: Optional[bool] = None
    generator_pair: Optional[AdmissiblePair] = None

    @property
    def dim(self) -> int:
        return len(self.roots)

    def canonical(self) -> Tuple[Root, ...]:
        return tuple(sorted(self.roots))


# ---------------------------------------------------------- downset search


def _abelian_downsets(table: StructureTable, found: Optional[List[int]] = None) -> int:
    """Number of index sets closed under bracket reachability whose members
    pairwise commute; each is visited exactly once and, when ``found`` is
    given, appended to it as a bitmask over the basis."""
    closures, commute = table.closures, table.commute

    def rec(members, compat, excluded):
        # compat: the indices commuting with every member; the others can
        # never join, so only compatible undecided indices are branched on
        free = compat & ~(members | excluded)
        if not free:
            if found is not None:
                found.append(members)
            return 1
        low = free & -free
        total = rec(members, compat, excluded | low)
        need = closures[low.bit_length() - 1] & ~members
        if need & ~free:
            return total
        for j in _bits(need):
            compat &= commute[j]
        if need & ~compat:
            return total
        return total + rec(members | need, compat, excluded)

    return rec(0, (1 << len(table.roots)) - 1, 0)


def _maximality(table: StructureTable) -> Callable[[int], bool]:
    """The maximality test for the abelian ideals of one algebra, as a
    predicate on member bitmasks.

    An abelian ideal I is maximal unless some index r outside it has an
    abelian closure commuting with I: I plus that closure is then a larger
    abelian ideal, and every larger one contains such a closure.
    """
    closures, commute = table.closures, table.commute
    joinable = [not any(c & ~commute[k] for k in _bits(c)) for c in closures]
    everything = (1 << len(closures)) - 1

    def is_maximal(members: int) -> bool:
        common = everything
        for k in _bits(members):
            common &= commute[k]
        return not any(
            joinable[r] and not closures[r] & ~common for r in _bits(common & ~members)
        )

    return is_maximal


# ----------------------------------------------------------- constructions


def principal_ideal(tree: TreeDiagram, i: int, j: Tuple[int, ...], direction: str) -> AbelianIdeal:
    """Ideal generated by the single monomial with exponents j at node i:
    the bracket closure of x^j d/dx_i.

    Upward the anchor must make every descendant weight-1 (else no abelian
    ideal contains the generator); downward the anchor's root path must be
    weight-1 throughout.
    """
    cls = classify_nodes(tree)
    _, elements = node_lattice(tree, i, direction)
    j = tuple(j)
    if j not in elements:
        raise ValueError(f"exponent tuple {j} is not in the poset of node {i}")
    if direction == "up" and i not in cls.upsilon:
        raise ValueError(f"node {i} has a descendant below a weighted edge")
    if direction == "down" and i not in cls.phi:
        raise ValueError(f"node {i} sits below a weighted edge")
    table = structure_table(tree, direction)
    members = table.closures[_node_blocks(table, tree.n)[i][elements.index(j)]]
    roots = frozenset(table.roots[k] for k in _bits(members))
    ideal = AbelianIdeal(roots=roots)
    ok, cert = is_abelian_ideal(tree, direction, roots, table)
    if not ok:
        raise AssertionError(f"principal construction failed verification: {cert}")
    return ideal


def _ancestry(tree: TreeDiagram, ground: Sequence[int]) -> List[int]:
    """Per position a in ground, the bitmask of the positions b whose node
    lies on one root path with ground[a] (a itself included)."""
    clans = [set(tree.clan(i)) for i in ground]
    return [
        sum(1 << b for b, j in enumerate(ground) if i in clans[b] or j in clans[a])
        for a, i in enumerate(ground)
    ]


def _independent_subsets(tree: TreeDiagram, ground: Sequence[int]) -> List[Tuple[int, ...]]:
    """Subsets of ground in which no member descends from another: the
    antichains of ground under ancestry."""
    ground = sorted(ground)
    return [tuple(ground[k] for k in c) for c in _antichains(_ancestry(tree, ground))]


def maximal_ideals(
    tree: TreeDiagram, direction: str, table: Optional[StructureTable] = None
) -> List[AbelianIdeal]:
    """The maximal members of the anchor-set family: the ideals generated
    by every monomial at the nodes of a maximal independent anchor set,
    kept when they pass ``_maximality``.

    Upward, the family is exhaustive: each maximal abelian ideal arises
    from a maximal independent anchor set. Downward, branching trees also
    admit maximal ideals that mix generator depths along one clan. They
    fall outside this family, and a family member lying inside one of them
    is dropped. The enumeration's per-ideal maximality flags mark them.
    ``table`` is the algebra's structure table, built here when omitted.
    """
    cls = classify_nodes(tree)
    ground = cls.upsilon if direction == "up" else cls.phi
    if table is None:
        table = structure_table(tree, direction)
    is_maximal = _maximality(table)
    blocks = _node_blocks(table, tree.n)
    # per ground node, the member mask of the ideal its monomials generate
    node_masks = [reduce(or_, (table.closures[k] for k in blocks[i])) for i in ground]
    related = _ancestry(tree, ground)
    full = (1 << len(ground)) - 1
    keep = []
    for chosen in _antichains(related)[1:]:
        # maximal: every ground node is related to some chosen node
        if reduce(or_, (related[k] for k in chosen)) != full:
            continue
        members = reduce(or_, (node_masks[k] for k in chosen))
        if is_maximal(members):
            roots = frozenset(table.roots[k] for k in _bits(members))
            keep.append(AbelianIdeal(roots=roots, maximal=True))
    keep.sort(key=lambda ideal: ideal.canonical())
    return keep


# ----------------------------------------------------- upward generator data


def _node_blocks(table: StructureTable, n: int) -> List[range]:
    """Per node i (at position i), the table indices of the monomials
    x^e d/dx_i: the basis lists each node's monomials together, in
    ``node_lattice`` order."""
    ends = [0] * (n + 1)
    for k, (_, dvar) in enumerate(table.keys):
        ends[dvar] = k + 1
    return [range(0)] + [range(ends[i - 1], ends[i]) for i in range(1, n + 1)]


def _anchor_order(table: StructureTable, block: range):
    """The antichains of one anchor's monomials, as positions in its block.

    e' <= e when the bracket closure of x^e d/dx_i holds x^e' d/dx_i.
    Returns the antichains in ``_antichains`` order and, per antichain,
    the bitmask of its entries and of the positions below an entry.
    """
    below = [table.closures[p] >> block.start & ((1 << len(block)) - 1) for p in block]
    comparable = list(below)
    for k, b in enumerate(below):
        for low in _bits(b):
            comparable[low] |= 1 << k
    chains = _antichains(comparable)
    entries = [sum(1 << k for k in c) for c in chains]
    down = [reduce(or_, (below[k] for k in c), 0) for c in chains]
    return chains, entries, down


def _count_assignments(
    children: Dict[int, Tuple[int, ...]], table: StructureTable, anchor: int, block: range
) -> int:
    """Number of antichain assignments to one anchor subtree
    (``_assignments``): per node, the allowed antichains, each times the
    ways of the node's child subtrees below it."""
    _, entries, down = _anchor_order(table, block)

    def ways(r, blocked):
        return sum(
            prod(ways(s, blocked | down[c]) for s in children[r])
            for c in range(1 if r == anchor else 0, len(entries))
            if not entries[c] & blocked
        )

    return ways(anchor, 0)


def _assignments(
    tree: TreeDiagram,
    table: StructureTable,
    nodes: Sequence[int],
    block: range,
    elements: Sequence[Tuple[int, ...]],
) -> List[Tuple[list, int]]:
    """Antichain assignments to the nodes of one anchor subtree, each as
    its (node, antichain of exponent tuples) items and the member mask of
    the ideal it generates: the OR of the closures of its generators
    x^e d/dx_r.

    ``nodes`` is the anchor followed by its descendants, parents first,
    and ``elements`` the anchor's exponent tuples in block order. The
    anchor's antichain is nonempty, and no entry of a node's antichain
    lies below an entry at one of its tree ancestors.
    """
    chains, entries, down = _anchor_order(table, block)
    named = [tuple(elements[k] for k in c) for c in chains]
    anchor = nodes[0]

    def closure(r, p):
        # of x^e d/dx_r, for the x^e d/dx_anchor at table index p
        root = list(table.roots[p])
        root[anchor - 1], root[r - 1] = 0, -1
        return table.closures[table.index[tuple(root)]]

    closures = {r: [closure(r, p) for p in block] for r in nodes}
    out = []
    items: list = []
    seen: Dict[int, int] = {}  # positions below an entry at a node or its ancestors

    def rec(pos, members):
        if pos == len(nodes):
            out.append((list(items), members))
            return
        r = nodes[pos]
        blocked = seen[tree.parent(r)] if pos else 0
        for c in range(0 if pos else 1, len(chains)):
            if entries[c] & blocked:
                continue
            seen[r] = blocked | down[c]
            items.append((r, named[c]))
            rec(pos + 1, reduce(or_, (closures[r][k] for k in chains[c]), members))
            items.pop()

    rec(0, 0)
    return out


def _up_admissible(tree: TreeDiagram, table: StructureTable):
    """Yield (member mask, pair) for every admissible generator datum.

    Anchors form a nonempty independent subset of the weight-free ground
    set, and each anchor subtree carries an antichain assignment
    (``_assignments``); the restriction on entries below an ancestor's
    entries keeps generator data and ideals in bijection.
    """
    cls = classify_nodes(tree)
    blocks = _node_blocks(table, tree.n)
    assignments = {
        i: _assignments(
            tree, table, (i,) + cls.descendants[i], blocks[i], node_lattice(tree, i, "up")[1]
        )
        for i in cls.upsilon
    }
    for anchors in _independent_subsets(tree, cls.upsilon):
        if not anchors:
            continue
        for combo in iproduct(*(assignments[i] for i in anchors)):
            items = sorted(item for chosen, _ in combo for item in chosen)
            members = reduce(or_, (m for _, m in combo))
            yield members, AdmissiblePair(anchors=anchors, antichains=tuple(items))


def _count_up(tree: TreeDiagram, table: StructureTable) -> int:
    """Number of upward abelian ideals, the zero ideal included.

    Counts the generator data of the subtree of v, including none:
    A(v) = prod over children c of A(c) + [v in upsilon] * a(v), as an
    anchor at v rules out anchors below it and a(v) counts its antichain
    assignments; the answer is A(1).
    """
    cls = classify_nodes(tree)
    upsilon = set(cls.upsilon)
    blocks = _node_blocks(table, tree.n)
    total: Dict[int, int] = {}
    for v in range(tree.n, 0, -1):  # children carry larger labels
        ways = prod(total[c] for c in cls.children[v])
        if v in upsilon:
            ways += _count_assignments(cls.children, table, v, blocks[v])
        total[v] = ways
    return total[1]


def enumerate_ideals(
    tree: TreeDiagram, direction: str, mode: str = "list", table: Optional[StructureTable] = None
):
    """All abelian ideals, the zero ideal included.

    Upward the generator-data construction is used; downward the
    bracket-reachability downset search (the oracle algorithm) is the
    primary path. ``mode='count'`` returns the total only, without
    building any ideal (upward by the anchor product of ``_count_up``);
    list mode is guarded at 24 roots. ``table`` is the algebra's structure
    table, built here when omitted.
    """
    if mode not in ("list", "count"):
        raise ValueError(f"mode must be 'list' or 'count', got {mode!r}")
    if table is None:
        table = structure_table(tree, direction)
    if mode == "count":
        return _count_up(tree, table) if direction == "up" else _abelian_downsets(table)
    if len(table.roots) > LIST_GUARD:
        raise SizeGuardError(
            f"{len(table.roots)} roots exceeds the list-mode guard of {LIST_GUARD};"
            " use count mode or the closed-form counts"
        )
    # (member bitmask, generator pair) per ideal
    if direction == "up":
        pairs: Dict[int, Optional[AdmissiblePair]] = {0: None}
        for members, pair in _up_admissible(tree, table):
            pairs.setdefault(members, pair)
        found = list(pairs.items())
    else:
        masks: List[int] = []
        _abelian_downsets(table, masks)
        found = [(m, None) for m in masks]
    is_maximal = _maximality(table)
    ideals = [
        AbelianIdeal(
            roots=frozenset(table.roots[k] for k in _bits(members)),
            maximal=is_maximal(members),
            generator_pair=pair,
        )
        for members, pair in found
    ]
    ideals.sort(key=lambda ideal: (ideal.dim, ideal.canonical()))
    return ideals


def brute_force_ideals(
    tree: TreeDiagram, direction: str, table: Optional[StructureTable] = None
) -> List[Tuple[Root, ...]]:
    """Oracle: canonical sorted root lists of every abelian ideal, found by
    downset search over bracket reachability plus pairwise commutation.
    ``table`` is the algebra's structure table, built here when omitted."""
    if table is None:
        table = structure_table(tree, direction)
    if len(table.roots) > ORACLE_GUARD:
        raise SizeGuardError(
            f"{len(table.roots)} roots exceeds the oracle guard of {ORACLE_GUARD}"
        )
    found: List[int] = []
    _abelian_downsets(table, found)
    out = [tuple(sorted(table.roots[k] for k in _bits(mask))) for mask in found]
    out.sort(key=lambda rs: (len(rs), rs))
    return out


def is_abelian_ideal(
    tree: TreeDiagram,
    direction: str,
    roots: Iterable[Root],
    table: Optional[StructureTable] = None,
):
    """Check bracket stability and internal commutativity of a root set.

    Every root vector here is an eigenvector of the diagonal operators
    x_k d/dx_k, so stability under the Cartan part holds structurally and
    only brackets against the nilpotent basis need computing. Returns
    (True, None) or (False, certificate). ``table`` is the algebra's
    structure table, built here when omitted.
    """
    if table is None:
        table = structure_table(tree, direction)
    chosen = []
    for r in roots:
        r = tuple(r)
        if r not in table.index:
            raise ValueError(f"unknown root {r}")
        chosen.append(table.index[r])
    chosen_set = set(chosen)
    full = (1 << len(table.roots)) - 1
    for a in chosen:
        for b in _bits(full & ~table.commute[a]):
            if b in chosen_set:
                return False, {
                    "kind": "not_abelian",
                    "pair": (table.roots[b], table.roots[a]),
                }
            # roots add under the bracket
            image = tuple(x + y for x, y in zip(table.roots[b], table.roots[a]))
            if table.index.get(image) not in chosen_set:
                return False, {
                    "kind": "not_closed",
                    "outer": table.roots[b],
                    "inner": table.roots[a],
                    "image": image,
                }
    return True, None
