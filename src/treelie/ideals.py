"""Classification, enumeration, and counting of the abelian ideals of the
solvable extensions of the two tree algebras.

Ideals are recorded as root sets: each basis monomial x^a d/dx_j is the
unique vector for the integer root (a with -1 in slot j), and every
abelian ideal is a sum of such one-dimensional root spaces. Upward,
ideals are built from generator data: an independent anchor set plus,
per anchor, an assignment of antichains in its poset. Each poset holds
the node's exponent lattice (``liealg.node_lattice``) with its order
stored once as bitmasks, and one bitmask recursion (``_antichains``)
yields both the antichains of a poset and the anchor sets, which are the
antichains of the ground nodes under ancestry. Ideals are counted
without being built, by a product over the tree of the assignment counts
at each possible anchor. Downward, and in the oracle for both directions,
ideals are the downsets of the bracket-reachability preorder of
``liealg.structure_table`` whose members pairwise commute, found by one
bitmask search that counts them or records them. One test on the
structure table (``_maximality``) decides maximality for both the
listing and ``maximal_ideals``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iproduct
from math import prod
from operator import le, or_
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import SizeGuardError
from .liealg import StructureTable, _bits, node_lattice, structure_table
# perfbench's tracer test checks that its wrappers reach this binding too
from .liealg import enumerate_basis  # noqa: F401
from .trees import NodeClassification, TreeDiagram, classify_nodes

__all__ = [
    "RootPoset",
    "AdmissiblePair",
    "AbelianIdeal",
    "root_poset",
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


@dataclass(frozen=True)
class RootPoset:
    """Exponent tuples attached to one anchor node, partially ordered.

    Upward, the tuples run over the proper clan prefix of the node and the
    order compares the clan-weighted cumulative sums. Downward, they run
    over the descendants of the node and the order compares, per
    descendant m, the weighted sums along the path from the node to m.
    The order is stored once, as bitmasks over element indices:
    ``below[k]`` holds the elements <= element k, ``above[k]`` those >= it.
    """

    node: int
    direction: str
    support: Tuple[int, ...]
    elements: Tuple[Tuple[int, ...], ...]
    below: Tuple[int, ...]
    above: Tuple[int, ...]
    _index: Dict[Tuple[int, ...], int] = field(hash=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({e: i for i, e in enumerate(self.elements)})

    def leq(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
        return bool(self.below[self._index[b]] >> self._index[a] & 1)

    def downset(self, tops: Iterable[Tuple[int, ...]]) -> Tuple[Tuple[int, ...], ...]:
        mask = 0
        for t in tops:
            mask |= self.below[self._index[t]]
        return tuple(self.elements[k] for k in _bits(mask))

    def antichains(self) -> List[Tuple[Tuple[int, ...], ...]]:
        """All antichains, the empty one included, in canonical order."""
        comparable = [b | a for b, a in zip(self.below, self.above)]
        return [tuple(self.elements[k] for k in c) for c in _antichains(comparable)]


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
    set and, for every node in an anchor subtree, the antichain of
    exponent tuples (in the anchor poset) generating at that node."""

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


# ------------------------------------------------------------------- posets


def root_poset(tree: TreeDiagram, i: int, direction: str) -> RootPoset:
    """Exponent poset of one node; the zero tuple is the unique minimum.

    Each element's value vector comes from one recursion: upward
    v_s = e_s + w(path[s+1]) * v_{s+1} toward the root along the clan
    path, downward v(m) = e(m) + w(m) * v(parent m) with v(i) = 0.
    """
    support, elements = node_lattice(tree, i, direction)
    # (k, link, w): value k gains w times value link, links updated first
    if direction == "up":
        path = tree.clan(i)
        steps = [(s, s + 1, tree.weight(path[s + 1])) for s in reversed(range(len(path) - 2))]
    else:
        pos = {m: k for k, m in enumerate(support)}
        steps = [
            (k, pos[tree.parent(m)], tree.weight(m))
            for k, m in enumerate(support)
            if tree.parent(m) != i
        ]
    values = []
    for el in elements:
        vals = list(el)
        for k, link, w in steps:
            vals[k] += w * vals[link]
        values.append(vals)
    below = tuple(
        sum(1 << j for j, u in enumerate(values) if all(map(le, u, v))) for v in values
    )
    above = tuple(
        sum(1 << j for j, b in enumerate(below) if b >> k & 1) for k in range(len(below))
    )
    return RootPoset(
        node=i,
        direction=direction,
        support=tuple(support),
        elements=tuple(elements),
        below=below,
        above=above,
    )


def _anchors(cls: NodeClassification, i: int, direction: str) -> Tuple[int, ...]:
    """Nodes whose derivatives a generator at node i reaches: i and its
    descendants upward, the clan of i downward."""
    return (i,) + cls.descendants[i] if direction == "up" else cls.clans[i]


def _anchored_roots(
    poset: RootPoset, elements: Iterable[Tuple[int, ...]], anchors: Iterable[int], n: int
) -> Set[Root]:
    """Roots of the monomials x^el d/dx_m for every el in elements and m
    in anchors; anchors and the poset support are disjoint."""
    out = set()
    for el in elements:
        vec = [0] * n
        for node, e in zip(poset.support, el):
            vec[node - 1] = e
        for m in anchors:
            root = vec.copy()
            root[m - 1] = -1
            out.add(tuple(root))
    return out


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
    """Ideal generated by the single monomial with exponents j at node i.

    Upward the anchor must make every descendant weight-1 (else no abelian
    ideal contains the generator); downward the anchor's root path must be
    weight-1 throughout.
    """
    cls = classify_nodes(tree)
    poset = root_poset(tree, i, direction)
    j = tuple(j)
    if j not in poset._index:
        raise ValueError(f"exponent tuple {j} is not in the poset of node {i}")
    if direction == "up" and i not in cls.upsilon:
        raise ValueError(f"node {i} has a descendant below a weighted edge")
    if direction == "down" and i not in cls.phi:
        raise ValueError(f"node {i} sits below a weighted edge")
    roots = frozenset(
        _anchored_roots(poset, poset.downset([j]), _anchors(cls, i, direction), tree.n)
    )
    ideal = AbelianIdeal(roots=roots)
    ok, cert = is_abelian_ideal(tree, direction, roots)
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


def maximal_ideals(tree: TreeDiagram, direction: str) -> List[AbelianIdeal]:
    """The maximal members of the anchor-set family: the full-poset ideals
    of the maximal independent anchor sets that pass ``_maximality``.

    Upward, the family is exhaustive: each maximal abelian ideal arises
    from a maximal independent anchor set. Downward, branching trees also
    admit maximal ideals that mix generator depths along one clan. They
    fall outside this family, and a family member lying inside one of them
    is dropped. The enumeration's per-ideal maximality flags mark them.
    """
    cls = classify_nodes(tree)
    ground = cls.upsilon if direction == "up" else cls.phi
    table = structure_table(tree, direction)
    is_maximal = _maximality(table)
    # per ground node, the member mask of its full-poset ideal
    node_masks = []
    for i in ground:
        poset = root_poset(tree, i, direction)
        roots = _anchored_roots(poset, poset.elements, _anchors(cls, i, direction), tree.n)
        node_masks.append(sum(1 << table.index[r] for r in roots))
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


def _anchor_assignments(tree: TreeDiagram, poset: RootPoset, nodes: Sequence[int]) -> List[Dict[int, Tuple]]:
    """Antichain assignments to the nodes of one anchor subtree.

    ``nodes`` is the anchor followed by its descendants, parents first.
    The anchor's antichain is nonempty, and no entry of a node's antichain
    lies below an entry at one of its tree ancestors.
    """
    anchor = poset.node
    parent = {r: tree.parent(r) for r in nodes if r != anchor}
    chains = poset.antichains()
    # each antichain's entries as element bits, and the elements lying
    # above some entry (an ancestor entry there would conflict)
    entries = [sum(1 << poset._index[e] for e in k) for k in chains]
    above = [reduce(or_, (poset.above[k] for k in _bits(m)), 0) for m in entries]
    nonempty = [c for c, k in enumerate(chains) if k]
    assigns: List[Dict[int, Tuple]] = []
    current: Dict[int, Tuple] = {}
    seen: Dict[int, int] = {}  # entries at a node and at its ancestors

    def rec(pos):
        if pos == len(nodes):
            assigns.append(dict(current))
            return
        r = nodes[pos]
        blocked = seen[parent[r]] if r != anchor else 0
        for c in nonempty if r == anchor else range(len(chains)):
            if above[c] & blocked:
                continue
            current[r] = chains[c]
            seen[r] = blocked | entries[c]
            rec(pos + 1)
        current.pop(r, None)

    rec(0)
    return assigns


def _up_admissible(tree: TreeDiagram):
    """Yield (roots, pair) for every admissible generator datum.

    Anchors form a nonempty independent subset of the weight-free ground
    set, and each anchor subtree carries an antichain assignment
    (``_anchor_assignments``); the restriction on entries below an
    ancestor's entries keeps generator data and ideals in bijection.
    """
    cls = classify_nodes(tree)
    posets = {i: root_poset(tree, i, "up") for i in cls.upsilon}
    assignments = {
        i: _anchor_assignments(tree, posets[i], _anchors(cls, i, "up"))
        for i in cls.upsilon
    }

    def materialize(i, assignment):
        poset = posets[i]
        pis: Dict[int, set] = {}
        roots = set()
        for r in _anchors(cls, i, "up"):
            base = set() if r == i else set(pis[tree.parent(r)])
            base.update(poset.downset(assignment[r]))
            pis[r] = base
            roots |= _anchored_roots(poset, base, (r,), tree.n)
        return roots

    anchor_sets = [s for s in _independent_subsets(tree, cls.upsilon) if s]
    for anchors in anchor_sets:
        for combo in iproduct(*(assignments[i] for i in anchors)):
            roots = set()
            chain_items = []
            for i, assignment in zip(anchors, combo):
                roots |= materialize(i, assignment)
                chain_items.extend(sorted(assignment.items()))
            pair = AdmissiblePair(
                anchors=anchors,
                antichains=tuple(
                    (node, tuple(k)) for node, k in sorted(chain_items)
                ),
            )
            yield frozenset(roots), pair


def _count_up(tree: TreeDiagram) -> int:
    """Number of upward abelian ideals, the zero ideal included.

    Counts the generator data of the subtree of v, including none:
    A(v) = prod over children c of A(c) + [v in upsilon] * a(v), as an
    anchor at v rules out anchors below it and a(v) counts its antichain
    assignments; the answer is A(1).
    """
    cls = classify_nodes(tree)
    upsilon = set(cls.upsilon)
    total: Dict[int, int] = {}
    for v in range(tree.n, 0, -1):  # children carry larger labels
        ways = prod(total[c] for c in cls.children[v])
        if v in upsilon:
            poset = root_poset(tree, v, "up")
            ways += len(_anchor_assignments(tree, poset, _anchors(cls, v, "up")))
        total[v] = ways
    return total[1]


def enumerate_ideals(tree: TreeDiagram, direction: str, mode: str = "list"):
    """All abelian ideals, the zero ideal included.

    Upward the generator-data construction is used; downward the
    bracket-reachability downset search (the oracle algorithm) is the
    primary path. ``mode='count'`` returns the total only, without
    building any ideal (upward by the anchor product of ``_count_up``);
    list mode is guarded at 24 roots.
    """
    if mode not in ("list", "count"):
        raise ValueError(f"mode must be 'list' or 'count', got {mode!r}")
    if mode == "count":
        if direction == "up":
            return _count_up(tree)
        return _abelian_downsets(structure_table(tree, direction))
    table = structure_table(tree, direction)
    if len(table.roots) > LIST_GUARD:
        raise SizeGuardError(
            f"{len(table.roots)} roots exceeds the list-mode guard of {LIST_GUARD};"
            " use count mode or the closed-form counts"
        )
    # (member bitmask, roots, generator pair) per ideal
    if direction == "up":
        pairs: Dict[FrozenSet[Root], Optional[AdmissiblePair]] = {frozenset(): None}
        for roots, pair in _up_admissible(tree):
            pairs.setdefault(roots, pair)
        found = [
            (sum(1 << table.index[r] for r in roots), roots, pair) for roots, pair in pairs.items()
        ]
    else:
        masks: List[int] = []
        _abelian_downsets(table, masks)
        found = [(m, frozenset(table.roots[k] for k in _bits(m)), None) for m in masks]
    is_maximal = _maximality(table)
    ideals = [
        AbelianIdeal(roots=roots, maximal=is_maximal(members), generator_pair=pair)
        for members, roots, pair in found
    ]
    ideals.sort(key=lambda ideal: (ideal.dim, ideal.canonical()))
    return ideals


def count_admissible_pairs(tree: TreeDiagram) -> int:
    """Number of admissible generator data, zero ideal not included."""
    return sum(1 for _ in _up_admissible(tree))


def brute_force_ideals(tree: TreeDiagram, direction: str) -> List[Tuple[Root, ...]]:
    """Oracle: canonical sorted root lists of every abelian ideal, found by
    downset search over bracket reachability plus pairwise commutation."""
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


def is_abelian_ideal(tree: TreeDiagram, direction: str, roots: Iterable[Root]):
    """Check bracket stability and internal commutativity of a root set.

    Every root vector here is an eigenvector of the diagonal operators
    x_k d/dx_k, so stability under the Cartan part holds structurally and
    only brackets against the nilpotent basis need computing. Returns
    (True, None) or (False, certificate).
    """
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
