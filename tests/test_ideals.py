"""Root posets, principal and maximal abelian ideals, full enumeration,
and the bracket-based oracle."""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treelie import (
    SizeGuardError,
    brute_force_ideals,
    build_tree,
    chain,
    classify_nodes,
    e_tree,
    enumerate_ideals,
    is_abelian_ideal,
    maximal_ideals,
    principal_ideal,
    root_poset,
)
from treelie.ideals import LIST_GUARD, ORACLE_GUARD, _independent_subsets, count_admissible_pairs
from treelie.liealg import structure_table

from .corpus import CORPUS, A3_14, WIDE_Y, small_trees
from .poset_oracle import OraclePoset, independent_subsets


def _all_small_trees():
    """Every tree on 2 to 5 nodes with edge weights 1 or 2."""
    for n in range(2, 6):
        for parents in product(*(range(1, c) for c in range(2, n + 1))):
            for ws in product((1, 2), repeat=n - 1):
                yield build_tree(n, [(p, c, w) for c, p, w in zip(range(2, n + 1), parents, ws)])


def _members(mask):
    """Basis indices of a structure-table bitmask."""
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


class TestRootPoset:
    def test_weighted_chain_triangle(self):
        poset = root_poset(chain([1, 3]), 3, "up")
        assert set(poset.elements) == {
            (i, j) for i in range(4) for j in range(4) if i + j <= 3
        }
        for a in poset.elements:
            for b in poset.elements:
                expected = a[0] + a[1] <= b[0] + b[1] and a[1] <= b[1]
                assert poset.leq(a, b) == expected

    def test_unit_chain_total_order(self):
        t = chain([1, 1, 1])
        poset = root_poset(t, 4, "up")
        units = [tuple(int(k == s) for k in range(3)) for s in range(3)]
        assert set(poset.elements) == {(0, 0, 0)} | set(units)
        assert poset.leq(units[0], units[1]) and poset.leq(units[1], units[2])
        assert not poset.leq(units[1], units[0])

    def test_zero_is_unique_minimum(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                for i in range(1, t.n + 1):
                    poset = root_poset(t, i, d)
                    zero = poset.elements[0]
                    assert set(zero) <= {0}
                    for e in poset.elements:
                        assert poset.leq(zero, e)
                        if e != zero:
                            assert not poset.leq(e, zero)

    def test_antisymmetry(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                for i in range(1, t.n + 1):
                    poset = root_poset(t, i, d)
                    for a in poset.elements:
                        for b in poset.elements:
                            if a != b:
                                assert not (poset.leq(a, b) and poset.leq(b, a))

    @settings(max_examples=150, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_masks_match_the_value_vector_oracle(self, tree, direction):
        for i in range(1, tree.n + 1):
            poset = root_poset(tree, i, direction)
            oracle = OraclePoset(tree, i, direction)
            assert (poset.support, poset.elements) == (oracle.support, oracle.elements)
            for a in poset.elements:
                assert poset.downset([a]) == oracle.downset([a])
                for b in poset.elements:
                    assert poset.leq(a, b) == oracle.leq(a, b), (tree, i, a, b)
            # antichains grow exponentially: chain([2, 2, 2, 2]) has a
            # 201-element poset with 11.5 million of them
            if len(poset.elements) <= 40:
                chains = poset.antichains()
                assert chains == oracle.antichains()
                for tops in chains:
                    assert poset.downset(tops) == oracle.downset(tops)
        cls = classify_nodes(tree)
        for ground in (cls.upsilon, cls.phi, range(1, tree.n + 1)):
            assert _independent_subsets(tree, ground) == independent_subsets(tree, ground)


class TestPrincipalIdeal:
    def test_single_edge(self):
        ideal = principal_ideal(chain([1]), 2, (1,), "up")
        assert ideal.roots == {(0, -1), (1, -1)}

    def test_tip_zero_tuple(self):
        t = chain([1, 2])
        ideal = principal_ideal(t, 3, (0, 0), "up")
        assert ideal.roots == {(0, 0, -1)}

    def test_full_node_simplex(self):
        t = chain([1, 2])
        ideal = principal_ideal(t, 3, (0, 2), "up")
        assert ideal.dim == 6
        assert all(r[2] == -1 for r in ideal.roots)

    def test_anchor_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="weighted edge"):
            principal_ideal(chain([1, 2]), 2, (0,), "up")
        with pytest.raises(ValueError, match="weighted edge"):
            principal_ideal(chain([2]), 2, (), "down")

    def test_unknown_element(self):
        with pytest.raises(ValueError, match="not in the poset"):
            principal_ideal(chain([1]), 2, (7,), "up")

    def test_equals_bracket_generated_closure(self):
        # oracle: close the generator under bracketing with every basis
        # element; the principal downset must match exactly
        for _, t in CORPUS:
            for d in ("up", "down"):
                data = structure_table(t, d)
                cls = classify_nodes(t)
                ground = cls.upsilon if d == "up" else cls.phi
                for i in ground:
                    poset = root_poset(t, i, d)
                    for el in poset.elements:
                        ideal = principal_ideal(t, i, el, d)
                        vec = [0] * t.n
                        for node, e in zip(poset.support, el):
                            vec[node - 1] = e
                        vec[i - 1] = -1
                        seed = data.index[tuple(vec)]
                        closure = {data.roots[k] for k in _members(data.closures[seed])}
                        assert ideal.roots == closure, (t, d, i, el)


class TestMaximalIdeals:
    def test_unit_chain_count(self):
        for n in range(2, 6):
            assert len(maximal_ideals(chain([1] * (n - 1)), "up")) == n

    def test_weighted_end_chain_unique(self):
        for n in range(2, 5):
            t = chain([1] * (n - 2) + [2])
            assert len(maximal_ideals(t, "up")) == 1

    def test_unit_y_tree_downward_count(self):
        for n0, n1, n2 in [(2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 2, 1)]:
            t = e_tree(n0, n1, n2)
            assert len(maximal_ideals(t, "down")) == n0 + n1 * n2

    def test_members_are_maximal_in_the_listing(self):
        # no member lies inside a listed ideal, and every member is flagged
        # maximal there; upward the members are exactly the flagged ideals
        cases = 0
        for t in _all_small_trees():
            for d in ("up", "down"):
                if len(structure_table(t, d).roots) > LIST_GUARD:
                    continue
                cases += 1
                listing = enumerate_ideals(t, d)
                flagged = {i.roots for i in listing if i.maximal}
                members = {m.roots for m in maximal_ideals(t, d)}
                for roots in members:
                    assert not any(roots < i.roots for i in listing), (t, d, sorted(roots))
                assert members <= flagged, (t, d)
                if d == "up":
                    assert members == flagged, t
        assert cases == 672

    def test_weighted_star_downward(self):
        # smallest tree whose anchor-set family holds a non-maximal ideal:
        # the anchor set {2} gives {d1, d2}, inside a larger abelian ideal
        t = build_tree(3, [(1, 2, 1), (1, 3, 2)])
        inner = frozenset({(-1, 0, 0), (0, -1, 0)})
        assert any(inner < i.roots for i in enumerate_ideals(t, "down"))
        assert [sorted(m.roots) for m in maximal_ideals(t, "down")] == [
            [(-1, 0, 0), (-1, 0, 1), (-1, 0, 2), (-1, 1, 0)]
        ]
        assert len(maximal_ideals(e_tree(2, 1, 1, upper_tip_weight=2), "down")) == 2

    def test_results_verify_and_are_incomparable(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                found = maximal_ideals(t, d)
                for ideal in found:
                    ok, cert = is_abelian_ideal(t, d, ideal.roots)
                    assert ok, cert
                for a in found:
                    for b in found:
                        if a is not b:
                            assert not a.roots <= b.roots

    def test_truly_maximal(self):
        # adding any further root vector breaks the abelian ideal property
        for _, t in CORPUS:
            for d in ("up", "down"):
                data = structure_table(t, d)
                for ideal in maximal_ideals(t, d):
                    for extra in data.roots:
                        if extra in ideal.roots:
                            continue
                        ok, _ = is_abelian_ideal(t, d, set(ideal.roots) | {extra})
                        assert not ok


class TestEnumeration:
    def test_single_edge_exact_sets(self):
        ideals = enumerate_ideals(chain([1]), "up")
        assert sorted(i.canonical() for i in ideals) == sorted(
            [
                (),
                ((0, -1),),
                ((0, -1), (1, -1)),
                ((-1, 0), (0, -1)),
            ]
        )

    def test_counts_include_zero_ideal(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                ideals = enumerate_ideals(t, d)
                assert any(i.dim == 0 for i in ideals)
                assert enumerate_ideals(t, d, mode="count") == len(ideals)

    def test_generator_data_bijection(self):
        for _, t in CORPUS:
            assert count_admissible_pairs(t) + 1 == len(enumerate_ideals(t, "up"))

    def test_oracle_equivalence(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                got = sorted(i.canonical() for i in enumerate_ideals(t, d))
                assert got == sorted(brute_force_ideals(t, d)), (t, d)

    def test_every_ideal_verifies(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                for ideal in enumerate_ideals(t, d):
                    ok, cert = is_abelian_ideal(t, d, ideal.roots)
                    assert ok, cert

    def test_roots_form_reachability_downsets(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                data = structure_table(t, d)
                for ideal in enumerate_ideals(t, d):
                    idxs = {data.index[r] for r in ideal.roots}
                    for a in idxs:
                        assert _members(data.closures[a]) <= idxs

    def test_maximal_flags_match_maximal_ideals_upward(self):
        for _, t in CORPUS:
            flagged = {i.roots for i in enumerate_ideals(t, "up") if i.maximal}
            assert flagged == {m.roots for m in maximal_ideals(t, "up")}

    def test_downward_anchor_family_within_maximal_flags(self):
        # downward, the anchor-set family is a (sometimes strict) subfamily
        # of the inclusion-maximal ideals: branching trees admit maximal
        # abelian ideals mixing generator depths across one clan
        for _, t in CORPUS:
            flagged = {i.roots for i in enumerate_ideals(t, "down") if i.maximal}
            claimed = {m.roots for m in maximal_ideals(t, "down")}
            assert claimed <= flagged
        t = e_tree(2, 1, 1)
        flagged = {i.roots for i in enumerate_ideals(t, "down") if i.maximal}
        assert len(flagged) == 5
        mixed = frozenset(
            {(-1, 0, 0, 0), (-1, 0, 0, 1), (0, -1, 0, 0), (0, -1, 0, 1), (0, 0, -1, 0)}
        )
        assert mixed in flagged
        ok, _ = is_abelian_ideal(t, "down", mixed)
        assert ok

    def test_generator_pairs_regenerate_their_ideals(self):
        # recover anchors and antichains from the stored ideal and rebuild
        for name in ("A3_12", "A4_112", "E2_11", "star3_w2", "T6"):
            t = dict(CORPUS)[name]
            cls = classify_nodes(t)
            for ideal in enumerate_ideals(t, "up"):
                if ideal.dim == 0:
                    continue
                pair = ideal.generator_pair
                assert pair is not None
                anchored = {}
                for node, k in pair.antichains:
                    anchored[node] = k
                rebuilt = set()
                for i in pair.anchors:
                    poset = root_poset(t, i, "up")
                    nodes = (i,) + cls.descendants[i]
                    pis = {}
                    for r in nodes:
                        base = set() if r == i else set(pis[t.parent(r)])
                        base.update(poset.downset(anchored[r]))
                        pis[r] = base
                        for el in base:
                            vec = [0] * t.n
                            for q, e in zip(poset.support, el):
                                vec[q - 1] = e
                            vec[r - 1] = -1
                            rebuilt.add(tuple(vec))
                assert rebuilt == set(ideal.roots)

    @settings(max_examples=100, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_counts_match_oracle_on_random_trees(self, tree, direction):
        assume(len(structure_table(tree, direction).roots) <= ORACLE_GUARD)
        count = enumerate_ideals(tree, direction, mode="count")
        assert count == len(brute_force_ideals(tree, direction))
        if direction == "up":
            assert count == count_admissible_pairs(tree) + 1

    @settings(max_examples=100, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_maximal_flags_match_inclusion_on_random_trees(self, tree, direction):
        assume(len(structure_table(tree, direction).roots) <= ORACLE_GUARD)
        ideals = enumerate_ideals(tree, direction)
        for ideal in ideals:
            larger = any(ideal.roots < other.roots for other in ideals)
            assert ideal.maximal == (not larger), (tree, direction, ideal)

    def test_weighted_anchor_exclusion(self):
        # if an ideal holds a vector anchored at a node whose incoming edge
        # carries weight > 1, no vector anchored at a proper ancestor of
        # that node may appear
        for _, t in CORPUS:
            for ideal in enumerate_ideals(t, "up"):
                anchors = {r.index(-1) + 1 for r in ideal.roots}
                for i in anchors:
                    if i == 1 or t.weight(i) == 1:
                        continue
                    assert not (set(t.clan(i)[:-1]) & anchors), (t, ideal)


class TestBruteForce:
    def test_single_node(self):
        assert brute_force_ideals(chain([]), "up") == [(), ((-1,),)]

    def test_weighted_chain_count(self):
        assert len(brute_force_ideals(chain([1, 2]), "up")) == 8

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_ideals(chain([3, 3]), "up")

    def test_list_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_ideals(chain([3, 3]), "up")

    def test_wider_trees_still_agree(self):
        for t in (WIDE_Y, A3_14):
            got = sorted(i.canonical() for i in enumerate_ideals(t, "up"))
            assert got == sorted(brute_force_ideals(t, "up"))


class TestIsAbelianIdeal:
    def test_whole_algebra_is_not_abelian(self):
        ok, cert = is_abelian_ideal(
            chain([1]), "up", [(-1, 0), (0, -1), (1, -1)]
        )
        assert not ok
        assert cert["kind"] == "not_abelian"
        assert set(cert["pair"]) == {(-1, 0), (1, -1)}

    def test_zero_ideal(self):
        ok, cert = is_abelian_ideal(chain([1]), "up", [])
        assert ok and cert is None

    def test_central_derivative(self):
        ok, _ = is_abelian_ideal(chain([1]), "up", [(0, -1)])
        assert ok

    def test_not_closed_certificate(self):
        ok, cert = is_abelian_ideal(chain([1]), "up", [(1, -1)])
        assert not ok
        assert cert["kind"] == "not_closed"
        assert cert["image"] == (0, -1)

    def test_unknown_root(self):
        with pytest.raises(ValueError, match="unknown root"):
            is_abelian_ideal(chain([1]), "up", [(5, -1)])
