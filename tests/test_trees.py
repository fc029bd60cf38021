"""Tree construction, validation, node classification, and weight data."""

from math import prod

import pytest
from hypothesis import given, settings

from treelie import (
    TreeValidationError,
    build_tree,
    chain,
    classify_nodes,
    dim_and_nilpotence,
    e_tree,
    star,
    tree_from_dict,
    tree_to_dict,
)
from treelie.liealg import node_simplex

from .corpus import CORPUS, small_trees
from .poset_oracle import path_weight


class TestBuild:
    def test_minimal_chain(self):
        t = build_tree(3, [(1, 2, 1), (2, 3, 2)])
        assert t.edges() == ((1, 2, 1), (2, 3, 2))
        assert t.weight(3) == 2

    def test_single_node(self):
        t = build_tree(1, [])
        assert classify_nodes(t).tips == (1,)

    def test_parent_out_of_range(self):
        with pytest.raises(TreeValidationError, match="parent .* out of range"):
            build_tree(3, [(1, 2, 1), (4, 3, 1)])

    def test_duplicate_child(self):
        with pytest.raises(TreeValidationError, match="duplicate child node 2"):
            build_tree(3, [(1, 2, 1), (1, 2, 1)])

    def test_parent_not_smaller(self):
        with pytest.raises(TreeValidationError, match="parent 3 must be smaller"):
            build_tree(3, [(1, 2, 1), (3, 3, 1)])

    def test_bad_weight(self):
        with pytest.raises(TreeValidationError, match="weight 0 on child node 2"):
            build_tree(2, [(1, 2, 0)])

    def test_booleans_rejected(self):
        edge = {"parent": 1, "child": 2, "weight": 1}
        for key in ("parent", "child", "weight"):
            with pytest.raises(TreeValidationError):
                tree_from_dict({"n": 2, "edges": [{**edge, key: True}]})
        with pytest.raises(TreeValidationError):
            tree_from_dict({"n": True, "edges": []})

    def test_missing_child(self):
        with pytest.raises(TreeValidationError, match="missing child node 3"):
            build_tree(3, [(1, 2, 1)])

    def test_bad_node_count(self):
        with pytest.raises(TreeValidationError, match="positive integer"):
            build_tree(0, [])

    def test_round_trip_is_bit_exact(self):
        for _, t in CORPUS:
            assert tree_from_dict(tree_to_dict(t)) == t


class TestClan:
    def test_chain_path(self):
        assert chain([1, 1, 1]).clan(4) == (1, 2, 3, 4)

    def test_branching_path(self):
        t = build_tree(5, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)])
        assert t.clan(5) == (1, 2, 3, 5)

    def test_root(self):
        for _, t in CORPUS:
            assert t.clan(1) == (1,)

    def test_out_of_range(self):
        with pytest.raises(TreeValidationError):
            chain([1]).clan(3)

    def test_recursive_consistency(self):
        for _, t in CORPUS:
            for i in range(2, t.n + 1):
                assert t.clan(i) == t.clan(t.parent(i)) + (i,)

    @settings(max_examples=150, deadline=None)
    @given(small_trees(max_nodes=8))
    def test_descendants_are_the_nodes_whose_clan_holds_the_node(self, tree):
        for i in range(1, tree.n + 1):
            expected = tuple(j for j in range(1, tree.n + 1) if j != i and i in tree.clan(j))
            assert tree.descendants(i) == expected


class TestClassification:
    def test_weighted_chain(self):
        cls = classify_nodes(chain([1, 2]))
        assert cls.upsilon == (3,)
        assert cls.phi == (1, 2)
        assert cls.omega == (2,)
        assert cls.tips == (3,)

    def test_all_ones_chain_upsilon_everything(self):
        for n in range(2, 6):
            cls = classify_nodes(chain([1] * (n - 1)))
            assert cls.upsilon == tuple(range(1, n + 1))

    def test_tips_always_in_upsilon(self):
        for _, t in CORPUS:
            cls = classify_nodes(t)
            assert set(cls.tips) <= set(cls.upsilon)

    def test_sets_ascending_and_deterministic(self):
        for _, t in CORPUS:
            a, b = classify_nodes(t), classify_nodes(t)
            assert a == b
            for group in (a.tips, a.upsilon, a.phi, a.omega):
                assert list(group) == sorted(group)

    def test_y_tree_sets(self):
        # trunk 1-2, branch nodes 3, 4 with a weight-2 edge into 4
        t = e_tree(2, 2, 1, upper_tip_weight=2)
        cls = classify_nodes(t)
        assert cls.upsilon == (4, 5)
        assert cls.tips == (4, 5)
        assert cls.phi == (1, 2, 3, 5)


class TestWeights:
    def test_weighted_chain_height(self):
        # the upward height of a chain's last node, 1 plus the suffix-weighted
        # clan sums (1 + 1*2 + 2 = 5 on [1, 2]), is the upward nilpotence
        assert dim_and_nilpotence(chain([1, 2]), "up")[1] == 5
        assert dim_and_nilpotence(chain([1]), "up")[1] == 2
        assert dim_and_nilpotence(chain([]), "up")[1] == 1

    def test_kappa_products(self):
        t = chain([1, 2])
        assert node_simplex(t, 1, "down") == ((2, 3), [2, 1], 2)
        assert node_simplex(t, 2, "down") == ((3,), [1], 2)
        assert node_simplex(t, 3, "down") == ((), [], 1)
        assert node_simplex(t, 3, "up") == ((1, 2), [1, 1], 2)
        assert node_simplex(chain([2, 3]), 3, "up") == ((1, 2), [1, 2], 6)

    def test_root_of_any_tree(self):
        # upward, the root carries d1 alone
        for _, t in CORPUS:
            assert node_simplex(t, 1, "up") == ((), [], 1)

    def test_kappa_path_consistency(self):
        for _, t in CORPUS:
            for i in range(1, t.n + 1):
                support, coefs, bound = node_simplex(t, i, "down")
                assert support == t.descendants(i)
                assert bound == prod(t.weight(s) for s in support)
                for s, c in zip(support, coefs):
                    assert c * path_weight(t, i, s) == bound

    def test_unit_chain_height_counts_clan(self):
        for k in range(5):
            assert dim_and_nilpotence(chain([1] * k), "up")[1] == k + 1


class TestBuilders:
    def test_e_tree_shape(self):
        t = e_tree(3, 1, 2)
        assert t.edges() == (
            (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (5, 6, 1),
        )

    def test_star(self):
        t = star(3, weight=2)
        assert t.children(1) == (2, 3, 4)
        assert all(t.weight(c) == 2 for c in (2, 3, 4))

    def test_e_tree_validation(self):
        with pytest.raises(TreeValidationError):
            e_tree(0, 1, 1)
        with pytest.raises(TreeValidationError):
            e_tree(1, 1, 1, first_trunk_weight=2)
