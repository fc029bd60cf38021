"""Brackets, bases, roots, dimension and nilpotence formulas, and the
iterated-bracket structure checks."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treelie import (
    chain,
    classify_nodes,
    dim_and_nilpotence,
    e_tree,
    enumerate_basis,
    star,
    verify_structure,
)
from treelie.liealg import lattice_points, node_simplex, structure_table

from .closure_oracle import generated_algebra
from .corpus import CORPUS, LADDER, small_trees
from .lie_oracle import LieElement, bracket
from .poset_oracle import OraclePoset
from .rref_oracle import rref_structure
from .table_oracle import pairwise_structure_table

# largest algebra the dense rational elimination is run on (~0.2 s each)
RREF_DIM = 40


def _mono(n, exps, dvar, coeff=1):
    return LieElement.monomial(n, coeff, exps, dvar)


class TestBracket:
    def test_derivative_against_linear(self):
        a = _mono(2, (0, 0), 1)  # d1
        b = _mono(2, (1, 0), 2)  # x1 d2
        assert bracket(a, b) == _mono(2, (0, 0), 2)

    def test_derivative_against_square(self):
        a = _mono(3, (0, 0, 0), 2)  # d2
        b = _mono(3, (0, 2, 0), 3)  # x2^2 d3
        assert bracket(a, b) == _mono(3, (0, 1, 0), 3, coeff=2)

    def test_disjoint_monomials_commute(self):
        a = _mono(3, (1, 0, 0), 2)  # x1 d2
        b = _mono(3, (1, 0, 0), 3)  # x1 d3
        assert bracket(a, b).is_zero

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            bracket(_mono(2, (0, 0), 1), _mono(3, (0, 0, 0), 1))


class TestBasis:
    def test_single_edge_upward(self):
        for m in (1, 2, 3):
            basis = enumerate_basis(chain([m]), "up")
            assert len(basis) == m + 2
            monos = {(b.exps, b.dvar) for b in basis}
            expected = {((0, 0), 1)} | {((j, 0), 2) for j in range(m + 1)}
            assert monos == expected

    def test_weighted_chain_downward_node_one(self):
        basis = enumerate_basis(chain([1, 2]), "down")
        node1 = {(b.exps, b.dvar) for b in basis if b.dvar == 1}
        assert node1 == {
            ((0, 0, 0), 1),
            ((0, 1, 0), 1),
            ((0, 0, 1), 1),
            ((0, 0, 2), 1),
        }

    def test_single_node_both_directions(self):
        t = chain([])
        for direction in ("up", "down"):
            basis = enumerate_basis(t, direction)
            assert [(b.exps, b.dvar) for b in basis] == [((0,), 1)]

    def test_deterministic_order(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                a = enumerate_basis(t, d)
                assert a == enumerate_basis(t, d)
                assert [m.dvar for m in a] == sorted(m.dvar for m in a)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            enumerate_basis(chain([1]), "sideways")


class TestDimension:
    def test_dim_matches_enumeration_everywhere(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                dim, _ = dim_and_nilpotence(t, d)
                assert dim == len(enumerate_basis(t, d))

    @settings(max_examples=150, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_simplex_and_counts_match_the_oracle(self, tree, direction):
        # the oracle derives each simplex from parents and weights and
        # finds its lattice points by testing a box, sharing no code with
        # node_simplex, lattice_points or series_coeff
        total = 0
        for i in range(1, tree.n + 1):
            support, coefs, bound = node_simplex(tree, i, direction)
            oracle = OraclePoset(tree, i, direction)
            assert support == oracle.support
            assert lattice_points(coefs, bound) == list(oracle.elements)
            total += len(oracle.elements)
        dim, nilp = dim_and_nilpotence(tree, direction)
        assert dim == total
        assert nilp == len(verify_structure(tree, direction).central_series_dims)

    def test_weighted_chain_upward_closed_form(self):
        # single weighted end edge: C(n + m - 1, m) + n (n - 1) / 2
        for n, m in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            t = chain([1] * (n - 2) + [m])
            dim, _ = dim_and_nilpotence(t, "up")
            assert dim == comb(n + m - 1, m) + n * (n - 1) // 2

    def test_weighted_chain_downward(self):
        dim, nilp = dim_and_nilpotence(chain([1, 2]), "down")
        assert dim == 8
        assert nilp == 4

    def test_unit_y_tree_downward_closed_form(self):
        for n0, n1, n2 in [(2, 1, 1), (3, 1, 1), (2, 2, 2), (4, 2, 1)]:
            dim, _ = dim_and_nilpotence(e_tree(n0, n1, n2), "down")
            expected = n0 * (n1 + n2) + (
                n0 ** 2 + n1 ** 2 + n2 ** 2 + n0 + n1 + n2
            ) // 2
            assert dim == expected

    def test_weighted_trunk_y_tree_downward_closed_form(self):
        for n0, n1, n2, m in [(2, 1, 1, 2), (3, 1, 1, 2), (2, 2, 1, 3)]:
            t = e_tree(n0, n1, n2, first_trunk_weight=m)
            dim, _ = dim_and_nilpotence(t, "down")
            expected = (
                comb(n0 + n1 + n2 + m - 1, m)
                + (n0 - 1) * (n1 + n2)
                + (n0 ** 2 + n1 ** 2 + n2 ** 2 - n0 + n1 + n2) // 2
            )
            assert dim == expected


class TestNilpotence:
    def test_series_length_matches_formula(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                _, nilp = dim_and_nilpotence(t, d)
                report = verify_structure(t, d)
                assert len(report.central_series_dims) == nilp, (t, d)

    def test_weighted_chain_series_dims(self):
        # frozen from a hand bracket computation
        t = chain([1, 2])
        assert verify_structure(t, "up").central_series_dims == (9, 6, 4, 2, 1)
        assert verify_structure(t, "down").central_series_dims == (8, 5, 3, 1)

    def test_explicit_deep_bracket_chain(self):
        # the 5-step chain reaching the last derivative proves the upward
        # series of the (1, 2)-weighted chain has five nonzero terms
        n = 3
        e1 = _mono(n, (1, 0, 0), 2)  # x1 d2
        v = _mono(n, (0, 2, 0), 3)   # x2^2 d3
        d1 = _mono(n, (0, 0, 0), 1)
        step = bracket(e1, v)
        step = bracket(e1, step)
        step = bracket(d1, step)
        step = bracket(d1, step)
        assert step == _mono(n, (0, 0, 0), 3, coeff=4)


class TestRoots:
    def test_single_edge_root_set(self):
        assert set(structure_table(chain([1]), "up").roots) == {(-1, 0), (0, -1), (1, -1)}

    def test_first_derivative_root(self):
        for _, t in CORPUS:
            root_d1 = tuple(-1 if i == 0 else 0 for i in range(t.n))
            assert structure_table(t, "up").roots[0] == root_d1

    def test_downward_square_root_vector(self):
        table = structure_table(chain([1, 2]), "down")
        assert table.keys[table.index[(0, -1, 2)]] == ((0, 0, 2), 2)

    def test_roots_distinct(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                rs = structure_table(t, d).roots
                assert len(rs) == len(set(rs))

    def test_basis_elements_are_diagonal_eigenvectors(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                table = structure_table(t, d)
                for r, (exps, dvar) in zip(table.roots, table.keys):
                    v = LieElement.monomial(t.n, 1, exps, dvar)
                    for k in range(1, t.n + 1):
                        h = LieElement.monomial(
                            t.n, 1, tuple(int(j == k - 1) for j in range(t.n)), k
                        )
                        assert bracket(h, v) == v.scale(r[k - 1])


class TestStructure:
    def test_closure_on_corpus(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                assert verify_structure(t, d).closure

    def test_center_formulas(self):
        for _, t in CORPUS:
            cls = classify_nodes(t)
            zero = tuple(0 for _ in range(t.n))
            up = verify_structure(t, "up")
            assert set(up.center_basis) == {(zero, i) for i in cls.tips}
            down = verify_structure(t, "down")
            assert down.center_basis == ((zero, 1),)

    def test_matches_rref_on_corpus(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                assert verify_structure(t, d) == rref_structure(t, d), (t, d)

    @settings(max_examples=100, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_matches_rref_on_random_trees(self, tree, direction):
        assume(len(enumerate_basis(tree, direction)) <= RREF_DIM)
        assert verify_structure(tree, direction) == rref_structure(tree, direction)

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("name, tree", LADDER)
    def test_table_matches_pairwise_oracle_on_ladder(self, name, tree, direction):
        assert structure_table(tree, direction) == pairwise_structure_table(tree, direction)

    @settings(max_examples=100, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_table_matches_pairwise_oracle_on_random_trees(self, tree, direction):
        assert structure_table(tree, direction) == pairwise_structure_table(tree, direction)

    def test_multi_tip_trees_separate_the_two_algebras(self):
        for _, t in CORPUS:
            tips = classify_nodes(t).tips
            if len(tips) < 2:
                continue
            up = verify_structure(t, "up")
            down = verify_structure(t, "down")
            assert len(down.center_basis) == 1 < len(up.center_basis)


# largest basis the generated-closure comparison is run on
CLOSURE_DIM = 200


def _span_and_generated(tree, direction):
    """The basis keys and the generated algebra's echelon basis, after
    checking that the basis span contains the generated algebra: the
    basis elements are monomials, so an element lies in their span when
    each of its keys is a basis key."""
    keys = {(m.exps, m.dvar) for m in enumerate_basis(tree, direction)}
    assert len(keys) <= CLOSURE_DIM
    generated = generated_algebra(tree, direction)
    assert all(key in keys for v in generated.values() for key in v.terms)
    return keys, generated


class TestGeneratedAlgebra:
    """The basis spans the simplex monomials. That span contains the
    algebra the generators generate, and equals it upward and on chains;
    downward on branching trees with weights above 1 it can be larger."""

    @pytest.mark.parametrize("name, tree", CORPUS + LADDER)
    def test_upward_span_is_the_generated_algebra(self, name, tree):
        keys, generated = _span_and_generated(tree, "up")
        assert len(generated) == len(keys)

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=5, max_weight=3))
    def test_upward_span_is_the_generated_algebra_on_random_trees(self, tree):
        assume(dim_and_nilpotence(tree, "up")[0] <= CLOSURE_DIM)
        keys, generated = _span_and_generated(tree, "up")
        assert len(generated) == len(keys)

    @settings(max_examples=60, deadline=None)
    @given(small_trees(max_nodes=5, max_weight=3))
    def test_downward_span_contains_the_generated_algebra(self, tree):
        assume(dim_and_nilpotence(tree, "down")[0] <= CLOSURE_DIM)
        _span_and_generated(tree, "down")

    @pytest.mark.parametrize(
        "weights", [[], [1], [3], [2, 1], [1, 3], [2, 2, 2], [1, 1, 2, 2], [3, 1, 2], [1] * 11]
    )
    def test_downward_span_is_the_generated_algebra_on_chains(self, weights):
        keys, generated = _span_and_generated(chain(weights), "down")
        assert len(generated) == len(keys)

    def test_weighted_star_downward_span_is_larger(self):
        # the 3-node star with weights 2, 2: x2*x3*d1 is a basis monomial
        # but no iterated bracket of d2, d3, x2^2*d1 and x3^2*d1
        tree = star(2, weight=2)
        keys, generated = _span_and_generated(tree, "down")
        assert (len(keys), len(generated)) == (8, 7)
        outside = keys - set(generated)
        assert outside == {((0, 1, 1), 1)}
        assert str(LieElement(3, {key: 1 for key in outside})) == "x2*x3*d1"
        assert verify_structure(tree, "down").closure
        keys, generated = _span_and_generated(tree, "up")
        assert len(generated) == len(keys)

    @pytest.mark.parametrize("name, sizes", [("S3w2", (13, 10)), ("S4w2", (19, 13))])
    def test_benchmark_stars_downward(self, name, sizes):
        keys, generated = _span_and_generated(dict(LADDER)[name], "down")
        assert (len(keys), len(generated)) == sizes


@st.composite
def _basis_triples(draw):
    _, tree = draw(st.sampled_from(CORPUS))
    direction = draw(st.sampled_from(["up", "down"]))
    basis = enumerate_basis(tree, direction)
    picks = [draw(st.sampled_from(basis)) for _ in range(3)]
    scalars = [Fraction(draw(st.integers(-3, 3))) for _ in range(3)]
    elements = [
        LieElement.monomial(tree.n, c if c else 1, m.exps, m.dvar)
        for c, m in zip(scalars, picks)
    ]
    return elements


class TestLieAxioms:
    @settings(max_examples=80, deadline=None)
    @given(_basis_triples())
    def test_antisymmetry_and_jacobi(self, elems):
        a, b, c = elems
        assert bracket(a, b) == bracket(b, a).scale(-1)
        jac = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert jac.is_zero
