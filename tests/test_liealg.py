"""Brackets, bases, roots, dimension and nilpotence formulas, and the
iterated-bracket structure checks."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treelie import (
    LieElement,
    bracket,
    chain,
    classify_nodes,
    dim_and_nilpotence,
    e_tree,
    enumerate_basis,
    verify_structure,
)
from treelie.liealg import structure_table

from .corpus import CORPUS, small_trees
from .rref_oracle import rref_structure

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
            up = verify_structure(t, "up")
            expected_up = {
                LieElement.monomial(
                    t.n, 1, tuple(0 for _ in range(t.n)), i
                )
                for i in cls.tips
            }
            assert set(up.center_basis) == expected_up
            down = verify_structure(t, "down")
            assert set(down.center_basis) == {
                LieElement.monomial(t.n, 1, tuple(0 for _ in range(t.n)), 1)
            }

    def test_matches_rref_on_corpus(self):
        for _, t in CORPUS:
            for d in ("up", "down"):
                assert verify_structure(t, d) == rref_structure(t, d), (t, d)

    @settings(max_examples=100, deadline=None)
    @given(small_trees(), st.sampled_from(["up", "down"]))
    def test_matches_rref_on_random_trees(self, tree, direction):
        assume(len(enumerate_basis(tree, direction)) <= RREF_DIM)
        assert verify_structure(tree, direction) == rref_structure(tree, direction)

    def test_multi_tip_trees_separate_the_two_algebras(self):
        for _, t in CORPUS:
            tips = classify_nodes(t).tips
            if len(tips) < 2:
                continue
            up = verify_structure(t, "up")
            down = verify_structure(t, "down")
            assert len(down.center_basis) == 1 < len(up.center_basis)


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
