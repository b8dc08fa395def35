"""Component groups, Smith normal form and the reduction-value table."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as q
from qcbounds.compgroup import integer_determinant, generator_names
from qcbounds.errors import UnsupportedPrime, UnsupportedRamification

F = Fraction


class TestSupersingularCounts:
    def test_examples(self):
        assert q.supersingular_counts(11) == (11, 2, 0, 1, 1)
        assert q.supersingular_counts(37) == (37, 3, 3, 0, 0)
        assert q.supersingular_counts(23) == (23, 3, 1, 1, 1)

    def test_rejects_small_primes(self):
        for p in (2, 3, 5, 7, 13):
            with pytest.raises(UnsupportedPrime):
                q.supersingular_counts(p)
        with pytest.raises(UnsupportedPrime):
            q.supersingular_counts(15)

    def test_mass_formula_exact(self):
        for p in (11, 17, 19, 23, 29, 31, 37, 41, 997):
            c = q.supersingular_counts(p)
            assert c.S == c.S_prime + c.I + c.R
            assert 12 * c.S_prime + 6 * c.I + 4 * c.R == p - 1


class TestEisensteinN:
    def test_examples(self):
        assert q.eisenstein_n(11) == 5
        assert q.eisenstein_n(23) == 11
        assert q.eisenstein_n(37) == 3


class TestRelationMatrix:
    def test_11_1_shape(self):
        m = q.relation_matrix(11, 1)
        assert len(m) == 4 and len(m[0]) == 3
        assert m[0] == [-2, 1, 2]  # (Z): -S Zbar + e I Ebar + 2 e R Gbar

    def test_generator_names(self):
        assert generator_names(11) == ["Zbar", "Ebar", "Gbar"]
        assert generator_names(37) == ["Zbar", "Cbar_s1", "Cbar_s2", "Cbar_s3"]


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert q.smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]

    def test_zero_matrix(self):
        assert q.smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]

    def test_relation_matrix_11_1(self):
        diag = q.smith_normal_form(q.relation_matrix(11, 1)).diagonal
        assert [d for d in diag if d > 1] == [5]

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    # entries of left ran to 10^6 bits on these under quotient elimination
    @example(rows=5, cols=5, seed=60)
    @example(rows=5, cols=5, seed=75)
    @example(rows=5, cols=5, seed=77)
    def test_defining_properties(self, rows, cols, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        M = rng.integers(-30, 31, size=(rows, cols)).tolist()
        snf = q.smith_normal_form(M)
        # left * M * right is the diagonal
        prod = [
            [
                sum(snf.left[i][k] * M[k][j] for k in range(rows))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        prod = [
            [
                sum(prod[i][k] * snf.right[k][j] for k in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        for i in range(rows):
            for j in range(cols):
                assert prod[i][j] == (snf.diagonal[i] if i == j else 0)
        assert abs(integer_determinant(snf.left)) == 1
        assert abs(integer_determinant(snf.right)) == 1
        nonzero = [d for d in snf.diagonal if d != 0]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))


class TestComponentGroup:
    def test_hand_examples(self):
        assert q.component_group(11, 1).invariant_factors == [5]
        assert q.component_group(11, 2).invariant_factors == [10]
        assert q.component_group(23, 2).invariant_factors == [2, 22]

    def test_closed_form_grid(self):
        for p in (11, 23, 37, 59, 101, 997):
            n = q.eisenstein_n(p)
            S = q.supersingular_counts(p).S
            for e in (1, 2, 3, 5):
                group = q.component_group(p, e)  # internal checks raise on mismatch
                expect = [d for d in [e] * (S - 2) + [n * e] if d > 1]
                assert group.invariant_factors == expect
                assert group.order == n * e ** (S - 1)

    def test_zbar_order(self):
        for p, e in [(11, 2), (37, 3), (59, 5)]:
            g = q.component_group(p, e)
            assert g.element_order(g.generator_images["Zbar"]) == q.eisenstein_n(p)


RHO_CELLS = {
    (1, 1): {F(0), F(2)},
    (5, 1): {F(0), F(1), F(2), F(2, 3), F(4, 3)},
    (7, 1): {F(0), F(1), F(2)},
    (11, 1): {F(0), F(1), F(2), F(2, 3), F(4, 3)},
    (1, 2): {F(0), F(1), F(2)},
    (5, 2): {F(0), F(1), F(2), F(1, 3), F(2, 3), F(4, 3), F(5, 3)},
    (7, 2): {F(0), F(1), F(2), F(1, 2), F(3, 2)},
    (11, 2): {F(0), F(1), F(2), F(1, 3), F(1, 2), F(2, 3), F(4, 3), F(3, 2), F(5, 3)},
}


class TestRhoValues:
    @pytest.mark.parametrize("p", [37, 17, 19, 23])
    @pytest.mark.parametrize("e", [1, 2])
    def test_table_cells(self, p, e):
        rs = q.rho_value_set(p, e)
        assert rs.p_class == p % 12 and rs.e == e
        assert set(rs.values) == RHO_CELLS[(p % 12, e)]

    def test_rejects_high_ramification(self):
        with pytest.raises(UnsupportedRamification):
            q.rho_value_set(37, 3)

    def test_other_representatives(self):
        # a second prime in each residue class gives the same cell
        for p in (61, 43, 47, 73):
            for e in (1, 2):
                assert set(q.rho_value_set(p, e).values) == RHO_CELLS[(p % 12, e)]


class TestTwoTorsion:
    def test_exceptions(self):
        assert q.two_torsion_obstruction(17) is True
        assert q.two_torsion_obstruction(41) is True
        assert q.two_torsion_obstruction(37) is False

    def test_sweep_below_1000(self):
        trues = [
            p
            for p in range(11, 1000)
            if q.is_prime(p) and (p == 11 or p > 13) and q.two_torsion_obstruction(p)
        ]
        assert trues == [17, 41]
