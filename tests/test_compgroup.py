"""Component groups, Smith normal form and the reduction-value table."""

import hashlib
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcbounds as q
from qcbounds import compgroup
from qcbounds.compgroup import _rho_candidates, _rho_value, generator_names, integer_determinant
from qcbounds.errors import UnsupportedPrime, UnsupportedRamification

F = Fraction


def admissible(lo, hi):
    return [p for p in range(lo, hi) if q.is_prime(p) and (p == 11 or p > 13)]


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

    def test_prime_past_the_bound_is_unsupported(self, monkeypatch):
        # 32771 is the first prime past 2^15; no row may be built for it
        monkeypatch.setattr(compgroup, "generator_names", lambda p: pytest.fail("built a row"))
        assert compgroup._MAX_PRIME == 1 << 15
        for p in (32771, 100003, 2**61 - 1):
            with pytest.raises(UnsupportedPrime, match="2\\^15"):
                q.relation_matrix(p, 2)
            with pytest.raises(UnsupportedPrime):
                q.component_group(p, 2)

    def test_digest_of_every_matrix_below_5000(self):
        # the rows as the hand-indexed (Z), (Z'), C_s, E and G blocks wrote
        # them: sha256 over each (p, e), its shape and its rows, packed as
        # little-endian int32.  A row packs only if it has as many entries as
        # the first and each entry fits in an int32 (struct.error otherwise),
        # so the bytes fix the matrix.  Recorded alongside the former digest,
        # f7c2f5d7350d7d4567ea2af5d95061c839ea968d19bae1ccb264365a289dc02f of
        # repr(sorted({(p, e): matrix}.items())), which took 3-5 times as
        # long as the matrices' construction.
        keys = [(p, e) for p in admissible(11, 5000) for e in (1, 2, 3, 5)]
        assert len(keys) == 2656
        digest = hashlib.sha256()
        for key in keys:
            mat = q.relation_matrix(*key)
            row = struct.Struct(f"<{len(mat[0])}i")
            digest.update(struct.pack("<4i", *key, len(mat), len(mat[0])))
            for r in mat:
                digest.update(row.pack(*r))
        expected = "6375f3a2348a52f478efa7a67367b8777c98215647a77cffb2a6bb1a3daac97d"
        assert digest.hexdigest() == expected


def reference_snf(mat):
    """The oracle for smith_normal_form's (diagonal, left, right): the same
    pivots and steps, each applied to the matrix, left and right together
    over every row, with no step skipped and no step recorded."""

    def gcd_step(a, b):
        if b % a == 0:
            return 1, 0, -(b // a), 1
        g, x0, y0, x1, y1 = a, 1, 0, 0, 1
        h = b
        while h:
            q, rem = divmod(g, h)
            g, h = h, rem
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        if g < 0:
            g, x0, y0 = -g, -x0, -y0
        return x0, y0, -(b // g), a // g

    A = [[int(x) for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    L = [[int(i == j) for j in range(r)] for i in range(r)]
    R = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_step(t, i):
        x, y, u, v = gcd_step(A[t][t], A[i][t])
        for M in (A, L):
            top, low = M[t], M[i]
            if y:
                M[t] = [x * a + y * b for a, b in zip(top, low)]
            M[i] = [u * a + v * b for a, b in zip(top, low)]

    def col_step(t, j):
        x, y, u, v = gcd_step(A[t][t], A[t][j])
        for M in (A, R):
            for row in M:
                a, b = row[t], row[j]
                if y:
                    row[t] = x * a + y * b
                row[j] = u * a + v * b

    for t in range(min(r, c)):
        entries = [(abs(A[i][j]), i, j) for i in range(t, r) for j in range(t, c) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        A[t], A[pi] = A[pi], A[t]
        L[t], L[pi] = L[pi], L[t]
        for M in (A, R):
            for row in M:
                row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            L[t] = [-a for a in L[t]]
        while True:
            for i in range(t + 1, r):
                if A[i][t]:
                    row_step(t, i)
            for j in range(t + 1, c):
                if A[t][j]:
                    col_step(t, j)
            if any(A[i][t] for i in range(t + 1, r)):
                continue
            bad = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                        if A[i][j] % A[t][t]), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            L[t] = [a + b for a, b in zip(L[t], L[bad])]
    return [A[i][i] for i in range(min(r, c))], L, R


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
        assert tuple(snf) == reference_snf(M)
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


    def test_digest_of_every_relation_matrix_below_1000(self):
        # the matrix component_group factors, the transposed relations, on
        # all 652 (p, e) below 1000: sha256 of repr((diagonal, left, right)),
        # hashed one matrix at a time, as reference_snf gives them (running
        # the reference itself here took 14 s)
        digest = hashlib.sha256()
        keys = [(p, e) for p in admissible(11, 1000) for e in (1, 2, 3, 5)]
        assert len(keys) == 652
        for p, e in keys:
            At = [list(col) for col in zip(*q.relation_matrix(p, e))]
            digest.update(repr(tuple(q.smith_normal_form(At))).encode())
        expected = "e3bd34c43d02ab8450043ff9bf532f9e3cba472f147d0844897a7433cea57c5a"
        assert digest.hexdigest() == expected

    def test_digest_on_the_relation_matrices_at_2003_and_4001(self):
        # right's plain column steps touch only the nonzero entries of the
        # pivot's column, which matters most on the largest matrices; the
        # reference takes too long there, so a sha256 of
        # repr((diagonal, left, right)) pins them instead
        expected = {
            2003: "5524066401b53e6d7b535647646ad6744c393ae32eb108f5d7d32bfe78371c66",
            4001: "bf07b87545b52f7ba47193d782cab4f8892be617e0753f14c569d56633488d69",
        }
        for p, digest in expected.items():
            At = [list(col) for col in zip(*q.relation_matrix(p, 2))]
            snf = q.smith_normal_form(At)
            assert hashlib.sha256(repr(tuple(snf)).encode()).hexdigest() == digest, p


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_and_log_match_repeated_addition(self, data):
        # the reference walks the multiples of x one addition at a time
        factors = data.draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 36]), max_size=4))
        group = compgroup.ComponentGroup(0, 0, factors, {})
        x = tuple(data.draw(st.integers(0, d - 1)) for d in factors)
        y = tuple(data.draw(st.integers(0, d - 1)) for d in factors)
        if data.draw(st.booleans()):
            y = group.scale(data.draw(st.integers(0, 100)), x)
        multiples = [group.zero()]
        while group.add(multiples[-1], x) != group.zero():
            multiples.append(group.add(multiples[-1], x))
        assert group.element_order(x) == len(multiples)
        assert group.discrete_log(x, y) == (multiples.index(y) if y in multiples else None)


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
        # every prime above 13 in a residue class gives the same cell
        for p in admissible(17, 10**4):
            for e in (1, 2):
                assert set(q.rho_value_set(p, e).values) == RHO_CELLS[(p % 12, e)], (p, e)

    def test_builds_no_group(self, monkeypatch):
        def no_group(*args):
            raise AssertionError("rho_value_set built a component group")

        monkeypatch.setattr(compgroup, "component_group", no_group)
        monkeypatch.setattr(compgroup, "smith_normal_form", no_group)
        for p in (11, 17, 4001, 10007):
            for e in (1, 2):
                q.rho_value_set(p, e)
        assert q.two_torsion_obstruction(17) is True

    @pytest.mark.parametrize("e", [1, 2])
    def test_every_value_holds_in_the_group(self, e):
        # the reference: each candidate x = mult*gen with value a/b
        # satisfies b*x = a*Zbar in component_group's Smith-normal-form
        # coordinates, and the certified values are rho_value_set's
        for p in admissible(11, 700):
            counts = q.supersingular_counts(p)
            group = q.component_group(p, e)
            images = group.generator_images
            z = images["Zbar"]
            values = set()
            for gen, mult in _rho_candidates(counts.I, counts.R, counts.S_prime, e):
                a, b = _rho_value(gen, mult, e)
                assert b > 0 and math.gcd(a, b) == 1, (gen, mult, e)  # lowest terms
                if gen == "Zbar'":
                    x = group.zero()
                else:
                    x = group.scale(mult, images["Cbar_s1" if gen == "Cbar" else gen])
                assert group.scale(b, x) == group.scale(a, z), (p, e, gen, mult)
                values.add(F(a, b))
            assert q.rho_value_set(p, e).values == values, (p, e)


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

    def test_no_prime_above_121_obstructs(self):
        # the lemma of two_torsion_obstruction's docstring, on the pairs
        # a/b the table gives for every (I, R, S' > 0) and e in {1, 2}
        pairs = {
            _rho_value(gen, mult, e)
            for I in (0, 1)
            for R in (0, 1)
            for s_prime in (0, 1)
            for e in (1, 2)
            for gen, mult in _rho_candidates(I, R, s_prime, e)
        }
        # a = b*n/2 (mod n) needs n | 2a: with a = 0 it needs b even,
        # and otherwise n <= 2|a|
        assert all(b % 2 for a, b in pairs if a == 0)
        obstructing = {
            n
            for a, b in pairs
            if a
            for n in range(2, 2 * abs(a) + 1, 2)
            if (a - b * n // 2) % n == 0
        }
        assert obstructing == {2, 4, 8, 10}
        # n = num((p-1)/12) >= (p-1)/12
        p_max = 12 * max(obstructing) + 1
        assert p_max == 121
        assert not [p for p in admissible(p_max + 1, 10**5) if q.two_torsion_obstruction(p)]
