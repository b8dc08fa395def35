"""Exact arithmetic: Kronecker symbols, characters, Kloosterman and Gauss
sums, multiplicative functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as q
from qcbounds.arith import (
    _PURE_MODULUS_MAX,
    _phase_table,
    _pure_tables,
    _units_and_inverses,
    kloosterman_direct_complex,
)
from qcbounds.errors import DomainError, NotFundamental


def legendre_euler(a: int, p: int) -> int:
    """Independent oracle: Euler criterion for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


class TestKronecker:
    def test_spec_examples(self):
        assert q.kronecker(-3, 2) == -1
        assert q.kronecker(-3, 3) == 0
        assert q.kronecker(-4, 3) == -1

    def test_against_euler_criterion(self):
        for D in (3, 4, 7, 8, 11, 15, 20, 24, 163):
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 101):
                if (2 * D) % p == 0:
                    continue
                assert q.kronecker(-D, p) == legendre_euler(-D, p)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_in_n(self, a, b):
        delta = -15
        assert q.kronecker(delta, a * b) == q.kronecker(delta, a) * q.kronecker(delta, b)

    def test_period(self):
        for D in (3, 4, 7, 8):
            vals = [q.kronecker(-D, n) for n in range(3 * D)]
            assert vals[:D] == vals[D : 2 * D] == vals[2 * D :]


class TestCharacter:
    def test_tables(self):
        assert list(q.make_character(3).table) == [0, 1, -1]
        assert list(q.make_character(4).table) == [0, 1, 0, -1]

    def test_sieved_table_matches_kronecker_loop(self):
        # the table multiplies chi through a smallest-prime-factor sieve;
        # the reference is one Kronecker symbol per residue
        for D in q.fundamental_discriminants(3, 2000):
            table = q.make_character(D).table
            expect = np.array([q.kronecker(-D, n) for n in range(D)], dtype=np.int8)
            assert table.dtype == np.int8 and np.array_equal(table, expect), D

    def test_table_is_shared_and_read_only(self):
        # every character of conductor D reads one cached table
        table = q.make_character(23).table
        assert q.make_character(23).table is table
        with pytest.raises(ValueError):
            table[1] = 0

    def test_not_fundamental(self):
        for D in (1, 2, 5, 6, 9, 12, 16, 25, 28):
            with pytest.raises(NotFundamental):
                q.make_character(D)

    @pytest.mark.parametrize("D", [3, 4, 7, 8, 11, 15, 20, 24, 40, 163])
    def test_invariants(self, D):
        chi = q.make_character(D)
        # zero exactly on non-units
        for n in range(D):
            assert (chi(n) == 0) == (math.gcd(n, D) > 1)
        # complete multiplicativity
        rng = np.random.default_rng(D)
        for _ in range(50):
            a, b = map(int, rng.integers(0, 4 * D, 2))
            assert chi(a * b % D) == chi(a) * chi(b)
        # odd
        assert chi(D - 1) == -1
        # primitivity: no proper divisor D0 gives a character of period D0
        # agreeing on units (some pair a = b mod D0 of units must differ)
        for d0 in range(1, D):
            if D % d0 != 0:
                continue
            units = [a for a in range(D) if math.gcd(a, D) == 1]
            agree = all(
                chi(a) == chi(b)
                for a in units
                for b in units
                if (a - b) % d0 == 0
            )
            assert not agree, f"chi_{D} has period {d0}"

    def test_fundamental_list(self):
        assert q.fundamental_discriminants(3, 24) == [3, 4, 7, 8, 11, 15, 19, 20, 23, 24]


class TestKloosterman:
    def test_spec_examples(self):
        assert q.kloosterman_direct(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
        assert q.kloosterman_direct(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)
        assert q.kloosterman_direct(1, 1, 5) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
        assert q.kloosterman_direct(0, 0, 12) == pytest.approx(4.0, abs=1e-12)

    def test_trivial_modulus_convention(self):
        assert q.kloosterman_direct(5, 9, 1) == 1.0
        assert q.kloosterman_fast(1, 1, 1) == 1.0

    def test_ramanujan_values(self):
        # S(1,0;c) is the Ramanujan sum c_c(1) = mobius(c)
        for c in (1, 2, 3, 4, 6, 10, 12, 30, 36):
            mu = q.multiplicative_functions(c).mobius
            assert q.kloosterman_fast(1, 0, c) == pytest.approx(mu, abs=1e-9)
        # S(0,0;c) = phi(c)
        for c in (1, 5, 12, 100):
            assert q.kloosterman_direct(0, 0, c) == pytest.approx(q.euler_phi(c), abs=1e-9)

    def test_unit_table_matches_loop(self):
        for c in list(range(1, 701)) + [4096, 7**4, 9973, 2 * 3 * 5 * 7 * 11 * 13]:
            units = [v for v in range(1, c) if math.gcd(v, c) == 1]
            got_units, got_invs = _units_and_inverses(c)
            assert got_units.tolist() == units
            assert got_invs.tolist() == [pow(v, -1, c) for v in units]
        with pytest.raises(DomainError):
            _units_and_inverses(1 << 31)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 200))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_periodicity_realness(self, m, n, c):
        s = kloosterman_direct_complex(m, n, c)
        assert abs(s.imag) < 1e-9
        assert q.kloosterman_direct(m, n, c) == pytest.approx(
            q.kloosterman_direct(n, m, c), abs=1e-9
        )
        assert q.kloosterman_direct(m, n, c) == pytest.approx(
            q.kloosterman_direct(m % c, n % c, c), abs=1e-9
        )

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_fast_equals_direct(self, m, n, c):
        assert q.kloosterman_fast(m, n, c) == pytest.approx(
            q.kloosterman_direct(m, n, c), abs=1e-9
        )

    def test_arrays_match_scalars_bit_for_bit(self):
        # every c <= 400 for the direct sum the other two are built from;
        # c <= 100 for those two keeps the scalar loop near a second
        ms = np.arange(13)
        for c in range(1, 401):
            fns = [q.kloosterman_direct]
            if c <= 100:
                fns += [q.kloosterman_fast, kloosterman_direct_complex]
            for fn in fns:
                table = fn(ms[:, None], ms, c)
                assert table.shape == (13, 13)
                scalars = [[fn(m, n, c) for n in range(13)] for m in range(13)]
                assert table.tolist() == scalars, (fn.__name__, c)

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(-(10**30), 10**30),
        st.one_of(st.integers(1, 2000),
                  st.integers(_PURE_MODULUS_MAX - 16, _PURE_MODULUS_MAX + 16)),
    )
    @settings(max_examples=80, deadline=None)
    def test_pure_scalars_match_numpy_bit_for_bit(self, m, n, c):
        # integers below the crossover are summed without numpy: the bits
        # must still be numpy's (this is the guard should np.cos ever
        # differ from libm's cos); a one-element array takes numpy's path
        for fn in (q.kloosterman_direct, q.kloosterman_fast):
            assert repr(fn(m, n, c)) == repr(float(fn(np.array([m % c]), n % c, c)[0]))

    def test_tables_out_of_memory_are_domain_errors(self, monkeypatch):
        # a modulus below the int64 limit can still ask for more memory than
        # there is (2^31 - 1 wants 16 GiB); the allocation is faked to fail
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "arange", no_memory)
        for table in (_units_and_inverses, _phase_table):
            with pytest.raises(DomainError, match="in memory"):
                table.__wrapped__(1009)  # past the cache, which may hold 1009

    @pytest.mark.parametrize("m", [2 * 10**18 + 1, 10**19 + 1, 10**30 + 1, -(10**30) - 1])
    def test_huge_arguments_reduce_mod_c(self, m):
        # m * v would overflow int64 (or not convert at all) before reduction
        for c in (7, 12, 360):
            for fn in (q.kloosterman_direct, q.kloosterman_fast):
                assert fn(m, 1, c) == fn(m % c, 1, c)
                assert fn(1, m, c) == fn(1, m % c, c)
            assert kloosterman_direct_complex(m, m, c) == kloosterman_direct_complex(
                m % c, m % c, c
            )


class TestPhaseTable:
    """The table lookups against the angle formula they replaced: each
    phase m*v + n*vbar reduced mod c, times 2*pi/c, through np.cos and
    np.sin.  The values must agree by repr."""

    @staticmethod
    def old_direct(m, n, c):
        units = [v for v in range(c) if math.gcd(v, c) == 1]
        v = np.array(units, dtype=np.int64)
        vbar = np.array([pow(u, -1, c) for u in units], dtype=np.int64)
        m, n = np.asarray(m % c)[..., None], np.asarray(n % c)[..., None]
        angles = np.mod(m * v + n * vbar, c) * (2 * math.pi / c)
        return np.cos(angles).sum(axis=-1), np.sin(angles).sum(axis=-1)

    def old_fast(self, m, n, c):
        out = 1.0
        for p, a in q.factorize(c) or [(1, 1)]:
            pa = p**a
            rbar = pow(c // pa, -1, pa)
            out *= self.old_direct(rbar * (m % pa), rbar * (n % pa), pa)[0]
        return out

    def check(self, m, n, c):
        re, im = self.old_direct(m, n, c)
        assert repr(q.kloosterman_direct(m, n, c).tolist()) == repr(re.tolist()), c
        got = kloosterman_direct_complex(m, n, c)
        assert repr(got.real.tolist()) == repr(re.tolist()), c
        assert repr(got.imag.tolist()) == repr(im.tolist()), c
        fast = self.old_fast(m, n, c)
        assert repr(q.kloosterman_fast(m, n, c).tolist()) == repr(fast.tolist()), c

    def test_weil_grid_matches_old_angles(self):
        m = np.arange(1, 13)[:, None]
        for c in range(1, 401):
            self.check(m, m.T, c)

    @pytest.mark.parametrize("c", [_PURE_MODULUS_MAX, _PURE_MODULUS_MAX + 1, 3 * 5 * 4999, 2**17])
    def test_large_moduli_match_old_angles(self, c):
        m = np.array([1, 7, 65535, 10**12 + 3])
        self.check(m, np.array([[1], [12], [-5]]), c)

    def test_gauss_sums_match_old_angles(self):
        for D in q.fundamental_discriminants(3, 500):
            chi = q.make_character(D)
            angles = np.arange(D) * (2 * math.pi / D)
            vals = chi.table.astype(np.float64)
            old = complex((vals * np.cos(angles)).sum(), (vals * np.sin(angles)).sum())
            assert repr(q.gauss_sum(chi)) == repr(old), D

    @pytest.mark.parametrize("c", [1, 2, 12, 360, 9973, _PURE_MODULUS_MAX - 1])
    def test_pure_cosines_are_the_table(self, c):
        # one formula, cos(k * (2*pi/c)), behind both paths: the pure tuple
        # equals the first turn of the numpy table bit for bit
        cos, sin = _phase_table(c)
        assert _pure_tables(c)[1] == tuple(cos[:c].tolist())
        assert cos.size == sin.size == 2 * c
        assert cos[c:].tolist() == cos[:c].tolist() and sin[c:].tolist() == sin[:c].tolist()


class TestGaussSum:
    def test_small_values(self):
        g3 = q.gauss_sum(q.make_character(3))
        assert g3 == pytest.approx(1j * math.sqrt(3), abs=1e-12)
        g4 = q.gauss_sum(q.make_character(4))
        assert g4 == pytest.approx(2j, abs=1e-12)

    def test_modulus_sqrt_d(self):
        for D in q.fundamental_discriminants(3, 500):
            g = q.gauss_sum(q.make_character(D))
            assert abs(g) ** 2 == pytest.approx(D, rel=1e-8)


class TestMultiplicative:
    def test_examples(self):
        assert q.multiplicative_functions(12) == (6, 4, 0)
        assert q.multiplicative_functions(1) == (1, 1, 1)
        assert q.multiplicative_functions(30) == (8, 8, -1)

    def test_against_brute_force(self):
        for n in range(1, 200):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            assert q.divisor_count(n) == len(divs)
            assert q.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 15, 16, 500])
    def test_divisor_counts_sieve(self, n_max):
        # the sieve behind the series prefactors and the tails suite
        tau = q.divisor_counts(n_max)
        assert tau.tolist() == [0] + [q.divisor_count(n) for n in range(1, n_max + 1)]


class TestPrimes:
    def test_is_prime(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 271, 7919, 10**9 + 7):
            assert q.is_prime(p)
        for n in (0, 1, 4, 91, 561, 1105, 25326001):
            assert not q.is_prime(n)

    def test_next_prime(self):
        assert q.next_prime(266) == 269
        assert q.next_prime(269) == 271
        assert q.next_prime(1) == 2
