import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmspectra import (
    InvalidRegime,
    PowerSumTable,
    SpectralParams,
    entry_E,
    factorize,
    lcm,
    lcm_grid,
    partial_power_sum_F,
    primes_up_to,
    smallest_prime_factor_table,
    zeta_real,
)


def oracle_primes(limit):
    """Trial-division prime list."""
    return [
        n
        for n in range(2, limit + 1)
        if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]


class TestParams:
    def test_rho_recomputed(self):
        p = SpectralParams(0.25, 1.5)
        assert p.rho == 1.5 - 0.5

    @pytest.mark.parametrize(
        "sigma,tau,bounded,pd",
        [
            (0.25, 1.5, True, True),
            (0.25, 1.0, True, True),
            (0.0, 0.5, False, False),  # tau + rho = 1 exactly
            (0.0, 1.0, True, True),
            (1.0, 1.0, False, False),  # rho < 0
            (-1.5, -0.5, True, False),  # rho = 2.5, tau + rho = 2, but tau < 0
        ],
    )
    def test_classification(self, sigma, tau, bounded, pd):
        p = SpectralParams(sigma, tau)
        assert p.bounded is bounded
        assert p.positive_definite_regime is pd

    def test_require_regime(self):
        with pytest.raises(InvalidRegime):
            SpectralParams(1.0, 1.0).require_regime()


class TestPrimes:
    def test_examples(self):
        assert primes_up_to(10).tolist() == [2, 3, 5, 7]
        assert primes_up_to(1).tolist() == []
        thirty = primes_up_to(30)
        assert len(thirty) == 10 and thirty[-1] == 29
        assert thirty.tolist() == oracle_primes(30)

    def test_vs_trial_division(self):
        assert primes_up_to(500).tolist() == oracle_primes(500)

    def test_segmented_matches_plain(self):
        # 2_200_000 forces at least one segment boundary
        big = primes_up_to(2_200_000)
        flags = np.ones(2_200_001, dtype=bool)
        flags[:2] = False
        for p in range(2, 1484):
            if flags[p]:
                flags[p * p :: p] = False
        assert np.array_equal(big, np.flatnonzero(flags))

    def test_spf_table(self):
        spf = smallest_prime_factor_table(5000)
        assert spf[1] == 1
        for n in range(2, 5001):
            assert spf[n] == factorize(n).factors[0][0]


class TestFactorize:
    def test_examples(self):
        assert factorize(12).as_dict() == {2: 2, 3: 1}
        assert factorize(1).as_dict() == {}
        assert factorize(360).as_dict() == {2: 3, 3: 2, 5: 1}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10_000_000))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, n):
        fi = factorize(n)
        assert fi.n == n
        ps = [p for p, _ in fi.factors]
        assert ps == sorted(ps)
        for p, k in fi.factors:
            assert k >= 1
            assert all(p % d for d in range(2, math.isqrt(p) + 1))


class TestLcm:
    def test_examples(self):
        assert lcm(4, 6) == 12
        assert lcm(1, 17) == 17
        assert lcm(9, 9) == 9

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=100, deadline=None)
    def test_gcd_lcm_product(self, n, m):
        assert lcm(n, m) * math.gcd(n, m) == n * m

    def test_grid(self):
        G = lcm_grid(40)
        assert G.shape == (40, 40)
        assert all(
            G[n - 1, m - 1] == math.lcm(n, m) for n in range(1, 41) for m in range(1, 41)
        )


class TestEntry:
    def test_diagonal_is_rho_power(self):
        p = SpectralParams(0.25, 1.5)
        for n in (1, 2, 17, 360):
            assert entry_E(n, n, p) == pytest.approx(n ** (-p.rho), rel=1e-14)

    def test_simple_value(self):
        assert entry_E(2, 3, SpectralParams(0.0, 1.0)) == pytest.approx(1 / 6, rel=1e-15)

    def test_homogeneity(self):
        p = SpectralParams(0.25, 1.5)
        assert entry_E(6, 10, p) == pytest.approx(
            2 ** (-p.rho) * entry_E(3, 5, p), rel=1e-13
        )

    @given(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_gcd_form(self, n, m):
        p = SpectralParams(0.25, 1.5)
        e = entry_E(n, m, p)
        assert e == entry_E(m, n, p)
        alternative = math.gcd(n, m) ** p.tau / (
            n ** (p.tau - p.sigma) * m ** (p.tau - p.sigma)
        )
        assert abs(e - alternative) <= 1e-14 * abs(alternative)


class TestPowerSum:
    def test_examples(self):
        oracle = math.fsum(n ** (-0.5) for n in (1, 2, 3, 4))
        assert partial_power_sum_F(4.0, 0.25) == pytest.approx(oracle, abs=1e-15)
        assert partial_power_sum_F(0.5, 3.0) == 0.0
        assert partial_power_sum_F(3.0, 0.0) == 3.0

    def test_table_matches_scalar(self):
        table = PowerSumTable(0.25, 100)
        for x in (1.0, 1.5, 7.0, 63.2, 100.0):
            assert table(x) == pytest.approx(partial_power_sum_F(x, 0.25), rel=1e-15)
        assert table(0.3) == 0.0

    def test_table_rejects_outside_range(self):
        with pytest.raises(ValueError):
            PowerSumTable(0.25, 10)(11.0)

    def test_asymptotic_deviation_bounded(self):
        # F(x) - x^rho/rho stays bounded as x grows (rho = 1 - 2 sigma here)
        sigma, rho = 0.25, 0.5
        devs = [
            partial_power_sum_F(x, sigma) - x**rho / rho
            for x in (1e2, 1e3, 1e4)
        ]
        assert all(abs(d) < 2.0 for d in devs)
        assert max(devs) - min(devs) < 0.1


class TestZeta:
    def test_pi_squared_over_six(self):
        assert abs(zeta_real(2.0) - math.pi**2 / 6.0) < 1e-12

    def test_s_three_halves_vs_bruteforce(self):
        # oracle: 10^7-term partial sum plus low-order integral tail
        M = 10**7
        s = 1.5
        head = float(np.sum(np.arange(1, M + 1, dtype=float) ** (-s)))
        tail = M ** (1 - s) / (s - 1) - 0.5 * M ** (-s) + s * M ** (-s - 1) / 12.0
        assert abs(zeta_real(1.5) - (head + tail)) < 1e-11

    def test_s_ten_vs_direct_sum(self):
        oracle = math.fsum(n**-10.0 for n in range(1, 200))
        assert abs(zeta_real(10.0) - oracle) < 1e-12

    def test_rejects_s_at_most_one(self):
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(InvalidRegime):
                zeta_real(s)

    @pytest.mark.parametrize("s", [1.5, 2.0, 5.0, 10.0, 40.0])
    def test_cutoff_doubling_stable(self, s):
        assert abs(zeta_real(s, cutoff=20_000) - zeta_real(s)) < 1e-12
