import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmspectra import (
    InvalidRegime,
    SpectralParams,
    build_table,
    entry_matrix,
    factorize,
    lcm_grid,
    primes_up_to,
    zeta_real,
)
from lcmspectra.arith import _exact_sum, prime_power_index
from lcmspectra.toeplitz import _power_sums


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

    @pytest.mark.parametrize(
        "limit",
        # a root below 2 (no base primes), one window ending at or just
        # past 2^20, and 2_200_000 crossing two window boundaries
        [2, 3, 4, 5, 2**20 - 1, 2**20, 2**20 + 1, 2_200_000],
    )
    def test_segmented_matches_plain(self, limit):
        got = primes_up_to(limit)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        assert got.dtype == np.int64
        assert np.array_equal(got, np.flatnonzero(flags))

    def test_spf_table(self):
        # the full power of the least prime factor against trial division,
        # at the edges, at 2^10 and one past it, and at the tests' p_max
        for N in (2, 3, 4, 1024, 1025, 2000):
            index = prime_power_index(N)
            assert index.power_of.size == N + 1
            for m in range(2, N + 1):
                p, k = factorize(m)[0]
                assert index.powers[index.power_of[m]] == p**k, (N, m)

    def test_prime_power_slots(self):
        index = prime_power_index(2000)
        P = len(index.primes)
        assert np.array_equal(index.primes, primes_up_to(2000))
        assert np.array_equal(index.powers[:P], index.primes)
        # then every p^k <= 2000 with k >= 2, by p, then k
        want = [(p**k, p, k) for p in oracle_primes(44) for k in range(2, 11) if p**k <= 2000]
        got = zip(index.powers[P:].tolist(), index.primes[index.rows].tolist(),
                  index.exponents.tolist())
        assert list(got) == want
        assert index.power_of.dtype == np.int32 and index.power_of[:2].tolist() == [-1, -1]
        assert not any(a.flags.writeable for a in index)

    def test_prime_power_index_cached_for_the_latest_limit(self):
        prime_power_index.cache_clear()
        first = prime_power_index(2000)
        assert prime_power_index(2000) is first
        prime_power_index(1000)
        assert prime_power_index(2000) is not first
        assert prime_power_index.cache_info().currsize == 1
        with pytest.raises(ValueError):
            prime_power_index(1)
        with pytest.raises(TypeError):
            prime_power_index(2000.0)


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(1) == ()
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10_000_000))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, n):
        fi = factorize(n)
        assert math.prod(p**k for p, k in fi) == n
        ps = [p for p, _ in fi]
        assert ps == sorted(ps)
        for p, k in fi:
            assert k >= 1
            assert all(p % d for d in range(2, math.isqrt(p) + 1))


class TestLcm:
    def test_examples(self):
        G = lcm_grid(17)
        assert G[3, 5] == 12  # [4, 6]
        assert G[0, 16] == 17  # [1, 17]
        assert G[8, 8] == 9  # [9, 9]

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_gcd_lcm_product(self, M):
        n = np.arange(1, M + 1)
        assert np.array_equal(lcm_grid(M) * np.gcd.outer(n, n), np.outer(n, n))

    @pytest.mark.parametrize("M", [1, 2, 17, 360, 700])
    def test_sieve_matches_lcm_outer(self, M):
        n = np.arange(1, M + 1, dtype=np.int64)
        G = lcm_grid(M)
        assert G.dtype == np.int64
        assert np.array_equal(G, np.lcm.outer(n, n))

    def test_float_size_raises(self):
        with pytest.raises(TypeError, match="M must be an integer"):
            lcm_grid(4.0)

    def test_numpy_integer_size_passes(self):
        assert np.array_equal(lcm_grid(np.int64(6)), lcm_grid(6))
        assert np.array_equal(lcm_grid(np.uint8(6)), lcm_grid(6))

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="M must be >= 0"):
            lcm_grid(-1)

    def test_zero_size_is_empty(self):
        G = lcm_grid(0)
        assert G.shape == (0, 0) and G.dtype == np.int64

    def test_grid(self):
        G = lcm_grid(40)
        assert G.shape == (40, 40)
        assert all(
            G[n - 1, m - 1] == math.lcm(n, m) for n in range(1, 41) for m in range(1, 41)
        )


class TestEntry:
    """Entries of spectrum.entry_matrix, the one implementation of E(sigma, tau)."""

    def test_diagonal_is_rho_power(self):
        p = SpectralParams(0.25, 1.5)
        E = entry_matrix(p, 360)
        for n in (1, 2, 17, 360):
            assert E[n - 1, n - 1] == pytest.approx(n ** (-p.rho), rel=1e-14)

    def test_simple_value(self):
        E = entry_matrix(SpectralParams(0.0, 1.0), 3)
        assert E[1, 2] == pytest.approx(1 / 6, rel=1e-15)

    def test_homogeneity(self):
        p = SpectralParams(0.25, 1.5)
        E = entry_matrix(p, 10)
        assert E[5, 9] == pytest.approx(2 ** (-p.rho) * E[2, 4], rel=1e-13)

    def test_symmetry_and_gcd_form(self):
        # every pair n, m <= 1024 against the gcd form evaluated by Python floats
        p = SpectralParams(0.25, 1.5)
        M = 1024
        E = entry_matrix(p, M)
        assert np.array_equal(E, E.T)
        worst = 0.0
        for n in range(1, M + 1):
            a = n ** (p.tau - p.sigma)
            for m in range(n, M + 1):
                alternative = math.gcd(n, m) ** p.tau / (a * m ** (p.tau - p.sigma))
                worst = max(worst, abs(E[n - 1, m - 1] - alternative) / alternative)
        assert worst <= 1e-14


def fsum_F(x, sigma):
    """F(x) = sum_{k <= x} k^(-2 sigma), summed exactly; 0 when x < 1."""
    return math.fsum(k ** (-2.0 * sigma) for k in range(1, int(x) + 1))


class TestPowerSum:
    """The truncated power sum F behind the Toeplitz Gram and Hadamard factor."""

    def test_examples(self):
        ell, F, F_N = _power_sums(0.25, 4, 4)
        assert F_N == pytest.approx(fsum_F(4, 0.25), abs=1e-15)
        want = [fsum_F(4 // m, 0.25) for m in (1, 2, 3, 4)]
        assert F[0].tolist() == pytest.approx(want, rel=1e-15)
        assert F[2, 3] == 0.0  # [3, 4] = 12 > N: empty divisor sum
        assert _power_sums(0.0, 3, 1)[2] == 3.0

    def test_table_matches_scalar(self):
        for sigma in (-0.5, 0.0, 0.25, 0.4):
            for N, M in ((1, 3), (16, 16), (100, 30)):
                ell, F, F_N = _power_sums(sigma, N, M)
                assert F_N == pytest.approx(fsum_F(N, sigma), rel=1e-15)
                want = [[fsum_F(N // l, sigma) if l <= N else 0.0 for l in row] for row in ell]
                np.testing.assert_allclose(F, want, rtol=1e-15, atol=0)

    def test_asymptotic_deviation_bounded(self):
        # F(x) - x^rho/rho stays bounded as x grows (rho = 1 - 2 sigma here)
        sigma, rho = 0.25, 0.5
        devs = [_power_sums(sigma, x, 1)[2] - x**rho / rho for x in (100, 1000, 10_000)]
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

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_rejects_non_finite_s(self, s):
        with pytest.raises(InvalidRegime, match="finite s > 1"):
            zeta_real(s)

    # bits of the partial sum taken by math.fsum; a plain np.sum moves the
    # last bit at s = 1.05 and s = 3
    @pytest.mark.parametrize(
        "s, bits",
        [(1.05, "0x1.494b23651511ap+4"), (1.5, "0x1.4e6250bfbd89ep+1"),
         (3.0, "0x1.33ba004f00621p+0"), (10.0, "0x1.00412e33a5bb9p+0")],
    )
    def test_bits_of_the_fsum_head(self, s, bits):
        assert zeta_real(s).hex() == bits

    # the kappa tail calls zeta_real up to 1 + 16 ln 10 / ln 2 = 54.2 (p_max = 2)
    @pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 5.0, 10.0, 40.0, 45.0, 54.0, 55.0])
    def test_matches_mpmath(self, s):
        assert abs(zeta_real(s) - float(mpmath.zeta(s))) < 1e-12


def _fsum_outcome(fsum, values):
    """The result's hex, which tells the sign of zero, or the exception."""
    try:
        return fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_fsum(values):
    values = [float(v) for v in values]
    got = _fsum_outcome(lambda v: _exact_sum(np.array(v, dtype=float)), values)
    assert got == _fsum_outcome(math.fsum, values)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_matches_fsum(self, values):
        assert_matches_fsum(values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1074, 0), min_size=1, max_size=40),
        st.integers(0, 2**32),
    )
    def test_matches_fsum_across_exponents(self, exps, seed):
        # every term a signed random mantissa at its own binary exponent
        rng = np.random.default_rng(seed)
        assert_matches_fsum(np.ldexp(rng.uniform(-1.0, 1.0, len(exps)), exps))

    @pytest.mark.parametrize("k", [1, 2, 4, 10, 16])
    @pytest.mark.parametrize("n_shift", [-1, 0, 1])
    @pytest.mark.parametrize("top", [1.0, -1.0, 2.0**-40, 2.0**900])
    def test_counts_around_powers_of_two(self, k, n_shift, top):
        # n = 2^k - 1, 2^k, 2^k + 1 terms, the largest exactly a power of two
        n = 2**k + n_shift
        if n < 1:
            return
        rng = np.random.default_rng(n)
        values = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-80, 0, n)) * abs(top)
        values[rng.integers(n)] = top
        assert_matches_fsum(values)
        # the same terms doubled up so they cancel down to the last bits
        assert_matches_fsum(np.concatenate((values, -values[::2], values[1::3] * 0.5)))

    @pytest.mark.parametrize(
        "values",
        [[1e16, 1.0, -1e16], [], [2.5], [-2.5], [0.0, -0.0], [-0.0], [-0.0, -0.0], [1.0, -1.0],
         [5e-324], [5e-324, -5e-324, 5e-324], [2.2250738585072014e-308, -5e-324, 1e-310],
         [1e-320] * 1000, [1.0, 1e-300, 1e-310, -1.0]],
        ids=["cancel", "empty", "one", "one-negative", "signed-zeros", "minus-zero",
             "minus-zeros", "exact-zero", "smallest-subnormal", "subnormal-cancel",
             "subnormal-mix", "subnormal-run", "tiny-left"],
    )
    def test_small_and_special_cases(self, values):
        assert_matches_fsum(values)

    @pytest.mark.parametrize(
        "values",
        [[1e308, 1e308, -1e308], [1.7e308, -1.7e308, 1.0], [2.0**1023, 2.0**1023],
         [1.5 * 2.0**1023, 2.0**1022], [math.ldexp(1.0, 1020)] * 3,
         [math.ldexp(1.0, 1020) * (1 - 2**-53), -math.ldexp(1.0, 1019), 3.0],
         [math.ldexp(1.0, 1021) * (1 - 2**-53), 1.0],
         [math.ldexp(1.0, 1019)] * 7, [math.ldexp(1.0, 1019)] * 8, [1.7976931348623157e308]],
        ids=["overflow-then-back", "cancel-top", "twice-top", "overflow", "three-at-2^1020",
             "below-2^1020", "below-2^1021", "seven-at-2^1019", "eight-at-2^1019", "max"],
    )
    def test_near_the_overflow_threshold(self, values):
        # the result, or the OverflowError, must be math.fsum's
        assert_matches_fsum(values)

    @pytest.mark.parametrize(
        "values",
        [[math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
         [1.0, math.nan, math.inf], [math.inf, math.inf], [1e308, 1e308, math.inf]],
        ids=["inf", "minus-inf", "inf-minus-inf", "nan", "nan-inf", "inf-twice",
             "overflow-and-inf"],
    )
    def test_non_finite(self, values):
        assert_matches_fsum(values)

    @pytest.mark.parametrize(
        "sigma, tau, p_max",
        [(0.25, 1.0, 100_000), (0.0, 0.6, 100_000), (0.45, 1.0, 10_000), (0.05, 0.6, 10_000)],
    )
    def test_log_lambda0(self, sigma, tau, p_max):
        # the sum behind a table's base_product
        table = build_table(SpectralParams(sigma, tau), p_max)
        logs = np.log(table.lambda0)
        want = math.fsum(logs)
        assert _exact_sum(logs).hex() == want.hex()
        assert table.base_product == math.exp(want)

    @pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 10.0, 54.0])
    def test_zeta_head(self, s):
        # the partial sum inside zeta_real, terms from 1 down to 10^(-4 s)
        terms = np.arange(1, 10_001, dtype=float) ** -s
        want = math.fsum(terms)
        assert _exact_sum(terms).hex() == want.hex()
