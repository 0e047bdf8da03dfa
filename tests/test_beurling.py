import itertools
import math

import numpy as np
import pytest

from lcmspectra import (
    BeurlingSystem,
    EnumerationCapExceeded,
    SpectralParams,
    beurling_integers,
    count_integers,
    density_fit,
    factorize,
    primes_up_to,
    system_from_spectra,
)

P25 = SpectralParams(0.25, 1.5)


def oracle_count(generators, x):
    """Brute-force count of distinct products r1^a r2^b r3^c <= x."""
    values = set()
    gens = list(generators)
    caps = [int(math.log(x) / math.log(g)) + 1 for g in gens]
    for expo in itertools.product(*[range(c + 1) for c in caps]):
        v = 1.0
        for g, e in zip(gens, expo):
            v *= g**e
        if v <= x:
            values.add(round(math.log(v) * 1e12))  # dedupe within 1e-12 in log
    return len(values)


class TestToySystems:
    def test_two_three_up_to_ten(self):
        system = BeurlingSystem(np.array([2.0, 3.0]), P25)
        assert count_integers(system, 10.0) == 7  # 1, 2, 3, 4, 6, 8, 9

    def test_below_one_is_zero(self):
        system = BeurlingSystem(np.array([2.0, 3.0]), P25)
        assert count_integers(system, 0.5) == 0

    def test_primes_to_seven_cover_ten(self):
        system = BeurlingSystem(np.array([2.0, 3.0, 5.0, 7.0]), P25)
        assert count_integers(system, 10.0) == 10

    def test_true_primes_give_floor(self):
        gens = primes_up_to(97).astype(float)
        system = BeurlingSystem(gens, P25)
        for x in (1.0, 10.5, 50.0, 97.0):
            assert count_integers(system, x) == int(x)

    @pytest.mark.parametrize(
        "gens",
        [(2.0, 3.0), (2.0, 3.0, 5.0), (1.5, 2.7, 3.1), (2.2,)],
    )
    def test_heap_matches_bruteforce(self, gens):
        system = BeurlingSystem(np.array(sorted(gens)), P25)
        for x in (10.0, 123.0, 1e3, 1e4):
            assert count_integers(system, x) == oracle_count(gens, x)

    def test_nondecreasing_and_right_continuous(self):
        system = BeurlingSystem(np.array([2.0, 3.0, 5.0]), P25)
        xs = np.linspace(1.0, 200.0, 57)
        counts = [count_integers(system, x) for x in xs]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert count_integers(system, 8.0) == count_integers(system, 8.0 + 1e-9)

    def test_dependent_generators_merge(self):
        # 4 = 2*2 collides exactly; merged values are counted once
        system = BeurlingSystem(np.array([2.0, 4.0]), P25)
        assert count_integers(system, 4.0) == 3  # 1, 2, 4

    def test_cap_exceeded(self):
        system = BeurlingSystem(np.array([2.0, 3.0]), P25)
        with pytest.raises(EnumerationCapExceeded) as err:
            count_integers(system, 1e6, max_count=10)
        assert err.value.partial == 10

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            BeurlingSystem(np.array([0.5, 2.0]), P25)
        with pytest.raises(ValueError):
            BeurlingSystem(np.array([3.0, 2.0]), P25)


class TestSpectralSystem:
    def test_generator_definition_at_rho_one(self, table_small):
        system = system_from_spectra(table_small)
        gamma = table_small.ratios_at(0)[0]  # lambda_1/lambda_0 at p = 2
        assert np.min(system.generators) == pytest.approx(gamma**-1.0, rel=1e-14)

    def test_sorted_ascending_above_one(self, table_small):
        g = system_from_spectra(table_small).generators
        assert np.all(g > 1.0)
        assert np.all(np.diff(g) >= 0)

    def test_generators_approach_primes(self, table_small):
        # |r_p - p| <= C p^(1 - tau/2) with C fitted on p <= 50
        rs = np.array(
            [table_small.ratios_at(i)[0] ** -1.0 for i in range(len(table_small.primes))]
        )
        ps = table_small.primes.astype(float)
        dev = np.abs(rs - ps) * ps ** (P25.tau / 2 - 1.0)
        c_fit = dev[ps <= 50].max()
        assert np.all(dev[ps > 50] <= c_fit)

    def test_lambda_tilde_counting_matches(self, table_small):
        # counting the multiplicative surrogates prod gamma_{1,p}^{k_p} along
        # n equals counting semigroup elements after the r = gamma^(-1/rho) map
        table = table_small
        system = system_from_spectra(table)
        gamma1 = {
            int(p): table.ratios_at(i)[0] for i, p in enumerate(table.primes)
        }
        xs = []
        for n in range(1, 4001):
            fi = factorize(n)
            if all(p <= table.p_max for p, _ in fi.factors):
                x = 1.0
                for p, k in fi.factors:
                    x *= (1.0 / gamma1[p]) ** k
                xs.append(x)
        xs = np.sort(np.array(xs))
        for x in (50.0, 123.4, 500.0, 987.0):
            assert count_integers(system, x) == int((xs <= x).sum())

    def test_density_positive_and_stable(self, table_counting):
        system = system_from_spectra(table_counting)
        c = density_fit(system, [1.0, 100.0, 10_000.0, 40_000.0])
        assert np.all(c > 0.0)
        assert 0.95 <= c[3] / c[2] <= 1.05

    def test_density_grid_validation(self, table_small):
        system = system_from_spectra(table_small)
        with pytest.raises(ValueError):
            density_fit(system, [0.5, 10.0])
        with pytest.raises(ValueError):
            density_fit(system, [10.0, 5.0])


class TestEnumerationValues:
    def test_values_sorted_and_start_at_one(self):
        system = BeurlingSystem(np.array([1.9, 3.2]), P25)
        vals = beurling_integers(system, 50.0)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] <= 50.0
