import heapq
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcmspectra import (
    BeurlingSystem,
    EnumerationCapExceeded,
    SpectralParams,
    beurling_integers,
    count_integers,
    factorize,
    primes_up_to,
    system_from_spectra,
)

P25 = SpectralParams(0.25, 1.5)


def _heap_integers(gens, x, max_count=5_000_000):
    """The min-heap enumeration the level-wise one replaced, kept as its oracle.

    One heap entry per multiset, with a per-generator cursor; the sibling
    of v with largest generator j is (v / g_j) * g_(j+1).  Returns the
    merged values and the number of merges.
    """
    if x < 1.0:
        return np.empty(0), 0
    G = len(gens)
    out = [1.0]
    heap = []
    if G and gens[0] <= x:
        heapq.heappush(heap, (float(gens[0]), 0))
    collisions = 0
    while heap:
        v, j = heapq.heappop(heap)
        if v - out[-1] <= 1e-12 * v:
            collisions += 1
        else:
            out.append(v)
            if len(out) > max_count:
                raise EnumerationCapExceeded("cap", partial=max_count)
        child = v * gens[j]
        if child <= x:
            heapq.heappush(heap, (child, j))
        if j + 1 < G:
            sibling = (v / gens[j]) * gens[j + 1]
            if sibling <= x:
                heapq.heappush(heap, (sibling, j + 1))
    return np.asarray(out), collisions


def _clear_of_products(gens, x):
    """No product lies within 1e-12 of x, where the two rounding orders may
    disagree on admission."""
    values, _ = _heap_integers(gens, 2.0 * x)
    return not np.any(np.abs(values - x) <= 1e-12 * x)


def _assert_matches_heap(gens, x):
    got = beurling_integers(BeurlingSystem(np.asarray(gens, dtype=float), P25), x)
    want, _ = _heap_integers(np.asarray(gens, dtype=float), x)
    assert got.size == want.size
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


ascending_generators = st.lists(
    st.floats(min_value=1.5, max_value=50.0), min_size=1, max_size=5
).map(sorted)


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, x):
        system = BeurlingSystem(np.array([2.0, 3.0]), P25)
        with pytest.raises(ValueError):
            count_integers(system, x)
        with pytest.raises(ValueError):
            beurling_integers(system, x)

    @pytest.mark.parametrize("gens", [(math.nan, 2.0), (2.0, math.nan), (2.0, math.inf)])
    def test_rejects_non_finite_generators(self, gens):
        with pytest.raises(ValueError, match="generators must be finite"):
            BeurlingSystem(np.array(gens), P25)

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
        assert "max_count=10 " in str(err.value)

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            BeurlingSystem(np.array([0.5, 2.0]), P25)
        with pytest.raises(ValueError):
            BeurlingSystem(np.array([3.0, 2.0]), P25)


class TestAgainstHeap:
    @settings(max_examples=60, deadline=None)
    @given(gens=ascending_generators, x=st.floats(min_value=1.0, max_value=1000.0))
    def test_random_generators_match_heap(self, gens, x):
        assume(_clear_of_products(gens, x))
        _assert_matches_heap(gens, x)

    @settings(max_examples=40, deadline=None)
    @given(
        gens=st.lists(st.floats(min_value=1.5, max_value=50.0), min_size=1, max_size=3).map(sorted),
        x=st.floats(min_value=1.0, max_value=300.0),
    )
    def test_random_generators_match_bruteforce(self, gens, x):
        assume(_clear_of_products(gens, x))
        system = BeurlingSystem(np.array(gens), P25)
        assert count_integers(system, x) == oracle_count(gens, x)

    def test_three_value_cluster_keeps_last_kept_rule(self, caplog):
        # b is within 1e-12 of a and dropped; c is within 1e-12 of b but not
        # of a, the last kept value, so c stays
        a = 2.0
        gens = np.array([a, a * (1 + 0.6e-12), a * (1 + 1.2e-12)])
        with caplog.at_level(logging.WARNING, logger="lcmspectra.beurling"):
            got = beurling_integers(BeurlingSystem(gens, P25), 3.0)
        want, merges = _heap_integers(gens, 3.0)
        assert got.tolist() == want.tolist() == [1.0, gens[0], gens[2]]
        assert merges == 1
        (record,) = caplog.records
        assert record.msg == "merged %d numerically equal semigroup products below x=%g"
        assert record.args == (1, 3.0)

    @pytest.mark.parametrize(
        "a, b, x",
        [
            # x / a < b, yet the product a * b rounds to x: admitted
            (13.10941798515818, 39.67426791320114, 13.10941798515818 * 39.67426791320114),
            # b <= x / a, yet the product a * b rounds above x: not admitted
            (40.89826680839582, 44.18475888324738, 1807.0800576716886),
        ],
    )
    def test_admission_is_the_rounded_product_test(self, a, b, x):
        gens = (a, b)
        want = sorted(
            math.prod(c)
            for k in range(4)
            for c in itertools.combinations_with_replacement(gens, k)
            if math.prod(c) <= x
        )
        assert beurling_integers(BeurlingSystem(np.array(gens), P25), x).tolist() == want

    def test_widened_end_moves_down_past_several_generators(self):
        # 3 (1 + 2^-50) is six ulps above 3, so the search on the widened
        # quotient x / 1 admits the next four floats above 3; each product
        # with 1 exceeds x = 3 and the end must step back over all four
        above = [3.0]
        for _ in range(4):
            above.append(np.nextafter(above[-1], np.inf))
        gens = np.array([2.0] + above[1:])
        assert np.searchsorted(gens, 3.0 * (1 + 2**-50), side="right") == 5
        assert beurling_integers(BeurlingSystem(gens, P25), 3.0).tolist() == [1.0, 2.0]

    def test_cap_counts_multisets_before_merging(self):
        # 2^a 4^b <= 64 has 16 multisets but only 7 distinct values
        system = BeurlingSystem(np.array([2.0, 4.0]), P25)
        assert beurling_integers(system, 64.0, max_count=16).size == 7
        with pytest.raises(EnumerationCapExceeded) as err:
            beurling_integers(system, 64.0, max_count=15)
        assert "max_count=15 " in str(err.value)

    def test_cap_at_exact_count(self):
        system = BeurlingSystem(np.array([2.0, 3.0, 5.0]), P25)
        n = beurling_integers(system, 1000.5).size
        assert beurling_integers(system, 1000.5, max_count=n).size == n
        with pytest.raises(EnumerationCapExceeded) as err:
            beurling_integers(system, 1000.5, max_count=n - 1)
        assert f"max_count={n - 1} " in str(err.value)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_cap_below_one(self, cap):
        # even x < 1, which needs no enumeration, is refused: the cap is invalid
        system = BeurlingSystem(np.array([2.0, 3.0]), P25)
        for x in (0.5, 100.0):
            with pytest.raises(ValueError, match="max_count must be >= 1"):
                beurling_integers(system, x, max_count=cap)


class TestSpectralSystem:
    @pytest.mark.parametrize("x", [1.0, 10.0, 123.4, 1000.0, 1999.5, 5e4])
    def test_matches_heap(self, table_small, x):
        gens = system_from_spectra(table_small).generators
        _assert_matches_heap(gens, x)

    def test_generator_definition_at_rho_one(self, table_small):
        system = system_from_spectra(table_small)
        gamma = table_small.kept_ratios[0]  # lambda_1/lambda_0 at p = 2
        assert np.min(system.generators) == pytest.approx(gamma**-1.0, rel=1e-14)

    def test_sorted_ascending_above_one(self, table_small):
        g = system_from_spectra(table_small).generators
        assert np.all(g > 1.0)
        assert np.all(np.diff(g) >= 0)

    def test_generators_approach_primes(self, table_small):
        # |r_p - p| <= C p^(1 - tau/2) with C fitted on p <= 50
        # the first kept ratio of each row is lambda_1/lambda_0
        rs = table_small.kept_ratios[table_small.offsets[:-1]] ** -1.0
        ps = table_small.primes.astype(float)
        dev = np.abs(rs - ps) * ps ** (P25.tau / 2 - 1.0)
        c_fit = dev[ps <= 50].max()
        assert np.all(dev[ps > 50] <= c_fit)

    def test_lambda_tilde_counting_matches(self, table_small):
        # counting the multiplicative surrogates prod gamma_{1,p}^{k_p} along
        # n equals counting semigroup elements after the r = gamma^(-1/rho) map
        table = table_small
        system = system_from_spectra(table)
        gamma1 = dict(zip(table.primes.tolist(), table.kept_ratios[table.offsets[:-1]]))
        xs = []
        for n in range(1, 4001):
            fi = factorize(n)
            if all(p <= table.p_max for p, _ in fi):
                x = 1.0
                for p, k in fi:
                    x *= (1.0 / gamma1[p]) ** k
                xs.append(x)
        xs = np.sort(np.array(xs))
        for x in (50.0, 123.4, 500.0, 987.0):
            assert count_integers(system, x) == int((xs <= x).sum())

    def test_density_positive_and_stable(self, table_counting):
        system = system_from_spectra(table_counting)
        xs = [1.0, 100.0, 10_000.0, 40_000.0]
        c = np.array([count_integers(system, x) / x for x in xs])
        assert np.all(c > 0.0)
        assert 0.95 <= c[3] / c[2] <= 1.05


class TestEnumerationValues:
    def test_values_sorted_and_start_at_one(self):
        system = BeurlingSystem(np.array([1.9, 3.2]), P25)
        vals = beurling_integers(system, 50.0)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] <= 50.0
