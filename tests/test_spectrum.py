import dataclasses
import math
import os
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmspectra import (
    CertificateUnavailable,
    EnumerationInfeasible,
    FloorTooHigh,
    GlobalEigenvalue,
    InvalidRegime,
    PrimeOutOfRange,
    SpectralParams,
    build_table,
    counting_mu,
    entry_matrix,
    enumerate_spectrum,
    factorize,
    finite_section_eigs,
    lambda_of,
    load_table,
    primes_up_to,
    save_table,
)
from lcmspectra import spectrum
from lcmspectra.kappa import g_p_at, kappa_numeric
from lcmspectra.local import (
    DEFAULT_FLOOR,
    LocalSpectrum,
    best_envelope,
    block_eigenvalues,
    hs_bound_squared,
    local_spectrum,
    truncation_order,
)
from lcmspectra.spectrum import (
    _HEADER,
    _cache_path,
    _product_tail_bound,
)

P25 = SpectralParams(0.25, 1.5)


class TestBaseProduct:
    def test_at_least_one(self, table_small):
        assert table_small.base_product >= 1.0

    def test_tail_bound_decreases(self, table_small, table_counting):
        assert table_counting.tail_exponent_bound < table_small.tail_exponent_bound
        assert table_small.tail_exponent_bound >= 0.0

    def test_tail_bound_self_consistent(self, table_counting):
        t1k = build_table(P25, 1000)
        gap = abs(
            math.log(table_counting.base_product) - math.log(t1k.base_product)
        )
        assert gap <= t1k.tail_exponent_bound


def _tail_bound_inline(params, p_max):
    """Oracle for _product_tail_bound: h and its h >= 1 refusal written
    out inline rather than taken from top_eig_certificate."""
    tpr = params.tau + params.rho
    h = p_max ** (-params.rho) * math.sqrt(hs_bound_squared(p_max, params))
    if h >= 1.0:
        raise CertificateUnavailable(f"h = {h}")
    coeff = 1.0 / ((1.0 - p_max ** (-tpr)) * (1.0 - h))
    return coeff * p_max ** (1.0 - tpr) / (tpr - 1.0)


TAIL_REGIMES = [(0.25, 1.5), (0.25, 1.0), (0.0, 0.75), (0.0, 0.6), (0.3, 0.9),
                (-0.45, 0.1), (0.4, 1.3), (0.1, 0.9)]
TAIL_P_MAX = [2, 3, 10, 100, 2000, 10**5, 10**6, 10**7]


def test_tail_bound_reuses_certificate_exactly():
    refused = 0
    for sigma, tau in TAIL_REGIMES:
        params = SpectralParams(sigma, tau)
        for p_max in TAIL_P_MAX:
            try:
                want = _tail_bound_inline(params, p_max)
            except CertificateUnavailable:
                refused += 1
                with pytest.raises(CertificateUnavailable):
                    _product_tail_bound(params, p_max)
                continue
            got = _product_tail_bound(params, p_max)
            assert got.hex() == want.hex(), (sigma, tau, p_max)
    # both branches must be exercised
    assert 0 < refused < len(TAIL_REGIMES) * len(TAIL_P_MAX)


def _lambda_of_factorize(n, table):
    """Reference lambda_n: factorize n, then multiply Lambda_0 by one kept
    ratio per prime power in ascending-prime order."""
    value = table.base_product
    for p, k in factorize(n):
        if p > table.p_max:
            raise PrimeOutOfRange(f"prime {p} exceeds table cutoff {table.p_max}")
        i = int(np.searchsorted(table.primes, p))
        if k > table.lengths[i]:
            raise FloorTooHigh(f"lambda_{k}(E_{p})")
        value *= table.kept_ratios[table.offsets[i] + k - 1]
    return value


def _lambda_value(n, table):
    return lambda_of(n, table).value


def _oracle(table, n_max):
    """lambda_n for n = 1..n_max through lambda_of, the scalar path that
    factors each index (checked against factorize in TestLambdaOf), so it
    shares no listing with the search."""
    return np.array([lambda_of(n, table).value for n in range(1, n_max + 1)])


def _oracle_ranked(table, n_max, top):
    """The indices and values of the top largest of _oracle(table, n_max),
    by value descending, ties by ascending n."""
    vals = _oracle(table, n_max)
    order = np.lexsort((np.arange(1, n_max + 1), -vals))[:top]
    return order + 1, vals[order]


def _outcome(f, n, table):
    """The value f returns for n, or the class of the lookup error it raises."""
    try:
        return f(n, table)
    except (PrimeOutOfRange, FloorTooHigh) as exc:
        return type(exc)


class TestLambdaOf:
    def test_matches_factorize_loop_up_to_2e4(self, table_small):
        got = [_outcome(_lambda_value, n, table_small) for n in range(1, 20_001)]
        ref = [_outcome(_lambda_of_factorize, n, table_small) for n in range(1, 20_001)]
        assert got == ref
        assert PrimeOutOfRange in got and any(isinstance(v, float) for v in got)

    @given(n=st.integers(1, 2 * 10**7))
    @settings(max_examples=300, deadline=None)
    def test_matches_factorize_loop(self, n, table_small):
        got = _outcome(_lambda_value, n, table_small)
        assert got == _outcome(_lambda_of_factorize, n, table_small)

    def test_lookup_errors(self, table_small):
        q = 2003  # the first prime above p_max = 2000
        top = int(table_small.lengths[0])  # last exponent of 2 above the floor
        assert lambda_of(2**top, table_small).value == _lambda_of_factorize(2**top, table_small)
        for n, exc in [
            (q, PrimeOutOfRange),
            (6 * q, PrimeOutOfRange),
            (q * q, PrimeOutOfRange),  # no prime factor up to p_max at all
            (3 * q * q, PrimeOutOfRange),
            (2 ** (top + 1), FloorTooHigh),
            (2 ** (top + 1) * 3, FloorTooHigh),
            (2 ** (top + 1) * q, FloorTooHigh),  # ascending primes: 2 fails first
        ]:
            with pytest.raises(exc):
                lambda_of(n, table_small)
            assert _outcome(_lambda_of_factorize, n, table_small) is exc
        with pytest.raises(ValueError):
            lambda_of(0, table_small)

    def test_matches_factorize_loop_at_branch_boundaries(self, table_small):
        # trial division runs only while the cofactor exceeds p_max = 2000;
        # 1999 is the largest table prime and 2003 the first one above it
        top = int(table_small.lengths[0])
        for n in (2000, 2001, 2 * 1999, 1999**2, 1999 * 2003, 2**top * 1999):
            assert _outcome(_lambda_value, n, table_small) == _outcome(
                _lambda_of_factorize, n, table_small
            ), n

    def test_n_one_is_base_product(self, table_small):
        assert lambda_of(1, table_small).value == table_small.base_product

    def test_multiplicativity_exact(self, table_small):
        lam = lambda n: lambda_of(n, table_small).value
        assert lam(6) * lam(1) == pytest.approx(lam(2) * lam(3), rel=1e-14)

    def test_prime_case(self, table_small):
        i = int(np.searchsorted(table_small.primes, 7))
        expected = table_small.base_product * table_small.kept_ratios[table_small.offsets[i]]
        assert lambda_of(7, table_small).value == pytest.approx(expected, rel=1e-15)

    def test_prime_beyond_cutoff(self, table_small):
        with pytest.raises(PrimeOutOfRange):
            lambda_of(2003, table_small)  # 2003 is prime, above p_max=2000

    def test_floor_too_high(self, table_small):
        # 2^60 needs lambda_60(E_2), far below the floor
        with pytest.raises(FloorTooHigh):
            lambda_of(2**60, table_small)

    @pytest.mark.parametrize("n", [6, np.int64(6), np.int32(6), np.uint16(6)])
    def test_accepts_python_and_numpy_integers(self, n, table_small):
        got = lambda_of(n, table_small)
        assert got == lambda_of(6, table_small)
        assert type(got.n) is int

    @pytest.mark.parametrize("n", [6.5, 6.0, np.float64(6.0)])
    def test_rejects_float_index(self, n, table_small):
        with pytest.raises(TypeError, match="n must be an integer"):
            lambda_of(n, table_small)

    @pytest.mark.parametrize("floor", [1e-3, 0.3])
    def test_unkept_powers_match_factorize_loop(self, floor):
        # power_ratio reads 0.0 at k >= 2 slots and at rows that keep no ratio
        table = build_table(P25, 2000, target_floor=floor)
        lambda_of(1, table)
        index, ratio = spectrum.prime_power_index(2000), table.power_ratio
        P = len(table.primes)
        assert np.any(ratio[P:] == 0.0) and np.any(ratio[P:] > 0.0) == (floor < 0.1)
        assert np.any(table.lengths == 0) and np.array_equal(ratio[:P] == 0.0, table.lengths == 0)
        assert index.powers.size > P
        got = [_outcome(_lambda_value, n, table) for n in range(1, 20_001)]
        ref = [_outcome(_lambda_of_factorize, n, table) for n in range(1, 20_001)]
        assert got == ref and FloorTooHigh in got

    @pytest.mark.parametrize(
        "floor, n, text",
        [
            # read from the prime-power index: n <= p_max, or a cofactor that is
            (0.3, 12, "lambda_2(E_2) lies below the floor 0.3"),
            (1e-3, 4096, "lambda_12(E_2) lies below the floor 0.001"),
            (1e-3, 4 * 1999, "lambda_1(E_1999) lies below the floor 0.001"),
            # trial division: the cofactor still exceeds p_max = 2000
            (0.3, 2**4 * 2003, "lambda_4(E_2) lies below the floor 0.3"),
            (1e-3, 8 * 1999**2, "lambda_2(E_1999) lies below the floor 0.001"),
        ],
        ids=["index", "index-high-power", "index-cofactor", "trial", "trial-square"],
    )
    def test_floor_error_text(self, floor, n, text):
        table = build_table(P25, 2000, target_floor=floor)
        with pytest.raises(FloorTooHigh) as info:
            lambda_of(n, table)
        assert str(info.value) == text

    def test_records_frozen_and_hashable(self, table_small):
        ev = lambda_of(12, table_small)
        assert type(ev.n) is int and type(ev.value) is float
        assert (ev.n, ev.value) == (12, _lambda_of_factorize(12, table_small))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.value = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.n = 2
        assert [f.name for f in dataclasses.fields(ev)] == ["n", "value"]
        twin = dataclasses.replace(ev)
        assert twin == ev and twin is not ev and hash(twin) == hash(ev)
        assert ev == GlobalEigenvalue(12, ev.value) and ev != lambda_of(6, table_small)
        assert dataclasses.replace(ev, n=6) == GlobalEigenvalue(6, ev.value)
        assert repr(ev) == f"GlobalEigenvalue(n=12, value={ev.value!r})"
        assert len({ev, twin, lambda_of(6, table_small)}) == 2
        back = pickle.loads(pickle.dumps(ev))
        assert back == ev and type(back.n) is int and type(back.value) is float
        assert not hasattr(ev, "__dict__")


class TestEnumerate:
    def test_first_entry_is_n1(self, table_small):
        evs = enumerate_spectrum(table_small, 100)
        assert evs[0].n == 1
        assert evs[0].value == table_small.base_product
        assert list(enumerate_spectrum(table_small, 1)) == [evs[0]]

    def test_descending_and_positive(self, table_small):
        vals = [e.value for e in enumerate_spectrum(table_small, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= table_small.base_product for v in vals)

    def test_exactly_n_max_entries(self, table_small):
        evs = enumerate_spectrum(table_small, 321)
        assert len(evs) == 321
        assert len(set(evs.n.tolist())) == 321

    def test_ten_thousand_entries_bounded(self, table_counting):
        vals = np.array([e.value for e in enumerate_spectrum(table_counting, 10_000)])
        assert np.all(vals > 0.0)
        assert np.all(vals <= table_counting.base_product)

    def test_needs_coverage(self, table_small):
        # the search at table_small's coverage edge lists 1324 values above 1/t
        match = r"lists 1324 of the n_max = 5000 values .*; the bound .* on primes above p_max=2000"
        with pytest.raises(EnumerationInfeasible, match=match):
            enumerate_spectrum(table_small, 5000)

    def test_rejects_n_max_below_one(self, table_small):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            enumerate_spectrum(table_small, 0)

    def test_matches_lambda_of(self, table_small):
        for e in enumerate_spectrum(table_small, 200):
            assert e.value == lambda_of(e.n, table_small).value

    def test_bit_identical_to_sieve_order(self, table_small):
        # lambda_of over every n <= p_max, ranked by lexsort; the search at
        # table_small's coverage edge lists no index above p_max
        n, vals = _oracle_ranked(table_small, 2000, 1000)
        evs = enumerate_spectrum(table_small, 1000)
        assert [(e.n, e.value) for e in evs] == list(zip(n.tolist(), vals.tolist()))
        assert all(type(e.n) is int and type(e.value) is float for e in evs)

    def test_ties_rank_by_ascending_n(self, table_small):
        # a table whose first ratio for p = 7 equals the second for p = 2,
        # so lambda_(4m) = lambda_(7m) to the bit for m prime to 14: lambda_4
        # and lambda_7 tie across rank 5, where the search lists 7 first,
        # and ties run throughout
        t = table_small
        ratios = t.kept_ratios.copy()
        ratios[t.offsets[3]] = ratios[t.offsets[0] + 1]
        tied = spectrum.GlobalSpectrumTable(
            t.params, t.p_max, t.floor, t.primes, t.lambda0, t.offsets, ratios, t.trunc_orders
        )
        n, vals = _oracle_ranked(tied, 2000, 300)
        assert n[4:6].tolist() == [4, 7] and vals[4] == vals[5]
        for top in (5, 6, 300):
            evs = enumerate_spectrum(tied, top)
            assert np.array_equal(evs.n, n[:top])
            assert evs.values.tobytes() == vals[:top].tobytes()

    def test_entries_frozen_and_hashable(self, table_small):
        evs = enumerate_spectrum(table_small, 50)
        with pytest.raises(dataclasses.FrozenInstanceError):
            evs[0].value = 0.0
        assert len(set(evs)) == 50
        assert hash(evs[3]) == hash(dataclasses.replace(evs[3]))

    def test_view_length_and_items(self, table_small):
        evs = enumerate_spectrum(table_small, 300)
        listed = list(evs)
        assert len(evs) == 300
        for i in (0, 7, -1):
            assert evs[i] == listed[i]
            assert type(evs[i].n) is int and type(evs[i].value) is float
        with pytest.raises(IndexError):
            evs[300]
        with pytest.raises(IndexError):
            evs[-301]

    @pytest.mark.parametrize(
        "a, b, step", [(0, 5, None), (10, 40, 2), (5, 5, None), (-3, None, None)]
    )
    def test_view_slices_are_lists(self, a, b, step, table_small):
        evs = enumerate_spectrum(table_small, 300)
        got = evs[a:b:step]
        assert type(got) is list
        assert got == list(evs)[a:b:step]

    def test_view_arrays_read_only(self, table_small):
        evs = enumerate_spectrum(table_small, 50)
        assert evs.n.dtype == np.int64 and evs.values.dtype == np.float64
        with pytest.raises(ValueError):
            evs.n[0] = 2
        with pytest.raises(ValueError):
            evs.values[0] = 0.0

    def test_builds_records_only_when_read(self, table_counting, monkeypatch):
        built = []

        def counting(n, value):
            built.append(n)
            return GlobalEigenvalue(n, value)

        monkeypatch.setattr(spectrum, "GlobalEigenvalue", counting)
        evs = enumerate_spectrum(table_counting, 10_000)
        assert built == []
        top = evs[:5]
        assert len(built) == 5 and [e.n for e in top] == built
        evs[-1]
        assert len(built) == 6

    def test_refuses_an_index_past_the_int64_range(self, table_small, monkeypatch):
        # the guard, tried at a small limit: n = 1009 lies among the top 1000
        monkeypatch.setattr(spectrum, "_INDEX_MAX", 1000)
        assert enumerate_spectrum(table_small, 10).n.max() <= 1000
        with pytest.raises(EnumerationInfeasible, match="an index past 1000"):
            enumerate_spectrum(table_small, 1000)

    @pytest.mark.parametrize("n_max", [300, np.int64(300), np.int32(300)])
    def test_accepts_python_and_numpy_integers(self, n_max, table_small):
        evs = enumerate_spectrum(table_small, n_max)
        assert list(evs) == list(enumerate_spectrum(table_small, 300))

    @pytest.mark.parametrize("n_max", [10.0, 10.5, np.float64(10.0)])
    def test_rejects_float_n_max(self, n_max, table_small):
        with pytest.raises(TypeError, match="n_max must be an integer"):
            enumerate_spectrum(table_small, n_max)


class TestCounting:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite_t(self, table_small, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            counting_mu(table_small, t)

    def test_zero_below_inverse_top(self, table_small):
        r = counting_mu(table_small, 0.9 / table_small.base_product)
        assert r.mu == 0

    def test_monotone(self, table_counting):
        mus = [counting_mu(table_counting, t).mu for t in (5.0, 50.0, 500.0, 5000.0)]
        assert all(a <= b for a, b in zip(mus, mus[1:]))

    def test_matches_direct_enumeration(self, table_small):
        t = 200.0
        r = counting_mu(table_small, t)
        vals = np.array([e.value for e in enumerate_spectrum(table_small, 1000)])
        assert vals[-1] <= 1.0 / t and r.mu == int((vals > 1.0 / t).sum())

    def test_rank_consistency(self, table_counting):
        evs = enumerate_spectrum(table_counting, 500)
        vals = np.array([e.value for e in evs])
        for rank in (1, 7, 50, 200):
            t = 1.0 / vals[rank - 1]
            r = counting_mu(table_counting, t)
            assert r.mu == int((vals > 1.0 / t).sum())

    def test_envelope_constant_reported(self, table_counting):
        r = counting_mu(table_counting, 100.0)
        assert r.mu_lo <= r.mu <= r.mu_hi
        env = table_counting.envelope()
        x = 1.0 / (100.0 * env.prefactor)
        assert r.margin == x / max(env.cap, env.beyond) and r.margin > 1.0

    def test_infeasible_reports_requirement(self, table_small):
        with pytest.raises(EnumerationInfeasible, match="primes above p_max=2000"):
            counting_mu(table_small, 1e6)  # 1/t is below the bound on p > 2000

    def test_search_equals_sieve_at_rho_half(self, table_half_1e6):
        # every n with lambda_n > 1/200 at (1/4, 1) is at most p_max = 10^6,
        # so lambda_of over n <= p_max is the reference
        t = 200.0
        r = counting_mu(table_half_1e6, t)
        ref = _oracle(table_half_1e6, 10**6)
        assert r.mu == np.count_nonzero(ref > 1.0 / t) == 227_035
        assert r.mu_lo <= r.mu <= r.mu_hi and r.margin > 1.0
        with pytest.raises(EnumerationInfeasible):
            counting_mu(table_half_1e6, 1000.0)

    @given(t=st.floats(0.5, 1000.0))
    @settings(max_examples=60, deadline=None)
    def test_search_equals_sieve(self, t, table_small, sieve_small):
        # at t <= 1000 every n with lambda_n > 1/t is at most p_max = 2000
        r = counting_mu(table_small, t)
        assert r.mu == np.count_nonzero(sieve_small > 1.0 / t)
        assert r.mu_lo <= r.mu <= r.mu_hi

    def test_search_bound_cached_per_table(self):
        table = build_table(P25, 2000)
        before = len(pickle.dumps(table))
        first = counting_mu(table, 300.0)
        bounds = table.ratio_bounds
        assert "ratio_bounds" in table.__dict__
        assert not any(a.flags.writeable for a in bounds)
        assert counting_mu(table, 300.0) == first
        enumerate_spectrum(table, 1000)
        lambda_of(6, table)
        assert table.ratio_bounds is bounds
        back = pickle.loads(pickle.dumps(table))
        assert "ratio_bounds" not in back.__dict__ and "power_ratio" not in back.__dict__
        assert counting_mu(back, 300.0) == first
        assert len(pickle.dumps(table)) == before

    def test_search_bound_matches_row_loop(self, table_small):
        _check_bounds_against_row_loop(table_small)

    @pytest.mark.parametrize("floor", [0.3, 0.9])
    def test_search_bound_with_rows_that_keep_none(self, floor):
        # most rows (floor 0.3) or all of them (0.9) keep no ratio
        _check_bounds_against_row_loop(build_table(P25, 50, target_floor=floor))

    @pytest.mark.parametrize("name", ["table_small", "table_counting", "table_half_1e6"])
    def test_stored_envelope_is_the_formula(self, name, request):
        table = request.getfixturevalue(name)
        env, p_max, params = table.envelope(), table.p_max, table.params
        assert table.envelope() is env
        assert env.cap == _envelope_loop(table)
        assert env.beyond == best_envelope(p_max, params).c_upper * p_max**-params.rho
        assert env.prefactor == table.base_product * math.exp(table.tail_exponent_bound)

    @pytest.mark.parametrize("p", [2003, 2011, 10_007, 1_000_003])
    def test_beyond_bounds_primes_above_p_max(self, p, table_small):
        beyond = table_small.envelope().beyond
        assert beyond >= best_envelope(p, P25).c_upper * p**-P25.rho
        eig = local_spectrum(p, P25).eigenvalues
        assert beyond >= eig[1] / eig[0]

    def test_uncertified_regime_still_enumerates(self):
        # rho = 0.15 at p_max = 10 admits no tail certificate, but the
        # product formula itself must keep working
        pars = SpectralParams(0.425, 1.0)
        table = build_table(pars, 10, target_floor=0.2)
        assert math.isinf(table.tail_exponent_bound)
        assert lambda_of(6, table).value > 0
        with pytest.raises(CertificateUnavailable):
            counting_mu(table, 10.0)


def _check_bounds_against_row_loop(t):
    """ratio_hi and ratio_lo equal a per-ratio loop bit for bit, and
    -reach[i] is the largest ratio_hi of a first ratio lambda_1 / lambda_0
    over the rows from i on."""
    hi, lo = np.empty(t.kept_ratios.size), np.empty(t.kept_ratios.size)
    best, want = 0.0, np.zeros(len(t))
    for i in reversed(range(len(t))):
        l0, e = t.lambda0[i], t.tail_bounds[i] + spectrum._SOLVER_MARGIN
        for j in range(t.offsets[i], t.offsets[i + 1]):
            lamk = t.kept_ratios[j] * l0
            hi[j] = min((lamk + e) / (l0 - e), 1.0)
            lo[j] = max(lamk - e, 0.0) / (l0 + e)
        if t.lengths[i]:
            best = max(best, hi[t.offsets[i]])
        want[i] = -best
    ratio_hi, ratio_lo, reach = t.ratio_bounds
    assert ratio_hi.tobytes() == hi.tobytes()
    assert ratio_lo.tobytes() == lo.tobytes()
    assert np.array_equal(reach, want)


@pytest.fixture(scope="module")
def table_half_1e6():
    return build_table(SpectralParams(0.25, 1.0), 10**6)


@pytest.fixture(scope="module")
def sieve_small(table_small):
    return _oracle(table_small, 2000)


class TestFiniteSections:
    def test_one_by_one(self):
        assert finite_section_eigs(P25, 1).tolist() == [1.0]

    def test_two_by_two_quadratic_formula(self):
        b = 2.0 ** (P25.sigma - P25.tau)
        d = 2.0 ** (-P25.rho)
        disc = math.sqrt((1 - d) ** 2 / 4 + b * b)
        expected = np.array([(1 + d) / 2 + disc, (1 + d) / 2 - disc])
        got = finite_section_eigs(P25, 2)
        assert np.allclose(got, expected, rtol=1e-13)

    def test_two_by_two_determinant(self):
        A = entry_matrix(P25, 2)
        det = np.linalg.det(A)
        derived = 2.0 ** (2 * P25.sigma - P25.tau) * (1 - 2.0 ** (-P25.tau))
        assert det == pytest.approx(derived, rel=1e-13)

    def test_top5_nondecreasing_in_n(self):
        tops = [finite_section_eigs(P25, N)[:5] for N in (64, 256)]
        assert np.all(tops[1] >= tops[0] - 1e-12)

    def test_rejects_unbounded_regime(self):
        with pytest.raises(InvalidRegime):
            finite_section_eigs(SpectralParams(1.0, 1.0), 8)

    @pytest.mark.parametrize("N", [3.7, 3.0, np.float64(3.0)])
    def test_rejects_float_size(self, N):
        for section in (entry_matrix, finite_section_eigs):
            with pytest.raises(TypeError, match="N must be an integer"):
                section(P25, N)

    def test_accepts_numpy_integer_size(self):
        assert np.array_equal(finite_section_eigs(P25, np.int64(8)), finite_section_eigs(P25, 8))

    def test_dominated_by_product_formula(self, table_counting):
        prod_vals = np.array(
            [e.value for e in enumerate_spectrum(table_counting, 2000)]
        )
        for N in (64, 128):
            fs = finite_section_eigs(P25, N)
            k = min(fs.size, 60)
            tol = 1e-8 + table_counting.tail_exponent_bound
            assert np.all(fs[:k] <= prod_vals[:k] + tol)


class TestScalingLaw:
    def test_running_median_approaches_kappa(self, table_counting):
        # rank * lambda_(rank) has running median over [N/2, N] tending to
        # kappa = 1
        sorted_vals = enumerate_spectrum(table_counting, 10_000).values
        devs = []
        for N in (500, 2000, 10_000):
            ranks = np.arange(1, N + 1, dtype=float)
            scaled = ranks * sorted_vals[:N]
            devs.append(abs(np.median(scaled[N // 2 - 1 :]) - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-3


def _row_ratios(table, i):
    """Kept lambda_k / lambda_0, k >= 1, of row i of a table (descending)."""
    return table.kept_ratios[table.offsets[i] : table.offsets[i + 1]]


def _per_order_table(params, p_max, floor=DEFAULT_FLOOR):
    """lambda0, offsets and kept ratios of build_table, solved one run of
    equal truncation order at a time with a scalar K, through the same
    floor cut."""
    primes = primes_up_to(p_max)
    orders = truncation_order(primes, params, floor)
    lambda0, lengths, ratios = [], [], []
    # K falls with p, so the runs come in descending K
    for K in np.unique(orders)[::-1]:
        eig = block_eigenvalues(primes[orders == K], params, int(K))
        kept = eig > floor
        lambda0.append(eig[:, 0])
        lengths.append(kept.sum(axis=1) - 1)
        ratios.append((eig[:, 1:] / eig[:, :1])[kept[:, 1:]])
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(lengths))))
    return np.concatenate(lambda0), offsets, np.concatenate(ratios)


def _local_from_row(table, i):
    """The LocalSpectrum of row i, rebuilt from the stored ratios."""
    eig = np.concatenate([[1.0], _row_ratios(table, i)]) * table.lambda0[i]
    return LocalSpectrum(int(table.trunc_orders[i]), eig)


def _envelope_loop(table):
    """cap from a per-prime loop: the floor plus the largest error allowance."""
    return max(table.floor + float(table.tail_bounds[i]) + 1e-13 for i in range(len(table)))


@pytest.fixture(scope="module")
def table_half():
    return build_table(SpectralParams(0.25, 1.0), 300, target_floor=1e-8)


@pytest.fixture(scope="module")
def values_counting(table_counting):
    return enumerate_spectrum(table_counting, 50_000)


class TestFlatTable:
    def test_layout(self, table_small):
        t = table_small
        assert t.offsets[0] == 0 and t.offsets[-1] == t.kept_ratios.size
        assert np.all(t.lengths >= 1)
        for i in range(len(t)):
            r = _row_ratios(t, i)
            assert np.all(np.diff(r) <= 0) and 0 < r[0] < 1
            assert np.all(r * t.lambda0[i] > t.floor)

    def test_read_only(self, table_small):
        for a in (table_small.kept_ratios, table_small.offsets, table_small.lambda0,
                  table_small.trunc_orders):
            assert not a.flags.writeable

    def test_trunc_orders_are_the_solved_orders(self, table_small):
        t = table_small
        assert t.trunc_orders.dtype == np.int64
        assert np.array_equal(t.trunc_orders, truncation_order(t.primes, t.params, t.floor))

    def test_kappa_path_builds_no_row_index(self):
        spectrum.prime_power_index.cache_clear()
        table = build_table(P25, 2000)
        table.envelope()
        kappa_numeric(P25, table=table)
        assert spectrum.prime_power_index.cache_info().currsize == 0
        assert "power_ratio" not in table.__dict__
        assert "ratio_bounds" not in table.__dict__

    def test_row_index_built_on_first_lookup_and_read_only(self):
        spectrum.prime_power_index.cache_clear()
        table = build_table(P25, 2000)
        lambda_of(6, table)
        assert spectrum.prime_power_index.cache_info().currsize == 1
        assert "power_ratio" in table.__dict__
        index = spectrum.prime_power_index(2000)
        assert not any(a.flags.writeable for a in (*index, table.power_ratio))
        assert index.power_of.dtype == np.int32
        assert table.power_ratio.shape == index.powers.shape
        # a second table at the same p_max shares the index
        other = build_table(P25, 2000, target_floor=1e-3)
        lambda_of(6, other)
        assert spectrum.prime_power_index.cache_info().misses == 1
        assert spectrum.prime_power_index(2000) is index

    def test_ranking_builds_no_row_index(self):
        spectrum.prime_power_index.cache_clear()
        table = build_table(P25, 2000)
        enumerate_spectrum(table, 1000)
        counting_mu(table, 300.0)
        assert spectrum.prime_power_index.cache_info().currsize == 0
        assert "power_ratio" not in table.__dict__
        lambda_of(6, table)
        assert spectrum.prime_power_index.cache_info().currsize == 1
        assert "power_ratio" in table.__dict__

    def test_pickles_after_first_use(self):
        table = build_table(P25, 2000)
        ns = (1, 6, 1999, 2**9 * 3, 4 * 1999)
        want = [lambda_of(n, table).value for n in ns]
        back = pickle.loads(pickle.dumps(table))
        assert "power_ratio" not in back.__dict__ and "_views" not in back.__dict__
        assert [lambda_of(n, back).value for n in ns] == want

    def test_rejects_primes_that_skip_a_prime(self):
        # rows for the first 100 primes only, at p_max = 2000
        t = build_table(P25, 2000)
        end = int(t.offsets[100])
        short = spectrum.GlobalSpectrumTable(
            t.params, t.p_max, t.floor, t.primes[:100], t.lambda0[:100], t.offsets[:101],
            t.kept_ratios[:end], t.trunc_orders[:100],
        )
        for n in (6, 997, 1999):
            with pytest.raises(ValueError, match="100 primes are not the 303 primes up to p_max=2000"):
                lambda_of(n, short)

    def test_rows_match_single_block_solve(self, table_small):
        for p in (2, 3, 97, 1999):
            i = int(np.searchsorted(table_small.primes, p))
            ref = local_spectrum(p, P25)
            eig = ref.eigenvalues
            assert table_small.trunc_orders[i] == ref.truncation_order
            assert table_small.lambda0[i] == eig[0]
            assert np.array_equal(_row_ratios(table_small, i), eig[1:] / eig[0])

    @pytest.mark.parametrize(
        "sigma, tau, p_max",
        [(0.25, 1.0, 10**4), (0.25, 1.5, 10**4), (0.45, 1.0, 3000), (0.0, 0.6, 10**4),
         (-0.3, 0.3, 10**4)],
    )
    @pytest.mark.parametrize("entry_sweeps", [None, 2**12], ids=["waves", "narrow-waves"])
    def test_waves_match_per_order_solve(self, sigma, tau, p_max, entry_sweeps, monkeypatch):
        # narrow waves split the long runs of equal K at these p_max too
        if entry_sweeps:
            monkeypatch.setattr(spectrum, "_WAVE_ENTRY_SWEEPS", entry_sweeps)
        params = SpectralParams(sigma, tau)
        table = build_table(params, p_max)
        lambda0, offsets, ratios = _per_order_table(params, p_max)
        assert np.array_equal(table.lambda0, lambda0)
        assert np.array_equal(table.offsets, offsets)
        assert np.array_equal(table.kept_ratios, ratios)

    @pytest.mark.parametrize("p_max", [2000.9, 2000.0, np.float64(2000.0)])
    def test_rejects_float_p_max(self, p_max):
        with pytest.raises(TypeError, match="p_max must be an integer"):
            build_table(P25, p_max)

    @pytest.mark.parametrize("p_max", [np.int64(2000), np.int32(2000)])
    def test_accepts_numpy_integer_p_max(self, p_max, table_small):
        table = build_table(P25, p_max)
        assert type(table.p_max) is int and table.p_max == 2000
        assert table.kept_ratios.tobytes() == table_small.kept_ratios.tobytes()

    def test_rebuild_is_byte_identical(self):
        first, second = build_table(P25, 2000), build_table(P25, 2000)
        assert first.lambda0.tobytes() == second.lambda0.tobytes()
        assert first.kept_ratios.tobytes() == second.kept_ratios.tobytes()

    @pytest.mark.parametrize("name", ["table_small", "table_counting"])
    def test_envelope_matches_per_prime_loop(self, name, request):
        table = request.getfixturevalue(name)
        assert table.envelope().cap == _envelope_loop(table)

    @pytest.mark.parametrize("floor", [0.3, 0.9])
    def test_envelope_cap_with_few_or_no_kept_ratios(self, floor):
        # most rows (floor 0.3) or all of them (0.9) keep no ratio; the
        # ratios that a deep floor keeps beyond them lie below the cap
        table = build_table(P25, 50, target_floor=floor)
        cap = table.envelope().cap
        assert cap == _envelope_loop(table)
        deep = build_table(P25, 50)
        for i in range(len(table)):
            assert np.all(_row_ratios(deep, i)[table.lengths[i]:] <= cap)

    @pytest.mark.parametrize("name", ["table_small", "table_half"])
    def test_euler_factors_match_g_p_at(self, name, request):
        table = request.getfixturevalue(name)
        comp = kappa_numeric(table.params, table=table)
        ref = [
            g_p_at(int(p), table.params, comp.s, spectrum=_local_from_row(table, i))
            for i, p in enumerate(table.primes)
        ]
        np.testing.assert_allclose(comp.g_factors, ref, rtol=1e-13, atol=0)

    def test_lambda_values_equal_lambda_of_up_to_2e4(self, values_counting, table_counting):
        # the first 2 * 10^4 ranked values against lambda_of of their indices
        ref = [lambda_of(n, table_counting).value for n in values_counting.n[:20_000].tolist()]
        assert np.array_equal(values_counting.values[:20_000], ref)

    @given(rank=st.integers(1, 50_000))
    @settings(max_examples=400, deadline=None)
    def test_lambda_values_equal_lambda_of(self, rank, values_counting, table_counting):
        e = values_counting[rank - 1]
        assert e.value == lambda_of(e.n, table_counting).value


def _cache_file(directory, p_max=500, floor=1e-8):
    return _cache_path(directory, P25, p_max, floor)


@pytest.fixture(scope="module")
def table_bytes(table_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "table.lsp"
    save_table(table_small, path)
    return path.read_bytes()


class TestPersistence:
    def test_roundtrip(self, table_small, tmp_path):
        path = tmp_path / "table.lsp"
        save_table(table_small, path)
        back = load_table(path)
        assert back is not None
        assert back.params == table_small.params
        assert back.p_max == table_small.p_max
        assert back.floor == table_small.floor
        assert back.base_product == table_small.base_product
        assert back.tail_exponent_bound == table_small.tail_exponent_bound
        for name in ("primes", "offsets", "lambda0", "kept_ratios", "trunc_orders",
                     "tail_bounds"):
            a, b = getattr(back, name), getattr(table_small, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert back.envelope() == table_small.envelope()
        assert os.listdir(tmp_path) == ["table.lsp"]  # no temporary file left

    def test_build_uses_cache(self, tmp_path):
        t1 = build_table(P25, 500, cache_dir=tmp_path)
        files = os.listdir(tmp_path)
        assert len(files) == 1
        t2 = build_table(P25, 500, cache_dir=tmp_path)
        assert t2.base_product == t1.base_product

    def test_magic_mismatch_returns_none(self, tmp_path):
        path = tmp_path / "junk.lsp"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        assert load_table(path) is None

    @pytest.mark.parametrize("size", [0, 20, 56, 2000, -1])
    def test_short_file_returns_none(self, size, table_bytes, tmp_path):
        path = tmp_path / "table.lsp"
        path.write_bytes(table_bytes[:size])
        assert load_table(path) is None

    def test_other_version_returns_none(self, table_bytes, tmp_path):
        path = tmp_path / "table.lsp"
        path.write_bytes(table_bytes[:4] + b"\x01\x00\x00\x00" + table_bytes[8:])
        assert load_table(path) is None

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_corrupt_byte_returns_none(self, data, table_bytes, tmp_path_factory):
        raw = bytearray(table_bytes)
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= data.draw(st.integers(1, 255))
        path = tmp_path_factory.getbasetemp() / "fuzz.lsp"
        path.write_bytes(bytes(raw))
        assert load_table(path) is None

    def test_corrupt_cache_is_rebuilt(self, tmp_path):
        fresh = build_table(P25, 500, target_floor=1e-8, cache_dir=tmp_path)
        path = _cache_file(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(2000)
        back = build_table(P25, 500, target_floor=1e-8, cache_dir=tmp_path)
        assert np.array_equal(back.kept_ratios, fresh.kept_ratios)
        assert load_table(path) is not None  # rewritten whole

    def test_version_2_file_is_rebuilt(self, tmp_path):
        fresh = build_table(P25, 500, target_floor=1e-8)
        P, R = len(fresh.primes), fresh.kept_ratios.size
        # version 2 stored a per-prime overlap column between lambda0 and the ratios
        body = _HEADER.pack(b"LSPC", 2, P25.sigma, P25.tau, 1e-8, 500, P, R)
        body += np.concatenate((fresh.primes, fresh.offsets)).astype("<i8").tobytes()
        body += np.concatenate((fresh.lambda0, np.ones(P), fresh.kept_ratios)).astype("<f8").tobytes()
        path = _cache_file(tmp_path)
        with open(path, "wb") as fh:
            fh.write(body + struct.pack("<I", zlib.crc32(body)))
        assert load_table(path) is None
        back = build_table(P25, 500, target_floor=1e-8, cache_dir=tmp_path)
        assert np.array_equal(back.kept_ratios, fresh.kept_ratios)
        assert load_table(path) is not None  # rewritten in the current format

    def test_mismatched_header_is_a_miss(self, tmp_path):
        # a valid file under the name of another request must not answer it
        save_table(build_table(P25, 500, target_floor=1e-8), _cache_file(tmp_path, p_max=600))
        table = build_table(P25, 600, target_floor=1e-8, cache_dir=tmp_path)
        assert table.p_max == 600 and table.primes[-1] == 599
        assert load_table(_cache_file(tmp_path, p_max=600)).p_max == 600

    def test_floor_keyed_exactly(self, tmp_path):
        assert _cache_file(tmp_path, floor=1e-8) != _cache_file(tmp_path, floor=1.0000001e-8)
        build_table(P25, 200, target_floor=1e-8, cache_dir=tmp_path)
        table = build_table(P25, 200, target_floor=1.0000001e-8, cache_dir=tmp_path)
        assert table.floor == 1.0000001e-8
        assert len(os.listdir(tmp_path)) == 2

