import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmspectra import (
    CertificateUnavailable,
    EigensolverError,
    InvalidRegime,
    SpectralParams,
    a_norm_squared,
    best_envelope,
    block_eigenvalues,
    build_local_matrix,
    build_table,
    corner_quadratic_form,
    hs_bound_squared,
    local_spectra,
    local_spectrum,
    primes_up_to,
    sandwich_envelope,
    top_eig_certificate,
    truncation_order,
)
from lcmspectra import local
from lcmspectra.local import DEFAULT_FLOOR
from lcmspectra.spectrum import _SOLVER_MARGIN

P25 = SpectralParams(0.25, 1.5)


def top_eigenvector_overlap(p: float, params: SpectralParams, K: int) -> float:
    """|first component| of the top eigenvector of the K x K block at p."""
    _, vecs = np.linalg.eigh(build_local_matrix(p, params, K))
    return float(abs(vecs[0, -1]))


def reversed_factor(p, params: SpectralParams, K: int):
    """q and e of the reversed factor J B^(-T) J at the bases p, one row per
    base, built as block_eigenvalues builds them; e[:, i] couples positions
    i and i + 1."""
    logp = np.log(np.atleast_1d(np.asarray(p, dtype=float))).reshape(-1, 1)
    j = np.arange(K, dtype=float)
    one_minus_x = -np.expm1(-params.tau * logp)
    q = np.exp(params.rho * j * logp) / one_minus_x
    q[:, -1] = np.exp(params.rho * (K - 1) * logp[:, 0])
    e = np.exp((params.rho * j[1:] - params.tau) * logp) / one_minus_x
    return q[:, ::-1].copy(), e[:, ::-1].copy()


def sweep_sequentially(q, e, K: int):
    """dqd sweeps in place, one after another: the stopping test after each
    whole sweep, then the (K - 1) // 2 sweeps the wavefront has in flight
    when one passes.  Returns the number of sweeps after which the test
    first passed."""
    sweeps, passed = 0, None
    while passed is None or sweeps < passed + (K - 1) // 2:
        if passed is None and np.all(e <= local._DQD_TOL * q[:, 1:]):
            passed = sweeps
            continue
        d = q[:, 0].copy()
        for i in range(K - 1):
            q[:, i] = d + e[:, i]
            t = q[:, i + 1] / q[:, i]
            e[:, i] *= t
            d *= t
        q[:, -1] = d
        sweeps += 1
    return passed


def sequential_dqd(p, params: SpectralParams, K: int):
    """block_eigenvalues as one sweep after another: the same dqd steps on
    the same entries, the stopping test after each whole sweep, then the
    (K - 1) // 2 sweeps the wavefront has in flight when one passes.

    Returns the rows of descending eigenvalues, one per base, and the
    number of sweeps after which the stopping test first passed.
    """
    q, e = reversed_factor(p, params, K)
    passed = sweep_sequentially(q, e, K)
    return np.sort(1.0 / q, axis=1)[:, ::-1], passed


def padded_sequential_dqd(ps, params: SpectralParams, orders):
    """block_eigenvalues of a batch with per-base orders as one sweep after
    another: each factor padded to the largest order K with q = 1 and
    e = 0, the batch swept until it passes the stopping test and then for
    the (K - 1) // 2 sweeps in flight, each row sorted with its padding 0."""
    K = int(max(orders))
    q, e = np.ones((len(ps), K)), np.zeros((len(ps), K - 1))
    for b, (p, k) in enumerate(zip(ps, orders)):
        q[b, :k], e[b, : k - 1] = (x[0] for x in reversed_factor(p, params, int(k)))
    sweep_sequentially(q, e, K)
    lam = 1.0 / q
    lam[np.arange(K) >= np.asarray(orders)[:, None]] = 0.0
    return np.sort(lam, axis=1)[:, ::-1]


def top_overlap(p: float, params: SpectralParams) -> float:
    """The overlap at the truncation order local_spectrum uses."""
    return top_eigenvector_overlap(p, params, truncation_order(p, params, DEFAULT_FLOOR))


class TestBuildMatrix:
    def test_explicit_3x3(self):
        A = build_local_matrix(2, SpectralParams(0.0, 1.0), 3)
        expected = np.array(
            [[1.0, 0.5, 0.25], [0.5, 0.5, 0.25], [0.25, 0.25, 0.25]]
        )
        assert np.allclose(A, expected, rtol=0, atol=1e-15)

    def test_off_diagonal_entry(self):
        A = build_local_matrix(3, P25, 4)
        assert A[0, 1] == pytest.approx(3 ** (-1.25), rel=1e-14)

    def test_diagonal(self):
        A = build_local_matrix(5, P25, 6)
        k = np.arange(6)
        assert np.allclose(np.diag(A), 5.0 ** (-P25.rho * k), rtol=1e-14)

    def test_exactly_symmetric(self):
        A = build_local_matrix(7, P25, 10)
        assert np.array_equal(A, A.T)

    def test_stack_of_bases_matches_single_blocks(self):
        ps = np.array([2, 3, 7, 1999])
        stack = build_local_matrix(ps, P25, 6)
        assert stack.shape == (4, 6, 6)
        for p, A in zip(ps, stack):
            assert np.array_equal(A, build_local_matrix(int(p), P25, 6))

    def test_rejects_base_at_most_one(self):
        with pytest.raises(ValueError):
            build_local_matrix(np.array([2.0, 1.0]), P25, 3)

    def test_truncation_order_vectorises(self):
        ps = primes_up_to(2000)
        for params in (P25, SpectralParams(0.25, 1.0)):
            Ks = truncation_order(ps, params, 1e-14)
            assert Ks.dtype == np.int64
            assert Ks.tolist() == [truncation_order(int(p), params, 1e-14) for p in ps]
            assert Ks[0] == math.ceil(math.log(1e-15) / (-params.rho * math.log(2))) + 2

    def test_truncation_order_rejects_nan_base(self):
        with pytest.raises(ValueError):
            truncation_order(math.nan, P25, 1e-14)

    @pytest.mark.parametrize("sigma, tau", [(0.5, 1.0), (0.6, 1.0)])
    def test_truncation_order_rejects_rho_at_most_zero(self, sigma, tau):
        with pytest.raises(InvalidRegime):
            truncation_order(2, SpectralParams(sigma, tau), 1e-14)

    @pytest.mark.parametrize("floor", [2.0, 1.0, 0.0, math.nan])
    def test_truncation_order_rejects_floor_outside_unit_interval(self, floor):
        with pytest.raises(ValueError):
            truncation_order(2, P25, floor)


# (p, params) blocks checked against 30-digit mpmath: the largest block of a
# rho = 1/2 table (K = 102), two rho = 1 blocks, and two regimes where the
# LAPACK drivers lose relative accuracy on the small eigenvalues
ORACLE_CASES = [
    (2, SpectralParams(0.25, 1.0)),
    (3, P25),
    (101, P25),
    (3, SpectralParams(0.0, 0.5)),
    (3, SpectralParams(-0.45, 0.1)),
]


@pytest.fixture(
    scope="module",
    params=ORACLE_CASES,
    ids=[f"p{p}-s{pr.sigma}-t{pr.tau}" for p, pr in ORACLE_CASES],
)
def mp_block(request):
    """(p, params, K, eigenvalues descending, top overlap) from mpmath.eigsy."""
    p, params = request.param
    K = truncation_order(p, params, DEFAULT_FLOOR)
    with mpmath.workdps(30):
        s, t, base = mpmath.mpf(params.sigma), mpmath.mpf(params.tau), mpmath.mpf(p)
        A = mpmath.matrix(
            [[base ** (s * (j + k) - t * max(j, k)) for k in range(K)] for j in range(K)]
        )
        E, Q = mpmath.eigsy(A)
        order = sorted(range(K), key=lambda i: -E[i])
        eig = np.array([float(E[i]) for i in order])
        overlap = float(abs(Q[0, order[0]]))
    return p, params, K, eig, overlap


class TestBlockSolver:
    def test_matches_mpmath(self, mp_block):
        p, params, K, ref, _ = mp_block
        got = block_eigenvalues(p, params, K)
        kept = ref > DEFAULT_FLOOR
        assert np.array_equal(got > DEFAULT_FLOOR, kept)
        err = np.abs(got[kept] - ref[kept])
        assert np.max(err / ref[kept]) < 1e-13
        assert np.max(err) < _SOLVER_MARGIN / 10

    def test_top_overlap_matches_mpmath(self, mp_block):
        p, params, K, _, overlap = mp_block
        assert abs(top_eigenvector_overlap(p, params, K) - overlap) < 1e-13

    def test_matches_lapack_on_local_blocks(self):
        for p in (2, 3, 17, 101):
            K = truncation_order(p, P25, 1e-14)
            eig = block_eigenvalues(p, P25, K)
            ref = np.linalg.eigvalsh(build_local_matrix(p, P25, K))[::-1]
            assert np.max(np.abs(eig - ref)) < 1e-12

    @pytest.mark.parametrize(
        "p, params, K",
        [(2, SpectralParams(0.25, 1.0), 102), (3, P25, 34), (7, SpectralParams(-0.45, 0.1), 20),
         (np.array([2.0, 3.0, 7.0, 1999.0]), P25, 8), (np.array([2.0, 3.0, 7.0, 1999.0]), P25, 9),
         (5, P25, 2), (5, P25, 3), (5, P25, 1)],
        ids=["p2-K102", "p3-K34", "p7-K20", "batch-K8", "batch-K9", "p5-K2", "p5-K3", "p5-K1"],
    )
    def test_wavefront_equals_sequential_sweeps(self, p, params, K, monkeypatch):
        ref, passed = sequential_dqd(p, params, K)
        got = block_eigenvalues(p, params, K).reshape(-1, K)
        assert np.array_equal(got, ref)
        # the stopping test passes after the same sweep as in the reference
        monkeypatch.setattr(local, "_sweep_cap", lambda *args: passed)
        block_eigenvalues(p, params, K)
        if passed > 0:
            monkeypatch.setattr(local, "_sweep_cap", lambda *args: passed - 1)
            with pytest.raises(EigensolverError):
                block_eigenvalues(p, params, K)

    def test_overlap_is_first_eigvector_component(self):
        w, v = np.linalg.eigh(build_local_matrix(5, P25, 12))
        assert top_eigenvector_overlap(5, P25, 12) == abs(v[0, -1])

    def test_batch_matches_single_blocks(self):
        ps = np.array([[2.0, 3.0], [7.0, 1999.0]])
        for K in (3, 8, 9):
            stack = block_eigenvalues(ps, P25, K)
            assert stack.shape == (2, 2, K)
            for p, eig in zip(ps.ravel(), stack.reshape(4, K)):
                assert np.array_equal(eig, block_eigenvalues(p, P25, K))

    @pytest.mark.parametrize(
        "params, ps",
        [(P25, [2.0, 3.0, 7.0, 1999.0]), (SpectralParams(0.45, 1.0), [2.0, 3.0, 5.0, 97.0]),
         (SpectralParams(-0.3, 0.3), [2.0, 11.0, 101.0])],
        ids=["rho1", "rho0.1", "rho0.9"],
    )
    def test_mixed_orders_match_scalar_solves(self, params, ps):
        # per-base orders of at least 3, padded to the largest: each row is
        # its own scalar-K solve to the bit, then zeros
        ps = np.array(ps)
        orders = truncation_order(ps, params, DEFAULT_FLOOR)
        for K in (orders, orders[::-1], np.array([3, 9, 4, 6])[: ps.size]):
            got = block_eigenvalues(ps, params, K)
            assert got.shape == (ps.size, K.max())
            for p, k, row in zip(ps, K, got):
                assert np.array_equal(row[:k], block_eigenvalues(p, params, int(k)))
                assert not row[k:].any()

    def test_uniform_wave_reverses_without_sorting(self, monkeypatch):
        # 256 consecutive primes above 10^5, all at one order, as in the
        # unpadded waves of a table build: dqd leaves every row rising, so
        # the rows come back reversed, with no sort, and equal the
        # sequential sweeps to the bit
        params = SpectralParams(0.25, 1.0)
        primes = primes_up_to(120_000)
        ps = primes[primes > 100_000][:256].astype(float)
        orders = truncation_order(ps, params, DEFAULT_FLOOR)
        K = int(orders[0])
        assert ps.size == 256 and (orders == K).all()
        ref, _ = sequential_dqd(ps, params, K)

        def no_sort(*args, **kwargs):
            raise AssertionError("an unpadded wave whose rows rise was sorted")

        monkeypatch.setattr(np, "sort", no_sort)
        assert np.array_equal(block_eigenvalues(ps, params, orders), ref)

    def test_rejects_order_below_one(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            block_eigenvalues(np.array([2.0, 3.0]), P25, np.array([4, 0]))

    def test_order_limit(self, monkeypatch):
        monkeypatch.setattr(local, "MAX_ORDER", 34)
        ref = np.linalg.eigvalsh(build_local_matrix(3, P25, 34))[::-1]
        np.testing.assert_allclose(block_eigenvalues(3, P25, 34), ref, rtol=1e-12)
        # the batch's largest order decides, and the message names the
        # order, the limit and the smallest base
        match = r"block order K = 35 exceeds the limit 34 at the smallest base p = 3\.0"
        with pytest.raises(ValueError, match=match):
            block_eigenvalues(np.array([5.0, 3.0]), P25, np.array([20, 35]))
        with pytest.raises(ValueError, match="exceeds the limit 34"):
            local_spectrum(2, P25)

    # the longest blocks of small-rho tables: rho = 0.1 at p = 2 and 3, rho = 0.2 at p = 2
    @pytest.mark.parametrize(
        "p, params, K",
        [(2, SpectralParams(0.45, 1.0), 501), (3, SpectralParams(0.45, 1.0), 317),
         (2, SpectralParams(0.4, 1.0), 252)],
        ids=["rho0.1-p2", "rho0.1-p3", "rho0.2-p2"],
    )
    def test_long_blocks_keep_trace_identities(self, p, params, K):
        assert truncation_order(p, params, DEFAULT_FLOOR) == K
        eig = block_eigenvalues(p, params, K)
        A = build_local_matrix(p, params, K)
        trace = math.fsum(np.diag(A))
        frobenius2 = math.fsum((A * A).ravel())
        assert abs(math.fsum(eig) - trace) <= 1e-13 * trace
        assert abs(math.fsum(eig * eig) - frobenius2) <= 1e-13 * frobenius2

    def test_small_orders(self):
        assert block_eigenvalues(5, P25, 1).tolist() == [1.0]
        ref = np.linalg.eigvalsh(build_local_matrix(5, P25, 2))[::-1]
        np.testing.assert_allclose(block_eigenvalues(5, P25, 2), ref, rtol=1e-14)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            block_eigenvalues(1e300, P25, 3)

    @pytest.mark.filterwarnings("error")
    def test_huge_exponents_raise_without_warnings(self):
        # -rho log p and -tau log p overflow to -inf; the order falls to
        # 3 and the solve reports the overflow of p^(rho (K-1)), with no
        # numpy warning on the way
        params = SpectralParams(0.25, 1e308)
        assert truncation_order(1000.0, params, DEFAULT_FLOOR) == 3
        with pytest.raises(OverflowError, match=r"at K=3, rho=1e\+308, p=1000\.0"):
            block_eigenvalues(1000.0, params, 3)
        with pytest.raises(OverflowError, match="overflows double precision"):
            local_spectra([3.0, 1000.0], [P25, params])

    @pytest.mark.parametrize("params", [P25, SpectralParams(0.45, 1.0)], ids=["rho1", "rho0.1"])
    @pytest.mark.parametrize("K", range(1, 13))
    def test_parity_edges_equal_sequential_sweeps(self, K, params):
        # every parity of K_top and of the orders below it: the top order,
        # one below, 3 and 1 pad from positions of both parities.  The
        # batch equals its padded factor swept sequentially, and each row
        # its own scalar solve, except at order 2, whose last bit may
        # follow the batch's sweep count; the padding is 0.  Unpadded, the
        # batch at K_top equals its sequential sweeps
        ps = np.array([2.0, 3.0, 7.0, 1999.0])
        assert np.array_equal(block_eigenvalues(ps, params, K), sequential_dqd(ps, params, K)[0])
        orders = np.array([K, max(K - 1, 1), min(3, K), 1])
        got = block_eigenvalues(ps, params, orders)
        assert got.shape == (ps.size, K)
        assert np.array_equal(got, padded_sequential_dqd(ps, params, orders))
        for p, k, row in zip(ps, orders, got):
            assert not row[k:].any() and not np.signbit(row[k:]).any()
            if k != 2:
                assert np.array_equal(row[:k], sequential_dqd(p, params, int(k))[0][0])

    @pytest.mark.parametrize("K", [9, None], ids=["one-order", "truncation-orders"])
    def test_per_base_params_equal_sequential_sweeps(self, K):
        # bases at three points in one wave, the same base at two of them:
        # each row is the sequential dqd at its own point and order
        ps = np.array([2.0, 3.0, 2.0, 7.0, 5.0])
        points = [P25, P25, SpectralParams(0.0, 0.5), SpectralParams(0.0, 0.5),
                  SpectralParams(-0.3, 0.3)]
        orders = np.array([truncation_order(p, pt, DEFAULT_FLOOR) for p, pt in zip(ps, points)])
        orders = orders if K is None else np.full(ps.size, K)
        got = block_eigenvalues(ps, points, orders)
        assert got.shape == (ps.size, orders.max())
        for p, point, k, row in zip(ps, points, orders, got):
            ref, _ = sequential_dqd(p, point, int(k))
            assert np.array_equal(row[:k], ref[0])
            assert not row[k:].any()

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.0])
    def test_rejects_non_finite_or_small_base(self, p):
        with pytest.raises(ValueError, match="base p must be finite and exceed 1"):
            block_eigenvalues(np.array([3.0, p]), P25, 3)

    @pytest.mark.parametrize(
        "params", [SpectralParams(-0.5, 0.0), SpectralParams(0.6, 1.0), SpectralParams(0.5, 1.0)],
        ids=["tau-zero", "rho-negative", "rho-zero"],
    )
    def test_rejects_bad_regime(self, params):
        with pytest.raises(InvalidRegime, match="finite rho > 0 and tau > 0"):
            block_eigenvalues(2, params, 5)

    def test_sweep_cap_reads_the_slowest_base(self):
        # per-base rho: the cap is set by the least rho log p in the batch,
        # here rho = 0.1 at p = 3 beside rho = 1 at p = 2, whatever the order
        logp = np.log(np.array([2.0, 3.0]))
        slowest = local._sweep_cap(0.1, logp[1:], 40)
        assert local._sweep_cap(np.array([1.0, 0.1]), logp, 40) == slowest
        assert local._sweep_cap(np.array([0.1, 1.0]), logp[::-1], 40) == slowest
        assert local._sweep_cap(1.0, logp, 40) < slowest

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(local, "_sweep_cap", lambda *args: 1)
        with pytest.raises(EigensolverError, match="within 1 sweeps at K=34"):
            block_eigenvalues(3, P25, 34)
        with pytest.raises(EigensolverError, match="within 1 sweeps"):
            local_spectrum(3, P25)
        # a batch names its smallest base and its size
        with pytest.raises(EigensolverError, match="at K=34, smallest base p=3, 2 bases"):
            block_eigenvalues(np.array([5.0, 3.0]), P25, np.array([20, 34]))


class TestLocalSpectrum:
    def test_trace_identity_rho1(self):
        spectrum = local_spectrum(2, P25)
        assert (1 - 0.5) * math.fsum(spectrum.eigenvalues) == pytest.approx(
            2.0 * 0.5, abs=1e-10
        )

    def test_top_at_least_one(self):
        for p in (2, 3.5, 11, 1009):
            assert local_spectrum(p, P25).eigenvalues[0] >= 1.0

    def test_descending_positive(self):
        spectrum = local_spectrum(3, P25)
        assert np.all(spectrum.eigenvalues > 0)
        assert np.all(np.diff(spectrum.eigenvalues) <= 0)

    def test_trace_dominated_by_truncation(self):
        spectrum = local_spectrum(3, P25)
        K = spectrum.truncation_order
        trunc_trace = float(np.sum(3.0 ** (-P25.rho * np.arange(K))))
        assert math.fsum(spectrum.eigenvalues) <= trunc_trace + 1e-10

    def test_overlap_in_unit_interval(self):
        for p in (2, 13, 199):
            assert 0.0 < top_overlap(p, P25) <= 1.0

    def test_rejects_bad_regime(self):
        with pytest.raises(InvalidRegime):
            local_spectrum(2, SpectralParams(1.0, 1.0))
        with pytest.raises(InvalidRegime):
            local_spectrum(2, SpectralParams(-1.0, -0.5))

    def test_truncation_stability(self):
        # eigenvalues above the floor are unchanged by 5 extra rows
        floor = 1e-14
        for p in (2, 7):
            K = truncation_order(p, P25, floor)
            e1 = block_eigenvalues(p, P25, K)
            e2 = block_eigenvalues(p, P25, K + 5)
            kept1 = e1[e1 > floor]
            kept2 = e2[e2 > floor][: kept1.size]
            assert np.max(np.abs(kept1 - kept2)) < 1e-10

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0])
    def test_rejects_non_finite_or_small_base(self, p):
        with pytest.raises(ValueError):
            local_spectrum(p, P25)

    @pytest.mark.parametrize("sigma, tau", [(math.nan, 1.5), (0.25, math.nan), (0.25, math.inf)])
    def test_rejects_non_finite_exponents(self, sigma, tau):
        with pytest.raises(InvalidRegime):
            local_spectrum(2, SpectralParams(sigma, tau))

    def test_real_base_accepted(self):
        spectrum = local_spectrum(2.71828, P25)
        assert spectrum.eigenvalues[0] >= 1.0

    def test_second_moment_identity_rho_half(self):
        for sigma in (0.0, 0.25):
            pars = SpectralParams(sigma, 0.5 + 2 * sigma)
            for p in (2, 3, 5):
                spectrum = local_spectrum(p, pars)
                lhs = (1 - 1 / p) * math.fsum(spectrum.eigenvalues**2)
                rhs = (1 - p ** -(2 + 4 * sigma)) / (1 - p ** -(1 + 2 * sigma)) ** 2
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLocalSpectra:
    """local_spectra solves its bases as one batch, each at its own order."""

    BASES = (2, 3, 2.5, 97, 1e6)

    @pytest.mark.parametrize("sigma, tau", [(0.25, 1.0), (0.0, 0.5), (0.25, 1.5)])
    def test_matches_single_blocks(self, sigma, tau):
        params = SpectralParams(sigma, tau)
        batch = local_spectra(self.BASES, params)
        assert len(batch) == len(self.BASES)
        for p, got in zip(self.BASES, batch):
            ref = local_spectrum(p, params)
            assert type(got.truncation_order) is int
            assert got.truncation_order == ref.truncation_order
            assert np.array_equal(got.eigenvalues, ref.eigenvalues)

    def test_empty_gives_empty_list(self):
        assert local_spectra([], P25) == []

    @pytest.mark.parametrize("bad", [1.0, math.nan])
    def test_one_bad_base_raises(self, bad):
        with pytest.raises(ValueError, match="base p must be finite and exceed 1"):
            local_spectra([2, bad, 3], P25)

    def test_per_base_params_match_single_calls(self):
        # the same base at two points, rho = 1 beside rho = 1/2 and 0.1,
        # orders from 7 to 217, so every shorter block is padded
        points = [P25, SpectralParams(0.0, 0.5), P25, SpectralParams(0.25, 1.0),
                  SpectralParams(0.45, 1.0), SpectralParams(0.0, 0.5)]
        bases = [2, 2, 97, 3, 5, 1e6]
        batch = local_spectra(bases, points)
        assert len({spec.truncation_order for spec in batch}) == len(batch)
        for p, point, got in zip(bases, points, batch):
            ref = local_spectrum(p, point)
            assert type(got.truncation_order) is int
            assert got.truncation_order == ref.truncation_order
            assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        orders = truncation_order(np.array(bases, dtype=float), points, DEFAULT_FLOOR)
        assert orders.tolist() == [spec.truncation_order for spec in batch]

    def test_one_point_per_base(self):
        with pytest.raises(ValueError, match="2 parameter points for 3 bases"):
            local_spectra([2, 3, 5], [P25, P25])
        assert local_spectra([], []) == []

    def test_invalid_point_is_named(self):
        with pytest.raises(InvalidRegime, match=r"SpectralParams\(sigma=0\.3, tau=0\.5\), point 1"):
            local_spectra([2, 3, 5], [P25, SpectralParams(0.3, 0.5), P25])


class TestTopEigenvalueCheck:
    """local_spectrum and build_table run one floor cut and top check."""

    @pytest.fixture
    def halved(self, monkeypatch):
        solve = local.block_eigenvalues
        monkeypatch.setattr(local, "block_eigenvalues", lambda *args: 0.5 * solve(*args))

    def test_single_block_raises(self, halved):
        with pytest.raises(EigensolverError, match="top eigenvalue 0.66.* at p=2"):
            local_spectrum(2, P25)

    def test_table_raises(self, halved):
        with pytest.raises(EigensolverError, match="top eigenvalue 0.66.* at p=2"):
            build_table(P25, 50)


class TestSandwich:
    def test_q16_value(self):
        # q = p^tau = 16: c_upper = 0.9375 * 1.125 / 0.4375
        p = 16.0 ** (1.0 / P25.tau)
        env = sandwich_envelope(p, P25, 0.5)
        assert env.c_upper == pytest.approx(0.9375 * 1.125 / 0.4375, rel=1e-12)
        assert env.c_lower <= 1.0 <= env.c_upper

    def test_large_q_limit(self):
        p = 1e12
        env = sandwich_envelope(p, P25, 0.5)
        assert env.c_upper == pytest.approx(1.0, abs=1e-5)
        assert env.c_lower == pytest.approx(1.0, abs=1e-5)

    def test_invalid_a_raises(self):
        # q = 3^1.5 ~ 5.196 needs a > 0.543; a = 1/2 is inadmissible
        with pytest.raises(ValueError):
            sandwich_envelope(3, P25, 0.5)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_a_raises(self, a):
        with pytest.raises(ValueError, match="finite a"):
            sandwich_envelope(16.0 ** (1.0 / P25.tau), P25, a)

    def test_lower_clamped_when_a_too_large(self):
        p = 16.0 ** (1.0 / P25.tau)
        env = sandwich_envelope(p, P25, 5.0)  # a > sqrt(q) = 4
        assert env.c_lower == 0.0

    def test_contains_spectrum_at_half(self):
        for p in (5, 7, 11, 101):
            spectrum = local_spectrum(p, P25)
            env = sandwich_envelope(p, P25, 0.5)
            k = np.arange(spectrum.eigenvalues.size)
            assert np.all(spectrum.eigenvalues <= env.upper(k) + 1e-12)
            assert np.all(spectrum.eigenvalues >= env.lower(k) - 1e-12)

    def test_best_envelope_matches_grid_minimum(self):
        for p in (2, 5, 29):
            env = best_envelope(p, P25)
            q = p**P25.tau
            u = 1 / math.sqrt(q)
            assert env.c_upper == pytest.approx((1 + u) / (1 - u), rel=1e-12)
            lo = u / (1 - 1 / q)
            grid = np.linspace(lo * 1.0001, lo + 10.0, 40_000)
            best = min(sandwich_envelope(p, P25, a).c_upper for a in grid)
            assert env.c_upper <= best + 1e-9


class TestCornerIdentity:
    def test_single_entry(self):
        lhs, rhs = corner_quadratic_form(7, [1.0])
        assert lhs == pytest.approx(1.0, abs=1e-15)
        assert rhs == pytest.approx(1.0, abs=1e-15)

    def test_two_ones_p2(self):
        lhs, rhs = corner_quadratic_form(2, [1.0, 1.0])
        assert lhs == pytest.approx(2.5, abs=1e-14)
        assert rhs == pytest.approx(2.5, abs=1e-14)

    def test_random_vectors(self):
        rng = np.random.RandomState(42)
        for p in (2, 3, 5, 17):
            for _ in range(25):
                x = rng.standard_normal(20)
                lhs, rhs = corner_quadratic_form(p, x)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, xs):
        lhs, rhs = corner_quadratic_form(3, xs)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-30)


class TestANorm:
    def test_value_p2(self):
        x = 2.0 ** (-2 * (P25.tau - P25.sigma))
        assert a_norm_squared(2, P25) == pytest.approx(x / (1 - x), rel=1e-14)

    def test_direct_sum_oracle(self):
        for p in (2, 3, 11):
            oracle = math.fsum(
                float(p) ** (-2 * k * (P25.tau - P25.sigma)) for k in range(1, 300)
            )
            assert a_norm_squared(p, P25) == pytest.approx(oracle, rel=1e-14)

    def test_monotone_to_zero(self):
        vals = [a_norm_squared(p, P25) for p in (2, 5, 17, 101, 10007)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-8

    def test_divergent_regime_rejected(self):
        with pytest.raises(InvalidRegime):
            a_norm_squared(2, SpectralParams(1.5, 1.0))


class TestCertificate:
    def test_formula_p2(self):
        # recomputed from the closed expressions
        cert = top_eig_certificate(2, P25)
        hs2 = 2.0 / ((1 - 2.0 ** (-2 * 2.5)) * (1 - 2.0 ** (-2 * 1.0)))
        h = 2.0**-1.0 * math.sqrt(hs2)
        assert cert.h == pytest.approx(h, rel=1e-14)
        assert cert.bound == pytest.approx(
            a_norm_squared(2, P25) / (1 - h), rel=1e-14
        )
        assert 1.2 < cert.bound < 1.3  # loose but valid

    def test_small_bound_at_p11(self):
        assert top_eig_certificate(11, P25).bound < 0.01

    def test_contains_computed_top(self):
        for p in (2, 3, 5, 7, 11, 101):
            cert = top_eig_certificate(p, P25)
            lam0 = local_spectrum(p, P25).eigenvalues[0]
            assert 1.0 - 1e-12 <= lam0 <= 1.0 + cert.bound + 1e-12

    def test_unavailable_when_h_large(self):
        # weakly decaying regime: rho = 0.1 makes h(2) > 1
        with pytest.raises(CertificateUnavailable):
            top_eig_certificate(2, SpectralParams(0.45, 1.0))

    def test_hs_bound_dominates_hs_norm(self):
        for p in (2, 5, 17):
            A = build_local_matrix(p, P25, 60)
            assert np.sum(A * A) <= hs_bound_squared(p, P25)


class TestOverlapTrend:
    def test_bound_fitted_at_13_holds_beyond(self):
        tpr = P25.tau + P25.rho
        c_fit = (1 - top_overlap(13, P25)) * 13.0**tpr
        for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            gap = 1 - top_overlap(p, P25)
            assert gap <= c_fit * p ** (-tpr)
