import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lcmspectra
from lcmspectra import (
    EigensolverError,
    InvalidRegime,
    SpectralParams,
    build_toeplitz,
    entry_matrix,
    gram_via_formula,
    hadamard_factor,
    rescaled_singular_values,
    schatten_diff,
    zeta_real,
)
from lcmspectra.toeplitz import _toeplitz_sparse, _trace_power_even


class TestBuildToeplitz:
    def test_divisibility_pattern(self):
        T = build_toeplitz(6, 0.25)
        assert T[3, 1] == pytest.approx(2.0**-0.25, rel=1e-15)  # entry (4, 2)
        assert T[2, 1] == 0.0  # entry (3, 2)
        assert np.allclose(np.diag(T), 1.0)

    def test_first_column(self):
        T = build_toeplitz(8, 0.7)
        n = np.arange(1, 9, dtype=float)
        assert np.allclose(T[:, 0], n**-0.7, rtol=1e-15)

    @pytest.mark.parametrize("N", [1, 7, 500])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.25])
    def test_matches_column_loop(self, N, sigma):
        oracle = np.zeros((N, N))
        for m in range(1, N + 1):
            mult = np.arange(m, N + 1, m)
            oracle[mult - 1, m - 1] = (mult / m) ** (-sigma)
        assert np.array_equal(build_toeplitz(N, sigma), oracle)


class TestGram:
    def test_convolution_entry(self):
        # oracle: direct divisor sum over r <= 4 with 2 | r and 4 | r
        sigma = 0.25
        oracle = math.fsum(
            (r / 2) ** -sigma * (r / 4) ** -sigma
            for r in range(1, 5)
            if r % 2 == 0 and r % 4 == 0
        )
        G = gram_via_formula(4, sigma)
        assert G[1, 3] == pytest.approx(oracle, rel=1e-14)
        assert G[1, 3] == pytest.approx(2.0**-0.25, rel=1e-14)

    def test_zero_beyond_lcm_range(self):
        G = gram_via_formula(4, 0.25)
        assert G[2, 3] == 0.0  # [3, 4] = 12 > 4

    def test_last_diagonal_is_one(self):
        N = 7
        G = gram_via_formula(N, 0.25)
        assert G[N - 1, N - 1] == pytest.approx(1.0, rel=1e-15)  # F(1) = 1

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.25, 0.4])
    def test_matches_direct_product(self, N, sigma):
        G = gram_via_formula(N, sigma)
        T = build_toeplitz(N, sigma)
        direct = T.T @ T
        scale = np.abs(direct) + np.abs(direct).max() * 1e-3
        assert np.max(np.abs(G - direct) / scale) < 1e-10

    def test_eigenvalues_match_direct_product(self):
        N, sigma = 128, 0.25
        w1 = np.linalg.eigvalsh(gram_via_formula(N, sigma))
        T = build_toeplitz(N, sigma)
        w2 = np.linalg.eigvalsh(T.T @ T)
        assert np.max(np.abs(w1 - w2)) < 1e-10 * max(1.0, w2.max())


@functools.lru_cache(maxsize=None)
def formula_reference(N, sigma):
    """Rescaled eigvalsh of the divisor-sum Gram matrix, descending: the oracle."""
    rho = 1 - 2 * sigma
    w = np.linalg.eigvalsh(gram_via_formula(N, sigma))[::-1]
    return rho * float(N) ** (-rho) * np.clip(w, 0.0, None)


class TestRescaled:
    def test_one_by_one(self):
        assert rescaled_singular_values(1, 0.25).tolist() == [0.5]

    def test_rejects_sigma_half(self):
        with pytest.raises(InvalidRegime):
            rescaled_singular_values(8, 0.5)

    def test_nonnegative_and_bounded(self):
        sigma, N = 0.25, 64
        vals = rescaled_singular_values(N, sigma, N)
        assert vals.shape == (N,)
        assert np.all(vals >= 0.0)
        rho = 1 - 2 * sigma
        frob_sq = float(np.sum(build_toeplitz(N, sigma) ** 2))
        assert vals[0] <= rho * N ** (-rho) * frob_sq + 1e-12

    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.25, 0.4])
    @pytest.mark.parametrize("N", [1, 2, 64, 256, 2048])
    def test_matches_formula_gram_eigensolve(self, N, sigma):
        # k = N: every value, on the dense branch
        ref = formula_reference(N, sigma)
        got = rescaled_singular_values(N, sigma, N)
        assert got.shape == (N,)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * ref[0])

    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.25, 0.4])
    @pytest.mark.parametrize("N", [1, 2, 64, 256, 2048])
    @pytest.mark.parametrize("k", [1, 10])
    def test_top_k_matches_formula_gram_eigensolve(self, k, N, sigma):
        # k = min(k, N) < N runs Lanczos, k = N the dense branch
        k = min(k, N)
        ref = formula_reference(N, sigma)
        got = rescaled_singular_values(N, sigma, k)
        assert got.shape == (k,)
        np.testing.assert_allclose(got, ref[:k], rtol=0, atol=1e-12 * ref[0])

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 17])
    def test_k_beyond_n_returns_all_n(self, N):
        got = rescaled_singular_values(N, 0.25, N + 1)
        assert got.tobytes() == rescaled_singular_values(N, 0.25, N).tobytes()

    def test_reruns_identical(self):
        a = rescaled_singular_values(2048, 0.25, 2048)
        assert a.tobytes() == rescaled_singular_values(2048, 0.25, 2048).tobytes()


TOEPLITZ_CALLS = {
    "rescaled": lambda s: rescaled_singular_values(8, s),
    "top-sparse": lambda s: rescaled_singular_values(8, s, 3),
    "hadamard": lambda s: hadamard_factor(8, 4, s),
    "schatten": lambda s: schatten_diff(8, 4, 4, s),
}


@pytest.mark.parametrize("sigma", [math.nan, -math.inf, math.inf, 0.5])
@pytest.mark.parametrize("name", list(TOEPLITZ_CALLS))
def test_rescaling_needs_finite_sigma_below_half(name, sigma):
    with pytest.raises(InvalidRegime):
        TOEPLITZ_CALLS[name](sigma)


def test_import_leaves_scipy_unloaded():
    # the sparse route imports scipy inside its functions, so that the
    # package itself, and every path that never touches T_N, stays numpy-only
    src = os.path.dirname(os.path.dirname(lcmspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, lcmspectra, lcmspectra.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_lanczos_failure_is_eigensolver_error(monkeypatch):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), None)

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    with pytest.raises(EigensolverError, match="Lanczos failed at N=64, k=3") as err:
        rescaled_singular_values(64, 0.25, 3)
    assert isinstance(err.value.__cause__, sla.ArpackNoConvergence)


class TestTopRescaledSparse:
    @pytest.mark.parametrize("N", [1, 64, 2048])
    def test_sparse_pattern_is_dense_truncation(self, N):
        T = _toeplitz_sparse(N, 0.25).toarray()
        assert np.array_equal(T, build_toeplitz(N, 0.25))

    @pytest.mark.parametrize("N", [64, 2048])
    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_matches_dense_gram_eigensolve(self, N, sigma):
        # Lanczos top value (k = 1) against the dense branch (k = N)
        dense = rescaled_singular_values(N, sigma, N)[0]
        (top,) = rescaled_singular_values(N, sigma)
        assert top == pytest.approx(dense, rel=1e-10)

    def test_reruns_identical(self):
        first = rescaled_singular_values(4096, 0.25, 10)
        assert first.shape == (10,)
        assert rescaled_singular_values(4096, 0.25, 10).tobytes() == first.tobytes()

    @pytest.mark.parametrize("N", [16, 18, 28, 52, 115])
    def test_index_symmetries_at_sigma_zero(self, N):
        # at sigma = 0, T_N commutes with index swaps (primes in (N/2, N]);
        # a start vector fixed by them misses whole eigenspaces (a symmetric
        # start was off by 1.6% at N = 28) and restarts made reruns differ
        got = rescaled_singular_values(N, 0.0, 10)
        ref = formula_reference(N, 0.0)
        np.testing.assert_allclose(got, ref[:10], rtol=0, atol=1e-12 * ref[0])
        assert rescaled_singular_values(N, 0.0, 10).tobytes() == got.tobytes()

    def test_rejects_sigma_half_and_empty_truncation(self):
        with pytest.raises(InvalidRegime):
            rescaled_singular_values(8, 0.5)
        with pytest.raises(ValueError):
            rescaled_singular_values(0, 0.25)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                rescaled_singular_values(8, 0.25, k)


class TestHadamard:
    def test_corner_is_one(self):
        H = hadamard_factor(100, 8, 0.25)
        assert H[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_zero_beyond_n(self):
        H = hadamard_factor(10, 8, 0.25)
        assert H[6, 7] == 0.0  # [7, 8] = 56 > 10

    @pytest.mark.parametrize("sigma", [0.0, 0.25])
    def test_entrywise_convergence_to_one(self, sigma):
        devs = [
            np.abs(hadamard_factor(N, 10, sigma) - 1.0).max()
            for N in (100, 1000, 10_000)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.1

    def test_uniform_bound_stable_under_doubling(self):
        for sigma in (0.0, 0.25):
            c1 = np.abs(hadamard_factor(10_000, 128, sigma)).max()
            c2 = np.abs(hadamard_factor(20_000, 128, sigma)).max()
            assert c2 <= 1.1 * c1
            assert c1 <= 1.1 * c2
            assert c1 < 10.0


class TestSigmaAboveOne:
    def test_gram_recovers_zeta_factorisation(self):
        # at sigma = 2 the Gram matrix approximates zeta(4) E(2, 4)
        N = 512
        G = gram_via_formula(N, 2.0)
        z4 = zeta_real(4.0)
        assert abs(G[0, 0] - z4) < 1e-3 * z4  # F(N) vs zeta(4), 0.1%
        top_gram = np.linalg.eigvalsh(G)[-1]
        section = np.linalg.eigvalsh(entry_matrix(SpectralParams(2.0, 4.0), N))[-1]
        assert abs(top_gram - z4 * section) < 0.02 * z4 * section


class TestSchatten:
    def test_q2_is_frobenius(self):
        N, M, sigma = 32, 48, 0.0
        E = entry_matrix(SpectralParams(sigma, 1.0), M)
        G = hadamard_factor(N, M, sigma)
        oracle = math.sqrt(float(np.sum((E * (G - 1.0)) ** 2)))
        assert schatten_diff(N, M, 2, sigma) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize(
        "N, M, q, sigma", [(16, 64, 2, 0.0), (1024, 256, 4, 0.25), (64, 100, 6, 0.1)]
    )
    def test_one_grid_matches_public_routes(self, N, M, q, sigma):
        # the one grid schatten_diff builds gives the bits of the two
        # public routes, each with its own grid
        E = entry_matrix(SpectralParams(sigma, 1.0), M)
        G = hadamard_factor(N, M, sigma)
        oracle = _trace_power_even(E * (G - 1.0), q) ** (1.0 / q)
        assert schatten_diff(N, M, q, sigma) == oracle

    def test_trace_power_matches_eigen_oracle(self):
        rng = np.random.RandomState(3)
        D = rng.standard_normal((20, 20))
        D = (D + D.T) / 2
        w = np.linalg.eigvalsh(D)
        for q in (2, 4, 6):
            assert _trace_power_even(D, q) == pytest.approx(
                float(np.sum(w**q)), rel=1e-11
            )

    def test_zero_distortion_gives_zero(self):
        assert _trace_power_even(np.zeros((5, 5)), 4) == 0.0

    def test_decreases_with_n(self):
        v16 = schatten_diff(16, 128, 2, 0.0)
        v512 = schatten_diff(512, 128, 2, 0.0)
        assert v512 < v16

    def test_rejects_odd_or_small_exponent(self):
        with pytest.raises(InvalidRegime):
            schatten_diff(16, 32, 3, 0.0)
        with pytest.raises(InvalidRegime):
            schatten_diff(16, 32, 2, 0.3)  # q*rho = 0.8 <= 1


class TestIntegerSizes:
    def test_float_k_raises_type_error(self):
        with pytest.raises(TypeError, match="k must be an integer"):
            rescaled_singular_values(64, 0.25, 3.0)

    def test_float_q_raises_type_error(self):
        with pytest.raises(TypeError, match="q must be an integer"):
            schatten_diff(64, 16, 4.5, 0.25)

    @pytest.mark.parametrize(
        "call",
        [
            lambda N: build_toeplitz(N, 0.25),
            lambda N: rescaled_singular_values(N, 0.25, 3),
            lambda N: hadamard_factor(N, 16, 0.25),
            lambda N: schatten_diff(N, 16, 4, 0.25),
            lambda N: gram_via_formula(N, 0.25),
        ],
        ids=["build_toeplitz", "rescaled", "hadamard", "schatten", "gram"],
    )
    # N = 0.5: a float below 1 is named as a non-integer before its size is checked
    @pytest.mark.parametrize(
        "N", [64.0, np.float64(64.0), 64.5, 0.5], ids=["float", "numpy", "half", "below-one"]
    )
    def test_float_n_raises_type_error(self, call, N):
        with pytest.raises(TypeError, match="N must be an integer"):
            call(N)

    def test_float_m_raises_type_error(self):
        with pytest.raises(TypeError, match="M must be an integer"):
            hadamard_factor(64, 16.0, 0.25)

    @pytest.mark.parametrize(
        "call",
        [lambda: hadamard_factor(8, 0.5, 0.25), lambda: schatten_diff(8, 0.5, 4, 0.25)],
        ids=["hadamard", "schatten"],
    )
    def test_float_m_below_one_raises_type_error(self, call):
        with pytest.raises(TypeError, match="M must be an integer"):
            call()

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: build_toeplitz(0, 0.25), "N must be >= 1"),
            (lambda: rescaled_singular_values(0, 0.25), "N must be >= 1"),
            (lambda: gram_via_formula(0, 0.25), "N must be >= 1"),
            (lambda: hadamard_factor(0, 4, 0.25), "N and M must be >= 1"),
            (lambda: hadamard_factor(8, 0, 0.25), "N and M must be >= 1"),
            (lambda: schatten_diff(0, 4, 4, 0.25), "N and M must be >= 1"),
            (lambda: schatten_diff(8, 0, 4, 0.25), "N and M must be >= 1"),
        ],
        ids=["build_toeplitz", "rescaled", "gram", "hadamard-N", "hadamard-M", "schatten-N",
             "schatten-M"],
    )
    def test_zero_size_raises_value_error(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_numpy_integers_pass(self):
        n, m, k, q = np.int64(64), np.int32(16), np.int64(3), np.int32(4)
        assert np.array_equal(build_toeplitz(n, 0.25), build_toeplitz(64, 0.25))
        assert np.array_equal(
            rescaled_singular_values(n, 0.25, k), rescaled_singular_values(64, 0.25, 3)
        )
        assert np.array_equal(hadamard_factor(n, m, 0.25), hadamard_factor(64, 16, 0.25))
        assert schatten_diff(n, m, q, 0.25) == schatten_diff(64, 16, 4, 0.25)
