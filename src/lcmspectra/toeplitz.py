"""Truncated multiplicative Toeplitz matrices with symbol coefficients n^(-sigma).

The N x N truncation T_N has entry (n, m) = (n/m)^(-sigma) when m | n and
0 otherwise.  T_N is sparse (about N ln N nonzeros), so the top k
singular values come from Lanczos on the operator x -> T_N^T (T_N x),
with no N x N matrix, up to N ~ 10^6; only a request for all N values
densifies the Gram matrix T_N^T T_N.  The Gram matrix also collapses to
a divisor sum, entry (n, m) = n^s m^s [n,m]^(-2s) F(N/[n,m]) with the
truncated power sum F(x) = sum_{k <= x} k^(-2s), read from one prefix
table; that closed form and the dense T_N are kept as the independent
oracles.  Rescaled by rho N^(-rho) (tau = 1 context, rho = 1 - 2 sigma)
the squared singular values track the eigenvalues of E(sigma, 1); the
Hadamard factor G_N, built from the same F, measures the finite-N
distortion and the Schatten diagnostics quantify its decay.  Sizes N, M,
k and q must be integers: a float raises TypeError naming it.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import SpectralParams, _integer, lcm_grid
from .errors import EigensolverError, InvalidRegime
from .spectrum import _entries

__all__ = [
    "build_toeplitz",
    "gram_via_formula",
    "rescaled_singular_values",
    "hadamard_factor",
    "schatten_diff",
]


def _rescaling_rho(sigma: float) -> float:
    """rho = 1 - 2 sigma of the Toeplitz rescaling; sigma must be finite and below 1/2."""
    if not (math.isfinite(sigma) and sigma < 0.5):
        raise InvalidRegime(
            f"rescaling needs a finite sigma < 1/2 so that rho = 1-2*sigma > 0, got {sigma}"
        )
    return 1.0 - 2.0 * sigma


def _toeplitz_csc(N: int, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, row indices, column pointers) of T_N in compressed-column form.

    Column m (1-based) holds rows k m, k = 1..N // m, with value k^(-sigma);
    rows are 0-based and ascending within each column.
    """
    N = _integer(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    m = np.arange(1, N + 1)
    counts = N // m
    indptr = np.concatenate(([0], np.cumsum(counts)))
    cols = np.repeat(m, counts)
    k = np.arange(1, indptr[-1] + 1) - np.repeat(indptr[:-1], counts)
    return k.astype(float) ** (-sigma), k * cols - 1, indptr


def _toeplitz_sparse(N: int, sigma: float):
    """T_N as a scipy CSC matrix, the operator behind rescaled_singular_values."""
    pattern = _toeplitz_csc(N, sigma)
    # imported here so that `import lcmspectra` stays numpy-only
    from scipy.sparse import csc_matrix

    return csc_matrix(pattern, shape=(N, N))


def _power_sums(sigma: float, N: int, M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The M x M LCM grid ell = [n, m], F(N // ell) with 0 where ell > N, and F(N).

    F(x) = sum_{k <= x} k^(-2 sigma) is read from one prefix table of
    length N + 1; the counts N // ell never exceed N, and where ell > N
    the count is 0, whose entry prefix[0] is 0.0.
    """
    N, M = _integer(N, "N"), _integer(M, "M")
    powers = np.arange(1, N + 1, dtype=float) ** (-2.0 * sigma)
    prefix = np.concatenate(([0.0], np.cumsum(powers)))
    ell = lcm_grid(M)
    return ell, prefix[N // ell], prefix[N]


def build_toeplitz(N: int, sigma: float) -> np.ndarray:
    """T_N as a dense N x N array: entry (n, m) = (n/m)^(-sigma) when m | n, else 0."""
    vals, rows, indptr = _toeplitz_csc(N, sigma)
    T = np.zeros((N, N))
    T[rows, np.repeat(np.arange(N), np.diff(indptr))] = vals
    return T


def gram_via_formula(N: int, sigma: float) -> np.ndarray:
    """Dense N x N array T_N^T T_N from the divisor-sum formula, O(N^2 log N).

    Entries with [n, m] > N vanish (the divisor sum is empty).  This is the
    independent oracle for the sparse product T_N^T T_N behind
    rescaled_singular_values; it builds several N x N grids and is not on
    that route.
    """
    N = _integer(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    ell, F, _ = _power_sums(sigma, N, N)
    n = np.arange(1, N + 1, dtype=float)
    return (
        np.multiply.outer(n**sigma, n**sigma)
        * ell.astype(float) ** (-2.0 * sigma)
        * F
    )


def rescaled_singular_values(N: int, sigma: float, k: int = 1) -> np.ndarray:
    """The k largest rho N^(-rho) s_n(T_N)^2, descending (rho = 1 - 2 sigma).

    These approach the eigenvalues of E(sigma, 1) as N grows, uniformly in
    the index, but slowly: at sigma = 1/4 the top value is 20.2% below
    lambda_1 at N = 2048, 5.8% at N = 2^17 and 3.6% at N = 2^19.  Lanczos
    (ARPACK, via scipy) runs on T_N^T T_N as the operator x -> T^T (T x) of
    the sparse T_N; memory and the cost of one step grow like N log N, so
    N = 2^19 takes seconds.  Its start vector and restarts come from a
    generator with a fixed seed, so reruns are byte-identical.  The start
    must not be symmetric: at sigma = 0, T_N commutes with index swaps
    (two primes in (N/2, N], for one), and from ones / sqrt(N) Lanczos
    never sees the eigenvectors that such a swap does not fix (an error of
    1.6% of the top value at N = 28, k = 10).  ARPACK cannot return k >= N
    values, so then the Gram matrix is densified for one O(N^3) eigensolve
    and all N values are returned.  An ARPACK failure raises
    EigensolverError.
    """
    rho = _rescaling_rho(sigma)
    T = _toeplitz_sparse(N, sigma)
    k = _integer(k, "k")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= N:
        w = np.linalg.eigvalsh((T.T @ T).toarray())
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        gram = LinearOperator((N, N), matvec=lambda x: T.T @ (T @ x), dtype=float)
        try:
            w = eigsh(gram, k=k, which="LA", rng=0, return_eigenvectors=False)
        except ArpackError as exc:
            raise EigensolverError(f"Lanczos failed at N={N}, k={k}: {exc}") from exc
    w = np.sort(w)[::-1]
    return rho * float(N) ** (-rho) * np.clip(w, 0.0, None)


def _grid_and_factor(N: int, M: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The M x M LCM grid and the Hadamard factor G_N built from it."""
    N, M = _integer(N, "N"), _integer(M, "M")
    if N < 1 or M < 1:
        raise ValueError("N and M must be >= 1")
    rho = _rescaling_rho(sigma)
    ell, F, F_N = _power_sums(sigma, N, M)
    return ell, ell.astype(float) ** rho * F / F_N


def hadamard_factor(N: int, M: int, sigma: float) -> np.ndarray:
    """Finite-N distortion [G_N]_{n,m} = [n,m]^rho F(N/[n,m]) / F(N) on M x M.

    Returns the dense M x M array.  Entrywise G_N -> 1 as N grows while
    staying uniformly bounded; entries with [n, m] > N are 0.  Needs a
    finite sigma < 1/2.
    """
    return _grid_and_factor(N, M, sigma)[1]


def _trace_power_even(D: np.ndarray, q: int) -> float:
    """Tr(D^q) for symmetric D and even q, via q/2 symmetric products."""
    half = q // 2
    P = D
    for _ in range(half - 1):
        P = P @ D
    return float(np.sum(P * P))  # = Tr(P^2) = Tr(D^q), P symmetric


def schatten_diff(N: int, M: int, q: int, sigma: float) -> float:
    """Truncated Schatten-q norm of E(sigma,1) o G_N - E(sigma,1) on M x M.

    Even q with q * rho > 1 only; the norm is (Tr D^q)^(1/q).  One LCM
    grid per call serves both E and G_N, with the bits of entry_matrix
    and hadamard_factor.  No tail certificate is claimed for the infinite
    matrix, so treat the output as the truncated norm.
    """
    q = _integer(q, "q")
    if q < 2 or q % 2 != 0:
        raise InvalidRegime("Schatten exponent must be an even integer >= 2")
    rho = _rescaling_rho(sigma)
    if q * rho <= 1.0:
        raise InvalidRegime(f"needs q * rho > 1, got q={q}, rho={rho}")
    ell, D = _grid_and_factor(N, M, sigma)
    E = _entries(SpectralParams(sigma, 1.0), ell)
    del ell
    D -= 1.0
    D *= E
    return _trace_power_even(D, q) ** (1.0 / q)
