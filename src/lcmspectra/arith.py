"""Prime utilities, LCM-matrix entries, truncated power sums, real zeta.

Foundation layer for the rest of the toolkit.  Everything here is a pure
function of its inputs; the power-sum prefix table is immutable after
construction, so all of it is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegime

__all__ = [
    "SpectralParams",
    "FactoredIndex",
    "primes_up_to",
    "smallest_prime_factor_table",
    "factorize",
    "lcm",
    "lcm_grid",
    "entry_E",
    "partial_power_sum_F",
    "PowerSumTable",
    "zeta_real",
]

_SEGMENT = 1 << 20


@dataclass(frozen=True)
class SpectralParams:
    """Exponent pair (sigma, tau); rho = tau - 2*sigma is always recomputed."""

    sigma: float
    tau: float

    @property
    def rho(self) -> float:
        """Diagonal decay exponent; also the homogeneity degree of the entries."""
        return self.tau - 2.0 * self.sigma

    @property
    def bounded(self) -> bool:
        """Finite rho > 0 and tau + rho > 1: the infinite matrix is a bounded
        operator.  rho is finite exactly when sigma and tau both are."""
        return 0.0 < self.rho < math.inf and self.tau + self.rho > 1.0

    @property
    def positive_definite_regime(self) -> bool:
        """Bounded plus tau > 0: compact, positive definite, trivial kernel."""
        return self.bounded and self.tau > 0.0

    def require_regime(self) -> None:
        if not self.positive_definite_regime:
            raise InvalidRegime(
                f"(sigma={self.sigma}, tau={self.tau}) violates "
                "finite rho > 0, tau + rho > 1, tau > 0"
            )


@dataclass(frozen=True)
class FactoredIndex:
    """Ordered prime factorisation as (prime, exponent) pairs; () encodes 1."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for p, k in self.factors:
            if k < 1:
                raise ValueError(f"exponent {k} of prime {p} must be positive")

    @property
    def n(self) -> int:
        out = 1
        for p, k in self.factors:
            out *= p**k
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def _sieve_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending.

    Plain sieve of Eratosthenes below ~10^6, segmented above it so that
    cutoffs around 10^7 stay cheap on memory.
    """
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit <= _SEGMENT:
        return np.flatnonzero(_sieve_flags(limit)).astype(np.int64)
    root = math.isqrt(limit)
    base = np.flatnonzero(_sieve_flags(root)).astype(np.int64)
    chunks = [base]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append(np.flatnonzero(seg).astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


def smallest_prime_factor_table(limit: int) -> np.ndarray:
    """spf[n] = least prime factor of n for 2 <= n <= limit (spf[1] = 1)."""
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            idx = np.arange(p * p, limit + 1, p)
            idx = idx[spf[idx] == 0]
            spf[idx] = p
    untouched = np.flatnonzero(spf == 0)
    spf[untouched] = untouched  # primes, including the sieving ones
    if limit >= 0:
        spf[0] = 0
    return spf


def factorize(n: int) -> FactoredIndex:
    """Exact prime factorisation by trial division (2, 3, then 6k +- 1)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    m = int(n)
    out = []
    for p in (2, 3):
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            out.append((p, k))
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k:
                out.append((p, k))
        f += 6
    if m > 1:
        out.append((m, 1))
    return FactoredIndex(tuple(out))


def lcm(n: int, m: int) -> int:
    """Least common multiple [n, m]; Python integers cannot overflow."""
    if n < 1 or m < 1:
        raise ValueError("lcm expects positive integers")
    return math.lcm(int(n), int(m))


def lcm_grid(M: int) -> np.ndarray:
    """M x M integer array of [n, m] for 1 <= n, m <= M."""
    n = np.arange(1, M + 1)
    return (n[:, None] // np.gcd.outer(n, n)) * n[None, :]


def entry_E(n: int, m: int, params: SpectralParams) -> float:
    """Matrix entry n^sigma m^sigma / [n,m]^tau, evaluated in log space.

    The log-space route keeps entries finite across many orders of
    magnitude of n, m.
    """
    ell = lcm(n, m)
    return math.exp(
        params.sigma * (math.log(n) + math.log(m)) - params.tau * math.log(ell)
    )


def partial_power_sum_F(x: float, sigma: float) -> float:
    """F(x) = sum_{n <= x} n^(-2 sigma); zero when x < 1."""
    if x < 1.0:
        return 0.0
    top = int(math.floor(x))
    powers = np.arange(1, top + 1, dtype=float) ** (-2.0 * sigma)
    return math.fsum(powers)


class PowerSumTable:
    """Prefix table serving F(x) = sum_{n <= x} n^(-2 sigma) in O(1).

    Built once per sigma; Gram assembly issues O(N^2) queries against it.
    """

    def __init__(self, sigma: float, x_max: int):
        if x_max < 1:
            raise ValueError("x_max must be >= 1")
        self.sigma = float(sigma)
        self.x_max = int(x_max)
        powers = np.arange(1, self.x_max + 1, dtype=float) ** (-2.0 * self.sigma)
        self._prefix = np.concatenate([[0.0], np.cumsum(powers)])

    def at_int(self, k):
        """F(k) for integer k (scalar or array); k < 1 yields 0."""
        idx = np.asarray(k, dtype=np.int64)
        if np.any(idx > self.x_max):
            raise ValueError(f"query beyond table range x_max={self.x_max}")
        result = self._prefix[np.clip(idx, 0, self.x_max)]
        return float(result) if np.isscalar(k) else result

    def __call__(self, x):
        """F(x) for real x; F is a step function, constant between integers."""
        idx = np.floor(np.asarray(x, dtype=float)).astype(np.int64)
        return self.at_int(idx if not np.isscalar(x) else int(idx))


# Bernoulli corrections through B6 = 1/42; see zeta_real.
_ZETA_DEFAULT_CUTOFF = 10_000


def zeta_real(s: float, cutoff: int = _ZETA_DEFAULT_CUTOFF) -> float:
    """Riemann zeta at real s > 1: partial sum plus Euler-Maclaurin tail.

    Correction terms through B6 give roughly 1e-12 absolute accuracy for
    s in (1, 40] at the default cutoff, without arbitrary precision.
    """
    if s <= 1.0:
        raise InvalidRegime("zeta_real requires s > 1")
    M = int(cutoff)
    if M < 2:
        raise ValueError("cutoff must be >= 2")
    head = math.fsum(np.arange(1, M + 1, dtype=float) ** (-s))
    mf = float(M)
    tail = mf ** (1.0 - s) / (s - 1.0) - 0.5 * mf ** (-s)
    tail += s * mf ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * mf ** (-s - 3.0) / 720.0
    tail += (
        s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * mf ** (-s - 5.0) / 30240.0
    )
    return head + tail
