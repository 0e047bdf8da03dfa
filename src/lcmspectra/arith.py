"""Exponent pairs, primes, the prime-power index, the LCM grid and real zeta.

Foundation layer for the rest of the toolkit.  Everything here is a pure
function of its inputs, so all of it is safe to call concurrently; the
prime-power index is cached for its latest limit.  The matrix entries
themselves are spectrum.entry_matrix, and the truncated power sum behind
the Toeplitz Gram lives in toeplitz; factorize is trial division, kept
as the independent oracle of the sieve-based code.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidRegime

__all__ = [
    "SpectralParams",
    "PrimePowerIndex",
    "primes_up_to",
    "prime_power_index",
    "factorize",
    "lcm_grid",
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


def _sieve_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64.

    Segmented sieve of Eratosthenes: the primes up to sqrt(limit), from a
    plain sieve, strike their multiples from windows of 2^20 numbers above
    sqrt(limit), so the sieve itself needs about 1 MB at any limit; a
    limit up to 2^20 takes a single window.
    """
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(limit)
    base = np.flatnonzero(_sieve_flags(root))
    chunks = [base]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        # shifted in place: one more window-sized copy showed in peak RSS
        found = np.flatnonzero(seg)
        del seg
        found += lo
        chunks.append(found)
        lo = hi
    return np.concatenate(chunks)


class PrimePowerIndex(NamedTuple):
    """The factoring index of prime_power_index; every array is read-only."""

    primes: np.ndarray  # the P primes <= limit, ascending: powers[:P]
    power_of: np.ndarray  # int32 slot of the full power of m's least prime factor
    powers: np.ndarray  # p^k per slot
    rows: np.ndarray  # the row of p (its place in primes) of slot P + s
    exponents: np.ndarray  # k >= 2 of slot P + s


# typed: a float limit must reach the TypeError, not the cached int's index
@functools.lru_cache(maxsize=1, typed=True)
def prime_power_index(limit: int) -> PrimePowerIndex:
    """Factoring index of the integers up to limit, one slot per prime power.

    Slot i < P = pi(limit) is the i-th prime, exponent 1; the powers p^k
    <= limit with k >= 2 follow, by p, then k, ascending (236 of them at
    10^6), slot P + s with rows[s] and exponents[s].  For 2 <= m <= limit,
    power_of[m] is the slot of p^k, the full power of m's least prime
    factor p that divides m (power_of[0] = power_of[1] = -1), so
    m // powers[power_of[m]] has only larger prime factors.  A composite m
    has p <= sqrt(limit), so the root primes write it, in descending
    order, each with its p*p::p slice and then its p^k::p^k slices: the
    least prime writes last, its highest power dividing m last of all.
    power_of takes 4 bytes per integer (3.8 MB at 10^6, 38 MB at 10^7); it
    depends on limit alone, so the index of the latest limit is cached and
    every caller at that limit shares it.
    """
    limit = _integer(limit, "limit")
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    primes = primes_up_to(limit)
    P = len(primes)
    roots = primes[: np.searchsorted(primes, math.isqrt(limit), "right")].tolist()
    # the slots past the primes: (row, k) of every p^k <= limit, k >= 2
    high = [(i, k) for i, p in enumerate(roots) for k in range(2, limit.bit_length())
            if p**k <= limit]
    rows = np.array([i for i, _ in high], dtype=np.int64)
    exponents = np.array([k for _, k in high], dtype=np.int64)
    powers = np.concatenate((primes, primes[rows] ** exponents))
    slot = {q: s for s, q in enumerate(powers[P:].tolist(), P)}
    power_of = np.empty(limit + 1, dtype=np.int32)
    power_of[:2] = -1
    power_of[primes] = np.arange(P, dtype=np.int32)
    for i, p in reversed(list(enumerate(roots))):
        power_of[p * p :: p] = i
        q = p * p
        while q <= limit:
            power_of[q::q] = slot[q]
            q *= p
    for a in (powers, power_of, rows, exponents):
        a.setflags(write=False)
    return PrimePowerIndex(powers[:P], power_of, powers, rows, exponents)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, ascending, by trial division
    (2, 3, then 6k +- 1); () for n = 1."""
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
    return tuple(out)


def _integer(value, name: str) -> int:
    """value as a Python int, through operator.index, so NumPy integers
    pass and a float raises TypeError naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def lcm_grid(M: int) -> np.ndarray:
    """M x M int64 array of [n, m] for 1 <= n, m <= M, by a divisor sieve.

    The grid starts as ones, and for d = 2..M the strided slice of rows
    and columns divisible by d is set to d.  Every common divisor of n
    and m writes at (n, m), in ascending order, so the last write there
    is the largest one and the grid holds gcd(n, m).  Then [n, m] =
    (n // gcd) * m, formed in place.  That is about 1.64 M^2 element
    writes in M slice steps, with one M x M array and no temporary of
    its size; it is several times faster than a gcd per element.  M must
    be a non-negative integer (a float raises TypeError); M = 0 gives an
    empty (0, 0) grid.
    """
    M = _integer(M, "M")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    g = np.ones((M, M), dtype=np.int64)
    for d in range(2, M + 1):
        g[d - 1 :: d, d - 1 :: d] = d
    n = np.arange(1, M + 1, dtype=np.int64)
    np.floor_divide(n[:, None], g, out=g)
    g *= n
    return g


def _exact_sum(r: np.ndarray) -> float:
    """math.fsum(r), to the bit, for a 1-D float64 array r, which it
    overwrites.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008, ExtractVector): with
    every |r_i| < 2^e and n < 2^M entries, sigma = 2^(e + M) splits r_i
    into q_i = (sigma + r_i) - sigma and r_i - q_i, both exact, and the
    q_i sum exactly in any order.  Repeating on what is left until it is
    zero gives a few exact partial sums, whose math.fsum is the correctly
    rounded total, as math.fsum(r) is.  Input that is all zero or not
    finite, or whose sigma would overflow, goes to math.fsum itself, so
    the results and the exceptions are those of math.fsum.
    """
    q = np.empty_like(r)
    M = r.size.bit_length()
    parts = []
    while True:
        top = float(np.abs(r, out=q).max(initial=0.0))
        e = math.frexp(top)[1] + M
        if not parts and not (0.0 < top < math.inf and e <= 1023):
            return math.fsum(r)
        if top == 0.0:
            return math.fsum(parts)
        sigma = math.ldexp(1.0, e)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        parts.append(float(q.sum()))


# length of the partial sum in zeta_real
_ZETA_CUTOFF = 10_000


def zeta_real(s: float) -> float:
    """Riemann zeta at real s > 1: partial sum plus Euler-Maclaurin tail.

    Correction terms through B6 = 1/42 give roughly 1e-12 absolute
    accuracy for s in (1, 55] at the cutoff, without arbitrary precision.
    Raises InvalidRegime unless s is a finite number above 1.
    """
    if s <= 1.0 or not math.isfinite(s):
        raise InvalidRegime(f"zeta_real requires a finite s > 1, got {s!r}")
    M = _ZETA_CUTOFF
    head = _exact_sum(np.arange(1, M + 1, dtype=float) ** (-s))
    mf = float(M)
    tail = mf ** (1.0 - s) / (s - 1.0) - 0.5 * mf ** (-s)
    tail += s * mf ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * mf ** (-s - 3.0) / 720.0
    tail += (
        s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * mf ** (-s - 5.0) / 30240.0
    )
    return head + tail
