"""Global spectrum assembly for the LCM matrix family.

Eigenvalues of the infinite matrix factor over primes: lambda_n is the
product over p | n of the k_p-th local eigenvalue times the base product
Lambda_0 = prod_p lambda_0(E_p).  This module builds the per-prime table,
one flat row per prime, from the same solve and floor cut as
local.local_spectrum, run over the ascending primes in bounded waves:
contiguous slices of about _WAVE_ENTRY_SWEEPS / K^2 primes, each solved
as one batch padded to its largest truncation order K.  One search lists
indices, with their values, as ascending products of prime powers, so
that no index is factored: a divisor-closed set that holds every n with
lambda_n > 1/t.  The counting function mu(t) = #{n : lambda_n > 1/t}
counts it, and enumerate_spectrum ranks the largest values of one search
into a RankedSpectrum, a read-only view over two arrays that builds a
GlobalEigenvalue only for the entries a caller reads.  Both read one
certificate, held by the table.  The module also cross-checks against
dense finite sections.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import os
import struct
import tempfile
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .arith import (
    SpectralParams,
    _exact_sum,
    _integer,
    lcm_grid,
    prime_power_index,
    primes_up_to,
)
from .errors import (
    CertificateUnavailable,
    EnumerationInfeasible,
    FloorTooHigh,
    InvalidRegime,
    PrimeOutOfRange,
)
from .local import (
    DEFAULT_FLOOR,
    _solve_rows,
    best_envelope,
    top_eig_certificate,
    truncation_order,
    truncation_tail_bound,
)

__all__ = [
    "GlobalEigenvalue",
    "RankedSpectrum",
    "GlobalSpectrumTable",
    "CountingResult",
    "SpectralEnvelope",
    "build_table",
    "lambda_of",
    "enumerate_spectrum",
    "counting_mu",
    "finite_section_eigs",
    "entry_matrix",
    "save_table",
    "load_table",
]

logger = logging.getLogger(__name__)

# absolute allowance for the solver error on every stored eigenvalue: dqd
# is accurate to a few 1e-15 relative, and the mpmath oracle tests hold it
# to a tenth of this margin
_SOLVER_MARGIN = 1e-13

# bound on a wave's entry-sweeps, bases x K_top^2 (entries times sweeps).
# Median build_table times over 2^17, 2^18, 2^19, 2^20 with the
# parity-split dqd, 15 interleaved builds each on a 2-core x86 host
# (numpy 2.4): (0.45, 1), rho = 0.1, at p_max 10^5 175, 126, 103, 92 ms;
# (0.4, 1), rho = 0.2, at 10^5 42.6, 34.7, 31.9, 35.3 ms; (1/4, 1) at
# 10^6 53.9, 50.0, 50.5, 58.1 ms; (1/4, 3/2) at 10^6 29.8, 30.4, 33.8,
# 43.0 ms.  No size is the fastest at every rho: 2^18 costs rho = 0.1
# a fifth more than 2^19, 2^20 costs rho = 1/2 and 1 15-27% more, and
# 2^19 costs (1/4, 3/2), rho = 1, 13% more than 2^17.  2^19 stays, the
# best or close to it everywhere but rho = 0.1 and 1.
_WAVE_ENTRY_SWEEPS = 2**19

# the largest index the search can carry in int64
_INDEX_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, slots=True, init=False)
class GlobalEigenvalue:
    """One eigenvalue lambda_n with its index n."""

    n: int
    value: float

    def __init__(self, n: int, value: float):
        # the slots' own setters: the generated frozen __init__ goes
        # through object.__setattr__ per field, about 1.5x slower
        _set_n(self, n)
        _set_value(self, value)


_set_n = GlobalEigenvalue.n.__set__
_set_value = GlobalEigenvalue.value.__set__


class RankedSpectrum(Sequence):
    """lambda_n in rank order, as two read-only arrays.

    n holds the indices (int64) and values the eigenvalues (float64), by
    value descending, ties by ascending n.  Reading an entry builds its
    GlobalEigenvalue, with a Python int and float; a slice gives a list of
    them.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: np.ndarray, values: np.ndarray):
        n.setflags(write=False)
        values.setflags(write=False)
        self.n = n
        self.values = values

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(GlobalEigenvalue, self.n[i].tolist(), self.values[i].tolist()))
        i = operator.index(i)
        return GlobalEigenvalue(int(self.n[i]), float(self.values[i]))

    def __iter__(self):
        return map(GlobalEigenvalue, self.n.tolist(), self.values.tolist())


@dataclass(frozen=True)
class SpectralEnvelope:
    """The three bounds behind a certified count of mu(t).

    cap bounds every ratio lambda_k / lambda_0 that the table does not
    keep, beyond bounds lambda_1 / lambda_0 at every prime above p_max, and
    prefactor = Lambda_0 e^(t_bound) bounds the full base product.  So an
    index whose eigenvalue can exceed 1/t uses only kept ratios whenever
    1/t exceeds prefactor * max(cap, beyond).
    """

    cap: float
    beyond: float
    prefactor: float


@dataclass(frozen=True)
class CountingResult:
    """mu(t) from the point values of lambda_n, mu_lo <= mu <= mu_hi from
    the certified lower and upper values, and the factor margin > 1 by
    which 1/t clears prefactor * max(cap, beyond)."""

    t: float
    mu: int
    mu_lo: int
    mu_hi: int
    margin: float


def _product_tail_bound(params: SpectralParams, p_max: int) -> float:
    """Closed bound on sum_{m > p_max} log lambda_0(E_m) over integers m.

    Every prime is an integer, so this majorises the prime tail of the
    base product.  Uses the certified per-base excess a^2/(1-h), its
    monotonicity in the base, and integral comparison; h is that of
    top_eig_certificate at p_max, which raises CertificateUnavailable
    when h >= 1.
    """
    tpr = params.tau + params.rho
    h = top_eig_certificate(p_max, params).h
    coeff = 1.0 / ((1.0 - p_max ** (-tpr)) * (1.0 - h))
    return coeff * p_max ** (1.0 - tpr) / (tpr - 1.0)


class GlobalSpectrumTable:
    """Per-prime spectra below a cutoff, with the certificate built on them.

    The primes must be every prime up to p_max, ascending (lambda_of
    raises ValueError otherwise).  The spectra are stored flat, in
    compressed-row form: row i (the i-th prime) owns
    kept_ratios[offsets[i]:offsets[i + 1]], the ratios lambda_k / lambda_0
    above the floor for k >= 1 in descending order, and lambda0[i] is its
    top eigenvalue; lengths[i] is the row's length and trunc_orders[i] the
    order the row was solved at, as build_table computed it, or as
    load_table computes it from the primes it read.  Every array is
    read-only.

    base_product is Lambda_0, the product of lambda0 over the table's
    primes, as exp of the correctly rounded sum of their logs
    (arith._exact_sum, the same bits as math.fsum); tail_exponent_bound
    is a certified bound t_bound on the log of the remaining infinite
    tail, so the full product lies in [Lambda_0, Lambda_0 exp(t_bound)].
    In weakly decaying regimes a small p_max admits no certificate;
    t_bound is then inf and only tail-certified queries fail.  The
    constructor computes both, and the envelope() built on them.  Three
    cached properties are computed once, on first use, kept read-only and
    left out of a pickle: power_ratio, the kept ratio of every prime power
    p^k <= p_max in the slots of arith.prime_power_index(p_max) (8 bytes
    per slot: 0.63 MB at p_max = 10^6), which only lambda_of reads;
    ratio_bounds, the bounds on every kept ratio and the row bound, which
    only the search behind ranking and counting reads; and _views, the
    memoryviews lambda_of reads its arrays and the index through.  The
    index itself, 4 bytes per integer up to p_max, belongs to no table:
    it is cached for one p_max at a time and shared by every table there.
    Queries may run concurrently; if two threads use a table for the
    first time at once, a value may be computed twice, which does no harm.
    """

    def __init__(self, params, p_max, floor, primes, lambda0, offsets, kept_ratios, trunc_orders):
        self.params = params
        self.p_max = int(p_max)
        self.floor = float(floor)
        self.primes = primes
        self.lambda0 = lambda0
        self.offsets = offsets
        self.kept_ratios = kept_ratios
        self.trunc_orders = trunc_orders
        self.tail_bounds = truncation_tail_bound(
            primes.astype(float), params, self.trunc_orders.astype(float)
        )
        self.lengths = np.diff(offsets)
        for a in (primes, lambda0, offsets, kept_ratios, self.trunc_orders,
                  self.tail_bounds, self.lengths):
            a.setflags(write=False)
        self.base_product = math.exp(_exact_sum(np.log(self.lambda0)))
        try:
            self.tail_exponent_bound = _product_tail_bound(params, self.p_max)
        except CertificateUnavailable:
            self.tail_exponent_bound = math.inf
        # an unkept eigenvalue lies below floor + err, and lambda_0 >= 1
        cap = self.floor + float(np.max(self.tail_bounds)) + _SOLVER_MARGIN
        # lambda_1 / lambda_0 <= c_upper p^-rho; c_upper = (1+u)/(1-u) with
        # u = p^(-tau/2) and p^-rho both fall in p
        beyond = best_envelope(float(self.p_max), params).c_upper * self.p_max**-params.rho
        prefactor = self.base_product * math.exp(self.tail_exponent_bound)
        self._envelope = SpectralEnvelope(cap, beyond, prefactor)

    def __len__(self) -> int:
        return len(self.primes)

    def __getstate__(self) -> dict:
        # cached members are rebuilt on first use, and memoryviews do not pickle
        lazy = [k for k, v in vars(type(self)).items() if isinstance(v, functools.cached_property)]
        return {k: v for k, v in vars(self).items() if k not in lazy}

    @functools.cached_property
    def ratio_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ratio_hi, ratio_lo, reach), read-only: certified upper and lower
        bounds on the true ratio behind every kept ratio, from its row's
        solver and truncation margins, and the row bound of _search:
        -reach[i] is the largest ratio_hi over the rows from i on (0 where
        none keeps a ratio), the first of a row being its largest.  ratio_hi
        is not monotone in p at small primes, hence the running maximum;
        negated, it ascends, as searchsorted needs."""
        l0 = np.repeat(self.lambda0, self.lengths)
        e = np.repeat(self.tail_bounds + _SOLVER_MARGIN, self.lengths)
        lamk = self.kept_ratios * l0
        # a true ratio never exceeds 1, which keeps S_hi closed under divisors
        ratio_hi = np.minimum((lamk + e) / (l0 - e), 1.0)
        ratio_lo = np.maximum(lamk - e, 0.0) / (l0 + e)
        # the running maximum from the last ratio back, read at the row starts
        suffix = np.append(np.maximum.accumulate(ratio_hi[::-1])[::-1], 0.0)
        reach = -suffix[self.offsets[:-1]]
        for a in (ratio_hi, ratio_lo, reach):
            a.setflags(write=False)
        return ratio_hi, ratio_lo, reach

    @functools.cached_property
    def power_ratio(self) -> np.ndarray:
        """power_ratio[slot], read-only: the kept ratio lambda_k / lambda_0
        of the prime power p^k in that slot of arith.prime_power_index(p_max),
        or 0.0 where lambda_k lies below the floor (a kept ratio is never
        0).  Raises ValueError unless the table's primes are every prime up
        to p_max, the index's first slots."""
        index = prime_power_index(self.p_max)
        if not np.array_equal(self.primes, index.primes):
            raise ValueError(
                f"the table's {len(self.primes)} primes are not the {len(index.primes)}"
                f" primes up to p_max={self.p_max}"
            )
        P = len(self.primes)
        rows = np.concatenate((np.arange(P), index.rows))
        k = np.concatenate((np.ones(P, dtype=np.int64), index.exponents))
        kept = k <= self.lengths[rows]
        ratio = np.zeros(rows.size)
        ratio[kept] = self.kept_ratios[self.offsets[rows[kept]] + k[kept] - 1]
        ratio.setflags(write=False)
        return ratio

    @functools.cached_property
    def _views(self) -> tuple[memoryview, ...]:
        """The arrays lambda_of reads, as memoryviews (Python scalars, no
        copy): the table's rows, for trial division, then the prime-power
        index at p_max and power_ratio."""
        index = prime_power_index(self.p_max)
        arrays = (self.primes, self.offsets, self.lengths, self.kept_ratios, self.power_ratio,
                  index.power_of, index.powers, index.rows, index.exponents)
        return tuple(map(memoryview, arrays))

    def envelope(self) -> SpectralEnvelope:
        """The bounds behind a certified count, computed once by the constructor."""
        return self._envelope


def build_table(
    params: SpectralParams,
    p_max: int,
    target_floor: float = DEFAULT_FLOOR,
    cache_dir: str | os.PathLike | None = None,
) -> GlobalSpectrumTable:
    """Solve every prime-local block with p <= p_max.

    The ascending primes are cut into contiguous waves, each one batch of
    the solve, floor cut and top-eigenvalue check of local_spectrum, with
    every prime at its own truncation order.  A wave starting at the
    prime of order K holds max(1, _WAVE_ENTRY_SWEEPS // K^2) primes, so
    the short runs of large K at the small primes share one padded wave
    and the long runs of small K split into cache-sized ones.  A prime's
    eigenvalues do not depend on its wave, so every row is bit-identical
    to its own local_spectrum.  p_max must be an integer (a float raises
    TypeError).  cache_dir, when given, persists the table in the binary
    format of save_table and reuses it on rebuild; a cache file that is
    corrupt or answers another request is rebuilt.
    """
    params.require_regime()
    if not (0.0 < target_floor < 1.0):
        raise ValueError("target_floor must lie in (0, 1)")
    p_max = _integer(p_max, "p_max")
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    cache_path = None
    if cache_dir:
        cache_path = _cache_path(cache_dir, params, p_max, target_floor)
        if os.path.exists(cache_path):
            cached = load_table(cache_path)
            request = (params, float(target_floor), p_max)
            if cached is not None and (cached.params, cached.floor, cached.p_max) == request:
                return cached
            logger.warning("rebuilding unusable cache file %s", cache_path)

    primes = primes_up_to(p_max)
    orders = truncation_order(primes, params, target_floor)
    lambda0 = np.empty(len(primes))
    lengths = np.empty(len(primes), dtype=np.int64)
    parts = []
    lo = 0
    while lo < len(primes):
        # K falls with p, so orders[lo] is the wave's top order
        hi = lo + max(1, _WAVE_ENTRY_SWEEPS // int(orders[lo]) ** 2)
        eig, kept = _solve_rows(primes[lo:hi], params, orders[lo:hi], target_floor)
        lambda0[lo:hi] = eig[:, 0]
        lengths[lo:hi] = kept.sum(axis=1) - 1
        parts.append((eig[:, 1:] / eig[:, :1])[kept[:, 1:]])
        lo = hi
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    table = GlobalSpectrumTable(
        params, p_max, target_floor, primes, lambda0, offsets, np.concatenate(parts), orders
    )
    if cache_path:
        save_table(table, cache_path)
    return table


def lambda_of(n: int, table: GlobalSpectrumTable) -> GlobalEigenvalue:
    """lambda_n via the product formula: Lambda_0 times per-prime ratios.

    While the cofactor of n exceeds p_max it is trial-divided by the
    table's primes; from there on each full power p^k of its least prime
    factor is read from arith.prime_power_index(p_max), shared by every
    table at that cutoff, and its ratio from table.power_ratio: three
    reads per prime power.  The first call on a table builds both (the
    index only if no table at this p_max has).  The ratios are multiplied
    in ascending-prime order, as in the search behind ranking and
    counting, and the smallest prime without a usable ratio raises.  The
    arrays are read through memoryviews that the table keeps (Python
    scalars, no copy).  n must be an integer (a float raises TypeError);
    a table whose primes are not every prime up to p_max raises
    ValueError.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    (primes, offsets, lengths, ratios, power_ratio,
     power_of, powers, rows, exponents) = table._views
    p_max = table.p_max
    value = table.base_product
    m = n
    i = 0  # trial division has removed every prime below primes[i]
    while m > p_max:
        while i < len(primes) and m % primes[i] and primes[i] ** 2 <= m:
            i += 1
        if i == len(primes) or m % primes[i]:
            # a prime above p_max, or a product of such primes
            raise PrimeOutOfRange(
                f"factor {m} of n={n} has no prime factor up to the table cutoff {p_max}"
            )
        p = primes[i]
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k > lengths[i]:
            raise FloorTooHigh(f"lambda_{k}(E_{p}) lies below the floor {table.floor}")
        value *= ratios[offsets[i] + k - 1]
    while m > 1:
        j = power_of[m]
        r = power_ratio[j]
        if not r:
            s = j - len(primes)
            p, k = (primes[rows[s]], exponents[s]) if s >= 0 else (primes[j], 1)
            raise FloorTooHigh(f"lambda_{k}(E_{p}) lies below the floor {table.floor}")
        value *= r
        m //= powers[j]
    return GlobalEigenvalue(n, value)


def _fan_out(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (parent, row) with start[parent] <= row < end[parent],
    by parent, then row, ascending."""
    counts = np.maximum(end - start, 0)
    parent = np.repeat(np.arange(counts.size), counts)
    rows = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent] + start[parent]
    return parent, rows


def _search(
    table: GlobalSpectrumTable, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Indices, point values and certified lower values of lambda_n over
    S_hi, and the margin.

    S_hi holds the n whose certified upper value, prefactor times one
    ratio bound ratio_hi <= 1 per prime power, exceeds 1/t.  ratio_hi
    falls with the exponent, so S_hi is closed under divisors: level L
    holds its n with L distinct prime factors, and each appends a later
    prime p^k while hi * ratio_hi(p^k) > x = 1/(t prefactor), its index one
    int64 product per power.  Primes are appended in ascending order, so a
    point value is bit-identical to lambda_of.  Every other index has a
    factor below max(cap, beyond), so x must exceed it; the margin is
    their quotient.  Every bound is read from the table: its envelope and
    its ratio_bounds, indexed by kept ratio and row.  An index past
    2^63 - 1 raises EnumerationInfeasible.
    """
    env = table.envelope()
    if not math.isfinite(env.prefactor):
        raise CertificateUnavailable(
            f"no certified tail bound at p_max={table.p_max} in this regime; enlarge p_max"
        )
    x = 1.0 / (t * env.prefactor)
    bound = max(env.cap, env.beyond)
    if not x > bound:
        raise EnumerationInfeasible(
            f"1/(t prefactor) = {x:.3g} (1/t = {1.0 / t:.3g}, prefactor {env.prefactor:.3g})"
            f" is not above the cap {env.cap:.3g} on unkept ratios or the bound"
            f" {env.beyond:.3g} on primes above p_max={table.p_max}"
        )
    primes, offsets, ratios = table.primes, table.offsets, table.kept_ratios
    ratio_hi, ratio_lo, reach = table.ratio_bounds
    # level 0 is n = 1, the empty product
    hi, row = np.ones(int(1.0 > x)), np.full(int(1.0 > x), -1)
    n = np.ones(hi.size, dtype=np.int64)
    val = lo = np.full(hi.size, table.base_product)
    found = [(n, val, lo)]
    while hi.size:
        # fl(hi * r) > x implies r >= fl(x / hi), so this end widens the
        # rows to try; the product test below decides membership
        end = np.searchsorted(reach, -(x / hi), side="right")
        parent, rows = _fan_out(row + 1, end)
        j, stop, m = offsets[rows], offsets[rows + 1], n[parent]
        levels = [(n[:0], hi[:0], val[:0], lo[:0], row[:0])]  # ends the search if none qualifies
        while j.size:
            live = j < stop
            parent, rows, j, stop, m = (a[live] for a in (parent, rows, j, stop, m))
            up = hi[parent] * ratio_hi[j]
            keep = up > x
            parent, rows, j, stop, m = (a[keep] for a in (parent, rows, j, stop, m))
            p = primes[rows]
            if m.size and int(m.max()) * int(p.max()) > _INDEX_MAX and np.any(m > _INDEX_MAX // p):
                raise EnumerationInfeasible(f"an index past {_INDEX_MAX} lies in the search set")
            m = m * p
            levels.append((m, up[keep], val[parent] * ratios[j], lo[parent] * ratio_lo[j], rows))
            j = j + 1
        n, hi, val, lo, row = (np.concatenate(a) for a in zip(*levels))
        found.append((n, val, lo))
    n, values, lower = (np.concatenate(a) for a in zip(*found))
    return n, values, lower, x / bound


def counting_mu(table: GlobalSpectrumTable, t: float) -> CountingResult:
    """mu(t) = #{n : lambda_n > 1/t}, counted over the divisor-closed set
    S_hi of _search, which holds every n whose eigenvalue can exceed 1/t;
    mu_lo counts the certified lower values there and mu_hi = |S_hi|.
    """
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be positive and finite, got {t}")
    _, values, lower, margin = _search(table, t)
    mu, mu_lo = (int(np.count_nonzero(v > 1.0 / t)) for v in (values, lower))
    return CountingResult(float(t), mu, mu_lo, values.size, margin)


def enumerate_spectrum(table: GlobalSpectrumTable, n_max: int) -> RankedSpectrum:
    """The n_max largest eigenvalues lambda_n, by value descending, ties
    by ascending n.

    They are the n_max largest point values of one _search whose 1/t lies
    at or below lambda at rank n_max; every index it leaves out has a
    value at most 1/t.  t starts at the scale of lambda_1 = Lambda_0,
    (n_max / 64)^rho / Lambda_0, and each retry scales it by the law
    mu(t) ~ t^(1/rho), with 2% slack and a step of at least 1.05, up to
    the coverage edge 1/(prefactor max(cap, beyond)).  Fewer than n_max
    values above 1/t at that edge raise EnumerationInfeasible, naming the
    bound that binds.  The top n_max are picked by argpartition and
    sorted by the default sort; only when a value ties, among them or at
    rank n_max, are they ranked by a lexsort on (-value, n).  n_max must
    be an integer (a float raises TypeError).  The result holds the
    ranked indices and values as arrays and builds a GlobalEigenvalue
    only when an entry is read.
    """
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    env = table.envelope()
    rho = table.params.rho
    # the largest t whose 1/(t prefactor) clears max(cap, beyond) despite
    # rounding; an uncertified table gives 0, which _search refuses
    t_edge = (1.0 - 1e-12) / (env.prefactor * max(env.cap, env.beyond))
    t = min((n_max / 64) ** rho / table.base_product, t_edge)
    while True:
        n, values, _, _ = _search(table, t)
        count = int(np.count_nonzero(values > 1.0 / t))
        if count >= n_max:
            break
        if t == t_edge:
            binds = (
                f"the cap {env.cap:.3g} on the ratios below the floor {table.floor:.3g}"
                if env.cap >= env.beyond
                else f"the bound {env.beyond:.3g} on primes above p_max={table.p_max}"
            )
            raise EnumerationInfeasible(
                f"the search at the coverage edge lists {count} of the n_max = {n_max}"
                f" values needed above 1/t = {1.0 / t:.3g}; {binds} stops it"
            )
        t = min(t * max(1.05, 1.02 * (n_max / max(count, 1)) ** rho), t_edge)
    neg = -values
    top = np.argpartition(neg, n_max - 1)[:n_max]
    top = top[np.argsort(neg[top])]
    ranked = values[top]
    # a tie among the top n_max, or between rank n_max and the rest
    if np.any(ranked[1:] == ranked[:-1]) or np.count_nonzero(values >= ranked[-1]) > n_max:
        top = np.lexsort((n, neg))[:n_max]
        ranked = values[top]
    return RankedSpectrum(n[top], ranked)


def _entries(params: SpectralParams, ell: np.ndarray) -> np.ndarray:
    """n^sigma m^sigma / ell^tau in log space, for the N x N LCM grid ell.

    The entries are formed in place in one float array, with one more
    N x N temporary for the index term, so the peak is three N x N arrays
    counting the int grid the caller holds.  The bits are those of
    exp(sigma (log n + log m) - tau log ell): (-tau) L is exactly
    -(tau L), and adding it is exactly subtracting tau L.
    """
    logn = np.log(np.arange(1, len(ell) + 1, dtype=float))
    out = ell.astype(float)
    np.log(out, out=out)
    out *= -params.tau
    index = np.add.outer(logn, logn)
    index *= params.sigma
    out += index
    return np.exp(out, out=out)


def entry_matrix(params: SpectralParams, N: int) -> np.ndarray:
    """Dense top-left N x N block of the infinite matrix (log-space entries).

    Builds one LCM grid per call.  N must be an integer (a float raises
    TypeError).
    """
    N = _integer(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    return _entries(params, lcm_grid(N))


def finite_section_eigs(params: SpectralParams, N: int) -> np.ndarray:
    """Eigenvalues of the N x N finite section, descending.

    Cross-validation route against the product formula (min-max pushes
    every finite-section eigenvalue below its infinite counterpart).
    Uses the platform symmetric eigensolver; sections are dense.  N must
    be an integer (a float raises TypeError).
    """
    if not params.bounded:
        raise InvalidRegime("finite sections are only meaningful in the bounded regime")
    return np.linalg.eigvalsh(entry_matrix(params, N))[::-1]


# ---------------------------------------------------------------------------
# binary persistence: header, contiguous little-endian arrays, CRC-32
# ---------------------------------------------------------------------------

_MAGIC = b"LSPC"
_VERSION = 3
# magic, version, sigma, tau, floor, p_max, number P of primes, number R of ratios
_HEADER = struct.Struct("<4sI3d3Q")
_CRC = struct.Struct("<I")


def _cache_path(cache_dir, params, p_max, floor):
    name = f"table_s{params.sigma:.17g}_t{params.tau:.17g}_f{floor:.17g}_P{int(p_max)}.lsp"
    return os.path.join(os.fspath(cache_dir), name)


def save_table(table: GlobalSpectrumTable, path) -> None:
    """Write the header, then primes and offsets as int64, then lambda0 and
    the kept ratios as float64, then a CRC-32 of all of it.

    The ratios are stored as such, so a round trip is bit-exact.  The file
    is written under a temporary name in the same directory and moved into
    place, so readers never see a partial file.
    """
    P, R = len(table.primes), table.kept_ratios.size
    sigma, tau = table.params.sigma, table.params.tau
    ints = np.concatenate((table.primes, table.offsets)).astype("<i8")
    floats = np.concatenate((table.lambda0, table.kept_ratios)).astype("<f8")
    body = _HEADER.pack(_MAGIC, _VERSION, sigma, tau, table.floor, table.p_max, P, R)
    body += ints.tobytes() + floats.tobytes()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.fspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body + _CRC.pack(zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path) -> GlobalSpectrumTable | None:
    """Read a table written by save_table; None if the file is short,
    corrupt, of another format version, or its lengths disagree."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + _CRC.size:
        return None
    magic, version, sigma, tau, floor, p_max, P, R = _HEADER.unpack_from(raw)
    size = _HEADER.size + 8 * (3 * P + 1 + R)
    if (magic, version, len(raw)) != (_MAGIC, _VERSION, size + _CRC.size) or (
        _CRC.unpack_from(raw, size)[0] != zlib.crc32(raw[:size])
    ):
        return None
    ints = np.frombuffer(raw, "<i8", count=2 * P + 1, offset=_HEADER.size)
    floats = np.frombuffer(raw, "<f8", count=P + R, offset=_HEADER.size + 8 * ints.size)
    params, primes = SpectralParams(sigma, tau), ints[:P]
    orders = truncation_order(primes, params, floor)
    return GlobalSpectrumTable(
        params, p_max, floor, primes, floats[:P], ints[P:], floats[P:], orders
    )
