"""Generalized prime systems built from the local spectra.

The normalised second eigenvalues gamma_p = lambda_1(E_p)/lambda_0(E_p)
define real generators r_p = gamma_p^(-1/rho), close to p itself.  The
multiplicative semigroup they generate plays the role of the integers;
its counting function grows linearly, and the empirical density
c(x) = count(x)/x stabilises at desk scale.  The semigroup is enumerated
level by level (level k holds the products of k generators) in array
code, then sorted once; the elements up to the largest x answer the
count at every smaller x too, which is how the CLI reads c(x) on a list
of points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .arith import SpectralParams
from .errors import EnumerationCapExceeded, FloorTooHigh
from .spectrum import GlobalSpectrumTable, _fan_out

__all__ = [
    "BeurlingSystem",
    "system_from_spectra",
    "beurling_integers",
    "count_integers",
]

logger = logging.getLogger(__name__)

_MERGE_RTOL = 1e-12
DEFAULT_CAP = 5_000_000


@dataclass(frozen=True)
class BeurlingSystem:
    """Ascending finite real generators > 1 plus the parameters they came
    from."""

    generators: np.ndarray
    params: SpectralParams

    def __post_init__(self):
        g = self.generators
        if g.size and (not np.isfinite(g).all() or g[0] <= 1.0 or np.any(np.diff(g) < 0)):
            raise ValueError("generators must be finite, exceed 1 and ascend")


def system_from_spectra(table: GlobalSpectrumTable) -> BeurlingSystem:
    """Generators r_p = (lambda_1(E_p)/lambda_0(E_p))^(-1/rho), sorted."""
    inv_rho = -1.0 / table.params.rho
    empty = np.flatnonzero(table.lengths == 0)
    if empty.size:
        raise FloorTooHigh(
            f"no second eigenvalue for p={int(table.primes[empty[0]])}: "
            f"floor {table.floor} too high"
        )
    gens = table.kept_ratios[table.offsets[:-1]] ** inv_rho
    return BeurlingSystem(np.sort(gens), table.params)


def beurling_integers(
    system: BeurlingSystem, x: float, max_count: int = DEFAULT_CAP
) -> np.ndarray:
    """All semigroup elements <= x, ascending, starting from the empty product 1.

    Level k holds the products of k generators as values v and the index j
    of each product's largest generator; level k + 1 multiplies each v by
    every gens[j:] that keeps the product <= x, the pairs listed by
    spectrum._fan_out as in the search behind ranking and counting.  So
    each multiset of generators is visited exactly once, and its product
    is formed in ascending generator order with one rounding per factor.
    Distinct multisets whose products agree within 1e-12 relative are
    merged into one element (real generators in general position collide
    only by numerical accident); merges are counted and logged.

    max_count caps the number of generator multisets, the empty one
    included, i.e. the products before merging; it is checked before each
    level is allocated, so memory stays O(max_count); it must be >= 1.
    x must be finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if x < 1.0:
        return np.empty(0)
    gens = system.generators
    v, j = np.ones(1), np.zeros(1, dtype=np.int64)
    levels = [v]
    total = 1
    while v.size:
        hi = _admitted_end(gens, v, j, x)
        total += int((hi - j).sum())
        if total > max_count:
            raise EnumerationCapExceeded(
                f"semigroup enumeration exceeded max_count={max_count} below x={x}"
            )
        parent, j = _fan_out(j, hi)
        v = v[parent] * gens[j]
        levels.append(v)
    values = np.sort(np.concatenate(levels))
    # a value is dropped when within 1e-12 v of the last kept value; only
    # the flagged neighbours can be dropped, so Python visits just those
    drop = np.zeros(values.size, dtype=bool)
    last = 0
    for i in (np.flatnonzero(np.diff(values) <= _MERGE_RTOL * values[1:]) + 1).tolist():
        if not drop[i - 1]:
            last = i - 1
        drop[i] = values[i] - values[last] <= _MERGE_RTOL * values[i]
    collisions = int(drop.sum())
    if collisions:
        logger.warning(
            "merged %d numerically equal semigroup products below x=%g", collisions, x
        )
        values = values[~drop]
    return values


def _admitted_end(gens, v, j, x) -> np.ndarray:
    """Per parent, the end hi >= j of the generators gens[j:hi] with v * g <= x.

    The rounded product v * g rises with g, so the admitted generators are
    a prefix of gens[j:].  Its end is searched for below a widened
    quotient and then only moved down until the product test agrees.  The
    bound is safe: with u = 2^-53 (v, g and x / v are at least 1, so no
    rounding underflows), fl(v g) <= x gives v g (1 - u) <= x, and
    x / v <= fl(x / v) / (1 - u), so g <= fl(x / v) / (1 - u)^2, which is
    below fl(x / v) (1 + 2^-50) (1 - u), itself at most the rounded
    widened quotient.  The search overshoots only by the generators within
    about 2^-50 relative of x / v.
    """
    hi = np.maximum(np.searchsorted(gens, x / v * (1 + 2**-50), side="right"), j)
    down = np.flatnonzero(hi > j)
    while down.size:
        down = down[v[down] * gens[hi[down] - 1] > x]
        hi[down] -= 1
        down = down[hi[down] > j[down]]
    return hi


def count_integers(
    system: BeurlingSystem, x: float, max_count: int = DEFAULT_CAP
) -> int:
    """#{semigroup elements <= x} for finite x >= 0; zero for x < 1, and 1
    is always counted."""
    if x < 0.0:
        raise ValueError("x must be non-negative")
    return int(beurling_integers(system, x, max_count).size)

