"""Generalized prime systems built from the local spectra.

The normalised second eigenvalues gamma_p = lambda_1(E_p)/lambda_0(E_p)
define real generators r_p = gamma_p^(-1/rho), close to p itself.  The
multiplicative semigroup they generate plays the role of the integers;
its counting function grows linearly, and the empirical density c(x)
stabilises at desk scale.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .arith import SpectralParams
from .errors import EnumerationCapExceeded, FloorTooHigh
from .spectrum import GlobalSpectrumTable

__all__ = [
    "BeurlingSystem",
    "system_from_spectra",
    "beurling_integers",
    "count_integers",
    "density_fit",
]

logger = logging.getLogger(__name__)

_MERGE_RTOL = 1e-12
DEFAULT_CAP = 5_000_000


@dataclass(frozen=True)
class BeurlingSystem:
    """Ascending real generators > 1 plus the parameters they came from."""

    generators: np.ndarray
    params: SpectralParams

    def __post_init__(self):
        g = self.generators
        if g.size and (g[0] <= 1.0 or np.any(np.diff(g) < 0)):
            raise ValueError("generators must exceed 1 and ascend")

    @property
    def rho(self) -> float:
        return self.params.rho


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

    Min-heap enumeration with a per-generator cursor: each multiset of
    generators is visited exactly once.  Distinct multisets whose products
    agree within 1e-12 relative are merged into one element (real
    generators in general position collide only by numerical accident);
    merges are counted and logged.
    """
    if x < 1.0:
        return np.empty(0)
    gens = system.generators
    G = gens.size
    out = [1.0]
    heap: list[tuple[float, int]] = []
    if G and gens[0] <= x:
        heapq.heappush(heap, (float(gens[0]), 0))
    collisions = 0
    while heap:
        v, j = heapq.heappop(heap)
        if v - out[-1] <= _MERGE_RTOL * v:
            collisions += 1
        else:
            out.append(v)
            if len(out) > max_count:
                raise EnumerationCapExceeded(
                    f"semigroup enumeration exceeded max_count={max_count} below x={x}",
                    partial=max_count,
                )
        child = v * gens[j]
        if child <= x:
            heapq.heappush(heap, (child, j))
        if j + 1 < G:
            sibling = (v / gens[j]) * gens[j + 1]
            if sibling <= x:
                heapq.heappush(heap, (sibling, j + 1))
    if collisions:
        logger.warning(
            "merged %d numerically equal semigroup products below x=%g", collisions, x
        )
    return np.asarray(out)


def count_integers(
    system: BeurlingSystem, x: float, max_count: int = DEFAULT_CAP
) -> int:
    """#{semigroup elements <= x}; zero for x < 1, and 1 is always counted."""
    if x < 0.0:
        raise ValueError("x must be non-negative")
    return int(beurling_integers(system, x, max_count).size)


def density_fit(
    system: BeurlingSystem, x_grid, max_count: int = DEFAULT_CAP
) -> np.ndarray:
    """Empirical density c(x) = count(x)/x on an ascending grid (x >= 1).

    One enumeration up to max(x_grid) serves every grid point.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("x_grid must be a non-empty one-dimensional sequence")
    if np.any(np.diff(xs) < 0) or xs[0] < 1.0:
        raise ValueError("x_grid must ascend and start at x >= 1")
    values = beurling_integers(system, float(xs[-1]), max_count)
    counts = np.searchsorted(values, xs, side="right")
    return counts / xs
