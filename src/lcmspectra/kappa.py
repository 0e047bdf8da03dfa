"""The asymptotic spectral constant kappa(sigma, tau).

The ordered eigenvalues obey lambda_n ~ kappa / n^rho, with
kappa = g(1/rho)^(-rho) for the Euler product
g(s) = prod_p (1 - p^(-rho s)) sum_k lambda_k(E_p)^s.  This module
evaluates the product over the primes of a prebuilt spectral table with a
closed-form tail beyond its cutoff, summed through the prime zeta function,
and the two closed forms (rho = 1 and 1/2); g_p_at evaluates one factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import SpectralParams, _exact_sum, factorize, zeta_real
from .errors import InvalidRegime, NoClosedForm
from .local import DEFAULT_FLOOR, LocalSpectrum, local_spectrum
from .spectrum import GlobalSpectrumTable

__all__ = [
    "KappaComputation",
    "s_threshold",
    "g_p_at",
    "kappa_numeric",
    "kappa_closed_form",
]

# a term below this, next to 1, is invisible in double precision
_TERM_CUT = 1e-16


def s_threshold(params: SpectralParams) -> float:
    """Abscissa s_0 = max(1/(2 rho), (2 - tau)/(2 rho)) of product convergence."""
    if params.rho <= 0.0:
        raise InvalidRegime("s_threshold needs rho > 0")
    return max(1.0 / (2.0 * params.rho), (2.0 - params.tau) / (2.0 * params.rho))


def g_p_at(
    p: float,
    params: SpectralParams,
    s: float,
    spectrum: LocalSpectrum | None = None,
    target_floor: float = DEFAULT_FLOOR,
) -> float:
    """One Euler factor g_p(s) = (1 - p^(-rho s)) sum_k lambda_k(E_p)^s."""
    if s <= s_threshold(params):
        raise InvalidRegime(
            f"s={s} is at or below the convergence abscissa {s_threshold(params)}"
        )
    if spectrum is None:
        spectrum = local_spectrum(p, params, target_floor)
    terms = spectrum.eigenvalues**s
    # terms decrease with k; drop the remainder once it is invisible
    running = np.cumsum(terms)
    small = terms < _TERM_CUT * (running - terms)
    cut = int(np.argmax(small)) if small.any() else terms.size
    return (1.0 - float(p) ** (-params.rho * s)) * math.fsum(terms[:cut])


def _prime_zeta_tail(a: float, primes: np.ndarray, p_max: int) -> float:
    """P_>(a) = sum_{p > p_max} p^-a for a > 1, from the primes up to p_max,
    as sum_k mu(k)/k L(k a) with L(b) = log zeta(b) + sum_{p <= p_max}
    log1p(-p^-b): Moebius inversion of log zeta (Froberg, BIT 8, 1968).
    Terms with p_max^(1 - k a) < _TERM_CUT are dropped."""
    terms = []
    for k in range(1, int((1.0 - math.log(_TERM_CUT) / math.log(p_max)) / a) + 1):
        exps = [e for _, e in factorize(k)]
        if max(exps, default=1) == 1:  # mu(k) = (-1)^len(exps), else 0
            partial = float(np.sum(np.log1p(-np.power(primes, -k * a, dtype=float))))
            terms.append((-1) ** len(exps) / k * (math.log(zeta_real(k * a)) + partial))
    return math.fsum(terms)


def _euler_tail(params: SpectralParams, primes: np.ndarray, p_max: int) -> float:
    """sum_{p > p_max} G(p), expanded as G(p) = (1/rho) sum_{m >= 0}
    ([m >= 1] p^-(tau + m rho) - p^-(tau + m rho + 1)).  Coefficients are
    merged per exponent first, so at rho = 1 all cancel and no prime zeta
    value is evaluated; exponents a with p_max^(1 - a) < _TERM_CUT are dropped."""
    rho, tau = params.rho, params.tau
    a_max = 1.0 - math.log(_TERM_CUT) / math.log(p_max)
    coeffs = Counter()
    for m in range(int((a_max - tau) / rho) + 1):
        coeffs[m * rho] += m > 0
        coeffs[m * rho + 1.0] -= 1
    return math.fsum(
        c * _prime_zeta_tail(tau + x, primes, p_max)
        for x, c in coeffs.items()
        if c and tau + x <= a_max
    ) / rho


@dataclass(frozen=True)
class KappaComputation:
    """kappa with its provenance: evaluation point, per-prime factors, tail."""

    params: SpectralParams
    s: float
    p_max: int
    g_factors: np.ndarray
    kappa: float
    tail: float


def kappa_numeric(params: SpectralParams, *, table: GlobalSpectrumTable) -> KappaComputation:
    """kappa = g(1/rho)^(-rho) from the Euler factors of the table's primes
    and a closed-form tail for the primes above p_max.

    Beyond p_max, log g_p(1/rho) is replaced by
    G(p) = (1/rho) p^-tau [p^-rho (1 - 1/p) / (1 - p^-rho) - 1/p], the
    order-p^-tau term of second-order perturbation of
    E_p = diag(p^(-rho j)) + F: only F_{j,j+-1}^2 = p^(-rho(2j+-1) - tau)
    enter, so lambda_0 ~ 1 + y q/(1 - q) and lambda_j ~ q^j (1 - y) for
    j >= 1, with q = p^-rho and y = p^-tau.  G = 0 at rho = 1 (the trace
    identity), G = 2 p^-(1 + 2 sigma) at rho = 1/2 (the leading term of the
    closed g_p(2)), and log g_p - G(p) = O(p^-min(2 tau + 2 rho, 1 + 2 tau)).
    tail, the sum of G over p > p_max, is exact through the prime zeta function.
    The sum of log g_p over the table's primes is correctly rounded
    (arith._exact_sum, the same bits as math.fsum).

    The table must have been built for params.
    """
    params.require_regime()
    s = 1.0 / params.rho
    if table.params != params:
        raise ValueError(f"table was built for {table.params}, not {params}")
    primes = table.primes

    base = primes.astype(float) ** (-params.rho * s)
    rows = np.repeat(np.arange(len(primes)), table.lengths)
    sums = np.bincount(rows, weights=table.kept_ratios**s, minlength=len(primes))
    g = (1.0 - base) * table.lambda0**s * (1.0 + sums)
    if np.any(g <= 0.0):
        raise InvalidRegime("non-positive Euler factor; spectra unavailable")

    tail = _euler_tail(params, primes, table.p_max)
    kappa = math.exp(-params.rho * (_exact_sum(np.log(g)) + tail))
    return KappaComputation(params, s, table.p_max, g, kappa, tail)


def kappa_closed_form(params: SpectralParams) -> float:
    """Closed forms: kappa = 1 at rho = 1, and
    sqrt(zeta(2 + 4 sigma)) / zeta(1 + 2 sigma) at rho = 1/2 (sigma > 0)."""
    rho = params.rho
    if abs(rho - 1.0) <= 1e-12:
        return 1.0
    if abs(rho - 0.5) <= 1e-12:
        if params.sigma <= 0.0:
            raise NoClosedForm(
                "rho = 1/2 closed form needs sigma > 0 (zeta argument above 1)"
            )
        return math.sqrt(zeta_real(2.0 + 4.0 * params.sigma)) / zeta_real(
            1.0 + 2.0 * params.sigma
        )
    raise NoClosedForm(f"no closed form at rho = {rho}")
