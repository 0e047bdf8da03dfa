"""The asymptotic spectral constant kappa(sigma, tau).

The ordered eigenvalues obey lambda_n ~ kappa / n^rho, with
kappa = g(1/rho)^(-rho) for the Euler product
g(s) = prod_p (1 - p^(-rho s)) sum_k lambda_k(E_p)^s.  This module
evaluates the product over the primes of a prebuilt spectral table, with
a fitted tail estimate, and provides the two closed-form cases (rho = 1
and rho = 1/2); g_p_at evaluates one factor from a local spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import SpectralParams, zeta_real
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

_TERM_CUT = 1e-16
_TAIL_SAFETY = 10.0


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


@dataclass(frozen=True)
class KappaComputation:
    """kappa with its provenance: evaluation point, per-prime factors, tail."""

    params: SpectralParams
    s: float
    p_max: int
    g_factors: np.ndarray
    kappa: float
    uncertainty: float
    tail_exponent: float
    extrapolated: bool


def kappa_numeric(params: SpectralParams, *, table: GlobalSpectrumTable) -> KappaComputation:
    """kappa = (prod_{p <= p_max} g_p(1/rho))^(-rho) over the table's primes,
    with a tail estimate.

    The uncertainty bounds |g_p - 1| by C p^(-theta) with the
    conservative exponent theta = min(tau + rho, 2, 1 + tau/2) (reported
    as tail_exponent); C is fitted on the top decade of computed primes
    with a 10x safety factor and is NOT rigorous (the asymptotic constants
    are unknown).  For slowly decaying tails (rho < 1) and more than 16
    primes, a two-point geometric extrapolation in the cutoff refines the
    central value, and `extrapolated` says whether it ran.  The step uses
    the measured decay g_p - 1 ~ p^(-(tau + rho)) / rho, not theta; the
    uncertainty keeps theta, the only exponent that also covers the floor
    bias at rho > 1.

    The table must have been built for params.
    """
    params.require_regime()
    s = 1.0 / params.rho
    if table.params != params:
        raise ValueError(f"table was built for {table.params}, not {params}")
    p_max = table.p_max
    primes = table.primes

    base = primes.astype(float) ** (-params.rho * s)
    sums = np.bincount(table.owner, weights=table.kept_ratios**s, minlength=len(primes))
    g = (1.0 - base) * table.lambda0**s * (1.0 + sums)
    if np.any(g <= 0.0):
        raise InvalidRegime("non-positive Euler factor; spectra unavailable")

    logs = np.log(g)
    log_g = math.fsum(logs)

    theta = min(params.tau + params.rho, 2.0, 1.0 + params.tau / 2.0)
    # never empty: Bertrand's postulate puts a prime in (m, 2m] for m >= 1
    window = primes >= max(2, p_max // 10)
    c_fit = _TAIL_SAFETY * float(
        np.max(np.abs(g[window] - 1.0) * primes[window].astype(float) ** theta)
    )
    tail = c_fit * p_max ** (1.0 - theta) / (theta - 1.0)

    correction = 0.0
    extrapolated = params.rho < 1.0 and len(primes) > 16
    if extrapolated:
        half_mask = primes <= p_max // 2
        delta = log_g - math.fsum(logs[half_mask])
        correction = delta / (2.0 ** (params.tau + params.rho - 1.0) - 1.0)

    kappa = math.exp(-params.rho * (log_g + correction))
    uncertainty = kappa * params.rho * tail
    return KappaComputation(
        params=params,
        s=s,
        p_max=p_max,
        g_factors=g,
        kappa=kappa,
        uncertainty=uncertainty,
        tail_exponent=theta,
        extrapolated=extrapolated,
    )


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
