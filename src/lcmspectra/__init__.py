"""Numerical toolkit for the spectra of arithmetical LCM matrices.

The family under study has entries n^sigma m^sigma / [n,m]^tau.  In the
admissible exponent regime it defines a compact positive definite
operator whose eigenvalues factor over primes; the toolkit computes the
per-prime blocks, assembles the global spectrum, evaluates the asymptotic
constant kappa in lambda_n ~ kappa / n^rho, reproduces the multiplicative
Toeplitz singular-value rescaling at desk scale, and builds the induced
generalized prime system.
"""

from .arith import (
    PrimePowerIndex,
    SpectralParams,
    factorize,
    lcm_grid,
    prime_power_index,
    primes_up_to,
    zeta_real,
)
from .beurling import (
    BeurlingSystem,
    beurling_integers,
    count_integers,
    system_from_spectra,
)
from .errors import (
    CertificateUnavailable,
    EigensolverError,
    EnumerationCapExceeded,
    EnumerationInfeasible,
    FloorTooHigh,
    InvalidRegime,
    NoClosedForm,
    PrimeOutOfRange,
    VerificationFailed,
)
from .kappa import (
    KappaComputation,
    g_p_at,
    kappa_closed_form,
    kappa_numeric,
    s_threshold,
)
from .local import (
    LocalSpectrum,
    SandwichEnvelope,
    TopEigenvalueCertificate,
    a_norm_squared,
    best_envelope,
    block_eigenvalues,
    build_local_matrix,
    corner_quadratic_form,
    hs_bound_squared,
    local_spectra,
    local_spectrum,
    sandwich_envelope,
    top_eig_certificate,
    truncation_order,
    truncation_tail_bound,
)
from .spectrum import (
    CountingResult,
    GlobalEigenvalue,
    GlobalSpectrumTable,
    RankedSpectrum,
    SpectralEnvelope,
    build_table,
    counting_mu,
    entry_matrix,
    enumerate_spectrum,
    finite_section_eigs,
    lambda_of,
    load_table,
    save_table,
)
from .toeplitz import (
    build_toeplitz,
    gram_via_formula,
    hadamard_factor,
    rescaled_singular_values,
    schatten_diff,
)

__version__ = "0.1.0"
