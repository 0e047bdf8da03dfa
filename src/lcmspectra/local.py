"""Prime-local blocks E_p(sigma, tau): spectra and certified envelopes.

The block at base p has entries p^(sigma (j+k) - tau max(j,k)) for
j, k >= 0.  The base may be any real p > 1; integer primality plays no
role in the linear algebra, and prime-indexed callers simply restrict to
primes.  One private routine solves a batch of blocks, each at its own
order and, when given a list of parameter points, at its own (sigma,
tau), cuts each row at the floor and checks its top eigenvalue;
local_spectra runs it once for a list of bases, local_spectrum is
local_spectra at one base, and spectrum.build_table runs it for each
wave of consecutive primes.  The solve is zero-shift dqd with its sweeps
run as a wavefront: every sweep in flight advances by one position per
numpy step, so a batch whose largest order is K costs about K + 2S numpy
steps for S sweeps rather than K S, at the price of finishing the
(K - 1) // 2 sweeps in flight when the stopping test passes.  The
factor is stored split by the parity of its positions, so each step
reads and writes one contiguous block of rows per parity, and a narrow
batch pays a few ufunc calls per step rather than one per row.  A base's
eigenvalues come out the same to the bit whatever batch it is solved
in, whatever the orders and parameter points of the other bases.  All
returned values are immutable and safe to share.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .arith import SpectralParams
from .errors import CertificateUnavailable, EigensolverError, InvalidRegime

__all__ = [
    "LocalSpectrum",
    "SandwichEnvelope",
    "TopEigenvalueCertificate",
    "build_local_matrix",
    "truncation_order",
    "truncation_tail_bound",
    "block_eigenvalues",
    "local_spectrum",
    "local_spectra",
    "sandwich_envelope",
    "best_envelope",
    "corner_quadratic_form",
    "a_norm_squared",
    "hs_bound_squared",
    "top_eig_certificate",
]

DEFAULT_FLOOR = 1e-14
# one parameter point for every base, or a sequence of them, one per base
Params = SpectralParams | Sequence[SpectralParams]
# the largest block order block_eigenvalues solves: one base at p = 2 and
# rho = 0.02 takes 1.6 s at this order on a 2-core host, while the order
# grows without bound as p -> 1 or rho -> 0 (3.5e8 at p = 1.0000001 and
# (1/4, 3/2), about 11 GB of solver arrays)
MAX_ORDER = 2**14
# dqd stops once every squared off-diagonal is below this share of the
# squared diagonal after it
_DQD_TOL = 1e-16


# ---------------------------------------------------------------------------
# local blocks and their spectra
# ---------------------------------------------------------------------------

def build_local_matrix(p, params: SpectralParams, K: int) -> np.ndarray:
    """K x K upper-left block: entry (j, k) = p^(sigma (j+k) - tau max(j,k)).

    Vectorises over p: an array of bases gives the stack of blocks, of
    shape p.shape + (K, K).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 1.0):
        raise ValueError("base p must exceed 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    j = np.arange(K, dtype=float)
    expo = params.sigma * (j[:, None] + j[None, :]) - params.tau * np.maximum(
        j[:, None], j[None, :]
    )
    return np.exp(np.log(p)[..., None, None] * expo)


def truncation_order(p, params: Params, target_floor: float):
    """Block size placing the discarded diagonal a decade below the floor.

    The diagonal p^(-rho k) sets the scale of what truncation throws away;
    two extra rows add safety margin.  Vectorises over p; params is one
    SpectralParams for every base or a sequence of them, one per base in
    p's flat order.  Raises ValueError unless 0 < target_floor < 1, every
    base is a finite p > 1 and a sequence has one point per base, and
    InvalidRegime unless every rho is finite and positive and every
    tau > 0.
    """
    if not (0.0 < target_floor < 1.0):
        raise ValueError("target_floor must lie in (0, 1)")
    # no float copy of p outlives its use
    rho, _ = _check_blocks(np.asarray(p, dtype=float), params)
    logp = np.log(np.asarray(p, dtype=float))
    # a huge rho overflows -rho log p to -inf, giving the least order 3,
    # and the solve then reports the overflow of p^(rho (K-1))
    with np.errstate(over="ignore"):
        K = np.ceil(math.log(target_floor / 10.0) / (-rho * logp)).astype(np.int64)
    K = np.maximum(K + 2, 3)
    return int(K) if K.ndim == 0 else K


def truncation_tail_bound(p, params: SpectralParams, K) -> np.ndarray | float:
    """Hilbert-Schmidt norm of everything outside the K x K block, closed form.

    By Weyl's inequality this bounds the shift of every eigenvalue caused
    by truncating the infinite block to K x K.  Vectorises over p.
    """
    p = np.asarray(p, dtype=float)
    rho = params.rho
    x2r = p ** (-2.0 * rho)
    xtr = p ** (-(params.tau + rho))
    diag = x2r**K / (1.0 - x2r)
    if params.sigma == 0.0:
        y = p ** (-2.0 * params.tau)
        cross = 2.0 * y**K * (K - (K - 1) * y) / (1.0 - y) ** 2
    else:
        w = p ** (2.0 * params.sigma)
        cross = 2.0 / (1.0 - w) * (xtr**K / (1.0 - xtr) - x2r**K / (1.0 - x2r))
    out = np.sqrt(np.maximum(diag + cross, 0.0))
    return float(out) if out.ndim == 0 else out


def _check_blocks(p: np.ndarray, params: Params):
    """rho and tau of the blocks at the bases p: floats for one
    SpectralParams, arrays of p's shape for a sequence of them.

    Raises unless every base is a finite p > 1 and every point gives
    finite rho > 0 and tau > 0, the blocks the dqd solve is built for; a
    sequence must hold one point per base, and a bad point is named.
    """
    single = isinstance(params, SpectralParams)
    points = [params] if single else list(params)
    if not single and len(points) != p.size:
        raise ValueError(f"{len(points)} parameter points for {p.size} bases")
    for i, point in enumerate(points):
        if not (0.0 < point.rho < math.inf and point.tau > 0.0):
            where = "" if single else f" at {point!r}, point {i} of the list"
            raise InvalidRegime(
                f"local spectra need finite rho > 0 and tau > 0, "
                f"got rho={point.rho}, tau={point.tau}{where}"
            )
    bad = ~((1.0 < p) & (p < math.inf))
    if bad.any():
        raise ValueError(f"base p must be finite and exceed 1, got {p[bad].flat[0]}")
    if single:
        return params.rho, params.tau
    rho = np.array([point.rho for point in points], dtype=float).reshape(p.shape)
    tau = np.array([point.tau for point in points], dtype=float).reshape(p.shape)
    return rho, tau


def _sweep_cap(rho, logp: np.ndarray, K: int) -> int:
    """Most dqd sweeps one batch may take before the solve gives up.

    Each sweep shrinks the off-diagonal by about p^(-rho), so the sweeps
    stay below K + log(tol) / log(p^(-rho)) (about K at the truncation
    order); allow twice that, at the batch's largest order K and the
    base with the least rho log p.  rho is one float or one per base.
    """
    return 2 * (K + math.ceil(math.log(_DQD_TOL) / float(np.max(-rho * logp))))


def block_eigenvalues(p, params: Params, K) -> np.ndarray:
    """Eigenvalues of the K x K blocks at the bases p, descending per block.

    The corner identity writes the block as E_K = B^T B with
    B^(-1) = D^(-1) C^(-1) W^(-1/2) lower bidiagonal in closed form: C is
    the cumulative-sum matrix, W = diag(x^j (1 - x)) with last weight
    x^(K-1), x = p^(-tau), and D = diag(p^(sigma j)).  So
    lambda_k(E_K) = 1 / s_k(B^(-1))^2, and zero-shift dqd (Fernando and
    Parlett, 1994) finds those singular values to high relative accuracy
    with positive arithmetic only.  It runs on the squared entries,
    batched over p, of the reversed factor J B^(-T) J (same singular
    values), whose diagonal already falls, so the sweeps polish the order
    rather than build it.

    K is one order for every base or an array of per-base orders,
    broadcast to p's shape, and params is one SpectralParams for every
    base or a sequence of them, one per base in p's flat order.  Each
    base's factor is built at its own order from its own rho and tau, and
    padded up to the largest order, K_top, with q = 1 and e = 0.  The
    padding leaves the real positions alone: with e = 0 at the junction,
    the last real position computes d + 0, as at the zero row that ends
    an unpadded factor, and a pad never raises a flag.  The padded
    eigenvalues come back as 0, after the real ones.

    The sweeps run as a wavefront: sweep s takes its step at position i
    at time 2s + i, and reads only what sweep s - 1 wrote at positions i
    and i + 1.  So at each time step the sweeps in flight sit at
    positions of one parity and advance together, each sweep doing the
    floating-point operations of a sequential sweep in the same order.
    q, e and d are stored split by parity, position i at row i >> 1 of
    a (2, K_top // 2 + 1, n) array for n bases: the positions in flight
    are then one contiguous block of rows, and the positions after them
    the same block of the other parity, one row on when the step is odd.
    The running d and each base's convergence flag move along with the
    sweep.  The solve stops launching sweeps once one completes with
    every e_i <= tol q_(i+1); the (K_top - 1) // 2 sweeps already in
    flight (fewer at the sweep cap) then run to completion.  By then a
    base's q have settled: further sweeps leave them unchanged to the bit.
    So a base's eigenvalues do not depend on how many sweeps its batch
    runs, nor on the other bases, orders and parameter points in it.
    That is measured, not proven, and it needs a sweep in flight: it held
    on every row tried at K >= 3 (truncation orders are never below 3),
    while at K = 2 the last bit of an eigenvalue can still move.

    The eigenvalues are the reciprocals of the final q, written into d's
    memory as a (K_top, n) array with position K_top - 1 - c in row c.
    The result is its transpose: each column, one rank across the bases,
    is contiguous, the layout the per-wave floor cut and ratio
    extraction read fastest.  dqd leaves the eigenvalues rising along the
    positions, but the stopping test bounds the off-diagonal, not the
    order of the diagonal.  So when the batch has no padding and every
    row does rise, the reversed positions are already the descending
    rows and no sort runs; otherwise the padding is zeroed and the rows
    are sorted.

    Vectorises over p: an array of bases gives shape p.shape + (K_top,).
    Raises ValueError for a base that is not a finite p > 1, a sequence
    of params that is not one per base, an order below 1 or a K_top
    above MAX_ORDER (checked before anything is allocated), InvalidRegime
    unless every rho is finite and positive and every tau > 0, and
    OverflowError when p^(rho (K-1)) overflows.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape
    p = p.ravel()
    rho, tau = _check_blocks(p, params)
    orders = np.broadcast_to(np.asarray(K, dtype=np.int64), shape).ravel()
    if (orders < 1).any():
        raise ValueError("K must be >= 1")
    K = int(orders.max())
    if K > MAX_ORDER:
        raise ValueError(
            f"block order K = {K} exceeds the limit {MAX_ORDER} "
            f"at the smallest base p = {float(p.min())!r}"
        )
    logp = np.log(p)
    n = logp.size
    with np.errstate(over="ignore"):
        one_minus_x = -np.expm1(-tau * logp)
    # position i of the reversed factor is row i >> 1 of parity i & 1 in
    # the (2, K // 2 + 1, n) arrays: squared diagonal q_i, and the squared
    # off-diagonal before it as e_i (e_0 = 0).  Positions from a base's
    # order on are its padding; position K is a zero pad read by the last
    # step, and K + 1, there when K is even, a zero that nothing reads.
    # Positions 1 to K - 1 are filled in place, one parity at a time, since
    # with d they are a table build's peak, and the first stopping test
    # reads each parity as soon as it is filled.
    R = K // 2 + 1
    q = np.zeros((2, R, n))
    e = np.zeros_like(q)
    padded = bool(orders.min() < K)
    converged = True
    with np.errstate(over="ignore"):
        for par in (0, 1):
            rows = slice(1 - par, (K + 1 - par) // 2)
            # order - i, the exponent of e_i; q_i's is one less
            j = orders - np.arange(2 * rows.start + par, K, 2)[:, None]
            q_rows, e_rows = q[par, rows], e[par, rows]
            np.multiply(j, rho, out=e_rows)
            e_rows -= tau
            j -= 1
            np.multiply(j, rho, out=q_rows)
            for x in (q_rows, e_rows):
                np.exp(np.multiply(x, logp, out=x), out=x)
                x /= one_minus_x
            if padded:
                pad = j < 0
                np.copyto(q_rows, 1.0, where=pad)
                np.copyto(e_rows, 0.0, where=pad)
            converged &= bool(np.all(e_rows <= _DQD_TOL * q_rows))
        q[0, 0] = np.exp(rho * (orders - 1) * logp)
    if not np.all(np.isfinite(q)):
        i = int(np.argmin(np.isfinite(q).all(axis=(0, 1))))
        rho_i = rho if np.isscalar(rho) else rho[i]
        raise OverflowError(
            f"p^(rho (K-1)) overflows double precision at K={int(orders[i])}, "
            f"rho={rho_i}, p={p[i]}"
        )
    max_sweeps = _sweep_cap(rho, logp, K)
    # d[i] and flag[i] belong to the sweep at position i: its running d,
    # and for each base whether some pair the sweep wrote still has
    # e_i > tol q_(i+1).  Q, E, D and F are the (R, n) halves of q, e, d
    # and flag, one per parity, and scaled holds tol q_i for the test.
    d = np.empty_like(q)
    flag = np.zeros(q.shape, dtype=bool)
    scaled = np.empty((R, n))
    Q, E, D, F = tuple(q), tuple(e), tuple(d), tuple(flag)
    launched = done = 0
    t_now = 0
    while done < launched or not (converged or launched == max_sweeps):
        if t_now % 2 == 0 and not (converged or launched == max_sweeps):
            D[0][0] = Q[0][0]
            launched += 1
        # the newest sweep sits at lo, the oldest unfinished one at hi: rows
        # a to b - 1 of parity par, and the positions after them are the
        # same rows of the other parity, one row on when par is 1
        lo, hi = t_now - 2 * (launched - 1), t_now - 2 * done
        par, a, b = t_now % 2, lo >> 1, (hi >> 1) + 1
        here, ahead = slice(a, b), slice(a + par, b + par)
        qi, d_here = Q[par][here], D[par][here]
        e_ahead, t = E[1 - par][ahead], D[1 - par][ahead]
        np.add(d_here, e_ahead, out=qi)
        # t = q_(i+1) / q_i goes where the sweep's next d is due
        np.divide(Q[1 - par][ahead], qi, out=t)
        np.multiply(e_ahead, t, out=e_ahead)
        np.multiply(t, d_here, out=t)
        if not converged:
            # once the stopping test has passed the flags decide nothing
            tol_q, flag_ahead = scaled[: b - a], F[1 - par][ahead]
            np.multiply(_DQD_TOL, qi, out=tol_q)
            np.greater(E[par][here], tol_q, out=flag_ahead)
            np.logical_or(flag_ahead, F[par][here], out=flag_ahead)
        if hi == K - 1:
            converged = converged or not F[K % 2][K // 2].any()
            done += 1
        t_now += 1
    if not converged:
        raise EigensolverError(
            f"dqd failed to converge within {max_sweeps} sweeps at K={K}, smallest base "
            f"p={float(p.min()):.17g}, {n} bases in the batch"
        )
    del e, flag, scaled, Q, E, D, F  # memory the extraction that follows reuses
    # lam[c] is position K - 1 - c of every base, its c-th largest
    # eigenvalue when the positions rise: lam[::-1] is in position order,
    # and each parity fills every other row of it.  It reuses d's memory,
    # already paged in.
    lam = d.reshape(-1)[: K * n].reshape(K, n)
    for par in (0, 1):
        np.divide(1.0, q[par, : (K + 1 - par) // 2], out=lam[::-1][par::2])
    del q
    if not padded and np.all(lam[:-1] >= lam[1:]):
        return lam.T.reshape(shape + (K,))
    np.copyto(lam, 0.0, where=np.arange(K)[:, None] < K - orders)
    return np.sort(lam, axis=0)[::-1].T.reshape(shape + (K,))


def _solve_rows(bases: np.ndarray, params: Params, K, floor: float):
    """Eigenvalues of the blocks at a 1-D array of bases, each of its order
    in K (one int or one per base) and its point in params (one
    SpectralParams or one per base), one descending row per base, and the
    mask of those above floor.

    Rows descend and a row's padding is 0, so the kept eigenvalues of a
    row are a prefix.  Raises EigensolverError when a top eigenvalue is at
    or below the floor or below 1, which the Rayleigh quotient at e_0
    rules out.
    """
    eig = block_eigenvalues(bases, params, K)
    kept = eig > floor
    bad = ~kept[:, 0] | (eig[:, 0] < 1.0 - 1e-10)
    if bad.any():
        i = int(np.argmax(bad))
        raise EigensolverError(
            f"top eigenvalue {float(eig[i, 0])!r} of the block at p={bases[i]} is below 1 "
            f"or at the floor {floor}, contradicting the Rayleigh quotient at e_0"
        )
    return eig, kept


@dataclass(frozen=True)
class LocalSpectrum:
    """The eigenvalues above the floor, descending, of the
    truncation_order x truncation_order block at one base."""

    truncation_order: int
    eigenvalues: np.ndarray


def local_spectra(
    bases, params: Params, target_floor: float = DEFAULT_FLOOR
) -> list[LocalSpectrum]:
    """The LocalSpectrum of the block at each base, in the order given.

    params is one SpectralParams for every base or a sequence of them,
    one per base, so blocks at several parameter points can share one
    solve.  One batch of the bidiagonal dqd solve, each base at its own
    parameters and its own truncation order chosen from the floor, with
    eigenvalues at or below the floor discarded as numerically
    untrustworthy, exactly as build_table does for each row of its table.
    A base's eigenvalues do not depend on its batch, so each element is
    bit-identical to local_spectrum at that base and its point.  An empty
    sequence gives [].
    """
    bases = np.asarray(bases, dtype=float).ravel()
    orders = truncation_order(bases, params, target_floor)
    if bases.size == 0:
        return []
    eig, kept = _solve_rows(bases, params, orders, target_floor)
    return [LocalSpectrum(int(K), row[keep]) for K, row, keep in zip(orders, eig, kept)]


def local_spectrum(
    p: float, params: SpectralParams, target_floor: float = DEFAULT_FLOOR
) -> LocalSpectrum:
    """Eigenvalues of the block at base p above target_floor, descending;
    local_spectra at the one base p."""
    return local_spectra([p], params, target_floor)[0]


# ---------------------------------------------------------------------------
# certified envelopes and identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichEnvelope:
    """Two-sided bound c_lower p^(-rho k) <= lambda_k <= c_upper p^(-rho k)."""

    p: float
    params: SpectralParams
    c_lower: float
    c_upper: float

    def lower(self, k) -> np.ndarray | float:
        return self.c_lower * self.p ** (-self.params.rho * np.asarray(k, dtype=float))

    def upper(self, k) -> np.ndarray | float:
        return self.c_upper * self.p ** (-self.params.rho * np.asarray(k, dtype=float))


def sandwich_envelope(p: float, params: SpectralParams, a: float) -> SandwichEnvelope:
    """Eigenvalue envelope from the diagonal comparison at q = p^tau.

    Valid for finite mixing parameters a > q^(-1/2)/(1 - 1/q); raises
    otherwise.  c_lower is only meaningful for a < sqrt(q) and is clamped
    to 0 beyond.
    """
    q = float(p) ** params.tau
    if q <= 1.0:
        raise InvalidRegime("sandwich comparison needs p^tau > 1")
    u = 1.0 / math.sqrt(q)
    upper_denom = 1.0 - 1.0 / q - u / a if 0.0 < a < math.inf else -1.0
    if upper_denom <= 0.0:
        raise ValueError(
            f"mixing parameter a={a} invalid at q={q}: "
            f"needs a finite a > {u / (1.0 - 1.0 / q):.6g}"
        )
    c_upper = (1.0 - 1.0 / q) * (1.0 + a * u) / upper_denom
    num = 1.0 - a * u
    c_lower = 0.0 if num <= 0.0 else (1.0 - 1.0 / q) * num / (1.0 - 1.0 / q + u / a)
    return SandwichEnvelope(float(p), params, c_lower, c_upper)


def best_envelope(p: float, params: SpectralParams) -> SandwichEnvelope:
    """Envelope at the c_upper-minimising mixing parameter.

    Calculus on the upper constant gives the optimum a* = 1/(1 - q^(-1/2)),
    always admissible, where c_upper collapses to
    (1 + q^(-1/2)) / (1 - q^(-1/2)).
    """
    q = float(p) ** params.tau
    if q <= 1.0:
        raise InvalidRegime("sandwich comparison needs p^tau > 1")
    return sandwich_envelope(p, params, 1.0 / (1.0 - 1.0 / math.sqrt(q)))


def corner_quadratic_form(p: float, x) -> tuple[float, float]:
    """<E_p(0,1) x, x> evaluated along two independent routes.

    lhs sums the matrix entries p^(-max(j,k)) directly; rhs uses the
    corner decomposition (1 - 1/p) sum_k p^(-k) |x_0 + ... + x_k|^2, with
    the geometric tail beyond the support of x summed in closed form.
    """
    if p <= 1.0:
        raise ValueError("base p must exceed 1")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a non-empty one-dimensional sequence")
    L = x.size
    j = np.arange(L, dtype=float)
    M = float(p) ** (-np.maximum(j[:, None], j[None, :]))
    lhs = float(x @ M @ x)
    csum = np.cumsum(x)
    weights = float(p) ** (-j)
    rhs = (1.0 - 1.0 / p) * math.fsum(weights * csum**2)
    rhs += float(p) ** (-float(L)) * csum[-1] ** 2
    return lhs, rhs


def a_norm_squared(p: float, params: SpectralParams) -> float:
    """Squared norm of the first-column tail {p^(-k (tau - sigma))}_{k>=1}."""
    if params.tau <= params.sigma:
        raise InvalidRegime("the geometric series needs tau > sigma")
    x = float(p) ** (-2.0 * (params.tau - params.sigma))
    return x / (1.0 - x)


def hs_bound_squared(p: float, params: SpectralParams) -> float:
    """Closed upper bound for the squared Hilbert-Schmidt norm of the block."""
    if params.rho <= 0.0 or params.tau + params.rho <= 0.0:
        raise InvalidRegime("Hilbert-Schmidt bound needs rho > 0 and tau + rho > 0")
    return 2.0 / (
        (1.0 - float(p) ** (-2.0 * (params.tau + params.rho)))
        * (1.0 - float(p) ** (-2.0 * params.rho))
    )


@dataclass(frozen=True)
class TopEigenvalueCertificate:
    """Interval [1, 1 + bound] certified to contain the top local eigenvalue;
    h majorises the norm of the block without its first row and column."""

    bound: float
    h: float


def top_eig_certificate(p: float, params: SpectralParams) -> TopEigenvalueCertificate:
    """Certified enclosure of lambda_0(E_p) from the resolvent identity.

    Writing the block with its first row and column separated gives
    lambda_0 = 1 + <(lambda_0 - E_perp)^(-1) a, a>, and ||E_perp|| is
    majorised by h = p^(-rho) HS(E_p) using the closed Hilbert-Schmidt
    bound (no summation truncation enters, so the enclosure is rigorous
    in exact arithmetic).  Unavailable when h >= 1; callers then fall
    back on the eigensolver value without a certificate.
    """
    h = float(p) ** (-params.rho) * math.sqrt(hs_bound_squared(p, params))
    if h >= 1.0:
        raise CertificateUnavailable(
            f"h = {h:.4f} >= 1 at p = {p}; no certified top-eigenvalue bound"
        )
    return TopEigenvalueCertificate(bound=a_norm_squared(p, params) / (1.0 - h), h=h)
