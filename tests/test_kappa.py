import math

import mpmath
import numpy as np
import pytest

from lcmspectra import (
    InvalidRegime,
    LocalSpectrum,
    NoClosedForm,
    SpectralParams,
    build_table,
    g_p_at,
    kappa_closed_form,
    kappa_numeric,
    primes_up_to,
    s_threshold,
    zeta_real,
)
from lcmspectra import kappa as kappa_mod


def _local_from_row(table, i):
    """The LocalSpectrum of row i of a table, rebuilt from the stored ratios."""
    ratios = table.kept_ratios[table.offsets[i] : table.offsets[i + 1]]
    eig = np.concatenate([[1.0], ratios]) * table.lambda0[i]
    return LocalSpectrum(int(table.trunc_orders[i]), eig)


def _tail_term(p, pars):
    """G(p) = (1/rho) p^-tau [p^-rho (1 - 1/p) / (1 - p^-rho) - 1/p], written out."""
    q = p ** -pars.rho
    return p ** -pars.tau * (q * (1.0 - 1.0 / p) / (1.0 - q) - 1.0 / p) / pars.rho


class TestClosedForm:
    def test_rho_one_is_one(self):
        assert kappa_closed_form(SpectralParams(0.3, 1.6)) == 1.0
        assert kappa_closed_form(SpectralParams(0.25, 1.5)) == 1.0

    def test_rho_half_zeta_ratio(self):
        got = kappa_closed_form(SpectralParams(0.25, 1.0))
        expected = math.sqrt(zeta_real(3.0)) / zeta_real(1.5)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(0.41969, abs=5e-5)

    def test_no_closed_form_elsewhere(self):
        with pytest.raises(NoClosedForm):
            kappa_closed_form(SpectralParams(0.25, 1.2))

    def test_rho_half_needs_positive_sigma(self):
        with pytest.raises(NoClosedForm):
            kappa_closed_form(SpectralParams(0.0, 0.5))


class TestEulerFactor:
    def test_trace_identity_makes_g_one(self):
        pars = SpectralParams(0.25, 1.5)
        for p in (2, 3, 5):
            assert g_p_at(p, pars, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_rho_half_sigma_zero_p2(self):
        # brute-force oracle: Tr(E_2(0, 1/2)^2) = sum over j,k of 2^(-max(j,k))
        tr2 = math.fsum(
            2.0 ** (-max(j, k)) for j in range(200) for k in range(200)
        )
        pars = SpectralParams(0.0, 0.5)
        assert g_p_at(2, pars, 2.0) == pytest.approx((1 - 0.5) * tr2, abs=1e-10)
        assert g_p_at(2, pars, 2.0) == pytest.approx(3.0, abs=1e-10)

    def test_tends_to_one(self):
        pars = SpectralParams(0.25, 1.0)
        vals = [abs(g_p_at(p, pars, 2.0) - 1.0) for p in (11, 101, 1009, 10007)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_rejects_s_below_threshold(self):
        pars = SpectralParams(0.25, 1.0)
        assert s_threshold(pars) == pytest.approx(1.0)
        with pytest.raises(InvalidRegime):
            g_p_at(2, pars, 0.99)

    @pytest.mark.parametrize(
        "sigma, tau, bound",
        # measured per decade: 0.21/0.22/0.22, 0.38/0.43/0.48 and 11/6.5/4.6;
        # points whose residual reaches rounding (about 1e-15) are left out
        [(0.0, 0.75, 0.3), (0.0, 0.6, 0.6), (0.4, 1.0, 15.0)],
    )
    def test_tail_residual_decay(self, sigma, tau, bound):
        # |log g_p - G(p)| <= C p^-min(2 tau + 2 rho, 1 + 2 tau) on each decade
        pars = SpectralParams(sigma, tau)
        table = build_table(pars, 100_000, target_floor=1e-30)
        g = np.array(
            [
                g_p_at(float(p), pars, 1.0 / pars.rho, _local_from_row(table, i))
                for i, p in enumerate(table.primes)
            ]
        )
        p = table.primes.astype(float)
        scaled = np.abs(np.log(g) - _tail_term(p, pars)) * p ** min(2 * tau + 2 * pars.rho, 1 + 2 * tau)
        for lo in (100, 1_000, 10_000):
            assert scaled[(p > lo) & (p <= 10 * lo)].max() <= bound


def kappa_at(params, p_max):
    return kappa_numeric(params, table=build_table(params, p_max))


class TestKappaNumeric:
    def test_rho_one_case(self):
        comp = kappa_at(SpectralParams(0.25, 1.5), 10_000)
        assert comp.kappa == pytest.approx(1.0, abs=1e-6)

    def test_rho_one_at_sigma_zero(self):
        comp = kappa_at(SpectralParams(0.0, 1.0), 10_000)
        assert comp.kappa == pytest.approx(1.0, abs=1e-4)

    def test_rho_half_vs_closed_form(self):
        pars = SpectralParams(0.25, 1.0)
        comp = kappa_at(pars, 20_000)
        closed = kappa_closed_form(pars)
        assert abs(comp.kappa - closed) < 2e-3

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.25])
    def test_rho_half_closed_form_from_small_table(self, sigma):
        # at rho = 1/2 the tail is 2 p^-(1 + 2 sigma), the leading term of
        # the closed form; measured within 9.4e-12, 5.5e-13 and 1.2e-15
        pars = SpectralParams(sigma, 0.5 + 2.0 * sigma)
        comp = kappa_at(pars, 10_000)
        assert comp.kappa == pytest.approx(kappa_closed_form(pars), rel=1e-9)

    def test_rho_one_tail_is_zero_without_zeta(self, monkeypatch):
        # every coefficient of the tail cancels (the trace identity), so no
        # prime zeta value is evaluated and kappa is the truncated product
        def no_zeta(s):
            raise AssertionError("zeta_real called at rho = 1")

        monkeypatch.setattr(kappa_mod, "zeta_real", no_zeta)
        pars = SpectralParams(0.25, 1.5)
        comp = kappa_at(pars, 10_000)
        assert comp.tail == 0.0
        assert comp.kappa == math.exp(-pars.rho * math.fsum(np.log(comp.g_factors)))

    @pytest.mark.parametrize(
        "sigma, tau, bound",
        # measured 1.1e-12, 6.3e-11, 1.1e-8, 1.5e-7 and 3.0e-6
        [
            (0.25, 1.25, 1e-10),
            (0.1, 1.0, 1e-9),
            (0.0, 0.75, 1e-7),
            (0.4, 1.0, 1e-6),
            (0.45, 1.0, 2e-5),
        ],
    )
    def test_stable_in_p_max(self, sigma, tau, bound):
        pars = SpectralParams(sigma, tau)
        k4, k5 = (kappa_at(pars, p_max).kappa for p_max in (10_000, 100_000))
        assert abs(k5 - k4) < bound * k5

    @pytest.mark.parametrize("sigma, tau", [(0.25, 1.25), (0.0, 0.75), (0.4, 1.0)])
    def test_tail_is_sum_of_terms(self, sigma, tau):
        # moving p_max from 10^3 to 10^4 moves the tail by the terms between
        pars = SpectralParams(sigma, tau)
        lo, hi = (
            kappa_mod._euler_tail(pars, primes_up_to(p_max), p_max)
            for p_max in (1_000, 10_000)
        )
        primes = primes_up_to(10_000).astype(float)
        between = primes[primes > 1_000]
        # about 50 prime zeta values enter at (0.4, 1): 7e-16 of rounding
        assert lo - hi == pytest.approx(math.fsum(_tail_term(between, pars)), abs=3e-15)

    @pytest.mark.parametrize("a", [1.05, 1.25, 1.5, 2.0, 3.0])
    def test_prime_zeta_tail_vs_mpmath(self, a):
        primes = primes_up_to(10_000)
        with mpmath.workdps(30):
            exact = float(mpmath.primezeta(a) - mpmath.fsum(mpmath.mpf(int(p)) ** -a for p in primes))
        assert abs(kappa_mod._prime_zeta_tail(a, primes, 10_000) - exact) < 3e-16

    def test_all_factors_positive(self):
        comp = kappa_at(SpectralParams(0.25, 1.5), 2_000)
        assert np.all(comp.g_factors > 0.0)

    def test_invalid_regime(self):
        table = build_table(SpectralParams(0.25, 1.5), 100)
        with pytest.raises(InvalidRegime):
            kappa_numeric(SpectralParams(1.0, 1.0), table=table)

    def test_rejects_table_for_other_params(self):
        table = build_table(SpectralParams(0.25, 1.5), 2_000)
        with pytest.raises(ValueError, match="table was built for"):
            kappa_numeric(SpectralParams(0.25, 1.0), table=table)
        same = kappa_numeric(SpectralParams(0.25, 1.5), table=table)
        assert same.kappa == kappa_at(SpectralParams(0.25, 1.5), 2_000).kappa

    def test_counting_slope_consistency(self, table_counting):
        from lcmspectra import counting_mu

        comp = kappa_at(SpectralParams(0.25, 1.5), 10_000)
        t = 5000.0
        mu = counting_mu(table_counting, t).mu
        # mu(t) ~ kappa^(-1/rho) t^(1/rho) with rho = 1
        assert abs(mu / t - 1.0 / comp.kappa) < 0.05
