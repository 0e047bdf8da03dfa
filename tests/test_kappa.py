import math

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
    s_threshold,
    zeta_real,
)


def _local_from_row(table, i):
    """The LocalSpectrum of row i of a table, rebuilt from the stored ratios."""
    ratios = table.kept_ratios[table.offsets[i] : table.offsets[i + 1]]
    eig = np.concatenate([[1.0], ratios]) * table.lambda0[i]
    return LocalSpectrum(int(table.trunc_orders[i]), eig)


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

    def test_decay_fit_extends(self):
        # |g_p - 1| <= C p^(-theta), C fitted on p <= 100, checked to 10^4
        pars = SpectralParams(0.25, 1.0)
        table = build_table(pars, 10_000)
        theta = min(pars.tau + pars.rho, 2.0, 1.0 + pars.tau / 2.0)
        g = np.array(
            [
                g_p_at(float(p), pars, 2.0, _local_from_row(table, i))
                for i, p in enumerate(table.primes)
            ]
        )
        quant = np.abs(g - 1.0) * table.primes.astype(float) ** theta
        small = table.primes <= 100
        assert np.all(quant[~small] <= quant[small].max())


def kappa_at(params, p_max):
    return kappa_numeric(params, table=build_table(params, p_max))


class TestKappaNumeric:
    def test_rho_one_case(self):
        comp = kappa_at(SpectralParams(0.25, 1.5), 10_000)
        assert comp.kappa == pytest.approx(1.0, abs=1e-6)
        assert comp.uncertainty >= 0.0
        assert not comp.extrapolated

    def test_rho_one_at_sigma_zero(self):
        comp = kappa_at(SpectralParams(0.0, 1.0), 10_000)
        assert comp.kappa == pytest.approx(1.0, abs=1e-4)

    def test_rho_half_vs_closed_form(self):
        pars = SpectralParams(0.25, 1.0)
        comp = kappa_at(pars, 20_000)
        closed = kappa_closed_form(pars)
        assert comp.extrapolated
        assert abs(comp.kappa - closed) < 2e-3
        assert abs(comp.kappa - closed) < comp.uncertainty

    def test_too_few_primes_to_extrapolate(self):
        # 15 primes up to 50: the correction needs more than 16, so none is
        # applied and kappa is the plain truncated product
        pars = SpectralParams(0.25, 1.0)
        table = build_table(pars, 50)
        comp = kappa_numeric(pars, table=table)
        assert len(table) == 15
        assert not comp.extrapolated
        assert comp.kappa == math.exp(-pars.rho * math.fsum(np.log(comp.g_factors)))

    def test_extrapolation_step_uses_decay_exponent(self):
        # the step divides by 2^(tau + rho - 1) - 1; the fitted bound keeps
        # theta = min(tau + rho, 2, 1 + tau/2) = 1.5 < tau + rho = 1.8
        pars = SpectralParams(0.1, 1.0)
        table = build_table(pars, 2_000)
        comp = kappa_numeric(pars, table=table)
        logs = np.log(comp.g_factors)
        log_g = math.fsum(logs)
        delta = log_g - math.fsum(logs[table.primes <= 1_000])
        step = delta / (2.0 ** (pars.tau + pars.rho - 1.0) - 1.0)
        assert comp.extrapolated and comp.tail_exponent == 1.5
        assert comp.kappa == math.exp(-pars.rho * (log_g + step))

    @pytest.mark.parametrize(
        "sigma, tau, bound",
        # extrapolating with theta instead drifted 8.7e-6 and 5.7e-5
        [(0.25, 1.25, 2e-6), (0.1, 1.0, 2e-5)],
    )
    def test_extrapolation_stable_in_p_max(self, sigma, tau, bound):
        pars = SpectralParams(sigma, tau)
        k4, k5 = (kappa_at(pars, p_max).kappa for p_max in (10_000, 100_000))
        assert abs(k5 - k4) < bound * k5

    def test_doubling_within_uncertainty(self):
        pars = SpectralParams(0.25, 1.0)
        c1 = kappa_at(pars, 5_000)
        c2 = kappa_at(pars, 10_000)
        assert abs(c2.kappa - c1.kappa) < c1.uncertainty

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
