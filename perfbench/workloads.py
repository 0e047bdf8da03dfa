"""The benchmark workloads: seeded inputs, one timed pass, and an oracle gate.

Each workload has three steps.  ``setup`` makes the inputs from the seed
and fills any cache the workload needs.  ``run`` is one timed pass that
calls the public functions of lcmspectra through their module attributes,
the way the CLI does.  ``check`` tests that pass's outputs against
references that do not come from the code under test, and returns the
problems it found.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from lcmspectra import arith, beurling, cli, kappa, spectrum, toeplitz

RHO_HALF = arith.SpectralParams(0.25, 1.0)
RHO_ONE = arith.SpectralParams(0.25, 1.5)

# sqrt(zeta(3)) / zeta(3/2), the rho = 1/2 closed form at sigma = 1/4 (mpmath, 30 digits)
KAPPA_RHO_HALF = 0.41968837178817836
# rescaled top squared singular value at N = 2048, sigma = 1/4 (criterion 5)
TOP_SV_2048 = 3.2555639706
# Lambda_0 at (sigma, tau) = (1/4, 1): product over p <= 10^6; the certified
# tail adds at most 0.2%, far inside the criterion-5b margin
LAMBDA0_RHO_HALF = 4.0786740766
# toy generator sets of criterion 8, counted by brute force
TOY_GENERATORS = ((2.0, 3.0), (2.0, 3.0, 5.0), (1.7, 2.9, 4.3))
TOY_X = (1e2, 1e4)


@dataclass(frozen=True)
class Sizes:
    p_max: int  # prime cutoff of every table
    t_range: tuple  # counting_mu arguments are drawn from this range
    mu_t: float  # the mu(t)/t ~ 1 oracle point
    n_enum: int  # enumerate_spectrum size
    n_lambda: int  # lambda_of calls per pass
    x_count: float  # Beurling count_integers argument
    n_top: int  # rescaled_singular_values size
    n_dev_small: int  # criterion-5b comparison size
    schatten_ns: tuple
    schatten_m: int
    finite_n: int  # finite_section_eigs size
    setup_repeats: int  # fresh-process set-ups behind setup_s


PAPER = Sizes(
    p_max=10**6,
    t_range=(1e3, 4e4),
    mu_t=1e4,
    n_enum=10**5,
    n_lambda=20_000,
    x_count=4e5,
    n_top=2048,
    n_dev_small=256,
    schatten_ns=(16, 64, 256, 1024),
    schatten_m=256,
    finite_n=512,
    setup_repeats=5,
)

# every code path of PAPER at toy sizes, for the smoke run
SMOKE = Sizes(
    p_max=2000,
    t_range=(10.0, 1000.0),
    mu_t=1000.0,
    n_enum=1000,
    n_lambda=200,
    x_count=800.0,
    n_top=64,
    n_dev_small=16,
    schatten_ns=(16, 64),
    schatten_m=16,
    finite_n=64,
    setup_repeats=2,
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class KappaHalfCold:
    """Table, envelope and kappa at rho = 1/2 from nothing: no cache."""

    name = "kappa_half_cold"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> dict:
        # the inputs are fixed by the paper; the seed changes nothing here
        return {"sizes": sizes}

    def run(self, st: dict) -> dict:
        table = spectrum.build_table(RHO_HALF, st["sizes"].p_max)
        envelope = table.envelope()
        comp = kappa.kappa_numeric(RHO_HALF, table=table)
        return {"table": table, "envelope": envelope, "kappa": comp.kappa}

    def check(self, st: dict, out: dict) -> list[str]:
        problems = []
        err = abs(out["kappa"] - KAPPA_RHO_HALF)
        if not err <= 1e-3:
            problems.append(f"kappa {out['kappa']!r} is {err:.3g} from the closed form")
        table = out["table"]
        if not math.isfinite(table.base_product):
            problems.append(f"Lambda_0 = {table.base_product!r} is not finite")
        if not math.isfinite(table.tail_exponent_bound):
            problems.append(f"t_bound = {table.tail_exponent_bound!r} is not finite")
        return problems

    def kappa_err(self, out: dict) -> float:
        return abs(out["kappa"] - KAPPA_RHO_HALF)


def _brute_force_count(gens, x: float) -> int:
    """Distinct products of the generators <= x, merged within 1e-12 in log."""
    seen = set()
    caps = [int(math.log(x) / math.log(g)) + 1 for g in gens]
    for expo in itertools.product(*[range(c + 1) for c in caps]):
        v = math.prod(g**e for g, e in zip(gens, expo))
        if v <= x:
            seen.add(round(math.log(v) * 1e12))
    return len(seen)


class QueriesOneWarm:
    """Every query on a rho = 1 table that set-up has written to the cache."""

    name = "queries_one_warm"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> dict:
        cache_dir = os.path.join(workdir, "cache")
        os.makedirs(cache_dir, exist_ok=True)
        spectrum.build_table(RHO_ONE, sizes.p_max, cache_dir=cache_dir)
        rng = np.random.default_rng(seed)
        # one t per third of the log range, so every seed spans small to large t
        lo, hi = np.log(sizes.t_range)
        edges = np.linspace(lo, hi, 4)
        ts = [float(np.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], edges[1:])]
        ns = rng.integers(1, sizes.p_max, size=sizes.n_lambda, endpoint=True)
        return {"sizes": sizes, "cache_dir": cache_dir, "ts": ts, "ns": [int(n) for n in ns]}

    def run(self, st: dict) -> dict:
        sizes = st["sizes"]
        table = spectrum.build_table(RHO_ONE, sizes.p_max, cache_dir=st["cache_dir"])
        table.envelope()
        comp = kappa.kappa_numeric(RHO_ONE, table=table)
        counts = [spectrum.counting_mu(table, t) for t in st["ts"]]
        ranked = spectrum.enumerate_spectrum(table, sizes.n_enum)
        values = [spectrum.lambda_of(n, table).value for n in st["ns"]]
        system = beurling.system_from_spectra(table)
        count = beurling.count_integers(system, sizes.x_count)
        return {
            "table": table,
            "kappa": comp.kappa,
            "mus": [c.mu for c in counts],
            "top5": [(ev.n, ev.value) for ev in ranked[:5]],
            "ranked": len(ranked),
            "values": values,
            "count": count,
        }

    def check(self, st: dict, out: dict) -> list[str]:
        sizes = st["sizes"]
        table = out["table"]
        problems = []
        if not abs(out["kappa"] - 1.0) <= 1e-4:
            problems.append(f"kappa {out['kappa']!r} is not within 1e-4 of 1")
        scaled = spectrum.counting_mu(table, sizes.mu_t).mu / sizes.mu_t
        if not 0.95 <= scaled <= 1.05:
            problems.append(f"mu({sizes.mu_t:g})/{sizes.mu_t:g} = {scaled:.4f} outside [0.95, 1.05]")
        for n, value in out["top5"]:
            direct = spectrum.lambda_of(n, table).value
            if not _rel(value, direct) <= 1e-12:
                problems.append(f"enumerated lambda_{n} = {value!r}, lambda_of gives {direct!r}")
        if out["ranked"] != sizes.n_enum or len(out["values"]) != sizes.n_lambda:
            problems.append("a query returned the wrong number of values")
        for gens in TOY_GENERATORS:
            system = beurling.BeurlingSystem(np.array(gens), RHO_ONE)
            for x in TOY_X:
                got, want = beurling.count_integers(system, x), _brute_force_count(gens, x)
                if got != want:
                    problems.append(f"count_integers({gens}, {x:g}) = {got}, brute force {want}")
        return problems

    def kappa_err(self, out: dict) -> float:
        return abs(out["kappa"] - 1.0)


def _direct_top_sv(N: int, sigma: float) -> float:
    """Rescaled top squared singular value of T_N from a dense SVD of T_N."""
    T = np.zeros((N, N))
    for m in range(1, N + 1):
        mult = np.arange(m, N + 1, m)
        T[mult - 1, m - 1] = (mult / m) ** (-sigma)
    rho = 1.0 - 2.0 * sigma
    return rho * N ** (-rho) * float(np.linalg.svd(T, compute_uv=False)[0]) ** 2


class VerifyToeplitz:
    """The CLI identity suite, then the dense Toeplitz and finite-section paths."""

    name = "verify_toeplitz"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> dict:
        return {"sizes": sizes, "argv": ["verify", "--seed", str(seed % 2**32)]}

    def run(self, st: dict) -> dict:
        sizes = st["sizes"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(st["argv"])
        top = {s: toeplitz.rescaled_singular_values(sizes.n_top, s)[0] for s in (0.0, 0.25)}
        schatten = [toeplitz.schatten_diff(N, sizes.schatten_m, 4, 0.25) for N in sizes.schatten_ns]
        sections = spectrum.finite_section_eigs(RHO_ONE, sizes.finite_n)
        return {
            "code": code,
            "printed": printed.getvalue(),
            "top": top,
            "schatten": schatten,
            "sections": sections,
        }

    def check(self, st: dict, out: dict) -> list[str]:
        sizes = st["sizes"]
        problems = []
        lines = out["printed"].splitlines()
        if out["code"] != 0 or not lines or not all(l.startswith("PASS ") for l in lines):
            problems.append(f"verify exited {out['code']}: {out['printed']!r}")
        top = float(out["top"][0.25])
        ref = TOP_SV_2048 if sizes.n_top == 2048 else _direct_top_sv(sizes.n_top, 0.25)
        if not _rel(top, ref) <= 1e-9:
            problems.append(f"rescaled top value {top!r} at N={sizes.n_top}, expected {ref!r}")
        small = float(toeplitz.rescaled_singular_values(sizes.n_dev_small, 0.25)[0])
        if not abs(top - LAMBDA0_RHO_HALF) < abs(small - LAMBDA0_RHO_HALF):
            problems.append(f"deviation from Lambda_0 grew from N={sizes.n_dev_small} to N={sizes.n_top}")
        if not (math.isfinite(float(out["top"][0.0])) and all(map(math.isfinite, out["schatten"]))):
            problems.append("a rescaled value or Schatten norm is not finite")
        sections = out["sections"]
        if not (sections[0] >= 1.0 - 1e-12 and sections[-1] > -1e-12):
            problems.append("finite section is not positive definite with top eigenvalue >= 1")
        return problems

    def kappa_err(self, out: dict) -> None:
        return None  # this workload computes no kappa


WORKLOADS = {w.name: w for w in (KappaHalfCold(), QueriesOneWarm(), VerifyToeplitz())}
