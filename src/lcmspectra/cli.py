"""Command-line surface with reproducible CSV/JSON outputs.

Every output file starts with a comment recording the full parameter set
and the artifact version (JSON documents carry it as a leading "_comment"
field since JSON has no comment syntax).  Floats are printed with 17
significant digits so reruns with identical flags are byte-identical; a
missing value is an empty CSV field and a JSON null.

Exit codes: 0 success; 2 invalid parameters (non-finite numbers, sizes
out of range, values whose powers overflow double precision and block
orders above local.MAX_ORDER included) or an output file that cannot be
written; 3 certificate or coverage unavailable; 4 numerical failure.
Every failure prints one "error:" line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .arith import SpectralParams, zeta_real
from .beurling import DEFAULT_CAP, beurling_integers, system_from_spectra
from .errors import (
    CertificateUnavailable,
    EigensolverError,
    EnumerationInfeasible,
    FloorTooHigh,
    InvalidRegime,
    NoClosedForm,
    PrimeOutOfRange,
    VerificationFailed,
)
from .kappa import kappa_closed_form, kappa_numeric
from .local import (
    DEFAULT_FLOOR,
    best_envelope,
    corner_quadratic_form,
    local_spectra,
    local_spectrum,
)
from .spectrum import build_table, counting_mu, enumerate_spectrum
from .toeplitz import (
    build_toeplitz,
    gram_via_formula,
    rescaled_singular_values,
    schatten_diff,
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _comment(args: argparse.Namespace) -> str:
    skip = {"func", "out", "format"}
    parts = [
        f"{k}={v}"
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    ]
    return f"lcm-spectra {__version__} " + " ".join(parts)


def _csv(comment: str, header: list[str], rows: list[list]) -> str:
    lines = ["# " + comment, ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(comment: str, header: list[str], rows: list[list], record: bool) -> str:
    records = [dict(zip(header, row)) for row in rows]
    body = records[0] if record else {"rows": records}
    return json.dumps({"_comment": comment, **body}, sort_keys=True, indent=2) + "\n"


def _emit(args, header: list[str], rows: list[list], record: bool = False) -> None:
    """Write rows to --out or stdout in --format; with record, JSON holds
    the one row's fields beside "_comment" in place of a "rows" list."""
    comment = _comment(args)
    if args.format == "json":
        text = _json(comment, header, rows, record)
    else:
        text = _csv(comment, header, rows)
    _write(args.out, text)


def _write(out, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _table(args, p_max: int):
    return build_table(SpectralParams(args.sigma, args.tau), p_max, target_floor=args.floor)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_local_eigs(args) -> None:
    params = SpectralParams(args.sigma, args.tau)
    spec = local_spectrum(args.p, params, args.floor)
    env = best_envelope(args.p, params)
    k = np.arange(spec.eigenvalues.size)
    rows = [
        [int(kk), float(lam), float(env.lower(kk)), float(env.upper(kk))]
        for kk, lam in zip(k, spec.eigenvalues)
    ]
    _emit(args, ["k", "lambda", "envelope_lo", "envelope_hi"], rows)


def cmd_spectrum(args) -> None:
    # the search reaches rank nmax from p_max of about 2 nmax at rho = 1
    # and 4 nmax at rho = 1/2
    p_max = max(10 * args.nmax, 10_000) if args.pmax is None else args.pmax
    table = _table(args, p_max)
    rho = table.params.rho
    ranked = enumerate_spectrum(table, args.nmax)
    pairs = zip(ranked.n.tolist(), ranked.values.tolist())
    # rank^rho lambda tends to the constant of lambda_n ~ kappa n^-rho
    rows = [[rank, n, value, rank**rho * value] for rank, (n, value) in enumerate(pairs, 1)]
    _emit(args, ["rank", "n", "lambda", "rank_rho_lambda"], rows)


def cmd_counting(args) -> None:
    table = _table(args, args.pmax)
    rho = table.params.rho
    result = counting_mu(table, args.t)
    fields = {**asdict(result), "mu_scaled": result.mu * result.t ** (-1.0 / rho)}
    _emit(args, list(fields), [list(fields.values())], record=True)
    if args.emit_plot_data:
        lo = min(args.t, max(10.0, args.t / 64.0))
        ts = np.geomspace(lo, args.t, num=13) if lo < args.t else np.array([args.t])
        rows = [[float(t), counting_mu(table, float(t)).mu * t ** (-1.0 / rho)] for t in ts]
        _write(args.emit_plot_data, _csv(_comment(args), ["t", "mu_t_scaled"], rows))


def cmd_kappa(args) -> None:
    params = SpectralParams(args.sigma, args.tau)
    table = _table(args, args.pmax)
    comp = kappa_numeric(params, table=table)
    try:
        closed = kappa_closed_form(params)
    except NoClosedForm:
        closed = None
    fields = {
        "kappa": comp.kappa,
        "closed_form": closed,
        "p_max": comp.p_max,
        "s": comp.s,
        "tail": comp.tail,
    }
    _emit(args, list(fields), [list(fields.values())], record=True)


def cmd_toeplitz_compare(args) -> None:
    table = _table(args, args.pmax)
    top = min(args.top, args.n)
    rescaled = rescaled_singular_values(args.n, args.sigma, top)
    reference = enumerate_spectrum(table, top).values
    rows = []
    for rank, (sv, lam) in enumerate(zip(rescaled.tolist(), reference.tolist())):
        rows.append([rank + 1, sv, lam, sv / lam - 1.0])
    _emit(args, ["rank", "rescaled_sv_sq", "lambda_product", "rel_gap"], rows)


def cmd_schatten(args) -> None:
    rows = []
    for N in args.n:
        rows.append([N, schatten_diff(N, args.m, args.q, args.sigma)])
    _emit(args, ["N", "schatten_q_truncated"], rows)


def cmd_beurling(args) -> None:
    # every x, not just the largest: max() passes over a NaN
    bad = [x for x in args.x if not 0.0 < x < math.inf]
    if bad:
        raise ValueError(f"x must be positive and finite, got {bad[0]}")
    p_max = int(1.25 * max(args.x)) + 10 if args.pmax is None else args.pmax
    table = _table(args, p_max)
    system = system_from_spectra(table)
    # the elements up to the largest x hold those up to every smaller one
    values = beurling_integers(system, max(args.x), max_count=args.max_enum)
    counts = np.searchsorted(values, args.x, side="right").tolist()
    _emit(args, ["x", "count", "c"], [[x, c, c / x] for x, c in zip(args.x, counts)])


def _verify_checks(args):
    rng = np.random.RandomState(args.seed)
    params = SpectralParams(args.sigma, args.tau)
    # every block the three local checks read, solved as one batch before
    # any check runs, so a bad --sigma/--tau fails before a line is printed
    blocks = {
        "trace": [(p, SpectralParams(0.25, 1.5)) for p in (2, 3, 5, 7, 11)],
        "moment": [
            (p, SpectralParams(sigma, 0.5 + 2.0 * sigma))
            for sigma in (0.0, 0.25)
            for p in (2, 3, 5)
        ],
        "envelope": [(p, params) for p in (3, 5, 7, 11, 13)],
    }
    listed = [block for group in blocks.values() for block in group]
    solved = iter(local_spectra([p for p, _ in listed], [pars for _, pars in listed]))
    spectra = {
        name: [(p, pars, next(solved)) for p, pars in group] for name, group in blocks.items()
    }

    def check_corner():
        worst = 0.0
        for p in (2, 3, 5, 17):
            for _ in range(25):
                x = rng.standard_normal(rng.randint(1, 24))
                lhs, rhs = corner_quadratic_form(p, x)
                scale = max(abs(lhs), abs(rhs), 1e-30)
                worst = max(worst, abs(lhs - rhs) / scale)
        return worst, worst < 1e-12

    def check_gram():
        worst = 0.0
        for N in (16, 64):
            for sigma in (0.0, 0.25):
                G = gram_via_formula(N, sigma)
                T = build_toeplitz(N, sigma)
                direct = T.T @ T
                worst = max(
                    worst,
                    float(np.max(np.abs(G - direct) / (np.abs(direct) + 1e-30))),
                )
        return worst, worst < 1e-10

    def check_trace():
        worst = 0.0
        for p, _, spec in spectra["trace"]:
            total = (1.0 - 1.0 / p) * math.fsum(spec.eigenvalues)
            worst = max(worst, abs(total - 1.0))
        return worst, worst < 1e-10

    def check_second_moment():
        worst = 0.0
        for p, pars, spec in spectra["moment"]:
            sigma = pars.sigma
            lhs = (1.0 - 1.0 / p) * math.fsum(spec.eigenvalues**2)
            rhs = (1.0 - p ** (-(2.0 + 4.0 * sigma))) / (1.0 - p ** (-(1.0 + 2.0 * sigma))) ** 2
            worst = max(worst, abs(lhs - rhs))
        return worst, worst < 1e-10

    def check_envelope():
        ok = True
        for p, _, spec in spectra["envelope"]:
            env = best_envelope(p, params)
            k = np.arange(spec.eigenvalues.size)
            ok &= bool(np.all(spec.eigenvalues <= env.upper(k) + 1e-12))
            ok &= bool(np.all(spec.eigenvalues >= env.lower(k) - 1e-12))
        return 0.0, ok

    def check_zeta():
        err = abs(zeta_real(2.0) - math.pi**2 / 6.0)
        return err, err < 1e-12

    return [
        ("identity-corner", check_corner),
        ("gram-vs-product", check_gram),
        ("trace-rho1", check_trace),
        ("second-moment-rho-half", check_second_moment),
        ("sandwich-envelope", check_envelope),
        ("zeta-pi2-over-6", check_zeta),
    ]


def cmd_verify(args) -> None:
    rows = []
    failed = []
    for name, fn in _verify_checks(args):
        measure, ok = fn()
        rows.append([name, "PASS" if ok else "FAIL", float(measure)])
        print(f"{'PASS' if ok else 'FAIL'} {name} (measure={measure:.3g})")
        if not ok:
            failed.append(name)
    if args.out:
        _emit(args, ["check", "status", "measure"], rows)
    if failed:
        raise VerificationFailed(f"checks out of tolerance: {', '.join(failed)}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, sigma=True, tau=True, floor=True):
    """Shared options; --floor only for commands that build a table or a
    local spectrum."""
    if sigma:
        sp.add_argument("--sigma", type=float, required=True)
    if tau:
        sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--out", default=None, help="output path ('-' or omit for stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    if floor:
        sp.add_argument("--floor", type=float, default=DEFAULT_FLOOR)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcm-spectra",
        description="Spectra of the arithmetical LCM matrix family and its applications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("local-eigs", help="eigenvalues of one prime-local block")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=cmd_local_eigs)

    sp = sub.add_parser("spectrum", help="sorted global eigenvalues lambda_n")
    _add_common(sp)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--pmax", type=int, default=None)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("counting", help="eigenvalue counting function mu(t)")
    _add_common(sp)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--pmax", type=int, default=100_000)
    sp.add_argument("--emit-plot-data", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_counting, format="json")

    sp = sub.add_parser("kappa", help="asymptotic constant kappa(sigma, tau)")
    _add_common(sp)
    sp.add_argument("--pmax", type=int, default=1_000_000)
    sp.set_defaults(func=cmd_kappa, format="json")

    sp = sub.add_parser(
        "toeplitz-compare", help="rescaled singular values vs global eigenvalues"
    )
    _add_common(sp, tau=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--top", type=int, default=10)
    sp.add_argument("--pmax", type=int, default=100_000)
    # the comparison lives at tau = 1; the comment line still records it
    sp.set_defaults(func=cmd_toeplitz_compare, tau=1.0)

    sp = sub.add_parser("schatten", help="truncated Schatten norm of the distortion")
    _add_common(sp, tau=False, floor=False)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, default=256)
    sp.add_argument(
        "--n",
        type=lambda s: [int(v) for v in s.split(",")],
        required=True,
        help="comma-separated truncation sizes",
    )
    sp.set_defaults(func=cmd_schatten)

    sp = sub.add_parser("beurling", help="generalized-integer counting")
    _add_common(sp)
    sp.add_argument(
        "--x",
        type=lambda s: [float(v) for v in s.split(",")],
        required=True,
        help="comma-separated evaluation points",
    )
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--max-enum", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_beurling)

    sp = sub.add_parser("verify", help="run the exact-identity self checks")
    _add_common(sp, sigma=False, tau=False, floor=False)
    sp.add_argument("--sigma", type=float, default=0.25)
    sp.add_argument("--tau", type=float, default=1.5)
    sp.add_argument("--seed", type=int, default=1234)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors mean invalid parameters
        code = exc.code or 0
        return 0 if code == 0 else 2
    try:
        args.func(args)
        return 0
    except (InvalidRegime, NoClosedForm, ValueError, OverflowError) as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: file access failed: {exc}", file=sys.stderr)
        return 2
    except (
        CertificateUnavailable,
        EnumerationInfeasible,
        PrimeOutOfRange,
        FloorTooHigh,
    ) as exc:
        print(f"error: certificate unavailable: {exc}", file=sys.stderr)
        return 3
    except (EigensolverError, VerificationFailed, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
