import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lcmspectra import (
    FloorTooHigh,
    SpectralParams,
    build_table,
    count_integers,
    gram_via_formula,
    lambda_of,
    local,
    system_from_spectra,
)
from lcmspectra import cli
from lcmspectra.cli import _fmt, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _top_values(table, n_max, top):
    """The top largest lambda_n over n <= n_max, from lambda_of, which
    factors each index; an index with an exponent below the floor is
    left out."""
    values = []
    for n in range(1, n_max + 1):
        try:
            values.append(lambda_of(n, table).value)
        except FloorTooHigh:
            pass
    return sorted(values, reverse=True)[:top]


class TestLocalEigs:
    def test_csv_contract(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        code, _, _ = run(
            ["local-eigs", "--p", "2", "--sigma", "0.25", "--tau", "1.5",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# lcm-spectra")
        assert lines[1] == "k,lambda,envelope_lo,envelope_hi"
        k, lam, lo, hi = lines[2].split(",")
        assert int(k) == 0
        assert float(lo) <= float(lam) <= float(hi)

    def test_envelope_contains_all_rows(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        code, _, _ = run(
            ["local-eigs", "--p", "11", "--sigma", "0.25", "--tau", "1.5",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        for _, lam, lo, hi in rows:
            assert float(lo) - 1e-12 <= float(lam) <= float(hi) + 1e-12


class TestKappa:
    def test_json_contract(self, capsys, tmp_path):
        path = tmp_path / "kappa.json"
        code, _, _ = run(
            ["kappa", "--sigma", "0.25", "--tau", "1.5", "--pmax", "2000",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["closed_form"] == 1.0
        assert abs(payload["kappa"] - 1.0) < 1e-6
        assert payload["tail"] == 0.0
        assert set(payload) == {"kappa", "closed_form", "p_max", "s", "tail", "_comment"}
        assert payload["_comment"].startswith("lcm-spectra")

    def test_no_closed_form_is_null(self, capsys, tmp_path):
        path = tmp_path / "kappa.json"
        code, _, _ = run(
            ["kappa", "--sigma", "0.25", "--tau", "1.2", "--pmax", "500",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert json.loads(path.read_text())["closed_form"] is None


class TestSpectrum:
    def test_csv_sorted_by_rank(self, capsys, tmp_path):
        path = tmp_path / "sorted.csv"
        code, _, _ = run(
            ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "50",
             "--pmax", "2000", "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "rank,n,lambda,rank_rho_lambda"
        rows = [l.split(",") for l in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, 51))
        assert int(rows[0][1]) == 1
        lams = [float(r[2]) for r in rows]
        assert all(a >= b for a, b in zip(lams, lams[1:]))

    def test_readme_example_exits_zero(self, capsys, tmp_path):
        # the README's spectrum line, run at the default --pmax
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        line = re.search(r"^lcm-spectra (spectrum .*)$", section, re.M).group(1)
        path = tmp_path / "readme.csv"
        code, _, err = run(shlex.split(line) + ["--out", str(path)], capsys)
        assert (code, err) == (0, "")
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        assert len(rows) == 10_000 and len({r[1] for r in rows}) == 10_000
        # rank * lambda at rank 10^4 lies near kappa = 1
        assert abs(float(rows[-1][3]) - 1.0) < 1e-3

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "30",
                 "--pmax", "1000", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestCounting:
    def test_json_and_plot_data(self, capsys, tmp_path):
        out = tmp_path / "mu.json"
        plot = tmp_path / "mu_plot.csv"
        code, _, _ = run(
            ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "500",
             "--pmax", "3000", "--out", str(out),
             "--emit-plot-data", str(plot)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0 < payload["mu_lo"] <= payload["mu"] <= payload["mu_hi"]
        assert payload["margin"] > 1.0
        assert list(payload) == ["_comment", "margin", "mu", "mu_hi", "mu_lo", "mu_scaled", "t"]
        lines = plot.read_text().splitlines()
        assert lines[1] == "t,mu_t_scaled"
        pairs = [tuple(map(float, l.split(","))) for l in lines[2:]]
        assert len(pairs) == 13
        assert pairs[-1][0] == 500.0

    def test_plot_data_is_csv_in_either_format(self, capsys, tmp_path):
        plot = tmp_path / "mu_plot.csv"
        texts = []
        for fmt in ("json", "csv"):
            code, _, _ = run(
                ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "50",
                 "--pmax", "2000", "--format", fmt, "--emit-plot-data", str(plot)],
                capsys,
            )
            assert code == 0
            texts.append(plot.read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1] == "t,mu_t_scaled"

    def test_csv_at_rho_half(self, capsys):
        # at t = 200, 1/t clears the bound on primes above p_max by 1.22
        code, out, _ = run(
            ["counting", "--sigma", "0.25", "--tau", "1", "--t", "200", "--pmax", "1000000",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, row = out.splitlines()[1:]
        assert header == "t,mu,mu_lo,mu_hi,margin,mu_scaled"
        t, mu, mu_lo, mu_hi, margin, _ = map(float, row.split(","))
        assert (t, mu) == (200.0, 227_035) and mu_lo <= mu <= mu_hi and margin > 1.0


class TestOtherCommands:
    def test_schatten_rows(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run(
            ["schatten", "--sigma", "0", "--q", "2", "--m", "32",
             "--n", "8,64", "--out", str(path)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        assert len(rows) == 2
        assert float(rows[1][1]) < float(rows[0][1])

    def test_beurling_rows(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        code, _, _ = run(
            ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "10,100",
             "--pmax", "500", "--out", str(path)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        assert int(float(rows[0][1])) <= int(float(rows[1][1]))

    def test_beurling_counts_from_one_enumeration(self, capsys):
        xs = [40000.0, 10.0, 3.5, 0.5]
        code, out, _ = run(
            ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "40000,10,3.5,0.5"],
            capsys,
        )
        assert code == 0
        table = build_table(SpectralParams(0.25, 1.5), int(1.25 * 40000) + 10)
        system = system_from_spectra(table)
        want = []
        for x in xs:
            count = count_integers(system, x)
            want.append(",".join(map(_fmt, [x, count, count / x])))
        assert out.splitlines()[2:] == want

    def test_toeplitz_compare(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _, _ = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "64", "--top", "3",
             "--pmax", "2000", "--out", str(path)],
            capsys,
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "rank,rescaled_sv_sq,lambda_product,rel_gap"
        assert len(lines) == 5

    def test_toeplitz_compare_matches_formula_gram(self, capsys):
        code, out, _ = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "2048", "--top", "10",
             "--pmax", "20000"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert "tau=1.0" in lines[0].split()
        got = np.array([float(l.split(",")[1]) for l in lines[2:]])
        w = np.linalg.eigvalsh(gram_via_formula(2048, 0.25))[::-1][:10]
        ref = 0.5 * 2048**-0.5 * w
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)

    def test_toeplitz_compare_beyond_dense_reach(self, capsys):
        # N = 2^16 would need a 32 GB dense Gram matrix
        code, out, _ = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "65536", "--top", "3",
             "--pmax", "20000"],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[2:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals, reverse=True) and vals[-1] > 0.0

    def test_toeplitz_compare_ranks_against_certified_top(self, capsys):
        # at sigma = 0.4 the top 100 reach n = 491, past the first window
        # of 400 indices, which the search finds
        code, out, _ = run(
            ["toeplitz-compare", "--sigma", "0.4", "--n", "128", "--top", "100",
             "--pmax", "100000"],
            capsys,
        )
        assert code == 0
        got = [float(l.split(",")[2]) for l in out.splitlines()[2:]]
        table = build_table(SpectralParams(0.4, 1.0), 100_000)
        assert got == _top_values(table, 100_000, 100)


class TestVerify:
    def test_passes_and_prints(self, capsys):
        code, out, _ = run(["verify", "--seed", "42"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 6
        assert all(l.startswith("PASS") for l in lines)

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "v1.csv", tmp_path / "v2.csv"
        for path in (a, b):
            code, _, _ = run(["verify", "--seed", "7", "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_pair_fails_before_any_check(self, capsys, tmp_path):
        # rho = -0.1: the one batch of local blocks is solved, and refused,
        # before the first check prints its line or any file is written
        path = tmp_path / "v.csv"
        code, out, err = run(["verify", "--sigma", "0.3", "--tau", "0.5", "--out", str(path)],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid parameters: local spectra need finite rho > 0")
        assert "SpectralParams(sigma=0.3, tau=0.5)" in err and err.count("\n") == 1
        assert not path.exists()

    def test_failed_check_is_four(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "zeta_real", lambda s: 0.0)
        path = tmp_path / "v.csv"
        code, out, err = run(["verify", "--out", str(path)], capsys)
        assert code == 4
        assert "FAIL zeta-pi2-over-6 (measure=1.64)" in out.splitlines()
        assert sum(line.startswith("PASS") for line in out.splitlines()) == 5
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert [r[1] for r in rows if r[0] == "zeta-pi2-over-6"] == ["FAIL"]
        assert err == (
            "error: numerical failure: checks out of tolerance: zeta-pi2-over-6\n"
        )


class TestExitCodes:
    def test_invalid_regime_is_two(self, capsys):
        code, _, err = run(
            ["kappa", "--sigma", "1.0", "--tau", "1.0", "--pmax", "100"], capsys
        )
        assert code == 2
        assert "invalid parameters" in err

    def test_missing_argument_is_two(self, capsys):
        assert main(["spectrum", "--sigma", "0.25", "--tau", "1.5"]) == 2

    def test_coverage_failure_is_three(self, capsys):
        code, _, err = run(
            ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "1e9",
             "--pmax", "2000"],
            capsys,
        )
        assert code == 3
        assert "certificate" in err

    def test_spectrum_pmax_below_nmax_is_three(self, capsys):
        # rank 30 lies below what the bound on primes above p_max = 5 admits
        code, out, err = run(
            ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "30", "--pmax", "5"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: certificate unavailable")
        assert "of the n_max = 30 values" in err and "primes above p_max=5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "floor, reason",
        # rank 3 lies below a floor of 0.5
        [("0.5", "below the floor")],
    )
    def test_toeplitz_compare_without_certificate_is_three(self, floor, reason, capsys):
        code, out, err = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "64", "--top", "3",
             "--pmax", "2000", "--floor", floor],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: certificate unavailable") and reason in err

    def test_toeplitz_compare_beyond_coverage_is_three(self, capsys):
        # at rho = 0.2 and p_max = 200 the rank-10 value does not clear the
        # bound on primes above p_max
        code, out, err = run(
            ["toeplitz-compare", "--sigma", "0.4", "--n", "256", "--top", "10",
             "--pmax", "200"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: certificate unavailable")
        assert "primes above p_max=200" in err

    def test_toeplitz_compare_near_floor_is_certified(self, capsys):
        # at floor 0.01 the search threshold, about 0.30, is 13 times
        # max(cap, beyond), so the top 3 are certified
        code, out, _ = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "64", "--top", "3",
             "--pmax", "2000", "--floor", "0.01"],
            capsys,
        )
        assert code == 0
        got = [float(l.split(",")[2]) for l in out.splitlines()[2:]]
        table = build_table(SpectralParams(0.25, 1.0), 2000, target_floor=0.01)
        assert got == _top_values(table, 2000, 3)

    def test_beurling_floor_without_second_eigenvalue_is_three(self, capsys):
        code, out, err = run(
            ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "100",
             "--pmax", "1000", "--floor", "0.5"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: certificate unavailable: no second eigenvalue for p=2: "
            "floor 0.5 too high\n"
        )

    def test_spectrum_pmax_error_names_value(self, capsys):
        code, _, err = run(
            ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "3", "--pmax=-5"],
            capsys,
        )
        assert code == 2
        assert err == "error: invalid parameters: p_max must be >= 2, got -5\n"

    def test_lanczos_failure_is_four(self, capsys, monkeypatch):
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), None)

        monkeypatch.setattr(sla, "eigsh", no_convergence)
        code, out, err = run(
            ["toeplitz-compare", "--sigma", "0.25", "--n", "64", "--top", "3",
             "--pmax", "2000"],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: numerical failure: Lanczos failed")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_top_eigenvalue_below_one_is_four(self, capsys, monkeypatch):
        solve = local.block_eigenvalues
        monkeypatch.setattr(local, "block_eigenvalues", lambda *args: 0.5 * solve(*args))
        code, out, err = run(
            ["local-eigs", "--p", "2", "--sigma", "0.25", "--tau", "1.5"], capsys
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: numerical failure: top eigenvalue")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestReadme:
    def test_command_lines_parse(self):
        # every `lcm-spectra ...` line of README's "Command line" code block
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        parser = build_parser()
        commands = set()
        for line in block.splitlines():
            if line.startswith("lcm-spectra "):
                commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        assert commands == {
            "local-eigs", "spectrum", "counting", "kappa", "toeplitz-compare",
            "schatten", "beurling", "verify",
        }


LOCAL = ["local-eigs", "--sigma", "0.25", "--tau", "1.5"]
BAD_INPUTS = {
    "p-nan": LOCAL + ["--p", "nan"],
    "p-inf": LOCAL + ["--p", "inf"],
    "sigma-nan": ["local-eigs", "--sigma", "nan", "--tau", "1.5", "--p", "3"],
    "p-overflow": LOCAL + ["--p", "1e300"],
    "out-dir-missing": LOCAL + ["--p", "3", "--out", "{tmp}/missing/x.csv"],
    "table-floor-nan": ["kappa", "--sigma", "0.25", "--tau", "1.5", "--pmax", "100",
                        "--floor", "nan"],
    "schatten-sigma-nan": ["schatten", "--sigma", "nan", "--q", "2", "--n", "16"],
    # "=" keeps argparse from reading -inf as an option name
    "schatten-sigma-minus-inf": ["schatten", "--sigma=-inf", "--q", "2", "--n", "16"],
    "beurling-x-nan": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "nan",
                       "--pmax", "1000"],
    "beurling-x-zero": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "0",
                        "--pmax", "1000"],
    "beurling-x-later-zero": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "10,0",
                              "--pmax", "1000"],
    # max([10, nan]) is 10, so every x must be checked
    "beurling-x-later-nan": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "10,nan",
                             "--pmax", "1000"],
    "counting-t-nan": ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "nan",
                       "--pmax", "1000"],
    "counting-t-inf": ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "inf",
                       "--pmax", "1000"],
    "toeplitz-top-zero": ["toeplitz-compare", "--sigma", "0.25", "--n", "16", "--top", "0",
                          "--pmax", "1000"],
    "toeplitz-top-negative": ["toeplitz-compare", "--sigma", "0.25", "--n", "16",
                              "--top=-3", "--pmax", "1000"],
    "spectrum-pmax-negative": ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "3",
                               "--pmax=-5"],
    "spectrum-pmax-zero": ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "3",
                           "--pmax", "0"],
    "beurling-pmax-zero": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "100",
                           "--pmax", "0"],
    "beurling-max-enum-zero": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "100",
                               "--pmax", "1000", "--max-enum", "0"],
    # block orders above local.MAX_ORDER: 345 387 784 at p = 1.0000001 and
    # 2 491 449 at p = 2
    "block-order-local-eigs": LOCAL + ["--p", "1.0000001"],
    "block-order-toeplitz": ["toeplitz-compare", "--sigma", "0.49999", "--n", "16",
                             "--pmax", "100"],
}


class TestBadInputs:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_exit_two_with_one_error_line(self, case, capsys, tmp_path):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in BAD_INPUTS[case]]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    # pytest records warnings apart from capsys, so only turning them into
    # errors shows a numpy warning printed before the error line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["kappa", "--sigma", "0.25", "--tau", "1e308", "--pmax", "1000"],
         ["spectrum", "--sigma", "0.25", "--tau", "1e308", "--nmax", "10", "--pmax", "1000"],
         ["verify", "--tau", "1e308"]],
        ids=["kappa", "spectrum", "verify"],
    )
    def test_overflow_without_warnings(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid parameters: p^(rho (K-1)) overflows")
        assert err.count("\n") == 1


class TestNoTableCache:
    def test_cache_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        # the command line keeps no table cache and reads no cache
        # variable, so one naming a file neither fails the run nor touches it
        argv = ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "10", "--pmax", "100"]
        code, plain, _ = run(argv, capsys)
        assert code == 0
        path = tmp_path / "cache"
        path.write_bytes(b"not a directory")
        monkeypatch.setenv("LCM_SPECTRA_CACHE_DIR", str(path))
        assert run(argv, capsys) == (0, plain, "")
        assert path.read_bytes() == b"not a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]


# one small run of every subcommand; counting and kappa print one record
EVERY_COMMAND = {
    "local-eigs": ["local-eigs", "--p", "3", "--sigma", "0.25", "--tau", "1.5"],
    "spectrum": ["spectrum", "--sigma", "0.25", "--tau", "1.5", "--nmax", "20", "--pmax", "1000"],
    "counting": ["counting", "--sigma", "0.25", "--tau", "1.5", "--t", "50", "--pmax", "2000"],
    "kappa": ["kappa", "--sigma", "0.25", "--tau", "1.2", "--pmax", "500"],
    "toeplitz-compare": ["toeplitz-compare", "--sigma", "0.25", "--n", "64", "--top", "3",
                         "--pmax", "2000"],
    "schatten": ["schatten", "--sigma", "0", "--q", "2", "--m", "32", "--n", "8,16"],
    "beurling": ["beurling", "--sigma", "0.25", "--tau", "1.5", "--x", "10,100",
                 "--pmax", "500"],
    "verify": ["verify", "--seed", "7"],
}
RECORDS = {"counting", "kappa"}


class TestOutputFormats:
    def test_every_command_is_covered(self):
        assert set(EVERY_COMMAND) == set(build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("command", list(EVERY_COMMAND))
    def test_csv_and_json_carry_the_same_rows(self, command, capsys, tmp_path):
        texts = {}
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            code, _, err = run(EVERY_COMMAND[command] + ["--format", fmt, "--out", str(path)],
                               capsys)
            assert (code, err) == (0, "")
            texts[fmt] = path.read_text()
        comment, header, *lines = texts["csv"].splitlines()
        assert comment.startswith("# lcm-spectra ")
        header = header.split(",")
        rows = [line.split(",") for line in lines]
        assert rows and all(len(row) == len(header) for row in rows)

        payload = json.loads(texts["json"])
        assert "# " + payload.pop("_comment") == comment
        if command in RECORDS:
            assert len(rows) == 1
            records = [payload]
        else:
            assert list(payload) == ["rows"]
            records = payload["rows"]
        assert len(records) == len(rows)
        for row, record in zip(rows, records):
            assert set(record) == set(header)
            for field, key in zip(row, header):
                value = record[key]
                if value is None:
                    assert field == ""
                elif isinstance(value, str):
                    assert field == value
                else:
                    assert float(field) == value
