"""lcm-spectra benchmark: paper-scale workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload kappa_half_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Each run imports lcmspectra from ``src/`` next to this directory, sets the
workload up, then repeats timed passes for about ``--seconds`` seconds and
checks every pass against its oracle.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the program's public functions and reports
per-layer metrics instead.  ``--smoke`` runs the same paths at toy sizes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any pass failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("kappa_half_cold", "queries_one_warm", "verify_toeplitz")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
# kappa_err where a workload computes no kappa: the end-to-end metric set is
# the same on every workload and no metric may read 0
NO_KAPPA = 1.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes (p_max = 2000, N = 64)")
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(min(max(current, 1), n))


def import_program():
    """Import lcmspectra from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "lcmspectra", "__init__.py")):
        sys.exit(f"perfbench: no lcmspectra source under {SRC}")
    sys.path.insert(0, SRC)
    import lcmspectra

    if os.path.dirname(os.path.dirname(os.path.abspath(lcmspectra.__file__))) != SRC:
        sys.exit(f"perfbench: lcmspectra imported from {lcmspectra.__file__}, not {SRC}")
    return lcmspectra


def blas_threads():
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return f"unknown ({BLAS_THREAD_VARS[0]}={os.environ.get(BLAS_THREAD_VARS[0])})"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spec() -> dict:
    """BENCHMARK.json: the workload and metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(args) -> dict:
    import numpy as np

    try:  # the version only: importing scipy would count in peak_rss_mb
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "paper",
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def child_command(args, workload, *extra) -> list[str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def measure_setup(args, workdir: str) -> float:
    """CPU seconds from process start until the workload is ready, in a fresh process.

    The child reports the CPU time of its main thread when it is ready.  That
    leaves out the OpenBLAS worker threads, which spin for a while after
    numpy starts them whatever the workload does.
    """
    sub = tempfile.mkdtemp(prefix="setup", dir=workdir)
    cmd = child_command(args, args.workload, "--setup-child", sub)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    shutil.rmtree(sub, ignore_errors=True)
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(lines[1])


def tail_percentile(walls):
    """Highest percentile with at least ten passes beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(walls)[n - 11]


@contextlib.contextmanager
def tracing(tracer):
    """Wrap the program's functions for the duration of the block, if tracing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def run_passes(wl, st, seconds, tracer, between):
    """Timed passes until the next one would overrun the budget by half a pass.

    ``between()`` runs before each pass, outside the timing and the budget.
    With a tracer, passes alternate traced and untraced (at least one of
    each), so the traced run also measures its own overhead.
    """
    walls = {True: [], False: []}
    layer_passes, kappa_errs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t_between = time.perf_counter()
        between()
        start += time.perf_counter() - t_between
        traced = tracer is not None and attempted % 2 == 0
        gc.collect()
        try:
            with tracing(tracer if traced else None):
                t0 = time.perf_counter()
                out = wl.run(st)
                wall = time.perf_counter() - t0
            problems = wl.check(st, out)
        except Exception as exc:  # a failing pass is counted, not fatal
            traceback.print_exc()
            problems = [f"pass raised {exc!r}"]
        attempted += 1
        if traced:
            layer_passes.append(tracer.take())
        if problems:
            failed += 1
            print(f"perfbench: pass {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            walls[traced].append(wall)
            kappa_errs.append(wl.kappa_err(out))
            print(f"perfbench: pass {attempted}: {wall:.4f} s", file=sys.stderr)
        out = None
        elapsed = time.perf_counter() - start
        enough = attempted >= (2 if tracer else 1)
        if enough and elapsed + 0.5 * elapsed / attempted > seconds:
            break
    return walls, layer_passes, kappa_errs, attempted, failed


def end_to_end(declared, walls, setups, kappa_errs) -> dict:
    """The "end_to_end" metrics that BENCHMARK.json declares, in its order."""
    errs = [e for e in kappa_errs if e is not None]
    values = {
        "wall_s": statistics.median(walls) if walls else float("nan"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kappa_err": statistics.median(errs) if errs else NO_KAPPA,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_end_to_end(metrics, walls, setups, attempted, failed, has_kappa) -> None:
    tail = tail_percentile(walls)
    tail_text = (
        f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile below 11 passes"
    )
    print(
        f"  wall_s       {metrics['wall_s']['value']:.4f} s   median of {len(walls)} passes "
        f"[{', '.join(f'{w:.3f}' for w in walls)}]; {tail_text}"
    )
    print(
        f"  setup_s      {metrics['setup_s']['value']:.4f} s   median main-thread CPU of "
        f"{len(setups)} fresh-process set-ups [{', '.join(f'{s:.3f}' for s in setups)}]"
    )
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_frac    {failed / attempted:.4g} 1   ({failed} of {attempted} passes failed)")
    kappa_text = f"{metrics['kappa_err']['value']:.6g} 1" if has_kappa else "n/a (no kappa computed)"
    print(f"  kappa_err    {kappa_text}")


def print_layers(setup_layers, layer_passes, report) -> None:
    print("  per-layer metric                 set-up    median pass      reported unit")
    for name, cell in report.items():
        pre = setup_layers.get(name, 0)
        per = statistics.median(p.get(name, 0) for p in layer_passes) if layer_passes else 0
        print(f"  {name:30s} {pre:>10.4g} {per:>14.4g} {cell['value']:>14.6g} {cell['unit']}")


def run_one(args) -> int:
    lcmspectra = import_program()
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.PAPER
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_child:
        wl.setup(args.seed, sizes, args.setup_child)
        print("ready", repr(time.thread_time()), flush=True)
        return 0

    spec = load_spec()
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        print("env:", json.dumps({**environment(args), "lcmspectra": lcmspectra.__version__}))
        if args.trace:
            import spans
        tracer = spans.Tracer() if args.trace else None
        # set-ups in fresh processes, one before each of the first passes, so
        # that they sample the host over the same minute as the passes do
        setups = []
        repeats = 0 if tracer else sizes.setup_repeats

        def sample_setup():
            if len(setups) < repeats:
                setups.append(measure_setup(args, workdir))

        with tracing(tracer):
            st = wl.setup(args.seed, sizes, os.path.join(workdir, "main"))
        setup_layers = tracer.take() if tracer else {}
        walls, layer_passes, kappa_errs, attempted, failed = run_passes(
            wl, st, args.seconds, tracer, sample_setup
        )
        while len(setups) < repeats:
            sample_setup()
        if tracer:
            metrics = spans.layer_report(
                spec["per_layer"], setup_layers, layer_passes, walls[True], walls[False]
            )
            print_layers(setup_layers, layer_passes, metrics)
            if tracer.missing:
                print(f"  absent spans: {', '.join(sorted(tracer.missing))}")
        else:
            metrics = end_to_end(spec["end_to_end"], walls[False], setups, kappa_errs)
            has_kappa = any(e is not None for e in kappa_errs)
            print_end_to_end(metrics, walls[False], setups, attempted, failed, has_kappa)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one combined table.

    Also checks that the workloads are the ones that BENCHMARK.json declares.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if [w["name"] for w in load_spec()["workloads"]] != list(WORKLOAD_NAMES):
        print("perfbench: BENCHMARK.json lists other workloads", file=sys.stderr)
        merged["correct"] = False
    for name in WORKLOAD_NAMES:
        done = subprocess.run(child_command(args, name), capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print(f"== {name} (exit {done.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = cell
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if args.workload == "all":
        import_program()  # fail here, before any workload prints a result
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
