"""Per-layer tracing from outside the program.

The tracer replaces public functions of lcmspectra at the module attribute
their caller looks up (``spectrum.primes_up_to``, ``kappa.build_table``,
``cli.local_spectrum``, ...) with wrappers that record one span per call:
metric, parent span, start and end.  Spans stay in memory; after each
phase the self time of every span (its duration minus the spans it caused)
is summed per metric.  A wrapped name that the program no longer has is
skipped and its metrics read 0.
"""

from __future__ import annotations

import inspect
import logging
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from lcmspectra import beurling, cli, kappa, spectrum, toeplitz

# counters that only feed a ratio and are not reported themselves
_KEPT, _ORDERS = "_local.kept", "_local.orders"
_MAX_COUNTERS = {"spectrum.n_cut"}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_table(tracer, table):
    """Work counters for a freshly solved table (not for a cache hit)."""
    tracer.add("local.primes_solved", len(table.primes))
    orders = np.asarray(table.trunc_orders, dtype=np.int64)
    tracer.add("local.block_entries", int(np.sum(orders * orders)))
    tracer.add(_ORDERS, int(np.sum(orders)))
    tracer.add(_KEPT, int(sum(r.size + 1 for r in table.ratios)))


class _BuildTable:
    """build_table: hit or miss against the cache, and the work solved."""

    def __init__(self, fn):
        self.signature = inspect.signature(fn)

    def before(self, tracer, args, kwargs):
        try:
            cache_dir = self.signature.bind(*args, **kwargs).arguments.get("cache_dir")
        except TypeError:  # the call itself raises it
            cache_dir = None
        return bool(cache_dir), tracer.counts["spectrum.cache_hits"]

    def after(self, tracer, token, args, kwargs, table):
        with_cache, hits_before = token
        if tracer.counts["spectrum.cache_hits"] > hits_before:
            return
        if with_cache:
            tracer.add("spectrum.cache_misses", 1)
        tracer.guard(_count_table, tracer, table)


class _Hook:
    """Counters taken from one call's arguments and result."""

    def __init__(self, after):
        self._after = after

    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, token, args, kwargs, result):
        tracer.guard(self._after, tracer, args, kwargs, result)


def _single_block(tracer, args, kwargs, spec):
    K = int(spec.truncation_order)
    tracer.add("local.single_block_calls", 1)
    tracer.add("local.primes_solved", 1)
    tracer.add("local.block_entries", K * K)
    tracer.add(_ORDERS, K)
    tracer.add(_KEPT, int(spec.eigenvalues.size))


def _load(tracer, args, kwargs, table):
    tracer.add("spectrum.cache_bytes_read", os.path.getsize(_first_arg(args, kwargs, "path")))
    if table is not None:
        tracer.add("spectrum.cache_hits", 1)


def _save(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("spectrum.cache_bytes_written", os.path.getsize(path))


def _gram(tracer, args, kwargs, result):
    N = int(_first_arg(args, kwargs, "N"))
    tracer.add("toeplitz.gram_bytes", N * N * 8)


def _semigroup(tracer, args, kwargs, values):
    tracer.add("beurling.semigroup_elements", int(np.asarray(values).size))


def _counting(tracer, args, kwargs, result):
    tracer.add("spectrum.n_cut", int(result.n_cut))


def _calls(metric):
    return lambda tracer, args, kwargs, result: tracer.add(metric, 1)


def targets():
    """(owner, attribute, metric, hook) for every wrapped name.

    Each function is wrapped at the attribute that the workloads, or the
    program code they call, look it up by.
    """
    table_cls = getattr(spectrum, "GlobalSpectrumTable", None)
    return [
        (spectrum, "primes_up_to", "arith.sieve_s", None),
        (spectrum, "smallest_prime_factor_table", "arith.sieve_s", None),
        (spectrum, "factorize", "arith.factorize_s", _Hook(_calls("arith.factorize_calls"))),
        (spectrum, "build_table", "local.table_solve_s", _BuildTable),
        (kappa, "build_table", "local.table_solve_s", _BuildTable),
        (cli, "local_spectrum", "local.single_block_s", _Hook(_single_block)),
        (table_cls, "envelope", "spectrum.envelope_s", None),
        (spectrum, "counting_mu", "spectrum.counting_s", _Hook(_counting)),
        (spectrum, "_lambda_values", "spectrum.lambda_sieve_s", None),
        (spectrum, "enumerate_spectrum", "spectrum.enumerate_s", None),
        (spectrum, "lambda_of", "spectrum.lambda_of_s", _Hook(_calls("spectrum.lambda_of_calls"))),
        (spectrum, "load_table", "spectrum.cache_load_s", _Hook(_load)),
        (spectrum, "save_table", "spectrum.cache_save_s", _Hook(_save)),
        (spectrum, "finite_section_eigs", "spectrum.finite_section_s", None),
        (kappa, "kappa_numeric", "kappa.euler_product_s", None),
        (toeplitz, "gram_via_formula", "toeplitz.gram_s", _Hook(_gram)),
        (cli, "gram_via_formula", "toeplitz.gram_s", _Hook(_gram)),
        (toeplitz, "rescaled_singular_values", "toeplitz.top_sv_s", None),
        (toeplitz, "schatten_diff", "toeplitz.schatten_s", None),
        (beurling, "system_from_spectra", "beurling.generators_s", None),
        (beurling, "count_integers", "beurling.semigroup_s", None),
        (beurling, "beurling_integers", "beurling.semigroup_s", _Hook(_semigroup)),
        (cli, "main", "cli.verify_s", None),
    ]


class _MergeCounter(logging.Handler):
    """Counts the semigroup merges that beurling_integers logs."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if str(record.msg).startswith("merged %d") and record.args:
            self.tracer.add("beurling.merges", int(record.args[0]))


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, parent index, start, end]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._merges = _MergeCounter(self)

    # -- counters ---------------------------------------------------------
    def add(self, metric: str, value) -> None:
        if metric in _MAX_COUNTERS:
            self.counts[metric] = max(self.counts[metric], value)
        else:
            self.counts[metric] += value

    def guard(self, fn, *args) -> None:
        """Run a counter hook; a result of another shape leaves it unset."""
        try:
            fn(*args)
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            self.missing.add(getattr(fn, "__name__", repr(fn)))

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        for owner, attr, metric, hook in targets():
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(f"{getattr(owner, '__name__', '?')}.{attr}")
                continue
            if isinstance(hook, type):
                hook = hook(fn)
            setattr(owner, attr, self._wrap(fn, metric, hook))
            self._installed.append((owner, attr, fn))
        logging.getLogger(beurling.__name__).addHandler(self._merges)

    def uninstall(self) -> None:
        logging.getLogger(beurling.__name__).removeHandler(self._merges)
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, metric, hook):
        spans, stack = self.spans, self._stack
        layer = metric.split(".")[0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = hook.before(self, args, kwargs) if hook else None
            span = [metric, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook:
                hook.after(self, token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------
    def take(self) -> dict:
        """Self time per metric plus counters since the last take; resets."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (metric, _, start, end) in enumerate(spans):
            out[metric] += (end - start) - child[i]
        out.update(self.counts)
        spans.clear()
        self.counts = Counter()
        return dict(out)


def layer_report(declared, setup: dict, passes: list[dict], traced_walls, untraced_walls) -> dict:
    """The "per_layer" metrics that BENCHMARK.json declares: set-up plus the median traced pass.

    A declared metric that no span or counter produced reads 0.
    """
    keys = set(setup).union(*passes) if passes else set(setup)
    combined = {
        k: setup.get(k, 0) + (statistics.median(p.get(k, 0) for p in passes) if passes else 0)
        for k in keys
    }
    orders = combined.get(_ORDERS, 0)
    combined["local.kept_ratio"] = combined.get(_KEPT, 0) / orders if orders else 0.0
    traced = statistics.median(traced_walls) if traced_walls else 0.0
    untraced = statistics.median(untraced_walls) if untraced_walls else traced
    combined["trace.wall_s"] = traced
    combined["trace.overhead_s"] = traced - untraced
    combined["trace.passes"] = len(traced_walls)
    report = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = combined.get(name, 0)
        report[name] = {"value": int(value) if unit in ("count", "B") else value, "unit": unit}
    return report
