"""Layer tracing from outside the package.

A traced op temporarily replaces public functions of ``bench``, ``dag``,
``gbn``, ``datagen``, ``estimators`` and ``cli`` with timing wrappers.
Each name is patched where its caller looks it up: a module attribute
when callers go through the module (``gbn.covariance``,
``estimators.least_squares_node`` inside ``batch_least_squares``), and
the importing module's own binding when a caller did ``from .dag import
...`` (``bench.random_er_dag``, ``cli.read_dag_file``). Every name is
restored when the op ends.

Per op the tracer keeps, for every span name, the call count, the
number of calls that raised, inclusive seconds, self seconds (inclusive
minus time covered by child spans) and a work amount used for rates.
Individual spans (name, op id, span id, parent id, start, end, ok) are
kept in memory only for the first ``SPAN_LIMIT`` calls of a name in an
op; beyond that the name is aggregated only, which keeps hot kernels
such as ``least_squares_node`` (about 10^5 calls per op) cheap to trace.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

SPAN_LIMIT = 1000

# Layer metrics of the traced run: (name, unit, better, what it should move).
# Each value is the per-op median over the traced ops of a run.
LAYER_METRICS = (
    ("estimators.batch_least_squares.s", "s", "lower", "op_s_p50/fits_per_s on sweep_clean_er and sweep_contaminated_tree; flat on large_agnostic_er, sweep_cli"),
    ("estimators.batch_least_squares.self_s", "s", "lower", "same as estimators.batch_least_squares.s"),
    ("estimators.batch_least_squares.calls", "count", "lower", "same as estimators.batch_least_squares.s"),
    ("estimators.batch_least_squares.failed", "count", "lower", "same as estimators.batch_least_squares.s"),
    ("estimators.batch_least_squares.inner_calls", "count", "lower", "same as estimators.batch_least_squares.s"),
    ("estimators.least_squares_node.s", "s", "lower", "op_s_p50 on both sweeps and large_agnostic_er"),
    ("estimators.least_squares_node.calls", "count", "lower", "op_s_p50 on both sweeps and large_agnostic_er"),
    ("estimators.least_squares_node.failed", "count", "lower", "op_s_p50 on both sweeps and large_agnostic_er"),
    ("estimators.cauchy_est_tree_node.s", "s", "lower", "op_s_p50 on both sweeps and large_agnostic_er"),
    ("estimators.cauchy_est_tree_node.calls", "count", "lower", "op_s_p50 on both sweeps and large_agnostic_er"),
    ("estimators.cauchy_est_node.s", "s", "lower", "op_s_p50 on both sweeps, large_agnostic_er and sweep_cli"),
    ("estimators.cauchy_est_node.calls", "count", "lower", "op_s_p50 on both sweeps, large_agnostic_er and sweep_cli"),
    ("estimators.cauchy_est_node.failed", "count", "lower", "op_s_p50 on both sweeps, large_agnostic_er and sweep_cli"),
    ("estimators.batch_solve.calls", "count", "lower", "op_s_p50 on both sweeps and large_agnostic_er (singular-solve fallbacks)"),
    ("estimators.fit_detailed.s", "s", "lower", "op_s_p50 on large_agnostic_er; barely at n = 100"),
    ("estimators.fit_detailed.self_s", "s", "lower", "op_s_p50 on large_agnostic_er (per-node loop and gathers)"),
    ("estimators.fit_detailed.calls", "count", "lower", "op_s_p50 on large_agnostic_er"),
    ("estimators.fit_detailed.failed", "count", "lower", "op_s_p50 on large_agnostic_er"),
    ("estimators.variance_recovery.s", "s", "lower", "op_s_p50 on large_agnostic_er (empirical path)"),
    ("estimators.mad_variance.s", "s", "lower", "op_s_p50 on sweep_contaminated_tree and sweep_cli (MAD path)"),
    ("estimators.mad_variance.calls", "count", "lower", "op_s_p50 on sweep_contaminated_tree and sweep_cli (MAD path)"),
    ("gbn.covariance.s", "s", "lower", "op_s_p50 and peak_rss_mb on large_agnostic_er; flat on n = 100 sweeps"),
    ("gbn.covariance.calls", "count", "lower", "op_s_p50 and peak_rss_mb on large_agnostic_er; flat on n = 100 sweeps"),
    ("gbn.kl_divergence.self_s", "s", "lower", "op_s_p50 on both sweeps and sweep_cli"),
    ("gbn.kl_divergence.calls", "count", "lower", "op_s_p50 on both sweeps and sweep_cli"),
    ("gbn.dcp.calls", "count", "lower", "op_s_p50 on both sweeps and sweep_cli"),
    ("gbn.gaussian_kl.s", "s", "lower", "op_s_p50 and peak_rss_mb on large_agnostic_er"),
    ("gbn.gaussian_kl.calls", "count", "lower", "op_s_p50 and peak_rss_mb on large_agnostic_er"),
    ("gbn.gaussian_kl.failed", "count", "lower", "op_s_p50 and peak_rss_mb on large_agnostic_er"),
    ("gbn.sample.self_s", "s", "lower", "op_s_p50 on large_agnostic_er and sweep_cli"),
    ("gbn.sample.cells_per_s", "1/s", "higher", "op_s_p50 on large_agnostic_er and sweep_cli"),
    ("datagen.contaminated_sample.s", "s", "lower", "op_s_p50 on sweep_contaminated_tree"),
    ("gbn.random_gbn.s", "s", "lower", "op_s_p50 on large_agnostic_er and sweep_cli"),
    ("dag.generate.s", "s", "lower", "op_s_p50 on large_agnostic_er and sweep_cli"),
    ("bench.generate_rep_data.s", "s", "lower", "op_s_p50 on large_agnostic_er; datagen path on sweep_contaminated_tree"),
    ("gbn.save_samples.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("gbn.save_samples.mb_per_s", "MB/s", "higher", "op_s_p50 on sweep_cli only"),
    ("gbn.load_samples.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("gbn.load_samples.mb_per_s", "MB/s", "higher", "op_s_p50 on sweep_cli only"),
    ("gbn.save_model.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("gbn.load_model.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("dag.write_dag_file.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("dag.read_dag_file.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("cli.generate.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("cli.fit.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("cli.eval.s", "s", "lower", "op_s_p50 on sweep_cli only"),
    ("bench.run_experiment.self_s", "s", "lower", "op_s_p50 on the three bench workloads (harness overhead)"),
    ("trace.coverage_frac", "ratio", "higher", "none: share of op wall time covered by layer spans"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced op_s_p50, minus one"),
)

# Work units for rate metrics, recorded after a call returns and outside
# its timed interval: cells of a sample matrix, bytes of a samples file.
_MB = 1e6


def _cells(args, kwargs, result):
    return result.size


def _saved_mb(args, kwargs, result):
    return os.path.getsize(args[1]) / _MB


def _loaded_mb(args, kwargs, result):
    return os.path.getsize(args[0]) / _MB


def _cli_span_name(args, kwargs):
    return "cli." + str(args[0][0])


def patch_table(gbnlearn):
    """(module, attribute, span name, work fn) for every traced name.

    A span name may be a callable of the call's arguments.
    """
    bench, cli, datagen, est, gbn = (
        gbnlearn.bench,
        gbnlearn.cli,
        gbnlearn.datagen,
        gbnlearn.estimators,
        gbnlearn.gbn,
    )
    table = [
        (bench, "run_experiment", "bench.run_experiment", None),
        (bench, "generate_rep_data", "bench.generate_rep_data", None),
        (bench, "random_er_dag", "dag.generate", None),
        (bench, "random_tree_dag", "dag.generate", None),
        (bench, "remove_random_edges", "dag.remove_random_edges", None),
        (cli, "cli", _cli_span_name, None),
        (cli, "random_er_dag", "dag.generate", None),
        (cli, "random_tree_dag", "dag.generate", None),
        (cli, "read_dag_file", "dag.read_dag_file", None),
        (cli, "write_dag_file", "dag.write_dag_file", None),
        (datagen, "contaminated_sample", "datagen.contaminated_sample", None),
        (gbn, "random_gbn", "gbn.random_gbn", None),
        (gbn, "sample", "gbn.sample", _cells),
        (gbn, "covariance", "gbn.covariance", None),
        (gbn, "kl_divergence", "gbn.kl_divergence", None),
        (gbn, "dcp", "gbn.dcp", None),
        (gbn, "gaussian_kl", "gbn.gaussian_kl", None),
        (gbn, "save_samples", "gbn.save_samples", _saved_mb),
        (gbn, "load_samples", "gbn.load_samples", _loaded_mb),
        (gbn, "save_model", "gbn.save_model", None),
        (gbn, "load_model", "gbn.load_model", None),
    ]
    for name in (
        "fit",
        "fit_detailed",
        "empirical_mle",
        "least_squares_node",
        "batch_least_squares",
        "batch_solve",
        "cauchy_est_tree_node",
        "cauchy_est_node",
        "variance_recovery",
        "mad_variance",
    ):
        table.append((est, name, "estimators." + name, None))
    return table


class _Stat:
    __slots__ = ("calls", "failed", "s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.s = 0.0
        self.self_s = 0.0
        self.work = 0.0


class Tracer:
    """Collects spans and per-op aggregates for the traced ops of one run."""

    def __init__(self, gbnlearn):
        self._table = patch_table(gbnlearn)
        self._stack = []  # frames: [name, span_id, child_seconds]
        self._next_id = 0
        self._op_id = None
        self._stats = {}
        self._pairs = {}
        self._root_child_s = 0.0
        self.spans = []
        self.op_stats = []  # one dict per traced op, see end_op

    def _wrap(self, name, work, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [span_name, self._next_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                stat = self._stats.get(span_name)
                if stat is None:
                    stat = self._stats[span_name] = _Stat()
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame[2]
                if not ok:
                    stat.failed += 1
                elif work is not None:
                    stat.work += work(args, kwargs, result)
                if parent is None:
                    self._root_child_s += frame[2]
                else:
                    parent[2] += dt
                    key = (parent[0], span_name)
                    self._pairs[key] = self._pairs.get(key, 0) + 1
                if stat.calls <= SPAN_LIMIT:
                    self.spans.append(
                        (self._op_id, frame[1], parent[1] if parent else None, span_name, t0, t1, ok)
                    )

        return wrapper

    @contextmanager
    def op(self, op_id):
        """Patch every traced name for the duration of one op, then restore it."""
        self._op_id = op_id
        self._stats = {}
        self._pairs = {}
        self._root_child_s = 0.0
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in self._table]
        try:
            for (mod, attr, name, work), (_, _, fn) in zip(self._table, originals):
                setattr(mod, attr, self._wrap(name, work, fn))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)
            self._op_id = None
        for mod, attr, fn in originals:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")

    def end_op(self, wall_s):
        """Close the aggregates of the op that just ran, given its wall time."""
        stats = self._stats
        out = {"wall_s": wall_s, "coverage_frac": self._root_child_s / wall_s}
        for name, st in stats.items():
            out[name + ".calls"] = st.calls
            out[name + ".failed"] = st.failed
            out[name + ".s"] = st.s
            out[name + ".self_s"] = st.self_s
            out[name + ".work"] = st.work
        out["estimators.batch_least_squares.inner_calls"] = self._pairs.get(
            ("estimators.batch_least_squares", "estimators.least_squares_node"), 0
        )
        self.op_stats.append(out)

    def layer_metrics(self, overhead_frac):
        """Per-op medians of every metric in LAYER_METRICS."""

        def per_op(op, metric):
            if metric == "trace.coverage_frac":
                return op["coverage_frac"]
            if metric == "trace.overhead_frac":
                return overhead_frac
            span, _, field = metric.rpartition(".")
            if field in ("cells_per_s", "mb_per_s"):
                busy = op.get(span + ".s", 0.0)
                return op.get(span + ".work", 0.0) / busy if busy > 0 else 0.0
            return op.get(metric, 0)

        return {
            name: {"value": statistics.median(per_op(op, name) for op in self.op_stats), "unit": unit}
            for name, unit, _, _ in LAYER_METRICS
        }

    def span_records(self):
        keys = ("op", "id", "parent", "name", "start", "end", "ok")
        return [dict(zip(keys, s)) for s in self.spans]
