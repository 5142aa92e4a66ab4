"""End-to-end acceptance checks.

Each test exercises one headline property of the library at full scale and
prints a single ``[criterion NN] PASS/FAIL`` line (run with ``pytest -s``
to see them all).  Tolerances and runtime budgets are pinned here; the
statistical checks run on fixed seeds so the suite is deterministic.
"""

import json
import time

import numpy as np
import scipy.stats

from gbnlearn.bench import (
    ExperimentConfig,
    GraphSpec,
    MethodSpec,
    run_experiment,
    summarize,
)
from gbnlearn.cli import cli
from gbnlearn.dag import build_dag, random_er_dag, random_tree_dag
from gbnlearn.datagen import ContaminationSpec
from gbnlearn.estimators import (
    FitConfig,
    batch_least_squares,
    batch_solve,
    cauchy_est_node,
    cauchy_est_tree_node,
    least_squares_node,
    variance_recovery,
)
from gbnlearn.gbn import (
    GaussianBayesNet,
    IllConditionedVariances,
    UniformVariances,
    covariance,
    gaussian_kl,
    kl_divergence,
    parent_covariances,
    random_gbn,
    sample,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_01_kl_decomposition_matches_closed_form():
    """Per-node KL decomposition agrees with the joint-Gaussian formula.

    500 random (truth, estimate) pairs sharing random DAGs (n <= 10,
    expected degree <= 4) with independently drawn parameters.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 11))
        if trial % 2:
            dag = random_tree_dag(n, rng)
        else:
            dag = random_er_dag(n, min(float(rng.uniform(0.5, 4.0)), n - 1.0), rng)
        truth = random_gbn(dag, (1.0, 2.0), UniformVariances(0.5, 2.0), rng)
        estimate = random_gbn(dag, (0.5, 1.5), UniformVariances(0.5, 2.0), rng)
        report = kl_divergence(truth, estimate)
        direct = gaussian_kl(covariance(truth), covariance(estimate))
        worst = max(worst, abs(report.kl_total - direct) / max(abs(direct), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(1, "kl decomposition matches closed form",
             ok, f"worst rel err {worst:.3e} <= 1e-08, {elapsed:.1f}s < 10s")


def test_02_noiseless_recovery_is_exact():
    """Near-zero noise makes every estimator recover coefficients exactly.

    Roots keep unit variance so the data has scale; every other node gets
    variance 1e-30, making it an almost deterministic function of its
    parents.  Nodes whose true parent covariance is numerically singular
    (collinear parents, unavoidable in dense noiseless graphs) are outside
    every method's working domain and are skipped.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    checked = 0
    for g in range(50):
        dag = random_tree_dag(30, rng) if g % 2 else random_er_dag(30, 3.0, rng)
        internal = tuple(i for i in range(dag.n) if dag.parents[i])
        truth = random_gbn(dag, (1.0, 2.0), IllConditionedVariances(internal, 1e-30), rng)
        data = sample(truth, 800, rng)
        m1 = 400  # estimators below see the coefficient half of a 0.5 split
        blocks = parent_covariances(dag, covariance(truth))
        for i in internal:
            if np.linalg.cond(blocks[i]) >= 1e8:
                continue
            p = len(dag.parents[i])
            x = data[:m1, dag.parents[i]]
            y = data[:m1, i]
            estimates = (
                least_squares_node(x, y),
                batch_least_squares(x, y, p + 5, "mean"),
                batch_least_squares(x, y, p + 20, "median"),
                cauchy_est_tree_node(x, y),
                cauchy_est_node(x, y),
            )
            worst = max(worst, max(float(np.max(np.abs(e - truth.coeffs[i]))) for e in estimates))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and checked >= 1000 and elapsed < 30.0
    _verdict(2, "noiseless recovery is exact",
             ok, f"worst coeff err {worst:.3e} <= 1e-06 over {checked} nodes, {elapsed:.1f}s < 30s")


def test_03_single_row_batch_errors_are_cauchy():
    """Square-batch solution errors for a one-parent node follow a Cauchy law.

    With unit parent variance and unit noise the error of each single-row
    solve is noise/parent, a standard Cauchy draw; the KS statistic over
    1e4 batches must clear the 1% critical value.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    a = 1.3
    parent = rng.normal(0.0, 1.0, 10_000)
    noise = rng.normal(0.0, 1.0, 10_000)
    errs = np.array(
        [batch_solve(np.array([[xi]]), np.array([a * xi + ei]))[0] - a
         for xi, ei in zip(parent, noise)]
    )
    stat = float(scipy.stats.kstest(errs, "cauchy").statistic)
    elapsed = time.perf_counter() - t0
    ok = stat <= 0.0163 and elapsed < 5.0
    _verdict(3, "single-row batch errors are cauchy",
             ok, f"KS stat {stat:.4f} <= 0.0163, {elapsed:.1f}s < 5s")


def test_04_median_of_cauchy_concentrates():
    """The median of 1000 standard Cauchy draws rarely strays past 0.2.

    Exceedance over 1e4 trials must stay within the concentration bound
    2*exp(-1000*0.2^2/8) + 0.005 = 0.0185 used to size the batch estimators.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    meds = np.median(rng.standard_cauchy((10_000, 1000)), axis=1)
    exceed = float(np.mean(np.abs(meds) > 0.2))
    elapsed = time.perf_counter() - t0
    ok = exceed <= 0.0185 and elapsed < 5.0
    _verdict(4, "median of cauchy concentrates",
             ok, f"exceedance {exceed:.4f} <= 0.0185, {elapsed:.1f}s < 5s")


def test_05_variance_estimate_brackets_truth():
    """Residual variances from true coefficients land in [0.9, 1.1].

    With 3200 variance rows the estimate is a scaled chi-square with
    relative sd ~0.025, so at least 95% of 500 trials must bracket.
    """
    t0 = time.perf_counter()
    dag = build_dag(2, [(0, 1)])
    truth = GaussianBayesNet(dag, (np.array([]), np.array([1.5])), np.array([1.0, 1.0]))
    rng = np.random.default_rng(55)
    hits = 0
    for _ in range(500):
        data = sample(truth, 3200, rng)
        est = variance_recovery(dag, data, truth.coeffs)
        hits += bool(np.all((est >= 0.9) & (est <= 1.1)))
    freq = hits / 500.0
    elapsed = time.perf_counter() - t0
    ok = freq >= 0.95 and elapsed < 5.0
    _verdict(5, "variance estimate brackets truth",
             ok, f"bracket frequency {freq:.3f} >= 0.95, {elapsed:.1f}s < 5s")


def test_06_least_squares_kl_shrinks_with_sample_size():
    """Median KL of least squares is non-increasing in m and roughly ~1/m.

    Dense random graphs (n=100, expected degree 5), 20 repetitions per
    sample size; the 1000-vs-4000 ratio must be at least 2 (about 4 is
    expected under exact 1/m scaling).
    """
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        graph=GraphSpec("er", 100, degree=5),
        methods=(MethodSpec("ls", FitConfig(method="least_squares")),),
        sample_sizes=(1000, 2000, 3000, 4000, 5000),
        repetitions=20,
        base_seed=60,
    )
    med = {s.m: s.median_kl for s in summarize(run_experiment(cfg))}
    curve = [med[m] for m in cfg.sample_sizes]
    nonincreasing = all(a >= b for a, b in zip(curve, curve[1:]))
    ratio = med[1000] / med[4000]
    elapsed = time.perf_counter() - t0
    ok = nonincreasing and ratio >= 2.0 and elapsed < 180.0
    _verdict(6, "least-squares kl shrinks with sample size",
             ok, f"monotone={nonincreasing}, kl(1000)/kl(4000)={ratio:.2f} >= 2, {elapsed:.1f}s < 180s")


def test_07_robust_methods_survive_contamination():
    """Median-based estimators shrug off gross corruption that ruins OLS.

    Tree with 100 nodes, a contiguous 5% block of rows gets the noise of 5
    nodes replaced by N(1000, 1) draws (descendants see the corruption
    through the usual forward propagation), m=3000, 20 repetitions.  The
    robust methods pair with MAD variance recovery; the least-squares
    baseline keeps its standard empirical variance.  Each robust median KL
    must come in at or below a tenth of the least-squares median.
    """
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        graph=GraphSpec("tree", 100),
        methods=(
            MethodSpec("ls", FitConfig(method="least_squares")),
            MethodSpec("cet", FitConfig(method="cauchy_est_tree", variance_method="mad")),
            MethodSpec("bm", FitConfig(method="batch_med", batch_extra=20, variance_method="mad")),
        ),
        sample_sizes=(3000,),
        repetitions=20,
        base_seed=70,
        scenario=ContaminationSpec(),
    )
    s = {x.method: x.median_kl for x in summarize(run_experiment(cfg))}
    elapsed = time.perf_counter() - t0
    ok = s["cet"] <= 0.1 * s["ls"] and s["bm"] <= 0.1 * s["ls"] and elapsed < 180.0
    _verdict(7, "robust methods survive contamination",
             ok, f"cet/ls={s['cet'] / s['ls']:.4f}, bm/ls={s['bm'] / s['ls']:.4f}, both <= 0.1, "
                 f"{elapsed:.1f}s < 180s")


def test_08_single_batch_reduces_to_least_squares():
    """With exactly one batch, both batch aggregators ARE least squares.

    100 random instances sized so floor(m/k) == 1; outputs must be
    bit-identical to plain least squares on the first k rows.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        p = int(rng.integers(1, 7))
        k = p + int(rng.integers(1, 6))
        rows = k + int(rng.integers(0, k))
        x = rng.normal(size=(rows, p))
        y = x @ rng.normal(size=p) + rng.normal(size=rows)
        ls = least_squares_node(x[:k], y[:k])
        ok = ok and np.array_equal(ls, batch_least_squares(x, y, k, "mean"))
        ok = ok and np.array_equal(ls, batch_least_squares(x, y, k, "median"))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(8, "single batch reduces to least squares",
             ok, f"bit-identical across 100 instances, {elapsed:.1f}s < 5s")


def test_09_batch_size_interpolates_between_extremes():
    """Batch size slides batch-averaging between the two extreme methods.

    On dense graphs (n=100, degree 5, m=3000, 20 reps): with 100 extra rows
    per batch the median KL stays within 1.5x of least squares, and the
    5-extra variant sits closer to the square-batch median method than the
    100-extra variant does.
    """
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        graph=GraphSpec("er", 100, degree=5),
        methods=(
            MethodSpec("ls", FitConfig(method="least_squares")),
            MethodSpec("ba5", FitConfig(method="batch_avg", batch_extra=5)),
            MethodSpec("ba100", FitConfig(method="batch_avg", batch_extra=100)),
            MethodSpec("cet", FitConfig(method="cauchy_est_tree")),
        ),
        sample_sizes=(3000,),
        repetitions=20,
        base_seed=90,
    )
    s = {x.method: x.median_kl for x in summarize(run_experiment(cfg))}
    gap5 = abs(s["ba5"] - s["cet"])
    gap100 = abs(s["ba100"] - s["cet"])
    elapsed = time.perf_counter() - t0
    ok = s["ba100"] <= 1.5 * s["ls"] and gap5 < gap100 and elapsed < 180.0
    _verdict(9, "batch size interpolates between extremes",
             ok, f"ba100/ls={s['ba100'] / s['ls']:.3f} <= 1.5, "
                 f"|ba5-cet|={gap5:.3f} < |ba100-cet|={gap100:.3f}, {elapsed:.1f}s < 180s")


def test_10_bench_output_is_deterministic(tmp_path):
    """Two bench runs with the same config produce byte-identical results."""
    t0 = time.perf_counter()
    config = {
        "graph": {"kind": "er", "n": 12, "degree": 2.0},
        "methods": [{"method": "least_squares"}, {"method": "batch_avg", "batch_extra": 5}],
        "sample_sizes": [80, 160],
        "repetitions": 2,
        "base_seed": 9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert cli(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        outputs.append((out_dir / "results.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(10, "bench output is deterministic",
             ok, f"{len(outputs[0])} bytes byte-identical across runs, {elapsed:.1f}s")
