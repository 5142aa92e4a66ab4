"""Config-driven benchmark harness.

A run sweeps one graph family x scenario across a list of estimators and
sample sizes with seeded repetitions. Per repetition, the graph, the
true model, and one dataset at the largest sample size are generated
once; smaller sample sizes reuse that dataset's prefix rows, so curves
across m share randomness within a repetition. Output is plain CSV: one
raw row per (method, m, repetition), a per-(method, m) summary, and one
curve file per method for external plotting.

Reproducibility contract: with ``record_timing`` off (the default) the
pair (config, base_seed) determines every output byte. Per-repetition
randomness derives from ``SeedSequence([base_seed, rep])``; the derived
seed is recorded in each row and, together with the config, reproduces
the row exactly.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import datagen, estimators, gbn
from .dag import Dag, random_er_dag, random_tree_dag, remove_random_edges
from .errors import (
    CholeskyFailed,
    ConfigInvalid,
    EmptyInput,
    NotPositiveDefinite,
    RankDeficient,
)

_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class GraphSpec:
    """Graph family: ``tree`` (n) or ``er`` (n, expected degree)."""

    kind: str
    n: int
    degree: float | None = None


@dataclass(frozen=True)
class CleanScenario:
    KIND: ClassVar[str] = "clean"


@dataclass(frozen=True)
class ContaminatedScenario:
    KIND: ClassVar[str] = "contaminated"
    spec: datagen.ContaminationSpec = datagen.ContaminationSpec()


@dataclass(frozen=True)
class IllConditionedScenario:
    """Some nodes get a near-degenerate noise variance.

    Either list the nodes explicitly or give ``node_count`` to draw them
    uniformly per repetition.
    """

    KIND: ClassVar[str] = "ill_conditioned"
    sigma2: float = 1e-20
    node_count: int | None = None
    nodes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class AgnosticScenario:
    """Fit against the truth DAG with ``remove_edges`` random edges deleted.

    The fit DAG is a sub-DAG of the truth's, so fits are scored node by
    node with :func:`gbnlearn.gbn.kl_divergence` like every other scenario.
    """

    KIND: ClassVar[str] = "agnostic"
    remove_edges: int = 1


@dataclass(frozen=True)
class MethodSpec:
    """A labeled estimator configuration; labels must be unique in a run."""

    label: str
    config: estimators.FitConfig


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSpec
    methods: tuple[MethodSpec, ...]
    sample_sizes: tuple[int, ...]
    repetitions: int
    base_seed: int
    weight_range: tuple[float, float] = (1.0, 2.0)
    variances: object = gbn.UnitVariances()
    scenario: object = CleanScenario()
    record_timing: bool = False


@dataclass(frozen=True)
class ResultRow:
    method: str
    graph: str
    n: int
    d: float
    scenario: str
    m: int
    rep: int
    seed: int
    kl_total: float | None
    tv_upper: float | None
    fit_wall_ms: float
    degenerate: bool


@dataclass(frozen=True)
class SummaryRow:
    method: str
    m: int
    mean_kl: float | None
    median_kl: float | None
    iqr_kl: float | None
    degenerate_count: int


@dataclass(frozen=True)
class RepData:
    """Everything one repetition derives from its seed."""

    truth: gbn.GaussianBayesNet
    fit_dag: Dag
    data: np.ndarray
    seed: int
    rep: int


def validate_config(config: ExperimentConfig) -> None:
    g = config.graph
    if g.kind not in ("tree", "er"):
        raise ConfigInvalid(f"unknown graph kind {g.kind!r}")
    if g.kind == "er" and (g.degree is None or not (0 < g.degree <= g.n)):
        raise ConfigInvalid(f"er graph needs 0 < degree <= n, got {g.degree!r}")
    if g.kind == "tree" and g.n < 2:
        raise ConfigInvalid("tree graph needs n >= 2")
    if not config.methods:
        raise ConfigInvalid("at least one method is required")
    labels = [ms.label for ms in config.methods]
    if len(set(labels)) != len(labels):
        raise ConfigInvalid(f"method labels must be unique, got {labels}")
    sizes = config.sample_sizes
    if not sizes or any(s < 2 for s in sizes):
        raise ConfigInvalid("sample_sizes must be nonempty with every size >= 2")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigInvalid(f"sample_sizes must be strictly increasing, got {list(sizes)}")
    if config.repetitions < 1:
        raise ConfigInvalid("repetitions must be >= 1")
    if config.base_seed < 0:
        raise ConfigInvalid("base_seed must be >= 0")
    if isinstance(config.variances, gbn.IllConditionedVariances):
        raise ConfigInvalid("ill-conditioned variances are asked for with the ill_conditioned scenario")
    sc = config.scenario
    if isinstance(sc, IllConditionedScenario):
        if (sc.node_count is None) == (sc.nodes is None):
            raise ConfigInvalid("ill_conditioned scenario needs exactly one of node_count / nodes")
        if not isinstance(config.variances, gbn.UnitVariances):
            raise ConfigInvalid("ill_conditioned scenario requires unit variances")
    if isinstance(sc, AgnosticScenario) and sc.remove_edges < 0:
        raise ConfigInvalid("remove_edges must be >= 0")


def _rep_seeds(base_seed: int, rep: int) -> tuple[int, int]:
    state = np.random.SeedSequence([base_seed, rep]).generate_state(1)
    seed = int(state[0])
    return seed, (seed + 1) % 2**63


def generate_rep_data(config: ExperimentConfig, rep: int) -> RepData:
    """Graph, true model, and largest-m dataset for one repetition.

    This is the reproduction path: every raw result row can be recomputed
    from (config, rep) through this function plus a prefix slice.
    """
    seed, contam_seed = _rep_seeds(config.base_seed, rep)
    rng = np.random.default_rng(seed)
    g = config.graph
    if g.kind == "tree":
        dag = random_tree_dag(g.n, rng)
    else:
        dag = random_er_dag(g.n, g.degree, rng)
    variance_spec = config.variances
    scenario = config.scenario
    if isinstance(scenario, IllConditionedScenario):
        if scenario.nodes is not None:
            chosen = tuple(scenario.nodes)
        else:
            chosen = tuple(
                int(v) for v in np.sort(rng.choice(dag.n, size=scenario.node_count, replace=False))
            )
        variance_spec = gbn.IllConditionedVariances(nodes=chosen, sigma2=scenario.sigma2)
    truth = gbn.random_gbn(dag, config.weight_range, variance_spec, rng)
    fit_dag = dag
    if isinstance(scenario, AgnosticScenario):
        fit_dag = remove_random_edges(dag, scenario.remove_edges, rng)
    max_m = max(config.sample_sizes)
    if isinstance(scenario, ContaminatedScenario):
        spec = dataclasses.replace(scenario.spec, seed=contam_seed)
        data = gbn.sample(truth, max_m, rng, contamination=spec)
    else:
        data = gbn.sample(truth, max_m, rng)
    return RepData(truth=truth, fit_dag=fit_dag, data=data, seed=seed, rep=rep)


def _evaluate_fit(rd: RepData, mspec: MethodSpec, m: int, truth_cov, parent_covs):
    """(kl_total or None, degenerate) for one method at one sample size.

    ``truth_cov`` (the truth's joint covariance, or None when no method is
    ``empirical_mle``) and ``parent_covs`` (its parent blocks) are computed
    once per repetition.
    """
    data_m = rd.data[:m]
    try:
        if mspec.config.method == "empirical_mle":
            cov_hat = estimators.empirical_mle(data_m)
            return gbn.gaussian_kl(truth_cov, cov_hat), False
        outcome = estimators.fit_detailed(rd.fit_dag, data_m, mspec.config)
        if outcome.degenerate_nodes:
            return None, True
        return gbn.kl_divergence(rd.truth, outcome.model, parent_covs=parent_covs).kl_total, False
    except (CholeskyFailed, RankDeficient, NotPositiveDefinite):
        return None, True


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Full sweep; rows come back sorted by (method, m, rep)."""
    validate_config(config)
    graph_kind = config.graph.kind
    d_param = float(config.graph.degree) if graph_kind == "er" else 1.0
    scenario_name = config.scenario.KIND
    keep_joint = any(ms.config.method == "empirical_mle" for ms in config.methods)
    rows: list[ResultRow] = []
    for rep in range(config.repetitions):
        rd = generate_rep_data(config, rep)
        truth_cov = gbn.covariance(rd.truth)
        parent_covs = gbn.parent_covariances(rd.truth.dag, truth_cov)
        if not keep_joint:
            truth_cov = None  # only the blocks stay alive through the cells
        for mspec in config.methods:
            for m in config.sample_sizes:
                t0 = time.perf_counter()
                kl, degenerate = _evaluate_fit(rd, mspec, m, truth_cov, parent_covs)
                wall_ms = (time.perf_counter() - t0) * 1000.0 if config.record_timing else 0.0
                rows.append(
                    ResultRow(
                        method=mspec.label,
                        graph=graph_kind,
                        n=config.graph.n,
                        d=d_param,
                        scenario=scenario_name,
                        m=m,
                        rep=rep,
                        seed=rd.seed,
                        kl_total=kl,
                        tv_upper=None if kl is None else gbn.tv_upper(kl),
                        fit_wall_ms=wall_ms,
                        degenerate=degenerate,
                    )
                )
    rows.sort(key=lambda r: (r.method, r.m, r.rep))
    return rows


# --------------------------------------------------------------------------
# aggregation and CSV output


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Per-(method, m) mean/median/interquartile range over non-degenerate rows.

    The interquartile range uses linearly interpolated quartiles. Cells
    where every repetition degenerated report None statistics with the
    full degenerate count.
    """
    if not rows:
        raise EmptyInput("no rows to summarize")
    cells: dict[tuple[str, int], tuple[list[float], int]] = {}
    for r in rows:
        values, degen = cells.setdefault((r.method, r.m), ([], 0))
        if r.degenerate:
            cells[(r.method, r.m)] = (values, degen + 1)
        else:
            values.append(r.kl_total)
    out = []
    for method, m in sorted(cells):
        values, degen = cells[(method, m)]
        if values:
            arr = np.asarray(values)
            q25, q75 = np.percentile(arr, [25.0, 75.0])
            out.append(
                SummaryRow(
                    method=method,
                    m=m,
                    mean_kl=float(arr.mean()),
                    median_kl=float(np.median(arr)),
                    iqr_kl=float(q75 - q25),
                    degenerate_count=degen,
                )
            )
        else:
            out.append(
                SummaryRow(method=method, m=m, mean_kl=None, median_kl=None, iqr_kl=None, degenerate_count=degen)
            )
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _render_csv(row_type, rows) -> str:
    # One column per dataclass field, in declaration order.
    names = [f.name for f in dataclasses.fields(row_type)]
    lines = [",".join(names)]
    lines.extend(",".join(_cell(getattr(r, name)) for name in names) for r in rows)
    return "\n".join(lines) + "\n"


def render_results(rows: list[ResultRow]) -> str:
    """``results.csv`` text: a header of the :class:`ResultRow` fields, one line per row."""
    return _render_csv(ResultRow, rows)


def render_summary(summary: list[SummaryRow]) -> str:
    """``summary.csv`` text: a header of the :class:`SummaryRow` fields, one line per row."""
    return _render_csv(SummaryRow, summary)


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def write_curve_files(summary: list[SummaryRow], outdir) -> list[Path]:
    """One ``curve_<method>.csv`` of (m, median_kl) per method, for plotting."""
    outdir = Path(outdir)
    by_method: dict[str, list[SummaryRow]] = {}
    for s in summary:
        by_method.setdefault(s.method, []).append(s)
    paths = []
    for method in sorted(by_method):
        lines = ["m,median_kl"]
        for s in sorted(by_method[method], key=lambda s: s.m):
            lines.append(f"{s.m},{_cell(s.median_kl)}")
        path = outdir / f"curve_{_slug(method)}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# JSON config parsing


def _check_keys(obj: dict, allowed, context: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"{context}: unknown keys {sorted(unknown)}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigInvalid(f"{context}: missing required key {key!r}")
    return obj[key]


def _parse_graph(obj) -> GraphSpec:
    if not isinstance(obj, dict):
        raise ConfigInvalid("graph must be an object")
    _check_keys(obj, ("kind", "n", "degree"), "graph")
    kind = _require(obj, "kind", "graph")
    n = _require(obj, "n", "graph")
    if not isinstance(n, int):
        raise ConfigInvalid("graph.n must be an integer")
    degree = obj.get("degree")
    if kind == "er" and degree is None:
        raise ConfigInvalid("er graph requires a degree")
    if kind == "tree" and degree is not None:
        raise ConfigInvalid("tree graph takes no degree")
    return GraphSpec(kind=kind, n=n, degree=float(degree) if degree is not None else None)


def _parse_variances(obj):
    if obj is None:
        return gbn.UnitVariances()
    if not isinstance(obj, dict):
        raise ConfigInvalid("variances must be an object")
    kind = _require(obj, "kind", "variances")
    if kind == "unit":
        _check_keys(obj, ("kind",), "variances")
        return gbn.UnitVariances()
    if kind == "uniform":
        _check_keys(obj, ("kind", "low", "high"), "variances")
        return gbn.UniformVariances(low=float(_require(obj, "low", "variances")), high=float(_require(obj, "high", "variances")))
    raise ConfigInvalid(f"variances: unknown kind {kind!r}")


def _parse_law(obj) -> datagen.NoiseLaw:
    if obj is None:
        return datagen.NoiseLaw()
    _check_keys(obj, ("kind", "location", "scale"), "scenario.law")
    return datagen.NoiseLaw(
        kind=obj.get("kind", "gaussian"),
        location=float(obj.get("location", 1000.0)),
        scale=float(obj.get("scale", 1.0)),
    )


def _parse_scenario(obj):
    if obj is None:
        return CleanScenario()
    if not isinstance(obj, dict):
        raise ConfigInvalid("scenario must be an object")
    kind = _require(obj, "kind", "scenario")
    if kind == "clean":
        _check_keys(obj, ("kind",), "scenario")
        return CleanScenario()
    if kind == "contaminated":
        _check_keys(obj, ("kind", "sample_fraction", "node_count", "law"), "scenario")
        spec = datagen.ContaminationSpec(
            sample_fraction=float(obj.get("sample_fraction", 0.05)),
            node_count=int(obj.get("node_count", 5)),
            noise_law=_parse_law(obj.get("law")),
        )
        return ContaminatedScenario(spec=spec)
    if kind == "ill_conditioned":
        _check_keys(obj, ("kind", "sigma2", "node_count", "nodes"), "scenario")
        nodes = obj.get("nodes")
        return IllConditionedScenario(
            sigma2=float(obj.get("sigma2", 1e-20)),
            node_count=obj.get("node_count"),
            nodes=tuple(int(v) for v in nodes) if nodes is not None else None,
        )
    if kind == "agnostic":
        _check_keys(obj, ("kind", "remove_edges"), "scenario")
        return AgnosticScenario(remove_edges=int(_require(obj, "remove_edges", "scenario")))
    raise ConfigInvalid(f"scenario: unknown kind {kind!r}")


def _default_label(cfg: estimators.FitConfig) -> str:
    label = cfg.method
    if cfg.method in ("batch_avg", "batch_med"):
        label += f"_x{cfg.batch_extra}"
    if cfg.method != "empirical_mle" and cfg.variance_method != "empirical":
        label += f"_{cfg.variance_method}"
    return label


def _parse_method(obj) -> MethodSpec:
    if not isinstance(obj, dict):
        raise ConfigInvalid("each methods[] entry must be an object")
    _check_keys(
        obj,
        ("method", "batch_extra", "split_fraction", "variance_method", "label"),
        "methods[]",
    )
    kwargs = {}
    if "batch_extra" in obj:
        kwargs["batch_extra"] = int(obj["batch_extra"])
    if "split_fraction" in obj:
        kwargs["split_fraction"] = float(obj["split_fraction"])
    if "variance_method" in obj:
        kwargs["variance_method"] = str(obj["variance_method"])
    cfg = estimators.FitConfig(method=str(_require(obj, "method", "methods[]")), **kwargs)
    return MethodSpec(label=str(obj.get("label", _default_label(cfg))), config=cfg)


def parse_config(obj: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from parsed JSON."""
    if not isinstance(obj, dict):
        raise ConfigInvalid("config must be a JSON object")
    _check_keys(
        obj,
        (
            "graph",
            "weight_range",
            "variances",
            "scenario",
            "methods",
            "sample_sizes",
            "repetitions",
            "base_seed",
            "record_timing",
        ),
        "config",
    )
    methods_obj = _require(obj, "methods", "config")
    if not isinstance(methods_obj, list):
        raise ConfigInvalid("methods must be a list")
    wr = obj.get("weight_range", [1.0, 2.0])
    if not (isinstance(wr, (list, tuple)) and len(wr) == 2):
        raise ConfigInvalid("weight_range must be a [lo, hi] pair")
    config = ExperimentConfig(
        graph=_parse_graph(_require(obj, "graph", "config")),
        weight_range=(float(wr[0]), float(wr[1])),
        variances=_parse_variances(obj.get("variances")),
        scenario=_parse_scenario(obj.get("scenario")),
        methods=tuple(_parse_method(mo) for mo in methods_obj),
        sample_sizes=tuple(int(s) for s in _require(obj, "sample_sizes", "config")),
        repetitions=int(_require(obj, "repetitions", "config")),
        base_seed=int(_require(obj, "base_seed", "config")),
        record_timing=bool(obj.get("record_timing", False)),
    )
    validate_config(config)
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(obj)
