"""Config-driven benchmark harness.

A run sweeps one graph family x scenario across a list of estimators and
sample sizes with seeded repetitions. Per repetition, the graph, the
true model, and one dataset at the largest sample size are generated
once; smaller sample sizes reuse that dataset's prefix rows, so curves
across m share randomness within a repetition. Output is plain CSV: one
raw row per (method, m, repetition) in ``results.csv`` and a per-(method,
m) summary in ``summary.csv``, whose ``median_kl`` column is each method's
KL curve.

A scenario type's ``KIND`` is its JSON ``scenario.kind``, and its fields are
the JSON keys; the contaminated scenario is :class:`gbnlearn.datagen.ContaminationSpec`.

Reproducibility contract: with ``record_timing`` off (the default) the
pair (config, base_seed) determines every output byte. Per-repetition
randomness derives from ``SeedSequence([base_seed, rep])``; the derived
seed is recorded in each row and, together with the config, reproduces
the row exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import datagen, estimators, gbn
from .dag import Dag, random_er_dag, random_tree_dag, remove_random_edges
from .errors import ConfigInvalid, InvalidParameter, NumericalError


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
    remove_edges: int


@dataclass(frozen=True)
class MethodSpec:
    """A labeled estimator configuration.

    Labels must be unique in a run and hold no comma, double quote, CR or
    LF, since each is written unquoted as a CSV cell.
    """

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
    if g.kind == "tree" and (g.n < 2 or g.degree is not None):
        raise ConfigInvalid(f"tree graph needs n >= 2 and takes no degree, got {g}")
    if not config.methods:
        raise ConfigInvalid("at least one method is required")
    labels = [ms.label for ms in config.methods]
    if len(set(labels)) != len(labels):
        raise ConfigInvalid(f"method labels must be unique, got {labels}")
    if any(c in label for label in labels for c in ',"\r\n'):
        raise ConfigInvalid(f"method labels must not contain a comma, a double quote, CR or LF, got {labels}")
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
        if not 0 <= (sc.node_count or 0) <= g.n or not all(0 <= v < g.n for v in sc.nodes or ()):
            raise ConfigInvalid(f"ill_conditioned node_count / nodes out of range for n = {g.n}: {sc}")
        if not sc.sigma2 > 0:
            raise ConfigInvalid(f"ill_conditioned sigma2 must be > 0, got {sc.sigma2}")
        if not isinstance(config.variances, gbn.UnitVariances):
            raise ConfigInvalid("ill_conditioned scenario requires unit variances")
    if isinstance(sc, AgnosticScenario):
        # A tree has n - 1 edges; an ER draw has at most n (n - 1) / 2.
        max_edges = g.n - 1 if g.kind == "tree" else g.n * (g.n - 1) // 2
        if not 0 <= sc.remove_edges <= max_edges:
            raise ConfigInvalid(f"remove_edges must lie in [0, {max_edges}] for {g}, got {sc.remove_edges}")
    try:
        gbn.weight_bounds(config.weight_range)
        if isinstance(sc, datagen.ContaminationSpec):
            sc.validate(g.n)
    except InvalidParameter as exc:
        raise ConfigInvalid(str(exc)) from exc


def _rep_seeds(base_seed: int, rep: int) -> tuple[int, int]:
    state = np.random.SeedSequence([base_seed, rep]).generate_state(1)
    seed = int(state[0])
    return seed, (seed + 1) % 2**63


def generate_rep_data(config: ExperimentConfig, rep: int) -> RepData:
    """Graph, true model, and largest-m dataset for one repetition.

    This is the reproduction path: every raw result row can be recomputed
    from (config, rep) through this function plus a prefix slice. The
    contamination comes from a second generator, so the clean stream is
    the same as in a clean run.
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
    if isinstance(scenario, datagen.ContaminationSpec):
        data = datagen.contaminated_sample(truth, max_m, scenario, rng, np.random.default_rng(contam_seed))
    else:
        data = gbn.sample(truth, max_m, rng)
    return RepData(truth=truth, fit_dag=fit_dag, data=data, seed=seed, rep=rep)


def _run_cell(config: ExperimentConfig, rd: RepData, mspec: MethodSpec, m: int, truth_cov, parent_covs) -> ResultRow:
    """The :class:`ResultRow` of one method fit on the first ``m`` rows of ``rd``.

    ``truth_cov`` (the truth's joint covariance, or None when no method is
    ``empirical_mle``) and ``parent_covs`` (its parent blocks) are computed
    once per repetition. ``fit_wall_ms`` times the fit alone, not the
    scoring, and is 0 unless ``record_timing`` is on. A NumericalError
    from the fit or the scoring, or a floored variance, leaves
    ``kl_total`` None, and that is what marks the row degenerate.
    """
    data_m = rd.data[:m]
    mle = mspec.config.method == "empirical_mle"
    t0 = time.perf_counter()
    try:
        if mle:
            estimate = estimators.empirical_mle(data_m)
        else:
            estimate = estimators.fit_detailed(rd.fit_dag, data_m, mspec.config)
    except NumericalError:
        estimate = None
    fit_wall_ms = (time.perf_counter() - t0) * 1000.0 if config.record_timing else 0.0
    kl_total = None
    try:
        if mle and estimate is not None:
            kl_total = gbn.gaussian_kl(truth_cov, estimate)
        elif estimate is not None and not estimate.degenerate_nodes:
            kl_total = gbn.kl_divergence(rd.truth, estimate.model, parent_covs=parent_covs).kl_total
    except NumericalError:
        pass
    g = config.graph
    return ResultRow(
        method=mspec.label,
        graph=g.kind,
        n=g.n,
        d=float(g.degree) if g.kind == "er" else 1.0,
        scenario=config.scenario.KIND,
        m=m,
        rep=rd.rep,
        seed=rd.seed,
        kl_total=kl_total,
        tv_upper=None if kl_total is None else gbn.tv_upper(kl_total),
        fit_wall_ms=fit_wall_ms,
        degenerate=kl_total is None,
    )


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Full sweep; rows come back sorted by (method, m, rep)."""
    validate_config(config)
    keep_joint = any(ms.config.method == "empirical_mle" for ms in config.methods)
    rows: list[ResultRow] = []
    for rep in range(config.repetitions):
        rd = generate_rep_data(config, rep)
        truth_cov = gbn.covariance(rd.truth)
        parent_covs = gbn.parent_covariances(rd.truth.dag, truth_cov)
        if not keep_joint:
            truth_cov = None  # only the blocks stay alive through the cells
        rows.extend(
            _run_cell(config, rd, mspec, m, truth_cov, parent_covs)
            for mspec in config.methods
            for m in config.sample_sizes
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
        raise InvalidParameter("no rows to summarize")
    cells: dict[tuple[str, int], list[ResultRow]] = {}
    for r in rows:
        cells.setdefault((r.method, r.m), []).append(r)
    out = []
    for (method, m), cell in sorted(cells.items()):
        kls = [r.kl_total for r in cell if not r.degenerate]
        mean = median = iqr = None
        if kls:
            arr = np.asarray(kls)
            q25, q75 = np.percentile(arr, [25.0, 75.0])
            mean, median, iqr = float(arr.mean()), float(np.median(arr)), float(q75 - q25)
        degenerate = len(cell) - len(kls)
        out.append(SummaryRow(method, m, mean_kl=mean, median_kl=median, iqr_kl=iqr, degenerate_count=degenerate))
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return gbn.FLOAT_FMT % value
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


# --------------------------------------------------------------------------
# JSON config parsing


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _tuple_of(item, length=None):
    """Converter for a JSON list (of ``length`` entries, if given) whose entries pass ``item``."""

    def convert(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            shape = "a list" if length is None else f"a list of {length} entries"
            raise ValueError(f"expected {shape}, got {value!r}")
        return tuple(item(v) for v in value)

    return convert


def _fields(obj, context: str, required, converters) -> dict:
    """The keys present in JSON object ``obj``, each through its converter.

    A non-object, an unknown key, a missing required key, or a value its
    converter refuses (ValueError, OverflowError, InvalidParameter) raises
    ConfigInvalid. Absent keys stay absent, so the dataclass defaults are
    the only defaults.
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{context} must be an object, got {obj!r}")
    unknown = set(obj) - set(converters)
    if unknown:
        raise ConfigInvalid(f"{context}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigInvalid(f"{context}: missing required keys {missing}")
    out = {}
    for key, value in obj.items():
        try:
            out[key] = converters[key](value)
        except (ValueError, OverflowError, InvalidParameter) as exc:
            raise ConfigInvalid(f"{context}.{key}: {exc}") from exc
    return out


def _by_kind(context: str, kinds: dict):
    """Converter for an object whose ``kind`` picks ``(build, required, converters)`` from ``kinds``."""

    def convert(obj):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigInvalid(f"{context}: expected an object with kind in {sorted(kinds)}, got {obj!r}")
        build, required, converters = kinds[kind]
        fields = _fields(obj, context, required, {"kind": _str, **converters})
        del fields["kind"]
        return build(**fields)

    return convert


def _law(obj) -> datagen.NoiseLaw:
    return datagen.NoiseLaw(**_fields(obj, "scenario.law", (), {"kind": _str, "location": _number, "scale": _number}))


_SCENARIO_KINDS = {
    CleanScenario.KIND: (CleanScenario, (), {}),
    datagen.ContaminationSpec.KIND: (
        datagen.ContaminationSpec,
        (),
        {"sample_fraction": _number, "node_count": _int, "law": _law},
    ),
    IllConditionedScenario.KIND: (
        IllConditionedScenario,
        (),
        {"sigma2": _number, "node_count": _int, "nodes": _tuple_of(_int)},
    ),
    AgnosticScenario.KIND: (AgnosticScenario, ("remove_edges",), {"remove_edges": _int}),
}

_VARIANCE_KINDS = {
    "unit": (gbn.UnitVariances, (), {}),
    "uniform": (gbn.UniformVariances, ("low", "high"), {"low": _number, "high": _number}),
}


def _graph(obj) -> GraphSpec:
    return GraphSpec(**_fields(obj, "graph", ("kind", "n"), {"kind": _str, "n": _int, "degree": _number}))


def _default_label(cfg: estimators.FitConfig) -> str:
    label = cfg.method
    if cfg.method in estimators.BATCH_METHODS:
        label += f"_x{cfg.batch_extra}"
    if cfg.method != "empirical_mle" and cfg.variance_method != "empirical":
        label += f"_{cfg.variance_method}"
    return label


def _method(obj) -> MethodSpec:
    keys = {"method": _str, "batch_extra": _int, "split_fraction": _number, "variance_method": _str, "label": _str}
    fields = _fields(obj, "methods[]", ("method",), keys)
    label = fields.pop("label", None)
    cfg = estimators.FitConfig(**fields)
    return MethodSpec(label=_default_label(cfg) if label is None else label, config=cfg)


_CONFIG_KEYS = {
    "graph": _graph,
    "weight_range": _tuple_of(_number, length=2),
    "variances": _by_kind("variances", _VARIANCE_KINDS),
    "scenario": _by_kind("scenario", _SCENARIO_KINDS),
    "methods": _tuple_of(_method),
    "sample_sizes": _tuple_of(_int),
    "repetitions": _int,
    "base_seed": _int,
    "record_timing": _bool,
}


def parse_config(obj: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from parsed JSON."""
    required = ("graph", "methods", "sample_sizes", "repetitions", "base_seed")
    config = ExperimentConfig(**_fields(obj, "config", required, _CONFIG_KEYS))
    validate_config(config)
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigInvalid(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(obj)
