"""Benchmark harness: config parsing, sweeps, aggregation, CSV output."""

import csv
import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from gbnlearn import datagen, estimators, gbn
from gbnlearn.bench import (
    AgnosticScenario,
    CleanScenario,
    ExperimentConfig,
    GraphSpec,
    MethodSpec,
    RepData,
    ResultRow,
    _method_rows,
    _rep_seeds,
    generate_rep_data,
    load_config,
    parse_config,
    render_results,
    render_summary,
    run_experiment,
    summarize,
    validate_config,
)
from gbnlearn.dag import build_dag, random_er_dag
from gbnlearn.errors import ConfigInvalid, InvalidParameter, NumericalError, RankDeficient
from gbnlearn.estimators import FitConfig


ROOT = Path(__file__).resolve().parent.parent

MINIMAL_JSON = {
    "graph": {"kind": "tree", "n": 5},
    "methods": [{"method": "least_squares"}],
    "sample_sizes": [100],
    "repetitions": 1,
    "base_seed": 0,
}


def _parse_minimal(**keys):
    return parse_config({**MINIMAL_JSON, **keys})


def _contaminated(**keys):
    return {"scenario": {"kind": "contaminated", **keys}}


# Malformed values, each applied to configs/clean_er.json (ER n = 100), and
# the ConfigInvalid message each gives.
MALFORMED = [
    pytest.param(_contaminated(law=5), "scenario.law must be an object, got 5", id="law_number"),
    pytest.param(_contaminated(law=["kind"]), "scenario.law must be an object, got ['kind']", id="law_list"),
    pytest.param(
        _contaminated(sample_fraction="x"),
        "scenario.sample_fraction: expected a finite number, got 'x'",
        id="sample_fraction_string",
    ),
    pytest.param({"sample_sizes": 5}, "config.sample_sizes: expected a list, got 5", id="sample_sizes_scalar"),
    pytest.param({"repetitions": "x"}, "config.repetitions: expected an integer, got 'x'", id="repetitions_string"),
    pytest.param({"repetitions": 2.7}, "config.repetitions: expected an integer, got 2.7", id="repetitions_fraction"),
    pytest.param(
        {"methods": [{"method": "batch_avg", "batch_extra": "x"}]},
        "methods[].batch_extra: expected an integer, got 'x'",
        id="batch_extra_string",
    ),
    pytest.param(
        {"weight_range": ["a", 2]},
        "config.weight_range: expected a finite number, got 'a'",
        id="weight_range_string",
    ),
    pytest.param(
        {"record_timing": "false"},
        "config.record_timing: expected true or false, got 'false'",
        id="record_timing_string",
    ),
    pytest.param(
        _contaminated(node_count="2"),
        "scenario.node_count: expected an integer, got '2'",
        id="contaminated_node_count_string",
    ),
    pytest.param(
        {"weight_range": [2, 1]},
        "weight magnitude range must satisfy 0 < lo < hi < inf, got (2.0, 1.0)",
        id="weight_range_reversed",
    ),
    pytest.param(
        {"weight_range": [0, 1]},
        "weight magnitude range must satisfy 0 < lo < hi < inf, got (0.0, 1.0)",
        id="weight_range_zero_low",
    ),
    pytest.param(
        {"variances": {"kind": "uniform", "low": -1, "high": 2}},
        "config.variances: variance range must satisfy 0 < low <= high < inf, got UniformVariances(low=-1.0, high=2.0)",
        id="uniform_variances_negative_low",
    ),
    pytest.param(
        {"variances": {"kind": "uniform", "low": 2, "high": 1}},
        "config.variances: variance range must satisfy 0 < low <= high < inf, got UniformVariances(low=2.0, high=1.0)",
        id="uniform_variances_reversed",
    ),
    pytest.param(
        {"scenario": {"kind": "agnostic", "remove_edges": 5000}},
        "remove_edges must lie in [0, 4950] for GraphSpec(kind='er', n=100, degree=5.0), got 5000",
        id="remove_edges_above_complete_dag",
    ),
    pytest.param(
        {"methods": [{"method": "least_squares", "label": "ls,x"}]},
        "method labels must not contain a comma, a double quote, CR or LF, got ['ls,x']",
        id="label_comma",
    ),
    pytest.param(
        {"methods": [{"method": "least_squares", "label": 'ls"x'}]},
        'method labels must not contain a comma, a double quote, CR or LF, got [\'ls"x\']',
        id="label_double_quote",
    ),
    pytest.param(
        {"methods": [{"method": "least_squares", "label": "ls\rx"}]},
        "method labels must not contain a comma, a double quote, CR or LF, got ['ls\\rx']",
        id="label_cr",
    ),
    pytest.param(
        {"methods": [{"method": "least_squares", "label": "ls\nx"}]},
        "method labels must not contain a comma, a double quote, CR or LF, got ['ls\\nx']",
        id="label_lf",
    ),
    pytest.param({"methods": []}, "at least one method is required", id="methods_empty"),
    pytest.param(
        {"methods": [{"method": "least_squares", "split_fraction": 0.5}]},
        "methods[]: unknown keys ['split_fraction']",
        id="split_fraction_removed",
    ),
    pytest.param(
        {"methods": [{"method": "empirical_mle"}]},
        "unknown method 'empirical_mle'; expected one of "
        "('least_squares', 'batch_avg', 'batch_med', 'cauchy_est', 'cauchy_est_tree')",
        id="methods_empirical_mle",
    ),
]


def _tiny_config(**overrides):
    base = dict(
        graph=GraphSpec("tree", 6),
        methods=(MethodSpec("ls", FitConfig(method="least_squares")),),
        sample_sizes=(50, 120),
        repetitions=3,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


FULL_JSON = {
    "graph": {"kind": "er", "n": 12, "degree": 2.5},
    "weight_range": [0.5, 1.5],
    "variances": {"kind": "uniform", "low": 0.5, "high": 2.0},
    "scenario": {
        "kind": "contaminated",
        "sample_fraction": 0.1,
        "node_count": 3,
        "law": {"kind": "cauchy", "location": 500.0, "scale": 2.0},
    },
    "methods": [
        {"method": "least_squares"},
        {"method": "batch_avg", "batch_extra": 5},
        {"method": "batch_med", "variance_method": "mad"},
        {"method": "cauchy_est", "label": "whitened"},
    ],
    "sample_sizes": [100, 400],
    "repetitions": 2,
    "base_seed": 9,
    "record_timing": True,
}


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(json.loads(json.dumps(FULL_JSON)))
        assert cfg.graph == GraphSpec("er", 12, 2.5)
        assert cfg.weight_range == (0.5, 1.5)
        assert cfg.variances == gbn.UniformVariances(0.5, 2.0)
        assert cfg.scenario.law.kind == "cauchy"
        assert cfg.scenario.law.location == 500.0
        assert cfg.scenario.sample_fraction == 0.1
        assert cfg.sample_sizes == (100, 400)
        assert cfg.repetitions == 2
        assert cfg.base_seed == 9
        assert cfg.record_timing is True

    def test_default_labels(self):
        cfg = parse_config(json.loads(json.dumps(FULL_JSON)))
        labels = [ms.label for ms in cfg.methods]
        assert labels == ["least_squares", "batch_avg_x5", "batch_med_x20_mad", "whitened"]

    def test_minimal_config_defaults(self):
        cfg = _parse_minimal()
        assert cfg.weight_range == (1.0, 2.0)
        assert cfg.variances == gbn.UnitVariances()
        assert isinstance(cfg.scenario, CleanScenario)
        assert cfg.record_timing is False

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(extra_key=1),
            lambda o: o["graph"].update(extra=1),
            lambda o: o["variances"].update(extra=1),
            lambda o: o["scenario"].update(extra=1),
            lambda o: o["scenario"]["law"].update(extra=1),
            lambda o: o["methods"][0].update(extra=1),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, mutate):
        obj = json.loads(json.dumps(FULL_JSON))
        mutate(obj)
        with pytest.raises(ConfigInvalid, match="unknown key"):
            parse_config(obj)

    def test_missing_required_keys(self):
        obj = json.loads(json.dumps(FULL_JSON))
        del obj["methods"]
        with pytest.raises(ConfigInvalid, match="methods"):
            parse_config(obj)

    def test_er_graph_needs_degree(self):
        with pytest.raises(ConfigInvalid, match="degree"):
            _parse_minimal(graph={"kind": "er", "n": 10})

    def test_tree_graph_takes_no_degree(self):
        with pytest.raises(ConfigInvalid, match="degree"):
            _parse_minimal(graph={"kind": "tree", "n": 10, "degree": 2.0})

    def test_methods_must_be_list(self):
        obj = json.loads(json.dumps(FULL_JSON))
        obj["methods"] = {"method": "least_squares"}
        with pytest.raises(ConfigInvalid):
            parse_config(obj)

    def test_unknown_scenario_kind(self):
        with pytest.raises(ConfigInvalid):
            _parse_minimal(scenario={"kind": "byzantine"})

    def test_ill_conditioned_scenario_refused(self):
        with pytest.raises(ConfigInvalid, match="kind in"):
            _parse_minimal(scenario={"kind": "ill_conditioned", "node_count": 2})

    def test_ill_conditioned_variances_refused(self):
        # JSON and programmatic configs accept the same two variance kinds.
        obj = json.loads(json.dumps(FULL_JSON))
        obj["variances"] = {"kind": "ill_conditioned", "nodes": [0, 1], "sigma2": 1e-18}
        with pytest.raises(ConfigInvalid, match="ill_conditioned"):
            parse_config(obj)
        with pytest.raises(ConfigInvalid, match="variances must be UnitVariances or UniformVariances"):
            validate_config(_tiny_config(variances=gbn.IllConditionedVariances((0, 1), 1e-18)))

    def test_agnostic_scenario_parses(self):
        cfg = _parse_minimal(scenario={"kind": "agnostic", "remove_edges": 3})
        assert cfg.scenario == AgnosticScenario(3)

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert _parse_minimal(**_contaminated()).scenario == datagen.ContaminationSpec()
        law = _parse_minimal(**_contaminated(law={})).scenario.law
        assert law == datagen.NoiseLaw()
        assert _parse_minimal().methods[0].config == FitConfig(method="least_squares")

    @pytest.mark.parametrize("change, message", MALFORMED)
    def test_malformed_value_is_config_invalid(self, change, message):
        obj = json.loads((ROOT / "configs" / "clean_er.json").read_text())
        obj.update(change)
        with pytest.raises(ConfigInvalid) as info:
            parse_config(obj)
        assert str(info.value) == message

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="invalid JSON"):
            load_config(path)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FULL_JSON))
        assert load_config(path) == parse_config(json.loads(json.dumps(FULL_JSON)))

    @pytest.mark.parametrize(
        "name",
        ["clean_er", "contaminated_tree", "agnostic_er"]
        + [f"perfbench/{p.stem}" for p in sorted((ROOT / "perfbench" / "configs").glob("*.json"))],
    )
    def test_shipped_presets_are_valid(self, name):
        if name.startswith("perfbench/"):
            # The benchmark's own copies: only read here.
            load_config(ROOT / "perfbench" / "configs" / f"{name.split('/')[1]}.json")
            return
        cfg = load_config(ROOT / "configs" / f"{name}.json")
        assert cfg.graph.n == 100
        assert len(cfg.methods) == 5
        assert cfg.repetitions == 20


class TestValidateConfig:
    def test_duplicate_labels(self):
        cfg = _tiny_config(
            methods=(
                MethodSpec("a", FitConfig(method="least_squares")),
                MethodSpec("a", FitConfig(method="batch_avg")),
            )
        )
        with pytest.raises(ConfigInvalid, match="unique"):
            validate_config(cfg)

    def test_empty_label(self):
        # An empty method cell reads as a missing value in results.csv.
        with pytest.raises(ConfigInvalid, match=r"^method labels must not be empty, got \['ls', ''\]$"):
            _parse_minimal(methods=[{"method": "least_squares", "label": "ls"}, {"method": "least_squares", "label": ""}])

    def test_sample_sizes_strictly_increasing(self):
        with pytest.raises(ConfigInvalid, match="increasing"):
            validate_config(_tiny_config(sample_sizes=(100, 100)))

    def test_sample_sizes_minimum(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(sample_sizes=(1, 50)))

    def test_repetitions_positive(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(repetitions=0))

    def test_base_seed_nonnegative(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(base_seed=-1))

    def test_er_degree_range(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(graph=GraphSpec("er", 10, 11.0)))

    def test_unknown_graph_kind(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(graph=GraphSpec("lattice", 10)))

    def test_tree_takes_no_degree(self):
        with pytest.raises(ConfigInvalid, match="degree"):
            validate_config(_tiny_config(graph=GraphSpec("tree", 10, 3.0)))

    @pytest.mark.parametrize(
        "scenario",
        [
            datagen.ContaminationSpec(node_count=7),
            datagen.ContaminationSpec(node_count=-1),
            AgnosticScenario(remove_edges=6),
            AgnosticScenario(remove_edges=-1),
        ],
    )
    def test_scenario_nodes_checked_against_n(self, scenario):
        # _tiny_config's tree has n = 6 nodes and 5 edges.
        with pytest.raises(ConfigInvalid):
            validate_config(_tiny_config(scenario=scenario))

    @pytest.mark.parametrize("weight_range", [(2.0, 1.0), (0.0, 1.0)])
    def test_weight_range_needs_positive_increasing_bounds(self, weight_range):
        with pytest.raises(ConfigInvalid, match="weight"):
            validate_config(_tiny_config(weight_range=weight_range))

    def test_remove_edges_checked_against_tree_edge_count(self):
        # A tree on n nodes has n - 1 edges.
        validate_config(_tiny_config(graph=GraphSpec("tree", 5), scenario=AgnosticScenario(4)))
        for k in (5, 50, -1):
            with pytest.raises(ConfigInvalid, match="remove_edges"):
                validate_config(_tiny_config(graph=GraphSpec("tree", 5), scenario=AgnosticScenario(k)))


class TestRepSeeds:
    def test_frozen_values(self):
        assert _rep_seeds(7, 3) == (3466196061, 3466196062)
        assert _rep_seeds(0, 0)[0] == 2968811710

    def test_distinct_across_reps_and_bases(self):
        seeds = {_rep_seeds(b, r)[0] for b in range(4) for r in range(16)}
        assert len(seeds) == 64


class TestRunExperiment:
    def test_cardinality_and_ordering(self):
        cfg = _tiny_config(
            methods=(
                MethodSpec("ls", FitConfig(method="least_squares")),
                MethodSpec("ba", FitConfig(method="batch_avg", batch_extra=3)),
            )
        )
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 3
        keys = [(r.method, r.m, r.rep) for r in rows]
        assert keys == sorted(keys)

    def test_same_rep_shares_seed_across_methods_and_sizes(self):
        cfg = _tiny_config(
            methods=(
                MethodSpec("ls", FitConfig(method="least_squares")),
                MethodSpec("ba", FitConfig(method="batch_avg", batch_extra=3)),
            )
        )
        rows = run_experiment(cfg)
        by_rep = {}
        for r in rows:
            by_rep.setdefault(r.rep, set()).add(r.seed)
        assert all(len(v) == 1 for v in by_rep.values())

    def test_deterministic_output(self):
        cfg = _tiny_config()
        a = render_results(run_experiment(cfg))
        b = render_results(run_experiment(cfg))
        assert a == b

    def test_rows_reproducible_from_rep_data(self):
        cfg = _tiny_config()
        rows = run_experiment(cfg)
        row = next(r for r in rows if r.m == 50 and r.rep == 2)
        rd = generate_rep_data(cfg, 2)
        assert rd.seed == row.seed
        outcome = estimators.fit_detailed(rd.fit_dag, rd.data[:50], cfg.methods[0].config)
        report = gbn.kl_divergence(rd.truth, outcome.model)
        assert report.kl_total == row.kl_total
        assert row.tv_upper == min(1.0, (max(row.kl_total, 0.0) / 2.0) ** 0.5)

    def test_timing_zero_by_default(self):
        rows = run_experiment(_tiny_config())
        assert all(r.fit_wall_ms == 0.0 for r in rows)

    def test_timing_recorded_when_asked(self):
        rows = run_experiment(_tiny_config(record_timing=True))
        assert any(r.fit_wall_ms > 0.0 for r in rows)

    def test_timing_changes_only_the_timing_column(self):
        # With timing on, each size is fitted by its own call; off, one call
        # fits every size. The rows must agree in every other column.
        methods = tuple(
            MethodSpec(f"{cfg.method}_{cfg.variance_method}", cfg)
            for cfg in (
                FitConfig(method="least_squares"),
                FitConfig(method="batch_avg", batch_extra=3),
                FitConfig(method="batch_med", batch_extra=3, variance_method="mad"),
                FitConfig(method="cauchy_est_tree"),
                FitConfig(method="cauchy_est", variance_method="mad"),
                FitConfig(method="least_squares", variance_method="mad"),
            )
        )
        cfg = _tiny_config(graph=GraphSpec("er", 12, 3.0), methods=methods, sample_sizes=(16, 60, 150), repetitions=2)
        off = run_experiment(cfg)
        on = run_experiment(dataclasses.replace(cfg, record_timing=True))
        assert [dataclasses.replace(r, fit_wall_ms=0.0) for r in on] == off
        assert len(off) == 6 * 3 * 2 and not any(r.degenerate for r in off)

    def test_timing_covers_the_fit_and_not_the_scoring(self, monkeypatch):
        def slow(score):
            def scored(*args, **kwargs):
                time.sleep(0.2)
                return score(*args, **kwargs)

            return scored

        monkeypatch.setattr(gbn, "kl_divergence", slow(gbn.kl_divergence))
        cfg = _tiny_config(
            methods=(
                MethodSpec("ls", FitConfig(method="least_squares")),
                MethodSpec("ct", FitConfig(method="cauchy_est_tree")),
            ),
            repetitions=1,
            record_timing=True,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 4 and not any(r.degenerate for r in rows)
        assert all(0.0 < r.fit_wall_ms < 200.0 for r in rows)

    def test_validate_runs_first(self):
        with pytest.raises(ConfigInvalid):
            run_experiment(_tiny_config(repetitions=0))

    @pytest.mark.parametrize("record_timing", [False, True])
    def test_one_fit_call_per_rep_or_per_timed_cell(self, monkeypatch, record_timing):
        # Timing off, one fit_prefixes call per repetition fits every
        # method at every size; timing on, one call per (method, size).
        calls = []
        real = estimators.fit_prefixes

        def recording(dag, data, configs, sizes=None):
            calls.append(([c.method for c in configs], sizes))
            return real(dag, data, configs, sizes)

        monkeypatch.setattr(estimators, "fit_prefixes", recording)
        methods = (
            MethodSpec("ls", FitConfig(method="least_squares")),
            MethodSpec("ct", FitConfig(method="cauchy_est_tree")),
            MethodSpec("ce", FitConfig(method="cauchy_est", variance_method="mad")),
        )
        cfg = _tiny_config(methods=methods, repetitions=2, record_timing=record_timing)
        rows = run_experiment(cfg)
        assert len(rows) == 3 * 2 * 2 and not any(r.degenerate for r in rows)
        if record_timing:
            cells = [([m], (size,)) for m in ("least_squares", "cauchy_est_tree", "cauchy_est") for size in (50, 120)]
            assert calls == cells * 2
        else:
            assert calls == [(["least_squares", "cauchy_est_tree", "cauchy_est"], (50, 120))] * 2

    def test_truth_covariance_computed_once_per_rep(self, monkeypatch):
        calls = []
        real = gbn.covariance

        def counting(model):
            calls.append(model.dag.n)
            return real(model)

        monkeypatch.setattr(gbn, "covariance", counting)
        cfg = _tiny_config(
            graph=GraphSpec("er", 30, 3.0),
            methods=(
                MethodSpec("ba", FitConfig(method="batch_avg", batch_extra=5)),
                MethodSpec("ls", FitConfig(method="least_squares")),
            ),
            sample_sizes=(200, 400, 800),
            repetitions=2,
        )
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3 * 2 and not any(r.degenerate for r in rows)
        assert calls == [30, 30]


class TestScenarios:
    def test_contaminated_robust_methods_win(self):
        cfg = ExperimentConfig(
            graph=GraphSpec("tree", 8),
            methods=(
                MethodSpec("ls", FitConfig(method="least_squares")),
                MethodSpec("bm", FitConfig(method="batch_med", batch_extra=5, variance_method="mad")),
            ),
            sample_sizes=(200,),
            repetitions=3,
            base_seed=5,
            scenario=datagen.ContaminationSpec(),
        )
        summary = {s.method: s for s in summarize(run_experiment(cfg))}
        assert all(r.scenario == "contaminated" for r in run_experiment(cfg))
        assert summary["bm"].median_kl < 0.2 * summary["ls"].median_kl

    def test_contamination_seed_differs_from_rep_seed(self):
        cfg = _tiny_config(scenario=datagen.ContaminationSpec())
        rd = generate_rep_data(cfg, 0)
        clean_rd = generate_rep_data(_tiny_config(), 0)
        assert rd.seed == clean_rd.seed
        assert not np.array_equal(rd.data, clean_rd.data)

    def test_ill_conditioned_truth_scores_only_cauchy(self, monkeypatch):
        # At sigma2 = 1e-20 an ill node is its parents' linear combination to
        # working precision: every least-squares design and batch that holds
        # one is rank deficient, and the RankDeficient that fit_prefixes
        # returns leaves the row degenerate. The square Cauchy batches still
        # solve, so those rows are scored.
        raised = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except NumericalError as exc:
                    raised.append(type(exc))
                    raise
                # fit_prefixes returns a (method, size)'s NumericalError
                raised.extend(type(r) for fits in result for r in fits if isinstance(r, NumericalError))
                return result

            return wrapped

        monkeypatch.setattr(estimators, "fit_prefixes", recording(estimators.fit_prefixes))
        rng = np.random.default_rng(0)
        dag = random_er_dag(30, 3.0, rng)
        ill = tuple(int(v) for v in np.sort(rng.choice(30, size=5, replace=False)))
        truth = gbn.random_gbn(dag, (1.0, 2.0), gbn.IllConditionedVariances(ill, 1e-20), rng)
        rd = RepData(truth=truth, fit_dag=dag, data=gbn.sample(truth, 400, rng), seed=0, rep=0)
        parent_covs = gbn.parent_covariances(dag, gbn.covariance(truth))
        methods = [
            MethodSpec(cfg.method, cfg)
            for cfg in (
                FitConfig(method="least_squares"),
                FitConfig(method="batch_avg", batch_extra=5),
                FitConfig(method="batch_med"),
                FitConfig(method="cauchy_est_tree"),
                FitConfig(method="cauchy_est"),
            )
        ]
        config = ExperimentConfig(GraphSpec("er", 30, 3.0), tuple(methods), (400,), 1, 0)
        degenerate = {row.method: row.degenerate for row in _method_rows(config, rd, parent_covs)}
        assert degenerate == {
            "least_squares": True,
            "batch_avg": True,
            "batch_med": True,
            "cauchy_est_tree": False,
            "cauchy_est": False,
        }
        assert RankDeficient in raised

    def test_overflowing_coefficient_row_is_degenerate(self):
        # Node 0 near 1e-200 and node 1 near 1e200: every method's
        # coefficient estimate overflows, which marks its row degenerate
        # and leaves the sweep running.
        dag = build_dag(2, [(0, 1)])
        truth = gbn.GaussianBayesNet(dag, (np.zeros(0), np.array([1.0])), np.ones(2))
        rng = np.random.default_rng(0)
        data = np.column_stack([1e-200 * rng.normal(size=200), 1e200 * rng.normal(size=200)])
        rd = RepData(truth=truth, fit_dag=dag, data=data, seed=0, rep=0)
        parent_covs = gbn.parent_covariances(dag, gbn.covariance(truth))
        methods = tuple(MethodSpec(method, FitConfig(method=method, batch_extra=3)) for method in estimators.METHODS)
        config = ExperimentConfig(GraphSpec("tree", 2), methods, (100, 200), 1, 0)
        rows = _method_rows(config, rd, parent_covs)
        assert len(rows) == 2 * len(methods)
        assert all(row.degenerate and row.kl_total is None and row.tv_upper is None for row in rows)

    def test_agnostic_fit_dag_is_thinner_and_kl_floors(self):
        cfg = ExperimentConfig(
            graph=GraphSpec("tree", 10),
            methods=(MethodSpec("ls", FitConfig(method="least_squares")),),
            sample_sizes=(500, 4000),
            repetitions=2,
            base_seed=1,
            scenario=AgnosticScenario(remove_edges=2),
        )
        rd = generate_rep_data(cfg, 0)
        assert rd.fit_dag.num_edges == rd.truth.dag.num_edges - 2
        rows = run_experiment(cfg)
        # Missing edges leave an approximation error no amount of data removes.
        assert all(r.kl_total > 0.05 for r in rows if r.m == 4000)
        # The per-node scores equal the KL between the joint covariances.
        for r in rows:
            rd = generate_rep_data(cfg, r.rep)
            model = estimators.fit_detailed(rd.fit_dag, rd.data[: r.m], cfg.methods[0].config).model
            oracle = gbn.gaussian_kl(gbn.covariance(rd.truth), gbn.covariance(model))
            assert r.kl_total == pytest.approx(oracle, rel=1e-8)


class TestSummarize:
    @staticmethod
    def _row(method, m, rep, kl, degenerate=False):
        return ResultRow(
            method=method,
            graph="tree",
            n=5,
            d=1.0,
            scenario="clean",
            m=m,
            rep=rep,
            seed=1,
            kl_total=None if degenerate else kl,
            tv_upper=None if degenerate else 0.0,
            fit_wall_ms=0.0,
            degenerate=degenerate,
        )

    def test_frozen_arithmetic(self):
        rows = [self._row("ls", 100, i, kl) for i, kl in enumerate([0.1, 0.2, 0.9])]
        (s,) = summarize(rows)
        assert s.mean_kl == pytest.approx(0.4, rel=1e-12)
        assert s.median_kl == 0.2
        assert s.iqr_kl == pytest.approx(0.55 - 0.15, rel=1e-12)
        assert s.degenerate_count == 0

    def test_degenerate_rows_excluded_from_stats(self):
        rows = [
            self._row("ls", 100, 0, 0.5),
            self._row("ls", 100, 1, None, degenerate=True),
            self._row("ls", 100, 2, 0.7),
        ]
        (s,) = summarize(rows)
        assert s.mean_kl == pytest.approx(0.6)
        assert s.degenerate_count == 1

    def test_all_degenerate_cell(self):
        rows = [self._row("ls", 100, i, None, degenerate=True) for i in range(3)]
        (s,) = summarize(rows)
        assert s.mean_kl is None and s.median_kl is None and s.iqr_kl is None
        assert s.degenerate_count == 3

    def test_cells_sorted_by_method_then_m(self):
        rows = [
            self._row("z", 100, 0, 0.1),
            self._row("a", 200, 0, 0.1),
            self._row("a", 100, 0, 0.1),
        ]
        assert [(s.method, s.m) for s in summarize(rows)] == [("a", 100), ("a", 200), ("z", 100)]

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter, match="no rows to summarize"):
            summarize([])


class TestCsvOutput:
    def test_results_header_and_shape(self):
        rows = run_experiment(_tiny_config())
        lines = render_results(rows).splitlines()
        assert lines[0] == "method,graph,n,d,scenario,m,rep,seed,kl_total,tv_upper,fit_wall_ms,degenerate"
        assert len(lines) == 1 + len(rows)
        assert all(line.count(",") == 11 for line in lines)

    def test_summary_header_and_shape(self):
        summary = summarize(run_experiment(_tiny_config()))
        lines = render_summary(summary).splitlines()
        assert lines[0] == "method,m,mean_kl,median_kl,iqr_kl,degenerate_count"
        assert len(lines) == 1 + len(summary)
        assert all(line.count(",") == 5 for line in lines)

    def test_none_rendered_as_empty_and_bool_as_bit(self):
        row = TestSummarize._row("ls", 100, 0, None, degenerate=True)
        line = render_results([row]).splitlines()[1]
        assert line == "ls,tree,5,1,clean,100,0,1,,,0,1"

    def test_float_format_survives_round_trip(self):
        row = TestSummarize._row("ls", 100, 0, 1.0 / 3.0)
        line = render_results([row]).splitlines()[1]
        assert float(line.split(",")[8]) == 1.0 / 3.0

    def test_summary_recomputable_from_results_csv(self, tmp_path):
        """Independent recompute: parse results.csv with the stdlib and
        rebuild every summary statistic from scratch."""
        cfg = _tiny_config(
            methods=(
                MethodSpec("ls", FitConfig(method="least_squares")),
                MethodSpec("ba", FitConfig(method="batch_avg", batch_extra=3)),
            ),
            repetitions=4,
        )
        rows = run_experiment(cfg)
        (tmp_path / "results.csv").write_text(render_results(rows))
        (tmp_path / "summary.csv").write_text(render_summary(summarize(rows)))

        def quartile(vals, q):
            vals = sorted(vals)
            h = (len(vals) - 1) * q
            lo = int(h)
            hi = min(lo + 1, len(vals) - 1)
            return vals[lo] + (h - lo) * (vals[hi] - vals[lo])

        cells = {}
        with open(tmp_path / "results.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                key = (rec["method"], int(rec["m"]))
                cells.setdefault(key, []).append(float(rec["kl_total"]))
        with open(tmp_path / "summary.csv", newline="") as fh:
            summary_recs = list(csv.DictReader(fh))
        assert len(summary_recs) == len(cells)
        for rec in summary_recs:
            vals = cells[(rec["method"], int(rec["m"]))]
            assert float(rec["mean_kl"]) == pytest.approx(statistics.fmean(vals), rel=1e-12)
            assert float(rec["median_kl"]) == pytest.approx(statistics.median(vals), rel=1e-12)
            expect_iqr = quartile(vals, 0.75) - quartile(vals, 0.25)
            assert float(rec["iqr_kl"]) == pytest.approx(expect_iqr, rel=1e-9)
            assert int(rec["degenerate_count"]) == 0
