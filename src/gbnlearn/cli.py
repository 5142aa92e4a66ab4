"""Command line interface.

Subcommands: ``generate`` (emit a random DAG, model, and samples),
``fit`` (estimate a model from a DAG file and a samples CSV), ``eval``
(score an estimated model against a true one), and ``bench`` (run a
config-driven sweep). Exit codes: 0 success, 1 usage error, 2 data or
config error, 3 numerical failure during a single fit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench, estimators, gbn
from .dag import random_er_dag, random_tree_dag, read_dag_file, write_dag_file
from .errors import ConfigInvalid, GbnError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbnlearn",
        description="Learn and evaluate linear-Gaussian network parameters on a known DAG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a random DAG, model, and samples")
    g.add_argument("--graph", choices=("tree", "er"), required=True)
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--degree", type=float, default=None, help="expected degree (er only)")
    g.add_argument("--samples", type=int, required=True, help="number of rows to draw")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--weight-range", nargs=2, type=float, default=bench.ExperimentConfig.weight_range, metavar=("LO", "HI")
    )
    g.add_argument(
        "--variances",
        default="unit",
        help="unit | uniform:LO,HI | ill:NODE,NODE,...:SIGMA2",
    )
    g.add_argument("--out", default=".", help="output directory (dag.txt, model.txt, samples.csv)")

    f = sub.add_parser("fit", help="estimate a model from samples")
    f.add_argument("--dag", required=True, help="DAG file")
    f.add_argument("--samples", required=True, help="samples CSV")
    f.add_argument("--method", choices=estimators.METHODS, required=True)
    # Defaults are FitConfig's own.
    f.add_argument("--batch-extra", type=int, default=estimators.FitConfig.batch_extra)
    f.add_argument(
        "--variance-method", choices=estimators.VARIANCE_METHODS, default=estimators.FitConfig.variance_method
    )
    f.add_argument("--out", required=True, help="output model file")

    e = sub.add_parser("eval", help="score an estimated model against the truth")
    e.add_argument("truth", help="true model file")
    e.add_argument("estimate", help="estimated model file")
    e.add_argument("--per-node", action="store_true", help="also print each node's KL term")

    b = sub.add_parser("bench", help="run a config-driven sweep")
    b.add_argument("--config", required=True, help="experiment config JSON")
    b.add_argument("--out", default="bench_out", help="output directory")
    b.add_argument("--seed", type=int, default=None, help="override the config's base_seed")
    return parser


def _parse_variances(text: str):
    kind, _, rest = text.partition(":")
    try:
        if text == "unit":
            return gbn.UnitVariances()
        if kind == "uniform" and rest.count(",") == 1:
            low, high = rest.split(",")
            return gbn.UniformVariances(low=float(low), high=float(high))
        if kind == "ill" and rest.count(":") == 1:
            nodes, sigma2 = rest.split(":")
            return gbn.IllConditionedVariances(tuple(int(v) for v in nodes.split(",") if v), float(sigma2))
    except ValueError as exc:  # a number that does not parse
        raise ConfigInvalid(f"bad variances spec {text!r}: {exc}") from exc
    raise ConfigInvalid(f"bad variances spec {text!r}; expected unit, uniform:LO,HI or ill:NODES:SIGMA2")


def _cmd_generate(args) -> int:
    if args.seed < 0:
        raise ConfigInvalid(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    if args.graph == "er":
        if args.degree is None:
            raise ConfigInvalid("--degree is required for er graphs")
        dag = random_er_dag(args.nodes, args.degree, rng)
    else:
        if args.degree is not None:
            raise ConfigInvalid("--degree only applies to er graphs")
        dag = random_tree_dag(args.nodes, rng)
    model = gbn.random_gbn(dag, tuple(args.weight_range), _parse_variances(args.variances), rng)
    data = gbn.sample(model, args.samples, rng)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_dag_file(dag, outdir / "dag.txt")
    gbn.save_model(model, outdir / "model.txt")
    gbn.save_samples(data, outdir / "samples.csv")
    print(f"wrote {outdir / 'dag.txt'}, {outdir / 'model.txt'}, {outdir / 'samples.csv'}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    dag = read_dag_file(args.dag)
    data = gbn.load_samples(args.samples)
    config = estimators.FitConfig(
        method=args.method,
        batch_extra=args.batch_extra,
        variance_method=args.variance_method,
    )
    outcome = estimators.fit_detailed(dag, data, config)
    if outcome.degenerate_nodes:
        nodes = list(outcome.degenerate_nodes)
        raise NumericalError(f"degenerate variance estimate at nodes {nodes}; no model written")
    gbn.save_model(outcome.model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    truth = gbn.load_model(args.truth)
    estimate = gbn.load_model(args.estimate)
    report = gbn.kl_divergence(truth, estimate)
    print(f"kl_total {gbn.FLOAT_FMT % report.kl_total}")
    print(f"tv_upper {gbn.FLOAT_FMT % report.tv_upper}")
    if args.per_node:
        for i, v in enumerate(report.per_node_dcp):
            print(f"dcp {i} {gbn.FLOAT_FMT % v}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    # --out is created only after the sweep, so a stopped run leaves no
    # directory; a path that can never be one fails before the sweep.
    outdir = Path(args.out)
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigInvalid(f"--out {outdir}: {existing} is not a directory")
    config = bench.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    rows = bench.run_experiment(config)
    summary = bench.summarize(rows)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "results.csv").write_text(bench.render_results(rows))
    (outdir / "summary.csv").write_text(bench.render_summary(summary))
    print(f"wrote {len(rows)} rows to {outdir / 'results.csv'}")
    print(f"wrote {len(summary)} rows to {outdir / 'summary.csv'}")
    return EXIT_OK


def cli(argv) -> int:
    """Run the CLI on ``argv`` (without the program name); returns an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_bench(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GbnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
