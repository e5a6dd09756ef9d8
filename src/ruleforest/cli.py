"""Command-line entry point: train, explain, evaluate, bench, inspect."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import __version__
from .dataset import Dataset, DatasetError, load_csv
from .evaluation import make_synthetic, run_experiment, scalability_bench
from .forest import LEAF, Forest, ForestConfig, ModelError, evaluate_mae, fit, load, save
from .reduction import MAX_PRECISION, AllowedError, check_conclusive, default_allowed_error, explain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

MISSING_FLAGS = {"zero": "zero_fill", "drop": "drop_row", "error": "error"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _checked(read, ok, requirement: str):
    """An argparse type for the values ``read`` gives that satisfy ``ok``; ``requirement`` names the range."""

    def parse(text: str):
        value = read(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


def _int_at_least(low: int):
    return _checked(_integer, lambda v: v >= low, f">= {low}")


_precision = _checked(_int_at_least(0), lambda v: v <= MAX_PRECISION, f"<= {MAX_PRECISION}")
_fraction = _checked(_number, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_non_negative = _checked(_number, lambda v: v >= 0.0, ">= 0")


def _max_features(text: str) -> str | float:
    """An argparse type for all, sqrt or a fraction in (0, 1]."""
    return text if text in ("all", "sqrt") else _fraction(text)


def _float_list(item):
    """An argparse type for comma-separated values, at least one, each parsed by ``item``."""

    def parse(text: str) -> list[float]:
        values = [item(value) for value in text.split(",") if value.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
        return values

    return parse


_budgets = _float_list(_non_negative)
_finite_numbers = _float_list(_checked(_number, math.isfinite, "finite"))


def _synthetic_shape(text: str) -> tuple[int, ...]:
    """An argparse type for n,d,m, each >= 1."""
    values = text.split(",")
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected n,d,m, got {text!r}")
    return tuple(map(_int_at_least(1), values))


def _config_from_args(args) -> ForestConfig:
    return ForestConfig(
        n_estimators=args.estimators,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_leaf,
        max_features=args.max_features,
        bootstrap=not args.no_bootstrap,
        seed=args.seed,
    )


def _add_forest_flags(parser):
    parser.add_argument("--estimators", type=_int_at_least(1), default=500)
    parser.add_argument("--max-depth", type=_int_at_least(0), default=None)
    parser.add_argument("--min-leaf", type=_int_at_least(1), default=1)
    parser.add_argument("--max-features", type=_max_features, default="sqrt", help="all, sqrt or a fraction")
    parser.add_argument("--no-bootstrap", action="store_true")
    parser.add_argument("--seed", type=_int_at_least(0), default=0)


def _add_data_flags(parser, required=True):
    parser.add_argument("--data", required=required, help="CSV file with a header row")
    parser.add_argument("--targets", required=required, help="comma-separated target column names")
    parser.add_argument("--missing", choices=sorted(MISSING_FLAGS), default="zero")


def _load_dataset(args) -> Dataset:
    return load_csv(args.data, args.targets.split(","), MISSING_FLAGS[args.missing])


def _effective_config(command: str, args) -> str:
    """The command and every parsed flag value, a list comma-separated."""
    pairs = " ".join(
        f"{key}={','.join(map(str, value)) if isinstance(value, (list, tuple)) else value}"
        for key, value in sorted(vars(args).items())
        if key != "func"
    )
    return f"# ruleforest {command} {pairs}"


def _resolve_allowed(values: list[float], scheme: str | None, m: int) -> AllowedError:
    if scheme is None:
        scheme = "global" if len(values) == 1 else "per-target"
    if scheme == "global":
        if len(values) != 1:
            raise UsageError("--scheme global takes exactly one allowed-error value")
        return AllowedError.global_mean(values[0])
    if len(values) != m:
        raise UsageError(f"--scheme per-target needs {m} allowed-error values, got {len(values)}")
    return AllowedError.per_target(values)


def cmd_train(args) -> int:
    data = _load_dataset(args)
    config = _config_from_args(args)
    start = time.perf_counter()
    forest = fit(data, config)
    fit_s = time.perf_counter() - start
    save(forest, args.out)
    per_target, mean = evaluate_mae(forest, data)
    print(_effective_config("train", args))
    print(f"trained {config.n_estimators} trees on {data.n} rows -> {args.out}")
    print(f"fit {fit_s:.2f} s ({fit_s * 1e3 / forest.n_trees:.1f} ms per tree), {forest.feature.shape[0]} nodes")
    print("training MAE per target: " + ", ".join(f"{v:.4f}" for v in per_target) + f" (mean {mean:.4f})")
    return EXIT_OK


def _instance_from_args(args, forest: Forest, dataset) -> np.ndarray:
    if args.instance is not None:
        if len(args.instance) != forest.d:
            raise UsageError(f"instance has {len(args.instance)} values, model expects {forest.d} features")
        return np.asarray(args.instance)
    if args.instance_index is None or args.data is None or args.targets is None:
        raise UsageError("provide --instance values or --instance-index with --data and --targets")
    data = dataset()
    if not 0 <= args.instance_index < data.n:
        raise UsageError(f"--instance-index out of range [0, {data.n})")
    return data.features[args.instance_index]


def _model_dataset(args, forest: Forest) -> Dataset:
    """The CSV of ``--data``, whose feature columns must be the model's."""
    data = _load_dataset(args)
    if data.feature_names != forest.feature_names:
        raise DatasetError("CSV feature columns do not match the model")
    return data


def cmd_explain(args) -> int:
    forest = load(args.model)
    dataset = functools.cache(lambda: _model_dataset(args, forest))  # the CSV is parsed at most once
    x = _instance_from_args(args, forest, dataset)
    if args.allowed_error is not None:
        allowed = _resolve_allowed(args.allowed_error, args.scheme, forest.m)
    elif args.data is not None and args.targets is not None:
        data = dataset()
        if data.target_names != forest.target_names:  # the budget holds one value per model target, in order
            raise DatasetError(f"--targets {args.targets} do not match the model's {','.join(forest.target_names)}")
        allowed = default_allowed_error(data, forest.config, k=10)
        if args.scheme == "global":
            allowed = AllowedError.global_mean(float(allowed.values.mean()))
    else:
        raise UsageError("provide --allowed-error, or --data/--targets to derive the CV default")

    result = explain(forest, x, allowed, min_support=args.min_support, precision=args.precision)
    trace = result.reduction.trace
    report = {
        "kept_paths": len(result.reduction.kept),
        "excluded_paths": len(result.reduction.excluded),
        "feature_set": sorted(result.reduction.feature_set),
        "local_errors": result.reduction.local_errors.tolist(),
        "adjusted_prediction": result.reduction.adjusted_prediction.tolist(),
        "original_prediction": result.reduction.original_prediction.tolist(),
        "elapsed_seconds": result.elapsed_seconds,
        # each wall-clock value's line names elapsed_seconds, so reruns differ only on such lines
        "timings": {f"{stage}_elapsed_seconds": seconds for stage, seconds in result.timings.items()},
        "trace": {
            "ranking": trace.ranking,
            "kept_paths": trace.kept_counts.tolist(),
            "local_errors": trace.local_errors.tolist(),
            "accepted_step": trace.accepted_step,
        },
    }
    if args.check_conclusive is not None:
        probe = check_conclusive(
            result.rule, result.reduction, forest, x, trials=args.check_conclusive, seed=args.seed
        )
        report["max_deviation"] = probe.max_deviation.tolist()
        report["envelope_violations"] = probe.envelope_violations
        report["certified_lower"] = probe.lower.tolist()
        report["certified_upper"] = probe.upper.tolist()
    if args.report:  # before any output, so a report that cannot be written leaves stdout empty
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_effective_config("explain", args) + "\n")
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(_effective_config("explain", args))
    print(result.rendered)
    if not args.report:
        print(json.dumps(report, indent=2))
    return EXIT_OK


def _write_csv(args, command: str, header: list[str], rows) -> None:
    """Write the config line, a header and rows to ``--out``, or stdout without it."""
    target = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", newline="", encoding="utf-8")
    with target as out:
        out.write(_effective_config(command, args) + "\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_evaluate(args) -> int:
    data = _load_dataset(args)
    config = _config_from_args(args)
    allowed = [AllowedError.global_mean(v) for v in args.allowed_errors]
    rows = run_experiment(
        data, config, allowed, k=args.folds, seed=args.seed, min_support=args.min_support
    )
    header = ["allowed_error", "coverage", "rule_precision_mae", "rule_precision_truth_mae", "rule_length"]
    _write_csv(
        args,
        "evaluate",
        header,
        (
            [
                row.label,
                f"{row.coverage:.4f}",
                f"{row.rule_precision_mae:.4f}",
                f"{row.rule_precision_truth_mae:.4f}",
                f"{row.rule_length:.2f}",
            ]
            for row in rows
        ),
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.allowed_errors != sorted(args.allowed_errors):
        raise UsageError(f"--allowed-errors must be ascending, got {args.allowed_errors}")
    data = make_synthetic(*args.synthetic, noise=args.noise, seed=args.seed)
    config = _config_from_args(args)
    rows = scalability_bench(
        data,
        config,
        args.allowed_errors,
        instances=args.instances,
        seed=args.seed,
        min_support=args.min_support,
    )
    _write_csv(
        args,
        "bench",
        ["allowed_error", "mean_time_seconds", "mean_kept_paths"],
        (
            [f"{row.allowed_error:g}", f"{row.mean_time_seconds:.4f}", f"{row.mean_kept_paths:.2f}"]
            for row in rows
        ),
    )
    return EXIT_OK


def cmd_inspect(args) -> int:
    forest = load(args.model)
    depths = forest.depths
    leaf_counts = np.add.reduceat((forest.feature == LEAF).astype(np.int64), forest.roots)
    print(_effective_config("inspect", args))
    print(f"trees: {forest.n_trees}")
    print(f"features: {forest.d} ({', '.join(forest.feature_names)})")
    print(f"targets: {forest.m} ({', '.join(forest.target_names)})")
    print(f"depth: min {depths.min()} mean {depths.mean():.1f} max {depths.max()}")
    print(f"leaves per tree: min {leaf_counts.min()} mean {leaf_counts.mean():.1f} max {leaf_counts.max()}")
    for name, lo, hi in zip(forest.target_names, forest.leaf_min.min(axis=0), forest.leaf_max.max(axis=0)):
        print(f"leaf extremes[{name}]: [{lo:.4f}, {hi:.4f}]")
    for f, name in enumerate(forest.feature_names):
        print(f"feature_bounds[{name}]: [{forest.feature_bounds[f, 0]:.4f}, {forest.feature_bounds[f, 1]:.4f}]")
    cfg = forest.config
    print(
        "config: "
        f"estimators={cfg.n_estimators} max_depth={cfg.max_depth} min_leaf={cfg.min_samples_leaf} "
        f"max_features={cfg.max_features} bootstrap={cfg.bootstrap} seed={cfg.seed}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ruleforest", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest and write a model file")
    _add_data_flags(p)
    _add_forest_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="produce a conclusive rule for one instance")
    p.add_argument("--model", required=True)
    instance = p.add_mutually_exclusive_group()
    instance.add_argument("--instance", type=_finite_numbers, help="inline comma-separated feature values")
    instance.add_argument("--instance-index", type=_integer, help="row index into --data")
    _add_data_flags(p, required=False)
    p.add_argument("--allowed-error", type=_budgets, help="one value (global) or one per target")
    p.add_argument("--scheme", choices=["global", "per-target"])
    p.add_argument("--min-support", type=_fraction, default=0.1)
    p.add_argument("--precision", type=_precision, default=2, help=f"decimals in the rule, at most {MAX_PRECISION}")
    p.add_argument(
        "--check-conclusive",
        type=_int_at_least(1),
        metavar="N",
        help="certify the rule exactly: report the forest's prediction range over the whole rule "
        "region; nothing is sampled, so any N >= 1 gives the same result",
    )
    p.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=0,
        help="recorded in the config line; the exact --check-conclusive check does not use it",
    )
    p.add_argument("--report", help="write the sidecar report JSON here")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="cross-validated explanation metrics")
    _add_data_flags(p)
    _add_forest_flags(p)
    p.add_argument("--allowed-errors", type=_budgets, required=True, help="comma-separated global budgets")
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument("--min-support", type=_fraction, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="allowed-error scalability sweep on synthetic data")
    p.add_argument("--synthetic", type=_synthetic_shape, required=True, metavar="n,d,m")
    p.add_argument("--noise", type=_non_negative, default=0.1)
    _add_forest_flags(p)
    p.add_argument("--allowed-errors", type=_budgets, required=True, help="ascending comma-separated budgets")
    p.add_argument("--instances", type=_int_at_least(1), default=10)
    p.add_argument("--min-support", type=_fraction, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        dropped = [key for key, value in vars(args).items() if value == []]
        if dropped:  # argparse before Python 3.12.7 drops the value of "--flag=--", leaving []
            raise UsageError(f"argument --{dropped[0].replace('_', '-')}: expected one argument")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
