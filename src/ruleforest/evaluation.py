"""Explanation metrics, the cross-validated experiment loop, synthetic data,
and the allowed-error scalability benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, kfold
from .forest import Forest, ForestConfig, fit, predict_batch
from .reduction import AllowedError, Rule, explain, explain_batch

# unused here; kept because the benchmark wraps these four names in this module
from .paths import extract_paths, mine  # noqa: F401
from .reduction import compose_rule, reduce_paths  # noqa: F401


@dataclass
class ExperimentRow:
    label: str
    coverage: float
    rule_precision_mae: float
    rule_precision_truth_mae: float  # vs ground-truth targets, supplementary
    rule_length: float


@dataclass
class BenchRow:
    allowed_error: float
    mean_time_seconds: float
    mean_kept_paths: float


def covered_mask(rule: Rule, data: Dataset) -> np.ndarray:
    """Boolean row mask: the rows inside the rule's box (``Rule.box``). Upper
    bounds are closed, and so are lower bounds, except the strict ones from
    ``>`` splits."""
    return rule.contains(data.features).all(axis=1)


def coverage(rule: Rule, data: Dataset) -> float:
    if data.n < 1:
        raise ValueError("empty dataset")
    return float(covered_mask(rule, data).mean())


def _mean_gap(consequent: np.ndarray, rows: np.ndarray) -> float | None:
    """Mean absolute gap between a rule's (m,) consequent values and the
    given (n, m) rows; None when there are no rows."""
    if rows.shape[0] == 0:
        return None
    return float(np.abs(rows - consequent).mean())


def _consequent(rule: Rule) -> np.ndarray:
    return np.asarray([v for _, v, _ in rule.consequent])


def rule_precision(rule: Rule, data: Dataset, forest: Forest) -> float | None:
    """MAE between the rule's predicted values and the model's predictions on
    covered rows; None when no row is covered."""
    return _mean_gap(_consequent(rule), predict_batch(forest, data.features[covered_mask(rule, data)]))


def rule_precision_truth(rule: Rule, data: Dataset) -> float | None:
    """Same comparison against the ground-truth targets instead of the model."""
    return _mean_gap(_consequent(rule), data.targets[covered_mask(rule, data)])


def rule_length(rule: Rule) -> int:
    return len(rule.antecedent)


def run_experiment(
    data: Dataset,
    config: ForestConfig,
    allowed_errors: list[AllowedError],
    k: int = 10,
    seed: int = 0,
    min_support: float = 0.1,
) -> list[ExperimentRow]:
    """Per fold: fit, explain every test instance at every budget in one
    ``explain_batch`` call and score each rule against the test split; rows
    are per-budget means over all test instances of all folds.

    The batch's rules equal ``explain``'s, and its consequent values are the
    model's predictions for the test rows, as ``predict_batch`` gives them.
    One comparison per budget gives every rule's coverage mask of the test
    split, and one mean along its rows every rule's coverage;
    ``compose_rule`` widens a rule's box to its instance, so no mask is
    empty. Each rule's coverage, precision against the predictions and
    against the targets, and length are added to the budget's sums one rule
    at a time, in test-row order, as ``coverage``, ``rule_precision``,
    ``rule_precision_truth`` and ``rule_length`` give them.
    """
    plan = kfold(data.n, k, seed)
    sums = np.zeros((len(allowed_errors), 4))  # coverage, precision, truth precision, length
    for fold in range(k):
        model = fit(data.subset(plan.train_rows(fold)), config)
        test = data.subset(plan.test_rows(fold))
        for i, rules in enumerate(explain_batch(model, test.features, allowed_errors, min_support)):
            masks = rules.covers(test.features)
            for mask, cover, consequent, length in zip(
                masks, masks.mean(axis=1).tolist(), rules.values, rules.lengths.tolist()
            ):
                sums[i] += (
                    cover,
                    _mean_gap(consequent, rules.values[mask]),
                    _mean_gap(consequent, test.targets[mask]),
                    length,
                )
    means = sums / data.n  # the folds' test splits partition the rows
    return [
        ExperimentRow(
            label=(
                f"global={allowed.values[0]:g}"
                if allowed.scheme == "global_mean"
                else "per_target=" + ",".join(f"{v:g}" for v in allowed.values)
            ),
            coverage=float(cov),
            rule_precision_mae=float(precision),
            rule_precision_truth_mae=float(truth),
            rule_length=float(length),
        )
        for allowed, (cov, precision, truth, length) in zip(allowed_errors, means)
    ]


def make_synthetic(n: int, d: int, m: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Standard-normal features mapped through a random linear map, plus
    zero-mean noise at the given scale; fully seeded."""
    if min(n, d, m) < 1:
        raise ValueError("n, d and m must be >= 1")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    weights = rng.standard_normal((d, m))
    with np.errstate(over="ignore"):  # refused below, with the flag's value rather than numpy's warning
        targets = features @ weights + noise * rng.standard_normal((n, m))
    if not np.isfinite(targets).all():
        raise ValueError(f"noise {noise:g} overflows the targets")
    return Dataset(
        features,
        targets,
        tuple(f"f{i}" for i in range(d)),
        tuple(f"t{i}" for i in range(m)),
    )


def standardize_targets(data: Dataset) -> Dataset:
    """Rescale each target to zero mean and unit standard deviation."""
    mu = data.targets.mean(axis=0)
    sd = data.targets.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return Dataset(data.features, (data.targets - mu) / sd, data.feature_names, data.target_names)


def scalability_bench(
    data: Dataset,
    config: ForestConfig,
    allowed_errors: list[float],
    instances: int = 10,
    seed: int = 0,
    min_support: float = 0.1,
) -> list[BenchRow]:
    """Fit once, then time full rule production per instance at each global
    budget; budgets are swept in ascending order."""
    if sorted(allowed_errors) != list(allowed_errors):
        raise ValueError("allowed_errors must be ascending")
    if instances < 1:
        raise ValueError("instances must be at least 1")
    model = fit(data, config)
    model.leaf_boxes  # built here, so that no timed explanation pays for the table
    rng = np.random.default_rng(seed)
    rows_idx = rng.choice(data.n, size=min(instances, data.n), replace=False)
    out = []
    for value in allowed_errors:
        allowed = AllowedError.global_mean(value)
        times, kept = [], []
        for r in rows_idx:
            result = explain(model, data.features[r], allowed, min_support=min_support)
            times.append(result.elapsed_seconds)
            kept.append(len(result.reduction.kept))
        out.append(
            BenchRow(
                allowed_error=float(value),
                mean_time_seconds=float(np.mean(times)),
                mean_kept_paths=float(np.mean(kept)),
            )
        )
    return out
