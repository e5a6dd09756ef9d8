"""Explanation metrics, the cross-validated experiment loop, synthetic data,
and the allowed-error scalability benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, kfold
from .forest import Forest, ForestConfig, fit, predict_batch
from .paths import extract_paths, mine
from .reduction import AllowedError, Rule, compose_rule, explain, reduce_paths


@dataclass
class ExperimentRow:
    label: str
    coverage: float
    rule_precision_mae: float | None
    rule_precision_truth_mae: float | None  # vs ground-truth targets, supplementary
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


def rule_precision(rule: Rule, data: Dataset, forest: Forest) -> float | None:
    """MAE between the rule's predicted values and the model's predictions on
    covered rows; None when no row is covered."""
    mask = covered_mask(rule, data)
    if not mask.any():
        return None
    preds = predict_batch(forest, data.features[mask])
    consequent = np.asarray([v for _, v, _ in rule.consequent])
    return float(np.abs(preds - consequent).mean())


def rule_precision_truth(rule: Rule, data: Dataset) -> float | None:
    """Same comparison against the ground-truth targets instead of the model."""
    mask = covered_mask(rule, data)
    if not mask.any():
        return None
    consequent = np.asarray([v for _, v, _ in rule.consequent])
    return float(np.abs(data.targets[mask] - consequent).mean())


def rule_length(rule: Rule) -> int:
    return len(rule.antecedent)


def run_experiment(
    data: Dataset,
    config: ForestConfig,
    allowed_errors: list[AllowedError],
    k: int = 10,
    seed: int = 0,
    min_support: float = 0.1,
    rank_order: str = "ascending",
) -> list[ExperimentRow]:
    """Per-fold: fit, explain every test instance at each budget, score the
    rule against the test split; rows are per-budget means over all test
    instances of all folds."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    plan = kfold(data.n, k, seed)
    sums = {
        i: {"coverage": 0.0, "precision": 0.0, "precision_n": 0, "truth": 0.0, "length": 0.0, "n": 0}
        for i in range(len(allowed_errors))
    }
    for fold in range(k):
        model = fit(data.subset(plan.train_rows(fold)), config)
        test = data.subset(plan.test_rows(fold))
        for row in range(test.n):
            x = test.features[row]
            paths = extract_paths(model, x)
            assoc = mine(paths, min_support)
            for i, allowed in enumerate(allowed_errors):
                reduction = reduce_paths(paths, assoc, allowed, model, rank_order)
                rule = compose_rule(reduction, paths, x, model)
                acc = sums[i]
                acc["coverage"] += coverage(rule, test)
                acc["length"] += rule_length(rule)
                acc["n"] += 1
                precision = rule_precision(rule, test, model)
                truth = rule_precision_truth(rule, test)
                if precision is not None:
                    acc["precision"] += precision
                    acc["truth"] += truth
                    acc["precision_n"] += 1
    rows = []
    for i, allowed in enumerate(allowed_errors):
        acc = sums[i]
        label = (
            f"global={allowed.values[0]:g}"
            if allowed.scheme == "global_mean"
            else "per_target=" + ",".join(f"{v:g}" for v in allowed.values)
        )
        has_covered = acc["precision_n"] > 0
        rows.append(
            ExperimentRow(
                label=label,
                coverage=acc["coverage"] / acc["n"],
                rule_precision_mae=acc["precision"] / acc["precision_n"] if has_covered else None,
                rule_precision_truth_mae=acc["truth"] / acc["precision_n"] if has_covered else None,
                rule_length=acc["length"] / acc["n"],
            )
        )
    return rows


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
    targets = features @ weights + noise * rng.standard_normal((n, m))
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
    model = fit(data, config)
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
