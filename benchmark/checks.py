"""Output checks. Each returns a list of problems; an empty list means the
output is correct. They run outside the timed region."""

from __future__ import annotations

import csv
import json

import numpy as np

from ruleforest.forest import predict

EXPLAIN_REPORT_KEYS = frozenset(
    {
        "kept_paths",
        "excluded_paths",
        "feature_set",
        "local_errors",
        "adjusted_prediction",
        "original_prediction",
        "elapsed_seconds",
    }
)
CHECK_REPORT_KEYS = EXPLAIN_REPORT_KEYS | {"max_deviation", "envelope_violations"}
EVALUATE_HEADER = [
    "allowed_error",
    "coverage",
    "rule_precision_mae",
    "rule_precision_truth_mae",
    "rule_length",
]


def explanation(result, x, forest, allowed) -> list[str]:
    """The rule holds x, the budget accepts it, kept and excluded partition
    the trees, and the consequent is the forest's prediction for x."""
    problems = []
    for term in result.rule.antecedent:
        value = x[term.feature_index]
        above = value > term.lo if term.lo_strict else value >= term.lo
        if not (above and value <= term.hi):
            problems.append(f"rule term on feature {term.feature_index} excludes the instance")
    if not allowed.accepts(result.reduction.local_errors):
        problems.append("budget rejects the rule's local errors")
    kept, excluded = result.reduction.kept, result.reduction.excluded
    if (kept & excluded) or (kept | excluded) != frozenset(range(forest.n_trees)):
        problems.append("kept and excluded paths do not partition the trees")
    consequent = np.asarray([value for _, value, _ in result.rule.consequent])
    if not np.allclose(consequent, predict(forest, x), rtol=1e-9, atol=1e-12):
        problems.append("consequent differs from the forest prediction")
    return problems


def same_forest(forest, first, trees, x) -> list[str]:
    """A fit has the expected tree count and matches the first fit of the
    same data and seed: fitting is deterministic."""
    if forest.n_trees != trees:
        return [f"forest has {forest.n_trees} trees, not {trees}"]
    nodes = [tree.n_nodes for tree in forest.trees]
    if nodes != [tree.n_nodes for tree in first.trees] or not np.allclose(
        predict(forest, x), predict(first, x), rtol=1e-9, atol=1e-12
    ):
        return ["forest differs from the first fit with the same seed"]
    return []


def conclusive(report) -> list[str]:
    if report.envelope_violations != 0:
        return [f"{report.envelope_violations} envelope violations"]
    return []


def experiment(rows, budgets) -> list[str]:
    if len(rows) != len(budgets):
        return [f"{len(rows)} experiment rows for {len(budgets)} budgets"]
    return [f"coverage {row.coverage} outside [0, 1]" for row in rows if not 0.0 <= row.coverage <= 1.0]


def cli_explain(stdout, path, keys, reference) -> list[str]:
    """What ``ruleforest explain`` wrote matches an in-process explanation of
    the same instance and budget on the same model: the rule it printed
    (stdout is a ``#`` configuration line, then the rule) and its report file
    (a ``#`` configuration line, then JSON)."""
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[1] != reference.rendered:
        return ["printed rule differs from the library"]
    try:
        with open(path, encoding="utf-8") as fh:
            if not fh.readline().startswith("#"):
                return ["report does not start with the configuration line"]
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    missing = sorted(keys - report.keys())
    if missing:
        return [f"report lacks {', '.join(missing)}"]
    problems = []
    reduction = reference.reduction
    if report["kept_paths"] != len(reduction.kept) or report["excluded_paths"] != len(reduction.excluded):
        problems.append("report kept/excluded counts differ from the library")
    if report["feature_set"] != sorted(reduction.feature_set):
        problems.append("report feature set differs from the library")
    for key, expected in (
        ("local_errors", reduction.local_errors),
        ("adjusted_prediction", reduction.adjusted_prediction),
        ("original_prediction", reduction.original_prediction),
    ):
        if not np.allclose(report[key], expected, rtol=1e-9, atol=1e-12):
            problems.append(f"report {key} differs from the library")
    if "envelope_violations" in keys and report["envelope_violations"] != 0:
        problems.append(f"{report['envelope_violations']} envelope violations")
    return problems


def evaluate_csv(path, budgets) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"unreadable evaluate output: {exc}"]
    if not lines or not lines[0].startswith("#"):
        return ["evaluate output lacks the configuration line"]
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != EVALUATE_HEADER:
        return ["evaluate output has an unexpected header"]
    if len(rows) - 1 != len(budgets):
        return [f"evaluate wrote {len(rows) - 1} rows for {len(budgets)} budgets"]
    try:
        coverages = [float(row[1]) for row in rows[1:]]
    except (IndexError, ValueError):
        return ["evaluate output has a malformed row"]
    return [f"coverage {c} outside [0, 1]" for c in coverages if not 0.0 <= c <= 1.0]
