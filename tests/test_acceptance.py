"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 6 and 7 exercise the concrete-slump benchmark CSV when one is
supplied (RULEFOREST_SLUMP_CSV env var or tests/data/slump.csv, targets
SLUMP,FLOW,Compressive_Strength); criterion 6 otherwise falls back to a
same-shaped synthetic stand-in for its direction/regime checks, while
criterion 7's published-error band is only meaningful on the real data and
is skipped without it.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from conftest import leaf_extremes, random_forest
from test_paths import brute_force_model, mined_dicts, named_paths
from test_reduction import formula_oracle
from ruleforest import (
    AllowedError,
    ForestConfig,
    adjusted_prediction,
    check_conclusive,
    compose_rule,
    evaluate_mae,
    extract_paths,
    fit,
    kfold,
    load_csv,
    local_error,
    make_synthetic,
    mine,
    predict,
    predict_batch,
    reduce_paths,
    run_experiment,
    scalability_bench,
    standardize_targets,
)
from ruleforest.cli import main

SLUMP_TARGETS = ["SLUMP", "FLOW", "Compressive_Strength"]


def slump_csv_path():
    env = os.environ.get("RULEFOREST_SLUMP_CSV")
    if env and Path(env).exists():
        return Path(env)
    bundled = Path(__file__).parent / "data" / "slump.csv"
    return bundled if bundled.exists() else None


def report(num, description, passed):
    print(f"\ncriterion {num}: {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def d1():
    # 500 x 10 x 5 with unit-scale targets
    return standardize_targets(make_synthetic(500, 10, 5, noise=0.1, seed=7))


@pytest.fixture(scope="module")
def forest_mid(d1):
    # moderate forest whose reductions actually exclude paths in (0.05, 0.5]
    return fit(d1, ForestConfig(n_estimators=100, seed=3, min_samples_leaf=15))


def test_criterion_1_zero_budget_conclusiveness(d1):
    forest = fit(d1, ForestConfig(n_estimators=50, seed=13))
    rng = np.random.default_rng(0)
    worst = 0.0
    for row in rng.choice(d1.n, size=20, replace=False):
        x = d1.features[row]
        paths = extract_paths(forest, x)
        reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
        rule = compose_rule(reduction, paths, x, forest)
        probe = check_conclusive(rule, reduction, forest, x, trials=1000, seed=int(row))
        worst = max(worst, float(probe.max_deviation.max()))
    report(1, f"zero-budget rules hold predictions to 1e-9 (worst {worst:.2e})", worst <= 1e-9)


def test_criterion_2_envelope_soundness(forest_mid, d1):
    rng = np.random.default_rng(1)
    violations = 0
    exclusions_seen = 0
    for budget in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        for row in rng.choice(d1.n, size=3, replace=False):
            x = d1.features[row]
            paths = extract_paths(forest_mid, x)
            reduction = reduce_paths(
                paths, mine(paths), AllowedError.global_mean(budget), forest_mid
            )
            rule = compose_rule(reduction, paths, x, forest_mid)
            probe = check_conclusive(
                rule, reduction, forest_mid, x, trials=1000, seed=int(row)
            )
            violations += probe.envelope_violations
            exclusions_seen += len(reduction.excluded)
    assert exclusions_seen > 0, "sweep never produced a real reduction; test is vacuous"
    report(2, f"0 envelope violations across the budget sweep (got {violations})", violations == 0)


def test_criterion_3_local_error_identity(rng):
    worst_identity = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        n_trees = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        forest = random_forest(rng, n_trees, d=3, m=m, depth=3)
        x = rng.uniform(-8, 8, size=3)
        paths = extract_paths(forest, x)
        kept = set(rng.choice(n_trees, size=int(rng.integers(1, n_trees + 1)), replace=False).tolist())
        errors = local_error(paths, kept, forest)
        adjusted = adjusted_prediction(paths, kept, forest)
        gap = np.abs(adjusted - predict(forest, x))
        worst_identity = max(worst_identity, float(np.abs(gap - errors).max()))
        want_local, want_adjusted = formula_oracle(
            [p.leaf_prediction.tolist() for p in paths],
            [leaf_extremes(t)[0].tolist() for t in forest.trees],
            [leaf_extremes(t)[1].tolist() for t in forest.trees],
            kept,
        )
        worst_oracle = max(
            worst_oracle,
            float(np.abs(errors - want_local).max()),
            float(np.abs(adjusted - want_adjusted).max()),
        )
    ok = worst_identity <= 1e-12 and worst_oracle <= 1e-12
    report(
        3,
        f"|p'-p| == local error and both match the direct formulas "
        f"(identity {worst_identity:.2e}, oracle {worst_oracle:.2e})",
        ok,
    )


def test_criterion_4_apriori_oracle(rng):
    mismatches = 0
    for _ in range(200):
        n_paths = int(rng.integers(1, 33))
        transactions = [
            frozenset(rng.choice(6, size=rng.integers(0, 7), replace=False).tolist())
            for _ in range(n_paths)
        ]
        min_support = float(rng.uniform(0.05, 1.0))
        got_supports, got_rules, got_scores = mined_dicts(mine(named_paths(transactions), min_support))
        supports, rules, scores = brute_force_model(transactions, min_support)
        same = (
            set(got_supports) == set(supports)
            and all(abs(got_supports[k] - supports[k]) <= 1e-12 for k in supports)
            and len(got_rules) == len(rules)
            and all(
                a == ea and b == eb and abs(c - ec) <= 1e-12
                for (a, b, c), (ea, eb, ec) in zip(got_rules, rules)
            )
            and set(got_scores) == set(scores)
            and all(abs(got_scores[f] - scores[f]) <= 1e-12 for f in scores)
        )
        mismatches += not same
    report(4, f"mining matches exhaustive enumeration on 200 cases ({mismatches} mismatches)", mismatches == 0)


@pytest.fixture(scope="module")
def bench_rows(d1):
    config = ForestConfig(n_estimators=500, seed=3, min_samples_leaf=25)
    return scalability_bench(
        d1, config, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3], instances=20, seed=5
    )


def test_criterion_5a_kept_paths_trend(bench_rows):
    kept = [r.mean_kept_paths for r in bench_rows]
    monotone = all(a >= b for a, b in zip(kept, kept[1:]))
    drop = 1.0 - kept[-1] / kept[0]
    report(
        "5a",
        f"mean kept paths non-increasing with >=5% total drop (kept {kept}, drop {drop:.1%})",
        monotone and drop >= 0.05,
    )


def test_criterion_5b_time_trend(bench_rows):
    times = [r.mean_time_seconds for r in bench_rows]
    monotone = all(a <= b for a, b in zip(times, times[1:]))
    report(
        "5b",
        "per-rule time non-decreasing in allowed error "
        f"(ms {[round(t * 1000, 2) for t in times]})",
        monotone,
    )


def test_criterion_6_metric_trends():
    path = slump_csv_path()
    if path is not None:
        data = load_csv(path, SLUMP_TARGETS)
        config = ForestConfig(n_estimators=100, seed=2, max_depth=3, min_samples_leaf=10)
        budgets = [0.2, 0.25, 0.5]
        source = "slump CSV"
    else:
        data = standardize_targets(make_synthetic(103, 7, 3, noise=0.3, seed=11))
        config = ForestConfig(n_estimators=50, seed=2, max_depth=3, min_samples_leaf=10)
        budgets = [0.1, 0.5, 1.5]
        source = "synthetic 103x7x3 stand-in"
    rows = run_experiment(
        data, config, [AllowedError.global_mean(v) for v in budgets], k=10, seed=0
    )
    lengths = [r.rule_length for r in rows]
    precisions = [r.rule_precision_mae for r in rows]
    coverages = [r.coverage for r in rows]
    length_ok = all(a >= b for a, b in zip(lengths, lengths[1:]))
    precision_ok = all(p is not None for p in precisions) and all(
        a <= b for a, b in zip(precisions, precisions[1:])
    )
    regime_ok = all(c < 1.0 for c in coverages) and all(l <= data.d for l in lengths)
    report(
        6,
        f"{source}: lengths {np.round(lengths, 2).tolist()} non-increasing, "
        f"precision {np.round(precisions, 4).tolist()} non-decreasing, "
        f"coverage {np.round(coverages, 3).tolist()} << 1",
        length_ok and precision_ok and regime_ok,
    )


def test_criterion_7_forest_sanity():
    path = slump_csv_path()
    if path is None:
        pytest.skip(
            "published-error sanity band needs the real slump CSV "
            "(set RULEFOREST_SLUMP_CSV or add tests/data/slump.csv)"
        )
    data = load_csv(path, SLUMP_TARGETS)
    plan = kfold(data.n, 10, seed=0)
    config = ForestConfig(n_estimators=500, seed=0)
    abs_err = np.zeros(data.m)
    for fold in range(10):
        model = fit(data.subset(plan.train_rows(fold)), config)
        test = data.subset(plan.test_rows(fold))
        abs_err += np.abs(predict_batch(model, test.features) - test.targets).sum(axis=0)
    mean_mae = float((abs_err / data.n).mean())
    ok = 1.7311 / 2 <= mean_mae <= 1.7311 * 2
    report(7, f"10-fold CV MAE {mean_mae:.4f} within a factor of 2 of 1.7311", ok)


def test_criterion_8_budget_monotonicity(forest_mid, d1):
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(50):
        x = d1.features[int(rng.integers(d1.n))]
        a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
        paths = extract_paths(forest_mid, x)
        assoc = mine(paths)
        red_a = reduce_paths(paths, assoc, AllowedError.global_mean(float(a)), forest_mid)
        red_b = reduce_paths(paths, assoc, AllowedError.global_mean(float(b)), forest_mid)
        if len(red_a.kept) < len(red_b.kept) or not red_a.feature_set >= red_b.feature_set:
            failures += 1
    report(8, f"tighter budgets keep supersets on 50 random pairs ({failures} failures)", failures == 0)


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    from ruleforest import save_csv

    data = tmp_path / "data.csv"
    save_csv(make_synthetic(60, 4, 2, seed=21), data)

    def one_run(tag):
        model = tmp_path / f"{tag}.model"
        rule_report = tmp_path / f"{tag}.json"
        eval_report = tmp_path / f"{tag}.csv"
        assert main(
            ["train", "--data", str(data), "--targets", "t0,t1",
             "--estimators", "10", "--seed", "3", "--out", str(model)]
        ) == 0
        assert main(
            ["explain", "--model", str(model), "--instance", "0.1,0.2,0.3,0.4",
             "--allowed-error", "0.3", "--report", str(rule_report)]
        ) == 0
        rule_line = capsys.readouterr().out.splitlines()[-1]
        assert main(
            ["evaluate", "--data", str(data), "--targets", "t0,t1", "--estimators", "5",
             "--allowed-errors", "0.1,1.0", "--folds", "3", "--out", str(eval_report)]
        ) == 0

        def stable(path):
            return [
                line
                for line in path.read_text().splitlines()
                if "elapsed_seconds" not in line
                and not line.lstrip("# ").startswith("ruleforest")  # config echo names tmp dirs
            ]

        return model.read_bytes(), rule_line, stable(rule_report), stable(eval_report)

    first = one_run("a")
    second = one_run("b")
    report(9, "train -> explain -> evaluate is byte-identical across reruns", first == second)
