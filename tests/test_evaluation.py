import numpy as np
import pytest

from conftest import build_forest, leaf, split
from ruleforest import (
    AllowedError,
    Dataset,
    ForestConfig,
    compose_rule,
    coverage,
    explain,
    extract_paths,
    fit,
    make_synthetic,
    mine,
    predict,
    reduce_paths,
    rule_length,
    rule_precision,
    run_experiment,
    scalability_bench,
    standardize_targets,
)
import ruleforest.evaluation as evaluation_module
from ruleforest.dataset import kfold
from ruleforest.evaluation import ExperimentRow, rule_precision_truth
from ruleforest.reduction import Rule, RuleTerm


def dataset_from_features(features, m=1):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(
        features,
        np.zeros((features.shape[0], m)),
        tuple(f"f{i}" for i in range(features.shape[1])),
        tuple(f"t{i}" for i in range(m)),
    )


def simple_rule(terms, consequent):
    return Rule([RuleTerm(f, lo, hi, False) for f, lo, hi in terms], consequent, 1)


def test_coverage_empty_antecedent():
    ds = dataset_from_features([[0.5], [2.0]])
    assert coverage(simple_rule([], [(0, 0.0, 0.0)]), ds) == 1.0


def test_coverage_nothing_covered():
    ds = dataset_from_features([[0.5], [2.0]])
    assert coverage(simple_rule([(0, 5.0, 6.0)], [(0, 0.0, 0.0)]), ds) == 0.0


def test_coverage_counting():
    ds = dataset_from_features([[0.5], [2.0], [0.9]])
    assert coverage(simple_rule([(0, 0.0, 1.0)], [(0, 0.0, 0.0)]), ds) == pytest.approx(2 / 3)


def test_coverage_closed_bounds():
    ds = dataset_from_features([[1.0], [2.0]])
    assert coverage(simple_rule([(0, 1.0, 2.0)], [(0, 0.0, 0.0)]), ds) == 1.0


def test_coverage_strict_lower_bound_excludes_threshold_row():
    # the rule for x = 3 keeps the tree on its right leaf (f0 > 2); a row at
    # f0 = 2 takes the left leaf, so the rule must not cover it
    forest = build_forest([split(0, 2.0, leaf([1.0]), leaf([2.0]))], d=1)
    x = [3.0]
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    assert [(t.lo, t.lo_strict) for t in rule.antecedent] == [(2.0, True)]
    ds = dataset_from_features([[2.0], [3.0], [2.5], [1.0]])
    assert coverage(rule, ds) == 0.5
    assert rule_precision(rule, ds, forest) == 0.0  # both covered rows predict 2, as the rule says


def test_rule_precision_perfect_agreement():
    forest = build_forest([leaf([3.0])], d=1)
    ds = dataset_from_features([[0.0], [1.0]])
    rule = simple_rule([], [(0, 3.0, 0.0)])
    assert rule_precision(rule, ds, forest) == 0.0


def test_rule_precision_arithmetic():
    forest = build_forest([leaf([3.0])], d=1)
    ds = dataset_from_features([[0.0]])
    rule = simple_rule([], [(0, 1.0, 0.0)])
    assert rule_precision(rule, ds, forest) == pytest.approx(2.0)


def test_rule_precision_none_when_uncovered():
    forest = build_forest([leaf([3.0])], d=1)
    ds = dataset_from_features([[0.0]])
    rule = simple_rule([(0, 5.0, 6.0)], [(0, 1.0, 0.0)])
    assert rule_precision(rule, ds, forest) is None
    assert rule_precision_truth(rule, ds) is None


def test_rule_precision_multi_target_oracle():
    forest = build_forest(
        [split(0, 0.5, leaf([1.0, 2.0]), leaf([3.0, 4.0]))], d=1
    )
    ds = dataset_from_features([[0.0], [1.0], [0.2]], m=2)
    rule = simple_rule([(0, 0.0, 1.0)], [(0, 2.0, 0.0), (1, 2.0, 0.0)])
    # by hand: covered rows predict (1,2), (3,4), (1,2); gaps vs (2,2):
    # (1,0), (1,2), (1,0) -> mean 5/6
    assert rule_precision(rule, ds, forest) == pytest.approx(5 / 6)


def test_rule_precision_row_permutation_invariant(rng):
    forest = build_forest([split(0, 0.0, leaf([1.0]), leaf([4.0]))], d=1)
    features = rng.uniform(-2, 2, size=(20, 1))
    ds = dataset_from_features(features)
    shuffled = dataset_from_features(features[rng.permutation(20)])
    rule = simple_rule([(0, -1.0, 1.5)], [(0, 2.0, 0.0)])
    assert rule_precision(rule, ds, forest) == pytest.approx(rule_precision(rule, shuffled, forest))


def test_rule_length():
    assert rule_length(simple_rule([], [(0, 0.0, 0.0)])) == 0
    assert rule_length(simple_rule([(0, 0.0, 1.0)], [(0, 0.0, 0.0)])) == 1
    five = simple_rule([(i, 0.0, 1.0) for i in range(5)], [(0, 0.0, 0.0)])
    assert rule_length(five) == 5


# --- experiment loop ---------------------------------------------------------


def test_run_experiment_constant_targets(rng):
    ds = Dataset(rng.standard_normal((30, 3)), np.full((30, 2), 5.0), ("a", "b", "c"), ("u", "v"))
    rows = run_experiment(
        ds,
        ForestConfig(n_estimators=3, seed=0),
        [AllowedError.global_mean(0.1), AllowedError.global_mean(1.0)],
        k=3,
    )
    for row in rows:
        assert row.rule_precision_mae == pytest.approx(0.0)


def test_run_experiment_length_non_increasing():
    ds = make_synthetic(60, 5, 2, seed=4)
    rows = run_experiment(
        ds,
        ForestConfig(n_estimators=10, seed=1, min_samples_leaf=5),
        [AllowedError.global_mean(0.05), AllowedError.global_mean(50.0)],
        k=3,
    )
    assert rows[1].rule_length <= rows[0].rule_length


def test_run_experiment_labels_and_rows():
    ds = make_synthetic(30, 3, 2, seed=4)
    rows = run_experiment(
        ds,
        ForestConfig(n_estimators=2, seed=1),
        [AllowedError.global_mean(0.1), AllowedError.per_target([0.1, 0.2])],
        k=2,
    )
    assert [r.label for r in rows] == ["global=0.1", "per_target=0.1,0.2"]


def experiment_oracle(data, config, allowed_errors, k, seed=0, min_support=0.1):
    """The experiment as one loop per rule over the public scorers: every
    rule takes its own masks and its own predictions of the covered rows."""
    plan = kfold(data.n, k, seed)
    sums = [[0.0, 0.0, 0.0, 0.0] for _ in allowed_errors]
    for fold in range(k):
        model = fit(data.subset(plan.train_rows(fold)), config)
        test = data.subset(plan.test_rows(fold))
        for row in range(test.n):
            x = test.features[row]
            paths = extract_paths(model, x)
            assoc = mine(paths, min_support)
            for acc, allowed in zip(sums, allowed_errors):
                rule = compose_rule(reduce_paths(paths, assoc, allowed, model), paths, x, model)
                assert coverage(rule, test.subset(np.array([row]))) == 1.0  # the rule covers its own row
                acc[0] += coverage(rule, test)
                acc[1] += rule_precision(rule, test, model)
                acc[2] += rule_precision_truth(rule, test)
                acc[3] += rule_length(rule)
    return [[total / data.n for total in acc] for acc in sums]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "data, per_target",
    [
        (make_synthetic(36, 4, 1, seed=3), [0.2]),
        (standardize_targets(make_synthetic(45, 5, 3, seed=8)), [0.1, 0.5, 0.2]),
    ],
    ids=["one_target", "three_targets"],
)
def test_run_experiment_matches_per_rule_oracle(data, per_target, k):
    config = ForestConfig(n_estimators=8, seed=2, min_samples_leaf=3)
    allowed = [AllowedError.global_mean(v) for v in (0.0, 0.3, 1e9)] + [AllowedError.per_target(per_target)]
    rows = run_experiment(data, config, allowed, k=k)
    labels = ["global=0", "global=0.3", "global=1e+09", "per_target=" + ",".join(f"{v:g}" for v in per_target)]
    expected = [ExperimentRow(label, *means) for label, means in zip(labels, experiment_oracle(data, config, allowed, k))]
    assert rows == expected


def test_run_experiment_needs_two_folds():
    ds = make_synthetic(30, 3, 2, seed=4)
    with pytest.raises(ValueError):
        run_experiment(ds, ForestConfig(n_estimators=2), [AllowedError.global_mean(1.0)], k=1)


# --- synthetic data ----------------------------------------------------------


def test_make_synthetic_shapes():
    d1 = make_synthetic(500, 10, 5, seed=0)
    assert (d1.n, d1.d, d1.m) == (500, 10, 5)
    d2 = make_synthetic(5000, 50, 7, seed=0)
    assert (d2.n, d2.d, d2.m) == (5000, 50, 7)


def test_make_synthetic_deterministic():
    a = make_synthetic(50, 4, 2, seed=9)
    b = make_synthetic(50, 4, 2, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_noiseless_linear_target_learnable():
    ds = make_synthetic(60, 3, 1, noise=0.0, seed=2)
    forest = fit(ds, ForestConfig(n_estimators=1, max_features="all", bootstrap=False))
    preds = np.vstack([predict(forest, ds.features[i]) for i in range(ds.n)])
    assert np.abs(preds - ds.targets).max() < 1e-10


def test_standardize_targets():
    ds = make_synthetic(100, 3, 2, seed=5)
    std = standardize_targets(ds)
    np.testing.assert_allclose(std.targets.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(std.targets.std(axis=0), 1.0, atol=1e-12)


# --- scalability bench -------------------------------------------------------


def test_bench_rows_and_monotone_kept():
    ds = standardize_targets(make_synthetic(150, 6, 2, seed=6))
    config = ForestConfig(n_estimators=30, seed=6, min_samples_leaf=10)
    rows = scalability_bench(ds, config, [0.0, 0.3, 1.0], instances=5, seed=0)
    assert [r.allowed_error for r in rows] == [0.0, 0.3, 1.0]
    assert rows[0].mean_kept_paths == 30  # zero budget keeps every path
    kept = [r.mean_kept_paths for r in rows]
    assert all(a >= b for a, b in zip(kept, kept[1:]))
    assert all(r.mean_time_seconds >= 0 for r in rows)


def test_bench_builds_leaf_boxes_before_the_timed_explanations(monkeypatch):
    # the leaf-box table is built once per forest; built inside the timed
    # loop, it would land in the first budget's mean time
    built = []

    def spy(forest, x, allowed, **kwargs):
        built.append("leaf_boxes" in vars(forest))
        return explain(forest, x, allowed, **kwargs)

    monkeypatch.setattr(evaluation_module, "explain", spy)
    ds = make_synthetic(40, 3, 1, seed=1)
    scalability_bench(ds, ForestConfig(n_estimators=3, seed=0), [0.1, 0.5], instances=2)
    assert built == [True] * 4


def test_bench_requires_ascending_budgets():
    ds = make_synthetic(30, 3, 1, seed=1)
    with pytest.raises(ValueError):
        scalability_bench(ds, ForestConfig(n_estimators=2), [0.3, 0.1])


@pytest.mark.parametrize("instances", [0, -1])
def test_bench_requires_an_instance(instances):
    ds = make_synthetic(30, 3, 1, seed=1)
    with pytest.raises(ValueError, match="instances"):
        scalability_bench(ds, ForestConfig(n_estimators=2), [0.1], instances=instances)


def test_own_instance_always_covered(rng):
    ds = make_synthetic(40, 4, 2, seed=7)
    forest = fit(ds, ForestConfig(n_estimators=8, seed=7))
    from ruleforest import compose_rule, extract_paths, mine, reduce_paths

    x = ds.features[3]
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.2), forest)
    rule = compose_rule(reduction, paths, x, forest)
    assert coverage(rule, ds) >= 1 / ds.n
