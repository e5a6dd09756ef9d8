import functools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_forest, leaf, leaf_extremes, leaf_for, random_forest, split
from test_paths import instances_on_thresholds, mined_dicts, reference_mine
from ruleforest import (
    AllowedError,
    Dataset,
    ForestConfig,
    adjusted_prediction,
    check_conclusive,
    compose_rule,
    coverage,
    default_allowed_error,
    extract_paths,
    fit,
    local_error,
    make_synthetic,
    mine,
    predict,
    predict_batch,
    reduce_paths,
    render_rule,
)
import ruleforest.reduction as reduction_module
from ruleforest.forest import LEAF, ModelError
from ruleforest.paths import rank_features
from ruleforest.reduction import MAX_PRECISION, Rule, RuleTerm, _step_gaps, explain, explain_batch


def formula_oracle(preds, mins, maxs, kept):
    """Direct, loop-based evaluation of the substitution formulas: excluded
    trees move together to the side (low/high leaf extreme) whose total
    distance from the tree predictions is largest, per target; the local
    error is the mean absolute prediction gap and the adjusted prediction is
    the mean of the substituted column."""
    n_trees, m = len(preds), len(preds[0])
    excluded = [i for i in range(n_trees) if i not in kept]
    r = [list(row) for row in preds]
    for t in range(m):
        low = sum(preds[i][t] - mins[i][t] for i in excluded)
        high = sum(maxs[i][t] - preds[i][t] for i in excluded)
        for i in excluded:
            r[i][t] = mins[i][t] if low >= high else maxs[i][t]
    local = [sum(abs(preds[i][t] - r[i][t]) for i in range(n_trees)) / n_trees for t in range(m)]
    adjusted = [sum(r[i][t] for i in range(n_trees)) / n_trees for t in range(m)]
    return np.asarray(local), np.asarray(adjusted)


def forest_and_paths(rng, n_trees=4, d=3, m=2, depth=3):
    forest = random_forest(rng, n_trees, d, m, depth)
    x = rng.uniform(-8, 8, size=d)
    return forest, x, extract_paths(forest, x)


# --- local error and adjusted prediction -------------------------------------


def test_local_error_all_kept_is_zero(rng):
    forest, _, paths = forest_and_paths(rng)
    np.testing.assert_array_equal(local_error(paths, range(len(paths)), forest), [0.0, 0.0])


def test_local_error_two_tree_hand_case():
    # kept tree predicts 2; excluded tree predicts 4 with leaf extremes [1, 5]
    forest = build_forest(
        [leaf([2.0]), split(0, 0.0, leaf([1.0]), split(0, 5.0, leaf([4.0]), leaf([5.0])))],
        d=1,
    )
    paths = extract_paths(forest, [3.0])
    assert local_error(paths, {0}, forest) == pytest.approx([1.5])
    assert adjusted_prediction(paths, {0}, forest) == pytest.approx([1.5])


def test_against_formula_oracle(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=3, d=3, m=2)
    kept = {1}
    preds = [p.leaf_prediction.tolist() for p in paths]
    mins = [leaf_extremes(t)[0].tolist() for t in forest.trees]
    maxs = [leaf_extremes(t)[1].tolist() for t in forest.trees]
    want_local, want_adjusted = formula_oracle(preds, mins, maxs, kept)
    np.testing.assert_allclose(local_error(paths, kept, forest), want_local, atol=1e-12)
    np.testing.assert_allclose(adjusted_prediction(paths, kept, forest), want_adjusted, atol=1e-12)


def test_adjusted_no_exclusions_is_forest_prediction(rng):
    forest, x, paths = forest_and_paths(rng)
    np.testing.assert_allclose(
        adjusted_prediction(paths, range(len(paths)), forest), predict(forest, x), atol=1e-12
    )


def test_error_identity_random_forests(rng):
    for _ in range(30):
        forest, x, paths = forest_and_paths(rng, n_trees=int(rng.integers(2, 6)))
        n = len(paths)
        kept = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        gap = np.abs(adjusted_prediction(paths, kept, forest) - predict(forest, x))
        np.testing.assert_allclose(gap, local_error(paths, kept, forest), atol=1e-12)


def test_empty_kept_rejected(rng):
    forest, _, paths = forest_and_paths(rng)
    with pytest.raises(ValueError):
        local_error(paths, set(), forest)


# --- allowed error -----------------------------------------------------------


def test_allowed_error_validation():
    with pytest.raises(ValueError):
        AllowedError.global_mean(-1.0)
    for values in ([0.1, -0.2], [0.1, float("nan")]):
        with pytest.raises(ValueError, match="non-negative"):
            AllowedError.per_target(values)
    with pytest.raises(ValueError, match="non-negative"):
        AllowedError.global_mean(float("nan"))
    with pytest.raises(ValueError):
        AllowedError("global_mean", [0.1, 0.2])
    with pytest.raises(ValueError):
        AllowedError("weird", [0.1])
    for values in ([], [[0.1]], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="non-empty vector"):
            AllowedError("per_target", values)
    with pytest.raises(ValueError, match="non-empty vector"):
        AllowedError.per_target([])


def test_infinite_budget_is_accepted(rng):
    forest, x, _ = forest_and_paths(rng, n_trees=5)
    for allowed in (AllowedError.global_mean(np.inf), AllowedError.per_target([np.inf, np.inf])):
        result = explain(forest, x, allowed)
        assert result.reduction.kept


def test_per_target_length_checked():
    allowed = AllowedError.per_target([0.1, 0.2])
    with pytest.raises(ValueError):
        allowed.accepts(np.zeros(3))


def test_scheme_semantics():
    assert AllowedError.global_mean(0.5).accepts(np.array([0.1, 0.8]))  # mean 0.45
    assert not AllowedError.global_mean(0.4).accepts(np.array([0.1, 0.8]))
    assert AllowedError.per_target([0.2, 0.9]).accepts(np.array([0.1, 0.8]))
    assert not AllowedError.per_target([0.2, 0.7]).accepts(np.array([0.1, 0.8]))


# --- the reduction loop ------------------------------------------------------


def test_zero_budget_keeps_everything(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=6)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    assert reduction.kept == frozenset(range(6))
    assert reduction.excluded == frozenset()
    assert reduction.feature_set == frozenset().union(*(p.feature_set for p in paths))
    np.testing.assert_array_equal(reduction.local_errors, 0.0)


def test_huge_budget_stops_at_first_nonempty_kept(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=6)
    assoc = mine(paths)
    reduction = reduce_paths(paths, assoc, AllowedError.global_mean(1e18), forest)
    # replay the enrichment order to find the first non-empty kept set
    enriched = set()
    expected = frozenset(i for i, p in enumerate(paths) if not p.conditions)
    for f in rank_features(assoc):
        if expected:
            break
        enriched.add(f)
        expected = frozenset(i for i, p in enumerate(paths) if p.feature_set <= enriched)
    assert reduction.kept == expected


def test_enrichment_trajectory_monotone(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=8, d=4, depth=4)
    assoc = mine(paths)
    enriched = set()
    prev_kept = set()
    prev_err = None
    for f in rank_features(assoc):
        enriched.add(f)
        kept = {i for i, p in enumerate(paths) if p.feature_set <= enriched}
        assert kept >= prev_kept
        if kept:
            err = local_error(paths, kept, forest)
            if prev_err is not None:
                assert (err <= prev_err + 1e-12).all()
            prev_err = err
        prev_kept = kept


def test_budget_monotonicity(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=10, d=4, depth=4)
    assoc = mine(paths)
    for _ in range(10):
        a, b = sorted(rng.uniform(0, 3, size=2))
        red_a = reduce_paths(paths, assoc, AllowedError.global_mean(a), forest)
        red_b = reduce_paths(paths, assoc, AllowedError.global_mean(b), forest)
        assert len(red_a.kept) >= len(red_b.kept)
        assert red_a.feature_set >= red_b.feature_set


def test_reduction_result_invariants(rng):
    forest, _, paths = forest_and_paths(rng, n_trees=8, d=4, depth=4)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.5), forest)
    assert reduction.kept | reduction.excluded == frozenset(range(8))
    assert not reduction.kept & reduction.excluded
    assert reduction.kept
    for i in reduction.kept:
        assert paths[i].feature_set <= reduction.feature_set


def loop_oracle(paths, assoc, allowed, forest):
    """Reference reduction: re-test the kept set and substitute the excluded
    trees at every enrichment step, then bound the forest with the kept trees'
    predictions plus the excluded trees' leaf extremes."""
    preds = np.vstack([p.leaf_prediction for p in paths])
    mins, maxs = (np.vstack(side) for side in zip(*map(leaf_extremes, forest.trees)))
    n = len(paths)

    def substituted(kept):
        r_preds = preds.copy()
        excluded = np.asarray([i for i in range(n) if i not in kept], dtype=np.int64)
        if excluded.size == 0:
            return r_preds
        low_total = (preds[excluded] - mins[excluded]).sum(axis=0)
        high_total = (maxs[excluded] - preds[excluded]).sum(axis=0)
        r_preds[excluded] = np.where(low_total >= high_total, mins[excluded], maxs[excluded])
        return r_preds

    feature_set = set()
    for f in [None] + rank_features(assoc):
        if f is not None:
            feature_set.add(f)
        kept = frozenset(i for i in range(n) if paths[i].feature_set <= feature_set)
        if not kept:
            continue
        errors = np.abs(preds - substituted(kept)).mean(axis=0)
        if allowed.accepts(errors):
            break
    keep = np.asarray(sorted(kept), dtype=np.int64)
    excl = np.asarray([i for i in range(n) if i not in kept], dtype=np.int64)
    kept_sum = preds[keep].sum(axis=0)
    envelope = ((kept_sum + mins[excl].sum(axis=0)) / n, (kept_sum + maxs[excl].sum(axis=0)) / n)
    return kept, frozenset(feature_set), errors, substituted(kept).mean(axis=0), envelope


def test_single_pass_matches_loop_oracle(rng):
    for _ in range(15):
        m = int(rng.integers(1, 4))
        forest, _, paths = forest_and_paths(rng, n_trees=int(rng.integers(2, 12)), d=4, m=m, depth=4)
        assoc = mine(paths)
        budgets = [AllowedError.global_mean(v) for v in (0.0, float(rng.uniform(0, 2)), 1e18)]
        budgets += [AllowedError.per_target(v) for v in (np.zeros(m), rng.uniform(0, 2, m), np.full(m, 1e18))]
        for allowed in budgets:
            got = reduce_paths(paths, assoc, allowed, forest)
            kept, feature_set, errors, adjusted, envelope = loop_oracle(paths, assoc, allowed, forest)
            assert got.kept == kept
            assert got.feature_set == feature_set
            np.testing.assert_allclose(got.local_errors, errors, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.adjusted_prediction, adjusted, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.envelope, envelope, rtol=0, atol=1e-12)
            if not got.excluded:
                np.testing.assert_array_equal(got.local_errors, 0.0)


def reference_step_gaps(preds, leaf_min, leaf_max, entry, n_steps):
    """Oracle: the four step totals with every row added into its entry
    step's bin by ``np.add.at``, one tree at a time."""
    rows = np.hstack([preds - leaf_min, leaf_max - preds])
    by_entry = np.zeros((n_steps + 1, rows.shape[1]))
    np.add.at(by_entry, entry, rows)
    totals = np.cumsum(by_entry[::-1], axis=0)[::-1][1:]
    low_total, high_total = np.hsplit(totals, 2)
    take_low = low_total >= high_total
    low_taken, high_taken = np.where(take_low, low_total, 0.0), np.where(take_low, 0.0, high_total)
    return low_total, high_total, high_taken - low_taken, low_taken + high_taken


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()  # signed zeros included


def assert_step_gaps_exact(preds, leaf_min, leaf_max, entry, n_steps):
    forest = SimpleNamespace(leaf_min=leaf_min, leaf_max=leaf_max)
    got = _step_gaps(preds, forest, entry, n_steps)
    assert_same_bits(got, reference_step_gaps(preds, leaf_min, leaf_max, entry, n_steps))
    # as the middle instance of three, with its own bins, it totals the same
    stacked = _step_gaps(np.stack([preds[::-1], preds, preds]), forest, np.stack([entry[::-1], entry, entry]), n_steps)
    assert_same_bits([totals[1] for totals in stacked], got)
    # from the step every tree has entered on, nothing is excluded
    assert not got.abs_shift[entry.max() :].any()
    assert not np.signbit(got.abs_shift[entry.max() :]).any()


GAP_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.5, 1e-300, -1e-300, 3e16, -7.25]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_totals_equal_add_at_bit_for_bit(data):
    n, m, n_steps = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))

    def values():
        return np.asarray(data.draw(st.lists(st.sampled_from(GAP_VALUES), min_size=n * m, max_size=n * m))).reshape(n, m)

    entry = np.asarray(data.draw(st.lists(st.integers(0, n_steps), min_size=n, max_size=n)), dtype=np.int64)
    assert_step_gaps_exact(values(), values(), values(), entry, n_steps)


def test_step_totals_equal_add_at_on_forests(rng):
    for _ in range(100):
        forest, _, paths = forest_and_paths(rng, n_trees=int(rng.integers(1, 30)), d=4, m=int(rng.integers(1, 4)), depth=4)
        n_steps = int(rng.integers(1, 6))
        # entry steps up to n_steps, the step no ranked feature set reaches
        entry = rng.integers(0, int(rng.integers(1, n_steps + 2)), size=len(paths))
        assert_step_gaps_exact(paths.leaf_prediction, forest.leaf_min, forest.leaf_max, entry, n_steps)


def reference_accepts(allowed, local_errors):
    """Oracle: the budget test on one step's errors."""
    if allowed.scheme == "global_mean":
        return float(local_errors.mean()) <= float(allowed.values[0])
    return bool((local_errors <= allowed.values).all())


@pytest.mark.parametrize("m", [1, 5, 8, 9, 17, 40])  # around the block edges of numpy's pairwise sums
def test_budget_test_over_steps_equals_accepts_row_by_row(rng, m):
    for _ in range(40):
        errors = rng.random((int(rng.integers(1, 12)), m)) * 10.0 ** rng.integers(-3, 3, size=m)
        row = errors[rng.integers(errors.shape[0])]
        mean = row.mean()
        budgets = [AllowedError.global_mean(v) for v in (mean, np.nextafter(mean, 0), np.nextafter(mean, 1), rng.uniform(0, 1))]
        budgets += [AllowedError.per_target(v) for v in (row, np.nextafter(row, 0), rng.uniform(0, errors.max(), m))]
        for allowed in budgets:
            want = [reference_accepts(allowed, step) for step in errors]
            assert allowed.passes(errors).tolist() == want
            assert allowed.passes(np.asfortranarray(errors)).tolist() == want
            assert [allowed.accepts(step) for step in errors] == want


def test_trace_records_every_step(rng):
    for _ in range(15):
        m = int(rng.integers(1, 4))
        forest, _, paths = forest_and_paths(rng, n_trees=int(rng.integers(2, 12)), d=4, m=m, depth=4)
        assoc = mine(paths)
        budgets = [AllowedError.global_mean(v) for v in (0.0, float(rng.uniform(0, 2)), 1e18)]
        budgets.append(AllowedError.per_target(rng.uniform(0, 2, m)))
        for allowed in budgets:
            got = reduce_paths(paths, assoc, allowed, forest)
            trace = got.trace
            steps = len(trace.ranking) + 1
            assert trace.ranking == rank_features(assoc)
            assert trace.kept_counts.shape == (steps,) and trace.local_errors.shape == (steps, m)
            np.testing.assert_array_equal(trace.local_errors[trace.accepted_step], got.local_errors)
            assert trace.kept_counts[trace.accepted_step] == len(got.kept)
            assert (np.diff(trace.kept_counts) >= 0).all() and trace.kept_counts[-1] == len(paths)
            assert got.feature_set == frozenset(trace.ranking[: trace.accepted_step])
            for k in range(steps):
                enriched = set(trace.ranking[:k])
                kept = {i for i, p in enumerate(paths) if p.feature_set <= enriched}
                assert trace.kept_counts[k] == len(kept)
                if kept:
                    want = local_error(paths, kept, forest)
                    np.testing.assert_allclose(trace.local_errors[k], want, rtol=0, atol=1e-12)
                if k < trace.accepted_step:  # an earlier step kept nothing or missed the budget
                    assert not kept or not allowed.accepts(trace.local_errors[k])


# --- default allowed error ---------------------------------------------------


def test_default_allowed_error_constant_dataset(rng):
    ds = Dataset(rng.standard_normal((40, 3)), np.full((40, 2), 3.0), ("a", "b", "c"), ("u", "v"))
    allowed = default_allowed_error(ds, ForestConfig(n_estimators=5, seed=0), k=4)
    assert allowed.scheme == "per_target"
    np.testing.assert_allclose(allowed.values, 0.0, atol=1e-12)


def test_default_allowed_error_scale_equivariant():
    ds = make_synthetic(60, 4, 2, seed=2)
    scaled = Dataset(ds.features, ds.targets * 10.0, ds.feature_names, ds.target_names)
    config = ForestConfig(n_estimators=5, seed=0)
    base = default_allowed_error(ds, config, k=5)
    big = default_allowed_error(scaled, config, k=5)
    # near-tie splits can flip under scaling, so equivariance is approximate
    np.testing.assert_allclose(big.values, base.values * 10.0, rtol=0.15)


# --- rule composition --------------------------------------------------------


def test_compose_single_path_identity():
    forest = build_forest(
        [split(0, 5.0, split(0, 2.0, leaf([1.0]), leaf([2.0])), leaf([3.0]))], d=1
    )
    x = [3.0]
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    [term] = rule.antecedent
    assert (term.feature_index, term.lo, term.hi, term.lo_strict) == (0, 2.0, 5.0, True)


def test_compose_intersects_ranges():
    # f0 intervals (2, 5] and (3, 7] intersect to (3, 5]
    forest = build_forest(
        [
            split(0, 5.0, split(0, 2.0, leaf([1.0]), leaf([2.0])), leaf([3.0])),
            split(0, 3.0, leaf([1.0]), split(0, 7.0, leaf([2.0]), leaf([3.0]))),
        ],
        d=1,
    )
    x = [4.0]
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    [term] = compose_rule(reduction, paths, x, forest).antecedent
    assert (term.lo, term.hi) == (3.0, 5.0)


def test_compose_clamps_unbounded_sides():
    forest = build_forest([split(0, 5.0, leaf([1.0]), leaf([2.0]))], d=1,
                          bounds=[[-4.0, 9.0]])
    x = [3.0]
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    [term] = compose_rule(reduction, paths, x, forest).antecedent
    assert (term.lo, term.hi, term.lo_strict) == (-4.0, 5.0, False)


def test_zero_reduction_rule_is_conclusive_on_grid():
    forest = build_forest(
        [
            split(0, 0.0, leaf([1.0]), leaf([2.0])),
            split(1, 1.0, leaf([5.0]), leaf([6.0])),
        ],
        d=2,
    )
    x = np.array([-1.0, 0.0])
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    base = predict(forest, x)
    intervals = {t.feature_index: (t.lo, t.hi) for t in rule.antecedent}
    grid0 = np.linspace(*intervals.get(0, (-10, 10)), 9)
    grid1 = np.linspace(*intervals.get(1, (-10, 10)), 9)
    for v0 in grid0:
        for v1 in grid1:
            np.testing.assert_allclose(predict(forest, [v0, v1]), base, atol=1e-12)


def reference_compose_rule(reduction, paths, x, forest):
    """Oracle: intersect the kept paths' conditions one feature at a time."""
    x = np.asarray(x, dtype=np.float64)
    terms = []
    for f in sorted({f for i in reduction.kept for f in paths[i].conditions}):
        lo, hi = -np.inf, np.inf
        for i in reduction.kept:
            cond = paths[i].conditions.get(f)
            if cond is not None:
                lo = max(lo, cond[0])
                hi = min(hi, cond[1])
        lo_strict = np.isfinite(lo)
        if not lo_strict:
            lo = float(forest.feature_bounds[f, 0])
        if not np.isfinite(hi):
            hi = float(forest.feature_bounds[f, 1])
        lo = min(lo, float(x[f]))
        hi = max(hi, float(x[f]))
        terms.append(RuleTerm(f, float(lo), float(hi), lo_strict))
    consequent = [
        (t, float(reduction.original_prediction[t]), float(reduction.local_errors[t]))
        for t in range(forest.m)
    ]
    return Rule(antecedent=terms, consequent=consequent, kept_path_count=len(reduction.kept))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_trees=st.integers(min_value=2, max_value=30),
    d=st.integers(min_value=9, max_value=14),
    depth=st.integers(min_value=2, max_value=6),
    support_count=st.integers(min_value=1, max_value=4),
)
def test_array_stages_equal_reference_stages(seed, n_trees, d, depth, support_count):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, n_trees, d, m=2, depth=depth)
    # a share of paths that some pairs reach exactly, so min_support sits on a support
    min_support = min(support_count, n_trees) / n_trees
    X = np.vstack([instances_on_thresholds(forest, rng, 3), rng.uniform(-12, 12, size=(1, d))])
    for x in X:
        paths = extract_paths(forest, x)
        assoc = mine(paths, min_support)
        supports, rules, scores = mined_dicts(assoc)
        want_supports, want_rules, want_scores = reference_mine(paths, min_support)
        assert supports == want_supports
        assert rules == want_rules
        assert scores == want_scores
        for budget in (0.0, float(rng.uniform(0.1, 2.0)), 1e18):
            reduction = reduce_paths(paths, assoc, AllowedError.global_mean(budget), forest)
            rule = compose_rule(reduction, paths, x, forest)
            expected = reference_compose_rule(reduction, paths, x, forest)
            assert rule.antecedent == expected.antecedent
            assert rule.consequent == expected.consequent
            assert rule.kept_path_count == expected.kept_path_count


# --- rendering ---------------------------------------------------------------


def test_render_single_term():
    rule = Rule(
        antecedent=[RuleTerm(0, 2.0, 5.0, False)],
        consequent=[(0, 1.5, 0.0)],
        kept_path_count=1,
    )
    assert render_rule(rule, ["f0"], ["t0"]) == "if 2.00 <= f0 <= 5.00 then t0: 1.50±0.00"


def test_render_nudges_strict_lower_bound():
    rule = Rule([RuleTerm(0, 2.0, 5.0, True)], [(0, 1.0, 0.5)], 1)
    assert render_rule(rule, ["f0"], ["t0"], precision=1) == "if 2.1 <= f0 <= 5.0 then t0: 1.0±0.5"


@pytest.mark.parametrize(
    "lo, precision",
    # a step under half an ulp of lo; then a step near one ulp, which prints back onto lo
    [(2.0, 16), (2.0, 17), (2.0, 400), (1e17, 2), (-1e17, 2), (0.04650635754578079, 17), (-57103993.72241426, 8)],
)
def test_render_strict_lower_bound_reads_back_above_it(lo, precision):
    rule = Rule([RuleTerm(0, lo, 2e17, True)], [(0, 1.0, 0.5)], 1)
    shown = render_rule(rule, ["f0"], ["t0"], precision=precision).split()[1]
    assert float(shown) > lo


def test_render_empty_antecedent():
    rule = Rule([], [(0, 1.0, 0.2), (1, 2.0, 0.3)], 3)
    assert render_rule(rule, [], ["u", "v"]) == "then u: 1.00±0.20, v: 2.00±0.30"


def test_render_precision_stops_where_float64_digits_end():
    tiny = 5e-324  # the smallest subnormal float64, 2**-1074: its expansion is the longest
    rule = Rule([], [(0, tiny, 0.0)], 1)
    text = render_rule(rule, [], ["t0"], precision=MAX_PRECISION)
    assert text.startswith("then t0: 0.") and text.split("±")[0].endswith("5")  # every digit shown, the last nonzero
    assert f"{tiny:.{MAX_PRECISION + 1}f}".endswith("50")  # one more place only pads a zero
    for precision in (-1, MAX_PRECISION + 1, 3_000_000_000):
        with pytest.raises(ValueError, match="precision must be in"):
            render_rule(rule, [], ["t0"], precision=precision)


def test_render_multi_term_shape(rng):
    forest, x, paths = forest_and_paths(rng, n_trees=5, d=4, depth=4)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    text = render_rule(rule, forest.feature_names, forest.target_names)
    assert text.startswith("if ")
    assert " then " in text
    assert text.count("±") == forest.m


# --- conclusiveness certificate ----------------------------------------------


def test_check_conclusive_zero_reduction(rng):
    forest, x, paths = forest_and_paths(rng, n_trees=5, d=3, depth=4)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    report = check_conclusive(rule, reduction, forest, x, trials=300, seed=7)
    assert report.envelope_violations == 0
    np.testing.assert_allclose(report.max_deviation, 0.0, atol=1e-12)


def test_check_conclusive_no_envelope_violations(rng):
    for trial in range(5):
        forest, x, paths = forest_and_paths(rng, n_trees=8, d=4, depth=4)
        budget = float(rng.uniform(0.1, 2.0))
        reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(budget), forest)
        rule = compose_rule(reduction, paths, x, forest)
        report = check_conclusive(rule, reduction, forest, x, trials=1000, seed=trial)
        assert report.envelope_violations == 0


# the oracle's predict_batch may total the trees in another order than the
# certificate, which moves a sum by a few units in the last place
SUM_SLACK = 1e-9


def sampled_predictions(rule, forest, trials, seed):
    """The sampled probe ``check_conclusive`` once ran, kept as an oracle:
    forest predictions at uniform points with the antecedent features inside
    their rule interval and every other feature inside the training bounds."""
    rng = np.random.default_rng(seed)
    lo = forest.feature_bounds[:, 0].copy()
    hi = forest.feature_bounds[:, 1].copy()
    for term in rule.antecedent:
        lo[term.feature_index], hi[term.feature_index] = term.lo, term.hi
    return predict_batch(forest, rng.uniform(lo, hi, size=(trials, forest.d)))


def bound_points(rule, x):
    """x with one antecedent feature moved onto an edge of its interval: a
    closed lower bound, the float just above a strict one, and the upper bound."""
    points = [x]
    for term in rule.antecedent:
        for value in (np.nextafter(term.lo, np.inf) if term.lo_strict else term.lo, term.hi):
            point = x.copy()
            point[term.feature_index] = value
            points.append(point)
    return np.vstack(points)


def leaf_box_range(rule, forest):
    """The prediction range over the rule region from every tree's leaf
    boxes, (a, b] per feature: a leaf counts when its box meets the region.

    Also says whether some leaf's own box is empty, which a random tree that
    splits a feature twice in conflicting ways can have and ``fit`` never
    grows; the certificate may count such a leaf."""
    lo = np.full(forest.d, -np.inf)
    hi = np.full(forest.d, np.inf)
    strict = np.zeros(forest.d, dtype=bool)
    for term in rule.antecedent:
        lo[term.feature_index], hi[term.feature_index], strict[term.feature_index] = term.lo, term.hi, term.lo_strict
    lows, highs, dead = [], [], False
    for tree in forest.trees:
        values = []
        stack = [(0, np.full(forest.d, -np.inf), np.full(forest.d, np.inf))]
        while stack:
            node, a, b = stack.pop()
            f = tree.feature[node]
            if f == LEAF:
                dead |= bool((a >= b).any())
                bottom, top = np.maximum(a, lo), np.minimum(b, hi)
                closed_bottom = (lo > a) & ~strict
                if ((bottom < top) | ((bottom == top) & closed_bottom)).all():
                    values.append(tree.value[node])
                continue
            b_left, a_right = b.copy(), a.copy()
            b_left[f] = min(b[f], tree.threshold[node])
            a_right[f] = max(a[f], tree.threshold[node])
            stack += [(tree.left[node], a, b_left), (tree.right[node], a_right, b)]
        lows.append(np.min(values, axis=0))
        highs.append(np.max(values, axis=0))
    return np.vstack(lows).sum(axis=0) / forest.n_trees, np.vstack(highs).sum(axis=0) / forest.n_trees, dead


def assert_certificate_exact(forest, x, allowed, seed):
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), allowed, forest)
    rule = compose_rule(reduction, paths, x, forest)
    report = check_conclusive(rule, reduction, forest, x)
    lower, upper, dead = leaf_box_range(rule, forest)
    if dead:  # an unreachable leaf may only widen the range
        assert (report.lower <= lower).all() and (report.upper >= upper).all()
    else:
        np.testing.assert_array_equal(report.lower, lower)
        np.testing.assert_array_equal(report.upper, upper)
    lower, upper = report.lower, report.upper
    preds = np.vstack([sampled_predictions(rule, forest, 300, seed), predict_batch(forest, bound_points(rule, x))])
    assert (preds >= lower - SUM_SLACK).all() and (preds <= upper + SUM_SLACK).all()
    env_lo, env_hi = reduction.envelope
    assert (lower >= env_lo - 1e-9).all() and (upper <= env_hi + 1e-9).all()
    assert report.envelope_violations == 0
    original = predict(forest, x)
    np.testing.assert_array_equal(report.max_deviation, np.maximum(upper - original, original - lower))
    assert (report.max_deviation >= np.abs(preds - original).max(axis=0) - SUM_SLACK).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_trees=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=6),
    depth=st.integers(min_value=1, max_value=6),
)
def test_certificate_equals_leaf_boxes_on_random_forests(seed, n_trees, d, depth):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, n_trees, d, m=2, depth=depth)
    X = np.vstack([instances_on_thresholds(forest, rng, 2), rng.uniform(-12, 12, size=(1, d))])
    for x in X:
        for budget in (0.0, float(rng.uniform(0.1, 2.0)), 1e18):
            assert_certificate_exact(forest, x, AllowedError.global_mean(budget), seed)


@functools.cache
def fitted(seed):
    data = make_synthetic(200, 6, 3, seed=seed)
    return data, fit(data, ForestConfig(n_estimators=40, min_samples_leaf=5, seed=seed))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from([1, 2]),
    row=st.integers(min_value=0, max_value=199),
    budget=st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0, 5.0]),
)
def test_certificate_equals_leaf_boxes_on_fitted_forests(seed, row, budget):
    data, forest = fitted(seed)
    assert_certificate_exact(forest, data.features[row], AllowedError.global_mean(budget), row)


def trace_budgets(forest, x):
    """Budgets of both schemes that reach every step a budget can accept:
    each step's own per-target local errors and their mean, plus an
    unbounded one. A step accepted by some budget is the first to pass its
    own errors."""
    paths = extract_paths(forest, x)
    assoc = mine(paths)
    trace = reduce_paths(paths, assoc, AllowedError.global_mean(0.0), forest).trace
    steps = trace.local_errors[trace.kept_counts > 0]
    budgets = [AllowedError.global_mean(float(e.mean())) for e in steps]
    budgets += [AllowedError.per_target(e) for e in steps]
    budgets += [AllowedError.global_mean(np.inf), AllowedError.per_target(np.full(forest.m, np.inf))]
    return paths, assoc, steps, budgets


def assert_tighter_budget_keeps_superset(forest, x, rng):
    # criterion 8 over both schemes: a budget no looser on any target accepts
    # a step no earlier, so its kept paths and features contain the looser one's
    paths, assoc, steps, _ = trace_budgets(forest, x)
    loose = np.vstack([steps, rng.uniform(0, 2, size=(3, forest.m))])
    tight = loose * rng.choice([0.0, 0.5, 1.0, rng.uniform()], size=loose.shape)
    pairs = [(AllowedError.per_target(a), AllowedError.per_target(b)) for a, b in zip(tight, loose)]
    means = np.sort(rng.uniform(0, 2, size=(4, 2)), axis=1).tolist() + [[a.mean(), b.mean()] for a, b in zip(tight, loose)]
    pairs += [(AllowedError.global_mean(min(a, b)), AllowedError.global_mean(max(a, b))) for a, b in means]
    for tighter, looser in pairs:
        red_tight = reduce_paths(paths, assoc, tighter, forest)
        red_loose = reduce_paths(paths, assoc, looser, forest)
        assert red_tight.kept >= red_loose.kept
        assert red_tight.feature_set >= red_loose.feature_set


def assert_certificate_inside_envelope(forest, x):
    paths, assoc, _, budgets = trace_budgets(forest, x)
    for allowed in budgets:
        reduction = reduce_paths(paths, assoc, allowed, forest)
        report = check_conclusive(compose_rule(reduction, paths, x, forest), reduction, forest, x)
        env_lo, env_hi = reduction.envelope
        assert report.envelope_violations == 0
        assert (report.lower >= env_lo - 1e-9).all() and (report.upper <= env_hi + 1e-9).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_trees=st.integers(min_value=1, max_value=25),
    d=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=5),
)
def test_budget_properties_on_random_forests(seed, n_trees, d, m, depth):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, n_trees, d, m, depth)
    for x in np.vstack([instances_on_thresholds(forest, rng, 1), rng.uniform(-12, 12, size=(1, d))]):
        assert_tighter_budget_keeps_superset(forest, x, rng)
        assert_certificate_inside_envelope(forest, x)


@settings(max_examples=30, deadline=None)
@given(row=st.integers(min_value=0, max_value=199), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_budget_properties_on_a_fitted_forest(row, seed):
    data, forest = fitted(1)
    assert_tighter_budget_keeps_superset(forest, data.features[row], np.random.default_rng(seed))
    assert_certificate_inside_envelope(forest, data.features[row])


def test_certificate_keeps_strict_lower_bound_open():
    # the kept first tree splits at 0.0 and x goes right, so the rule's lower
    # bound on f0 is a strict 0.0; at f0 == 0.0 that tree takes its left leaf
    forest = build_forest([split(0, 0.0, leaf([0.0]), leaf([1.0])), split(0, 5.0, leaf([10.0]), leaf([20.0]))], d=1)
    x = np.array([1.0])
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    assert rule.antecedent == [RuleTerm(0, 0.0, 5.0, True)]
    report = check_conclusive(rule, reduction, forest, x)
    np.testing.assert_array_equal([report.lower, report.upper], [[5.5], [5.5]])
    assert report.envelope_violations == 0
    closed = Rule([RuleTerm(0, 0.0, 5.0, False)], rule.consequent, rule.kept_path_count)
    widened = check_conclusive(closed, reduction, forest, x)
    np.testing.assert_array_equal([widened.lower, widened.upper], [[5.0], [5.5]])
    assert widened.envelope_violations == 1


@pytest.mark.parametrize(
    "terms, message",
    [
        ([RuleTerm(0, 2.0, 1.0, False)], "is empty"),
        ([RuleTerm(0, 1.0, 1.0, True)], "is empty"),
        ([RuleTerm(0, 2.0, 3.0, False)], "excludes the instance"),
        # the region is the terms' intersection, [1.5, 2], not the last term alone
        ([RuleTerm(0, 1.5, 2.0, False), RuleTerm(0, 0.0, 5.0, False)], r"\[1.5, 2.0\], excludes the instance"),
    ],
    ids=["lo_above_hi", "strict_lo_equal_hi", "instance_outside", "instance_outside_two_terms"],
)
def test_check_conclusive_rejects_bad_region(terms, message):
    forest = build_forest([split(0, 0.0, leaf([0.0]), leaf([1.0]))], d=1)
    x = np.array([1.0])
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = Rule(terms, [(0, 1.0, 0.0)], 1)
    with pytest.raises(ValueError, match=message):
        check_conclusive(rule, reduction, forest, x)
    assert coverage(rule, Dataset(x[None, :], np.zeros((1, 1)), ("f0",), ("t0",))) == 0.0


def test_rule_box_intersects_terms_on_one_feature():
    terms = [RuleTerm(0, 1.0, 3.0, False), RuleTerm(0, 1.0, 2.0, True), RuleTerm(0, 0.0, 5.0, False), RuleTerm(2, -1.0, 1.0, False)]
    lo, hi, lo_open = Rule(terms, [(0, 1.0, 0.0)], 1).box(3)
    np.testing.assert_array_equal(lo, [1.0, -np.inf, -1.0])
    np.testing.assert_array_equal(hi, [2.0, np.inf, 1.0])
    np.testing.assert_array_equal(lo_open, [True, False, False])


def test_check_conclusive_does_not_sample(rng, monkeypatch):
    forest, x, paths = forest_and_paths(rng, n_trees=8, d=4, depth=4)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.5), forest)
    rule = compose_rule(reduction, paths, x, forest)

    def refuse(*args, **kwargs):
        raise AssertionError("check_conclusive called predict_batch")

    monkeypatch.setattr(reduction_module, "predict_batch", refuse)
    one = check_conclusive(rule, reduction, forest, x, trials=1, seed=0)
    many = check_conclusive(rule, reduction, forest, x, trials=1000, seed=9)
    assert one.envelope_violations == many.envelope_violations
    for field in ("max_deviation", "lower", "upper"):
        np.testing.assert_array_equal(getattr(one, field), getattr(many, field))


def test_kept_trees_stay_pinned(rng):
    forest, x, paths = forest_and_paths(rng, n_trees=8, d=4, depth=4)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.5), forest)
    rule = compose_rule(reduction, paths, x, forest)
    lo = forest.feature_bounds[:, 0].copy()
    hi = forest.feature_bounds[:, 1].copy()
    for term in rule.antecedent:
        lo[term.feature_index], hi[term.feature_index] = term.lo, term.hi
    for _ in range(200):
        x_new = rng.uniform(lo, hi)
        for i in reduction.kept:
            assert leaf_for(forest.trees[i], x_new) == paths[i].leaf_id


def test_excluded_feature_sweep_leaves_prediction_unchanged():
    # feature 2 appears in no tree, so the rule omits it and sweeping it over
    # the full training range cannot move the prediction
    forest = build_forest(
        [
            split(0, 0.0, leaf([1.0]), leaf([2.0])),
            split(1, 1.0, leaf([5.0]), leaf([6.0])),
        ],
        d=3,
    )
    x = np.array([-1.0, 0.0, 2.5])
    paths = extract_paths(forest, x)
    reduction = reduce_paths(paths, mine(paths), AllowedError.global_mean(0.0), forest)
    rule = compose_rule(reduction, paths, x, forest)
    assert 2 not in {t.feature_index for t in rule.antecedent}
    base = predict(forest, x)
    for v in np.linspace(*forest.feature_bounds[2], 25):
        probe = x.copy()
        probe[2] = v
        np.testing.assert_array_equal(predict(forest, probe), base)


def test_explain_pipeline(rng):
    ds = make_synthetic(80, 5, 2, seed=3)
    from ruleforest import fit

    forest = fit(ds, ForestConfig(n_estimators=10, seed=3))
    result = explain(forest, ds.features[0], AllowedError.global_mean(0.2))
    assert result.rule.kept_path_count == len(result.reduction.kept)
    assert result.rendered
    assert result.elapsed_seconds >= 0
    assert list(result.timings) == ["extract", "mine", "reduce", "compose"]
    assert min(result.timings.values()) >= 0
    assert sum(result.timings.values()) == pytest.approx(result.elapsed_seconds, rel=1e-9, abs=1e-12)


# --- many instances in one batch ---------------------------------------------


def assert_batch_equals_explain(forest, X, budgets, min_support, chunk_rows):
    """explain_batch, in chunks of ``chunk_rows`` rows, equals explain row by
    row, bit for bit, and its consequent values are predict_batch's."""
    chunk = chunk_rows * (forest.n_trees * forest.d + forest.d * forest.d)
    with mock.patch.object(reduction_module, "EXPLAIN_CHUNK_ELEMENTS", chunk):
        batch = explain_batch(forest, X, budgets, min_support)
    assert len(batch) == len(budgets)
    for allowed, rules in zip(budgets, batch):
        for b, x in enumerate(X):
            result = explain(forest, x, allowed, min_support=min_support)
            assert frozenset(np.flatnonzero(rules.kept[b]).tolist()) == result.reduction.kept
            assert rules.errors[b].tobytes() == result.reduction.local_errors.tobytes()
            box = result.rule.box(forest.d)
            assert [a[b].tobytes() for a in (rules.lo, rules.hi, rules.lo_open)] == [a.tobytes() for a in box]
            assert rules.values[b].tobytes() == np.asarray([v for _, v, _ in result.rule.consequent]).tobytes()
            assert rules.lengths[b] == len(result.rule.antecedent)
    assert batch[0].values.tobytes() == predict_batch(forest, X).tobytes()


def batch_budgets(forest, x, rng):
    """Global and per-target budgets, with one per step that some budget can
    accept for ``x``, so that errors at a budget's edge are tested too."""
    fixed = [AllowedError.global_mean(v) for v in (0.0, float(rng.uniform(0, 2)), 1e9)]
    return fixed + [AllowedError.per_target(rng.uniform(0, 2, forest.m))] + trace_budgets(forest, x)[3]


@functools.cache
def fitted_one_target():
    data = make_synthetic(120, 4, 1, seed=5)
    return data, fit(data, ForestConfig(n_estimators=30, min_samples_leaf=3, seed=5))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_trees=st.integers(min_value=1, max_value=25),
    d=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=5),
    min_support=st.sampled_from([0.05, 0.1, 0.5, 1.0]),
    chunk_rows=st.integers(min_value=1, max_value=3),
)
def test_batch_equals_explain_on_random_forests(seed, n_trees, d, m, depth, min_support, chunk_rows):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, n_trees, d, m, depth)
    # rows on split thresholds, inside and outside the [-10, 10] training bounds
    X = np.vstack([instances_on_thresholds(forest, rng, 3), rng.uniform(-10, 10, (1, d)), rng.uniform(-30, 30, (2, d))])
    assert_batch_equals_explain(forest, X, batch_budgets(forest, X[0], rng), min_support, chunk_rows)


@settings(max_examples=20, deadline=None)
@given(
    which=st.sampled_from(["three_targets", "one_target"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    min_support=st.sampled_from([0.05, 0.1, 0.5]),
    chunk_rows=st.integers(min_value=1, max_value=4),
)
def test_batch_equals_explain_on_fitted_forests(which, seed, min_support, chunk_rows):
    data, forest = fitted(1) if which == "three_targets" else fitted_one_target()
    rng = np.random.default_rng(seed)
    low, high = forest.feature_bounds.T
    X = np.vstack([
        data.features[rng.choice(data.n, 4, replace=False)],
        instances_on_thresholds(forest, rng, 2),
        low - rng.uniform(0.1, 3, (1, forest.d)),  # below the training bounds
        high + rng.uniform(0.1, 3, (1, forest.d)),  # and above them
    ])
    assert_batch_equals_explain(forest, X, batch_budgets(forest, X[0], rng), min_support, chunk_rows)


def test_no_accepted_step_raises_in_explain_and_batch(monkeypatch):
    data, forest = fitted(1)
    monkeypatch.setattr(AllowedError, "passes", lambda self, errors: np.zeros(len(errors), dtype=bool))
    allowed = AllowedError.global_mean(1.0)
    with pytest.raises(RuntimeError, match="without an accepted kept set"):
        explain(forest, data.features[0], allowed)
    with pytest.raises(RuntimeError, match="without an accepted kept set"):
        explain_batch(forest, data.features[:3], [allowed])


@pytest.mark.parametrize(
    "fault, error",
    [("nan", ModelError), ("inf", ModelError), ("width", ModelError), ("support_zero", ValueError),
     ("support_above_one", ValueError), ("budget_length", ValueError)],
)
def test_batch_raises_as_explain_does(fault, error):
    data, forest = fitted(1)
    X = data.features[:3].copy()
    allowed, min_support = AllowedError.global_mean(0.3), 0.1
    if fault in ("nan", "inf"):
        X[1, 2] = np.nan if fault == "nan" else -np.inf
    elif fault == "width":
        X = np.hstack([X, X[:, :1]])
    elif fault == "budget_length":
        allowed = AllowedError.per_target([0.3] * (forest.m + 1))
    else:
        min_support = 0.0 if fault == "support_zero" else 1.5
    with pytest.raises(ValueError) as per_row:
        explain(forest, X[1], allowed, min_support=min_support)
    with pytest.raises(ValueError) as batched:
        explain_batch(forest, X, [AllowedError.global_mean(1.0), allowed], min_support)
    assert per_row.type is batched.type is error
