import functools
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_forest, leaf, leaf_for, predict_tree, random_forest, split
from ruleforest import (
    AllowedError,
    ForestConfig,
    explain,
    extract_paths,
    fit,
    load,
    make_synthetic,
    mine,
    predict,
    predict_batch,
    rank_features,
    save,
)
from ruleforest.forest import LEAF, WALK_CHUNK_ELEMENTS, Forest
from ruleforest.paths import AssociationModel, Path, Paths


def named_paths(feature_sets):
    """Paths carrying only feature sets, for mining tests."""
    n = len(feature_sets)
    used = np.zeros((n, max((f + 1 for fs in feature_sets for f in fs), default=0)), dtype=bool)
    for i, fs in enumerate(feature_sets):
        used[i, sorted(fs)] = True
    return Paths(
        lo=np.full(used.shape, -np.inf),
        hi=np.full(used.shape, np.inf),
        used=used,
        leaf_id=np.zeros(n, dtype=np.int64),
        leaf_prediction=np.zeros((n, 1)),
    )


def brute_force_model(feature_sets, min_support):
    """Independent oracle: enumerate every itemset support directly, then
    apply the same pair/confidence definitions by exhaustive counting."""
    n = len(feature_sets)
    features = sorted(set(chain.from_iterable(feature_sets)))
    supports = {}
    for size in (1, 2):
        for combo in combinations(features, size):
            s = sum(1 for t in feature_sets if set(combo) <= set(t)) / n
            if size == 1 or s >= min_support:
                supports[frozenset(combo)] = s
    rules = []
    confs = {f: [] for f in features}
    for f, g in combinations(features, 2):
        pair = supports.get(frozenset((f, g)))
        if pair is None:
            continue
        for a, b in ((f, g), (g, f)):
            if supports[frozenset((a,))] > 0:
                c = pair / supports[frozenset((a,))]
                rules.append((a, b, c))
                confs[a].append(c)
    scores = {
        f: sum(c) / len(c) if c else supports[frozenset((f,))] for f, c in confs.items()
    }
    return supports, sorted(rules, key=lambda r: (r[0], r[1])), scores


def mined_dicts(model):
    """A mined model's arrays in the oracles' form: the supports of every
    singleton and qualifying pair by itemset, the rules (a, b, confidence) in
    (a, b) order, and the scores by feature. A pair qualifies where its
    confidence is positive."""
    names = model.features.tolist()
    supports = {frozenset((f,)): s for f, s in zip(names, np.diag(model.support).tolist())}
    pair = model.confidence > 0
    j, k = np.nonzero(np.triu(pair))
    for a, b, s in zip(j.tolist(), k.tolist(), model.support[j, k].tolist()):
        supports[frozenset((names[a], names[b]))] = s
    j, k = np.nonzero(pair)
    rules = [(names[a], names[b], c) for a, b, c in zip(j.tolist(), k.tolist(), model.confidence[j, k].tolist())]
    return supports, rules, dict(zip(names, model.feature_scores.tolist()))


def reference_mine(paths, min_support=0.1):
    """Oracle: the per-pair mining loop over each path's conditions dict;
    each feature's confidences are summed one at a time, in ascending
    partner order. Returns what ``mined_dicts`` gives for ``mine``."""
    n = len(paths)
    features = sorted(set().union(*(p.conditions for p in paths)))
    used = np.asarray([[f in p.conditions for f in features] for p in paths], dtype=np.float64)
    support = ((used.T @ used) / n).tolist()
    supports = {frozenset((f,)): support[j][j] for j, f in enumerate(features)}
    rules = []
    confidences = {f: [] for f in features}
    for (j, f), (k, g) in combinations(enumerate(features), 2):
        pair_support = support[j][k]
        if pair_support < min_support:
            continue
        supports[frozenset((f, g))] = pair_support
        for a, b, base in ((f, g, support[j][j]), (g, f, support[k][k])):
            conf = pair_support / base
            rules.append((a, b, conf))
            confidences[a].append(conf)
    rules.sort(key=lambda r: (r[0], r[1]))
    scores = {
        f: (sum(confs) / len(confs)) if confs else supports[frozenset((f,))]
        for f, confs in confidences.items()
    }
    return supports, rules, scores


# --- path extraction ---------------------------------------------------------


def test_single_split_condition():
    forest = build_forest([split(0, 5.0, leaf([1.0]), leaf([2.0]))], d=1)
    [path] = extract_paths(forest, [3.0])
    assert path.conditions == {0: (-np.inf, 5.0)}
    assert path.leaf_prediction == pytest.approx([1.0])


def test_nested_same_feature_tightens_both_bounds():
    # f0 <= 5 -> left, then f0 <= 2 -> right for x0 = 3: interval (2, 5]
    forest = build_forest(
        [split(0, 5.0, split(0, 2.0, leaf([1.0]), leaf([2.0])), leaf([3.0]))], d=1
    )
    [path] = extract_paths(forest, [3.0])
    assert path.conditions == {0: (2.0, 5.0)}


def test_untested_features_absent():
    forest = build_forest([split(1, 0.0, leaf([1.0]), leaf([2.0]))], d=3)
    [path] = extract_paths(forest, [5.0, -1.0, 5.0])
    assert set(path.conditions) == {1}


def test_paths_average_to_forest_prediction(rng):
    forest = random_forest(rng, n_trees=3, d=2, m=2, depth=3)
    x = rng.uniform(-5, 5, size=2)
    paths = extract_paths(forest, x)
    assert len(paths) == 3
    mean = np.vstack([p.leaf_prediction for p in paths]).mean(axis=0)
    np.testing.assert_allclose(mean, predict(forest, x), atol=1e-12)


def test_path_containment_and_leaf_change(rng):
    forest = random_forest(rng, n_trees=5, d=3, m=1, depth=4)
    x = rng.uniform(-8, 8, size=3)
    for path, tree in zip(extract_paths(forest, x), forest.trees):
        for f, (lo, hi) in path.conditions.items():
            assert lo < x[f] <= hi
            # stepping outside the interval must change the leaf
            if np.isfinite(hi):
                bumped = x.copy()
                bumped[f] = hi + 1e-6
                assert leaf_for(tree, bumped) != path.leaf_id
            if np.isfinite(lo):
                bumped = x.copy()
                bumped[f] = lo
                assert leaf_for(tree, bumped) != path.leaf_id
        np.testing.assert_array_equal(predict_tree(tree, x), path.leaf_prediction)


def per_tree_extract_paths(forest, x):
    """Oracle: trace each tree on its own, one node at a time."""
    x = np.asarray(x, dtype=np.float64)
    paths = []
    for t, tree in enumerate(forest.trees):
        conditions: dict[int, list[float]] = {}
        node = 0
        while tree.feature[node] != LEAF:
            f = int(tree.feature[node])
            thr = float(tree.threshold[node])
            bounds = conditions.setdefault(f, [-np.inf, np.inf])
            if x[f] <= thr:
                bounds[1] = min(bounds[1], thr)
                node = int(tree.left[node])
            else:
                bounds[0] = max(bounds[0], thr)
                node = int(tree.right[node])
        paths.append(
            Path(
                tree_index=t,
                conditions={f: (lo, hi) for f, (lo, hi) in conditions.items()},
                leaf_prediction=tree.value[node].copy(),
                leaf_id=node,
            )
        )
    return paths


FOREST_SHAPES = {  # keyword arguments of conftest.random_forest
    "one_target": dict(n_trees=6, d=3, m=1, depth=4),
    "single_leaf_trees": dict(n_trees=5, d=2, m=2, depth=0),
    "mixed_depth": dict(n_trees=9, d=4, m=3, depth=6),
}


def instances_on_thresholds(forest, rng, n):
    """n random instances, each with one feature set exactly on a split threshold."""
    X = rng.uniform(-10, 10, size=(n, forest.d))
    splits = [(f, thr) for tree in forest.trees for f, thr in zip(tree.feature, tree.threshold) if f != LEAF]
    for row in X:
        if splits:
            f, thr = splits[rng.integers(len(splits))]
            row[f] = thr
    return X


@pytest.mark.parametrize("shape", sorted(FOREST_SHAPES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_packed_walk_matches_per_tree_oracle(shape, seed):
    rng = np.random.default_rng(seed)
    forest = random_forest(rng, **FOREST_SHAPES[shape])
    X = np.vstack([instances_on_thresholds(forest, rng, 3), rng.uniform(-10, 10, size=(3, forest.d))])
    for x in X:
        got, want = extract_paths(forest, x), per_tree_extract_paths(forest, x)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.tree_index, g.conditions, g.leaf_id) == (w.tree_index, w.conditions, w.leaf_id)
            np.testing.assert_array_equal(g.leaf_prediction, w.leaf_prediction)
            assert not np.shares_memory(g.leaf_prediction, forest.value)
        tree_mean = np.vstack([predict_tree(tree, x) for tree in forest.trees]).mean(axis=0)
        np.testing.assert_allclose(predict(forest, x), tree_mean, rtol=0, atol=1e-12)
    batch = predict_batch(forest, X)
    for x, row in zip(X, batch):
        np.testing.assert_allclose(row, predict(forest, x), rtol=0, atol=1e-12)


def reference_extract_paths(forest, x):
    """Oracle: the level walk over the packed forest that tightens each
    path's bounds as it goes, one depth level per step for all trees."""
    x = np.asarray(x, dtype=np.float64)
    lo = np.full((forest.n_trees, forest.d), -np.inf)
    hi = np.full((forest.n_trees, forest.d), np.inf)
    used = np.zeros((forest.n_trees, forest.d), dtype=bool)
    node = forest.roots.copy()
    for _ in range(int(forest.depths.max())):
        feature, threshold = forest.feature[node], forest.threshold[node]
        go_left = x[feature] <= threshold  # at a leaf, feature -1 reads a value no step depends on
        inner = feature != LEAF
        tree, f, thr, left = np.flatnonzero(inner), feature[inner], threshold[inner], go_left[inner]
        used[tree, f] = True
        below, above = (tree[left], f[left]), (tree[~left], f[~left])
        hi[below] = np.minimum(hi[below], thr[left])
        lo[above] = np.maximum(lo[above], thr[~left])
        node = forest._children[2 * node + go_left]
    return Paths(lo, hi, used, node - forest.roots, forest.value[node])


# trees that split one feature twice in conflicting ways, so some leaves no point reaches
CONFLICTING_SPECS = [
    split(0, 5.0, split(0, 7.0, leaf([1.0]), leaf([2.0])), leaf([3.0])),
    split(0, 2.0, leaf([4.0]), split(0, 1.0, leaf([5.0]), split(1, 0.0, leaf([6.0]), leaf([7.0])))),
    split(1, 3.0, split(1, 3.0, leaf([8.0]), leaf([9.0])), split(1, -3.0, leaf([10.0]), leaf([11.0]))),
    split(0, 0.0, split(0, -0.0, leaf([12.0]), leaf([13.0])), split(0, -0.0, leaf([14.0]), leaf([15.0]))),
    leaf([16.0]),
]


@functools.cache
def fitted_forest(kind):
    data = make_synthetic(60, 4, 2, seed=5)
    config = {
        "sqrt": ForestConfig(n_estimators=12, min_samples_leaf=2, seed=4),
        "all_features": ForestConfig(n_estimators=6, max_features="all", bootstrap=False, seed=1),
    }[kind]
    return fit(data, config)


def oracle_forest(kind, rng):
    if kind in FOREST_SHAPES:
        return random_forest(rng, **FOREST_SHAPES[kind])
    if kind == "conflicting":
        return build_forest(CONFLICTING_SPECS, d=2)
    return fitted_forest(kind)


@pytest.mark.parametrize("kind", sorted(FOREST_SHAPES) + ["conflicting", "sqrt", "all_features"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_leaf_boxes_extract_what_the_reference_walk_does(kind, seed):
    rng = np.random.default_rng(seed)
    forest = oracle_forest(kind, rng)
    low, high = forest.feature_bounds[:, 0], forest.feature_bounds[:, 1]
    X = np.vstack([
        instances_on_thresholds(forest, rng, 4),
        rng.uniform(low, high, size=(2, forest.d)),
        low - rng.uniform(0.0, 5.0, forest.d),  # below the training bounds
        high + rng.uniform(0.0, 5.0, forest.d),  # above them
        np.where(rng.random(forest.d) < 0.5, -1e300, 1e300),
    ])
    for x in X:
        got, want = extract_paths(forest, x), reference_extract_paths(forest, x)
        for name in ("lo", "hi", "used", "leaf_id", "leaf_prediction"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.mark.parametrize("kind", sorted(FOREST_SHAPES) + ["conflicting", "sqrt"])
def test_leaf_boxes_hold_every_root_path(rng, kind):
    """Every leaf's row, the unreachable ones too, holds the tightest
    thresholds on its root path, found by a recursive descent of its tree."""
    forest = oracle_forest(kind, rng)
    boxes = forest.leaf_boxes
    leaves = np.flatnonzero(forest.feature == LEAF)
    assert boxes.lo.shape == boxes.hi.shape == (leaves.size, forest.d)
    np.testing.assert_array_equal(boxes.row[leaves], np.arange(leaves.size))

    def descend(node, lo, hi):
        f = forest.feature[node]
        if f == LEAF:
            np.testing.assert_array_equal(boxes.lo[boxes.row[node]], lo)
            np.testing.assert_array_equal(boxes.hi[boxes.row[node]], hi)
            return
        thr = forest.threshold[node]
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[f], right_lo[f] = min(hi[f], thr), max(lo[f], thr)
        descend(forest._children[2 * node + 1], lo, left_hi)
        descend(forest._children[2 * node], right_lo, hi)

    for root in forest.roots:
        descend(root, np.full(forest.d, -np.inf), np.full(forest.d, np.inf))


def test_leaf_boxes_are_built_once_on_first_extraction(tmp_path, monkeypatch):
    builds = []
    build = Forest.leaf_boxes.func

    def counting(self):
        builds.append(self)
        return build(self)

    lazy = functools.cached_property(counting)
    lazy.__set_name__(Forest, "leaf_boxes")
    monkeypatch.setattr(Forest, "leaf_boxes", lazy)
    data = make_synthetic(40, 3, 2, seed=2)
    forest = fit(data, ForestConfig(n_estimators=4, seed=0))
    path = tmp_path / "m.model"
    save(forest, path)
    loaded = load(path)
    assert builds == []
    assert "leaf_boxes" not in forest.__dict__ and "leaf_boxes" not in loaded.__dict__
    for x in data.features[:2]:
        explain(loaded, x, AllowedError.global_mean(0.3))
    assert builds == [loaded]


@pytest.mark.parametrize("rows", ["none", "one", "chunks_plus_remainder"])
def test_predict_batch_sizes_match_per_tree_oracle(rng, rows):
    forest = random_forest(rng, **FOREST_SHAPES["mixed_depth"])
    chunk_rows = max(1, WALK_CHUNK_ELEMENTS // forest.n_trees)
    n = {"none": 0, "one": 1, "chunks_plus_remainder": 2 * chunk_rows + 7}[rows]
    X = instances_on_thresholds(forest, rng, n)
    batch = predict_batch(forest, X)
    assert batch.shape == (n, forest.m)
    for x, row in zip(X, batch):
        tree_mean = np.vstack([predict_tree(tree, x) for tree in forest.trees]).mean(axis=0)
        np.testing.assert_allclose(row, tree_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row, predict(forest, x), rtol=0, atol=1e-12)


# --- mining ------------------------------------------------------------------


def test_mine_three_transactions():
    model = mine(named_paths([{0, 1}, {0, 1}, {0, 2}]), min_support=0.3)
    assert model.features.tolist() == [0, 1, 2]
    s = model.support
    assert s[0, 0] == pytest.approx(1.0)
    assert s[0, 1] == pytest.approx(2 / 3)
    conf = model.confidence
    assert conf[0, 1] == pytest.approx(2 / 3)
    assert conf[1, 0] == pytest.approx(1.0)
    assert conf[2, 0] == pytest.approx(1.0)
    assert model.feature_scores[0] == pytest.approx(0.5)  # mean of 2/3 and 1/3
    assert model.feature_scores[1] == pytest.approx(1.0)


def test_mine_identical_transactions_symmetric():
    model = mine(named_paths([{0, 1, 2}] * 4), min_support=0.1)
    assert all(c == pytest.approx(1.0) for c in model.confidence[~np.eye(3, dtype=bool)])
    assert len(set(round(v, 12) for v in model.feature_scores.tolist())) == 1


def test_mine_single_feature_fallback():
    model = mine(named_paths([{3}]), min_support=0.1)
    assert model.features.tolist() == [3]
    assert not (model.confidence > 0).any()
    assert model.feature_scores[0] == pytest.approx(1.0)


def test_mine_empty_transactions():
    model = mine(named_paths([set(), set()]), min_support=0.1)
    assert model.features.shape == (0,)
    assert model.support.shape == model.confidence.shape == (0, 0)
    assert model.feature_scores.shape == (0,)


def test_mine_requires_paths():
    with pytest.raises(ValueError):
        mine([], min_support=0.1)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=6),
        min_size=1,
        max_size=32,
    ),
    min_support=st.floats(min_value=0.05, max_value=1.0),
)
def test_mine_matches_brute_force(data, min_support):
    got_supports, got_rules, got_scores = mined_dicts(mine(named_paths(data), min_support=min_support))
    supports, rules, scores = brute_force_model(data, min_support)
    assert set(got_supports) == set(supports)
    for key, value in supports.items():
        assert got_supports[key] == pytest.approx(value, abs=1e-12)
    assert [(a, b) for a, b, _ in got_rules] == [(a, b) for a, b, _ in rules]
    for (_, _, got), (_, _, want) in zip(got_rules, rules):
        assert got == pytest.approx(want, abs=1e-12)
    assert set(got_scores) == set(scores)
    for f in scores:
        assert got_scores[f] == pytest.approx(scores[f], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
        min_size=1,
        max_size=20,
    )
)
def test_pair_support_antimonotone(data):
    model = mine(named_paths(data), min_support=0.01)
    j, k = np.nonzero(model.confidence > 0)
    own = np.diag(model.support)
    assert (model.support[j, k] <= np.minimum(own[j], own[k]) + 1e-12).all()


# --- ranking -----------------------------------------------------------------


def scored(scores):
    """A model for ranking only: features in the dict's order, their scores."""
    k = len(scores)
    features, values = np.array(list(scores)), np.array(list(scores.values()))
    return AssociationModel(features, np.zeros((k, k)), np.zeros((k, k)), values)


def test_rank_ascending():
    assert rank_features(scored({0: 0.9, 1: 0.4, 2: 0.4})) == [1, 2, 0]


def test_rank_all_equal_is_index_order():
    assert rank_features(scored({2: 0.5, 0: 0.5, 1: 0.5})) == [0, 1, 2]


def reference_rank(scores):
    """Oracle: a Python sort of a scores dict by (score, feature)."""
    return sorted(scores, key=lambda f: (scores[f], f))


def tied_transactions(rng):
    """Paths over a few repeated transactions in which feature 6 always
    accompanies feature 0, so exact score ties are common and 0 and 6 sum
    the same confidences in different partner orders."""
    base = [frozenset(rng.choice(6, size=rng.integers(1, 5), replace=False).tolist()) for _ in range(3)]
    picks = [base[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 16)))]
    return named_paths([t | {6} if 0 in t else t for t in picks])


@pytest.mark.parametrize("kind", ["random", "ties", "sqrt", "all_features"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), support_count=st.integers(min_value=1, max_value=4))
def test_scores_and_ranking_equal_the_reference(kind, seed, support_count):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        batches = [tied_transactions(rng)]
    else:
        forest = random_forest(rng, 12, 8, m=1, depth=4) if kind == "random" else fitted_forest(kind)
        batches = [extract_paths(forest, x) for x in instances_on_thresholds(forest, rng, 3)]
    for paths in batches:
        min_support = min(support_count, len(paths)) / len(paths)
        model = mine(paths, min_support)
        _, _, scores = reference_mine(paths, min_support)
        assert model.features.tolist() == list(scores)
        assert model.feature_scores.tolist() == list(scores.values())
        assert rank_features(model) == reference_rank(scores)


def test_rank_is_permutation(rng):
    forest = random_forest(rng, n_trees=6, d=4, m=1, depth=4)
    paths = extract_paths(forest, rng.uniform(-5, 5, size=4))
    model = mine(paths, 0.1)
    present = set().union(*(p.feature_set for p in paths))
    assert sorted(rank_features(model)) == sorted(present)
