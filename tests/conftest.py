"""Shared builders: hand-made trees/forests and random small forests."""

import numpy as np
import pytest

from ruleforest.forest import LEAF, Forest, ForestConfig, Tree


def leaf(values):
    """Single-leaf tree spec."""
    return ("leaf", np.asarray(values, dtype=np.float64))


def split(feature, threshold, left_spec, right_spec):
    return ("split", feature, threshold, left_spec, right_spec)


def build_tree(spec):
    """Materialize a nested (split/leaf) spec into a flat Tree."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node_spec):
        idx = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(None)
        if node_spec[0] == "leaf":
            value[idx] = node_spec[1]
        else:
            _, f, thr, l_spec, r_spec = node_spec
            feature[idx] = f
            threshold[idx] = thr
            left[idx] = add(l_spec)
            right[idx] = add(r_spec)
        return idx

    add(spec)
    m = next(len(v) for v in value if v is not None)
    values = np.vstack([np.zeros(m) if v is None else v for v in value])
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=values,
    )


def leaf_for(tree, x):
    """Oracle: the in-tree index of the leaf x reaches, one node at a time."""
    node = 0
    while tree.feature[node] != LEAF:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return node


def predict_tree(tree, x):
    """Oracle: one tree's leaf prediction for x."""
    return tree.value[leaf_for(tree, np.asarray(x, dtype=np.float64))]


def leaf_extremes(tree):
    """Oracle: per-target lowest and highest value over one tree's own leaves."""
    values = tree.value[tree.feature == LEAF]
    return values.min(axis=0), values.max(axis=0)


def pack(trees):
    """The node table and node counts ``Forest`` takes, from trees given one by one."""
    return Tree(*map(np.concatenate, zip(*trees))), [tree.n_nodes for tree in trees]


def build_forest(tree_specs, d, bounds=None):
    trees = [build_tree(s) for s in tree_specs]
    m = trees[0].value.shape[1]
    if bounds is None:
        bounds = np.column_stack([np.full(d, -10.0), np.full(d, 10.0)])
    nodes, node_counts = pack(trees)
    return Forest(
        nodes=nodes,
        node_counts=node_counts,
        config=ForestConfig(n_estimators=len(trees), seed=0),
        feature_names=tuple(f"f{i}" for i in range(d)),
        target_names=tuple(f"t{i}" for i in range(m)),
        feature_bounds=np.asarray(bounds, dtype=np.float64),
    )


def random_tree_spec(rng, d, m, depth):
    """Random tree over features in [-10, 10]; leaf values in [-5, 5]."""
    if depth == 0 or rng.random() < 0.3:
        return leaf(rng.uniform(-5, 5, size=m))
    f = int(rng.integers(d))
    thr = float(rng.uniform(-8, 8))
    return split(
        f, thr, random_tree_spec(rng, d, m, depth - 1), random_tree_spec(rng, d, m, depth - 1)
    )


def random_forest(rng, n_trees, d, m, depth=3):
    specs = []
    for _ in range(n_trees):
        spec = random_tree_spec(rng, d, m, depth)
        if spec[0] == "leaf" and n_trees == 1:
            spec = split(0, 0.0, leaf(rng.uniform(-5, 5, m)), leaf(rng.uniform(-5, 5, m)))
        specs.append(spec)
    return build_forest(specs, d)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
