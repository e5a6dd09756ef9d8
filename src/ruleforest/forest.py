"""Multi-output regression random forest with explainer-facing internals.

A forest is one node table, every tree's nodes back to back in five flat
arrays (a ``Tree``), and each tree's node count. Growing is exact CART:
each node runs one split search over all of its candidate features at once
(one sort of the candidate columns and one set of cumulative target sums),
and a tree grows depth first from an explicit stack, in the order that
fixes which candidates each node draws. Every tree of a ``fit`` grows into
the same buffers and is copied straight into the node table, whose arrays
grow geometrically and are trimmed once at the end. ``Forest(...)`` copies
the table it is given; the forests ``fit`` and ``load`` build keep the
arrays they made instead, as no one else holds them. Either way the table
is read-only, with one root offset per tree. For the walks, child links become global node indices, leaves link to
themselves, so a fixed number of steps (the deepest tree's depth) routes
every (tree, row) pair to its leaf. ``Forest.walk`` takes those steps for
all trees at once, one depth level per step, over a (trees, rows) node array
and returns the leaves; ``predict``, ``predict_batch`` and path extraction
all use it. ``Forest.leaf_boxes`` holds every leaf's box, the tightest
thresholds on its root path per feature, as two (leaves, d) arrays; it is
built by one level walk the first time a path is extracted, so ``fit``,
``load`` and prediction never pay for it. ``Forest.reach`` walks a box of
feature intervals the same way and collects every leaf some point of the box
reaches. The per-target leaf extremes, which the reduction step needs to
bound what an excluded tree could have predicted, are stacked once as
(trees, m) arrays. Every table derived from the nodes is read-only.

Building a ``Forest`` is the one check of a forest's structure, however the
table was made, on whole arrays: node counts of at least 1 that sum to the
node count, one per ``config.n_estimators``, distinct string names, at
least one target, finite (d, 2) feature bounds of numbers, node arrays of
the shape, element kind and dtype the node schema ``_TREE_ARRAYS`` gives
(shape first, kind second, cast last), features in range, children after
their parent in the same tree, every node but a root the child of exactly
one node, finite numbers. So the walks end, and each leaf has one root path.

``save`` writes model format v3: a zip of stored members, ``header.json``
(format, version, config, names, bounds), one ``.npy`` per node array of
``_TREE_ARRAYS`` holding the packed array, and ``node_counts.npy``. ``load``
reads v3 and v2, which differs only by one more member, ``sample_count.npy``
(each node's training rows, which nothing reads): it is read like any
member and then dropped. A file that is not a zip, such as a v1 JSON file,
is refused. ``load`` adds only what reading the file needs: exactly the
members of the file's version, uncompressed, arrays read with
``allow_pickle=False`` whose headers declare the data their members hold,
and no bool or string in the header's bounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import os
import zipfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

MODEL_FORMAT = "ruleforest-model"
MODEL_VERSION = 3  # the version save writes; load reads it and version 2
_ZIP_MAGIC = b"PK\x03\x04"  # the first bytes of a model file
_HEADER = "header.json"  # the member that holds the config, names and bounds
_NODE_COUNTS = "node_counts"  # the array of each tree's node count
_V2_ONLY = "sample_count"  # the array a v2 file holds besides those of v3, which load drops

LEAF = -1  # sentinel in the per-node feature array
WALK_CHUNK_ELEMENTS = 8192  # (tree, row) pairs per predict_batch step


class ModelError(ValueError):
    """Raised for unusable model files or malformed queries."""


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 500
    max_depth: int | None = None
    min_samples_leaf: int = 1
    max_features: str | float = "sqrt"  # "all", "sqrt" or a fraction in (0, 1]
    bootstrap: bool = True
    seed: int = 0
    normalize_targets: bool = False  # per-target variance scaling in the split gain

    def __post_init__(self):
        for name, low in (("n_estimators", 1), ("min_samples_leaf", 1), ("max_depth", 0), ("seed", 0)):
            value = getattr(self, name)
            if name == "max_depth" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            if value < low:  # a negative seed cannot seed numpy's generator
                raise ModelError(f"{name} must be >= {low}")
            object.__setattr__(self, name, int(value))  # numpy integers too, so the config saves as JSON
        for name in ("bootstrap", "normalize_targets"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ModelError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if isinstance(self.max_features, str):
            if self.max_features not in ("all", "sqrt"):
                raise ModelError(f"unknown max_features {self.max_features!r}")
        elif isinstance(self.max_features, bool) or not isinstance(self.max_features, numbers.Real):
            raise ModelError(f"max_features must be 'all', 'sqrt' or a fraction, got {self.max_features!r}")
        elif not 0.0 < float(self.max_features) <= 1.0:
            raise ModelError("max_features fraction must be in (0, 1]")

    def features_per_split(self, d: int) -> int:
        if self.max_features == "all":
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return max(1, int(round(float(self.max_features) * d)))


# The node schema, which ``Forest`` applies to the node table and ``save`` writes
# as one ``.npy`` member per array, in this order. Per array: what its elements
# may be ("integers" or "numbers", as numpy kinds), the dtype it is cast to,
# and whether it has one column per target, shape (n, m), rather than (n,).
_HOLDS = {"integers": "i", "numbers": "if"}
_TREE_ARRAYS = {
    "feature": ("integers", np.int64, False),
    "threshold": ("numbers", np.float64, False),
    "left": ("integers", np.int64, False),
    "right": ("integers", np.int64, False),
    "value": ("numbers", np.float64, True),
}


class Tree(NamedTuple):
    """The five node arrays of ``_TREE_ARRAYS``, in its order, of one tree or
    of the node table ``Forest`` takes: each node's split, its children and
    its leaf values, all that the walks, the explainer and a model file use.
    ``feature[i] == LEAF`` marks a leaf node.

    Routing convention: an instance with value <= threshold goes left,
    otherwise right. ``left``/``right`` are node indices within the node's
    own tree, in a table too. ``value`` holds the leaf prediction vector for
    leaves (zeros elsewhere). ``forest.trees`` are read-only views.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


class LeafBoxes(NamedTuple):
    """Every leaf's box: per feature, the interval (lo, hi] its root path
    admits, -inf or +inf on a side the path does not bound."""

    row: np.ndarray  # (N,) each leaf node's row in lo and hi (read at leaves only)
    lo: np.ndarray  # (leaves, d) highest threshold the path passes on its right
    hi: np.ndarray  # (leaves, d) lowest threshold the path passes on its left


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Forest:
    """One read-only node table of every tree, and the tables derived from it.

    ``nodes`` holds the five node arrays of ``_TREE_ARRAYS``, every tree's
    nodes back to back, and ``node_counts`` each tree's node count; tree
    ``t`` starts at node ``roots[t]``, and ``left``/``right`` keep in-tree
    indices. Building the forest checks that the table holds trees, every
    node but a root the child of exactly one node, and copies each whole
    array once, leaving the caller's as they were (``fit`` and ``load`` hand
    over arrays of their own, which are kept, not copied); it keeps no
    per-tree object, and ``trees`` makes read-only ``Tree`` views when read.
    The node arrays and every table built from them (``roots``, ``depths``,
    the leaf extremes, the child links the walks follow, ``feature_bounds``
    and ``leaf_boxes``) are read-only, so none can fall out of step.
    """

    def __init__(self, nodes: Tree, node_counts, config: ForestConfig, feature_names, target_names, feature_bounds):
        self._build(nodes, node_counts, config, feature_names, target_names, feature_bounds, copy=True)

    @classmethod
    def _owning(cls, nodes: Tree, node_counts, config: ForestConfig, feature_names, target_names, feature_bounds):
        """The forest ``Forest(...)`` builds from the same arguments, but keeping
        the node arrays themselves, made read-only, where they have the schema's
        dtype. Only for arrays no caller holds: those ``fit`` and ``load`` make."""
        forest = cls.__new__(cls)
        forest._build(nodes, node_counts, config, feature_names, target_names, feature_bounds, copy=False)
        return forest

    def _build(self, nodes, node_counts, config, feature_names, target_names, feature_bounds, copy: bool):
        try:
            counts, arrays = np.asarray(node_counts), dict(zip(_TREE_ARRAYS, map(np.asarray, nodes), strict=True))
        except ValueError as exc:  # a ragged list
            raise ModelError(f"node arrays and node counts must be arrays ({exc})") from None
        sizes = counts.tolist() if counts.ndim == 1 and counts.dtype.kind in "iu" else []
        n_nodes = sum(sizes)  # of Python ints, so no sum wraps round to the node count
        # a 0-d feature passes here and fails its shape test below
        if not sizes or min(sizes) < 1 or arrays["feature"].shape[:1] not in ((), (n_nodes,)):
            raise ModelError(f"{_NODE_COUNTS} must be a 1-D array of integers >= 1 that sum to the node count")
        if config.n_estimators != len(sizes):
            raise ModelError(f"config.n_estimators is {config.n_estimators}, but the forest has {len(sizes)} trees")
        for kind, names in (("feature", feature_names), ("target", target_names)):
            if isinstance(names, str) or not isinstance(names, Sequence) or not all(isinstance(n, str) for n in names):
                raise ModelError(f"{kind}_names must be a sequence of strings, not one str or other values")
            if len(set(names)) != len(names):
                raise ModelError(f"repeated {kind} name {next(n for n in names if names.count(n) > 1)!r}")
        self.config, self.feature_names, self.target_names = config, tuple(feature_names), tuple(target_names)
        if not self.target_names:
            raise ModelError("model has no targets")
        try:
            bounds = np.array(feature_bounds)  # a copy: the caller's array stays as it is
        except ValueError:  # a ragged list
            bounds = np.empty(0)  # fails the shape test
        if bounds.shape != (self.d, 2) or bounds.dtype.kind not in _HOLDS["numbers"] or not np.isfinite(bounds).all():
            raise ModelError(f"feature_bounds must be a finite ({self.d}, 2) array of numbers")
        self.feature_bounds = _read_only(bounds.astype(np.float64, copy=False))  # (d, 2) training min/max
        # (N,) arrays in Tree's field order: split feature (LEAF at leaves), threshold, in-tree left and
        # right child at inner nodes, and (N, m) leaf predictions (zeros at inner nodes)
        packed = []
        for name, array in arrays.items():
            holds, dtype, per_target = _TREE_ARRAYS[name]
            expected = (n_nodes, self.m) if per_target else (n_nodes,)
            if array.shape != expected:
                raise ModelError(f"{name} has shape {array.shape}, expected {expected}")
            if array.dtype.kind not in _HOLDS[holds]:
                raise ModelError(f"{name} holds {array.dtype} values, expected {holds}")
            packed.append(_read_only(array.astype(dtype, copy=copy)))  # copied unless the caller gave it away
        self.feature, self.threshold, self.left, self.right, self.value = packed
        sizes = np.array(sizes)
        self.roots = _read_only(np.concatenate([[0], np.cumsum(sizes)[:-1]]))  # (T,) first node of each tree
        leaf = self.feature == LEAF
        # (2N,): node i's right child at 2i and left child at 2i + 1, as global ids; leaves link to themselves
        children = np.empty(2 * n_nodes, dtype=np.int64)
        children[0::2], children[1::2] = self.right, self.left
        pairs, right, left = children.reshape(n_nodes, 2), children[0::2], children[1::2]
        pairs += np.repeat(self.roots, sizes)[:, None]
        node, end = np.arange(n_nodes), np.repeat(self.roots + sizes, sizes)
        faults = (  # each mask is made once the one before it has passed, so one is alive at a time
            (f"feature index outside [0, {self.d})", lambda: ~leaf & ((self.feature < 0) | (self.feature >= self.d))),
            ("left child outside (node, tree end)", lambda: ~leaf & ((left <= node) | (left >= end))),
            ("right child outside (node, tree end)", lambda: ~leaf & ((right <= node) | (right >= end))),
            (  # children are now in range; a root counts once, as if it were its own child
                "node other than the root not the child of exactly one node",
                lambda: np.bincount(np.concatenate([pairs[~leaf].ravel(), self.roots]), minlength=n_nodes) != 1,
            ),
            (
                "non-finite threshold or value",
                lambda: ~(np.isfinite(self.threshold) & np.isfinite(self.value).all(axis=1)),
            ),
        )
        for fault, test in faults:
            bad = test()
            if bad.any():
                tree = int(np.searchsorted(self.roots, np.argmax(bad), side="right")) - 1
                raise ModelError(f"tree {tree}: {fault}")
        del node, end
        leaves = np.flatnonzero(leaf)
        pairs[leaves] = leaves[:, None]
        self._children = _read_only(children)
        # (T, m) lowest and highest leaf value per tree; children lie after their parent,
        # so each tree's last node is a leaf, and every tree has a leaf row
        leaf_value, starts = self.value[leaves], np.searchsorted(leaves, self.roots)
        self.leaf_min = _read_only(np.minimum.reduceat(leaf_value, starts))
        self.leaf_max = _read_only(np.maximum.reduceat(leaf_value, starts))
        del leaf_value
        depths = np.zeros(self.n_trees, dtype=np.int64)
        frontier, level = self.roots, 0
        while frontier.size:  # ends because children lie after their parent
            depths[np.searchsorted(self.roots, frontier, side="right") - 1] = level
            frontier = pairs[frontier[~leaf[frontier]]].ravel()
            level += 1
        self.depths = _read_only(depths)  # (T,) longest root-to-leaf path

    @property
    def trees(self) -> list[Tree]:
        """Read-only ``Tree`` views into the packed node table, made anew on each read."""
        packed = [getattr(self, name) for name in Tree._fields]
        bounds = zip(self.roots.tolist(), self.roots[1:].tolist() + [self.feature.shape[0]])
        return [Tree(*(array[start:stop] for array in packed)) for start, stop in bounds]

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def d(self) -> int:
        return len(self.feature_names)

    @property
    def m(self) -> int:
        return len(self.target_names)

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ModelError(f"expected a vector of {self.d} features, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ModelError("instance contains non-finite values")
        return x

    def _check_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ModelError(f"expected an (n, {self.d}) matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ModelError("batch contains non-finite values")
        return X

    def walk(self, X: np.ndarray) -> np.ndarray:
        """Global leaf node ids, shape (T, rows), of every row of X in every tree.

        All trees take one depth level per step together; a row already on
        its leaf stays there, because leaves link to themselves.
        """
        flat = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(int(self.depths.max())):
            # at a leaf, feature -1 reads a neighbouring value no step depends on
            go_left = flat[row_start + self.feature[node]] <= self.threshold[node]
            node = self._children[2 * node + go_left]
        return node

    @functools.cached_property
    def leaf_boxes(self) -> LeafBoxes:
        """The box of every leaf, built on first use and kept.

        All trees go down one depth level per step together, carrying only
        the frontier's boxes: a left child takes its parent's box with the
        upper bound lowered to the threshold, a right child with the lower
        bound raised to it, and a leaf's box is written to its row when the
        frontier reaches it.
        """
        leaf = self.feature == LEAF
        row = np.cumsum(leaf) - 1
        lo, hi = np.empty((row[-1] + 1, self.d)), np.empty((row[-1] + 1, self.d))
        node = self.roots
        box_lo, box_hi = np.full((node.size, self.d), -np.inf), np.full((node.size, self.d), np.inf)
        while node.size:  # ends because children lie after their parent
            inner = self.feature[node] != LEAF
            reached = row[node[~inner]]
            lo[reached], hi[reached] = box_lo[~inner], box_hi[~inner]
            node, box_lo, box_hi = node[inner], box_lo[inner], box_hi[inner]
            split = np.arange(node.size), self.feature[node]
            left_hi, right_lo = box_hi.copy(), box_lo.copy()
            left_hi[split] = np.minimum(box_hi[split], self.threshold[node])
            right_lo[split] = np.maximum(box_lo[split], self.threshold[node])
            node = np.concatenate([self._children[2 * node + 1], self._children[2 * node]])
            box_lo, box_hi = np.concatenate([box_lo, right_lo]), np.concatenate([left_hi, box_hi])
        return LeafBoxes(*map(_read_only, (row, lo, hi)))

    def reach(self, lo: np.ndarray, hi: np.ndarray, lo_open: np.ndarray) -> np.ndarray:
        """Global ids, ascending, of every leaf that some point of a box reaches.

        The box holds, per feature, the values in [lo, hi], or in (lo, hi]
        where ``lo_open``; infinite bounds leave a side unbounded. As in
        ``walk``, all trees take one depth level per step together: an inner
        node passes the box on to its left child when the box holds a value
        <= the threshold, and to its right child when it holds one above it.
        A non-empty box reaches at least one leaf of every tree, and global
        ids run tree by tree, so the result is grouped by tree. A leaf that
        no point at all reaches (a branch that splits one feature twice in
        conflicting ways, which ``fit`` never grows) can be listed too.
        """
        # a closed lo <= t exactly when the float below lo is < t
        low = np.where(lo_open, lo, np.nextafter(lo, -np.inf))
        node, reached = self.roots, []
        while node.size:  # ends because children lie after their parent
            feature = self.feature[node]
            leaf = feature == LEAF
            reached.append(node[leaf])
            node, feature = node[~leaf], feature[~leaf]
            threshold = self.threshold[node]
            left, right = low[feature] < threshold, hi[feature] > threshold
            node = self._children[np.concatenate([2 * node[left] + 1, 2 * node[right]])]
        return np.sort(np.concatenate(reached))


def predict(forest: Forest, x) -> np.ndarray:
    """Componentwise mean of the per-tree leaf predictions."""
    return predict_batch(forest, forest._check_vector(x)[None, :])[0]


def predict_batch(forest: Forest, X) -> np.ndarray:
    """Forest predictions for an (n, d) batch; returns an (n, m) array.

    Rows are walked in chunks of about WALK_CHUNK_ELEMENTS (tree, row) pairs,
    which keeps the walk's temporaries small. Each row's leaf values are
    totalled as one (trees, m) block, so a row's prediction does not depend
    on the rows that share its batch; ``predict`` is the one-row case.
    """
    X = forest._check_matrix(X)
    total = np.empty((X.shape[0], forest.m))
    step = max(1, WALK_CHUNK_ELEMENTS // forest.n_trees)
    for start in range(0, X.shape[0], step):
        leaves = forest.walk(X[start : start + step])
        total[start : start + step] = forest.value[np.ascontiguousarray(leaves.T)].sum(axis=1)
    return total / forest.n_trees


def _best_split(X, Y, rows, candidates, min_leaf, target_scale):
    """Best (feature, threshold) for the node holding ``rows``, or None.

    One search scores every candidate feature at once: the candidate columns
    are sorted together as one (n, k) block, and (n, k, m) cumulative sums of
    y and y² give, for each legal split position of each feature, the summed
    per-target reduction in sum-of-squared-errors (divided by an optional
    per-target scale). The best position of each feature is its first
    highest gain, and the best feature is the first one whose gain is
    highest, so ties resolve to the lowest feature index and then the lowest
    threshold. The node splits only on a gain above zero.
    """
    sub_y = Y[rows]
    n = rows.shape[0]
    col_sum = sub_y.sum(axis=0)
    parent_sse = (sub_y * sub_y).sum(axis=0) - col_sum * col_sum / n
    if target_scale is not None:
        parent_sse = parent_sse / target_scale
    parent = parent_sse.sum()
    block = X[rows[:, None], candidates]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    ys = sub_y[order]
    cum = np.cumsum(ys, axis=0)
    cum_sq = np.cumsum(ys * ys, axis=0)
    # a split after sorted row i leaves i + 1 rows on the left; i in [lo, hi)
    lo, hi = min_leaf - 1, n - min_leaf
    left_n = np.arange(min_leaf, hi + 1, dtype=np.float64)[:, None, None]
    right_n = n - left_n
    left_sum = cum[lo:hi]
    right_sum = col_sum - left_sum
    left_sse = cum_sq[lo:hi] - left_sum * left_sum / left_n
    right_sse = cum_sq[-1] - cum_sq[lo:hi] - right_sum * right_sum / right_n
    if target_scale is not None:
        left_sse = left_sse / target_scale
        right_sse = right_sse / target_scale
    gains = parent - left_sse.sum(axis=2) - right_sse.sum(axis=2)
    gains[~(xs[lo:hi] < xs[lo + 1 : hi + 1])] = -np.inf  # equal neighbours cannot be split apart
    pos = gains.argmax(axis=0)
    best = gains[pos, np.arange(pos.shape[0])]
    j = int(best.argmax())
    if not best[j] > 0.0:
        return None
    i = lo + int(pos[j])
    a, b = float(xs[i, j]), float(xs[i + 1, j])  # the neighbouring values the split parts
    mid = 0.5 * (a + b)  # or a, where it rounds to b or overflows, as scikit-learn's splitter does
    return int(candidates[j]), mid if a <= mid < b else a


def _grow_buffers(n: int, m: int) -> Tree:
    """Node arrays for one tree grown from ``n`` rows; every leaf holds at
    least one row, so such a tree has at most 2n - 1 nodes."""
    size = 2 * n - 1
    return Tree(*(np.empty((size, m) if per_target else size, dtype) for _, dtype, per_target in _TREE_ARRAYS.values()))


def _grow_tree(X, Y, config: ForestConfig, rng, target_scale, buffers: Tree) -> Tree:
    """Grow one tree depth first from an explicit stack of (node, rows, depth),
    into ``buffers`` (from ``_grow_buffers``), and return views of the nodes
    used, which the next tree overwrites, setting all five fields of each node.

    Nodes are searched in pre-order, left subtree before right, and a split
    numbers its two children when it is made; the candidate features a node
    draws from ``rng`` depend only on that order.
    """
    n, d = X.shape
    k_feats = config.features_per_split(d)
    min_leaf = config.min_samples_leaf
    feature, threshold, left, right, value = buffers
    n_nodes = 1
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        split = None
        if rows.shape[0] >= 2 * min_leaf and (config.max_depth is None or depth < config.max_depth):
            cand = np.arange(d) if k_feats >= d else np.sort(rng.choice(d, size=k_feats, replace=False))
            split = _best_split(X, Y, rows, cand, min_leaf, target_scale)
        if split is None:
            feature[node], threshold[node], left[node], right[node] = LEAF, 0.0, -1, -1
            value[node] = Y[rows].mean(axis=0)
            continue
        f, thr = split
        feature[node], threshold[node], left[node], right[node], value[node] = f, thr, n_nodes, n_nodes + 1, 0.0
        n_nodes += 2
        go_left = X[rows, f] <= thr
        stack.append((n_nodes - 1, rows[~go_left], depth + 1))
        stack.append((n_nodes - 2, rows[go_left], depth + 1))
    return Tree(*(array[:n_nodes] for array in buffers))


def fit(train, config: ForestConfig) -> Forest:
    """Train a forest of CART-style multi-output trees.

    Each tree's randomness (bootstrap resample, feature subsets) comes from a
    generator seeded by (config.seed, tree index), so the result is identical
    regardless of training order or parallelism: the first K trees of any
    forest are the K-tree forest with the same seed. Each node takes one
    vectorised split search over its candidate features (``_best_split``);
    it picks the split a scan of one feature at a time would pick, ties
    included, so the trees are exact CART trees.

    Every tree grows into the same buffers and is copied straight into the
    node table, whose arrays grow geometrically and are trimmed once at the
    end; the forest keeps them without copying the table again.
    """
    X, Y = train.features, train.targets
    n = X.shape[0]
    if n < config.min_samples_leaf:
        raise ModelError(f"dataset of {n} rows cannot satisfy min_samples_leaf={config.min_samples_leaf}")
    scale = None  # dividing by a scale of 1.0 would change nothing
    if config.normalize_targets:
        scale = Y.var(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
    buffers = _grow_buffers(n, Y.shape[1])
    table = _grow_buffers(n, Y.shape[1])  # room for the first tree
    counts = np.empty(config.n_estimators, dtype=np.int64)
    used = 0
    for t in range(config.n_estimators):
        rng = np.random.default_rng([config.seed, t])
        rows = rng.integers(0, n, size=n) if config.bootstrap else slice(None)
        tree = _grow_tree(X[rows], Y[rows], config, rng, scale, buffers)
        counts[t] = tree.n_nodes
        if used + tree.n_nodes > table.feature.shape[0]:
            _resize(table, max(2 * table.feature.shape[0], used + tree.n_nodes))
        for array, part in zip(table, tree):
            array[used : used + tree.n_nodes] = part
        used += tree.n_nodes
    del buffers, tree  # so that the forest's checks do not run beside them
    _resize(table, used)
    bounds = np.column_stack([X.min(axis=0), X.max(axis=0)])
    return Forest._owning(table, counts, config, train.feature_names, train.target_names, bounds)


def _resize(table: Tree, size: int) -> None:
    """Give every array of a node table ``size`` rows, in place, keeping the
    rows both sizes share; the arrays must be referenced nowhere else."""
    for array in table:
        array.resize((size, *array.shape[1:]), refcheck=False)


def evaluate_mae(forest: Forest, data) -> tuple[np.ndarray, float]:
    """Per-target mean absolute error and its average over targets."""
    if data.n < 1:
        raise ModelError("cannot evaluate on an empty dataset")
    preds = predict_batch(forest, data.features)
    per_target = np.abs(preds - data.targets).mean(axis=0)
    return per_target, float(per_target.mean())


def save(forest: Forest, path) -> None:
    """Write the v3 model file to ``path`` exactly, whatever its name.

    It is a zip of stored (uncompressed) members: ``header.json`` with the
    format, version, config, names and bounds; one ``.npy`` member per node
    array of ``_TREE_ARRAYS``, holding the packed array; and
    ``node_counts.npy``, each tree's node count. Each array is streamed into
    its member, and every member has the same fixed timestamp, so the bytes
    depend only on the forest. Leaf boxes are not stored: a forest builds
    them on first use.
    """
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(forest.config),
        "feature_names": list(forest.feature_names),
        "target_names": list(forest.target_names),
        "feature_bounds": forest.feature_bounds.tolist(),
    }
    arrays = {name: getattr(forest, name) for name in _TREE_ARRAYS}
    arrays[_NODE_COUNTS] = np.diff(forest.roots, append=forest.feature.shape[0])
    with zipfile.ZipFile(path, "w") as archive:
        with archive.open(_member(_HEADER), "w") as fh:
            fh.write(json.dumps(header).encode())
        for name, array in arrays.items():
            with archive.open(_member(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def _member(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))  # the earliest time a zip can hold
    info.create_system = 3  # Unix, on every platform
    return info


def _header(path, doc):
    """The version and config, and the names and bounds ``Forest`` takes,
    from a parsed ``header.json``."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path}: not a {MODEL_FORMAT} file")
    version = doc.get("version")
    if isinstance(version, bool) or version not in (2, MODEL_VERSION):  # True == 1
        raise ModelError(f"{path}: unsupported model version {version!r}")
    try:
        config = ForestConfig(**doc["config"])
        fields = [doc[key] for key in ("feature_names", "target_names", "feature_bounds")]
        # numpy would read a bool beside numbers as 1 or 0, which no later test of the array's kind could see
        if not set(map(type, itertools.chain.from_iterable(fields[2]))) <= {int, float}:
            raise ValueError("feature_bounds must hold numbers, not bools or strings")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ForestConfig's ModelError too
        raise ModelError(f"{path}: corrupt model file ({exc})") from None
    return version, config, fields


def _read_zip(path, fh):
    size = os.fstat(fh.fileno()).st_size
    with zipfile.ZipFile(fh) as archive:
        for info in archive.infolist():  # so no member can inflate, or claim more bytes than the file has
            if info.compress_type != zipfile.ZIP_STORED or max(info.file_size, info.compress_size) > size:
                raise ValueError(f"{info.filename} is not a stored member inside the file")
        version, config, fields = _header(path, json.loads(archive.read(_HEADER).decode("utf-8")))
        names = [*_TREE_ARRAYS, _NODE_COUNTS, *([_V2_ONLY] if version == 2 else [])]
        if sorted(archive.namelist()) != sorted([_HEADER, *(f"{name}.npy" for name in names)]):
            raise ValueError(f"members {archive.namelist()}, expected {_HEADER} and one .npy per {names}")
        arrays = {name: _read_npy(archive, f"{name}.npy") for name in names}
    arrays.pop(_V2_ONLY, None)
    return config, fields, arrays.pop(_NODE_COUNTS), Tree(**arrays)


def _read_npy(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """One ``.npy`` member, read with ``allow_pickle=False`` once its header
    is known to declare exactly the data the member holds, so no array is
    allocated larger than the file."""
    with archive.open(name) as member:
        version = np.lib.format.read_magic(member)
        read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
        shape, _, dtype = read_header(member)  # read_array refuses a version it does not know
        declared, held = math.prod(shape) * dtype.itemsize, archive.getinfo(name).file_size - member.tell()
        if declared != held:
            raise ValueError(f"{name}: header declares {declared} bytes of data, the member holds {held}")
        member.seek(0)
        return np.lib.format.read_array(member, allow_pickle=False)


# what reading a model file can raise on bytes that are not a model
_CORRUPT = (zipfile.BadZipFile, zipfile.LargeZipFile, EOFError, NotImplementedError, RuntimeError, OSError,
            KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError)


def load(path) -> Forest:
    """Read a model file of version 3, what ``save`` writes, or 2. Only what
    reading the file can get wrong is checked here; ``Forest`` checks the
    structure, as for any forest."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ModelError(
                f"{path}: not a {MODEL_FORMAT} file of version 2 or 3 (version 1 files are no longer read: "
                "load and save them with ruleforest at f53f6d9 or earlier)"
            )
        try:
            config, fields, counts, nodes = _read_zip(path, fh)
        except ModelError:  # the header's, which name the file already
            raise
        except _CORRUPT as exc:  # a broken zip, an undecodable or too deeply nested header
            raise ModelError(f"{path}: corrupt model file ({str(exc) or type(exc).__name__})") from None
    try:
        return Forest._owning(nodes, counts, config, *fields)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
