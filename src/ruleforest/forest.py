"""Multi-output regression random forest with explainer-facing internals.

Each tree is grown or loaded as flat node arrays (``Tree``). Growing is
exact CART: each node runs one split search over all of its candidate
features at once (one sort of the candidate columns and one set of
cumulative target sums), and the tree grows depth first from an explicit
stack, in the order that fixes which candidates each node draws. Building a
``Forest`` packs the six node arrays of every tree into one read-only node
table with one root offset per tree, and keeps no per-tree object. For the
walks, child links become global node indices and leaves link to
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
trees were made: distinct string names, at least one target, finite (d, 2)
feature bounds of numbers, one tree per ``config.n_estimators``, node arrays
of the shape, element kind and dtype the node schema ``_TREE_ARRAYS`` gives
(shape first, kind second, cast last), features in range, children after
their parent inside the same tree, finite numbers. So the walk ends on every
forest that can be built. ``load`` adds only what parsing JSON needs: no
bool or string where numbers belong, since numpy reads ``[1, true]`` as
``[1, 1]``.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

MODEL_FORMAT = "ruleforest-model"
MODEL_VERSION = 1

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


# The node schema, which ``Forest`` applies to every tree and ``save`` writes
# as one v1 JSON object per tree, in this order. Per array: what its elements
# may be ("integers" or "numbers", as numpy kinds), the dtype it is cast to,
# and whether it has one column per target, shape (n, m), rather than (n,).
_HOLDS = {"integers": "i", "numbers": "if"}
_TREE_ARRAYS = {
    "feature": ("integers", np.int64, False),
    "threshold": ("numbers", np.float64, False),
    "left": ("integers", np.int64, False),
    "right": ("integers", np.int64, False),
    "value": ("numbers", np.float64, True),
    "sample_count": ("integers", np.int64, False),
}


class Tree(NamedTuple):
    """One tree's node arrays, in the order of ``_TREE_ARRAYS``. ``feature[i]
    == LEAF`` marks a leaf node.

    Routing convention: an instance with value <= threshold goes left,
    otherwise right. ``left``/``right`` are node indices within this tree.
    ``value`` holds the leaf prediction vector for leaves (zeros elsewhere).
    ``fit`` and ``load`` hand trees to ``Forest``, which packs them; the
    trees a ``Forest`` gives are read-only views into its packed arrays.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    sample_count: np.ndarray

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
    """Trees packed into one read-only node table, and the tables derived from it.

    The six node arrays of ``_TREE_ARRAYS`` hold every tree's nodes back to
    back; tree ``t`` starts at node ``roots[t]``, and ``left``/``right`` keep
    the in-tree child indices of a ``Tree``. Building the forest checks and
    packs the given trees once and leaves them as they were; it keeps no
    per-tree object, and ``trees`` makes read-only ``Tree`` views into the
    packed arrays when read. The node arrays and every table built from
    them (``roots``, ``depths``, the leaf extremes, the child links the walks
    follow, ``feature_bounds`` and ``leaf_boxes``) are read-only, so none of
    them can fall out of step with the others.
    """

    def __init__(self, trees: list[Tree], config: ForestConfig, feature_names, target_names, feature_bounds):
        if config.n_estimators != len(trees):
            raise ModelError(f"config.n_estimators is {config.n_estimators}, but the forest has {len(trees)} trees")
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
        # right child at inner nodes, (N, m) leaf predictions and the training rows that reached the node
        packed, nodes = [], None
        for name, column in zip(_TREE_ARRAYS, zip(*trees)):
            holds, dtype, per_target = _TREE_ARRAYS[name]
            arrays = []
            for t, array in enumerate(column):
                try:
                    arrays.append(np.asarray(array))
                except ValueError as exc:  # a ragged list
                    raise ModelError(f"tree {t}: {name} is not an array ({exc})") from None
            shapes = [array.shape for array in arrays]
            if nodes is None:  # each tree's node count, from its feature array (0 for a 0-d one, which fails)
                nodes = [shape[0] if shape else 0 for shape in shapes]
            expected = [(n, self.m) if per_target else (n,) for n in nodes]
            if shapes != expected:
                t = next(t for t, shape in enumerate(shapes) if shape != expected[t])
                raise ModelError(f"tree {t}: {name} has shape {shapes[t]}, expected {expected[t]}")
            if 0 in nodes:
                raise ModelError(f"tree {nodes.index(0)}: needs at least one node")
            if not {array.dtype.kind for array in arrays}.issubset(_HOLDS[holds]):
                t = next(t for t, array in enumerate(arrays) if array.dtype.kind not in _HOLDS[holds])
                raise ModelError(f"tree {t}: {name} holds {arrays[t].dtype} values, expected {holds}")
            packed.append(_read_only(np.concatenate(arrays).astype(dtype, copy=False)))
        self.feature, self.threshold, self.left, self.right, self.value, self.sample_count = packed
        sizes = np.array(nodes)
        self.roots = _read_only(np.concatenate([[0], np.cumsum(sizes)[:-1]]))  # (T,) first node of each tree
        tree_of = np.repeat(np.arange(self.n_trees), sizes)
        node = np.arange(self.feature.shape[0])
        leaf = self.feature == LEAF
        offset = self.roots[tree_of]
        left = np.where(leaf, node, self.left + offset)
        right = np.where(leaf, node, self.right + offset)
        end = offset + sizes[tree_of]
        faults = (
            (~leaf & ((self.feature < 0) | (self.feature >= self.d)), f"feature index outside [0, {self.d})"),
            (~leaf & ((left <= node) | (left >= end)), "left child outside (node, tree end)"),
            (~leaf & ((right <= node) | (right >= end)), "right child outside (node, tree end)"),
            (~(np.isfinite(self.threshold) & np.isfinite(self.value).all(axis=1)), "non-finite threshold or value"),
        )
        for bad, fault in faults:
            if bad.any():
                raise ModelError(f"tree {int(tree_of[np.argmax(bad)])}: {fault}")
        # (2N,): node i's right child at 2i and left child at 2i + 1, as global ids
        self._children = _read_only(np.column_stack([right, left]).ravel())
        # (T, m) lowest and highest leaf value per tree; children lie after their parent,
        # so each tree's last node is a leaf
        self.leaf_min = _read_only(np.minimum.reduceat(np.where(leaf[:, None], self.value, np.inf), self.roots))
        self.leaf_max = _read_only(np.maximum.reduceat(np.where(leaf[:, None], self.value, -np.inf), self.roots))
        depths = np.zeros(self.n_trees, dtype=np.int64)
        frontier, level = np.zeros(node.shape, dtype=bool), 0
        frontier[self.roots] = True
        while frontier.any():  # ends because children lie after their parent
            depths[tree_of[frontier]] = level
            inner = frontier & ~leaf
            frontier = np.zeros(node.shape, dtype=bool)
            frontier[left[inner]] = frontier[right[inner]] = True
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
    x = forest._check_vector(x)
    return forest.value[forest.walk(x[None, :])[:, 0]].sum(axis=0) / forest.n_trees


def predict_batch(forest: Forest, X) -> np.ndarray:
    """Forest predictions for an (n, d) batch; returns an (n, m) array.

    Rows are walked in chunks of about WALK_CHUNK_ELEMENTS (tree, row) pairs,
    which keeps the walk's temporaries small. Each row's leaf values are
    totalled as one (trees, m) block, the sum ``predict`` takes, so a row's
    prediction does not depend on the rows that share its batch.
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
    return int(candidates[j]), float(0.5 * (xs[i, j] + xs[i + 1, j]))


def _grow_tree(X, Y, config: ForestConfig, rng, target_scale) -> Tree:
    """Grow one tree depth first from an explicit stack of (node, rows, depth).

    Nodes are searched in pre-order, left subtree before right, and a split
    numbers its two children when it is made; the candidate features a node
    draws from ``rng`` depend only on that order.
    """
    n, d = X.shape
    k_feats = config.features_per_split(d)
    min_leaf = config.min_samples_leaf
    size = 2 * n - 1  # every leaf holds at least one row
    feature = np.full(size, LEAF, dtype=np.int64)
    threshold = np.zeros(size)
    left = np.full(size, -1, dtype=np.int64)
    right = np.full(size, -1, dtype=np.int64)
    value = np.zeros((size, Y.shape[1]))
    count = np.zeros(size, dtype=np.int64)
    n_nodes = 1
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        count[node] = rows.shape[0]
        split = None
        if rows.shape[0] >= 2 * min_leaf and (config.max_depth is None or depth < config.max_depth):
            cand = np.arange(d) if k_feats >= d else np.sort(rng.choice(d, size=k_feats, replace=False))
            split = _best_split(X, Y, rows, cand, min_leaf, target_scale)
        if split is None:
            value[node] = Y[rows].mean(axis=0)
            continue
        f, thr = split
        feature[node], threshold[node] = f, thr
        left[node], right[node] = n_nodes, n_nodes + 1
        n_nodes += 2
        go_left = X[rows, f] <= thr
        stack.append((n_nodes - 1, rows[~go_left], depth + 1))
        stack.append((n_nodes - 2, rows[go_left], depth + 1))
    return Tree(*(array[:n_nodes].copy() for array in (feature, threshold, left, right, value, count)))


def fit(train, config: ForestConfig) -> Forest:
    """Train a forest of CART-style multi-output trees.

    Each tree's randomness (bootstrap resample, feature subsets) comes from a
    generator seeded by (config.seed, tree index), so the result is identical
    regardless of training order or parallelism: the first K trees of any
    forest are the K-tree forest with the same seed. Each node takes one
    vectorised split search over its candidate features (``_best_split``);
    it picks the split a scan of one feature at a time would pick, ties
    included, so the trees are exact CART trees.
    """
    X, Y = train.features, train.targets
    n = X.shape[0]
    if n < config.min_samples_leaf:
        raise ModelError(f"dataset of {n} rows cannot satisfy min_samples_leaf={config.min_samples_leaf}")
    scale = None  # dividing by a scale of 1.0 would change nothing
    if config.normalize_targets:
        scale = Y.var(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
    trees = []
    for t in range(config.n_estimators):
        rng = np.random.default_rng([config.seed, t])
        rows = rng.integers(0, n, size=n) if config.bootstrap else slice(None)
        trees.append(_grow_tree(X[rows], Y[rows], config, rng, scale))
    bounds = np.column_stack([X.min(axis=0), X.max(axis=0)])
    return Forest(trees, config, train.feature_names, train.target_names, bounds)


def evaluate_mae(forest: Forest, data) -> tuple[np.ndarray, float]:
    """Per-target mean absolute error and its average over targets."""
    if data.n < 1:
        raise ModelError("cannot evaluate on an empty dataset")
    preds = predict_batch(forest, data.features)
    per_target = np.abs(preds - data.targets).mean(axis=0)
    return per_target, float(per_target.mean())


def save(forest: Forest, path) -> None:
    """Write the v1 JSON document: the header fields, then ``trees``, one
    object per tree. Each tree is encoded by its own ``json.dumps``, so the
    C encoder does the work and only one tree's lists are held at a time;
    the bytes are those ``json.dump`` of the whole document writes."""
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(forest.config),
        "feature_names": list(forest.feature_names),
        "target_names": list(forest.target_names),
        "feature_bounds": forest.feature_bounds.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header)[:-1] + ', "trees": [')
        for t, tree in enumerate(forest.trees):
            fh.write((", " if t else "") + json.dumps({name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}))
        fh.write("]}")


def _numbers_only(values: list, nested: bool) -> bool:
    """Whether a parsed JSON list (of lists, if ``nested``) holds only ints
    and floats. numpy would read a bool beside numbers as 1 or 0, which no
    later test of the array's kind could see."""
    return set(map(type, itertools.chain.from_iterable(values) if nested else values)) <= {int, float}


def load(path) -> Forest:
    """Read a model file. Only what JSON parsing can get wrong is checked
    here; ``Forest`` checks the structure, as for any forest."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # undecodable bytes, malformed or too deeply nested JSON
        raise ModelError(f"{path}: corrupt model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path}: not a {MODEL_FORMAT} file")
    version = doc.get("version")
    if isinstance(version, bool) or version != MODEL_VERSION:  # True == 1
        raise ModelError(f"{path}: unsupported model version {version!r}")
    try:
        config = ForestConfig(**doc["config"])
        fields = [doc[key] for key in ("feature_names", "target_names", "feature_bounds")]
        if not _numbers_only(fields[2], True):
            raise ValueError("feature_bounds must hold numbers, not bools or strings")
        trees = []
        for t, parsed in enumerate(doc.pop("trees")):  # the parsed lists are freed after the loop
            for name, (_, _, per_target) in _TREE_ARRAYS.items():
                if not _numbers_only(parsed[name], per_target):
                    raise ValueError(f"tree {t}: {name} must hold numbers, not bools or strings")
            trees.append(Tree(*(np.asarray(parsed[name]) for name in _TREE_ARRAYS)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ForestConfig's ModelError too
        raise ModelError(f"{path}: corrupt model file ({exc})") from None
    try:
        return Forest(trees, config, *fields)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
