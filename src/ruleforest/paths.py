"""Per-tree decision paths for one instance, plus association-rule scoring.

``extract_paths`` returns every tree's path in one ``Paths``: (trees,
features) arrays of interval bounds and feature use, plus each tree's leaf.
A path's bounds depend only on its leaf, so extraction is one walk to the
leaves and two row gathers from the forest's leaf boxes. Mining, reduction
and rule composition read the arrays; indexing a ``Paths`` builds a ``Path``
view. The paths' feature sets act as transactions: ``mine`` gives the
pairwise supports, rule confidences and per-feature scores as arrays over
the features the paths test, and the scores order the enrichment loop of
the reduction step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import Forest


@dataclass
class Path:
    """One root-to-leaf trace: the feature intervals the instance satisfied.

    Each condition maps a feature index to an interval (lower, upper] with
    lower possibly -inf and upper possibly +inf; the instance's value lies
    strictly above lower and at or below upper.
    """

    tree_index: int
    conditions: dict[int, tuple[float, float]]
    leaf_prediction: np.ndarray
    leaf_id: int

    @property
    def feature_set(self) -> frozenset[int]:
        return frozenset(self.conditions)


@dataclass(eq=False)
class Paths:
    """Every tree's path for one instance, one row per tree: ``lo``/``hi``
    bound each feature (lower strict, infinite where open) and ``used`` marks
    the features the path tests. ``paths[t]`` is tree t's ``Path`` view."""

    lo: np.ndarray  # (T, d)
    hi: np.ndarray  # (T, d)
    used: np.ndarray  # (T, d) bool
    leaf_id: np.ndarray  # (T,) leaf node index within each tree
    leaf_prediction: np.ndarray  # (T, m)

    def __len__(self) -> int:
        return self.used.shape[0]

    def __getitem__(self, t: int) -> Path:
        lo, hi = self.lo[t].tolist(), self.hi[t].tolist()
        conditions = {f: (lo[f], hi[f]) for f, used in enumerate(self.used[t].tolist()) if used}
        return Path(int(t), conditions, self.leaf_prediction[t], int(self.leaf_id[t]))

    def __iter__(self):
        return (self[t] for t in range(len(self)))


@dataclass(eq=False)
class AssociationModel:
    """Pairwise mining over ``features``, the features some path tests in
    ascending order; the reducer reads only ``feature_scores``."""

    features: np.ndarray  # (k,)
    support: np.ndarray  # (k, k) share of paths testing both; [j, j] is j's own
    confidence: np.ndarray  # (k, k) rule j -> k; 0 below min_support and where j = k
    feature_scores: np.ndarray  # (k,) score of features[j]


def extract_paths(forest: Forest, x) -> Paths:
    """Every tree's path for instance x: one walk finds its leaves, and the
    forest's leaf boxes (``Forest.leaf_boxes``, built on the first call)
    give each path's bounds, so ``lo``/``hi`` equal the thresholds the walk
    passes, tightened along the path."""
    x = forest._check_vector(x)
    leaves = forest.walk(x[None, :])[:, 0]
    boxes = forest.leaf_boxes
    rows = boxes.row[leaves]
    lo, hi = boxes.lo.take(rows, axis=0), boxes.hi.take(rows, axis=0)
    # thresholds are finite, so a bound is finite exactly where the path tests the feature
    used = (lo > -np.inf) | (hi < np.inf)
    return Paths(lo, hi, used, leaves - forest.roots, forest.value.take(leaves, axis=0))


def _check_min_support(min_support: float) -> None:
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")


def mine(paths: Paths, min_support: float = 0.1) -> AssociationModel:
    """Mine pairwise association rules over the paths' feature sets.

    Transactions are the per-path feature sets. Each pair reaching
    ``min_support`` yields both ordered rules with confidence
    support(pair) / support(antecedent). A feature's score is the mean
    confidence over rules it fronts, summed in ascending partner order,
    falling back to its own support when it fronts none. When no path tests
    a feature, every array is zero-size.
    """
    if len(paths) == 0:
        raise ValueError("need at least one path")
    _check_min_support(min_support)
    features = np.flatnonzero(paths.used.any(axis=0))
    if not features.size:
        return AssociationModel(features, np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))
    used = paths.used[:, features].astype(np.float64)
    support = (used.T @ used) / len(paths)  # [j, k]: share of paths using both
    own = np.diag(support)
    pair = (support >= min_support) & ~np.eye(features.size, dtype=bool)
    conf = np.where(pair, support / own[:, None], 0.0)
    count = pair.sum(axis=1)
    # cumsum adds in ascending partner order (sum adds pairwise): last bits decide ranking ties
    scores = np.where(count > 0, np.cumsum(conf, axis=1)[:, -1] / np.maximum(count, 1), own)
    return AssociationModel(features, support, conf, scores)


def rank_features(model: AssociationModel, order: str = "ascending") -> list[int]:
    """``model.features`` sorted by score, ties on ascending index, as ints."""
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown rank order {order!r}")
    sign = 1.0 if order == "ascending" else -1.0
    return model.features[np.lexsort((model.features, sign * model.feature_scores))].tolist()
