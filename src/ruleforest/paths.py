"""Per-tree decision paths for one instance, plus association-rule scoring.

The paths' feature sets act as transactions; pairwise itemset mining yields a
confidence score per feature, which orders the enrichment loop in the
reduction step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .forest import LEAF, Forest


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


@dataclass
class AssociationModel:
    """Supports for singleton/pair itemsets, the derived one-to-one rules,
    and the per-feature confidence scores consumed by the reducer."""

    itemset_supports: dict[frozenset[int], float] = field(default_factory=dict)
    rules: list[tuple[int, int, float]] = field(default_factory=list)
    feature_scores: dict[int, float] = field(default_factory=dict)


def extract_paths(forest: Forest, x) -> list[Path]:
    """Trace every tree for instance x, recording tightened split intervals.

    One walk through all trees fills per-(tree, feature) bounds; each path's
    conditions list its tested features in ascending order.
    """
    x = forest._check_vector(x)
    lo = np.full((forest.n_trees, forest.d), -np.inf)
    hi = np.full((forest.n_trees, forest.d), np.inf)
    used = np.zeros((forest.n_trees, forest.d), dtype=bool)

    def visit(feature, threshold, go_left):
        inner = feature[:, 0] != LEAF
        tree, f, thr, left = np.flatnonzero(inner), feature[inner, 0], threshold[inner, 0], go_left[inner, 0]
        used[tree, f] = True
        below, above = (tree[left], f[left]), (tree[~left], f[~left])
        hi[below] = np.minimum(hi[below], thr[left])
        lo[above] = np.maximum(lo[above], thr[~left])

    leaves = forest.walk(x[None, :], visit)[:, 0]
    conditions: list[dict[int, tuple[float, float]]] = [{} for _ in range(forest.n_trees)]
    tree, f = np.nonzero(used)
    for t, g, a, b in zip(tree.tolist(), f.tolist(), lo[used].tolist(), hi[used].tolist()):
        conditions[t][g] = (a, b)
    preds = forest.value[leaves]
    return [
        Path(tree_index=t, conditions=conditions[t], leaf_prediction=preds[t], leaf_id=leaf_id)
        for t, leaf_id in enumerate((leaves - forest.roots).tolist())
    ]


def mine(paths: list[Path], min_support: float = 0.1) -> AssociationModel:
    """Mine pairwise association rules over the paths' feature sets.

    Transactions are the per-path feature sets. Supports are computed for
    every singleton and for every pair reaching ``min_support``; each
    qualifying pair yields both ordered rules with confidence
    support(pair) / support(antecedent). A feature's score is the mean
    confidence over rules it fronts, falling back to its own support when it
    fronts none.
    """
    if not paths:
        raise ValueError("need at least one path")
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    n = len(paths)
    features = sorted(set().union(*(p.conditions for p in paths)))
    used = np.asarray([[f in p.conditions for f in features] for p in paths], dtype=np.float64)
    support = ((used.T @ used) / n).tolist()  # [j][k]: share of paths using both

    supports = {frozenset((f,)): support[j][j] for j, f in enumerate(features)}
    rules: list[tuple[int, int, float]] = []
    confidences: dict[int, list[float]] = {f: [] for f in features}
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
    return AssociationModel(itemset_supports=supports, rules=rules, feature_scores=scores)


def rank_features(model: AssociationModel, order: str = "ascending") -> list[int]:
    """Features sorted by confidence score; ties break on ascending index."""
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown rank order {order!r}")
    sign = 1.0 if order == "ascending" else -1.0
    return sorted(model.feature_scores, key=lambda f: (sign * model.feature_scores[f], f))
