"""Path reduction under an allowed-error budget and conclusive rule assembly.

The enrichment loop grows a feature set in confidence order; a path is kept
once all of its features are inside the set. Excluded trees are accounted for
by substituting the leaf extreme farthest from the prediction, which yields
both the local error the budget is tested against and the adjusted
prediction. Every step's kept count and local errors come from one pass, and
the result keeps them as its ``trace``.

``check_conclusive`` certifies a rule exactly, with no sampling: it walks the
rule's region, a box, down the packed forest once and bounds every tree by
its lowest and highest reachable leaf, which gives the range of the forest's
prediction over the whole region. ``explain`` does not run it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, kfold
from .forest import Forest, ForestConfig, fit, predict, predict_batch
from .paths import AssociationModel, Paths, rank_features

SUBSTITUTIONS = ("per_target", "per_tree")


@dataclass(frozen=True)
class AllowedError:
    """Error budget: one shared value (global scheme) or one per target."""

    scheme: str  # "global_mean" or "per_target"
    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", values)
        if self.scheme not in ("global_mean", "per_target"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (values >= 0).all():  # also refuses NaN, which no error would meet
            raise ValueError("allowed error values must be non-negative")
        if self.scheme == "global_mean" and values.shape != (1,):
            raise ValueError("global scheme takes a single value")

    @classmethod
    def global_mean(cls, value: float) -> "AllowedError":
        return cls("global_mean", np.asarray([value]))

    @classmethod
    def per_target(cls, values) -> "AllowedError":
        return cls("per_target", np.asarray(values))

    def passes(self, local_errors: np.ndarray) -> np.ndarray:
        """Whether each row of a (steps, m) array of per-target local errors
        meets the budget: the row's mean (global) or every entry (per target).
        Each row is summed as ``accepts`` sums it, in any memory layout."""
        local_errors = np.ascontiguousarray(local_errors)
        if self.scheme == "global_mean":
            return local_errors.mean(axis=1) <= self.values[0]
        if local_errors.shape[1:] != self.values.shape:
            raise ValueError("per-target budget length does not match target count")
        return (local_errors <= self.values).all(axis=1)

    def accepts(self, local_errors: np.ndarray) -> bool:
        """Whether one step's per-target local errors meet the budget."""
        return bool(self.passes(np.asarray(local_errors)[None, :])[0])


@dataclass
class ReductionTrace:
    """What the enrichment saw: step k tests the first k ranked features."""

    ranking: list[int]  # features in the order the steps add them
    kept_counts: np.ndarray  # (steps,) paths kept at each step, never decreasing
    local_errors: np.ndarray  # (steps, m) per-target local error at each step
    accepted_step: int  # first step with a kept path whose errors meet the budget


@dataclass
class ReductionResult:
    kept: frozenset[int]
    excluded: frozenset[int]
    feature_set: frozenset[int]
    local_errors: np.ndarray
    adjusted_prediction: np.ndarray
    original_prediction: np.ndarray
    # per-target (low, high) the forest can predict while the kept trees stay on their leaves
    envelope: tuple[np.ndarray, np.ndarray]
    trace: ReductionTrace


@dataclass(frozen=True)
class RuleTerm:
    feature_index: int
    lo: float
    hi: float
    lo_strict: bool  # True when lo comes from a > split rather than a data bound


@dataclass
class Rule:
    """Conjunction of feature intervals with per-target value +/- bound."""

    antecedent: list[RuleTerm]
    consequent: list[tuple[int, float, float]]  # (target_index, value, bound)
    kept_path_count: int

    def box(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rule's region over ``d`` features as ``(lo, hi, lo_open)``:
        feature f holds the values in [lo, hi], or in (lo, hi] where
        ``lo_open``. A feature no term names is unbounded; several terms on
        one feature intersect, so the highest lower bound (open if any term
        with that bound is strict) and the lowest upper bound apply."""
        lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
        lo_open = np.zeros(d, dtype=bool)
        for term in self.antecedent:
            f = term.feature_index
            if term.lo > lo[f] or (term.lo == lo[f] and term.lo_strict):
                lo[f], lo_open[f] = term.lo, term.lo_strict
            hi[f] = min(hi[f], term.hi)
        return lo, hi, lo_open

    def contains(self, X) -> np.ndarray:
        """Whether each value of ``X`` (shape (..., d)) lies in the rule's
        interval on its feature; a row is covered when all of its values do."""
        X = np.asarray(X, dtype=np.float64)
        lo, hi, lo_open = self.box(X.shape[-1])
        return np.where(lo_open, X > lo, X >= lo) & (X <= hi)


@dataclass
class ConclusiveReport:
    """Exact per-target range ``[lower, upper]`` of the forest's prediction
    over a rule's region, with its largest gap from the instance's
    prediction and the count of targets whose range leaves the envelope."""

    max_deviation: np.ndarray
    envelope_violations: int
    lower: np.ndarray
    upper: np.ndarray


class _StepGaps(NamedTuple):
    """Totals (steps, m) over each step's excluded trees."""

    take_low: np.ndarray  # low extreme chosen: per tree (per_tree) or per step (per_target)
    low: np.ndarray  # summed prediction minus lowest leaf
    high: np.ndarray  # summed highest leaf minus prediction
    shift: np.ndarray  # summed substituted minus actual prediction
    abs_shift: np.ndarray  # summed |substituted minus actual prediction|


def _step_gaps(paths: Paths, forest: Forest, entry: np.ndarray, n_steps: int, substitution: str):
    """Total the gaps between the leaf predictions and the forest's stacked
    leaf extremes of the trees each step excludes (tree i at step k when
    ``entry[i] > k``).

    Rows are summed by entry step (one ``bincount``, which adds each step's
    rows in tree order), then suffix-summed from the last step back, so a
    step that excludes nothing totals exactly 0. ``per_target`` picks each
    step's side from the totals, ``per_tree`` each tree's side from its row.
    """
    if substitution not in SUBSTITUTIONS:
        raise ValueError(f"unknown substitution {substitution!r}")
    preds = paths.leaf_prediction
    low, high = preds - forest.leaf_min, forest.leaf_max - preds
    blocks = [low, high]
    if substitution == "per_tree":
        take_low = low >= high
        blocks += [np.where(take_low, low, 0.0), np.where(take_low, 0.0, high)]
    rows = np.hstack(blocks)
    cols = rows.shape[1]
    bins = (entry[:, None] * cols + np.arange(cols)).ravel()
    by_entry = np.bincount(bins, rows.ravel(), (n_steps + 1) * cols).reshape(n_steps + 1, cols)
    totals = np.cumsum(by_entry[::-1], axis=0)[::-1][1:]
    low_total, high_total, *taken = totals.reshape(n_steps, len(blocks), -1).swapaxes(0, 1)
    if substitution == "per_target":
        take_low = low_total >= high_total
        taken = np.where(take_low, low_total, 0.0), np.where(take_low, 0.0, high_total)
    low_taken, high_taken = taken
    return _StepGaps(take_low, low_total, high_total, high_taken - low_taken, low_taken + high_taken)


def _kept_step(paths: Paths, kept, forest: Forest, substitution: str):
    """The excluded mask and the gaps of the one step that keeps ``kept``."""
    kept = frozenset(kept)
    if not kept:
        raise ValueError("kept set must be non-empty")
    excluded = np.asarray([i not in kept for i in range(len(paths))])
    return excluded, _step_gaps(paths, forest, excluded.astype(np.int64), 1, substitution)


def substituted_predictions(
    paths: Paths, kept, forest: Forest, substitution: str = "per_target"
) -> tuple[np.ndarray, np.ndarray]:
    """(preds, r_preds) per tree and target.

    Kept trees keep their own predictions. Each excluded tree is replaced by
    a leaf extreme: under ``per_target`` the whole excluded set moves to the
    side (low or high) whose total distance from the predictions is largest,
    per target; under ``per_tree`` each tree independently takes whichever of
    its extremes is farthest from its own prediction.
    """
    excluded, gaps = _kept_step(paths, kept, forest, substitution)
    extremes = np.where(gaps.take_low, forest.leaf_min, forest.leaf_max)
    return paths.leaf_prediction, np.where(excluded[:, None], extremes, paths.leaf_prediction)


def local_error(
    paths: Paths, kept, forest: Forest, substitution: str = "per_target"
) -> np.ndarray:
    """Per-target mean absolute gap between actual and substituted tree
    predictions; zero when every tree is kept."""
    _, gaps = _kept_step(paths, kept, forest, substitution)
    return gaps.abs_shift[0] / len(paths)


def adjusted_prediction(
    paths: Paths, kept, forest: Forest, substitution: str = "per_target"
) -> np.ndarray:
    """Forest mean recomputed with excluded trees at their substituted
    extremes."""
    _, gaps = _kept_step(paths, kept, forest, substitution)
    return paths.leaf_prediction.mean(axis=0) + gaps.shift[0] / len(paths)


def reduce_paths(
    paths: Paths,
    assoc: AssociationModel,
    allowed: AllowedError,
    forest: Forest,
    rank_order: str = "ascending",
    substitution: str = "per_target",
) -> ReductionResult:
    """Enrich the feature set one feature at a time until the kept paths meet
    the budget.

    Kept paths are those whose conditions only mention enriched features.
    Steps with an empty kept set never pass; once every feature is in, all
    paths are kept and the local error is zero, so the enrichment always
    ends with an accepted result. A path enters at the step that adds its
    last-ranked feature and stays kept, so one pass over the entry steps
    yields every step's kept set and local error.
    """
    n = len(paths)
    ranking = rank_features(assoc, rank_order)
    n_steps = len(ranking) + 1  # step k tests the first k ranked features
    step_of = np.full(paths.used.shape[1], n_steps)
    step_of[ranking] = np.arange(1, n_steps)
    entry = np.where(paths.used, step_of, 0).max(axis=1, initial=0)
    gaps = _step_gaps(paths, forest, entry, n_steps, substitution)
    errors = gaps.abs_shift / n
    passes = allowed.passes(errors)
    passes[: entry.min()] = False  # no path is kept yet
    step = int(passes.argmax())
    if not passes[step]:  # unreachable: the full feature set keeps every path
        raise RuntimeError("reduction ended without an accepted kept set")
    kept = entry <= step
    kept_counts = np.cumsum(np.bincount(entry, minlength=n_steps + 1)[:n_steps])
    original = paths.leaf_prediction.mean(axis=0)
    return ReductionResult(
        kept=frozenset(np.flatnonzero(kept).tolist()),
        excluded=frozenset(np.flatnonzero(~kept).tolist()),
        feature_set=frozenset(ranking[:step]),
        local_errors=errors[step],
        adjusted_prediction=original + gaps.shift[step] / n,
        original_prediction=original,
        envelope=(original - gaps.low[step] / n, original + gaps.high[step] / n),
        trace=ReductionTrace(ranking, kept_counts, errors, step),
    )


def default_allowed_error(dataset: Dataset, config: ForestConfig, k: int = 10) -> AllowedError:
    """Per-target k-fold cross-validated MAE of the model, the budget used
    when the caller does not supply one. The mean of the values serves the
    global scheme."""
    plan = kfold(dataset.n, k, config.seed)
    abs_err = np.zeros(dataset.m)
    for fold in range(k):
        model = fit(dataset.subset(plan.train_rows(fold)), config)
        test = dataset.subset(plan.test_rows(fold))
        preds = predict_batch(model, test.features)
        abs_err += np.abs(preds - test.targets).sum(axis=0)
    return AllowedError.per_target(abs_err / dataset.n)


def compose_rule(reduction: ReductionResult, paths: Paths, x, forest: Forest) -> Rule:
    """Intersect the kept paths' intervals per feature into one conjunction.

    Using the tightest bounds on each side keeps every kept tree routed to
    the same leaf for any instance the rule covers. Sides no kept path
    bounds fall back to the training-data feature bounds.
    """
    x = forest._check_vector(x)
    rows = np.zeros(len(paths), dtype=bool)
    rows[np.fromiter(reduction.kept, np.intp, len(reduction.kept))] = True
    lo = paths.lo.compress(rows, axis=0).max(axis=0, initial=-np.inf)
    hi = paths.hi.compress(rows, axis=0).min(axis=0, initial=np.inf)
    lo_strict = np.isfinite(lo)
    lo = np.where(lo_strict, lo, forest.feature_bounds[:, 0])
    hi = np.where(np.isfinite(hi), hi, forest.feature_bounds[:, 1])
    # instances outside the training range must still satisfy their own rule
    lo = np.where(x < lo, x, lo)
    hi = np.where(x > hi, x, hi)
    f = np.flatnonzero(paths.used.compress(rows, axis=0).any(axis=0))
    terms = [RuleTerm(*term) for term in zip(f.tolist(), lo[f].tolist(), hi[f].tolist(), lo_strict[f].tolist())]
    consequent = list(zip(range(forest.m), reduction.original_prediction.tolist(), reduction.local_errors.tolist()))
    return Rule(antecedent=terms, consequent=consequent, kept_path_count=len(reduction.kept))


def render_rule(rule: Rule, feature_names, target_names, precision: int = 2) -> str:
    """One-line text form: ``if lo <= name <= hi & ... then target: v±b, ...``.

    Strict lower bounds are displayed closed by nudging them up one step at
    the requested precision.
    """
    step = 10.0 ** (-precision)

    def num(v: float) -> str:
        return f"{v:.{precision}f}"

    parts = []
    for term in rule.antecedent:
        lo = term.lo + step if term.lo_strict else term.lo
        parts.append(f"{num(lo)} <= {feature_names[term.feature_index]} <= {num(term.hi)}")
    consequents = ", ".join(
        f"{target_names[t]}: {num(v)}±{num(b)}" for t, v, b in rule.consequent
    )
    if parts:
        return f"if {' & '.join(parts)} then {consequents}"
    return f"then {consequents}"


def check_conclusive(
    rule: Rule,
    reduction: ReductionResult,
    forest: Forest,
    x,
    trials: int = 1000,
    seed: int = 0,
) -> ConclusiveReport:
    """Certify the rule exactly: the range of the forest's prediction over
    the whole rule region, against the reduction envelope.

    The region is the rule's box (``Rule.box``): each antecedent feature
    lies in its rule interval, open at a strict lower bound and closed
    otherwise, and every other feature is unbounded. One walk of the box
    down the packed forest (``Forest.reach``) finds every leaf a point of
    the region can reach; each tree's lowest and highest reachable leaf
    values, summed over the trees and divided by their count, give the exact
    per-target range ``[lower, upper]`` of the forest's prediction over the
    region.
    ``max_deviation`` is the largest gap between that range and the
    prediction for ``x``, and ``envelope_violations`` counts the targets
    whose range leaves the envelope. The range is exact when every leaf of
    the forest holds some point, as in every forest ``fit`` grows; a leaf no
    point reaches, which a hand-built tree can have, can only widen it.
    Nothing is sampled, so the result does not depend on ``trials`` or
    ``seed``; ``trials`` must still be >= 1.
    Raises ``ValueError`` when the region is empty or does not contain ``x``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = forest._check_vector(x)
    lo, hi, lo_open = rule.box(forest.d)
    empty = (lo > hi) | (lo_open & (lo == hi))
    outside = ~rule.contains(x)
    for bad, fault in ((empty, "is empty"), (outside, "excludes the instance")):
        if bad.any():
            f = int(np.argmax(bad))
            interval = f"{'(' if lo_open[f] else '['}{lo[f]}, {hi[f]}]"
            raise ValueError(f"rule term on feature {f} ({forest.feature_names[f]}), {interval}, {fault}")
    leaves = forest.reach(lo, hi, lo_open)
    values = forest.value[leaves]
    starts = np.searchsorted(leaves, forest.roots)
    lower = np.minimum.reduceat(values, starts).sum(axis=0) / forest.n_trees
    upper = np.maximum.reduceat(values, starts).sum(axis=0) / forest.n_trees
    original = predict(forest, x)
    env_lo, env_hi = reduction.envelope
    tolerance = 1e-9  # floating-point slack on the envelope test
    violations = int(((lower < env_lo - tolerance) | (upper > env_hi + tolerance)).sum())
    return ConclusiveReport(
        max_deviation=np.maximum(upper - original, original - lower),
        envelope_violations=violations,
        lower=lower,
        upper=upper,
    )


@dataclass
class Explanation:
    """Everything one explain call produces, plus how long it took:
    ``elapsed_seconds`` in all, and ``timings`` in seconds per stage
    (``extract``, ``mine``, ``reduce`` and ``compose``)."""

    rule: Rule
    reduction: ReductionResult
    paths: Paths
    elapsed_seconds: float
    rendered: str = field(default="", repr=False)
    timings: dict[str, float] = field(default_factory=dict)


def explain(
    forest: Forest,
    x,
    allowed: AllowedError,
    min_support: float = 0.1,
    rank_order: str = "ascending",
    substitution: str = "per_target",
    precision: int = 2,
) -> Explanation:
    """Full pipeline for one instance: extract, mine, reduce, compose."""
    # bound per call, so wrappers set on ruleforest.paths (the benchmark's spans) see each call
    from .paths import extract_paths, mine

    clock = [time.perf_counter()]
    paths = extract_paths(forest, x)
    clock.append(time.perf_counter())
    assoc = mine(paths, min_support)
    clock.append(time.perf_counter())
    reduction = reduce_paths(paths, assoc, allowed, forest, rank_order, substitution)
    clock.append(time.perf_counter())
    rule = compose_rule(reduction, paths, x, forest)
    clock.append(time.perf_counter())
    rendered = render_rule(rule, forest.feature_names, forest.target_names, precision)
    stages = ("extract", "mine", "reduce", "compose")
    timings = {stage: end - begin for stage, begin, end in zip(stages, clock, clock[1:])}
    return Explanation(rule, reduction, paths, clock[-1] - clock[0], rendered, timings)
