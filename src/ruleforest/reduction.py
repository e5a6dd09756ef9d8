"""Path reduction under an allowed-error budget and conclusive rule assembly.

The enrichment loop grows a feature set in confidence order; a path is kept
once all of its features are inside the set. Excluded trees are accounted for
by moving them, per target, together to the side of their leaf extremes (all
lowest or all highest leaves) with the larger total gap from their
predictions. That yields the local error the budget is tested against and the
adjusted prediction, and the local error equals
``|adjusted − prediction|``. Every step's kept count and local errors come
from one pass, and the result keeps them as its ``trace``.

``explain_batch`` gives many instances ``explain``'s rules as arrays: both
run the same stage kernels, which take leading instance axes.

``check_conclusive`` certifies a rule exactly, with no sampling: it walks the
rule's region, a box, down the packed forest once and bounds every tree by
its lowest and highest reachable leaf, which gives the range of the forest's
prediction over the whole region. ``explain`` does not run it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, kfold
from .forest import Forest, ForestConfig, fit, predict_batch
from .paths import AssociationModel, Paths, _check_min_support, _leaf_paths, _pair_scores, rank_features

# unused here; kept because the benchmark wraps this name in this module
from .forest import predict  # noqa: F401

MAX_PRECISION = 1074  # a float64's fixed-point expansion ends within 1074 fractional digits
EXPLAIN_CHUNK_ELEMENTS = 1 << 16  # (row, tree, feature) plus (row, feature, feature) elements per explain_batch step


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
        if self.scheme == "per_target" and (values.ndim != 1 or values.size == 0):
            raise ValueError("per-target budget must be a non-empty vector")
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


def _in_box(X, lo, hi, lo_open) -> np.ndarray:
    """Whether each value of ``X`` lies in its feature's interval of the box
    ``(lo, hi, lo_open)`` in ``Rule.box`` form."""
    return np.where(lo_open, X > lo, X >= lo) & (X <= hi)


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
        return _in_box(X, *self.box(X.shape[-1]))


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

    low: np.ndarray  # summed prediction minus lowest leaf
    high: np.ndarray  # summed highest leaf minus prediction
    shift: np.ndarray  # summed substituted minus actual prediction
    abs_shift: np.ndarray  # summed |substituted minus actual prediction|


def _step_gaps(preds: np.ndarray, forest: Forest, entry: np.ndarray, n_steps: int) -> _StepGaps:
    """Total the gaps between the leaf predictions ``preds`` (trees, m) and
    the forest's stacked leaf extremes of the trees each step excludes (tree
    i at step k when ``entry[i] > k``), and move each step's excluded trees,
    per target, to the side with the larger total. Leading axes of ``preds``
    and ``entry`` are instances, each totalled on its own.

    The gaps are summed by entry step (one ``bincount``, which adds each
    step's trees in tree order, with each instance's bins after the previous
    one's), then suffix-summed from the last step back, so a step that
    excludes nothing totals exactly 0.
    """
    m, lead = preds.shape[-1], entry.shape[:-1]
    gaps = np.concatenate([preds - forest.leaf_min, forest.leaf_max - preds], axis=-1)
    offset = (n_steps + 1) * np.arange(entry.size // entry.shape[-1]).reshape(lead + (1,))
    bins = ((offset + entry)[..., None] * (2 * m) + np.arange(2 * m)).ravel()
    by_entry = np.bincount(bins, gaps.ravel(), offset.size * (n_steps + 1) * 2 * m)
    by_entry = by_entry.reshape(lead + (n_steps + 1, 2 * m))
    totals = np.cumsum(by_entry[..., ::-1, :], axis=-2)[..., -2::-1, :]
    low, high = totals[..., :m], totals[..., m:]
    take_low = low >= high
    low_taken, high_taken = np.where(take_low, low, 0.0), np.where(take_low, 0.0, high)
    return _StepGaps(low, high, high_taken - low_taken, low_taken + high_taken)


def _kept_step(paths: Paths, kept, forest: Forest) -> _StepGaps:
    """The gaps of the one step that keeps ``kept``."""
    kept = frozenset(kept)
    if not kept:
        raise ValueError("kept set must be non-empty")
    excluded = np.asarray([i not in kept for i in range(len(paths))], dtype=np.int64)
    return _step_gaps(paths.leaf_prediction, forest, excluded, 1)


def local_error(paths: Paths, kept, forest: Forest) -> np.ndarray:
    """Per-target mean absolute gap between actual and substituted tree
    predictions; zero when every tree is kept."""
    return _kept_step(paths, kept, forest).abs_shift[0] / len(paths)


def adjusted_prediction(paths: Paths, kept, forest: Forest) -> np.ndarray:
    """Forest mean recomputed with excluded trees at their substituted
    extremes."""
    shift = _kept_step(paths, kept, forest).shift[0]
    return paths.leaf_prediction.mean(axis=0) + shift / len(paths)


def reduce_paths(
    paths: Paths,
    assoc: AssociationModel,
    allowed: AllowedError,
    forest: Forest,
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
    ranking = rank_features(assoc)
    n_steps = len(ranking) + 1  # step k tests the first k ranked features
    step_of = np.full(paths.used.shape[1], n_steps)
    step_of[ranking] = np.arange(1, n_steps)
    entry = np.where(paths.used, step_of, 0).max(axis=1, initial=0)
    gaps = _step_gaps(paths.leaf_prediction, forest, entry, n_steps)
    errors = gaps.abs_shift / n
    step = int(_accepted_step(allowed, errors, entry))
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


def _accepted_step(allowed: AllowedError, errors: np.ndarray, entry: np.ndarray) -> np.ndarray:
    """The first step whose local errors ``errors`` (..., steps, m) meet the
    budget and that keeps a path (path i from step ``entry[..., i]`` on), per
    leading index."""
    passes = allowed.passes(errors.reshape(-1, errors.shape[-1])).reshape(errors.shape[:-1])
    passes &= np.arange(passes.shape[-1]) >= entry.min(axis=-1, keepdims=True)
    if not passes.any(axis=-1).all():  # unreachable: the full feature set keeps every path
        raise RuntimeError("reduction ended without an accepted kept set")
    return passes.argmax(axis=-1)


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
    bounds fall back to the training-data feature bounds, and every bound
    widens to hold x.
    """
    x = forest._check_vector(x)
    kept = np.zeros(len(paths), dtype=bool)
    kept[np.fromiter(reduction.kept, np.intp, len(reduction.kept))] = True
    lo, hi, lo_open = _rule_bounds(paths.lo, paths.hi, kept, x, forest)
    f = np.flatnonzero(np.isfinite(lo))
    terms = [RuleTerm(*term) for term in zip(f.tolist(), lo[f].tolist(), hi[f].tolist(), lo_open[f].tolist())]
    consequent = list(zip(range(forest.m), reduction.original_prediction.tolist(), reduction.local_errors.tolist()))
    return Rule(antecedent=terms, consequent=consequent, kept_path_count=len(reduction.kept))


def _rule_bounds(lo, hi, kept, x, forest: Forest):
    """``compose_rule``'s box, in ``Rule.box`` form, for instances ``x``
    (..., d): ``kept`` (..., T) marks the kept paths of ``lo``/``hi`` (..., T, d)."""
    lo = np.where(kept[..., None], lo, -np.inf).max(axis=-2)
    hi = np.where(kept[..., None], hi, np.inf).min(axis=-2)
    strict, bounded = np.isfinite(lo), np.isfinite(hi)
    low, high = forest.feature_bounds.T
    lo = np.where(strict, lo, low)
    hi = np.where(bounded, hi, high)
    # instances outside the training range must still satisfy their own rule
    lo = np.where(x < lo, x, lo)
    hi = np.where(x > hi, x, hi)
    named = strict | bounded
    return np.where(named, lo, -np.inf), np.where(named, hi, np.inf), strict


def render_rule(rule: Rule, feature_names, target_names, precision: int = 2) -> str:
    """One-line text form: ``if lo <= name <= hi & ... then target: v±b, ...``.

    Strict lower bounds are displayed closed by nudging them up one step at
    the requested precision, which must be in [0, MAX_PRECISION], and at
    least as far as the displayed value reads back above the bound.
    """
    if not 0 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be in [0, {MAX_PRECISION}], got {precision}")
    step = 10.0 ** (-precision)

    def num(v: float) -> str:
        return f"{v:.{precision}f}"

    def closed(lo: float) -> str:
        # a step under half an ulp of lo adds nothing, and one near an ulp can print back onto lo
        up = max(lo + step, math.nextafter(lo, math.inf))
        while float(text := num(up)) <= lo:
            up = math.nextafter(up, math.inf)
        return text

    parts = []
    for term in rule.antecedent:
        lo = closed(term.lo) if term.lo_strict else num(term.lo)
        parts.append(f"{lo} <= {feature_names[term.feature_index]} <= {num(term.hi)}")
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
    prediction for ``x``, which is ``reduction.original_prediction``, the
    mean of ``x``'s leaves (bit for bit ``predict(forest, x)``), so
    ``reduction`` must be ``x``'s, from this forest: that is not checked.
    ``envelope_violations`` counts the targets whose range leaves the
    envelope. The range is exact when every leaf of the forest holds some
    point, as in every forest ``fit`` grows; a leaf no point reaches, which a
    hand-built tree can have, can only widen it.
    Nothing is sampled, so the result does not depend on ``trials`` or
    ``seed``; ``trials`` must still be >= 1.
    Raises ``ValueError`` when the region is empty or does not contain ``x``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = forest._check_vector(x)
    lo, hi, lo_open = rule.box(forest.d)
    empty = (lo > hi) | (lo_open & (lo == hi))
    outside = ~_in_box(x, lo, hi, lo_open)
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
    original = reduction.original_prediction
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
    reduction = reduce_paths(paths, assoc, allowed, forest)
    clock.append(time.perf_counter())
    rule = compose_rule(reduction, paths, x, forest)
    clock.append(time.perf_counter())
    rendered = render_rule(rule, forest.feature_names, forest.target_names, precision)
    stages = ("extract", "mine", "reduce", "compose")
    timings = {stage: end - begin for stage, begin, end in zip(stages, clock, clock[1:])}
    return Explanation(rule, reduction, paths, clock[-1] - clock[0], rendered, timings)


class RuleBatch(NamedTuple):
    """One budget's rules for a batch of instances, as arrays: row b holds
    the rule ``explain`` gives instance b. ``lo``, ``hi`` and ``lo_open``
    are each rule's box in ``Rule.box`` form, unbounded on a feature that no
    term names."""

    kept: np.ndarray  # (B, T) the kept paths
    lo: np.ndarray  # (B, d)
    hi: np.ndarray  # (B, d)
    lo_open: np.ndarray  # (B, d) bool
    values: np.ndarray  # (B, m) consequent values, the forest's predictions for the instances
    errors: np.ndarray  # (B, m) local errors, the consequent bounds

    @property
    def lengths(self) -> np.ndarray:
        """(B,) each rule's term count; every term has a finite lower bound."""
        return np.isfinite(self.lo).sum(axis=1)

    def covers(self, X) -> np.ndarray:
        """(B, n) whether each rule's box holds each row of ``X``, as
        ``Rule.contains(X).all(axis=1)`` tests it."""
        X = np.asarray(X, dtype=np.float64)[None]
        return _in_box(X, self.lo[:, None], self.hi[:, None], self.lo_open[:, None]).all(axis=2)


def explain_batch(forest: Forest, X, allowed_errors, min_support: float = 0.1) -> list[RuleBatch]:
    """``explain`` for every row of ``X`` at every budget of ``allowed_errors``,
    as one ``RuleBatch`` per budget; row b equals
    ``explain(forest, X[b], allowed, min_support)`` bit for bit. It runs
    ``explain``'s stage kernels on a leading row axis and ranks the features
    no path of a row tests last, where they keep no new path. Rows go through
    in chunks of about EXPLAIN_CHUNK_ELEMENTS elements of the (rows, trees,
    features) boxes and the (rows, features, features) supports.
    """
    X, allowed_errors = forest._check_matrix(X), list(allowed_errors)
    _check_min_support(min_support)
    n, T, d, m = X.shape[0], forest.n_trees, forest.d, forest.m
    values = np.empty((n, m))
    out = [
        RuleBatch(np.empty((n, T), bool), np.empty((n, d)), np.empty((n, d)), np.empty((n, d), bool), values,
                  np.empty((n, m)))
        for _ in allowed_errors
    ]
    chunk = max(1, EXPLAIN_CHUNK_ELEMENTS // (T * d + d * d))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        x = X[rows]
        leaves, lo, hi, used = _leaf_paths(forest, x)
        preds = forest.value.take(leaves, axis=0)
        values[rows] = preds.sum(axis=1) / T  # each row's (T, m) block totalled as predict and mean total it
        scores = _pair_scores(used, min_support)[2]
        order = np.lexsort((scores, ~used.any(axis=1)))  # stable, so ties stay in ascending feature order
        step_of = order.argsort(axis=1) + 1
        entry = np.where(used, step_of[:, None, :], 0).max(axis=2, initial=0)
        errors = _step_gaps(preds, forest, entry, d + 1).abs_shift / T  # (B, d + 1, m)
        for allowed, rules in zip(allowed_errors, out):
            step = _accepted_step(allowed, errors, entry)
            kept = entry <= step[:, None]
            rules.kept[rows] = kept
            rules.errors[rows] = errors[np.arange(step.size), step]
            rules.lo[rows], rules.hi[rows], rules.lo_open[rows] = _rule_bounds(lo, hi, kept, x, forest)
    return out
