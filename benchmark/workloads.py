"""Workloads and the closed-loop sessions that drive them.

Every workload is a closed loop: one caller, one operation at a time, and the
next operation starts only after the previous one returned. Inputs come from
the seed alone; the program sees only the generated data. The package is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ruleforest" / "__init__.py").is_file():
    raise ImportError(f"no ruleforest sources under {SRC}")
sys.path.insert(0, str(SRC))

import ruleforest  # noqa: E402
from ruleforest import cli as rf_cli  # noqa: E402
from ruleforest import dataset as rf_dataset  # noqa: E402
from ruleforest import evaluation as rf_evaluation  # noqa: E402
from ruleforest import forest as rf_forest  # noqa: E402
from ruleforest import paths as rf_paths  # noqa: E402
from ruleforest import reduction as rf_reduction  # noqa: E402
from ruleforest.evaluation import make_synthetic, standardize_targets  # noqa: E402
from ruleforest.forest import ForestConfig  # noqa: E402
from ruleforest.reduction import AllowedError  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

if Path(ruleforest.__file__).resolve().parent != (SRC / "ruleforest").resolve():
    raise ImportError(f"ruleforest was imported from {ruleforest.__file__}, not {SRC}")

CLI_TIMEOUT_S = 120
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    via_cli: bool  # run the session as ``ruleforest`` processes
    shape: tuple[int, int, int]  # n, d, m of make_synthetic
    standardize: bool
    trees: int
    min_leaf: int
    instances: int  # rows explained, drawn from the seed
    budgets: tuple[tuple[float, ...], ...]  # one value: global scheme; m values: per-target
    check_instances: int  # rows probed with check_conclusive
    eval_rows: int
    eval_trees: int
    eval_budgets: tuple[float, ...]
    setup_repeats: int = 3
    check_trials: int = 1000
    eval_folds: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="explain-sweep",
            why="the paper's experiment: per-rule time across a global-budget sweep on the "
            "acceptance model; reduction and extraction dominate",
            via_cli=False,
            shape=(500, 10, 5),
            standardize=True,
            trees=500,
            min_leaf=25,
            instances=40,
            budgets=((0.05,), (0.1,), (0.2,), (0.3,), (0.5,), (1.0,)),
            check_instances=10,
            eval_rows=120,
            eval_trees=30,
            eval_budgets=(0.3, 1.0),
        ),
        # Runs by name, but BENCHMARK.json does not list it: the time allowed
        # for all gated runs fits two workloads at the run length they need
        # to be steady on a shared 2-core machine.
        Workload(
            name="wide-features",
            why="50 features: association mining, quadratic in the feature count, takes a "
            "far larger share than at d=10",
            via_cli=False,
            shape=(300, 50, 3),
            standardize=False,
            trees=200,
            min_leaf=10,
            instances=40,
            budgets=((1.0,), (3.0,), (5.0,), (8.0,)),
            check_instances=10,
            eval_rows=120,
            eval_trees=30,
            eval_budgets=(3.0, 8.0),
        ),
        Workload(
            name="cli-session",
            why="a user's session of ruleforest processes: one model write beside many reads; "
            "start-up, model load, fit and evaluation dominate",
            via_cli=True,
            shape=(500, 10, 5),
            standardize=True,
            trees=50,
            min_leaf=5,
            instances=24,
            budgets=((0.1,), (0.3,), (0.2, 0.3, 0.4, 0.5, 0.6), (1.0,), (0.5, 0.5, 0.5, 0.5, 0.5)),
            check_instances=3,
            eval_rows=120,
            eval_trees=30,
            eval_budgets=(0.3, 1.0),
            setup_repeats=10,  # set-up is cheap here; more repeats steady its median
        ),
    )
}


def make_data(wl: Workload, seed: int):
    n, d, m = wl.shape
    data = make_synthetic(n, d, m, seed=seed)
    return standardize_targets(data) if wl.standardize else data


def chosen_rows(wl: Workload, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 1])
    return [int(r) for r in rng.choice(wl.shape[0], size=wl.instances, replace=False)]


def schedule(wl: Workload, seed: int) -> list[tuple[int, tuple[float, ...]]]:
    """(row, budget) pairs in call order. In-process workloads sweep every
    budget for each row; the CLI session makes one call per row and cycles
    through the budgets."""
    rows = chosen_rows(wl, seed)
    if wl.via_cli:
        return [(row, wl.budgets[i % len(wl.budgets)]) for i, row in enumerate(rows)]
    return [(row, budget) for row in rows for budget in wl.budgets]


def allowed_error(budget: tuple[float, ...]) -> AllowedError:
    if len(budget) == 1:
        return AllowedError.global_mean(budget[0])
    return AllowedError.per_target(budget)


@dataclass
class Record:
    """Timings, attempts, failures and the rule digest of one session."""

    tracer: Tracer | None = None
    durations: dict = field(default_factory=lambda: defaultdict(list))  # seconds, by kind
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest_lines: list = field(default_factory=list)

    def run(self, kind: str, fn):
        """Time one operation; return its result, or None when it raised."""
        self.attempted += 1
        op = self.tracer.operation(kind) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with op:
                result = fn()
        except Exception as exc:  # counted against error_rate; the session goes on
            self.failed += 1
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.durations[kind].append(time.perf_counter() - start)
        return result

    def judge(self, kind: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.append(f"{kind}: " + "; ".join(problems))

    def quiet(self):
        """Checks run inside, so the library calls they make leave no spans."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def examine(self, result, x, forest, allowed, digest: bool) -> list[str]:
        if digest:
            self.digest_lines.append(f"{len(result.reduction.kept)}\t{result.rendered}")
        return checks.explanation(result, x, forest, allowed)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_lines).encode()).hexdigest()[:16]


def _rounds(seconds: float | None):
    """Round numbers: one round when ``seconds`` is None; otherwise at least
    MIN_ROUNDS, and more while another round of the last one's length fits in
    ``seconds``."""
    if seconds is None:
        yield 0
        return
    start = last = time.perf_counter()
    for n in itertools.count():
        now = time.perf_counter()
        if n >= MIN_ROUNDS and now - start + (now - last) > seconds:
            return
        last = now
        yield n


def session(wl, seed, work: Path, seconds: float | None, record: Record, repeats=None, in_process=False):
    """Set up ``repeats`` times, then measure in rounds for ``seconds``.

    A round trains the model again, explains every (row, budget) pair of the
    schedule once, probes the check rows with check_conclusive and runs one
    small evaluation, so that each kind of operation is sampled across the
    whole run. With ``seconds`` None there is exactly one round.
    ``in_process`` runs the CLI session through ``ruleforest.cli.main``
    instead of processes.
    """
    repeats = wl.setup_repeats if repeats is None else repeats
    if wl.via_cli:
        _cli_session(wl, seed, work, seconds, record, repeats, in_process)
    else:
        _library_session(wl, seed, work, seconds, record, repeats)


def _train_and_store(wl, seed, config, csv_path, model_path):
    data = make_data(wl, seed)
    rf_dataset.save_csv(data, csv_path)
    data = rf_dataset.load_csv(csv_path, data.target_names)
    trained = rf_forest.fit(data, config)
    rf_forest.save(trained, model_path)
    return data, rf_forest.load(model_path)


def _explain_and_probe(forest, x, allowed, trials, seed):
    result = rf_reduction.explain(forest, x, allowed)
    return result, rf_reduction.check_conclusive(result.rule, result.reduction, forest, x, trials, seed)


def _library_session(wl, seed, work, seconds, record, repeats):
    config = ForestConfig(n_estimators=wl.trees, min_samples_leaf=wl.min_leaf, seed=seed)
    for _ in range(repeats):
        built = record.run(
            "setup", lambda: _train_and_store(wl, seed, config, work / "data.csv", work / "model.json")
        )
    if built is None:
        raise RuntimeError(f"set-up failed: {record.problems[-1]}")
    data, forest = built

    items = schedule(wl, seed)
    check_rows = chosen_rows(wl, seed)[: wl.check_instances]
    check_allowed = allowed_error(wl.budgets[len(wl.budgets) // 2])
    eval_data = data.subset(np.arange(wl.eval_rows))
    eval_config = replace(config, n_estimators=wl.eval_trees)
    eval_budgets = [AllowedError.global_mean(v) for v in wl.eval_budgets]
    with record.quiet():  # warm-up, untimed
        rf_reduction.explain(forest, data.features[items[0][0]], allowed_error(items[0][1]))

    for n in _rounds(seconds):
        refit = record.run("train", lambda: rf_forest.fit(data, config))
        if refit is not None:
            with record.quiet():
                record.judge("train", checks.same_forest(refit, forest, wl.trees, data.features[items[0][0]]))

        for row, budget in items:
            x, allowed = data.features[row], allowed_error(budget)
            result = record.run("explain", lambda: rf_reduction.explain(forest, x, allowed))
            if result is not None:
                with record.quiet():
                    record.judge("explain", record.examine(result, x, forest, allowed, digest=n == 0))

        for row in check_rows:
            x = data.features[row]
            out = record.run("check", lambda: _explain_and_probe(forest, x, check_allowed, wl.check_trials, seed))
            if out is not None:
                with record.quiet():
                    result, report = out
                    problems = record.examine(result, x, forest, check_allowed, False) + checks.conclusive(report)
                    record.judge("check", problems)

        rows = record.run(
            "evaluate",
            lambda: rf_evaluation.run_experiment(eval_data, eval_config, eval_budgets, k=wl.eval_folds, seed=seed),
        )
        if rows is not None:
            record.judge("evaluate", checks.experiment(rows, wl.eval_budgets))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _invoke(argv, work: Path, in_process: bool):
    """One ``ruleforest`` command: (exit code, stdout, stderr)."""
    argv = [str(a) for a in argv]
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rf_cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "ruleforest.cli", *argv],
        cwd=work,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _start_interpreter(record: Record, work: Path) -> None:
    """Start a fresh interpreter that imports the CLI: the start-up cost every
    ``ruleforest`` process pays, and a warm file cache for the calls after."""
    span = record.tracer.span("cli.startup") if record.tracer else nullcontext()
    start = time.perf_counter()
    with span:
        subprocess.run(
            [sys.executable, "-c", "import ruleforest.cli"],
            cwd=work,
            env=_child_env(),
            check=True,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
    record.durations["startup"].append(time.perf_counter() - start)


def _write_inputs(wl, seed, work, record):
    data = make_data(wl, seed)
    rf_dataset.save_csv(data, work / "data.csv")
    rf_dataset.save_csv(data.subset(np.arange(wl.eval_rows)), work / "small.csv")
    _start_interpreter(record, work)
    return data


def _cli_session(wl, seed, work, seconds, record, repeats, in_process):
    for _ in range(repeats):
        data = record.run("setup", lambda: _write_inputs(wl, seed, work, record))
    if data is None:
        raise RuntimeError(f"set-up failed: {record.problems[-1]}")
    model, report = work / "model.json", work / "report.json"
    targets = ",".join(data.target_names)

    def call(kind, argv):
        out = record.run(kind, lambda: _invoke(argv, work, in_process))
        if out is None:
            return None
        code, stdout, stderr = out
        if code != 0:
            record.judge(kind, [f"exit code {code}: {stderr.strip()}"])
            return None
        return stdout

    items = schedule(wl, seed)
    train_argv = ["train", "--data", work / "data.csv", "--targets", targets, "--estimators", wl.trees,
                  "--min-leaf", wl.min_leaf, "--seed", seed, "--out", model]
    forest = None  # the first model trained: every explanation is compared against it

    def train():
        nonlocal forest
        if call("train", train_argv) is None:
            return
        with record.quiet():
            try:
                trained = rf_forest.load(model)
            except (rf_forest.ModelError, OSError) as exc:
                record.judge("train", [f"model does not load: {exc}"])
                return
            forest = forest or trained
            record.judge("train", checks.same_forest(trained, forest, wl.trees, data.features[items[0][0]]))
        shown = call("inspect", ["inspect", "--model", model])
        if shown is not None:
            record.judge("inspect", [] if f"trees: {wl.trees}" in shown else ["inspect does not report the tree count"])

    def explain(kind, row, budget, extra, keys, digest):
        report.unlink(missing_ok=True)
        argv = ["explain", "--model", model, "--data", work / "data.csv", "--targets", targets,
                "--instance-index", row, "--allowed-error", ",".join(map(str, budget)), "--report", report]
        printed = call(kind, argv + extra)
        if printed is None:
            return
        with record.quiet():
            if forest is None:
                record.judge(kind, ["no trained model to compare against"])
                return
            x, allowed = data.features[row], allowed_error(budget)
            reference = rf_reduction.explain(forest, x, allowed)
            problems = record.examine(reference, x, forest, allowed, digest)
            problems += checks.cli_explain(printed, report, keys, reference)
            record.judge(kind, problems)

    check_rows = chosen_rows(wl, seed)[: wl.check_instances]
    check_extra = ["--check-conclusive", wl.check_trials, "--seed", seed]
    evaluate_argv = [
        "evaluate", "--data", work / "small.csv", "--targets", targets, "--estimators", wl.eval_trees,
        "--min-leaf", wl.min_leaf, "--seed", seed, "--folds", wl.eval_folds,
        "--allowed-errors", ",".join(map(str, wl.eval_budgets)), "--out", work / "evaluate.csv",
    ]
    for n in _rounds(seconds):
        train()
        for row, budget in items:
            explain("explain", row, budget, [], checks.EXPLAIN_REPORT_KEYS, digest=n == 0)
        for row in check_rows:
            explain("check", row, wl.budgets[0], check_extra, checks.CHECK_REPORT_KEYS, digest=False)
        if call("evaluate", evaluate_argv) is not None:
            record.judge("evaluate", checks.evaluate_csv(work / "evaluate.csv", wl.eval_budgets))


def _paths_info(paths, *args, **kwargs):
    return {"paths": len(paths), "conditions": sum(len(p.conditions) for p in paths)}


def _mine_info(model, *args, **kwargs):
    return {"features": len(model.feature_scores)}


def _reduce_info(result, paths, *args, **kwargs):
    return {"kept": len(result.kept), "trees": len(paths)}


def _compose_info(rule, *args, **kwargs):
    return {"terms": len(rule.antecedent)}


def _check_info(report, *args, **kwargs):
    return {"violations": report.envelope_violations}


def _fit_info(forest, *args, **kwargs):
    return {"nodes": sum(tree.n_nodes for tree in forest.trees)}


def _save_info(_, forest, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _rows_info(preds, *args, **kwargs):
    return {"rows": preds.shape[0]}


# (namespace, attribute, span name, observer). A function is wrapped in each
# namespace that calls it, because ``from .x import f`` binds its own name.
ENTRY_POINTS = [
    (rf_dataset, "save_csv", "dataset.save_csv", None),
    (rf_dataset, "load_csv", "dataset.load_csv", None),
    (rf_forest, "fit", "forest.fit", _fit_info),
    (rf_forest, "save", "forest.save", _save_info),
    (rf_forest, "load", "forest.load", None),
    (rf_paths, "extract_paths", "paths.extract", _paths_info),
    (rf_paths, "mine", "paths.mine", _mine_info),
    (rf_reduction, "explain", "reduction.explain", None),
    (rf_reduction, "rank_features", "paths.rank", None),
    (rf_reduction, "reduce_paths", "reduction.reduce", _reduce_info),
    (rf_reduction, "local_error", "reduction.local_error", None),
    (rf_reduction, "compose_rule", "reduction.compose", _compose_info),
    (rf_reduction, "render_rule", "reduction.render", None),
    (rf_reduction, "check_conclusive", "reduction.check_conclusive", _check_info),
    (rf_reduction, "predict", "forest.predict", None),
    (rf_reduction, "predict_batch", "forest.predict_batch", _rows_info),
    (rf_evaluation, "run_experiment", "evaluation.run_experiment", None),
    (rf_evaluation, "fit", "forest.fit", _fit_info),
    (rf_evaluation, "extract_paths", "paths.extract", _paths_info),
    (rf_evaluation, "mine", "paths.mine", _mine_info),
    (rf_evaluation, "reduce_paths", "reduction.reduce", _reduce_info),
    (rf_evaluation, "compose_rule", "reduction.compose", _compose_info),
    (rf_evaluation, "coverage", "evaluation.coverage", None),
    (rf_evaluation, "rule_precision", "evaluation.rule_precision", None),
    (rf_evaluation, "rule_precision_truth", "evaluation.rule_precision_truth", None),
    (rf_evaluation, "predict_batch", "forest.predict_batch", _rows_info),
    (rf_cli, "main", "cli.main", None),
    (rf_cli, "load_csv", "dataset.load_csv", None),
    (rf_cli, "fit", "forest.fit", _fit_info),
    (rf_cli, "save", "forest.save", _save_info),
    (rf_cli, "load", "forest.load", None),
    (rf_cli, "evaluate_mae", "forest.evaluate_mae", None),
    (rf_cli, "explain", "reduction.explain", None),
    (rf_cli, "check_conclusive", "reduction.check_conclusive", _check_info),
    (rf_cli, "run_experiment", "evaluation.run_experiment", None),
]


def traced_run(wl, seed, work: Path):
    """The same fixed work three times in this process: untraced, traced,
    untraced.

    The traced pass minus the mean of the untraced ones is the tracing
    overhead; untraced passes on both sides cancel the warm-up of the first.
    The CLI session calls ``ruleforest.cli.main`` in-process on every pass, so
    that the entry points the CLI calls can be wrapped.
    """
    before, after = Record(), Record()
    session(wl, seed, work, None, before, repeats=1, in_process=True)
    tracer = Tracer()
    for module, attr, name, observe in ENTRY_POINTS:
        tracer.patch(module, attr, name, observe)
    traced = Record(tracer=tracer)
    try:
        session(wl, seed, work, None, traced, repeats=1, in_process=True)
    finally:
        tracer.restore()
    session(wl, seed, work, None, after, repeats=1, in_process=True)
    return (before, after), traced
