"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from ruleforest.reduction import RuleTerm

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = (
    "forest.nodes",
    "forest.model_bytes",
    "paths.conditions_per_path",
    "paths.features_used",
    "reduction.local_error_calls",
    "reduction.kept_ratio",
    "reduction.rule_length",
)


def tiny(wl: workloads.Workload) -> workloads.Workload:
    return replace(
        wl,
        shape=(60, wl.shape[1] // 2, 2),
        budgets=((0.2,), (0.1, 0.5), (1.0,)),
        trees=6,
        min_leaf=5,
        instances=3,
        check_instances=2,
        check_trials=50,
        eval_rows=30,
        eval_trees=3,
        setup_repeats=1,
    )


TINY = {name: tiny(wl) for name, wl in workloads.WORKLOADS.items()}


def run_tiny(monkeypatch, capsys, name: str, trace: int, seed: int = 3):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_print_with_units(monkeypatch, capsys, name):
    lines, result = run_tiny(monkeypatch, capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name_, unit in expected.items():
        assert any(line.startswith(f"{name_} = ") and f" {unit} (n=" in line for line in lines)
        assert result["metrics"][name_]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_metrics_print_and_counts_repeat(monkeypatch, capsys, name):
    _, first = run_tiny(monkeypatch, capsys, name, trace=1)
    lines, second = run_tiny(monkeypatch, capsys, name, trace=1)
    assert second["correct"] and second["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in second["metrics"].items()} == expected
    for name_, unit in expected.items():
        assert any(line.startswith(f"{name_} = ") and f" {unit} (n=" in line for line in lines)
    for metric in COUNT_METRICS:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
        assert second["metrics"][metric]["value"] > 0, metric
    assert second["metrics"]["trace.layer_share"]["value"] > 0.9


def _exclude_instance(result, x):
    """Shrink the first rule term so that it no longer holds x."""
    if result.rule.antecedent:
        term = result.rule.antecedent[0]
        value = x[term.feature_index]
        result.rule.antecedent[0] = RuleTerm(term.feature_index, value + 1.0, value + 2.0, False)


def _sabotage_library(monkeypatch, wl, seed):
    original = workloads.rf_reduction.explain

    def explain(forest, x, allowed, **kwargs):
        result = original(forest, x, allowed, **kwargs)
        _exclude_instance(result, x)
        return result

    monkeypatch.setattr(workloads.rf_reduction, "explain", explain)


def _sabotage_cli(monkeypatch, wl, seed):
    """Rewrite the first term of the rule each ``ruleforest explain`` prints
    so that it no longer holds the explained row."""
    data = workloads.make_data(wl, seed)
    original = workloads._invoke

    def invoke(argv, work, in_process):
        code, out, err = original(argv, work, in_process)
        argv = [str(a) for a in argv]
        lines = out.splitlines()
        term = re.match(r"if (\S+) <= (\S+) <= (\S+)", lines[1]) if len(lines) > 1 else None
        if argv[0] == "explain" and code == 0 and term:
            value = data.features[int(argv[argv.index("--instance-index") + 1])][data.feature_names.index(term[2])]
            lines[1] = f"if {value + 1:.2f} <= {term[2]} <= {value + 2:.2f}" + lines[1][term.end():]
            out = "\n".join(lines) + "\n"
        return code, out, err

    monkeypatch.setattr(workloads, "_invoke", invoke)


@pytest.mark.parametrize(
    "name, sabotage, problem",
    [
        ("explain-sweep", _sabotage_library, "excludes the instance"),
        ("cli-session", _sabotage_cli, "printed rule differs from the library"),
    ],
    ids=["explain-sweep", "cli-session"],
)
def test_sabotaged_rule_counts_as_failed(monkeypatch, name, sabotage, problem):
    wl = TINY[name]
    sabotage(monkeypatch, wl, 3)
    record = workloads.Record()
    work = ROOT / ".bench_run" / f"test-sabotage-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads.session(wl, 3, work, 0.0, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sabotaged = [p for p in record.problems if problem in p]
    assert sabotaged and record.failed == len(sabotaged)
    assert record.failed / record.attempted > 0


def test_fails_without_program_sources():
    bare = ROOT / ".bench_run" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(__file__).parent, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "explain-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
