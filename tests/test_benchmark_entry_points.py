"""The benchmark traces the library by wrapping functions by module and name
(``benchmark/workloads.ENTRY_POINTS``); a name that a refactor drops would
break every traced run, so each one must still resolve. Its checks and
observers also read the library's objects by attribute, so they must still
run on what the library returns."""

import os
from pathlib import Path

import pytest

import ruleforest.paths
from ruleforest import (
    AllowedError,
    ForestConfig,
    check_conclusive,
    explain,
    fit,
    load,
    make_synthetic,
    mine,
    predict_batch,
    save,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import workloads

    return workloads


def test_every_traced_name_resolves(workloads):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in workloads.ENTRY_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_checks_and_observers_read_a_fitted_forest_and_its_explanation(workloads, tmp_path):
    """Also on the forest ``load`` returns, which the CLI workload checks."""
    import checks

    data = make_synthetic(60, 4, 2, seed=5)
    config = ForestConfig(n_estimators=6, min_samples_leaf=3, seed=2)
    forest, refit = fit(data, config), fit(data, config)
    x = data.features[0]
    assert checks.same_forest(refit, forest, 6, x) == []
    assert workloads._fit_info(forest) == {"nodes": forest.feature.shape[0]}
    result = explain(forest, x, AllowedError.global_mean(0.3))
    paths = result.paths
    info = workloads._paths_info(paths)
    assert info == {"paths": 6, "conditions": int(paths.used.sum())}
    assert info["conditions"] > 0
    model = mine(paths)
    assert model.features.size > 0
    assert workloads._mine_info(model, paths) == {"features": model.features.size}
    assert workloads._reduce_info(result.reduction, paths) == {"kept": len(result.reduction.kept), "trees": 6}
    assert workloads._compose_info(result.rule) == {"terms": len(result.rule.antecedent)}
    report = check_conclusive(result.rule, result.reduction, forest, x)
    assert workloads._check_info(report) == {"violations": report.envelope_violations}
    assert workloads._rows_info(predict_batch(forest, data.features[:7]), forest) == {"rows": 7}
    path = tmp_path / "model.json"
    save(forest, path)
    assert workloads._save_info(None, forest, path) == {"bytes": os.path.getsize(path)}
    loaded = load(path)
    assert checks.same_forest(loaded, forest, 6, x) == checks.same_forest(forest, loaded, 6, x) == []
    assert workloads._fit_info(loaded) == {"nodes": forest.feature.shape[0]}
    assert checks.same_forest(loaded, fit(data, ForestConfig(n_estimators=6, min_samples_leaf=3, seed=3)), 6, x) != []
    assert checks.same_forest(loaded, forest, 7, x) != []


def test_explain_looks_up_mine_on_the_paths_module_at_call_time(monkeypatch):
    """The benchmark's spans replace ``ruleforest.paths.mine``; ``explain``
    must reach the replacement, once per call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return mine(*args, **kwargs)

    monkeypatch.setattr(ruleforest.paths, "mine", wrapper)
    data = make_synthetic(40, 3, 1, seed=3)
    forest = fit(data, ForestConfig(n_estimators=4, seed=1))
    result = explain(forest, data.features[0], AllowedError.global_mean(0.3))
    assert len(calls) == 1
    assert calls[0][0] is result.paths
