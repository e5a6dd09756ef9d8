"""The benchmark traces the library by wrapping functions by module and name
(``benchmark/workloads.ENTRY_POINTS``); a name that a refactor drops would
break every traced run, so each one must still resolve. Its checks and
observers also read the library's objects by attribute, so they must still
run on what the library returns."""

from pathlib import Path

import pytest

from ruleforest import AllowedError, ForestConfig, explain, fit, make_synthetic

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


def test_checks_and_observers_read_a_fitted_forest_and_its_explanation(workloads):
    import checks

    data = make_synthetic(60, 4, 2, seed=5)
    config = ForestConfig(n_estimators=6, min_samples_leaf=3, seed=2)
    forest, refit = fit(data, config), fit(data, config)
    x = data.features[0]
    assert checks.same_forest(refit, forest, 6, x) == []
    assert workloads._fit_info(forest) == {"nodes": forest.feature.shape[0]}
    paths = explain(forest, x, AllowedError.global_mean(0.3)).paths
    info = workloads._paths_info(paths)
    assert info == {"paths": 6, "conditions": int(paths.used.sum())}
    assert info["conditions"] > 0
