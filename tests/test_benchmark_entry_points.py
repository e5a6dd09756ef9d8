"""The benchmark traces the library by wrapping functions by module and name
(``benchmark/workloads.ENTRY_POINTS``); a name that a refactor drops would
break every traced run, so each one must still resolve."""

from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import workloads

    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in workloads.ENTRY_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
