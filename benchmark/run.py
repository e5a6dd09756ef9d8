"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload explain-sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one fixed
round untraced, traced and untraced again and reports the per-layer metrics.
Every line but the last is for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units are listed in BENCHMARK.json at the root of the repository. The smoke
test runs every workload at a tiny size: ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("dataset", "forest", "paths", "reduction", "evaluation", "cli")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(wl, record) -> dict:
    """Metric -> (value, unit, samples)."""
    d = record.durations
    explain = d["explain"]
    p90 = _percentile(explain, 90)
    if wl.via_cli:  # the largest ``ruleforest`` process
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (_median(d["setup"]), "s", len(d["setup"])),
        "train_s": (_median(d["train"]), "s", len(d["train"])),
        "explain_ms.p50": (_median(explain) * 1e3, "ms", len(explain)),
        "explain_ms.p90": (p90 * 1e3, "ms", f"{len(explain)}, {sum(t > p90 for t in explain)} above"),
        "explain_per_s": (len(explain) / sum(explain) if explain else 0.0, "1/s", len(explain)),
        "check_ms.p50": (_median(d["check"]) * 1e3, "ms", len(d["check"])),
        "evaluate_s": (_median(d["evaluate"]), "s", len(d["evaluate"])),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def per_layer(wl, untraced_passes, traced) -> dict:
    """Metric -> (value, unit, samples), from the traced pass's spans."""
    tracer = traced.tracer
    own = tracer.self_time()
    spans = tracer.in_ops

    def median_of(found, unit, scale=1.0):
        return _median([s.duration for s in found]) * scale, unit, len(found)

    def info(found, key):
        return [s.info[key] for s in found]

    extract = spans("paths.extract", "explain")
    mine = spans("paths.mine", "explain")
    reduce = spans("reduction.reduce", "explain")
    compose = spans("reduction.compose", "explain")
    check = spans("reduction.check_conclusive")
    saves = spans("forest.save")
    main_fits = [s for s in spans("forest.fit") if tracer.op_kind[s.op] in ("setup", "train")]
    batches = spans("forest.predict_batch")
    scores = []  # one rule is scored from its coverage call up to the next one
    for s in tracer.spans:
        if s.name == "evaluation.coverage":
            scores.append(0.0)
        if s.name in ("evaluation.coverage", "evaluation.rule_precision", "evaluation.rule_precision_truth"):
            scores[-1] += s.duration
    records = (*untraced_passes, traced)
    startup = [t for r in records for t in r.durations["startup"]] if wl.via_cli else []
    fit_s = _median([s.duration for s in main_fits])

    metrics = {
        "paths.extract_ms.p50": median_of(extract, "ms", 1e3),
        "paths.conditions_per_path": (
            sum(info(extract, "conditions")) / max(1, sum(info(extract, "paths"))), "count", len(extract)),
        "paths.mine_ms.p50": median_of(mine, "ms", 1e3),
        "paths.features_used": (_mean(info(mine, "features")), "count", len(mine)),
        "reduction.reduce_ms.p50": median_of(reduce, "ms", 1e3),
        "reduction.local_error_calls": (
            len(spans("reduction.local_error", "explain")) / max(1, len(reduce)), "count", len(reduce)),
        "reduction.kept_ratio": (
            sum(info(reduce, "kept")) / max(1, sum(info(reduce, "trees"))), "ratio", len(reduce)),
        "reduction.compose_ms.p50": median_of(compose, "ms", 1e3),
        "reduction.rule_length": (_mean(info(compose, "terms")), "count", len(compose)),
        "reduction.render_us.p50": median_of(spans("reduction.render", "explain"), "us", 1e6),
        "reduction.check_conclusive_ms.p50": median_of(check, "ms", 1e3),
        "reduction.envelope_violations": (sum(info(check, "violations")), "count", len(check)),
        "forest.load_s": median_of(spans("forest.load"), "s"),
        "forest.model_bytes": (max(info(saves, "bytes"), default=0), "bytes", len(saves)),
        "forest.fit_s": (fit_s, "s", len(main_fits)),
        "forest.fit_ms_per_tree": (fit_s * 1e3 / wl.trees, "ms", len(main_fits)),
        "forest.nodes": (max(info(main_fits, "nodes"), default=0), "count", len(main_fits)),
        "forest.save_s": median_of(saves, "s"),
        "forest.predict_batch_us_per_row": (
            sum(s.duration for s in batches) * 1e6 / max(1, sum(info(batches, "rows"))), "us", len(batches)),
        "evaluation.score_ms.p50": (_median(scores) * 1e3, "ms", len(scores)),
        "evaluation.run_experiment_s": median_of(spans("evaluation.run_experiment"), "s"),
        "dataset.load_csv_ms": median_of(spans("dataset.load_csv"), "ms", 1e3),
        "cli.startup_s": (_median(startup), "s", len(startup)),
        "cli.self_ms": (_median([own[s.id] for s in spans("cli.main")]) * 1e3, "ms", len(spans("cli.main"))),
    }

    # operation time; start-up is part of set-up
    def op_time(record):
        return sum(sum(v) for kind, v in record.durations.items() if kind != "startup")

    wall = op_time(traced)
    untraced = _mean([op_time(r) for r in untraced_passes])
    layer_self = tracer.layer_self_times()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (layer_self.get(layer, 0.0), "s", 1)
    metrics["self_s.bench"] = (wall - tracer.top_level_time(), "s", 1)
    metrics["trace.wall_s"] = (wall, "s", 1)
    metrics["trace.untraced_wall_s"] = (untraced, "s", 1)
    metrics["trace.overhead_s"] = (wall - untraced, "s", 1)
    in_layers = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.layer_share"] = (in_layers / wall if wall else 0.0, "ratio", 1)
    return metrics


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; at least two rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args)))
    print(f"# workload {wl.name}: {wl.why}")

    work = ROOT / ".bench_run" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            untraced, record = workloads.traced_run(wl, args.seed, work)
            metrics = per_layer(wl, untraced, record)
            records = (*untraced, record)
            attempted, failed = sum(r.attempted for r in records), sum(r.failed for r in records)
            problems = [p for r in records for p in r.problems]
        else:
            record = workloads.Record()
            workloads.session(wl, args.seed, work, args.seconds, record)
            metrics = end_to_end(wl, record)
            attempted, failed, problems = record.attempted, record.failed, record.problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for problem in problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    print(f"error_rate = {failed / max(1, attempted):.6g} ({failed} failed of {attempted} attempted)")
    print(
        f"digest {wl.name}: {record.digest()} over {len(record.digest_lines)} rendered rules and kept counts "
        "(informational: a change to fit changes it)"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
