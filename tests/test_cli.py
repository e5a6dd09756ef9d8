import json
import re
from dataclasses import asdict

import numpy as np
import pytest

import ruleforest.cli as cli_module
from ruleforest import Dataset, ForestConfig, load, load_csv, make_synthetic, save, save_csv
from ruleforest.cli import main
from ruleforest.forest import LEAF
from ruleforest.reduction import MAX_PRECISION
from test_forest import GOLDEN_V1, MIGRATION, NEIGHBOURS, as_v2, corrupt_model_file, unzip_model, zip_model

RULE_RE = re.compile(
    r"^(if (-?\d+\.\d+ <= \w+ <= -?\d+\.\d+)( & -?\d+\.\d+ <= \w+ <= -?\d+\.\d+)* )?"
    r"then \w+: -?\d+\.\d+±\d+\.\d+(, \w+: -?\d+\.\d+±\d+\.\d+)*$"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    save_csv(make_synthetic(60, 4, 2, seed=21), data)
    model = root / "m.model"
    code = main(
        [
            "train",
            "--data", str(data),
            "--targets", "t0,t1",
            "--estimators", "10",
            "--seed", "3",
            "--out", str(model),
        ]
    )
    assert code == 0
    return root, data, model


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_writes_model(workspace, capsys):
    root, data, model = workspace
    assert model.exists()
    out = root / "m2.model"
    code, stdout, _ = run(
        capsys,
        ["train", "--data", str(data), "--targets", "t0,t1", "--estimators", "5", "--out", str(out)],
    )
    assert code == 0
    assert stdout.startswith("# ruleforest train")
    assert out.exists()


def test_explain_wrong_arity(workspace, capsys):
    _, _, model = workspace
    code, _, err = run(
        capsys, ["explain", "--model", str(model), "--instance", "1,2", "--allowed-error", "0.5"]
    )
    assert code == 1
    assert "4 features" in err


def test_explain_rule_grammar(workspace, capsys):
    _, _, model = workspace
    code, out, _ = run(
        capsys,
        [
            "explain",
            "--model", str(model),
            "--instance", "0.1,0.2,0.3,0.4",
            "--allowed-error", "0.2",
            "--scheme", "global",
        ],
    )
    assert code == 0
    rule_line = out.splitlines()[1]
    assert RULE_RE.match(rule_line), rule_line


def test_explain_per_target_scheme_inferred(workspace, capsys):
    _, _, model = workspace
    code, out, _ = run(
        capsys,
        ["explain", "--model", str(model), "--instance", "0,0,0,0", "--allowed-error", "0.2,0.3"],
    )
    assert code == 0


def test_explain_scheme_mismatch(workspace, capsys):
    _, _, model = workspace
    code, _, err = run(
        capsys,
        [
            "explain",
            "--model", str(model),
            "--instance", "0,0,0,0",
            "--allowed-error", "0.2,0.3",
            "--scheme", "global",
        ],
    )
    assert code == 1


def test_explain_instance_index_and_report(workspace, capsys, tmp_path):
    _, data, model = workspace
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        [
            "explain",
            "--model", str(model),
            "--data", str(data),
            "--targets", "t0,t1",
            "--instance-index", "5",
            "--allowed-error", "0.3",
            "--check-conclusive", "50",
            "--report", str(report),
        ],
    )
    assert code == 0
    body = report.read_text().splitlines()
    assert body[0].startswith("# ruleforest explain")
    payload = json.loads("\n".join(body[1:]))
    assert payload["kept_paths"] + payload["excluded_paths"] == 10
    assert payload["envelope_violations"] == 0
    certified = zip(payload["certified_lower"], payload["original_prediction"], payload["certified_upper"], strict=True)
    for low, value, high in certified:
        assert low <= value <= high


def test_explain_report_carries_trace_and_timings(workspace, capsys, tmp_path):
    _, _, model = workspace
    report = tmp_path / "report.json"
    argv = ["explain", "--model", str(model), "--instance", "0.5,-0.5,0.1,0.9", "--allowed-error", "0.4",
            "--report", str(report)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads("\n".join(report.read_text().splitlines()[1:]))
    assert list(payload["timings"]) == [f"{stage}_elapsed_seconds" for stage in ("extract", "mine", "reduce", "compose")]
    trace = payload["trace"]
    step = trace["accepted_step"]
    assert sorted(trace["ranking"][:step]) == payload["feature_set"]
    assert trace["kept_paths"][step] == payload["kept_paths"]
    assert trace["kept_paths"][-1] == payload["kept_paths"] + payload["excluded_paths"]
    assert trace["local_errors"][step] == payload["local_errors"]


def test_explain_missing_budget_is_usage_error(workspace, capsys):
    _, _, model = workspace
    code, _, err = run(capsys, ["explain", "--model", str(model), "--instance", "0,0,0,0"])
    assert code == 1


def test_evaluate_writes_csv(workspace, capsys, tmp_path):
    _, data, _ = workspace
    out = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        [
            "evaluate",
            "--data", str(data),
            "--targets", "t0,t1",
            "--estimators", "5",
            "--allowed-errors", "0.1,1.0",
            "--folds", "3",
            "--out", str(out),
        ],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ruleforest evaluate")
    assert lines[1].split(",")[0] == "allowed_error"
    assert len(lines) == 4


def test_bench_writes_csv(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys,
        [
            "bench",
            "--synthetic", "60,4,2",
            "--estimators", "5",
            "--allowed-errors", "0.1,0.5",
            "--instances", "3",
            "--out", str(out),
        ],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ruleforest bench")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv, header",
    [
        (["evaluate", "--targets", "t0,t1", "--estimators", "5", "--allowed-errors", "0.1,1.0", "--folds", "3"],
         "allowed_error,coverage"),
        (["bench", "--synthetic", "60,4,2", "--estimators", "5", "--allowed-errors", "0.1,0.5", "--instances", "3"],
         "allowed_error,mean_time_seconds"),
    ],
)
def test_csv_commands_write_stdout_without_out(workspace, capsys, argv, header):
    _, data, _ = workspace
    if argv[0] == "evaluate":
        argv = argv + ["--data", str(data)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"# ruleforest {argv[0]}")
    assert lines[1].startswith(header)
    assert len(lines) == 4


def test_inspect(workspace, capsys):
    _, _, model = workspace
    code, out, _ = run(capsys, ["inspect", "--model", str(model)])
    assert code == 0
    assert "trees: 10" in out
    assert "seed=3" in out
    assert "feature_bounds[f0]" in out


def test_inspect_single_leaf_depth_zero(capsys, tmp_path):
    import numpy as np

    from ruleforest import Dataset, ForestConfig, fit, save

    ds = Dataset(np.ones((5, 2)) * [[1], [2], [3], [4], [5]], np.full((5, 1), 2.0), ("a", "b"), ("t",))
    model = tmp_path / "leaf.model"
    save(fit(ds, ForestConfig(n_estimators=1)), model)
    code, out, _ = run(capsys, ["inspect", "--model", str(model)])
    assert code == 0
    assert "depth: min 0 mean 0.0 max 0" in out


def test_inspect_mixed_depths(capsys, tmp_path):
    from conftest import build_forest, leaf, split

    from ruleforest import save

    deep = split(0, 0.0, split(1, 0.0, split(0, -1.0, leaf([1.0]), leaf([2.0])), leaf([3.0])), leaf([4.0]))
    forest = build_forest([leaf([0.0]), split(1, 0.5, leaf([1.0]), leaf([2.0])), deep], d=2)
    model = tmp_path / "mixed.model"
    save(forest, model)
    code, out, _ = run(capsys, ["inspect", "--model", str(model)])
    assert code == 0
    assert "depth: min 0 mean 1.3 max 3" in out
    assert "leaves per tree: min 1 mean 2.3 max 4" in out
    assert "leaf extremes[t0]: [0.0000, 4.0000]" in out


@pytest.mark.parametrize(
    "flags",
    [
        ["explain", "--precision", "-1"],
        ["explain", "--check-conclusive", "-5"],
        ["explain", "--check-conclusive", "0"],
        ["bench", "--instances", "0"],
        ["explain", "--rank-order", "asc"],  # removed: features rank lowest score first
    ],
    ids=["precision_negative", "check_conclusive_negative", "check_conclusive_zero", "bench_instances_zero",
         "rank_order_removed"],
)
def test_out_of_range_flag_is_usage_error(workspace, capsys, flags):
    _, _, model = workspace
    if flags[0] == "explain":
        argv = flags + ["--model", str(model), "--instance", "0.1,0.2,0.3,0.4", "--allowed-error", "0.2"]
    else:
        argv = flags + ["--synthetic", "60,4,2", "--estimators", "5", "--allowed-errors", "0.1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


RANGE_CASES = {
    "train_estimators_zero": ["train", "--estimators", "0"],
    "train_min_leaf_zero": ["train", "--min-leaf", "0"],
    "train_max_depth_negative": ["train", "--max-depth", "-1"],
    "train_max_features_zero": ["train", "--max-features", "0"],
    "train_max_features_above_one": ["train", "--max-features", "1.5"],
    "train_seed_negative": ["train", "--seed", "-1"],
    "evaluate_folds_zero": ["evaluate", "--folds", "0"],
    "evaluate_folds_one": ["evaluate", "--folds", "1"],
    "evaluate_allowed_errors_negative": ["evaluate", "--allowed-errors", "0.1,-1"],
    "evaluate_allowed_errors_empty": ["evaluate", "--allowed-errors", " "],
    "explain_min_support_zero": ["explain", "--min-support", "0"],
    "explain_allowed_error_negative": ["explain", "--allowed-error", "-1"],
    "explain_instance_nan": ["explain", "--instance", "0.1,nan,0.3,0.4"],
    "explain_instance_inf": ["explain", "--instance", "0.1,0.2,inf,0.4"],
    "explain_precision_above_max": ["explain", "--precision", str(MAX_PRECISION + 1)],
    "explain_precision_too_big_to_format": ["explain", "--precision", "3000000000"],
    "bench_synthetic_zero": ["bench", "--synthetic", "0,4,2"],
    "bench_noise_negative": ["bench", "--noise", "-1"],
    "bench_allowed_errors_empty": ["bench", "--allowed-errors", ","],
    "bench_allowed_errors_descending": ["bench", "--allowed-errors", "0.3,0.1"],
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_value_is_usage_error(workspace, capsys, tmp_path, case):
    _, data, model = workspace
    command, flag, value = RANGE_CASES[case]
    valid = {
        "train": ["--data", str(data), "--targets", "t0,t1", "--estimators", "3", "--out", str(tmp_path / "m.model")],
        "evaluate": ["--data", str(data), "--targets", "t0,t1", "--estimators", "3", "--allowed-errors", "0.1"],
        "explain": ["--model", str(model), "--instance", "0.1,0.2,0.3,0.4", "--allowed-error", "0.2"],
        "bench": ["--synthetic", "60,4,2", "--estimators", "3", "--allowed-errors", "0.1"],
    }[command]
    # the flag under test comes last, so it overrides a valid value given above
    code, out, err = run(capsys, [command, *valid, f"{flag}={value}"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and flag in err


@pytest.mark.parametrize("precision", [MAX_PRECISION + 1, 3_000_000_000])
def test_precision_above_max_fails_at_parse_time(capsys, monkeypatch, precision):
    monkeypatch.setattr(cli_module, "load", lambda path: pytest.fail("the model was loaded"))
    argv = ["explain", "--model", "m.model", "--instance", "0.1", "--allowed-error", "0.2", "--precision", str(precision)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: argument --precision: must be <= {MAX_PRECISION}, got {precision}\n"


def test_non_numeric_instance_is_usage_error_naming_the_value(workspace, capsys):
    _, _, model = workspace
    argv = ["explain", "--model", str(model), "--instance", "0.1,abc,0.3,0.4", "--allowed-error", "0.2"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "--instance" in err and "'abc'" in err and "parse" not in err


def test_config_line_echoes_the_parsed_values(workspace, capsys):
    _, _, model = workspace
    argv = ["explain", "--model", str(model), "--instance", "0.10,0.2,.3,4", "--allowed-error", "0.20"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    pairs = out.splitlines()[0].split()
    assert "instance=0.1,0.2,0.3,4.0" in pairs
    assert "allowed_error=0.2" in pairs


def test_missing_model_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, ["inspect", "--model", str(tmp_path / "nope.model")])
    assert code == 2
    assert "error:" in err


def test_csv_with_a_repeated_column_is_data_error(capsys, tmp_path):
    data = tmp_path / "repeated.csv"
    data.write_text("a,b,a\n1,2,3\n4,5,6\n7,8,9\n")
    code, out, err = run(capsys, ["train", "--data", str(data), "--targets", "a", "--out", str(tmp_path / "m.model")])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "'a' appears more than once" in err


def test_csv_with_a_cell_over_the_field_limit_is_data_error(capsys, tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("a,b,t\n1,2,3\n4," + "5" * 200_000 + ",6\n")
    code, out, err = run(capsys, ["train", "--data", str(data), "--targets", "t", "--out", str(tmp_path / "m.model")])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "long.csv:3: field larger than field limit" in err


@pytest.mark.parametrize("cell", ["1e309", "-inf", "nan"])
def test_csv_with_a_non_finite_cell_is_data_error(capsys, tmp_path, cell):
    data = tmp_path / "huge.csv"
    data.write_text(f"a,t\n1,2\n{cell},3\n4,5\n")
    code, out, err = run(capsys, ["train", "--data", str(data), "--targets", "t", "--out", str(tmp_path / "m.model")])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {data}:3: non-finite value '{cell}' in column 'a'"]


@pytest.mark.parametrize("case", list(NEIGHBOURS))
def test_train_on_two_neighbouring_values_writes_a_model(capsys, tmp_path, case):
    a, b = NEIGHBOURS[case]
    x = np.tile([a, b], 10)
    data = tmp_path / "neighbours.csv"
    save_csv(Dataset(x[:, None], (x == b).astype(np.float64)[:, None], ("a",), ("t",)), data)
    model = tmp_path / "m.model"
    argv = ["train", "--data", str(data), "--targets", "t", "--estimators", "5", "--out", str(model)]
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert (load(model).threshold[load(model).feature != LEAF] == a).all()


def test_explain_report_that_cannot_be_written_prints_nothing(workspace, capsys, tmp_path):
    _, _, model = workspace
    report = tmp_path / "no such folder" / "report.json"
    argv = ["explain", "--model", str(model), "--instance", "0.1,0.2,0.3,0.4", "--allowed-error", "0.3",
            "--report", str(report)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "no such folder" in err


def test_model_with_root_cycle_is_data_error(workspace, capsys, tmp_path):
    _, _, model = workspace
    header, arrays = unzip_model(model.read_bytes())
    arrays["left"][0] = arrays["right"][0] = 0
    broken = tmp_path / "cycle.model"
    broken.write_bytes(zip_model(header, arrays))
    code, _, err = run(
        capsys, ["explain", "--model", str(broken), "--instance", "0,0,0,0", "--allowed-error", "0.2"]
    )
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


def test_model_whose_nodes_share_a_child_is_data_error(capsys, tmp_path):
    # a chain of 12 splits, each sending both children to the next node, so
    # its one leaf has 2**12 root paths; a leaf's box assumes it has one
    n = 13
    following = np.append(np.arange(1, n), -1)
    header = {
        "format": "ruleforest-model",
        "version": 3,
        "config": asdict(ForestConfig(n_estimators=1)),
        "feature_names": ["a"],
        "target_names": ["t"],
        "feature_bounds": [[0.0, 1.0]],
    }
    arrays = {
        "feature": np.append(np.zeros(n - 1, dtype=np.int64), LEAF),
        "threshold": np.full(n, 0.5),
        "left": following,
        "right": following,
        "value": np.vstack([np.zeros((n - 1, 1)), [[1.0]]]),  # 0.0 at the splits, 1.0 at the leaf
        "node_counts": np.array([n]),
    }
    chain = tmp_path / "chain.model"
    chain.write_bytes(zip_model(header, arrays))
    code, out, err = run(capsys, ["explain", "--model", str(chain), "--instance", "0.5", "--allowed-error", "0.1"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {chain}: tree 0: node other than the root not the child of exactly one node"]


@pytest.mark.parametrize(
    "corruption",
    [
        "seed_string",
        "feature_huge",
        "feature_fractional",
        "left_fractional",
        "bootstrap_string",
        "normalize_targets_null",
        "bootstrap_list",
        "max_features_bool",
        "no_targets",
        "feature_name_repeated",
        "target_name_repeated",
    ],
)
def test_model_with_value_save_never_writes_is_data_error(workspace, capsys, tmp_path, corruption):
    _, _, model = workspace
    broken = tmp_path / "broken.model"
    message = corrupt_model_file(load(model), corruption, broken)
    code, out, err = run(capsys, ["inspect", "--model", str(broken)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {broken}: ") and message in err


@pytest.mark.parametrize("command", ["inspect", "explain"])
def test_v1_model_is_data_error_with_the_migration_line(capsys, command):
    argv = [command, "--model", str(GOLDEN_V1)]
    if command == "explain":
        argv += ["--instance", "0,0,0", "--allowed-error", "0.2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {GOLDEN_V1}: {MIGRATION}"]


def test_v2_file_and_its_v3_resave_explain_alike(workspace, capsys, tmp_path, monkeypatch):
    _, _, model = workspace
    v2, v3 = tmp_path / "v2", tmp_path / "v3"
    v2.mkdir(), v3.mkdir()
    (v2 / "m.model").write_bytes(as_v2(model.read_bytes()))
    save(load(v2 / "m.model"), v3 / "m.model")
    assert (v3 / "m.model").read_bytes() == model.read_bytes()
    runs = []
    for folder in (v2, v3):
        monkeypatch.chdir(folder)  # the config line names the model and the report, relative to here
        argv = ["explain", "--model", "m.model", "--instance", "0.3,-0.2,0.5,0.1", "--allowed-error", "0.3",
                "--report", "report.json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = [line for line in (folder / "report.json").read_text().splitlines() if "elapsed_seconds" not in line]
        runs.append((out.splitlines()[1], report))
    assert runs[0] == runs[1] and RULE_RE.match(runs[0][0])


def test_model_trained_to_a_json_name_explains(workspace, capsys, tmp_path):
    _, data, model = workspace
    out = tmp_path / "model.json"  # written as v2 whatever the name
    train = ["train", "--data", str(data), "--targets", "t0,t1", "--estimators", "10", "--seed", "3", "--out", str(out)]
    assert run(capsys, train)[0] == 0
    assert out.read_bytes() == model.read_bytes()
    rules = []
    for path in (out, model):
        argv = ["explain", "--model", str(path), "--instance", "0.1,0.2,0.3,0.4", "--allowed-error", "0.3"]
        code, printed, _ = run(capsys, argv)
        assert code == 0
        rules.append(printed.splitlines()[1])
    assert rules[0] == rules[1] and RULE_RE.match(rules[0])


@pytest.mark.parametrize("header", ["a,,t", "a, ,t"])
def test_csv_with_a_blank_column_name_is_data_error(capsys, tmp_path, header):
    data = tmp_path / "blank.csv"
    data.write_text(header + "\n1,2,3\n4,5,6\n7,8,9\n")
    code, out, err = run(capsys, ["train", "--data", str(data), "--targets", "t", "--out", str(tmp_path / "m.model")])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "column 2" in err
    assert not (tmp_path / "m.model").exists()


def test_explain_parses_the_csv_once(workspace, capsys, monkeypatch):
    _, data, model = workspace
    calls = []

    def counting_load_csv(*args, **kwargs):
        calls.append(args)
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(cli_module, "load_csv", counting_load_csv)
    # no --allowed-error: the instance and the cross-validated default budget both need the CSV
    argv = ["explain", "--model", str(model), "--data", str(data), "--targets", "t0,t1", "--instance-index", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and RULE_RE.match(out.splitlines()[1])
    assert len(calls) == 1


def test_explain_instance_index_without_targets_is_usage_error(workspace, capsys):
    _, data, model = workspace
    argv = ["explain", "--model", str(model), "--data", str(data), "--instance-index", "5", "--allowed-error", "0.3"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "--targets" in err


@pytest.fixture(scope="module")
def renamed_csv(workspace):
    """The workspace CSV with its feature columns named g0..g3 instead of f0..f3."""
    root, data, _ = workspace
    original = load_csv(data, ["t0", "t1"])
    path = root / "renamed.csv"
    save_csv(Dataset(original.features, original.targets, [f"g{i}" for i in range(4)], original.target_names), path)
    return path


@pytest.mark.parametrize(
    "renamed, flags",
    [
        # the default budget is one CV value per model target, in the model's order
        (False, ["--targets", "t1,t0", "--instance-index", "5"]),
        (False, ["--targets", "t1,t0", "--instance", "0.1,0.2,0.3,0.4"]),
        # a CSV whose feature columns are not the model's gives neither an instance nor a budget
        (True, ["--targets", "t0,t1", "--instance", "0.1,0.2,0.3,0.4"]),
        (True, ["--targets", "t0,t1", "--instance-index", "5", "--allowed-error", "0.3"]),
    ],
)
def test_explain_csv_that_does_not_match_the_model_is_data_error(workspace, renamed_csv, capsys, renamed, flags):
    _, data, model = workspace
    code, out, err = run(capsys, ["explain", "--model", str(model), "--data", str(renamed_csv if renamed else data), *flags])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "do not match the model" in err


def test_explain_instance_index_with_a_budget_takes_any_target_order(workspace, capsys):
    _, data, model = workspace
    argv = ["explain", "--model", str(model), "--data", str(data), "--targets", "t1,t0", "--instance-index", "5",
            "--allowed-error", "0.3"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and RULE_RE.match(out.splitlines()[1])


def test_unknown_flag_is_usage_error(capsys, workspace):
    _, _, model = workspace
    code, _, _ = run(capsys, ["inspect", "--model", str(model), "--bogus"])
    assert code == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "ruleforest" in capsys.readouterr().out


def test_repeat_runs_byte_identical(workspace, capsys):
    _, _, model = workspace
    argv = [
        "explain",
        "--model", str(model),
        "--instance", "0.5,-0.5,0.1,0.9",
        "--allowed-error", "0.4",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0

    def strip_timing(text):
        return [l for l in text.splitlines() if "elapsed_seconds" not in l]

    assert strip_timing(out1) == strip_timing(out2)
