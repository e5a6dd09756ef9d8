import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ruleforest.forest as forest_module
from conftest import build_forest, build_tree, leaf, predict_tree, random_forest, split
from ruleforest import (
    Dataset,
    Forest,
    ForestConfig,
    ModelError,
    evaluate_mae,
    extract_paths,
    fit,
    load,
    make_synthetic,
    predict,
    predict_batch,
    save,
)
from ruleforest.cli import main
from ruleforest.forest import LEAF, Tree


def two_point_dataset():
    return Dataset(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), ("x",), ("y",))


def test_forced_split():
    forest = fit(
        two_point_dataset(),
        ForestConfig(n_estimators=1, max_depth=1, max_features="all", bootstrap=False),
    )
    tree = forest.trees[0]
    assert tree.feature[0] == 0
    assert predict_tree(tree, [0.0]) == pytest.approx([0.0])
    assert predict_tree(tree, [1.0]) == pytest.approx([1.0])


def test_constant_targets_single_leaf(rng):
    ds = Dataset(rng.standard_normal((30, 3)), np.full((30, 2), 7.0), ("a", "b", "c"), ("u", "v"))
    forest = fit(ds, ForestConfig(n_estimators=5, seed=1))
    for t, tree in enumerate(forest.trees):
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(forest.leaf_min[t], forest.leaf_max[t])
        np.testing.assert_array_equal(tree.value[0], [7.0, 7.0])


def test_fit_deterministic(tmp_path):
    ds = make_synthetic(60, 4, 2, seed=5)
    config = ForestConfig(n_estimators=8, seed=9)
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    save(fit(ds, config), a)
    save(fit(ds, config), b)
    assert a.read_bytes() == b.read_bytes()


def test_predict_is_tree_mean():
    forest = build_forest([leaf([1.0, 3.0]), leaf([3.0, 5.0])], d=2)
    np.testing.assert_allclose(predict(forest, [0.0, 0.0]), [2.0, 4.0])


def test_single_tree_identity():
    forest = build_forest([split(0, 0.5, leaf([1.0]), leaf([9.0]))], d=1)
    np.testing.assert_array_equal(predict(forest, [0.2]), predict_tree(forest.trees[0], [0.2]))


def test_hand_forest_matches_manual_average():
    # three trees traced by hand for x = (3, 7):
    #   tree A: f0<=5 -> left leaf (1, 2)
    #   tree B: f1<=6 ? no -> right, then f0<=2 ? no -> right leaf (5, 6)
    #   tree C: single leaf (0, 3)
    forest = build_forest(
        [
            split(0, 5.0, leaf([1.0, 2.0]), leaf([9.0, 9.0])),
            split(1, 6.0, leaf([8.0, 8.0]), split(0, 2.0, leaf([7.0, 7.0]), leaf([5.0, 6.0]))),
            leaf([0.0, 3.0]),
        ],
        d=2,
    )
    expected = np.array([(1 + 5 + 0) / 3, (2 + 6 + 3) / 3])
    np.testing.assert_allclose(predict(forest, [3.0, 7.0]), expected)


def test_predict_tree_boundary_goes_left():
    tree = build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0])))
    assert predict_tree(tree, [0.5]) == pytest.approx([1.0])
    assert predict_tree(tree, [0.5000001]) == pytest.approx([2.0])


def test_depth3_manual_traversal():
    # pencil-and-paper: x=(4, 1, -2): f0<=3? no -> right; f2<=0? yes -> left;
    # f1<=1? yes -> left leaf (42,)
    tree = build_tree(
        split(
            0,
            3.0,
            leaf([-1.0]),
            split(2, 0.0, split(1, 1.0, leaf([42.0]), leaf([13.0])), leaf([99.0])),
        )
    )
    assert predict_tree(tree, [4.0, 1.0, -2.0]) == pytest.approx([42.0])


def test_dimension_mismatch():
    forest = build_forest([leaf([1.0])], d=2)
    with pytest.raises(ModelError):
        predict(forest, [1.0])


def test_evaluate_mae_perfect():
    ds = two_point_dataset()
    forest = fit(ds, ForestConfig(n_estimators=1, max_features="all", bootstrap=False))
    per_target, mean = evaluate_mae(forest, ds)
    np.testing.assert_allclose(per_target, [0.0])
    assert mean == 0.0


def test_evaluate_mae_arithmetic():
    forest = build_forest([leaf([1.0, 2.0])], d=1)
    ds = Dataset(np.array([[0.0]]), np.array([[2.0, 4.0]]), ("x",), ("u", "v"))
    per_target, mean = evaluate_mae(forest, ds)
    np.testing.assert_allclose(per_target, [1.0, 2.0])
    assert mean == pytest.approx(1.5)


def test_save_load_roundtrip(tmp_path, rng):
    ds = make_synthetic(80, 5, 2, seed=3)
    forest = fit(ds, ForestConfig(n_estimators=6, seed=4))
    path = tmp_path / "m.model"
    save(forest, path)
    back = load(path)
    X = rng.uniform(-3, 3, size=(100, 5))
    np.testing.assert_array_equal(predict_batch(forest, X), predict_batch(back, X))
    assert back.config == forest.config
    np.testing.assert_array_equal(back.feature_bounds, forest.feature_bounds)


@pytest.mark.parametrize(
    "shape, config",
    [
        ((80, 5, 2), ForestConfig(n_estimators=6, seed=4)),
        ((50, 3, 1), ForestConfig(n_estimators=3, max_depth=2, bootstrap=False, max_features=0.5, seed=1)),
        ((30, 2, 3), ForestConfig(n_estimators=1, min_samples_leaf=4, seed=2)),
    ],
    ids=["six_trees", "three_shallow_trees", "one_tree"],
)
def test_save_writes_json_of_the_v1_document(tmp_path, shape, config):
    forest = fit(make_synthetic(*shape, seed=shape[0]), config)
    document = {
        "format": "ruleforest-model",
        "version": 1,
        "config": {field: getattr(config, field) for field in config.__dataclass_fields__},
        "feature_names": list(forest.feature_names),
        "target_names": list(forest.target_names),
        "feature_bounds": forest.feature_bounds.tolist(),
        "trees": [{field: getattr(tree, field).tolist() for field in Tree._fields} for tree in forest.trees],
    }
    path = tmp_path / "m.model"
    save(forest, path)
    assert path.read_bytes() == json.dumps(document).encode()


def test_load_wrong_version(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(json.dumps({"format": "ruleforest-model", "version": 99}))
    with pytest.raises(ModelError, match="version"):
        load(path)


def test_load_truncated(tmp_path):
    ds = make_synthetic(20, 3, 1, seed=0)
    path = tmp_path / "trunc.model"
    save(fit(ds, ForestConfig(n_estimators=2)), path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(ModelError, match="corrupt"):
        load(path)


def test_load_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.model"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelError, match="corrupt"):
        load(path)


def test_load_not_a_model(tmp_path):
    path = tmp_path / "other.json"
    path.write_text("{}")
    with pytest.raises(ModelError, match="not a"):
        load(path)


def _set(tree, key, index, value):
    tree[key][index] = value


CORRUPTIONS = {
    "root_cycle": lambda doc: (_set(doc["trees"][0], "left", 0, 0), _set(doc["trees"][0], "right", 0, 0)),
    "feature_too_large": lambda doc: _set(doc["trees"][0], "feature", 0, 7),
    "feature_negative": lambda doc: _set(doc["trees"][0], "feature", 0, -2),
    "child_too_large": lambda doc: _set(doc["trees"][0], "right", 0, 10**6),
    "value_short": lambda doc: doc["trees"][0]["value"].pop(),
    "value_wrong_width": lambda doc: _set(doc["trees"][0], "value", -1, [0.0]),
    "sample_count_short": lambda doc: doc["trees"][0]["sample_count"].pop(),
    "threshold_nan": lambda doc: _set(doc["trees"][0], "threshold", 0, float("nan")),
    "value_inf": lambda doc: _set(doc["trees"][0], "value", -1, [float("inf"), 0.0]),
    "no_nodes": lambda doc: doc["trees"][0].update(
        {key: [] for key in ("feature", "threshold", "left", "right", "value", "sample_count")}
    ),
    "bounds_short": lambda doc: doc["feature_bounds"].pop(),
    "bounds_nan": lambda doc: _set(doc, "feature_bounds", 0, [float("nan"), 1.0]),
    # strings of one character per feature or target, which would split into valid names
    "feature_names_string": lambda doc: doc.update(feature_names="abc"),
    "target_names_string": lambda doc: doc.update(target_names="uv"),
    "n_estimators_not_tree_count": lambda doc: _set(doc, "config", "n_estimators", 7),
    # values save never writes, which a forced cast would round, wrap or overflow on
    "seed_string": lambda doc: _set(doc, "config", "seed", "x"),
    "seed_negative": lambda doc: _set(doc, "config", "seed", -1),
    "feature_huge": lambda doc: _set(doc["trees"][0], "feature", 0, 2**70),
    "feature_fractional": lambda doc: _set(doc["trees"][0], "feature", 0, doc["trees"][0]["feature"][0] + 0.5),
    "left_fractional": lambda doc: _set(doc["trees"][0], "left", 0, doc["trees"][0]["left"][0] + 0.5),
    # flags that are not bools, and a bool where a fraction belongs
    "bootstrap_string": lambda doc: _set(doc, "config", "bootstrap", "x"),
    "normalize_targets_null": lambda doc: _set(doc, "config", "normalize_targets", None),
    "bootstrap_list": lambda doc: _set(doc, "config", "bootstrap", [1]),
    "max_features_bool": lambda doc: _set(doc, "config", "max_features", True),
    # bools, which numpy would read as 1 and 0 beside numbers
    "feature_true": lambda doc: _set(doc["trees"][0], "feature", 0, True),
    "threshold_true": lambda doc: _set(doc["trees"][0], "threshold", 0, True),
    "value_false": lambda doc: _set(doc["trees"][0], "value", -1, [False, 0.0]),
    "bounds_true": lambda doc: _set(doc, "feature_bounds", 0, [True, 2.0]),
    "bounds_numeric_string": lambda doc: _set(doc, "feature_bounds", 0, ["-4", "4.5"]),
    "version_true": lambda doc: doc.update(version=True),
    # no target at all, with value rows to match, and a name given twice
    "no_targets": lambda doc: (
        doc.update(target_names=[]),
        [tree.update(value=[[] for _ in tree["value"]]) for tree in doc["trees"]],
    ),
    "feature_name_repeated": lambda doc: _set(doc, "feature_names", 1, doc["feature_names"][0]),
    "target_name_repeated": lambda doc: _set(doc, "target_names", 1, doc["target_names"][0]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_load_rejects_corrupt_tree(tmp_path, corruption):
    path = tmp_path / "m.model"
    save(fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=3, seed=0)), path)
    doc = json.loads(path.read_text())
    assert doc["trees"][0]["feature"][0] != -1  # the root splits, so it has children
    CORRUPTIONS[corruption](doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load(path)


@pytest.mark.parametrize(
    "field, value",
    [("n_estimators", 2.0), ("min_samples_leaf", "1"), ("max_depth", 1.5), ("max_depth", True), ("seed", "x"), ("seed", None)],
)
def test_config_rejects_non_integers(field, value):
    with pytest.raises(ModelError, match=f"{field} must be an integer"):
        ForestConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("n_estimators", 0), ("min_samples_leaf", 0), ("max_depth", -1), ("seed", -1)]
)
def test_config_rejects_integers_out_of_range(field, value):
    with pytest.raises(ModelError, match=f"{field} must be >= {value + 1}"):
        ForestConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bootstrap", "x", "bootstrap must be a bool"),
        ("bootstrap", 1, "bootstrap must be a bool"),
        ("normalize_targets", None, "normalize_targets must be a bool"),
        ("normalize_targets", [1], "normalize_targets must be a bool"),
        ("max_features", True, "max_features must be"),
        ("max_features", np.False_, "max_features must be"),
        ("max_features", None, "max_features must be"),
        ("max_features", [0.5], "max_features must be"),
    ],
)
def test_config_rejects_non_bool_flags(field, value, message):
    with pytest.raises(ModelError, match=message):
        ForestConfig(**{field: value})


def test_config_takes_numpy_bools_as_bools(tmp_path):
    config = ForestConfig(n_estimators=2, bootstrap=np.False_, normalize_targets=np.True_)
    assert type(config.bootstrap) is bool and type(config.normalize_targets) is bool
    path = tmp_path / "m.model"
    save(fit(make_synthetic(20, 2, 1, seed=0), config), path)
    assert load(path).config == ForestConfig(n_estimators=2, bootstrap=False, normalize_targets=True)


def test_config_takes_numpy_integers_as_ints(tmp_path):
    config = ForestConfig(n_estimators=np.int64(2), max_depth=np.int32(3), min_samples_leaf=np.int64(1), seed=np.uint8(4))
    assert config == ForestConfig(n_estimators=2, max_depth=3, seed=4)
    assert all(type(value) is int for value in (config.n_estimators, config.max_depth, config.seed))
    path = tmp_path / "m.model"
    save(fit(make_synthetic(20, 2, 1, seed=0), config), path)
    assert load(path).config == config


# a small hand-built forest (depths 0 to 3, two targets) and its v1 file
GOLDEN_FILE = Path(__file__).parent / "data" / "model_v1.json"
GOLDEN_SPECS = [
    leaf([0.5, -1.25]),
    split(0, 0.5, leaf([1.0, 2.0]), leaf([-3.0, 0.125])),
    split(1, -2.5, split(2, 1.75, leaf([0.1, 0.2]), leaf([1e-3, -7.5])), leaf([4.0, 1.0 / 3.0])),
    split(2, 0.0, leaf([2.5, -0.5]), split(0, 3.5, split(1, -1.0, leaf([0.0, 1.0]), leaf([6.25, -6.25])), leaf([-2.0, 9.0]))),
]


def test_save_writes_the_golden_v1_file(tmp_path):
    path = tmp_path / "m.model"
    save(build_forest(GOLDEN_SPECS, d=3, bounds=[[-4.0, 4.5], [-3.0, 2.0], [-1.0, 5.0]]), path)
    assert path.read_bytes() == GOLDEN_FILE.read_bytes()
    save(load(GOLDEN_FILE), path)
    assert path.read_bytes() == GOLDEN_FILE.read_bytes()


def _locations(node, at=()):
    """The key path of every value inside a JSON document, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield at + (key,)
        yield from _locations(child, at + (key,))


def _drop(parent, key):  # a dict loses a key; a list gets shorter
    del parent[key]


def _extend(parent, key):  # a list gets longer by a copy of one of its elements
    if isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))


def _swap(value):
    def swap(parent, key):
        parent[key] = value

    return swap


FUZZ_VALUES = {"2**70": 2**70, "10**400": 10**400, "fraction": 0.5, "string": "x", "bool": True, "null": None, "list": [1], "dict": {"a": 1}}
FUZZ_MUTATIONS = {"drop": _drop, "extend": _extend, **{f"swap {name}": _swap(value) for name, value in FUZZ_VALUES.items()}}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    location=st.sampled_from(list(_locations(json.loads(GOLDEN_FILE.read_text())))),
    mutation=st.sampled_from(sorted(FUZZ_MUTATIONS)),
)
def test_mutated_model_file_fails_cleanly_or_predicts(tmp_path, capsys, location, mutation):
    doc = json.loads(GOLDEN_FILE.read_text())
    parent = doc
    for key in location[:-1]:
        parent = parent[key]
    FUZZ_MUTATIONS[mutation](parent, location[-1])
    path = tmp_path / "fuzzed.model"
    path.write_text(json.dumps(doc))
    try:
        forest = load(path)
    except ModelError:
        forest = None
    else:
        assert np.isfinite(predict(forest, np.zeros(forest.d))).all()
    if mutation == "swap bool" and location[0] in ("trees", "feature_bounds", "version"):
        assert forest is None
    code = main(["inspect", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == (2 if forest is None else 0)
    assert len(err.splitlines()) == (1 if forest is None else 0)


def test_cli_import_and_load_leave_numpy_ma_unimported(tmp_path):
    path = tmp_path / "m.model"
    save(fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=3, seed=0)), path)
    code = (
        "import sys; import ruleforest.cli; from ruleforest import load; "
        f"load({str(path)!r}); print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(forest_module.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


def test_forest_rejects_child_pointing_back_to_root():
    tree = build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0])))
    tree.left[0] = 0  # the root's left child is the root itself: a walk would never end
    with pytest.raises(ModelError, match="tree 1"):
        Forest(
            trees=[build_tree(leaf([0.0])), tree],
            config=ForestConfig(n_estimators=2),
            feature_names=("f0",),
            target_names=("t0",),
            feature_bounds=np.array([[-1.0, 1.0]]),
        )


SPLIT = build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0])))

# id: (the second tree, the Forest arguments that replace the valid ones, the ModelError message)
FOREST_FAULTS = {
    "value_narrower_than_targets": (
        build_tree(leaf([1.0])),
        {"target_names": ("t0", "t1")},
        r"tree 1: value has shape \(1, 1\), expected \(1, 2\)",
    ),
    "bounds_not_2d": (SPLIT, {"feature_bounds": [-1.0, 1.0, 0.0]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_not_finite": (SPLIT, {"feature_bounds": [[-1.0, np.inf]]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_ragged": (SPLIT, {"feature_bounds": [[-1.0, 1.0], [2.0]]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_strings": (SPLIT, {"feature_bounds": [["low", "high"]]}, r"feature_bounds must be .* of numbers"),
    "bounds_numeric_strings": (SPLIT, {"feature_bounds": [["-1", "1.5"]]}, r"feature_bounds must be .* of numbers"),
    "threshold_short": (SPLIT._replace(threshold=np.array([0.5])), {}, r"tree 1: threshold has shape \(1,\), expected \(3,\)"),
    "feature_0d": (build_tree(leaf([1.0]))._replace(feature=np.array(-1)), {}, r"tree 1: feature has shape \(\), expected \(0,\)"),
    "feature_float": (
        SPLIT._replace(feature=SPLIT.feature.astype(np.float64)),
        {},
        "tree 1: feature holds float64 values, expected integers",
    ),
    "left_float": (SPLIT._replace(left=SPLIT.left.astype(np.float64)), {}, "tree 1: left holds float64 values, expected integers"),
    "value_complex": (
        SPLIT._replace(value=SPLIT.value.astype(np.complex128)),
        {},
        "tree 1: value holds complex128 values, expected numbers",
    ),
    "sample_count_bool": (
        SPLIT._replace(sample_count=SPLIT.sample_count.astype(bool)),
        {},
        "tree 1: sample_count holds bool values, expected integers",
    ),
    # one string of one character per name, which would split into valid names
    "feature_names_str": (SPLIT, {"feature_names": "f"}, "feature_names must be a sequence of strings"),
    "target_names_str": (SPLIT, {"target_names": "t"}, "target_names must be a sequence of strings"),
    "feature_names_not_strings": (SPLIT, {"feature_names": (0,)}, "feature_names must be a sequence of strings"),
    "target_names_not_strings": (SPLIT, {"target_names": [b"t0"]}, "target_names must be a sequence of strings"),
    "n_estimators_not_tree_count": (
        SPLIT,
        {"config": ForestConfig(n_estimators=3)},
        "config.n_estimators is 3, but the forest has 2 trees",
    ),
}


@pytest.mark.parametrize("case", list(FOREST_FAULTS))
def test_forest_checks_array_shapes_as_load_does(case):
    tree, changes, message = FOREST_FAULTS[case]
    arguments = {
        "config": ForestConfig(n_estimators=2),
        "feature_names": ("f0",),
        "target_names": ("t0",),
        "feature_bounds": [[-1.0, 1.0]],
        **changes,
    }
    first = build_tree(leaf(np.zeros(len(arguments["target_names"]))))  # valid for the targets given
    with pytest.raises(ModelError, match=message):
        Forest(trees=[first, tree], **arguments)


# one dtype per numpy kind: bool, signed, unsigned, float, complex, str and object
KIND_DTYPES = {"b": np.bool_, "i": np.int32, "u": np.uint8, "f": np.float32, "c": np.complex64, "U": "U3", "O": object}


@st.composite
def tree_with_one_array_replaced(draw, valid):
    """``valid`` with one node array of any kind: its values cast, or any values of any shape."""
    name = draw(st.sampled_from(Tree._fields))
    array, dtype = getattr(valid, name), KIND_DTYPES[draw(st.sampled_from(sorted(KIND_DTYPES)))]
    if draw(st.booleans()):
        return valid._replace(**{name: array.astype(dtype)})
    shape = draw(st.just(array.shape) | hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    elements = st.integers(-3, 3) | st.floats() | st.none() if dtype is object else None
    return valid._replace(**{name: draw(hnp.arrays(dtype, shape, elements=elements))})


VALID_TREE = build_tree(split(1, 0.5, leaf([1.0, 2.0]), split(0, -0.5, leaf([3.0, 4.0]), leaf([5.0, 6.0]))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=tree_with_one_array_replaced(VALID_TREE))
def test_forest_of_arrays_of_any_kind_and_shape_predicts_or_fails_cleanly(tree):
    try:
        forest = Forest([VALID_TREE, tree], ForestConfig(n_estimators=2), ("f0", "f1"), ("t0", "t1"), [[-1.0, 1.0]] * 2)
    except ModelError:
        return
    assert np.isfinite(predict(forest, np.zeros(2))).all()


def test_tree_fields_are_the_model_arrays_in_order():
    # Forest packs trees field by field, and save and load name the fields by _TREE_ARRAYS
    assert Tree._fields == tuple(forest_module._TREE_ARRAYS)


def test_building_a_forest_leaves_the_callers_trees_alone():
    trees = [build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0]))), build_tree(leaf([3.0]))]
    originals = [[getattr(tree, name) for name in TREE_ARRAYS] for tree in trees]
    copies = [[array.copy() for array in arrays] for arrays in originals]
    bounds = np.array([[-1.0, 1.0]])
    forest = Forest(
        trees=trees,
        config=ForestConfig(n_estimators=2),
        feature_names=("f0",),
        target_names=("t0",),
        feature_bounds=bounds,
    )
    assert bounds.flags.writeable and not np.shares_memory(bounds, forest.feature_bounds)
    for tree, arrays, saved in zip(trees, originals, copies):
        for name, original, copy in zip(TREE_ARRAYS, arrays, saved):
            assert getattr(tree, name) is original
            assert original.flags.writeable
            np.testing.assert_array_equal(original, copy)
            assert not np.shares_memory(original, getattr(forest, name))


def test_packed_node_table_is_read_only_and_trees_are_its_views():
    forest = fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=4, seed=0))
    extract_paths(forest, np.full(3, 0.7))  # builds the leaf boxes from the table
    with pytest.raises(ValueError):
        forest.threshold[0] = 0.9
    with pytest.raises(ValueError):
        forest.trees[0].value[0] = 1.0
    derived = {name: getattr(forest, name) for name in ("roots", "depths", "_children", "leaf_min", "leaf_max")}
    derived |= {"feature_bounds": forest.feature_bounds, **forest.leaf_boxes._asdict()}
    for name, table in derived.items():
        assert not table.flags.writeable, name
        with pytest.raises(ValueError):
            table[...] = 0
    for name in TREE_ARRAYS:
        packed = getattr(forest, name)
        assert not packed.flags.writeable
        for tree, start in zip(forest.trees, forest.roots.tolist()):
            view = getattr(tree, name)
            assert not view.flags.writeable and np.shares_memory(view, packed)
            np.testing.assert_array_equal(view, packed[start : start + tree.n_nodes])
        assert sum(getattr(tree, name).shape[0] for tree in forest.trees) == packed.shape[0]


def test_forest_stores_no_per_tree_object(tmp_path):
    forest = fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=4, seed=0))
    path = tmp_path / "m.model"
    save(forest, path)
    for built in (forest, load(path)):
        assert "trees" not in vars(built)
        assert built.n_trees == len(built.trees) == 4
        assert "trees" not in vars(built)  # reading them stores nothing either


def test_mean_bounded_by_tree_extremes(rng):
    forest = random_forest(rng, n_trees=5, d=3, m=2, depth=4)
    for _ in range(50):
        x = rng.uniform(-10, 10, size=3)
        tree_preds = np.vstack([predict_tree(t, x) for t in forest.trees])
        p = predict(forest, x)
        assert (tree_preds.min(axis=0) - 1e-12 <= p).all()
        assert (p <= tree_preds.max(axis=0) + 1e-12).all()


def test_leaf_extremes_bound_tree_predictions(rng):
    forest = random_forest(rng, n_trees=4, d=3, m=2, depth=4)
    for t, tree in enumerate(forest.trees):
        for _ in range(50):
            p = predict_tree(tree, rng.uniform(-10, 10, size=3))
            assert (forest.leaf_min[t] <= p).all() and (p <= forest.leaf_max[t]).all()


def test_zero_training_error_unrestricted_tree():
    ds = make_synthetic(40, 3, 2, noise=0.0, seed=11)
    forest = fit(
        ds,
        ForestConfig(n_estimators=1, max_features="all", bootstrap=False, min_samples_leaf=1),
    )
    _, mean = evaluate_mae(forest, ds)
    assert mean < 1e-10


def test_predict_batch_matches_predict(rng):
    ds = make_synthetic(50, 4, 3, seed=8)
    forest = fit(ds, ForestConfig(n_estimators=5, seed=8))
    X = rng.uniform(-2, 2, size=(20, 4))
    batch = predict_batch(forest, X)
    for i in range(20):
        np.testing.assert_allclose(batch[i], predict(forest, X[i]), atol=1e-12)


@pytest.mark.parametrize("m", [1, 3])
def test_predict_batch_row_does_not_depend_on_the_batch(m):
    # a row's prediction is the same sum whichever rows share its batch, so
    # one pass over a fold's rows serves any subset of them
    ds = make_synthetic(40, 3, m, seed=m)
    forest = fit(ds, ForestConfig(n_estimators=30, seed=0, min_samples_leaf=2))
    batch = predict_batch(forest, ds.features)
    np.testing.assert_array_equal(batch[::3], predict_batch(forest, ds.features[::3]))
    np.testing.assert_array_equal(batch, np.vstack([predict(forest, x) for x in ds.features]))


@pytest.mark.parametrize(
    "rows",
    [[[np.nan, 0.1, 0.2], [np.inf, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, -np.inf, 0.0]]],
    ids=["every_row", "one_row_of_two"],
)
def test_predict_batch_rejects_non_finite_rows(rows):
    forest = fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=5, seed=0))
    with pytest.raises(ModelError, match="non-finite"):
        predict_batch(forest, rows)
    with pytest.raises(ModelError, match="non-finite"):
        predict(forest, rows[1])


def test_min_samples_leaf_too_large():
    ds = two_point_dataset()
    with pytest.raises(ModelError):
        fit(ds, ForestConfig(n_estimators=1, min_samples_leaf=5))


# Reference grower: one split scan per candidate feature and a recursive build,
# kept as the oracle the vectorised grower must match array for array.
def _reference_best_split(X, Y, candidates, min_leaf, target_scale):
    n = X.shape[0]
    col_sum = Y.sum(axis=0)
    parent_sse = ((Y * Y).sum(axis=0) - col_sum * col_sum / n) / target_scale
    parent = parent_sse.sum()
    best = (None, None, 0.0)
    for f in candidates:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = Y[order]
        cum = np.cumsum(ys, axis=0)
        cum_sq = np.cumsum(ys * ys, axis=0)
        sizes = np.arange(1, n)  # left child size at split position i
        boundary = xs[:-1] < xs[1:]
        legal = boundary & (sizes >= min_leaf) & (n - sizes >= min_leaf)
        if not legal.any():
            continue
        pos = np.flatnonzero(legal)
        left_n = (pos + 1).astype(np.float64)
        right_n = n - left_n
        left_sum = cum[pos]
        right_sum = col_sum - left_sum
        left_sse = (cum_sq[pos] - left_sum * left_sum / left_n[:, None]) / target_scale
        right_sse = (cum_sq[-1] - cum_sq[pos] - right_sum * right_sum / right_n[:, None]) / target_scale
        gains = parent - left_sse.sum(axis=1) - right_sse.sum(axis=1)
        k = int(np.argmax(gains))
        if gains[k] > best[2]:
            thr = 0.5 * (xs[pos[k]] + xs[pos[k] + 1])
            best = (int(f), float(thr), float(gains[k]))
    return best


def _reference_grow_tree(X, Y, config, rng, target_scale):
    if target_scale is None:
        target_scale = np.ones(Y.shape[1])
    d = X.shape[1]
    k_feats = config.features_per_split(d)
    feature, threshold, left, right, value, count = [], [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(None)
        count.append(0)
        return len(feature) - 1

    def build(node, rows, depth):
        sub_x, sub_y = X[rows], Y[rows]
        count[node] = rows.shape[0]
        splittable = rows.shape[0] >= 2 * config.min_samples_leaf and (
            config.max_depth is None or depth < config.max_depth
        )
        if splittable:
            if k_feats >= d:
                cand = np.arange(d)
            else:
                cand = np.sort(rng.choice(d, size=k_feats, replace=False))
            f, thr, gain = _reference_best_split(sub_x, sub_y, cand, config.min_samples_leaf, target_scale)
            if f is not None and gain > 0.0:
                feature[node] = f
                threshold[node] = thr
                left[node] = new_node()
                right[node] = new_node()
                mask = sub_x[:, f] <= thr
                build(left[node], rows[mask], depth + 1)
                build(right[node], rows[~mask], depth + 1)
                return
        value[node] = sub_y.mean(axis=0)

    build(new_node(), np.arange(X.shape[0]), 0)
    values = np.vstack([np.zeros(Y.shape[1]) if v is None else v for v in value])
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=values,
        sample_count=np.asarray(count, dtype=np.int64),
    )


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "sample_count")


def assert_same_trees(a, b):
    assert len(a) == len(b)
    for t, (x, y) in enumerate(zip(a, b)):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(x, name), getattr(y, name)), f"tree {t}: {name} differs"


def reference_fit(data, config, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(forest_module, "_grow_tree", _reference_grow_tree)
        return fit(data, config)


def rounded(n, d, m, seed, x_step=1.0, y_step=1.0):
    """Synthetic data rounded to the given steps, so that x and y values tie."""
    data = make_synthetic(n, d, m, seed=seed)
    return Dataset(
        np.round(data.features / x_step) * x_step,
        np.round(data.targets / y_step) * y_step,
        data.feature_names,
        data.target_names,
    )


def constant_targets():
    data = make_synthetic(50, 4, 2, seed=6)
    return Dataset(data.features, np.full((50, 2), 2.5), data.feature_names, data.target_names)


def binary_features():
    """Few rows of 0/1 features and small integer targets: splits on different
    features and positions often gain exactly the same."""
    rng = np.random.default_rng(12)
    return Dataset(
        rng.integers(0, 2, size=(24, 6)).astype(np.float64),
        rng.integers(0, 3, size=(24, 2)).astype(np.float64),
        tuple(f"f{i}" for i in range(6)),
        ("t0", "t1"),
    )


def mirrored_targets():
    """Targets symmetric in x: the first and the last split position gain the same."""
    x = np.arange(8.0)[:, None]
    y = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2.0])[:, None]
    return Dataset(x, np.hstack([y, y]), ("x",), ("t0", "t1"))


ORACLE_CASES = {
    "ties_sqrt": (lambda: rounded(120, 6, 3, 1), dict(min_samples_leaf=1)),
    "ties_all_leaf3": (lambda: rounded(120, 6, 3, 2, 0.5, 0.5), dict(max_features="all", min_samples_leaf=3)),
    "ties_half_leaf7": (lambda: rounded(120, 6, 3, 3), dict(max_features=0.5, min_samples_leaf=7)),
    "constant_targets": (constant_targets, dict(max_features="all")),
    "one_target": (lambda: rounded(80, 9, 1, 4, 0.1, 0.1), dict(min_samples_leaf=2)),
    "wide_targets": (lambda: rounded(60, 5, 9, 5, 0.5, 0.5), dict(max_features="all")),
    "normalize": (lambda: rounded(100, 5, 3, 6, 0.5, 0.25), dict(normalize_targets=True, min_samples_leaf=2)),
    "depth_0": (lambda: make_synthetic(60, 4, 2, seed=7), dict(max_depth=0)),
    "depth_3": (lambda: rounded(100, 6, 2, 8), dict(max_depth=3, max_features=0.5)),
    "leaf_above_half_n": (lambda: make_synthetic(30, 4, 2, seed=9), dict(min_samples_leaf=16)),
    "no_bootstrap": (lambda: rounded(90, 6, 2, 10), dict(bootstrap=False, min_samples_leaf=4)),
    "binary_all": (binary_features, dict(max_features="all", bootstrap=False)),
    "binary_sqrt": (binary_features, dict(min_samples_leaf=2)),
    "mirrored": (mirrored_targets, dict(bootstrap=False)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_fit_matches_reference_grower(case, monkeypatch):
    make_data, options = ORACLE_CASES[case]
    data = make_data()
    config = ForestConfig(n_estimators=8, seed=3, **options)
    assert_same_trees(fit(data, config).trees, reference_fit(data, config, monkeypatch).trees)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**16),
    min_leaf=st.integers(1, 7),
    max_features=st.sampled_from(["sqrt", "all", 0.5]),
    normalize=st.booleans(),
    bootstrap=st.booleans(),
    step=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_fit_matches_reference_grower_on_tied_data(seed, min_leaf, max_features, normalize, bootstrap, step, monkeypatch):
    data = rounded(40, 5, 2, seed, step, step)
    config = ForestConfig(
        n_estimators=3,
        min_samples_leaf=min_leaf,
        max_features=max_features,
        normalize_targets=normalize,
        bootstrap=bootstrap,
        seed=seed,
    )
    assert_same_trees(fit(data, config).trees, reference_fit(data, config, monkeypatch).trees)


def test_first_trees_do_not_depend_on_forest_size():
    data = make_synthetic(80, 5, 2, seed=13)
    config = ForestConfig(n_estimators=9, min_samples_leaf=2, seed=17)
    big, small = fit(data, config), fit(data, replace(config, n_estimators=4))
    assert_same_trees(small.trees, big.trees[:4])
