import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ruleforest.forest as forest_module
from conftest import build_forest, build_tree, leaf, pack, predict_tree, random_forest, split
from ruleforest import (
    AllowedError,
    Dataset,
    Forest,
    ForestConfig,
    ModelError,
    evaluate_mae,
    explain,
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
def test_save_writes_the_v3_members(tmp_path, shape, config):
    # seven stored members: the header, the five packed node arrays and the node counts
    forest = fit(make_synthetic(*shape, seed=shape[0]), config)
    header = {
        "format": "ruleforest-model",
        "version": 3,
        "config": {field: getattr(config, field) for field in config.__dataclass_fields__},
        "feature_names": list(forest.feature_names),
        "target_names": list(forest.target_names),
        "feature_bounds": forest.feature_bounds.tolist(),
    }
    path = tmp_path / "m.model"
    save(forest, path)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    members = _members(path.read_bytes())
    assert list(members) == ["header.json", *(f"{name}.npy" for name in Tree._fields), "node_counts.npy"]
    assert members.pop("header.json") == json.dumps(header).encode()
    expected = [getattr(forest, name) for name in Tree._fields]
    expected.append(np.array([tree.n_nodes for tree in forest.trees]))
    for (name, member), array in zip(members.items(), expected):
        got = np.load(io.BytesIO(member))
        assert got.dtype == array.dtype and np.array_equal(got, array), name


def _members(data: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {info.filename: archive.read(info) for info in archive.infolist()}


def _zip(members: dict[str, bytes], compression=zipfile.ZIP_STORED) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=True)  # an object array is pickled, as np.save does
    return buffer.getvalue()


def _raw_npy(descr: str, shape: tuple, data: bytes) -> bytes:
    """An .npy member of a given header and data, whether or not they agree."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": descr, "fortran_order": False, "shape": shape})
    return header.getvalue() + data


def unzip_model(data: bytes) -> tuple[dict, dict]:
    """A model file's parsed ``header.json`` and its arrays, writeable, named
    by member without ``.npy``, in the file's order."""
    members = _members(data)
    header = json.loads(members.pop("header.json"))
    return header, {name.removesuffix(".npy"): np.load(io.BytesIO(member)).copy() for name, member in members.items()}


def zip_model(header: dict, arrays: dict) -> bytes:
    """The model file of a header and arrays, as ``unzip_model`` gives them."""
    return _zip({"header.json": json.dumps(header).encode(), **{f"{name}.npy": _npy(a) for name, a in arrays.items()}})


def as_v2(data: bytes) -> bytes:
    """A v3 file as a v2 file of the same forest: version 2, and each node's
    training rows (here all 1) in one more member, which v2 readers drop."""
    header, arrays = unzip_model(data)
    n_nodes = arrays["feature"].shape[0]
    return zip_model({**header, "version": 2}, {**arrays, "sample_count": np.ones(n_nodes, dtype=np.int64)})


MIGRATION = (
    "not a ruleforest-model file of version 2 or 3 (version 1 files are no longer read: "
    "load and save them with ruleforest at f53f6d9 or earlier)"
)


def test_load_wrong_version(tmp_path):
    header, arrays = unzip_model(GOLDEN_V3.read_bytes())
    path = tmp_path / "bad.model"
    path.write_bytes(zip_model({**header, "version": 99}, arrays))
    with pytest.raises(ModelError, match="unsupported model version 99"):
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
    path.write_bytes(_zip({**_members(GOLDEN_V3.read_bytes()), "header.json": b"[" * 100_000 + b"]" * 100_000}))
    with pytest.raises(ModelError, match="corrupt"):
        load(path)


def test_load_not_a_model(tmp_path):
    path = tmp_path / "other.json"
    path.write_text("{}")
    with pytest.raises(ModelError) as raised:
        load(path)
    assert str(raised.value) == f"{path}: {MIGRATION}"


def test_v1_file_is_refused_with_the_migration_line():
    with pytest.raises(ModelError) as raised:
        load(GOLDEN_V1)
    assert str(raised.value) == f"{GOLDEN_V1}: {MIGRATION}"


def _set(mapping, key, index, value):
    mapping[key][index] = value


def _drop_first_tree_nodes(header, arrays):
    """Tree 0 loses its nodes, and its node count becomes 0."""
    count = arrays["node_counts"][0]
    arrays.update({name: array[count:] for name, array in arrays.items() if name != "node_counts"})
    arrays["node_counts"][0] = 0


def _recast(name, dtype):
    return lambda header, arrays: arrays.update({name: arrays[name].astype(dtype)})


COUNTS = "node_counts must be a 1-D array of integers >= 1 that sum to the node count"
NAMES = "_names must be a sequence of strings, not one str or other values"
BOUNDS = "feature_bounds must be a finite (3, 2) array of numbers"
BOUND_VALUES = "feature_bounds must hold numbers, not bools or strings"
# id: (a fault made in place in the header and arrays of a saved file, the ModelError message after its name);
# the file is a 3-tree forest of 3 features and 2 targets, whose first root splits
CORRUPTIONS = {
    "root_cycle": (lambda h, a: (_set(a, "left", 0, 0), _set(a, "right", 0, 0)), "tree 0: left child outside"),
    "feature_too_large": (lambda h, a: _set(a, "feature", 0, 7), "tree 0: feature index outside [0, 3)"),
    "feature_negative": (lambda h, a: _set(a, "feature", 0, -2), "tree 0: feature index outside [0, 3)"),
    "child_too_large": (lambda h, a: _set(a, "right", 0, 10**6), "tree 0: right child outside"),
    "value_short": (lambda h, a: a.update(value=a["value"][:-1]), "value has shape"),
    "value_wrong_width": (lambda h, a: a.update(value=a["value"][:, :1]), "value has shape"),
    "threshold_nan": (lambda h, a: _set(a, "threshold", 0, np.nan), "tree 0: non-finite threshold or value"),
    "value_inf": (lambda h, a: _set(a, "value", -1, [np.inf, 0.0]), "tree 2: non-finite threshold or value"),
    "no_nodes": (_drop_first_tree_nodes, COUNTS),
    "bounds_short": (lambda h, a: h["feature_bounds"].pop(), BOUNDS),
    "bounds_nan": (lambda h, a: _set(h, "feature_bounds", 0, [float("nan"), 1.0]), BOUNDS),
    # strings of one character per feature or target, which would split into valid names
    "feature_names_string": (lambda h, a: h.update(feature_names="abc"), "feature" + NAMES),
    "target_names_string": (lambda h, a: h.update(target_names="uv"), "target" + NAMES),
    "n_estimators_not_tree_count": (
        lambda h, a: _set(h, "config", "n_estimators", 7),
        "config.n_estimators is 7, but the forest has 3 trees",
    ),
    # values save never writes, which a forced cast would round, wrap or overflow on
    "seed_string": (lambda h, a: _set(h, "config", "seed", "x"), "seed must be an integer, got 'x'"),
    "seed_negative": (lambda h, a: _set(h, "config", "seed", -1), "seed must be >= 0"),
    "feature_huge": (  # which int64 would wrap round to -1, the leaf mark
        lambda h, a: (_recast("feature", np.uint64)(h, a), _set(a, "feature", 0, 2**64 - 1)),
        "feature holds uint64 values, expected integers",
    ),
    "feature_fractional": (
        lambda h, a: (_recast("feature", np.float64)(h, a), _set(a, "feature", 0, a["feature"][0] + 0.5)),
        "feature holds float64 values, expected integers",
    ),
    "left_fractional": (
        lambda h, a: (_recast("left", np.float64)(h, a), _set(a, "left", 0, a["left"][0] + 0.5)),
        "left holds float64 values, expected integers",
    ),
    # flags that are not bools, and a bool where a fraction belongs
    "bootstrap_string": (lambda h, a: _set(h, "config", "bootstrap", "x"), "bootstrap must be a bool, got 'x'"),
    "normalize_targets_null": (
        lambda h, a: _set(h, "config", "normalize_targets", None),
        "normalize_targets must be a bool, got None",
    ),
    "bootstrap_list": (lambda h, a: _set(h, "config", "bootstrap", [1]), "bootstrap must be a bool, got [1]"),
    "max_features_bool": (lambda h, a: _set(h, "config", "max_features", True), "max_features must be"),
    # bools, which a cast would read as 1 and 0
    "feature_true": (_recast("feature", bool), "feature holds bool values, expected integers"),
    "threshold_true": (_recast("threshold", bool), "threshold holds bool values, expected numbers"),
    "value_false": (_recast("value", bool), "value holds bool values, expected numbers"),
    "bounds_true": (lambda h, a: _set(h, "feature_bounds", 0, [True, 2.0]), BOUND_VALUES),
    "bounds_numeric_string": (lambda h, a: _set(h, "feature_bounds", 0, ["-4", "4.5"]), BOUND_VALUES),
    "version_true": (lambda h, a: h.update(version=True), "unsupported model version True"),
    # no target at all, with value rows to match, and a name given twice
    "no_targets": (lambda h, a: (h.update(target_names=[]), a.update(value=a["value"][:, :0])), "model has no targets"),
    "feature_name_repeated": (lambda h, a: _set(h, "feature_names", 1, h["feature_names"][0]), "repeated feature name"),
    "target_name_repeated": (lambda h, a: _set(h, "target_names", 1, h["target_names"][0]), "repeated target name"),
    # tree 1's first node counted as tree 0's last, which leaves the node table as it was
    "value_row_moved_between_trees": (
        lambda h, a: a.update(node_counts=a["node_counts"] + [1, -1, 0]),
        "tree 0: left child outside",
    ),
}


def corrupt_model_file(forest, corruption: str, path) -> str:
    """Save ``forest`` to ``path`` with one of the ``CORRUPTIONS``, and return its message."""
    save(forest, path)
    header, arrays = unzip_model(path.read_bytes())
    assert arrays["feature"][0] != LEAF  # the root splits, so it has children
    corrupt, message = CORRUPTIONS[corruption]
    corrupt(header, arrays)
    path.write_bytes(zip_model(header, arrays))
    return message


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_load_rejects_corrupt_tree(tmp_path, corruption):
    path = tmp_path / "m.model"
    forest = fit(make_synthetic(40, 3, 2, seed=1), ForestConfig(n_estimators=3, seed=0))
    message = corrupt_model_file(forest, corruption, path)
    with pytest.raises(ModelError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
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



# a small hand-built forest (depths 0 to 3, two targets), the v1 file that is no longer read,
# the v2 file earlier releases saved and the v3 file save writes
GOLDEN_V1 = Path(__file__).parent / "data" / "model_v1.json"
GOLDEN_V2 = Path(__file__).parent / "data" / "model_v2.model"
GOLDEN_V3 = Path(__file__).parent / "data" / "model_v3.model"
GOLDEN_SPECS = [
    leaf([0.5, -1.25]),
    split(0, 0.5, leaf([1.0, 2.0]), leaf([-3.0, 0.125])),
    split(1, -2.5, split(2, 1.75, leaf([0.1, 0.2]), leaf([1e-3, -7.5])), leaf([4.0, 1.0 / 3.0])),
    split(2, 0.0, leaf([2.5, -0.5]), split(0, 3.5, split(1, -1.0, leaf([0.0, 1.0]), leaf([6.25, -6.25])), leaf([-2.0, 9.0]))),
]


def golden_forest():
    return build_forest(GOLDEN_SPECS, d=3, bounds=[[-4.0, 4.5], [-3.0, 2.0], [-1.0, 5.0]])


def assert_same_forest(a, b):
    """Equal node arrays, roots and bounds, dtypes included, and equal names and config."""
    for name in (*Tree._fields, "roots", "feature_bounds"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a.config, a.feature_names, a.target_names) == (b.config, b.feature_names, b.target_names)


def test_save_writes_the_golden_v3_file(tmp_path, monkeypatch):
    path = tmp_path / "x.model"
    save(golden_forest(), path)
    assert path.read_bytes() == GOLDEN_V3.read_bytes()
    assert os.listdir(tmp_path) == ["x.model"]  # the path as given, with no .npz appended
    assert_same_forest(load(GOLDEN_V3), golden_forest())
    assert_same_forest(load(GOLDEN_V2), golden_forest())
    monkeypatch.setattr(time, "time", lambda: time.mktime((2031, 5, 6, 7, 8, 9, 0, 0, -1)))
    for forest in (golden_forest(), load(GOLDEN_V3), load(GOLDEN_V2)):  # from v3, and from v2
        save(forest, path)
        assert path.read_bytes() == GOLDEN_V3.read_bytes()


def test_load_of_save_is_the_same_forest(tmp_path, rng):
    forests = [random_forest(rng, n_trees=n, d=4, m=m, depth=4) for n, m in ((1, 1), (9, 3))]
    forests.append(fit(make_synthetic(60, 5, 2, seed=7), ForestConfig(n_estimators=5, max_features=0.5, seed=2)))
    path = tmp_path / "m.json"  # the format goes by the first bytes, not the name
    for forest in forests:
        save(forest, path)
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        assert_same_forest(load(path), forest)
        path.write_bytes(as_v2(path.read_bytes()))
        assert_same_forest(load(path), forest)


def _faults(golden: Path, array: str) -> dict:
    """id: (the golden file's bytes with one fault, the ModelError message after
    the file's name); ``array`` names the member a header declares too large for."""
    data = golden.read_bytes()
    members = _members(data)

    def golden_with(name: str, member: bytes) -> bytes:
        return _zip({**members, name: member})

    return {
        "truncated": (data[:1000], "corrupt model file"),
        "deflated": (_zip(members, zipfile.ZIP_DEFLATED), "header.json is not a stored member"),
        "member_missing": (_zip({k: v for k, v in members.items() if k != "left.npy"}), "members"),
        "member_extra": (golden_with("leaf_boxes.npy", _npy(np.zeros(3))), "members"),
        "objects": (golden_with("threshold.npy", _raw_npy("|O", (16,), bytes(128))), "allow_pickle=False"),
        "counts_float": (golden_with("node_counts.npy", _npy(np.array([1.0, 3, 5, 7]))), COUNTS),
        "counts_2d": (golden_with("node_counts.npy", _npy(np.array([[1, 3], [5, 7]]))), COUNTS),
        "counts_zero": (golden_with("node_counts.npy", _npy(np.array([0, 4, 5, 7]))), COUNTS),
        "counts_short_of_nodes": (golden_with("node_counts.npy", _npy(np.array([1, 3, 5, 6]))), COUNTS),
        # int64 counts whose sum wraps round to the node count
        "counts_wrap": (golden_with("node_counts.npy", _npy(np.array([2**63 - 1, 2**63 - 1, 2, 16]))), COUNTS),
        "array_declared_larger": (
            golden_with(f"{array}.npy", _raw_npy("|i1", (10**8,), bytes(16))),
            f"{array}.npy: header declares 100000000 bytes of data, the member holds 16",
        ),
        "version_1": (
            golden_with("header.json", json.dumps({**json.loads(members["header.json"]), "version": 1}).encode()),
            "unsupported model version 1",
        ),
    }


# the member only v2 holds is read, with every guard, before it is dropped
V2_FAULTS = _faults(GOLDEN_V2, "sample_count")
V3_FAULTS = {
    **_faults(GOLDEN_V3, "left"),
    "sample_count_member": (
        _zip({**_members(GOLDEN_V3.read_bytes()), "sample_count.npy": _npy(np.ones(16, dtype=np.int64))}),
        "members",
    ),
}


def _assert_refused(tmp_path, data: bytes, message: str):
    path = tmp_path / "m.model"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7  # the header declaring 10**8 bytes allocated no array of that size


@pytest.mark.parametrize("fault", sorted(V2_FAULTS))
def test_load_rejects_corrupt_v2_file(tmp_path, fault):
    _assert_refused(tmp_path, *V2_FAULTS[fault])


@pytest.mark.parametrize("fault", sorted(V3_FAULTS))
def test_load_rejects_corrupt_v3_file(tmp_path, fault):
    _assert_refused(tmp_path, *V3_FAULTS[fault])


def test_golden_files_hold_four_trees_of_1_3_5_and_7_nodes():
    # the node counts the faults above replace
    for golden in (GOLDEN_V2, GOLDEN_V3):
        assert unzip_model(golden.read_bytes())[1]["node_counts"].tolist() == [1, 3, 5, 7]


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


def _predicts_and_explains(forest):
    """What every forest a fuzzed model file loads as must do: predict finite
    values, and explain the midpoint of its feature bounds by a rule that holds it."""
    assert np.isfinite(predict(forest, np.zeros(forest.d))).all()
    x = forest.feature_bounds.mean(axis=1)
    assert explain(forest, x, AllowedError.global_mean(0.1)).rule.contains(x).all()


def _inspect_agrees(path, capsys, forest):
    """``ruleforest inspect`` exits 0 on a file that loads, and otherwise 2 with one stderr line."""
    code = main(["inspect", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == (2 if forest is None else 0)
    assert len(err.splitlines()) == (1 if forest is None else 0)


FUZZ_VALUES = {"2**70": 2**70, "10**400": 10**400, "fraction": 0.5, "string": "x", "bool": True, "null": None, "list": [1], "dict": {"a": 1}}
FUZZ_MUTATIONS = {"drop": _drop, "extend": _extend, **{f"swap {name}": _swap(value) for name, value in FUZZ_VALUES.items()}}
GOLDEN_FILES = {"v2": GOLDEN_V2, "v3": GOLDEN_V3}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(golden=st.sampled_from(sorted(GOLDEN_FILES)), data=st.data())
def test_mutated_model_file_fails_cleanly_or_predicts(tmp_path, capsys, golden, data):
    # one value of a golden file's header.json dropped, repeated or swapped for a value of another type
    header, arrays = unzip_model(GOLDEN_FILES[golden].read_bytes())
    location = data.draw(st.sampled_from(list(_locations(header))))
    mutation = data.draw(st.sampled_from(sorted(FUZZ_MUTATIONS)))
    parent = header
    for key in location[:-1]:
        parent = parent[key]
    FUZZ_MUTATIONS[mutation](parent, location[-1])
    path = tmp_path / "fuzzed.model"
    path.write_bytes(zip_model(header, arrays))
    try:
        forest = load(path)
    except ModelError:
        forest = None
    else:
        _predicts_and_explains(forest)
    if mutation == "swap bool" and location[0] in ("feature_bounds", "version"):
        assert forest is None
    _inspect_agrees(path, capsys, forest)


@st.composite
def mutated_model_file(draw):
    """A golden v2 or v3 file with one byte flipped, cut short or extended, or
    rezipped with a member dropped, or an array member of another dtype or shape."""
    data = GOLDEN_FILES[draw(st.sampled_from(sorted(GOLDEN_FILES)))].read_bytes()
    mutation = draw(st.sampled_from(["flip", "truncate", "append", "drop", "swap"]))
    if mutation == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if mutation == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if mutation == "append":
        return data + draw(st.binary(min_size=1, max_size=64))
    members = _members(data)
    if mutation == "drop":
        del members[draw(st.sampled_from(sorted(members)))]
    else:
        name = draw(st.sampled_from(sorted(set(members) - {"header.json"})))
        array, dtype = np.load(io.BytesIO(members[name])), KIND_DTYPES[draw(st.sampled_from(sorted(KIND_DTYPES)))]
        if draw(st.booleans()):
            array = array.astype(dtype)
        else:
            shape = draw(st.just(array.shape) | hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
            elements = st.integers(-3, 3) | st.floats() | st.none() if dtype is object else None
            array = draw(hnp.arrays(dtype, shape, elements=elements))
        members[name] = _npy(array)
    return _zip(members)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_model_file())
def test_mutated_v2_model_file_fails_cleanly_or_predicts(tmp_path, capsys, data):
    path = tmp_path / "fuzzed.model"
    path.write_bytes(data)
    try:
        forest = load(path)
    except ModelError:
        forest = None
    else:
        _predicts_and_explains(forest)
    _inspect_agrees(path, capsys, forest)


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
    nodes, node_counts = pack([build_tree(leaf([0.0])), tree])
    with pytest.raises(ModelError, match="tree 1"):
        Forest(
            nodes=nodes,
            node_counts=node_counts,
            config=ForestConfig(n_estimators=2),
            feature_names=("f0",),
            target_names=("t0",),
            feature_bounds=np.array([[-1.0, 1.0]]),
        )


# a leaf, then a split: four nodes in two trees
NODES, NODE_COUNTS = pack([build_tree(leaf([0.0])), build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0])))])

ONE_PARENT = "node other than the root not the child of exactly one node"
# id: (the Forest arguments that replace the valid ones, the ModelError message)
FOREST_FAULTS = {
    "value_narrower_than_targets": ({"target_names": ("t0", "t1")}, r"value has shape \(4, 1\), expected \(4, 2\)"),
    "bounds_not_2d": ({"feature_bounds": [-1.0, 1.0, 0.0]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_not_finite": ({"feature_bounds": [[-1.0, np.inf]]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_ragged": ({"feature_bounds": [[-1.0, 1.0], [2.0]]}, r"feature_bounds must be a finite \(1, 2\) array"),
    "bounds_strings": ({"feature_bounds": [["low", "high"]]}, r"feature_bounds must be .* of numbers"),
    "bounds_numeric_strings": ({"feature_bounds": [["-1", "1.5"]]}, r"feature_bounds must be .* of numbers"),
    "threshold_short": (
        {"nodes": NODES._replace(threshold=NODES.threshold[1:])},
        r"threshold has shape \(3,\), expected \(4,\)",
    ),
    "feature_0d": ({"nodes": NODES._replace(feature=np.array(-1))}, r"feature has shape \(\), expected \(4,\)"),
    "feature_float": (
        {"nodes": NODES._replace(feature=NODES.feature.astype(np.float64))},
        "feature holds float64 values, expected integers",
    ),
    "left_float": (
        {"nodes": NODES._replace(left=NODES.left.astype(np.float64))},
        "left holds float64 values, expected integers",
    ),
    "value_complex": (
        {"nodes": NODES._replace(value=NODES.value.astype(np.complex128))},
        "value holds complex128 values, expected numbers",
    ),
    "right_bool": (
        {"nodes": NODES._replace(right=NODES.right.astype(bool))},
        "right holds bool values, expected integers",
    ),
    # one string of one character per name, which would split into valid names
    "feature_names_str": ({"feature_names": "f"}, "feature_names must be a sequence of strings"),
    "target_names_str": ({"target_names": "t"}, "target_names must be a sequence of strings"),
    "feature_names_not_strings": ({"feature_names": (0,)}, "feature_names must be a sequence of strings"),
    "target_names_not_strings": ({"target_names": [b"t0"]}, "target_names must be a sequence of strings"),
    "n_estimators_not_tree_count": (
        {"config": ForestConfig(n_estimators=3)},
        "config.n_estimators is 3, but the forest has 2 trees",
    ),
    # tree 1's split sends both children to its node 1, so its node 2 has no parent
    "shared_child": ({"nodes": NODES._replace(right=np.array([-1, 1, -1, -1]))}, f"tree 1: {ONE_PARENT}"),
    # tree 1 gains a fourth node, a copy of its last leaf that no node points at
    "orphan_node": (
        {"nodes": Tree(*(np.concatenate([array, array[-1:]]) for array in NODES)), "node_counts": [1, 4]},
        f"tree 1: {ONE_PARENT}",
    ),
}


@pytest.mark.parametrize("case", list(FOREST_FAULTS))
def test_forest_checks_array_shapes_as_load_does(case):
    changes, message = FOREST_FAULTS[case]
    arguments = {
        "nodes": NODES,
        "node_counts": NODE_COUNTS,
        "config": ForestConfig(n_estimators=2),
        "feature_names": ("f0",),
        "target_names": ("t0",),
        "feature_bounds": [[-1.0, 1.0]],
        **changes,
    }
    with pytest.raises(ModelError, match="^" + message):  # only a node fault names its tree
        Forest(**arguments)


# one dtype per numpy kind: bool, signed, unsigned, float, complex, str and object
KIND_DTYPES = {"b": np.bool_, "i": np.int32, "u": np.uint8, "f": np.float32, "c": np.complex64, "U": "U3", "O": object}


@st.composite
def arrays_with_one_replaced(draw, nodes, node_counts):
    """``nodes`` and ``node_counts`` with one array of any kind: its values cast, or any values of any shape."""
    arrays = {**nodes._asdict(), "node_counts": np.asarray(node_counts)}
    name = draw(st.sampled_from(list(arrays)))
    array, dtype = arrays[name], KIND_DTYPES[draw(st.sampled_from(sorted(KIND_DTYPES)))]
    if draw(st.booleans()):
        arrays[name] = array.astype(dtype)
    else:
        shape = draw(st.just(array.shape) | hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        elements = st.integers(-3, 3) | st.floats() | st.none() if dtype is object else None
        arrays[name] = draw(hnp.arrays(dtype, shape, elements=elements))
    node_counts = arrays.pop("node_counts")
    return Tree(**arrays), node_counts


VALID_TREE = build_tree(split(1, 0.5, leaf([1.0, 2.0]), split(0, -0.5, leaf([3.0, 4.0]), leaf([5.0, 6.0]))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arrays=arrays_with_one_replaced(*pack([VALID_TREE, VALID_TREE])))
def test_forest_of_arrays_of_any_kind_and_shape_predicts_or_fails_cleanly(arrays):
    nodes, node_counts = arrays
    try:
        forest = Forest(nodes, node_counts, ForestConfig(n_estimators=2), ("f0", "f1"), ("t0", "t1"), [[-1.0, 1.0]] * 2)
    except ModelError:
        return
    assert np.isfinite(predict(forest, np.zeros(2))).all()


def test_tree_fields_are_the_model_arrays_in_order():
    # Forest takes its node table field by field, and save and load name the fields by _TREE_ARRAYS
    assert Tree._fields == tuple(forest_module._TREE_ARRAYS)


def test_building_a_forest_leaves_the_callers_trees_alone():
    nodes, node_counts = pack([build_tree(split(0, 0.5, leaf([1.0]), leaf([2.0]))), build_tree(leaf([3.0]))])
    node_counts = np.array(node_counts)
    copies = [array.copy() for array in (*nodes, node_counts)]
    bounds = np.array([[-1.0, 1.0]])
    forest = Forest(
        nodes=nodes,
        node_counts=node_counts,
        config=ForestConfig(n_estimators=2),
        feature_names=("f0",),
        target_names=("t0",),
        feature_bounds=bounds,
    )
    assert bounds.flags.writeable and not np.shares_memory(bounds, forest.feature_bounds)
    for original, copy in zip((*nodes, node_counts), copies):
        assert original.flags.writeable
        np.testing.assert_array_equal(original, copy)
    for name in TREE_ARRAYS:
        assert not np.shares_memory(getattr(nodes, name), getattr(forest, name)), name


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_fit_and_load_peak_below_two_and_a_half_node_tables(tmp_path):
    path = tmp_path / "m.model"
    save(fit(make_synthetic(20, 8, 3, seed=1), ForestConfig(n_estimators=2, seed=1)), path)
    load(path)  # so that no import made on first use is traced below
    data = make_synthetic(300, 8, 3, seed=1)
    forest, fit_peak = _traced_peak(lambda: fit(data, ForestConfig(n_estimators=100, min_samples_leaf=5, seed=1)))
    table = sum(getattr(forest, name).nbytes for name in Tree._fields)
    assert table >= 500_000
    save(forest, path)
    _, load_peak = _traced_peak(lambda: load(path))
    # the table once, its child links, the split search's and the checks' temporaries
    assert fit_peak < 2.5 * table, fit_peak / table
    assert load_peak < 2.5 * table, load_peak / table


def test_fit_and_load_build_the_forest_a_copying_build_makes(tmp_path):
    forest = fit(make_synthetic(60, 4, 2, seed=3), ForestConfig(n_estimators=6, max_features="all", seed=3))
    path = tmp_path / "m.model"
    save(forest, path)
    derived = ("roots", "depths", "_children", "leaf_min", "leaf_max", "feature_bounds")

    def tables(built):
        return {name: getattr(built, name) for name in (*Tree._fields, *derived)} | built.leaf_boxes._asdict()

    for built in (forest, load(path)):
        copied = Forest(
            Tree(*(getattr(built, name).copy() for name in Tree._fields)),
            np.diff(built.roots, append=built.feature.shape[0]),
            built.config,
            built.feature_names,
            built.target_names,
            built.feature_bounds.copy(),
        )
        got, expected = tables(built), tables(copied)
        assert got.keys() == expected.keys()
        for name, array in got.items():
            other = expected[name]
            assert (array.dtype, array.shape, array.tobytes()) == (other.dtype, other.shape, other.tobytes()), name
            assert not array.flags.writeable and not other.flags.writeable, name
        assert (built.config, built.feature_names, built.target_names) == (
            copied.config,
            copied.feature_names,
            copied.target_names,
        )


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


# two neighbouring values whose midpoint rounds to the upper one, or overflows
NEIGHBOURS = {
    "next_floats_above_1": (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
    "subnormals": (5e-324, 1e-323),
    "near_the_float_limit": (1e308, 1.5e308),
}


@pytest.mark.parametrize("case", list(NEIGHBOURS))
def test_fit_splits_two_neighbouring_values_at_the_lower(case):
    a, b = NEIGHBOURS[case]
    x = np.tile([a, b], 10)
    data = Dataset(np.column_stack([x, x[::-1]]), (x == b).astype(np.float64)[:, None], ("a", "b"), ("t",))
    forest = fit(data, ForestConfig(n_estimators=5, seed=1))
    inner = forest.feature != LEAF
    assert inner.any() and (forest.threshold[inner] == a).all()  # x <= a parts the two values
    np.testing.assert_array_equal(predict_batch(forest, data.features), data.targets)
    for row in data.features[:2]:
        assert explain(forest, row, AllowedError.global_mean(0.1)).rule.contains(row).all()


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
            a, b = float(xs[pos[k]]), float(xs[pos[k] + 1])
            mid = 0.5 * (a + b)
            thr = mid if a <= mid < b else a  # the lower value where the midpoint is not between them
            best = (int(f), float(thr), float(gains[k]))
    return best


def _reference_grow_tree(X, Y, config, rng, target_scale, buffers):
    del buffers  # the reference builds its own arrays
    if target_scale is None:
        target_scale = np.ones(Y.shape[1])
    d = X.shape[1]
    k_feats = config.features_per_split(d)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(None)
        return len(feature) - 1

    def build(node, rows, depth):
        sub_x, sub_y = X[rows], Y[rows]
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
    )


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


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
