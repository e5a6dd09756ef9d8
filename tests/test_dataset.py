import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleforest.dataset import Dataset, DatasetError, kfold, load_csv, save_csv

CSV_COMPLETE = "a,b,t1,t2\n1,2,3,4\n5,6,7,8\n9,10,11,12\n"
CSV_MISSING = "a,b,t1,t2\n1,2,3,4\n,6,7,8\n9,10,11,12\n"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_complete(tmp_path):
    ds = load_csv(write(tmp_path, CSV_COMPLETE), ["t1", "t2"])
    assert (ds.n, ds.d, ds.m) == (3, 2, 2)
    assert ds.feature_names == ("a", "b")
    assert ds.target_names == ("t1", "t2")
    np.testing.assert_array_equal(ds.features[0], [1, 2])
    np.testing.assert_array_equal(ds.targets[2], [11, 12])


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    plain = load_csv(write(tmp_path, CSV_COMPLETE), ["t1", "t2"])
    marked_path = tmp_path / "marked.csv"
    marked_path.write_bytes(b"\xef\xbb\xbf" + CSV_COMPLETE.encode())
    marked = load_csv(marked_path, ["t1", "t2"])
    assert marked.feature_names == plain.feature_names == ("a", "b")
    assert marked.target_names == plain.target_names
    np.testing.assert_array_equal(marked.features, plain.features)
    np.testing.assert_array_equal(marked.targets, plain.targets)


def test_target_order_respected(tmp_path):
    ds = load_csv(write(tmp_path, CSV_COMPLETE), ["t2", "t1"])
    np.testing.assert_array_equal(ds.targets[0], [4, 3])


def test_zero_fill(tmp_path):
    ds = load_csv(write(tmp_path, CSV_MISSING), ["t1", "t2"], "zero_fill")
    assert ds.n == 3
    assert ds.features[1, 0] == 0.0


def test_drop_row(tmp_path):
    ds = load_csv(write(tmp_path, CSV_MISSING), ["t1", "t2"], "drop_row")
    assert ds.n == 2
    assert ds.d == 2  # drop_row never removes columns


def test_missing_error_policy(tmp_path):
    with pytest.raises(DatasetError, match="missing"):
        load_csv(write(tmp_path, CSV_MISSING), ["t1", "t2"], "error")


def test_unknown_target(tmp_path):
    with pytest.raises(DatasetError, match="unknown target"):
        load_csv(write(tmp_path, CSV_COMPLETE), ["nope"])


def test_non_numeric_feature_rejected(tmp_path):
    path = write(tmp_path, "a,b,t1\nred,2,3\nblue,6,7\n")
    with pytest.raises(DatasetError, match="categorical"):
        load_csv(path, ["t1"])


def test_file_not_found(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "absent.csv", ["t1"])


def test_empty_after_drop(tmp_path):
    path = write(tmp_path, "a,t1\n,1\n,2\n")
    with pytest.raises(DatasetError, match="no usable rows"):
        load_csv(path, ["t1"], "drop_row")


def test_roundtrip_exact(tmp_path, rng):
    ds = Dataset(
        rng.standard_normal((17, 4)),
        rng.standard_normal((17, 2)) * 1e-7,
        ("a", "b", "c", "d"),
        ("u", "v"),
    )
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, ["u", "v"])
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.targets, ds.targets)


@pytest.mark.parametrize("targets", [["a"], ["t"]])
def test_repeated_header_name_rejected(tmp_path, targets):
    path = write(tmp_path, "a,b,a,t\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(DatasetError, match="column 'a' appears more than once"):
        load_csv(path, targets)


@pytest.mark.parametrize("header, position", [("a,,t", 2), ("a, ,t", 2), (",a,t", 1), ("a,,,t", 2)])
def test_blank_header_name_rejected(tmp_path, header, position):
    path = write(tmp_path, header + "\n" + ",".join("1" * (header.count(",") + 1)) + "\n")
    with pytest.raises(DatasetError, match=f"column {position} has a blank name"):
        load_csv(path, ["t"])


def test_cell_over_the_csv_field_limit_rejected(tmp_path):
    path = write(tmp_path, "a,b,t\n1,2,3\n4," + "5" * 200_000 + ",6\n")
    with pytest.raises(DatasetError, match=r"data\.csv:3: field larger than field limit"):
        load_csv(path, ["t"])


@pytest.mark.parametrize(
    "text, line",
    [
        ("a,t\n1,2\n\n3,x\n", 4),  # after a blank line
        ('a,t\n"1\n",2\n3,x\n', 4),  # after a row whose quoted cell spans two lines
        ('a,t\n"1\n",2\n4,"x\ny"\n', 4),  # a row that spans lines is named by the line it starts on
        ("a,t\r\n1,2\r\n\r\n\r\n3,x\r\n", 5),
    ],
)
def test_row_error_names_the_physical_line(tmp_path, text, line):
    with pytest.raises(DatasetError, match=rf"data\.csv:{line}: non-numeric value"):
        load_csv(write(tmp_path, text), ["t"])


def test_duplicate_names_rejected():
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(np.ones((2, 2)), np.ones((2, 1)), ("a", "a"), ("t",))


def test_kfold_exact_sizes():
    plan = kfold(10, 10, seed=0)
    assert all(len(plan.test_rows(f)) == 1 for f in range(10))


def test_kfold_slump_shape():
    plan = kfold(103, 10, seed=0)
    sizes = sorted(len(plan.test_rows(f)) for f in range(10))
    assert sizes == [10] * 7 + [11] * 3


def test_kfold_deterministic():
    a = kfold(10, 3, seed=42)
    b = kfold(10, 3, seed=42)
    np.testing.assert_array_equal(a.assignments, b.assignments)


def test_kfold_out_of_range():
    with pytest.raises(DatasetError):
        kfold(5, 1, seed=0)
    with pytest.raises(DatasetError):
        kfold(5, 6, seed=0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    k=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_kfold_partition_property(n, k, seed):
    if k > n:
        k = n
    plan = kfold(n, k, seed)
    counts = np.bincount(plan.assignments, minlength=k)
    assert counts.sum() == n
    assert counts.max() - counts.min() <= 1
    assert (counts > 0).all()
    # every row lands in exactly one fold
    all_rows = np.concatenate([plan.test_rows(f) for f in range(k)])
    assert sorted(all_rows) == list(range(n))


@pytest.mark.parametrize("cell", ["1e309", "inf", "-Infinity", "nan", " NaN "])
def test_non_finite_cell_names_its_file_line_and_column(tmp_path, cell):
    path = write(tmp_path, f"a,t\n1,2\n\n3,{cell}\n")
    with pytest.raises(DatasetError) as raised:
        load_csv(path, ["t"])
    assert str(raised.value) == f"{path}:4: non-finite value {cell.strip()!r} in column 't'"



def test_csv_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,t\n1,2\n\xff\xfe,3\n")
    with pytest.raises(DatasetError) as raised:
        load_csv(path, ["t"])
    assert str(raised.value) == f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"


# cells a mutated CSV draws from: numbers, blanks, non-finite and non-numeric
# text, quoted cells (one spanning lines) and bytes that are not UTF-8
CELLS = st.one_of(
    st.integers(-9, 9).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", " ", "nan", " NaN ", "inf", "-Infinity", "1e309", "-1e309", "x", "1_0", "0x10"]),
    st.sampled_from(['"1"', '"1\n2"', '"1,2"', '"\r\n"', '"', '"a""b"', '1"2']),
    st.sampled_from(["\xff", "\xfe\xff", "\xc3", "\xc3\x28", "\x00"]).map(lambda s: s.encode("latin-1")),
)


def _cell_bytes(cell):
    return cell if isinstance(cell, bytes) else cell.encode("utf-8")


@st.composite
def mutated_csv(draw):
    """A small CSV over columns a, b, t, then mutated: ragged rows, odd cells,
    blank lines, CRLF, a byte-order mark, and one byte inserted anywhere."""
    header = draw(st.lists(st.sampled_from(["a", "b", "t", "", " t", "a"]), min_size=1, max_size=4))
    if draw(st.booleans()):
        header = ["a", "b", "t"]
    width = len(header)
    rows = draw(
        st.lists(
            st.one_of(
                st.lists(st.integers(-9, 9).map(str), min_size=width, max_size=width),
                st.lists(CELLS, min_size=width, max_size=width),
                st.lists(CELLS, max_size=width + 1),  # ragged, or blank
            ),
            max_size=5,
        )
    )
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    lines = [b",".join(_cell_bytes(c) for c in row) for row in [header, *rows]]
    text = newline.join(lines) + draw(st.sampled_from([b"", newline, newline * 2]))
    if draw(st.booleans()):
        text = b"\xef\xbb\xbf" + text
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + bytes([draw(st.integers(0, 255))]) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(content=mutated_csv(), policy=st.sampled_from(["zero_fill", "drop_row", "error"]))
def test_mutated_csv_loads_finite_or_fails_with_one_line(tmp_path_factory, content, policy):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path, ["t"], policy)
    except DatasetError as exc:
        message = str(exc)
        assert message.startswith(f"{path}") and "\n" not in message and "\r" not in message, message
    else:
        assert ds.n >= 1 and ds.target_names == ("t",) and "t" not in ds.feature_names
        assert np.isfinite(ds.features).all() and np.isfinite(ds.targets).all()
