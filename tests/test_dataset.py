import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iescluster.dataset import Dataset, _load_exact, _load_fast, load_dataset, save_dataset
from iescluster.errors import InvalidDataError
from iescluster.validation import association_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_header_and_label_column_by_name(self, tmp_path):
        path = write(tmp_path, "a,b,phase\n1,2,g1\n3,4,g2\n5,6,g1\n")
        ds = load_dataset(path, label_column="phase")
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == ["g1", "g2", "g1"]
        assert ds.feature_names == ("a", "b")
        assert ds.label_name == "phase"

    def test_label_column_by_index_no_header(self, tmp_path):
        path = write(tmp_path, "1,2,10\n3,4,20\n")
        ds = load_dataset(path, label_column=2)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [10, 20]  # integral labels parsed as ints

    def test_float_label_column_is_numeric(self, tmp_path):
        # 1 and 1.0 are one label, and 2 sorts before 10.
        path = write(tmp_path, "0,1\n1,1.0\n2,2\n3,10\n")
        ds = load_dataset(path, label_column=1)
        assert ds.labels.tolist() == [1.0, 1.0, 2.0, 10.0]
        am = association_matrix([0, 0, 1, 2], ds.labels)
        assert am.label_ids == (1.0, 2.0, 10.0)
        assert am.counts.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("cell", ["x", "nan", "inf"])
    def test_label_column_with_other_cells_stays_text(self, tmp_path, cell):
        path = write(tmp_path, f"0,1\n1,1.0\n2,{cell}\n")
        assert load_dataset(path, label_column=1).labels.tolist() == ["1", "1.0", cell]

    def test_negative_label_index(self, tmp_path):
        path = write(tmp_path, "1,2,7\n3,4,8\n")
        ds = load_dataset(path, label_column=-1)
        assert ds.labels.tolist() == [7, 8]

    def test_no_labels(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4\n")
        ds = load_dataset(path)
        assert ds.labels is None
        assert ds.features.shape == (2, 2)

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "9\n1\n5\n")
        ds = load_dataset(path)
        assert ds.features[:, 0].tolist() == [9.0, 1.0, 5.0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(InvalidDataError, match="empty"):
            load_dataset(write(tmp_path, ""))

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n5,6\n")
        with pytest.raises(InvalidDataError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2,3\n4,5,6\n", "line 2: expected 2 columns, got 3"),
            ("a,b,c,d\n1,2,3\n4,5,6\n", "line 2: expected 4 columns, got 3"),
        ],
        ids=["short", "long"],
    )
    def test_header_of_another_width_is_ragged(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(InvalidDataError, match=message):
            load_dataset(path, has_header=True)

    def test_ragged_row_after_blank_lines_names_file_line(self, tmp_path):
        path = write(tmp_path, "1,2\n\n\n3\n")
        with pytest.raises(InvalidDataError, match="line 4: expected 2 columns, got 1"):
            load_dataset(path)

    def test_bad_cell_after_blank_lines_names_file_line(self, tmp_path):
        path = write(tmp_path, "a,b,label\n\n1,2,0\n\n3,4,1\n5,x,1\n")
        with pytest.raises(InvalidDataError, match="line 6, column 2: non-numeric value 'x'"):
            load_dataset(path, label_column="label")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a,b,label\n\n1,2,0\n , \n\n3,4,1\n")
        ds = load_dataset(path, label_column="label")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(InvalidDataError, match="line 2, column 2"):
            load_dataset(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\nnan,4\n")
        with pytest.raises(InvalidDataError, match="line 2, column 1"):
            load_dataset(path)

    def test_missing_label_name(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InvalidDataError, match="no column named"):
            load_dataset(path, label_column="nope")

    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    def test_byte_order_mark_without_header(self, tmp_path):
        path = write(tmp_path, "\ufeff1,2\n3,4\n")
        assert load_dataset(path).features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_before_label_name(self, tmp_path):
        path = write(tmp_path, "\ufefflabel,a\ng1,1\ng2,2\n")
        ds = load_dataset(path, label_column="label")
        assert ds.label_name == "label"
        assert ds.labels.tolist() == ["g1", "g2"]

    def test_byte_order_mark_before_feature_name(self, tmp_path):
        path = write(tmp_path, "\ufeffa,b\n1,2\n")
        assert load_dataset(path, has_header=True).feature_names == ("a", "b")

    def test_benchmark_shaped_table(self, tmp_path):
        # 384 observations, 17 features, 5 distinct labels
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, (384, 17))
        labels = rng.integers(1, 6, 384)
        lines = [",".join(map(str, row)) + f",{l}" for row, l in zip(features, labels)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = load_dataset(path, label_column=17)
        assert ds.features.shape == (384, 17)
        assert len(np.unique(ds.labels)) == 5


def outcome(parse, path, label_column=None, has_header=False):
    """What a parser makes of a file: the Dataset's exact contents, or the
    error's type and message."""
    try:
        ds = parse(path, label_column=label_column, has_header=has_header)
    except Exception as err:
        return type(err), str(err)
    labels = None if ds.labels is None else (ds.labels.tolist(), ds.labels.dtype)
    return ds.features.shape, ds.features.tobytes(), labels, ds.feature_names, ds.label_name


NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:g}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["+1.5", ".5", "5.", "-0", "1E5", "1e-320", "1e999", "-1e999", "nan", "inf",
         "-Infinity", "1_0", "\u0661", "00012", "0x10", "1d5"]
    ),
)
NOISE = st.sampled_from(
    [" ", "\xa0", '"', "#", "\x00", "\x0c", ",", "\r", "\n", "\r\n", "\ufeff", "x"]
)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-99, 99).map(str)
)
CELLS = st.one_of(
    FINITE,
    FINITE,
    FINITE,
    NUMBERS,
    st.tuples(st.sampled_from(["", " ", "\xa0", "\x0c"]), NUMBERS, st.sampled_from(["", " ", "\xa0"])).map("".join),
    st.lists(st.one_of(NUMBERS, NOISE), max_size=3).map("".join),
)
NAMES = st.sampled_from(["a", "b", " c ", "label", "2", "#x"])
ENDS = st.sampled_from(["\n"] * 4 + ["\r\n"] * 3 + ["\r"])


@st.composite
def csv_files(draw):
    """CSV text built row by row (some ragged, some blank) or from a soup of
    tokens, and the arguments to load it with."""
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    rows = [draw(st.lists(NAMES, min_size=width, max_size=width))] if has_header else []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.sampled_from([width] * 10 + [width - 1, width + 1]))
        rows.append(draw(st.lists(CELLS, min_size=size, max_size=size)))
    lines = []
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ",", " , ", "\xa0"])) + draw(ENDS))
        lines.append(",".join(row) + draw(ENDS))
    text = "".join(lines)
    text = draw(st.one_of(
        st.just(text),
        st.just(text),
        st.just(text.rstrip("\r\n")),
        st.lists(st.one_of(NUMBERS, NOISE, st.sampled_from([",", "\n", "label"])), max_size=20).map("".join),
    ))
    if draw(st.booleans()):
        text = "\ufeff" + text
    label_column = draw(st.one_of(
        st.none(), NAMES, st.integers(-width - 1, width), st.integers(-width, width - 1).map(str)
    ))
    return text, label_column, draw(st.sampled_from([has_header] * 3 + [not has_header]))


class TestFastParser:
    """``load_dataset`` takes numpy's C parser when it can vouch for the
    result; the exact parser, called directly, is the oracle."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fast")

    @settings(max_examples=400, deadline=None)
    @given(csv_files())
    def test_equals_exact_parser(self, folder, case):
        text, label_column, has_header = case
        path = folder / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(_load_exact, path, label_column, has_header)
        assert outcome(load_dataset, path, label_column, has_header) == expected

    @pytest.mark.parametrize(
        "text, label_column, has_header",
        [
            ("1,2,3\n", None, False),
            ("a,label\n1,g\n", "label", False),
            ("7\n8\n9\n", None, False),
            ("x,y\n7,0\n8,1\n", 0, True),
            ("1,2\n\n\n3\n", None, False),
            ("1,2\n\n\n3,4,5\n", -1, False),
            ("a,b\n1,2,3\n4,5,6\n", None, True),
            ("a,b,c,d\n1,2,3\n4,5,6\n", "c", False),
            ("a,b\r\n1,2\r\n", None, True),
            ("\ufeffa,b\n1,2\n", "a", False),
        ],
        ids=["one-row", "one-row-label", "one-column", "one-feature-column",
             "ragged-after-blank-lines", "long-row-after-blank-lines",
             "short-header", "long-header", "crlf", "bom"],
    )
    def test_explicit_cases_equal_exact_parser(self, tmp_path, text, label_column, has_header):
        path = write(tmp_path, text)
        expected = outcome(_load_exact, path, label_column, has_header)
        assert outcome(load_dataset, path, label_column, has_header) == expected

    def test_not_utf8_equals_exact_parser(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        assert outcome(load_dataset, path) == outcome(_load_exact, path)

    def test_takes_a_saved_dataset(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(features=rng.normal(0, 1, (30, 5)), labels=np.arange(30) % 3)
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        assert _load_fast(path, "label", False) is not None
        assert outcome(load_dataset, path, "label") == outcome(_load_exact, path, "label")

    # Each file is one that the fast parser would read wrongly, or accept
    # where the exact parser fails, without the check it names.
    @pytest.mark.parametrize(
        "text, label_column, has_header",
        [
            ('1,"g"\n2,h\n', 1, False),
            ("a\r1\n2\n", None, True),
            ("1,g\n2,h,3\n", 1, False),
            ("1,2\n3,1_0\n", None, False),
            ("1,2\n3,\u0661\n", None, False),
            ("1,2\n3,nan\n", None, False),
            ("1,2\n3,1e999\n", None, False),
            ("1,2\n3,4#\n", None, False),
            ("1,g\n2,h\x00\n", 1, False),
        ],
        ids=["quote", "lone-cr", "extra-cell-beside-usecols", "underscore", "arabic-digit",
             "nan", "overflow", "comment", "nul"],
    )
    def test_refuses(self, tmp_path, text, label_column, has_header):
        path = write(tmp_path, text)
        assert _load_fast(path, label_column, has_header) is None
        expected = outcome(_load_exact, path, label_column, has_header)
        assert outcome(load_dataset, path, label_column, has_header) == expected

    def test_refuses_a_cell_longer_than_csv_field_limit(self, tmp_path):
        path = write(tmp_path, "1," + "0" * csv.field_size_limit() + "1\n")
        assert _load_fast(path, None, False) is None
        with pytest.raises(csv.Error):
            load_dataset(path)


class TestSaveDataset:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.normal(0, 3, (10, 4)), labels=np.arange(10) % 3)
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        back = load_dataset(path, label_column="label")
        assert np.array_equal(back.features, ds.features)
        assert back.labels.tolist() == ds.labels.tolist()

    def test_round_trip_without_labels(self, tmp_path):
        ds = Dataset(features=np.array([[1.5, -2.25]]))
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        back = load_dataset(path, has_header=True)
        assert np.array_equal(back.features, ds.features)
