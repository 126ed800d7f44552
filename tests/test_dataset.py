import numpy as np
import pytest

from iescluster.dataset import Dataset, load_dataset, save_dataset
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
