import csv
import json

import numpy as np
import pytest

from iescluster import cli
from iescluster.cli import RunConfig, build_parser, config_from_args, main, run
from iescluster.dataset import Dataset, save_dataset
from iescluster.errors import InvalidParameterError
from iescluster.ies import IesConfig
from iescluster.synth import nested_scale_dataset


@pytest.fixture
def labeled_csv(tmp_path):
    rng = np.random.default_rng(0)
    features = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(10, 0.2, (20, 2))])
    labels = np.repeat([0, 1], 20)
    path = tmp_path / "two_groups.csv"
    save_dataset(Dataset(features=features, labels=labels), path)
    return path


class TestRunConfig:
    def test_njw_requires_k(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="njw")

    def test_elbow_requires_range(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="elbow")

    def test_sigma_override_only_single_global_modes(self):
        RunConfig(mode="njw", k_override=2, sigma_override=3.0)
        RunConfig(mode="legacy-eigengap", sigma_override=3.0)
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="ies-global", sigma_override=3.0)
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="els", sigma_override=3.0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("mode", ["legacy-eigengap", "elbow"])
    def test_sigma_override_must_be_finite_and_positive(self, mode, sigma):
        with pytest.raises(InvalidParameterError):
            RunConfig(
                mode=mode, sigma_override=sigma, elbow_k_min=1, elbow_k_max=3
            )

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="magic")

    def test_knob_ranges_checked(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="els", variance_threshold=1.5)


class TestDefaults:
    def test_run_defaults_are_ies_config(self):
        args = build_parser().parse_args(
            ["run", "--mode", "ies-local", "--input", "x.csv", "--output", "y.json"]
        )
        config = config_from_args(args)
        assert config == RunConfig(mode="ies-local")
        assert config.ies_config() == IesConfig()

    def test_elbow_defaults_are_ies_config(self):
        args = build_parser().parse_args([
            "elbow", "--input", "x.csv", "--output", "y.csv",
            "--k-min", "1", "--k-max", "4",
        ])
        config = config_from_args(args)
        assert config == RunConfig(mode="elbow", elbow_k_min=1, elbow_k_max=4)
        assert config.ies_config() == IesConfig()

    def test_every_option_reaches_its_field(self):
        args = build_parser().parse_args([
            "run", "--mode", "njw", "--input", "x.csv", "--output", "y.json",
            "--sigma", "4.0", "--k", "3", "--variance-threshold", "0.9",
            "--knn", "5", "--search-fraction", "0.4", "--min-node-size", "6",
            "--depth-cap", "9", "--distance-exponent", "1", "--seed", "2",
            "--workers", "3",
        ])
        assert config_from_args(args) == RunConfig(
            mode="njw", sigma_override=4.0, k_override=3, variance_threshold=0.9,
            knn_k=5, search_fraction=0.4, min_node_size=6, depth_cap=9,
            distance_exponent=1, master_seed=2, n_workers=3,
        )
        args = build_parser().parse_args([
            "elbow", "--input", "x.csv", "--output", "y.csv", "--k-min", "2",
            "--k-max", "5", "--seed", "4", "--sigma", "1.5",
            "--variance-threshold", "0.8", "--distance-exponent", "1",
            "--elbow-space", "raw",
        ])
        assert config_from_args(args) == RunConfig(
            mode="elbow", elbow_k_min=2, elbow_k_max=5, master_seed=4,
            sigma_override=1.5, variance_threshold=0.8, distance_exponent=1,
            elbow_space="raw",
        )


class TestRun:
    def test_report_shape_and_metrics(self):
        ds = nested_scale_dataset(n_per_group=40, seed=0)
        report = run(RunConfig(mode="ies-global"), ds)
        assert set(report.keys()) == {
            "schema_version", "mode", "params", "sigma_trace", "tree",
            "assignments", "metrics", "runtime_ms",
        }
        assert report["mode"] == "ies-global"
        assert report["runtime_ms"] > 0
        assert len(report["assignments"]) == ds.n
        leaves = [n for n in report["tree"] if not n["children"]]
        assert len(leaves) >= 3
        assert report["metrics"]["f_measure"] >= 0.95
        assert report["metrics"]["n_clusters"] == len(leaves)
        # JSON round trip preserves every field
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))

    def test_params_keys(self):
        ds = nested_scale_dataset(n_per_group=20, seed=0)
        report = run(RunConfig(mode="els"), ds)
        assert set(report["params"]) == {
            "sigma_override", "k_override", "variance_threshold", "knn_k",
            "search_fraction", "min_node_size", "depth_cap", "distance_exponent",
            "master_seed", "n_workers",
        }

    def test_metrics_absent_without_labels(self):
        ds = nested_scale_dataset(n_per_group=30, seed=0)
        report = run(RunConfig(mode="els"), Dataset(features=ds.features))
        assert "metrics" not in report

    def test_deterministic_reports_except_runtime(self):
        ds = nested_scale_dataset(n_per_group=30, seed=1)
        r1 = run(RunConfig(mode="ies-global", master_seed=3), ds)
        r2 = run(RunConfig(mode="ies-global", master_seed=3), ds)
        r1.pop("runtime_ms"), r2.pop("runtime_ms")
        assert r1 == r2

    def test_all_modes_dispatch(self):
        ds = nested_scale_dataset(n_per_group=20, seed=0)
        for mode in ("ies-global", "ies-local", "els", "legacy-eigengap"):
            report = run(RunConfig(mode=mode), ds)
            assert report["mode"] == mode
        report = run(RunConfig(mode="njw", k_override=3), ds)
        assert report["mode"] == "njw"
        curve = run(RunConfig(mode="elbow", elbow_k_min=1, elbow_k_max=4), ds)
        assert [k for k, _ in curve] == [1, 2, 3, 4]

    def test_sigma_trace_records_per_node_estimates(self):
        ds = nested_scale_dataset(n_per_group=40, seed=0)
        report = run(RunConfig(mode="ies-global"), ds)
        trace = {entry["node"]: entry for entry in report["sigma_trace"]}
        assert 0 in trace
        assert trace[0]["kind"] == "global"
        assert trace[0]["sigma_sq"] > 0
        report_local = run(RunConfig(mode="ies-local"), ds)
        entry = report_local["sigma_trace"][0]
        assert entry["kind"] == "local"
        assert entry["sigma_min"] <= entry["sigma_mean"] <= entry["sigma_max"]


class TestCommandLine:
    def test_run_subcommand(self, labeled_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "run", "--mode", "ies-global", "--input", str(labeled_csv),
            "--label-col", "label", "--has-header", "--seed", "1",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["metrics"]["accuracy"] == 1.0

    def test_njw_without_k_is_config_error(self, labeled_csv, tmp_path):
        code = main([
            "run", "--mode", "njw", "--input", str(labeled_csv),
            "--label-col", "label", "--has-header",
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("sigma", ["inf", "1e400", "nan"])
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--mode", "legacy-eigengap"],
            ["run", "--mode", "njw", "--k", "2"],
            ["elbow", "--k-min", "1", "--k-max", "3"],
        ],
    )
    def test_non_finite_sigma_is_config_error(
        self, labeled_csv, tmp_path, capsys, command, sigma
    ):
        out = tmp_path / "x.out"
        code = main(command + [
            "--sigma", sigma, "--input", str(labeled_csv),
            "--label-col", "label", "--has-header", "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --sigma")

    @pytest.mark.parametrize("mode", ["ies-local", "els"])
    def test_overflowing_distances_are_data_error(self, tmp_path, capsys, mode):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(9, 1, (10, 2))])
        path = tmp_path / "huge.csv"
        save_dataset(Dataset(features=features * 1e160), path)
        out = tmp_path / "x.json"
        code = main([
            "run", "--mode", mode, "--input", str(path), "--has-header",
            "--output", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: local sigmas are not finite")

    def test_bad_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        code = main([
            "run", "--mode", "els", "--input", str(bad),
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 3

    def test_missing_file_is_data_error(self, tmp_path):
        code = main([
            "run", "--mode", "els", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 11.0 GiB", "error: out of memory: Unable to allocate 11.0 GiB"),
            ("", "error: out of memory"),
        ],
    )
    def test_out_of_memory_is_numeric_error(
        self, labeled_csv, tmp_path, monkeypatch, capsys, message, line
    ):
        def exhausted(config, dataset):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run", exhausted)
        code = main([
            "run", "--mode", "ies-global", "--input", str(labeled_csv),
            "--label-col", "label", "--has-header",
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [line]

    def test_elbow_subcommand_csv(self, labeled_csv, tmp_path):
        out = tmp_path / "elbow.csv"
        code = main([
            "elbow", "--input", str(labeled_csv), "--label-col", "label",
            "--has-header", "--k-min", "1", "--k-max", "5", "--seed", "0",
            "--output", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "sse"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
        for r in rows[1:]:
            float(r[1])

    def test_synth_subcommand(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dims": 2, "seed": 5,
            "groups": [
                {"center": [0, 0], "spread": 0.1, "count": 8},
                {"center": [4, 4], "spread": 0.1, "count": 9},
            ],
        }))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 0
        from iescluster.dataset import load_dataset

        ds = load_dataset(out, label_column="label")
        assert ds.features.shape == (17, 2)
        assert np.unique(ds.labels).tolist() == [0, 1]

    def test_byte_identical_reports(self, labeled_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "run", "--mode", "els", "--input", str(labeled_csv),
                "--label-col", "label", "--has-header", "--seed", "7",
                "--output", str(out),
            ])
            outs.append(json.loads(out.read_text()))
        a, b = outs
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b

    def test_parser_covers_documented_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--mode", "njw", "--input", "x.csv", "--label-col", "2",
            "--sigma", "4.0", "--k", "3", "--variance-threshold", "0.95",
            "--knn", "7", "--search-fraction", "0.5", "--min-node-size", "5",
            "--distance-exponent", "2", "--seed", "0", "--output", "y.json",
        ])
        assert args.mode == "njw" and args.k == 3 and args.sigma == 4.0
