import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from iescluster import cli
from iescluster.cli import RunConfig, build_parser, config_from_args, main, run
from iescluster.dataset import Dataset, save_dataset
from iescluster.errors import InvalidParameterError
from iescluster.ies import IesConfig
from iescluster.synth import nested_scale_dataset
from iescluster.validation import association_matrix, confusion_from_association, metrics


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

    @pytest.mark.parametrize(
        "mode", ["ies-global", "ies-local", "els", "legacy-eigengap", "elbow"]
    )
    def test_k_override_only_njw(self, mode):
        with pytest.raises(InvalidParameterError, match="--k only applies to mode njw"):
            RunConfig(mode=mode, k_override=2, elbow_k_min=1, elbow_k_max=3)

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(mode="magic")

    @pytest.mark.parametrize("k_min, k_max", [(0, 3), (5, 2), (-2, -1)])
    def test_elbow_range_checked(self, k_min, k_max):
        with pytest.raises(InvalidParameterError, match="1 <= k-min <= k-max"):
            RunConfig(mode="elbow", elbow_k_min=k_min, elbow_k_max=k_max)

    @pytest.mark.parametrize(
        "elbow_field",
        [{"elbow_k_min": 2}, {"elbow_k_max": 4}, {"elbow_space": "raw"},
         {"elbow_k_min": 5, "elbow_k_max": 2, "elbow_space": "raw"}],
    )
    @pytest.mark.parametrize("mode", ["ies-global", "ies-local", "els", "legacy-eigengap", "njw"])
    def test_elbow_fields_only_elbow(self, mode, elbow_field):
        k = {"k_override": 2} if mode == "njw" else {}
        with pytest.raises(InvalidParameterError, match="only apply to mode elbow"):
            RunConfig(mode=mode, **k, **elbow_field)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("variance_threshold", 1.5),
            ("knn_k", 0),
            ("search_fraction", 0),
            ("min_node_size", 0),
            ("depth_cap", 0),
            ("distance_exponent", 3),
        ],
    )
    def test_knob_ranges_checked(self, knob, value):
        with pytest.raises(InvalidParameterError, match=knob):
            RunConfig(mode="els", **{knob: value})


class TestDefaults:
    def test_run_defaults_are_ies_config(self):
        args = build_parser().parse_args(
            ["run", "--mode", "ies-local", "--input", "x.csv", "--output", "y.json"]
        )
        config = config_from_args(args)
        assert config == RunConfig(mode="ies-local")
        assert {f.name: getattr(config, f.name) for f in fields(IesConfig)} == asdict(IesConfig())

    def test_elbow_defaults_are_ies_config(self):
        args = build_parser().parse_args([
            "elbow", "--input", "x.csv", "--output", "y.csv",
            "--k-min", "1", "--k-max", "4",
        ])
        config = config_from_args(args)
        assert config == RunConfig(mode="elbow", elbow_k_min=1, elbow_k_max=4)
        assert {f.name: getattr(config, f.name) for f in fields(IesConfig)} == asdict(IesConfig())

    def test_every_option_reaches_its_field(self):
        args = build_parser().parse_args([
            "run", "--mode", "njw", "--input", "x.csv", "--output", "y.json",
            "--sigma", "4.0", "--k", "3", "--variance-threshold", "0.9",
            "--knn", "5", "--search-fraction", "0.4", "--min-node-size", "6",
            "--depth-cap", "9", "--distance-exponent", "1", "--seed", "2",
        ])
        assert config_from_args(args) == RunConfig(
            mode="njw", sigma_override=4.0, k_override=3, variance_threshold=0.9,
            knn_k=5, search_fraction=0.4, min_node_size=6, depth_cap=9,
            distance_exponent=1, master_seed=2,
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
            "master_seed",
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
        assert report["schema_version"] == 2
        assert report["metrics"]["accuracy"] == 1.0

    def test_njw_without_k_is_config_error(self, labeled_csv, tmp_path):
        code = main([
            "run", "--mode", "njw", "--input", str(labeled_csv),
            "--label-col", "label", "--has-header",
            "--output", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_k_outside_njw_is_config_error(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main([
            "run", "--mode", "ies-global", "--k", "3", "--input", str(labeled_csv),
            "--label-col", "label", "--has-header", "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: --k only applies to mode njw\n"

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

    @pytest.mark.parametrize("factor", [1e160, 2.0**530])
    @pytest.mark.parametrize("mode", ["ies-global", "legacy-eigengap"])
    def test_overflowing_covariance_is_data_error(self, tmp_path, capsys, mode, factor):
        # The covariance of two 3-d groups overflows to inf: one error line
        # and exit 3, not a traceback from the eigensolver.
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(9, 1, (40, 3))])
        path = tmp_path / "huge.csv"
        save_dataset(Dataset(features=features * factor), path)
        out = tmp_path / "x.json"
        code = main([
            "run", "--mode", mode, "--input", str(path), "--has-header",
            "--output", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: covariance is not finite: column means or centered products overflow"
        ]

    @pytest.mark.parametrize("command", [
        ["run", "--mode", "ies-global"],
        ["run", "--mode", "njw", "--k", "2"],
        ["run", "--mode", "legacy-eigengap"],
        ["elbow", "--k-min", "1", "--k-max", "3"],
    ])
    def test_overflowing_column_mean_names_covariance(self, tmp_path, capsys, command):
        # The input is finite; its column mean is not.
        big = np.finfo(float).max
        path = tmp_path / "huge.csv"
        column = np.array([big, big, -big, -big, 0.0, 0.0, 0.0, 0.0])
        save_dataset(Dataset(features=column[:, None]), path)
        out = tmp_path / "x.out"
        code = main([*command, "--input", str(path), "--has-header", "--output", str(out)])
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: covariance is not finite: column means or centered products overflow"
        ]

    @pytest.mark.parametrize("mode", ["ies-global", "ies-local", "legacy-eigengap", "els"])
    def test_overflow_is_one_stderr_line(self, tmp_path, mode):
        # Distances and the covariance overflow to inf. pytest captures
        # numpy's RuntimeWarnings in-process, so only a real process shows
        # whether they reach stderr before the error line.
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(9, 1, (40, 3))])
        path = tmp_path / "huge.csv"
        save_dataset(Dataset(features=features * 1e160), path)
        out = tmp_path / "x.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "iescluster", "run", "--mode", mode,
             "--input", str(path), "--has-header", "--output", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--mode", "ies-global"],
        ["run", "--mode", "ies-local"],
        ["run", "--mode", "els"],
        ["run", "--mode", "njw", "--k", "2"],
        ["run", "--mode", "legacy-eigengap"],
        ["elbow", "--k-min", "1", "--k-max", "3"],
    ])
    def test_overflowing_column_mean_is_one_stderr_line(self, tmp_path, command):
        # One column of +-max and zeros: its mean is NaN, as numpy adds
        # max + max before -max - max. No RuntimeWarning may precede the
        # error line, in any mode.
        big = np.finfo(float).max
        path = tmp_path / "huge.csv"
        column = np.array([big, big, -big, -big, 0.0, 0.0, 0.0, 0.0])
        save_dataset(Dataset(features=column[:, None]), path)
        out = tmp_path / "x.out"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "iescluster", *command,
             "--input", str(path), "--has-header", "--output", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

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

    def test_short_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("a,b\n1,2,3\n4,5,6\n")
        out = tmp_path / "x.json"
        code = main(["run", "--mode", "ies-global", "--input", str(bad), "--has-header",
                     "--output", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: line 2: expected 2 columns, got 3"]

    def test_over_long_cell_is_data_error(self, tmp_path, capsys):
        # csv.reader refuses a cell above its field size limit.
        bad = tmp_path / "long.csv"
        limit = csv.field_size_limit()
        bad.write_text("1,2\n3," + "4" * (limit + 1) + "\n")
        out = tmp_path / "x.json"
        code = main(["run", "--mode", "ies-global", "--input", str(bad), "--output", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: line 2: field larger than field limit ({limit})"]

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1,2\n3,\xff\n")
        out = tmp_path / "x.json"
        code = main(["run", "--mode", "els", "--input", str(bad), "--output", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize(
        "text",
        [
            '{"dims": 2, "groups": [',
            '{"dims": 1, "groups": [{"center": [0], "spread": "wide", "count": 3}]}',
            '{"dims": 1, "groups": {"a": 1}}',
            "[1, 2]",
        ],
        ids=["truncated-json", "spread-word", "groups-object", "top-level-list"],
    )
    def test_malformed_synth_spec_is_config_error(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {spec}: malformed synthetic spec")

    @pytest.mark.parametrize(
        "field, group, message",
        [
            ('"seed": -1', '"center": [0], "spread": 1', "seed must be a nonnegative integer"),
            ('"seed": 1.5', '"center": [0], "spread": 1', "seed must be a nonnegative integer"),
            ('"noise_sd": NaN', '"center": [0], "spread": 1', "noise_sd must be finite"),
            ('"seed": 0', '"center": [NaN], "spread": 1', "group centers must be finite"),
            ('"seed": 0', '"center": [0], "spread": Infinity', "spreads must be finite"),
        ],
        ids=["negative-seed", "fractional-seed", "nan-noise", "nan-center", "inf-spread"],
    )
    def test_invalid_synth_value_is_config_error(self, tmp_path, capsys, field, group, message):
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"dims": 1, {field}, "groups": [{{{group}, "count": 3}}]}}')
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {message}")

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

    def test_elbow_reversed_range_is_config_error(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "elbow.csv"
        code = main([
            "elbow", "--input", str(labeled_csv), "--label-col", "label",
            "--has-header", "--k-min", "5", "--k-max", "2", "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --k-min 5 and --k-max 2")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "command", [["run", "--mode", "ies-global"], ["elbow", "--k-min", "1", "--k-max", "3"]],
        ids=["run", "elbow"],
    )
    def test_seed_out_of_range_is_config_error(self, labeled_csv, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        code = main([
            *command, "--input", str(labeled_csv), "--label-col", "label",
            "--has-header", "--seed", seed, "--output", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: --seed {seed} must lie in [0, 2**64)\n"

    def test_workers_is_usage_error(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_info:
            main([
                "run", "--mode", "ies-global", "--input", str(labeled_csv),
                "--label-col", "label", "--has-header", "--workers", "2",
                "--output", str(out),
            ])
        assert exit_info.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims, count, message",
        [
            (1, 4.7, "group count must be an integer of at least 1, got 4.7"),
            (1.5, 3, "dims must be an integer of at least 1, got 1.5"),
        ],
        ids=["fractional-count", "fractional-dims"],
    )
    def test_fractional_synth_size_is_config_error(self, tmp_path, capsys, dims, count, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"dims": dims, "groups": [{"center": [0], "spread": 1, "count": count}]}
        ))
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

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


class TestReportLabels:
    """Reports whose labels are not ints: every id must reach the JSON as
    itself, and the metric fields are those of ``MetricsReport``."""

    @staticmethod
    def check_metrics(block, assignments, labels):
        am = association_matrix(assignments, labels)
        cm = confusion_from_association(am)
        expected = {
            "n_clusters": block["n_clusters"],
            "association": {
                "label_ids": am.label_ids,
                "cluster_ids": am.cluster_ids,
                "counts": am.counts.tolist(),
            },
            "confusion": {
                "label_ids": cm.label_ids,
                "counts": cm.counts.tolist(),
                "cluster_label_map": sorted(cm.cluster_label_map.items()),
            },
            **asdict(metrics(cm, block["n_clusters"])),
        }
        assert block == json.loads(json.dumps(expected))

    def test_string_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(10, 0.2, (20, 2))])
        labels = np.array(["G1"] * 20 + ["S"] * 20, dtype=object)
        data = tmp_path / "named.csv"
        save_dataset(Dataset(features=features, labels=labels), data)
        out = tmp_path / "report.json"
        code = main([
            "run", "--mode", "ies-global", "--input", str(data),
            "--label-col", "label", "--has-header", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["association"]["label_ids"] == ["G1", "S"]
        assert [m["label"] for m in report["metrics"]["per_label"]] == ["G1", "S"]
        self.check_metrics(report["metrics"], report["assignments"], labels)

    def test_float_label_column(self, tmp_path):
        # Labels 1 and 1.0 name one group; 2 and 10 sort numerically.
        rng = np.random.default_rng(2)
        features = np.vstack([rng.normal(c, 0.2, (20, 2)) for c in (0, 10, 20)])
        cells = ["1", "1.0"] * 10 + ["10"] * 20 + ["2"] * 20
        data = tmp_path / "float.csv"
        rows = [f"{x!r},{y!r},{c}" for (x, y), c in zip(features.tolist(), cells)]
        data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main([
            "run", "--mode", "ies-global", "--input", str(data),
            "--label-col", "label", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["association"]["label_ids"] == [1.0, 2.0, 10.0]
        assert [m["label"] for m in report["metrics"]["per_label"]] == [1.0, 2.0, 10.0]
        labels = np.array([float(c) for c in cells])
        self.check_metrics(report["metrics"], report["assignments"], labels)

    def test_int_labels_beyond_int64_stay_distinct(self, tmp_path):
        # 2**63 and 2**63 + 1 fit only uint64, and 1 fits int64: numpy would
        # put the three in one float64 array and merge the two large ones.
        big = 2**63
        rng = np.random.default_rng(3)
        features = np.vstack([rng.normal(c, 0.2, (3, 2)) for c in (0, 10, 20)])
        cells = [big] * 3 + [big + 1] * 3 + [1] * 3
        data = tmp_path / "big.csv"
        rows = [f"{x!r},{y!r},{c}" for (x, y), c in zip(features.tolist(), cells)]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main([
            "run", "--mode", "els", "--input", str(data),
            "--label-col", "2", "--output", str(out),
        ])
        assert code == 0
        label_ids = json.loads(out.read_text())["metrics"]["association"]["label_ids"]
        assert label_ids == [1, big, big + 1]
        assert all(type(v) is int for v in label_ids)

    def test_float_labels(self, tmp_path):
        # Float labels from a Dataset built in memory; the report is written
        # as the CLI writes it.
        rng = np.random.default_rng(1)
        features = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(10, 0.2, (20, 2))])
        labels = np.repeat([1.5, 2.5], 20)
        report = run(RunConfig(mode="ies-global"), Dataset(features=features, labels=labels))
        out = tmp_path / "report.json"
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        written = json.loads(out.read_text())
        assert written["metrics"]["confusion"]["label_ids"] == [1.5, 2.5]
        assert [m["label"] for m in written["metrics"]["per_label"]] == [1.5, 2.5]
        self.check_metrics(written["metrics"], written["assignments"], labels)
