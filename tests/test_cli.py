import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvewave as cw
from curvewave import formats
from curvewave.cli import ExperimentConfig, _build_parser, main

from conftest import random_field, rotated_box_energy

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_config(tmp_path, **overrides):
    cfg = {
        "frame": {"n": 64, "scales": 4},
        "operator": {"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0},
        "model": {"kind": "constant"},
        "columns": {"count": 3, "scales": [3]},
        "seed": 7,
        "n_fields": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFrameCheck:
    def test_default_passes(self, tmp_path, capsys):
        rc = main(["--config", write_config(tmp_path), "frame-check"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert rc == 0
        assert report["parseval_err"] <= 1e-10
        assert report["roundtrip_err"] <= 1e-10

    def test_non_power_of_two_exits_2(self, tmp_path):
        rc = main(["--config", write_config(tmp_path, frame={"n": 63, "scales": 3}), "frame-check"])
        assert rc == 2

    def test_too_many_scales_exits_2(self, tmp_path):
        rc = main(["--config", write_config(tmp_path, frame={"n": 64, "scales": 9}), "frame-check"])
        assert rc == 2

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"), "frame-check"])
        assert rc == 2


def load_config(path):
    return ExperimentConfig.load(_build_parser().parse_args(["--config", path, "frame-check"]))


class TestManifest:
    def test_transition_reaches_frame_params(self, tmp_path, capsys):
        path = write_config(tmp_path, frame={"n": 64, "scales": 4, "transition": 0.25})
        assert load_config(path).frame == cw.FrameParams(n=64, scales=4, transition=0.25)
        assert main(["--config", path, "frame-check"]) == 0

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"frame": {"n": 64, "scales": 4, "smoth_step_order": 6}}, "smoth_step_order"),
            ({"times": [0.25]}, "times"),
            ({"thresold": 1e-6}, "thresold"),
            ({"columns": {"count": 3, "scale": [3]}}, "scale"),
            ({"operator": {"kind": "halfwave", "sgn": "-", "c_0": 3.0, "t": 0.25}}, "sgn"),
            ({"model": {"kind": "sinusoidal", "amplitude": 0.2, "wave_vector": [1, 0]}}, "wave_vector"),
            ({"operator": {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": 0.05, "wavevectr": [1, 1]}}},
             "wavevectr"),
            ({"frame": {"n": 64, "scales": 4, "delta1": 1.5}}, "delta1"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, overrides, key):
        rc = main(["--config", write_config(tmp_path, **overrides), "frame-check"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"model": {"kind": "sinusoidal"}}, "amplitude"),
            ({"operator": {"kind": "warp", "map": {"kind": "sinusoidal", "wavevector": [1, 1]}}}, "amplitude"),
            ({"operator": {"kind": "warp", "map": {"kind": "shear"}}}, "'s'"),
            ({"operator": {"kind": "gaussian-smooth"}}, "width"),
            ({"operator": {"kind": "variable-wave", "t": 0.1, "model": {"kind": "sinusoidal", "c0": 2.0}}},
             "amplitude"),
        ],
    )
    def test_missing_required_key_exits_2(self, tmp_path, capsys, overrides, key):
        rc = main(["--config", write_config(tmp_path, **overrides), "frame-check"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "needs key" in err and key in err

    @pytest.mark.parametrize(
        "number, message",
        [("NaN", "not finite"), ("Infinity", "not finite"), ("-Infinity", "not finite"), ("1e400", "not finite"),
         ("1" + "0" * 400, "too large")],
    )
    @pytest.mark.parametrize(
        "operator",
        [{"kind": "halfwave", "t": "NUMBER"}, {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": "NUMBER"}}],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, operator, number, message):
        path = Path(write_config(tmp_path, operator=operator))
        path.write_text(path.read_text().replace('"NUMBER"', number))
        assert main(["--config", str(path), "propagate", "unread.field"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"frame": [64, 4]}, "frame must be a JSON object"),
            ({"columns": 3}, "columns must be a JSON object"),
            ({"frame": {"n": None, "scales": 4}}, "config error"),
            # numbers must be JSON numbers, ints where an int is read, and counts at least 1
            ({"threshold": "nan"}, "threshold must be a JSON number"),
            ({"threshold": "inf"}, "threshold must be a JSON number"),
            ({"frame": {"n": "64", "scales": 4}}, "frame n must be a JSON integer"),
            ({"model": {"kind": "sinusoidal", "amplitude": 0.2, "wavevector": [1.7, 0]}},
             "wavevector must be a JSON integer"),
            ({"columns": {"count": -2, "scales": [3]}}, "columns count must be at least 1"),
            ({"columns": {"count": 2.7, "scales": [3]}}, "columns count must be a JSON integer"),
            ({"n_fields": 0}, "n_fields must be at least 1"),
        ],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, overrides, message):
        assert main(["--config", write_config(tmp_path, **overrides), "frame-check"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "operator, message",
        [
            # an expansion has no time step: dt is refused as an unknown key
            ({"kind": "variable-wave", "t": 0.1, "dt": 0}, "variable-wave operator: dt"),
            ({"kind": "variable-wave", "t": 0.1, "dt": 1e-3}, "variable-wave operator: dt"),
            ({"kind": "variable-wave", "t": 0.1, "sign": "0"}, "sign must be + or -"),
            ({"kind": "halfwave", "t": 0.1, "sign": "0"}, "sign must be + or -"),
            ({"kind": "halfwave", "t": 0.1, "sign": True}, "sign must be + or -"),
            ({"kind": "halfwave", "t": 0.1, "sign": 1}, "sign must be + or -"),
            ({"kind": "halfwave", "t": "nan"}, "halfwave operator t must be a JSON number"),
            ({"kind": "halfwave", "t": 0.1, "c0": "2"}, "halfwave operator c0 must be a JSON number"),
            ({"kind": "gaussian-smooth", "width": "nan"}, "gaussian-smooth operator width must be a JSON number"),
        ],
    )
    def test_unrunnable_value_exits_2(self, tmp_path, capsys, operator, message):
        assert main(["--config", write_config(tmp_path, operator=operator), "propagate", "unread.field"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("width", [0, -0.01])
    @pytest.mark.parametrize("command", ["frame-check", "matrix"])
    def test_nonpositive_smoothing_width_exits_2(self, tmp_path, capsys, command, width):
        # refused when the manifest is read, before the frame is built
        path = write_config(tmp_path, operator={"kind": "gaussian-smooth", "width": width})
        assert main(["--config", path, "--out", str(tmp_path / "out"), command]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "smoothing width must be positive" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["halfwave_n128.json", "variable_wave_n128.json"])
    def test_shipped_configs_load(self, name):
        path = CONFIGS / name
        raw = json.loads(path.read_text())
        cfg = load_config(str(path))
        assert cfg.frame == cw.FrameParams(**raw["frame"])
        assert cfg.columns == raw["columns"] and cfg.seed == raw["seed"]


class TestTransform:
    def test_round_trip_and_outputs(self, tmp_path, rng, capsys):
        field_path = tmp_path / "in.field"
        formats.write_field(field_path, random_field(rng, 64))
        out_dir = tmp_path / "out"
        rc = main(["--config", write_config(tmp_path), "--out", str(out_dir), "transform", str(field_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["roundtrip_err"] <= 1e-10
        assert (out_dir / "coefficients.csv").exists()
        assert (out_dir / "reconstruction.field").exists()
        assert (out_dir / "input_magnitude.pgm").exists()

    def test_zero_field_empty_csv(self, tmp_path, capsys):
        field_path = tmp_path / "zero.field"
        formats.write_field(field_path, np.zeros((64, 64), complex))
        out_dir = tmp_path / "out"
        rc = main(["--config", write_config(tmp_path), "--out", str(out_dir), "transform", str(field_path)])
        assert rc == 0
        lines = (out_dir / "coefficients.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_single_curvelet_visualization(self, tmp_path, frame64, capsys):
        mu = cw.CurveletIndex(3, 2, 2, 2)
        field_path = tmp_path / "needle.field"
        formats.write_field(field_path, cw.waveform(frame64, mu))
        out_dir = tmp_path / "out"
        rc = main(["--config", write_config(tmp_path), "--out", str(out_dir), "transform", str(field_path)])
        assert rc == 0
        rec = formats.read_field(out_dir / "reconstruction.field")
        wedge = frame64.wedge(mu.j, mu.ell)
        frac = rotated_box_energy(
            frame64, mu, rec, half_major=3.0 / np.sqrt(wedge.rho), half_minor=3.0 / wedge.rho
        )
        assert frac >= 0.95  # reconstruction keeps the needle geometry
        assert (out_dir / "input_magnitude.pgm").exists()

    def test_malformed_field_exits_2(self, tmp_path):
        bad = tmp_path / "bad.field"
        bad.write_bytes(b"garbage\n\x00\x01")
        rc = main(["--config", write_config(tmp_path), "transform", str(bad)])
        assert rc == 2

    def test_wrong_grid_exits_2(self, tmp_path, rng):
        field_path = tmp_path / "in.field"
        formats.write_field(field_path, random_field(rng, 32))
        rc = main(["--config", write_config(tmp_path), "transform", str(field_path)])
        assert rc == 2


class TestPropagateMatrixSparsity:
    def test_propagate(self, tmp_path, rng, capsys):
        field_path = tmp_path / "in.field"
        f = random_field(rng, 64)
        formats.write_field(field_path, f)
        out_dir = tmp_path / "out"
        rc = main(["--config", write_config(tmp_path), "--out", str(out_dir), "propagate", str(field_path)])
        assert rc == 0
        out = formats.read_field(out_dir / "propagated.field")
        assert np.allclose(out, cw.OperatorSpec(kind="halfwave", t=0.25).apply(f)[0], atol=1e-12)

    def test_propagate_acoustic_needs_three_components(self, tmp_path, rng, capsys):
        formats.write_field(tmp_path / "in.field", random_field(rng, 64))
        cfg = write_config(tmp_path, operator={"kind": "acoustic", "t": 0.2})
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "propagate", str(tmp_path / "in.field")]) == 2
        assert "expects a 3-component field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_matrix_identity_is_gram(self, tmp_path, frame64, capsys):
        cfg = write_config(tmp_path, operator={"kind": "identity"}, columns={"count": 2, "scales": [3]})
        out_dir = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out_dir), "matrix"])
        assert rc == 0
        matrix = cw.SparseOperatorMatrix.read_csv(
            frame64, cw.OperatorSpec.from_json({"kind": "identity"}), out_dir / "matrix.csv"
        )
        for col in matrix.columns:
            flat = frame64.flat_of_index(col.col_index)
            i = np.flatnonzero(col.rows_flat == flat)
            assert len(i) == 1
            diag = frame64.wedge(col.col_index.j, col.col_index.ell).atom_norm2
            assert abs(col.values[i[0]] - diag) <= 1e-10

    def test_matrix_then_sparsity(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir), "matrix"]) == 0
        capsys.readouterr()
        rc = main(["--config", cfg, "--out", str(out_dir), "sparsity", str(out_dir / "matrix.csv")])
        assert rc == 0
        report = json.loads((out_dir / "decay_report.json").read_text())
        assert "median_slope" in report and "concentration" in report
        curve = (out_dir / "decay_curve.csv").read_text().splitlines()
        assert curve[0] == "radius,energy_fraction"
        assert len(curve) > 10

    def test_sparsity_flows_with_operator_speed(self, tmp_path, capsys):
        # a manifest without a top-level model measures omega along the operator's own flow
        model = {"kind": "sinusoidal", "amplitude": 0.2, "wavevector": [1, 0]}
        operator = {"kind": "variable-wave", "sign": "+", "t": 0.1, "model": model}
        with_model = write_config(tmp_path, operator=operator, model=model, columns={"count": 2, "scales": [3]})
        out_dir = tmp_path / "out"
        assert main(["--config", with_model, "--out", str(out_dir), "matrix"]) == 0
        matrix = str(out_dir / "matrix.csv")
        assert main(["--config", with_model, "--out", str(tmp_path / "with"), "sparsity", matrix]) == 0
        raw = json.loads(Path(with_model).read_text())
        del raw["model"]
        without_model = tmp_path / "without_model.json"
        without_model.write_text(json.dumps(raw))
        assert main(["--config", str(without_model), "--out", str(tmp_path / "without"), "sparsity", matrix]) == 0
        report = (tmp_path / "with" / "decay_report.json").read_bytes()
        assert (tmp_path / "without" / "decay_report.json").read_bytes() == report

    @pytest.mark.parametrize("operator", [{"kind": "halfwave", "sign": "+", "t": 0.25},
                                          {"kind": "variable-wave", "sign": "+", "t": 0.25},
                                          {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": 0.05,
                                                                   "wavevector": [1, 1]}}],
                             ids=["halfwave", "variable-wave", "warp"])
    @pytest.mark.parametrize("command", ["matrix", "propagate"])
    def test_states_solver_error(self, tmp_path, rng, capsys, command, operator):
        # matrix: the largest stated error over the columns, relative to the column
        # norm; propagate: the stated error of the written field
        cfg = write_config(tmp_path, operator=operator, columns={"count": 2, "scales": [3]})
        argv = ["--config", cfg, "--out", str(tmp_path / "out"), command]
        if command == "propagate":
            formats.write_field(tmp_path / "in.field", random_field(rng, 64))
            argv.append(str(tmp_path / "in.field"))
        assert main(argv) == 0
        error = json.loads(capsys.readouterr().out)["solver_error"]
        if operator["kind"] == "halfwave":
            assert error == 0.0
        elif operator["kind"] == "warp":
            assert 0.0 < error <= 1e-12
        elif command == "matrix":
            assert 0.0 < error <= 1e-10
        else:
            assert 0.0 < error < math.inf

    def test_matrix_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a), "matrix"]) == 0
        assert main(["--config", cfg, "--out", str(out_b), "matrix"]) == 0
        for name in ("matrix.csv", "matrix.csv.npz"):
            ha = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((out_b / name).read_bytes()).hexdigest()
            assert ha == hb, name


    def test_matrix_columns_are_distinct(self, tmp_path, capsys):
        # seed 4 draws (2, 7, 0, 3) twice among 8 indices at j = 2; the repeat is drawn again
        cfg = write_config(tmp_path, columns={"count": 8, "scales": [2]}, seed=4)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "matrix"]) == 0
        assert main(["--config", cfg, "--out", str(out), "sparsity", str(out / "matrix.csv")]) == 0
        report = json.loads((out / "decay_report.json").read_text())
        assert len({tuple(c["col"]) for c in report["columns"]}) == 8

    def test_matrix_count_beyond_the_indices_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, columns={"count": 10**6, "scales": [2]})
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "matrix"]) == 2
        assert "exceeds the" in capsys.readouterr().err


class TestMatrixSidecar:
    """``sparsity`` reads the sidecar ``matrix`` writes next to ``matrix.csv``
    and refuses (exit 2) one that does not describe the CSV and the manifest."""

    @staticmethod
    def matrix(tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path), "--out", str(out), "matrix"]) == 0
        capsys.readouterr()
        return out / "matrix.csv"

    @staticmethod
    def sparsity(tmp_path, path, **overrides):
        cfg = write_config(tmp_path, **overrides)
        return main(["--config", cfg, "--out", str(tmp_path / "report"), "sparsity", str(path)])

    def test_report_has_the_written_energies(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        assert self.sparsity(tmp_path, path) == 0
        report = json.loads((tmp_path / "report" / "decay_report.json").read_text())
        with np.load(f"{path}.npz", allow_pickle=False) as npz:
            manifest = json.loads(npz["manifest"].tobytes())
        keys = ("energy", "threshold", "solver_error")
        written = sorted((c["index"] + [c["component"]], *(c[k] for k in keys)) for c in manifest["columns"])
        assert [(c["col"], *(c[k] for k in keys)) for c in report["columns"]] == written
        assert all(c["threshold"] > 0.0 for c in report["columns"])

    def test_csv_without_sidecar_exits_2(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        (tmp_path / "out" / "matrix.csv.npz").unlink()
        assert self.sparsity(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert f"its sidecar {path}.npz is missing" in err and "run matrix again" in err

    def test_sidecar_without_csv_exits_2(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        path.unlink()
        assert self.sparsity(tmp_path, path) == 2
        assert str(path) in capsys.readouterr().err

    def test_empty_matrix_exits_1(self, tmp_path, frame64, capsys):
        path = tmp_path / "matrix.csv"
        op = cw.OperatorSpec.from_json(json.loads(Path(write_config(tmp_path)).read_text())["operator"])
        cw.SparseOperatorMatrix(frame64, op).write_csv(path)
        assert self.sparsity(tmp_path, path) == 1
        assert "sparsity: empty matrix" in capsys.readouterr().err

    def test_stale_digest_exits_2(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        text = path.read_bytes()
        path.write_bytes(text[:-2] + b"5\r\n")  # the last entry's im cell gains a digit
        assert self.sparsity(tmp_path, path) == 2
        assert "the CSV has changed since" in capsys.readouterr().err

    def test_other_frame_exits_2(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        assert self.sparsity(tmp_path, path, frame={"n": 64, "scales": 4, "angles_base": 12}) == 2
        err = capsys.readouterr().err
        assert "the matrix was built for frame" in err and "'angles_base': 8" in err

    def test_other_operator_exits_2(self, tmp_path, capsys):
        path = self.matrix(tmp_path, capsys)
        assert self.sparsity(tmp_path, path, operator={"kind": "halfwave", "sign": "+", "t": 0.3, "c0": 1.0}) == 2
        err = capsys.readouterr().err
        assert "the matrix was built for operator" in err and "'t': 0.25" in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda arrays: b"not a zip file", "not a readable .npz"),
            (lambda arrays: np.lib.format.MAGIC_PREFIX + b"\x01\x00", "not a readable .npz"),
            (lambda arrays: {**arrays, "values": arrays["values"].real}, "values is float64"),
            (lambda arrays: {k: v for k, v in arrays.items() if k != "rows"}, "not a readable .npz"),
            (lambda arrays: {**arrays, "starts": arrays["starts"] + 1}, "do not split"),
            (lambda arrays: {**arrays, "rows": arrays["rows"] - arrays["rows"].min() - 1}, "packed position outside"),
            (lambda arrays: {**arrays, "components": arrays["components"] + 1}, "nu must be 0"),
            (lambda arrays: {**arrays, "manifest": np.frombuffer(b"{]", np.uint8)}, "malformed manifest"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited(arrays, columns=[{"index": [3]}])},
             "malformed manifest"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited(arrays, extra=1)}, "unknown key"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited_column(arrays, index=[3, 99, 0, 0])},
             "no index"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited_column(arrays, index=[3, 0, 0, -1])},
             "no index"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited_column(arrays, component=1)},
             "nu must be 0"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited_column(arrays, index=[7, 0, 0, 0])},
             "no index"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.edited_column(arrays, energy="one")},
             "sidecar column energy must be a JSON number"),
            (lambda arrays: {**arrays, "manifest": TestMatrixSidecar.dropped(arrays, "csv_sha256")},
             "malformed manifest: 'csv_sha256'"),
            (lambda arrays: {**arrays, "values": arrays["values"][:-1]}, "do not split"),
            (lambda arrays: {**arrays, "rows": arrays["rows"] - arrays["rows"].min() + 10**9},
             "packed position outside"),
        ],
        ids=["garbage", "npy", "dtype", "missing-array", "starts", "rows", "components", "json", "column", "key",
             "col-wedge", "col-k-outside", "col-nu", "col-scale", "non-numeric", "missing-key", "count",
             "row-k-outside"],
    )
    def test_malformed_sidecar_exits_2(self, tmp_path, capsys, damage, message):
        path = self.matrix(tmp_path, capsys)
        sidecar = tmp_path / "out" / "matrix.csv.npz"
        with np.load(sidecar, allow_pickle=False) as npz:
            damaged = damage({name: npz[name] for name in npz.files})
        if isinstance(damaged, bytes):
            sidecar.write_bytes(damaged)
        else:
            with open(sidecar, "wb") as fh:
                np.savez(fh, **damaged)
        assert self.sparsity(tmp_path, path) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def edited(arrays, **changes):
        manifest = {**json.loads(arrays["manifest"].tobytes()), **changes}
        return np.frombuffer(json.dumps(manifest).encode(), np.uint8)

    @staticmethod
    def dropped(arrays, key):
        manifest = json.loads(arrays["manifest"].tobytes())
        del manifest[key]
        return np.frombuffer(json.dumps(manifest).encode(), np.uint8)

    @staticmethod
    def edited_column(arrays, **changes):
        columns = json.loads(arrays["manifest"].tobytes())["columns"]
        columns[0].update(changes)
        return TestMatrixSidecar.edited(arrays, columns=columns)

    def test_repeated_entry_exits_2(self, tmp_path, capsys):
        # the first column's second entry repeats its first (row index, row component)
        path = self.matrix(tmp_path, capsys)
        sidecar = tmp_path / "out" / "matrix.csv.npz"
        with np.load(sidecar, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert arrays["starts"][1] >= 2
        arrays["rows"][1] = arrays["rows"][0]
        with open(sidecar, "wb") as fh:
            np.savez(fh, **arrays)
        assert self.sparsity(tmp_path, path) == 2
        assert "twice" in capsys.readouterr().err


class TestFlowCommand:
    def test_straight_trajectory_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(
            ["--config", write_config(tmp_path), "--out", str(out_dir), "flow",
             "--x0", "0.2", "0.5", "--xi0", "16", "0", "--branch", "+", "--t", "0.3"]
        )
        assert rc == 0
        lines = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,xi1,xi2,theta"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.3)
        assert last[1] == pytest.approx(0.5, abs=1e-9)  # x1 = 0.2 + 0.3
        assert last[2] == pytest.approx(0.5, abs=1e-12)
        assert last[5] == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_exits_2(self, tmp_path, capsys):
        rc = main(["--config", write_config(tmp_path), "--out", str(tmp_path / "out"), "flow", "--xi0", "0", "0"])
        assert rc == 2
        assert "nonzero frequency" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--t", "inf"], "flow t must be finite"),
            (["--t", "nan"], "flow t must be finite"),
            (["--t", "1e308"], "flow t must be finite"),
            (["--x0", "nan", "0.5"], "must be finite"),
            (["--xi0", "inf", "0"], "must be finite"),
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        rc = main(["--config", write_config(tmp_path), "--out", str(out_dir), "flow", *argv])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out_dir / "trajectory.csv").exists()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and nothing in the package
    # needs it, so a fresh process starts the library and the CLI without it
    code = "import sys, curvewave, curvewave.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
