"""Command line interface, exercised in-process through main().

Calling main() directly keeps the suite fast; one subprocess test at the
end confirms the module entry point works outside the test process too.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from densereg import io as vio
from densereg import cli, parallel, pipeline
from densereg.cli import main
from densereg.geometry import DisplacementField, DisplacementSpace, Volume3D
from densereg.pipeline import register_pair
from densereg.regularizer import RegularizerParams, regularize
from densereg.transform import RegistrationConfig


def read_text(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


PHANTOM_ARGS = ["--dims", "16", "--organs", "3", "--deformation",
                "translation", "--magnitude", "0.08", "--noise-sigma",
                "0.01", "--seed", "3"]
REGISTER_ARGS = ["--grid", "5", "--steps", "5", "--q", "0.4"]


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("phantom")
    rc = main(["phantom", "--out-dir", str(d)] + PHANTOM_ARGS)
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def register_dir(tmp_path_factory, phantom_dir):
    d = tmp_path_factory.mktemp("reg")
    rc = main(["register",
               "--fixed", str(phantom_dir / "fixed.hdr"),
               "--moving", str(phantom_dir / "moving.hdr"),
               "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
               "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
               "--out-dir", str(d)] + REGISTER_ARGS)
    assert rc == 0
    return d


class TestPhantom:
    def test_artifacts_written(self, phantom_dir):
        for stem in ("fixed", "moving", "fixed_labels", "moving_labels",
                     "truth_field"):
            assert (phantom_dir / f"{stem}.hdr").exists(), stem
            assert (phantom_dir / f"{stem}.raw").exists(), stem

    def test_summary_line(self, phantom_dir, capsys, tmp_path):
        rc = main(["phantom", "--out-dir", str(tmp_path)] + PHANTOM_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=3" in out and "16x16x16" in out

    def test_deterministic_across_runs(self, phantom_dir, tmp_path):
        rc = main(["phantom", "--out-dir", str(tmp_path)] + PHANTOM_ARGS)
        assert rc == 0
        for stem in ("fixed", "moving_labels", "truth_field"):
            assert read_bytes(tmp_path / f"{stem}.raw") \
                == read_bytes(phantom_dir / f"{stem}.raw"), stem

    def test_round_trip_readable(self, phantom_dir):
        vol = vio.read_volume(str(phantom_dir / "fixed.hdr"))
        assert vol.dims == (16, 16, 16)
        labels = vio.read_volume(str(phantom_dir / "fixed_labels.hdr"),
                                 as_labels=True)
        assert labels.is_label and labels.data.max() >= 1
        field = vio.read_field(str(phantom_dir / "truth_field.hdr"))
        assert field.vectors.shape == (16, 16, 16, 3)

    def test_bad_magnitude_is_usage_error(self, tmp_path, capsys):
        rc = main(["phantom", "--out-dir", str(tmp_path),
                   "--magnitude", "0.9"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, sigma):
        rc = main(["phantom", "--out-dir", str(tmp_path / "ph"),
                   "--noise-sigma", sigma])
        assert rc == 1
        assert "noise sigma must be finite" in capsys.readouterr().err

    def test_no_threads_flag(self, tmp_path, capsys):
        # Generation is single-threaded, so phantom has no --threads.
        rc = main(["phantom", "--out-dir", str(tmp_path / "ph"),
                   "--threads", "2"])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "ph").exists()

    def test_out_dir_file_fails_before_generation(self, tmp_path, capsys,
                                                  monkeypatch):
        # An existing file as --out-dir is an I/O error before the
        # phantom is generated, not after.
        def unreachable(*args, **kwargs):
            raise AssertionError("generation reached")

        monkeypatch.setattr(cli, "generate", unreachable)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="ascii")
        rc = main(["phantom", "--out-dir", str(taken)] + PHANTOM_ARGS)
        assert rc == 2
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text(encoding="ascii") == "not a directory"

    def test_failed_generation_removes_the_dirs_it_made(self, tmp_path,
                                                        capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ArithmeticError("field must be finite")

        monkeypatch.setattr(cli, "generate", failing)
        rc = main(["phantom", "--out-dir", str(tmp_path / "new" / "ph")]
                  + PHANTOM_ARGS)
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRegister:
    def test_artifacts_written(self, register_dir):
        for name in ("field.hdr", "field.raw", "warped.hdr", "warped.raw",
                     "warped_labels.hdr", "warped_labels.raw", "report.txt",
                     "timings.txt"):
            assert (register_dir / name).exists(), name

    def test_report_contents(self, register_dir):
        text = read_text(register_dir / "report.txt")
        for key in ("dice_mean=", "std_jac=", "folding_fraction=",
                    "grid=5,5,5", "capture_range=0.4", "steps=5,5,5",
                    "refine_steps=0", "label_loss="):
            assert key in text, key
        # The diffusion weight is reported only when --refine reads it.
        assert "lambda=" not in text
        timings = read_text(register_dir / "timings.txt")
        assert "correlation" in timings and "total" in timings

    def test_warped_outputs_carry_fixed_spacing(self, phantom_dir, tmp_path):
        # The warped volumes are sampled on the fixed grid, so their
        # headers give its spacing, not the moving volume's.
        argv = ["register", "--out-dir", str(tmp_path / "out"),
                "--moving", str(phantom_dir / "moving.hdr"),
                "--moving-labels", str(phantom_dir / "moving_labels.hdr")]
        for name in ("fixed", "fixed_labels"):
            header = read_text(phantom_dir / f"{name}.hdr").replace(
                "spacing=1,1,1", "spacing=2,1,1")
            (tmp_path / f"{name}.hdr").write_text(header, encoding="ascii")
            (tmp_path / f"{name}.raw").write_bytes(
                read_bytes(phantom_dir / f"{name}.raw"))
            argv += [f"--{name.replace('_', '-')}",
                     str(tmp_path / f"{name}.hdr")]
        assert main(argv + REGISTER_ARGS) == 0
        for name in ("warped", "warped_labels"):
            vol = vio.read_volume(str(tmp_path / "out" / f"{name}.hdr"))
            assert vol.spacing == (2.0, 1.0, 1.0), name

    def test_stdout_matches_report_file(self, phantom_dir, tmp_path, capsys):
        d = tmp_path / "out"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(d)] + REGISTER_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert out == read_text(d / "report.txt")

    def test_deterministic_artifacts(self, phantom_dir, register_dir,
                                     tmp_path):
        d = tmp_path / "again"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
                   "--out-dir", str(d)] + REGISTER_ARGS)
        assert rc == 0
        assert read_bytes(d / "field.raw") \
            == read_bytes(register_dir / "field.raw")
        assert read_text(d / "report.txt") \
            == read_text(register_dir / "report.txt")

    def test_warp_improves_overlap(self, phantom_dir, register_dir, capsys):
        rc = main(["evaluate",
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "moving_labels.hdr")])
        assert rc == 0
        before = float(capsys.readouterr().out.split("dice_mean=")[1]
                       .splitlines()[0])
        after = float(read_text(register_dir / "report.txt")
                      .split("dice_mean=")[1].splitlines()[0])
        assert after > before

    def test_refine_flag(self, phantom_dir, tmp_path):
        d = tmp_path / "ref"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(d), "--refine"] + REGISTER_ARGS)
        assert rc == 0
        assert "refine_steps=50" in read_text(d / "report.txt")

    def test_seed_and_threads_recorded(self, phantom_dir, tmp_path):
        d = tmp_path / "seeded"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(d), "--threads", "2"] + REGISTER_ARGS)
        assert rc == 0
        assert "threads" not in read_text(d / "report.txt")
        assert "threads=2" in read_text(d / "timings.txt").splitlines()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, phantom_dir, tmp_path, capsys,
                                        threads):
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path / "out"), "--threads", threads]
                  + REGISTER_ARGS)
        assert rc == 1
        assert f"threads must be >= 1 and an int, got {threads}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_thread_count_does_not_change_outputs(self, phantom_dir,
                                                  tmp_path, monkeypatch):
        # Hand even this small run's planes to the worker threads.
        monkeypatch.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
        outs = []
        for threads in ("1", "2"):
            d = tmp_path / f"threads{threads}"
            rc = main(["register",
                       "--fixed", str(phantom_dir / "fixed.hdr"),
                       "--moving", str(phantom_dir / "moving.hdr"),
                       "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                       "--moving-labels",
                       str(phantom_dir / "moving_labels.hdr"),
                       "--out-dir", str(d), "--threads", threads]
                      + REGISTER_ARGS)
            assert rc == 0
            outs.append(d)
        for name in ("field.raw", "report.txt", "warped.raw",
                     "warped_labels.raw"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)


class TestCoarseGrid:
    def test_grid_4_runs(self, phantom_dir, tmp_path):
        # The tuned 5-wide spatial kernel pools 3 wide on a 4-point grid.
        d = tmp_path / "g4"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(d), "--grid", "4", "--steps", "5"])
        assert rc == 0
        assert "grid=4,4,4" in read_text(d / "report.txt")

    def test_grid_1_rejected_before_correlation(self, phantom_dir, tmp_path,
                                                capsys, monkeypatch):
        # Upsampling needs two control points per axis; the config says
        # so before any stage runs.
        def unreachable(*args, **kwargs):
            raise AssertionError("correlation reached")

        monkeypatch.setattr(pipeline, "dissimilarity_tensor", unreachable)
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path / "g1"), "--grid", "1"])
        assert rc == 1
        assert ">= 2 points per axis" in capsys.readouterr().err
        assert not (tmp_path / "g1").exists()

    def test_grid_16_keeps_tuned_kernel(self, phantom_dir, tmp_path):
        # Where the tuned kernel fits, the output is that of the tuned
        # preset itself.
        d = tmp_path / "g16"
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
                   "--out-dir", str(d), "--grid", "16", "--steps", "5",
                   "--q", "0.4"])
        assert rc == 0
        cfg = RegistrationConfig(grid_counts=16,
                                 space=DisplacementSpace(0.4, 5),
                                 reg_params=RegularizerParams())
        res = register_pair(vio.read_volume(str(phantom_dir / "fixed.hdr")),
                            vio.read_volume(str(phantom_dir / "moving.hdr")),
                            cfg,
                            fixed_labels=vio.read_volume(
                                str(phantom_dir / "fixed_labels.hdr")),
                            moving_labels=vio.read_volume(
                                str(phantom_dir / "moving_labels.hdr")))
        vio.write_field(res.field, str(tmp_path / "want.hdr"))
        vio.write_volume(res.warped, str(tmp_path / "want_warped.hdr"))
        assert read_bytes(d / "field.raw") == read_bytes(tmp_path / "want.raw")
        assert read_bytes(d / "warped.raw") \
            == read_bytes(tmp_path / "want_warped.raw")
        assert res.report.notes["label_loss"] in read_text(d / "report.txt")


class TestConfigFile:
    def test_file_values_used(self, phantom_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small run\n"
            f"fixed = {phantom_dir / 'fixed.hdr'}\n"
            f"moving = {phantom_dir / 'moving.hdr'}\n"
            f"out-dir = {tmp_path / 'out'}\n"
            "grid = 6\nsteps = 5\nq = 0.4\nlambda = 2.0\nrefine = true\n",
            encoding="ascii")
        rc = main(["register", "--config", str(cfg)])
        assert rc == 0
        text = read_text(tmp_path / "out" / "report.txt")
        assert "grid=6,6,6" in text and "lambda=2\n" in text

    def test_flags_override_file(self, phantom_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"fixed = {phantom_dir / 'fixed.hdr'}\n"
            f"moving = {phantom_dir / 'moving.hdr'}\n"
            f"out-dir = {tmp_path / 'out'}\n"
            "grid = 6\nsteps = 5\n", encoding="ascii")
        rc = main(["register", "--config", str(cfg), "--grid", "5"])
        assert rc == 0
        assert "grid=5,5,5" in read_text(tmp_path / "out" / "report.txt")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grdi = 4\n", encoding="ascii")
        rc = main(["register", "--config", str(cfg)])
        assert rc == 1
        assert "grdi" in capsys.readouterr().err

    def test_phantom_config(self, tmp_path):
        cfg = tmp_path / "ph.cfg"
        cfg.write_text(f"out-dir = {tmp_path / 'ph'}\ndims = 16\n"
                       "organs = 2\nmagnitude = 0.05\nseed = 9\n",
                       encoding="ascii")
        rc = main(["phantom", "--config", str(cfg)])
        assert rc == 0
        assert (tmp_path / "ph" / "fixed.hdr").exists()

    def test_file_matches_flags(self, phantom_dir, tmp_path):
        inputs = {"fixed": "fixed.hdr", "moving": "moving.hdr",
                  "fixed-labels": "fixed_labels.hdr",
                  "moving-labels": "moving_labels.hdr"}
        settings = {"grid": "5", "steps": "5", "q": "0.35", "lambda": "2",
                    "threads": "2"}
        flags = [f"--{k}={phantom_dir / v}" for k, v in inputs.items()]
        flags += [f"--{k}={v}" for k, v in settings.items()]
        flags += ["--refine"]
        lines = [f"{k} = {phantom_dir / v}" for k, v in inputs.items()]
        lines += [f"{k} = {v}" for k, v in settings.items()]
        lines += ["refine = true"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="ascii")
        a, b = tmp_path / "flags", tmp_path / "file"
        assert main(["register", "--out-dir", str(a)] + flags) == 0
        assert main(["register", "--out-dir", str(b),
                     "--config", str(cfg)]) == 0
        text = read_text(a / "report.txt")
        assert "lambda=2\n" in text and "label_loss=" in text
        for name in ("field.raw", "warped.raw", "warped_labels.raw",
                     "report.txt"):
            assert read_bytes(a / name) == read_bytes(b / name), name

    def test_malformed_line_read_as_in_a_header(self, tmp_path):
        # One reader: the same message, each file kind with its own error.
        hdr, cfg = tmp_path / "x.hdr", tmp_path / "x.cfg"
        for path in (hdr, cfg):
            path.write_text("# note\n  grid 4  \n", encoding="ascii")
        with pytest.raises(vio.VolumeIOError) as from_header:
            vio.read_volume(str(hdr))
        with pytest.raises(ValueError) as from_config:
            cli._load_config(str(cfg), cli._build_parser()[1]["register"])
        for path, exc in ((hdr, from_header), (cfg, from_config)):
            assert str(exc.value) == \
                f"{path}:2: expected key=value, got 'grid 4'"

    @pytest.mark.parametrize("command, line, reason", [
        ("register", "threads = 1.5", "invalid literal for int()"),
        ("register", "grid = a,b", "three comma-separated ints"),
        ("register", "refine = maybe", "expected a boolean"),
        ("phantom", "deformation = twist", "expected one of"),
    ])
    def test_value_checked_by_its_flag(self, tmp_path, capsys, command, line,
                                       reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# header\n{line}\n", encoding="ascii")
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        key = line.split(" =")[0]
        assert f"{cfg}:2: bad value for {key!r}: " in err and reason in err

    @pytest.mark.parametrize("command, threads", [("register", "0"),
                                                  ("evaluate", "-2")])
    def test_threads_below_one_rejected(self, phantom_dir, tmp_path, capsys,
                                        command, threads):
        """A file's thread count is read as the flag's, a plain int, and
        the command rejects one below 1 as it does the flag's."""
        cfg = tmp_path / "threads.cfg"
        cfg.write_text(f"threads = {threads}\n", encoding="ascii")
        inputs = {"register": ["--fixed", str(phantom_dir / "fixed.hdr"),
                               "--moving", str(phantom_dir / "moving.hdr"),
                               "--out-dir", str(tmp_path / "out")],
                  "evaluate": ["--fixed-labels",
                               str(phantom_dir / "fixed_labels.hdr"),
                               "--moving-labels",
                               str(phantom_dir / "moving_labels.hdr")]}
        assert main([command, "--config", str(cfg)] + inputs[command]) == 1
        assert f"threads must be >= 1 and an int, got {threads}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key", [
        ("phantom", "threads"), ("register", "config"), ("register", "help"),
        ("register", "no-refine"), ("register", "seed"), ("evaluate", "seed"),
        ("register", "report"), ("register", "no-mean-field"),
        ("evaluate", "report"),
    ])
    def test_keys_are_the_commands_flags(self, tmp_path, capsys, command,
                                         key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 1\n", encoding="ascii")
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}:1: unknown key {key!r}" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_labels_score_one(self, phantom_dir, capsys):
        rc = main(["evaluate",
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "fixed_labels.hdr")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dice_mean=1\n" in out
        # Without a field the Jacobian statistics are not computed.
        assert "std_jac=nan\n" in out and "field=" not in out

    def test_field_warping(self, phantom_dir, capsys):
        rc = main(["evaluate",
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
                   "--field", str(phantom_dir / "truth_field.hdr")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "std_jac=" in out and "folding_fraction=" in out
        # The truth field maps fixed coordinates to moving ones, so warping
        # the moving labels with it restores strong overlap.
        warped_mean = float(out.split("dice_mean=")[1].splitlines()[0])
        assert warped_mean > 0.9
        assert "field=" in out

    def test_thread_count_does_not_change_outputs(self, phantom_dir,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        # Split even this small field into slabs for the worker threads.
        monkeypatch.setattr(parallel, "SLAB_VOXELS", 1 << 8)
        outs = []
        for threads in ("1", "2"):
            rc = main(["evaluate",
                       "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                       "--moving-labels",
                       str(phantom_dir / "moving_labels.hdr"),
                       "--field", str(phantom_dir / "truth_field.hdr"),
                       "--threads", threads])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_threads_below_one_rejected(self, phantom_dir, capsys):
        argv = ["evaluate",
                "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
                "--threads", "0"]
        for field in ([], ["--field", str(phantom_dir / "truth_field.hdr")]):
            assert main(argv + field) == 1
            assert "threads must be >= 1 and an int, got 0" \
                in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["register", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: densereg register")
        assert "densereg register: error: unrecognized arguments: --bogus" \
            in err

    @pytest.mark.parametrize("command, flag", [
        ("register", "--no-mean-field"), ("register", "--report=r.csv"),
        ("evaluate", "--report=r.csv")])
    def test_removed_flags_rejected(self, capsys, command, flag):
        assert main([command, flag]) == 1
        assert f"densereg {command}: error: unrecognized arguments: {flag}" \
            in capsys.readouterr().err

    def test_bad_value_reason_printed(self, capsys):
        assert main(["register", "--grid", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: densereg register")
        assert "densereg register: error: argument --grid: expected one " \
               "int or three comma-separated ints, got 'abc'" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert main(["register"]) == 1
        assert "missing required" in capsys.readouterr().err

    def test_negative_lambda_rejected_without_refine(self, phantom_dir,
                                                     tmp_path, capsys):
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path), "--lambda", "-1"]
                  + REGISTER_ARGS)
        assert rc == 1
        assert "diffusion_weight" in capsys.readouterr().err

    @pytest.mark.parametrize("refine", [[], ["--refine"]])
    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_lambda_rejected(self, phantom_dir, tmp_path, capsys,
                                        weight, refine):
        # A configuration error with or without --refine, caught before
        # the refinement could index the cost at a NaN position.
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path), "--lambda", weight]
                  + refine + REGISTER_ARGS)
        assert rc == 1
        assert "diffusion_weight must be finite" in capsys.readouterr().err

    def test_overflowing_lambda_is_a_numerical_failure(self, phantom_dir,
                                                       tmp_path, capsys):
        # On 12 points per axis the start field's diffusion energy is
        # above 2, so the weight overflows it at once; on 5 it is about
        # 0.1 and only the trials overflow.  Both are a numerical failure,
        # with no numpy warning (the suite turns one into an error).
        for grid in ("12", "5"):
            rc = main(["register",
                       "--fixed", str(phantom_dir / "fixed.hdr"),
                       "--moving", str(phantom_dir / "moving.hdr"),
                       "--out-dir", str(tmp_path / grid), "--lambda", "1e308",
                       "--refine"] + REGISTER_ARGS + ["--grid", grid])
            assert rc == 3
            assert "numerical failure" in capsys.readouterr().err

    def test_label_dims_rejected_before_features(self, phantom_dir, tmp_path,
                                                 capsys, monkeypatch):
        # 16^3 labels with 16x16x12 volumes.
        def unreachable(*args, **kwargs):
            raise AssertionError("feature extraction reached")

        monkeypatch.setattr(pipeline, "extract_ssc", unreachable)
        argv = ["register", "--out-dir", str(tmp_path / "out"),
                "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                "--moving-labels", str(phantom_dir / "moving_labels.hdr")]
        for name in ("fixed", "moving"):
            vol = vio.read_volume(str(phantom_dir / f"{name}.hdr"))
            vio.write_volume(Volume3D(vol.data[:, :, :12]),
                             str(tmp_path / f"{name}.hdr"))
            argv += [f"--{name}", str(tmp_path / f"{name}.hdr")]
        assert main(argv + REGISTER_ARGS) == 1
        assert "label dims (16, 16, 16) differ" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_file_fails_before_registration(self, phantom_dir,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        # An existing file as --out-dir is an I/O error before any stage
        # runs, not after the whole registration.
        def unreachable(*args, **kwargs):
            raise AssertionError("registration reached")

        monkeypatch.setattr(cli, "register_pair", unreachable)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="ascii")
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(taken)] + REGISTER_ARGS)
        assert rc == 2
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text(encoding="ascii") == "not a directory"

    def test_failed_registration_removes_the_dirs_it_made(self, phantom_dir,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        def failing(*args, **kwargs):
            raise ArithmeticError("cost must be finite")

        monkeypatch.setattr(cli, "register_pair", failing)
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path / "new" / "out")]
                  + REGISTER_ARGS)
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_exit_1(self, phantom_dir, tmp_path, capsys,
                                     monkeypatch):
        # A MemoryError from any stage ends in an exit code, not in a
        # traceback, and leaves no output directory behind.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.0 GiB")

        monkeypatch.setattr(cli, "register_pair", exhausted)
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path / "out")] + REGISTER_ARGS)
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: out of memory: Unable to allocate 9.0 GiB\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["register", "--fixed", str(tmp_path / "nope.hdr"),
                   "--moving", str(tmp_path / "nope.hdr"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag, name, code", [
        ("--fixed-labels", "labels.hdr", 2), ("--config", "run.cfg", 1)])
    def test_non_ascii_byte(self, tmp_path, capsys, flag, name, code):
        # Even in a comment: a header is a file I/O error, a config file
        # a configuration error, and both messages name the file.
        path = tmp_path / name
        path.write_bytes(b"# caf\xc3\xa9\ndims=1,1,1\n")
        argv = ["evaluate", flag, str(path)]
        if flag != "--config":
            argv += ["--moving-labels", str(path)]
        assert main(argv) == code
        assert f"error: {path}: not ASCII text: byte 0xc3" \
            in capsys.readouterr().err

    def test_truncated_payload(self, tmp_path, capsys):
        vol = Volume3D(np.zeros((16, 16, 16)))
        vio.write_volume(vol, str(tmp_path / "cut.hdr"))
        raw = tmp_path / "cut.raw"
        raw.write_bytes(read_bytes(raw)[:100])
        rc = main(["register", "--fixed", str(tmp_path / "cut.hdr"),
                   "--moving", str(tmp_path / "cut.hdr"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_nan_payload(self, phantom_dir, tmp_path, capsys):
        # A volume cannot hold NaN, so the payload is written directly.
        vio.write_volume(Volume3D(np.zeros((16, 16, 16))),
                         str(tmp_path / "nan.hdr"))
        (tmp_path / "nan.raw").write_bytes(
            np.full(16 ** 3, np.nan, dtype="<f4").tobytes())
        rc = main(["register", "--fixed", str(tmp_path / "nan.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @staticmethod
    def f32_labels(tmp_path, value):
        """A label file holding f32 data: zeros with ``value`` at one voxel."""
        (tmp_path / "lab.hdr").write_text(
            "dims=16,16,16\ndtype=f32\nkind=label\ndata=lab.raw\n",
            encoding="ascii")
        payload = np.zeros(16 ** 3, dtype="<f4")
        payload[321] = value
        (tmp_path / "lab.raw").write_bytes(payload.tobytes())
        return str(tmp_path / "lab.hdr")

    @pytest.mark.parametrize("command", ["register", "evaluate"])
    @pytest.mark.parametrize("value, code, reason", [
        (np.nan, 3, "finite"), (1.5, 1, "integer values")])
    def test_f32_label_payload_checked(self, phantom_dir, tmp_path, capsys,
                                       command, value, code, reason):
        labels = self.f32_labels(tmp_path, value)
        argv = ["--fixed-labels", labels,
                "--moving-labels", str(phantom_dir / "moving_labels.hdr")]
        if command == "register":
            argv += ["--fixed", str(phantom_dir / "fixed.hdr"),
                     "--moving", str(phantom_dir / "moving.hdr"),
                     "--out-dir", str(tmp_path / "out")]
        rc = main([command] + argv)
        assert rc == code
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", ["nan,1,1", "inf,1,1"])
    def test_non_finite_spacing(self, phantom_dir, tmp_path, capsys, spacing):
        header = read_text(phantom_dir / "fixed.hdr").replace(
            "spacing=1,1,1", f"spacing={spacing}")
        (tmp_path / "fixed.hdr").write_text(header, encoding="ascii")
        (tmp_path / "fixed.raw").write_bytes(read_bytes(phantom_dir /
                                                        "fixed.raw"))
        rc = main(["register", "--fixed", str(tmp_path / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "positive finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_ids_beyond_i16(self, phantom_dir, tmp_path, capsys):
        # Atlas label IDs above 32767 arrive in f32 payloads, and the
        # warped labels go back out in one.
        argv = ["register", "--out-dir", str(tmp_path / "out"),
                "--fixed", str(phantom_dir / "fixed.hdr"),
                "--moving", str(phantom_dir / "moving.hdr")] + REGISTER_ARGS
        for name in ("fixed_labels", "moving_labels"):
            labels = vio.read_volume(str(phantom_dir / f"{name}.hdr")).data
            payload = labels.astype("<f4")
            payload[labels == 1] = 40000
            (tmp_path / f"{name}.raw").write_bytes(payload.tobytes())
            (tmp_path / f"{name}.hdr").write_text(
                f"dims=16,16,16\ndtype=f32\nkind=label\ndata={name}.raw\n",
                encoding="ascii")
            argv += [f"--{name.replace('_', '-')}",
                     str(tmp_path / f"{name}.hdr")]
        assert main(argv) == 0
        out = tmp_path / "out"
        assert "dtype=f32" in read_text(out / "warped_labels.hdr")
        warped = vio.read_volume(str(out / "warped_labels.hdr"))
        assert warped.data.dtype == np.int32 and warped.data.max() == 40000
        assert "dice_label_40000=" in read_text(out / "report.txt")
        capsys.readouterr()

    def test_nan_field_payload(self, phantom_dir, tmp_path, capsys):
        vio.write_field(DisplacementField(np.zeros((16, 16, 16, 3))),
                        str(tmp_path / "field.hdr"))
        payload = np.zeros(16 ** 3 * 3, dtype="<f4")
        payload[1234] = np.nan
        (tmp_path / "field.raw").write_bytes(payload.tobytes())
        rc = main(["evaluate",
                   "--fixed-labels", str(phantom_dir / "fixed_labels.hdr"),
                   "--moving-labels", str(phantom_dir / "moving_labels.hdr"),
                   "--field", str(tmp_path / "field.hdr")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_cost(self, phantom_dir, tmp_path, capsys,
                              monkeypatch):
        def overflowing(cost, params, workers=None):
            # SSC costs lie in [0, 1], so the largest finite output scale
            # is applied twice to make the regularized cost overflow.
            big = replace(params, output_scale=1e308)
            once = regularize(cost, big, workers=workers)
            return regularize(once, replace(big, iterations=0),
                              workers=workers)

        monkeypatch.setattr(pipeline, "regularize", overflowing)
        rc = main(["register",
                   "--fixed", str(phantom_dir / "fixed.hdr"),
                   "--moving", str(phantom_dir / "moving.hdr"),
                   "--out-dir", str(tmp_path)] + REGISTER_ARGS)
        assert rc == 3
        assert "numerical failure: cost tensor must be finite" \
            in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "register" in capsys.readouterr().out


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_zero_field_fails_the_dice_check(self, monkeypatch, capsys):
        # A registration that does not move the labels cannot raise Dice.
        monkeypatch.setattr(pipeline, "expected_displacement",
                            lambda prob, workers=None: DisplacementField(
                                np.zeros(prob.counts + (3,))))
        assert main(["selftest"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert len(failed) == 1 and "above the unregistered Dice" in failed[0]

    def test_run_to_run_difference_fails_the_byte_check(self, monkeypatch,
                                                        capsys):
        # The second registration's field differs by a tiny shift.
        calls = []
        real = pipeline.expected_displacement

        def drifting(prob, workers=None):
            calls.append(prob)
            field = real(prob, workers)
            return DisplacementField(field.vectors + 1e-6 * (len(calls) - 1))

        monkeypatch.setattr(pipeline, "expected_displacement", drifting)
        assert main(["selftest"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert len(failed) == 1 and "byte-identical" in failed[0]

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "densereg.cli",
                               "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "phantom" in proc.stdout

    def test_register_never_imports_scipy(self):
        # A fresh interpreter: the command line and a whole register run
        # load no scipy; only the intensity-gradient extractor does.
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import densereg, densereg.cli",
            "assert densereg.cli.main(['selftest']) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
            "from densereg.features import extract_intensity_gradient",
            "vol = densereg.Volume3D(np.arange(216.0).reshape(6, 6, 6))",
            "print(extract_intensity_gradient(vol).channels)",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "4"]
