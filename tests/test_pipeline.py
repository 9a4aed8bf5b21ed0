"""End-to-end behaviour of register_pair on small synthetic inputs.

These are integration checks: each one runs the full stage chain (features,
correlation, regularization, transform extraction, optional refinement) on
volumes small enough to keep the suite fast.  Accuracy at realistic sizes
is covered by the acceptance tests.
"""

import numpy as np
import pytest

from densereg.geometry import DisplacementSpace, Volume3D
from densereg.phantom import PhantomSpec, generate
from densereg.pipeline import register_pair
from densereg.refine import RefineConfig
from densereg.regularizer import RegularizerParams
from densereg.transform import RegistrationConfig


def small_config(grid=6, steps=7):
    return RegistrationConfig(grid_counts=(grid,) * 3,
                              space=DisplacementSpace(0.4, steps))


@pytest.fixture(scope="module")
def translation_pair():
    spec = PhantomSpec(seed=11, dims=(24, 24, 24), organs=3,
                       deformation="translation", magnitude=0.1,
                       noise_sigma=0.01)
    return generate(spec)


class TestSelfRegistration:
    def test_identical_volumes_give_near_zero_field(self, translation_pair):
        pair = translation_pair
        cfg = small_config()
        res = register_pair(pair.fixed, pair.fixed, cfg,
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.fixed_labels)
        # All cost rows have their minimum at zero displacement, so the
        # expected displacement must stay well under one lattice spacing.
        spacing = 2 * cfg.space.q / (cfg.space.steps[0] - 1)
        assert np.abs(res.control_field.vectors).mean() < spacing
        assert res.report.mean_dice >= 0.99

    def test_warped_volume_close_to_fixed(self, translation_pair):
        pair = translation_pair
        res = register_pair(pair.fixed, pair.fixed, small_config())
        # Warping by a near-zero field reproduces the input up to
        # interpolation error.
        err = np.abs(res.warped.data - pair.fixed.data).mean()
        assert err < 0.02


class TestTranslationRecovery:
    def test_interior_points_recover_shift(self, translation_pair):
        pair = translation_pair
        cfg = small_config()
        res = register_pair(pair.fixed, pair.moving, cfg,
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.moving_labels)
        inner = (slice(1, -1),) * 3
        truth = pair.truth.vectors[0, 0, 0]
        err = np.abs(res.control_field.vectors[inner] - truth).mean()
        spacing = 2 * cfg.space.q / (cfg.space.steps[0] - 1)
        assert err <= spacing

    def test_dice_improves_over_identity(self, translation_pair):
        pair = translation_pair
        from densereg.metrics import dice, mean_dice
        before = mean_dice(dice(pair.fixed_labels, pair.moving_labels))
        res = register_pair(pair.fixed, pair.moving, small_config(),
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.moving_labels)
        assert res.report.mean_dice > before


class TestReportContents:
    def test_notes_and_timings_keys(self, translation_pair):
        pair = translation_pair
        cfg = small_config()
        res = register_pair(pair.fixed, pair.moving, cfg,
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.moving_labels)
        notes = res.report.notes
        for key in ("feature", "grid", "capture_range", "steps",
                    "mean_field_iterations", "refine_steps", "flop_estimate",
                    "label_loss", "label_loss_kind"):
            assert key in notes, key
        assert notes["grid"] == "6,6,6"
        assert notes["refine_steps"] == "0"
        assert notes["label_loss_kind"] == "nonlocal"
        # The diffusion weight is only read by the refinement.
        assert "lambda" not in notes
        for stage in ("features", "correlation", "regularization",
                      "transform"):
            assert stage in res.report.runtimes, stage
        # Runtimes never leak into the serialized report.
        assert "features" not in res.report.to_text()

    def test_no_labels_path(self, translation_pair):
        pair = translation_pair
        res = register_pair(pair.fixed, pair.moving, small_config())
        assert res.warped_labels is None
        assert res.report.per_label_dice == {}
        assert "label_loss" not in res.report.notes
        assert np.isnan(res.report.mean_dice) or res.report.per_label_dice == {}

    def test_flop_note_matches_helper(self, translation_pair):
        from densereg.correlation import flop_estimate
        from densereg.features import extract_ssc
        from densereg.geometry import ControlGrid
        pair = translation_pair
        cfg = small_config()
        res = register_pair(pair.fixed, pair.moving, cfg)
        feat = extract_ssc(pair.fixed)
        want = flop_estimate(ControlGrid(cfg.grid_counts), cfg.space,
                             feat.channels)
        assert res.report.notes["flop_estimate"] == str(want)


class TestRefinementPath:
    def test_energies_recorded_and_nonincreasing(self, translation_pair):
        pair = translation_pair
        cfg = small_config()
        res = register_pair(pair.fixed, pair.moving, cfg,
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.moving_labels,
                            refinement=RefineConfig(steps=10, step_size=0.05,
                                                    diffusion_weight=1.5))
        assert res.refine_energies is not None
        e = np.asarray(res.refine_energies)
        assert e.ndim == 1 and e.size >= 1
        # Step halving rejects increases, so the recorded trace is monotone.
        assert np.all(np.diff(e) <= 1e-12)
        assert res.report.notes["refine_steps"] == "10"
        assert res.report.notes["lambda"] == "1.5"

    def test_zero_steps_keeps_feedforward_field(self, translation_pair):
        pair = translation_pair
        cfg = small_config()
        plain = register_pair(pair.fixed, pair.moving, cfg)
        frozen = register_pair(pair.fixed, pair.moving, cfg,
                               refinement=RefineConfig(steps=0))
        assert np.array_equal(plain.control_field.vectors,
                              frozen.control_field.vectors)


class TestConfigVariants:
    def test_zero_iterations_disables_mean_field(self, translation_pair):
        pair = translation_pair
        params = RegularizerParams(iterations=0)
        cfg = RegistrationConfig(grid_counts=(6, 6, 6),
                                 space=DisplacementSpace(0.4, 7),
                                 reg_params=params)
        res = register_pair(pair.fixed, pair.moving, cfg)
        assert res.report.notes["mean_field_iterations"] == "0"

    def test_intensity_gradient_feature(self, translation_pair):
        pair = translation_pair
        cfg = RegistrationConfig(grid_counts=(6, 6, 6),
                                 space=DisplacementSpace(0.4, 7),
                                 feature="intensity-gradient")
        res = register_pair(pair.fixed, pair.moving, cfg)
        assert res.report.notes["feature"] == "intensity-gradient"


class TestInputValidation:
    def test_dims_mismatch_rejected(self, translation_pair):
        pair = translation_pair
        other = Volume3D(np.zeros((16, 16, 16)))
        with pytest.raises(ValueError):
            register_pair(pair.fixed, other, small_config())

    def test_label_dims_mismatch_rejected(self, translation_pair):
        pair = translation_pair
        bad = Volume3D(np.zeros((16, 16, 16), dtype=np.int32), is_label=True)
        with pytest.raises(ValueError):
            register_pair(pair.fixed, pair.moving, small_config(),
                          fixed_labels=bad, moving_labels=bad)

    def test_nan_input_raises_arithmetic_error(self, translation_pair):
        pair = translation_pair
        data = pair.moving.data.copy()
        data[3, 3, 3] = np.nan
        with pytest.raises(ArithmeticError):
            register_pair(pair.fixed, Volume3D(data), small_config())

    def test_labels_on_one_side_only_rejected(self, translation_pair):
        pair = translation_pair
        with pytest.raises(ValueError):
            register_pair(pair.fixed, pair.moving, small_config(),
                          fixed_labels=pair.fixed_labels)
