"""Dice overlap, Jacobian statistics, and report serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densereg import parallel
from densereg.geometry import DisplacementField, Volume3D, axis_centers
from densereg.metrics import RegistrationReport, dice, jacobian_stats, mean_dice

from oracles import lu_jacobian_stats, naive_dice, naive_jacobian


def label_volume(data):
    return Volume3D(np.asarray(data), is_label=True)


class TestDice:
    def test_identical_volumes_score_one(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 4, size=(8, 8, 8))
        scores = dice(label_volume(data), label_volume(data.copy()))
        assert set(scores) == {1, 2, 3}
        for v in scores.values():
            assert v == 1.0

    def test_disjoint_volumes_score_zero(self):
        a = np.zeros((6, 6, 6), dtype=np.int32)
        b = np.zeros((6, 6, 6), dtype=np.int32)
        a[:3] = 1
        b[3:] = 1
        scores = dice(label_volume(a), label_volume(b))
        assert scores == {1: 0.0}

    def test_half_overlap_cube(self):
        # 10x10x10 cubes offset by 5 along one axis: intersection 500,
        # denominator 2000, dice 0.5.
        a = np.zeros((20, 20, 20), dtype=np.int32)
        b = np.zeros((20, 20, 20), dtype=np.int32)
        a[0:10, 0:10, 0:10] = 7
        b[5:15, 0:10, 0:10] = 7
        scores = dice(label_volume(a), label_volume(b))
        assert scores[7] == pytest.approx(2.0 * 500 / 2000, abs=0.0)

    def test_label_missing_from_one_volume(self):
        a = np.zeros((5, 5, 5), dtype=np.int32)
        a[2, 2, 2] = 3
        b = np.zeros((5, 5, 5), dtype=np.int32)
        scores = dice(label_volume(a), label_volume(b))
        assert scores[3] == 0.0

    def test_default_labels_are_sorted_nonzero_union(self):
        a = np.zeros((5, 5, 5), dtype=np.int32)
        b = np.zeros((5, 5, 5), dtype=np.int32)
        a[0, 0, 0] = 4
        b[1, 1, 1] = 2
        scores = dice(label_volume(a), label_volume(b))
        assert list(scores) == [2, 4]

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, size=(9, 9, 9))
        b = rng.integers(0, 5, size=(9, 9, 9))
        assert dice(label_volume(a), label_volume(b)) == \
            dice(label_volume(b), label_volume(a))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 6, size=(7, 8, 9))
        b = rng.integers(0, 6, size=(7, 8, 9))
        scores = dice(label_volume(a), label_volume(b))
        for lab, got in scores.items():
            assert got == pytest.approx(naive_dice(a, b, lab), abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        a = label_volume(np.zeros((5, 5, 5), dtype=np.int32))
        b = label_volume(np.zeros((5, 5, 6), dtype=np.int32))
        with pytest.raises(ValueError, match="mismatch"):
            dice(a, b)

    def test_intensity_volumes_rejected(self):
        a = Volume3D(np.zeros((5, 5, 5)))
        b = label_volume(np.zeros((5, 5, 5), dtype=np.int32))
        with pytest.raises(ValueError, match="label"):
            dice(a, b)

    def test_mean_of_no_defined_labels_is_nan(self):
        assert np.isnan(mean_dice({}))


def linear_field(dims, slope):
    """Displacement phi_c(x) = slope * x_c on a voxel-center grid."""
    grids = np.meshgrid(*[axis_centers(n) for n in dims], indexing="ij")
    return DisplacementField(slope * np.stack(grids, axis=-1))


class TestJacobianStats:
    def test_zero_field_identity(self):
        std, folding = jacobian_stats(DisplacementField(np.zeros((6, 7, 8, 3))))
        assert std == 0.0
        assert folding == 0.0

    def test_linear_field_constant_determinant(self):
        # phi = a x per axis gives det (1 + a)^3 at every interior voxel,
        # so the population std vanishes and nothing folds for a > -1.
        std, folding = jacobian_stats(linear_field((8, 8, 8), 0.1))
        assert std == pytest.approx(0.0, abs=1e-12)
        assert folding == 0.0

    def test_strong_contraction_folds_everywhere(self):
        # a = -1.5 gives det (1 - 1.5)^3 = -0.125 <= 0 at every voxel.
        _, folding = jacobian_stats(linear_field((8, 8, 8), -1.5))
        assert folding == 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        vectors = 0.05 * rng.standard_normal((6, 5, 7, 3))
        std, folding = jacobian_stats(DisplacementField(vectors))
        dets = naive_jacobian(vectors)
        assert std == pytest.approx(dets.std(), abs=1e-12)
        share = np.count_nonzero(dets <= 0.0) / dets.size
        assert folding == pytest.approx(share, abs=0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        vectors = 0.03 * rng.standard_normal((6, 6, 6, 3))
        base = jacobian_stats(DisplacementField(vectors))
        shifted = jacobian_stats(DisplacementField(vectors + 0.17))
        assert shifted[0] == pytest.approx(base[0], abs=1e-12)
        assert shifted[1] == base[1]

    def test_requires_three_voxels_per_axis(self):
        with pytest.raises(ValueError, match="3 voxels"):
            jacobian_stats(DisplacementField(np.zeros((2, 5, 5, 3))))


class TestSlabJacobian:
    """Slab-by-slab cofactor determinants against the whole-volume LU
    oracle, for several slab sizes and worker counts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(3, 9)] * 3),
           slab=st.sampled_from((1, 20, 1 << 15)),
           magnitude=st.sampled_from((0.0, 0.02, 0.3, 1.5)))
    def test_matches_lu_oracle(self, seed, dims, slab, magnitude):
        # Magnitudes 0.3 and 1.5 fold a large share of the voxels.
        rng = np.random.default_rng(seed)
        field = DisplacementField(rng.normal(size=dims + (3,)) * magnitude)
        want_std, want_folding = lu_jacobian_stats(field)
        with pytest.MonkeyPatch.context() as mp:
            # One plane per slab at slab=1.
            mp.setattr(parallel, "SLAB_VOXELS", slab)
            results = [jacobian_stats(field, workers=w) for w in (1, 2, 3)]
        for got in results[1:]:
            assert np.array(got).tobytes() == np.array(results[0]).tobytes()
        std, folding = results[0]
        assert abs(std - want_std) <= 1e-13 * max(1.0, want_std)
        assert folding == want_folding


class TestRegistrationReport:
    def make(self, runtimes):
        return RegistrationReport(
            per_label_dice={2: 0.5, 1: 0.875},
            std_jac=0.0625,
            folding_fraction=0.0,
            runtimes=runtimes,
            notes={"seed": "3", "grid": "16,16,16"},
        )

    def test_text_layout(self):
        text = self.make({}).to_text()
        lines = text.splitlines()
        assert lines[0] == "dice_label_1=0.875"
        assert lines[1] == "dice_label_2=0.5"
        assert lines[2] == "dice_mean=0.6875"
        assert lines[3] == "std_jac=0.0625"
        assert lines[4] == "folding_fraction=0"
        assert "jacobian_units=voxel" in lines
        assert "field_units=normalized" in lines
        # Notes come last, sorted by key.
        assert lines[-2] == "grid=16,16,16"
        assert lines[-1] == "seed=3"
        assert text.endswith("\n")

    def test_runtimes_never_reach_report_bytes(self):
        fast = self.make({"features": 0.01, "warp": 0.002})
        slow = self.make({"features": 7.77, "warp": 3.21})
        assert fast.to_text() == slow.to_text()
        assert fast.timings_text() != slow.timings_text()

    def test_timings_text(self):
        text = self.make({"features": 0.25}).timings_text()
        assert text == "features=0.25\n"
        assert self.make({}).timings_text() == ""

    def test_float_formatting_is_stable(self):
        rep = RegistrationReport(per_label_dice={1: 1 / 3},
                                 std_jac=1234.56789123,
                                 folding_fraction=1e-12)
        text = rep.to_text()
        assert "dice_label_1=0.333333333" in text
        assert "std_jac=1234.56789" in text
        assert "folding_fraction=1e-12" in text

    def test_mean_dice_property(self):
        rep = RegistrationReport(per_label_dice={1: 0.5, 2: 1.0})
        assert rep.mean_dice == 0.75
