"""Seeded phantom generator: reproducibility and ground-truth invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densereg import parallel, phantom
from densereg.geometry import DisplacementField
from densereg.metrics import dice, jacobian_stats, mean_dice
from densereg.phantom import CounterRandom, PhantomSpec, generate
from densereg.transform import upsample_field, warp
from oracles import whole_volume_inverse_field, whole_volume_warp

_M64 = (1 << 64) - 1


def reference_uniform(seed, index):
    """The documented counter update rule, in plain Python integers."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z = z ^ (z >> 31)
    return (z >> 11) * 2.0 ** -53


class TestCounterRandom:
    def test_matches_documented_update_rule(self):
        for seed in (0, 1, 42, 2**63 + 17):
            got = CounterRandom(seed).uniform(20)
            want = [reference_uniform(seed, i) for i in range(20)]
            assert got.tolist() == want

    def test_stream_continues_across_calls(self):
        rng = CounterRandom(7)
        split = np.concatenate([rng.uniform(3), rng.uniform(5)])
        whole = CounterRandom(7).uniform(8)
        assert split.tolist() == whole.tolist()

    def test_uniform_range_and_spread(self):
        vals = CounterRandom(123).uniform(20000)
        assert vals.min() >= 0.0
        assert vals.max() < 1.0
        assert abs(vals.mean() - 0.5) < 0.01

    def test_jump_derives_independent_named_streams(self):
        root = CounterRandom(99)
        a = root.jump("organs").uniform(10)
        b = root.jump("noise").uniform(10)
        assert not np.array_equal(a, b)
        again = CounterRandom(99).jump("organs").uniform(10)
        assert a.tolist() == again.tolist()
        # Deriving a stream leaves the parent untouched.
        assert root.uniform(3).tolist() == CounterRandom(99).uniform(3).tolist()

    def test_normal_is_boxmuller_over_the_uniform_stream(self):
        raw = CounterRandom(5).uniform(4)
        r = np.sqrt(-2.0 * np.log(1.0 - raw[:2]))
        want = np.concatenate([r * np.cos(2.0 * np.pi * raw[2:]),
                               r * np.sin(2.0 * np.pi * raw[2:])])
        got = CounterRandom(5).normal(4)
        assert got.tolist() == want.tolist()
        # Odd counts truncate the second half.
        assert CounterRandom(5).normal(3).tolist() == want[:3].tolist()

    def test_normal_moments(self):
        vals = CounterRandom(2024).normal(20000)
        assert abs(vals.mean()) < 0.03
        assert abs(vals.std() - 1.0) < 0.03


class TestPhantomSpec:
    def test_scalar_dims_become_cube(self):
        assert PhantomSpec(dims=16).dims == (16, 16, 16)

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError, match="dims"):
            PhantomSpec(dims=(64, 4, 64))

    def test_rejects_unknown_deformation(self):
        with pytest.raises(ValueError, match="deformation"):
            PhantomSpec(deformation="rigid")

    def test_rejects_magnitude_outside_capture_range(self):
        with pytest.raises(ValueError, match="magnitude"):
            PhantomSpec(magnitude=0.4)
        with pytest.raises(ValueError, match="magnitude"):
            PhantomSpec(magnitude=-0.1)
        assert PhantomSpec(magnitude=0.399).magnitude == 0.399

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="organ"):
            PhantomSpec(organs=0)
        with pytest.raises(ValueError, match="noise"):
            PhantomSpec(noise_sigma=-0.01)


class TestGenerate:
    def test_same_spec_is_bit_identical(self):
        spec = PhantomSpec(seed=4, dims=(24, 24, 24), deformation="smooth-random")
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.fixed.data, b.fixed.data)
        assert np.array_equal(a.moving.data, b.moving.data)
        assert np.array_equal(a.fixed_labels.data, b.fixed_labels.data)
        assert np.array_equal(a.moving_labels.data, b.moving_labels.data)
        assert np.array_equal(a.truth.vectors, b.truth.vectors)

    def test_different_seeds_differ(self):
        a = generate(PhantomSpec(seed=0, dims=(16, 16, 16)))
        b = generate(PhantomSpec(seed=1, dims=(16, 16, 16)))
        assert not np.array_equal(a.fixed.data, b.fixed.data)
        assert not np.array_equal(a.truth.vectors, b.truth.vectors)

    def test_zero_magnitude_means_identity(self):
        pair = generate(PhantomSpec(seed=2, dims=(16, 16, 16), magnitude=0.0))
        assert np.all(pair.truth.vectors == 0.0)
        assert np.array_equal(pair.fixed_labels.data, pair.moving_labels.data)
        # Independent noise still separates the intensity volumes.
        assert not np.array_equal(pair.fixed.data, pair.moving.data)

    def test_zero_magnitude_zero_noise_is_the_same_volume(self):
        pair = generate(PhantomSpec(seed=2, dims=(16, 16, 16), magnitude=0.0,
                                    noise_sigma=0.0))
        assert np.array_equal(pair.fixed.data, pair.moving.data)

    def test_labels_are_flagged_and_bounded(self):
        pair = generate(PhantomSpec(seed=1, dims=(16, 16, 16), organs=3))
        assert pair.fixed_labels.is_label
        assert pair.moving_labels.is_label
        present = set(np.unique(pair.fixed_labels.data))
        assert present <= {0, 1, 2, 3}
        assert len(present) > 1

    def test_translation_magnitude_is_exact(self):
        pair = generate(PhantomSpec(seed=3, dims=(16, 16, 16), magnitude=0.25))
        comps = np.abs(pair.truth.vectors).max(axis=(0, 1, 2))
        assert comps.max() == pytest.approx(0.25, abs=1e-12)
        # A translation is constant over the volume.
        assert np.ptp(pair.truth.vectors, axis=(0, 1, 2)).max() == 0.0

    def test_smooth_random_magnitude_is_bounded(self):
        pair = generate(PhantomSpec(seed=3, dims=(16, 16, 16), magnitude=0.25,
                                    deformation="smooth-random"))
        biggest = np.abs(pair.truth.vectors).max()
        assert biggest <= 0.25 + 1e-12
        assert biggest > 0.125

    def test_folding_specs_are_rejected(self, monkeypatch):
        # A shift of 1.9 normalized units along axis 0 on one half of the
        # volume and none on the other folds at the seam.
        def folding_field(spec, rng):
            vecs = np.zeros(spec.dims + (3,))
            vecs[spec.dims[0] // 2:, ..., 0] = -1.9
            return DisplacementField(vecs)

        monkeypatch.setattr(phantom, "_truth_field", folding_field)
        with pytest.raises(RuntimeError, match="fold"):
            generate(PhantomSpec(seed=0, dims=(16, 16, 16)))

    @pytest.mark.parametrize("mode", ["translation", "smooth-random"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ground_truth_invariants(self, mode, seed):
        # The pair must start clearly misaligned, the truth field must not
        # fold, and warping the moving labels by the truth field must
        # recover the fixed labels almost perfectly.
        pair = generate(PhantomSpec(seed=seed, dims=(48, 48, 48),
                                    deformation=mode, magnitude=0.2))
        initial = mean_dice(dice(pair.fixed_labels, pair.moving_labels))
        assert initial <= 0.6
        recovered = warp(pair.moving_labels, pair.truth)
        final = mean_dice(dice(pair.fixed_labels, recovered))
        assert final >= 0.97
        _, folding = jacobian_stats(pair.truth)
        assert folding == 0.0


@pytest.mark.parametrize("deformation", ["translation", "smooth-random"])
def test_generate_unchanged_by_slab_warp(deformation, monkeypatch):
    # Extents that no slab size divides evenly; each warp and each
    # inverse-field iteration here spans several slabs.
    spec = PhantomSpec(seed=5, dims=(44, 36, 40), organs=4,
                       deformation=deformation, magnitude=0.15)
    got = generate(spec)
    monkeypatch.setattr(phantom, "warp", whole_volume_warp)
    monkeypatch.setattr(phantom, "_inverse_field", whole_volume_inverse_field)
    want = generate(spec)
    for name in ("fixed", "fixed_labels", "moving", "moving_labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.data.dtype == b.data.dtype
        assert a.data.tobytes() == b.data.tobytes()
    assert got.truth.vectors.tobytes() == want.truth.vectors.tobytes()


class TestSlabInverseField:
    """The slab-by-slab fixed-point inverse equals the whole-volume
    iteration byte for byte, including where it stops early."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16),
           dims=st.tuples(*[st.integers(2, 9)] * 3),
           slab=st.sampled_from((1, 20, 1 << 15)),
           magnitude=st.sampled_from((0.0, 0.05, 0.3)),
           smooth=st.booleans(),
           iterations=st.integers(1, 40),
           tol=st.sampled_from((1e-12, 1e-6, 1e-2)))
    def test_matches_whole_volume(self, seed, dims, slab, magnitude, smooth,
                                  iterations, tol):
        rng = np.random.default_rng(seed)
        if smooth:
            coarse = rng.normal(size=(3, 3, 3, 3)) * magnitude
            truth = upsample_field(DisplacementField(coarse), dims)
        else:
            # A constant field converges within a few iterations.
            truth = DisplacementField(np.broadcast_to(
                rng.normal(size=3) * magnitude, dims + (3,)))
        want = whole_volume_inverse_field(truth, iterations, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "SLAB_VOXELS", slab)
            got = phantom._inverse_field(truth, iterations, tol)
        assert got.vectors.tobytes() == want.vectors.tobytes()
