"""Plane-parallel evaluation: the helper itself, and property tests that
the SSC features and every 6D tensor stage give bit-identical results for
any worker count."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densereg import parallel
from densereg.correlation import CostTensor6D, dissimilarity_tensor
from densereg.features import FeatureVolume, extract_ssc
from densereg.geometry import DisplacementSpace, Volume3D
from densereg.parallel import map_planes, map_slabs, resolve_workers
from densereg.regularizer import RegularizerParams, regularize
from densereg.transform import nonlocal_label_loss, softmax_probabilities
from oracles import full_resolution_ssc

WORKERS = (1, 2, 3)
PROPERTY = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def thread_every_plane():
    """The inputs here are tiny; hand every plane to the workers anyway so
    the threaded path is the one under test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 0)
        yield


class TestResolveWorkers:
    def test_default_is_usable_cores(self):
        assert resolve_workers() == len(os.sched_getaffinity(0))

    def test_explicit_count_kept(self):
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -2])
    def test_below_one_rejected(self, bad):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            resolve_workers(bad)


class TestMapPlanes:
    def test_results_in_plane_order(self):
        assert map_planes(lambda i: i * i, np.zeros((7, 2)), 0, workers=3) \
            == [i * i for i in range(7)]

    def test_planes_along_other_axis(self):
        assert map_planes(lambda i: -i, np.zeros((3, 2, 4)), 2,
                          workers=5) == [0, -1, -2, -3]

    def test_no_planes(self):
        assert map_planes(lambda i: i, np.zeros((0, 3)), 0, workers=2) == []

    def test_small_planes_stay_on_calling_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 1 << 19)
        planes = np.zeros((4, 1 << 15))     # 256 KiB per plane
        caller = threading.get_ident()
        assert set(map_planes(lambda i: threading.get_ident(), planes, 0,
                              workers=2)) == {caller}

    def test_uses_several_threads(self):
        barrier = threading.Barrier(2, timeout=10)

        def plane(i):
            # Both planes must be in flight at once to pass the barrier.
            barrier.wait()
            return threading.get_ident()

        assert len(set(map_planes(plane, np.zeros(2), 0, workers=2))) == 2

    def test_plane_bytes_overrides_plane_size(self, monkeypatch):
        # Tiny planes whose tasks touch more memory than the threshold.
        monkeypatch.setattr(parallel, "MIN_THREADED_PLANE_BYTES", 1 << 19)
        barrier = threading.Barrier(2, timeout=10)

        def plane(i):
            barrier.wait()
            return threading.get_ident()

        assert len(set(map_planes(plane, np.zeros(2), 0, workers=2,
                                  plane_bytes=1 << 20))) == 2
        caller = threading.get_ident()
        assert set(map_planes(lambda i: threading.get_ident(),
                              np.zeros((2, 1 << 17)), 0, workers=2,
                              plane_bytes=1 << 10)) == {caller}

    def test_plane_error_propagates(self):
        def plane(i):
            if i == 3:
                raise ArithmeticError("plane 3")
            return i

        with pytest.raises(ArithmeticError, match="plane 3"):
            map_planes(plane, np.zeros(5), 0, workers=2)

    def test_tasks_run_under_callers_error_state(self):
        with np.errstate(over="raise", under="ignore"):
            states = map_planes(lambda i: np.geterr(), np.zeros((4, 2)), 0,
                                workers=2)
        assert all(s["over"] == "raise" and s["under"] == "ignore"
                   for s in states)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_caller_overflow_raise_reaches_regularize(self, workers):
        """A caller's ``over="raise"`` raises in every plane task, so the
        error does not depend on the worker count."""
        cost = CostTensor6D(np.full((5, 3, 3, 3, 3, 3), 10.0),
                            DisplacementSpace(0.3, 3))
        params = RegularizerParams(output_scale=1e308, iterations=1,
                                   spatial_kernel=3)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            regularize(cost, params, workers=workers)


class TestMapSlabs:
    def test_slabs_cover_axis_in_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "SLAB_VOXELS", 30)
        got = map_slabs(lambda s: (s.start, s.stop), (7, 3, 4), workers=3)
        assert got == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_plane_over_budget_is_one_slab(self, monkeypatch):
        monkeypatch.setattr(parallel, "SLAB_VOXELS", 5)
        got = map_slabs(lambda s: (s.start, s.stop), (3, 3, 4), workers=2)
        assert got == [(0, 1), (1, 2), (2, 3)]

    def test_no_planes(self):
        assert map_slabs(lambda s: s, (0, 4, 4), workers=2) == []

    def test_slab_count_chooses_threads(self):
        """At the shipped constants, a volume of two or more slabs runs on
        the workers and a single slab on the caller."""
        assert parallel.SLAB_VOXELS == 1 << 15
        barrier = threading.Barrier(2, timeout=10)

        def slab(s):
            barrier.wait()
            return threading.get_ident()

        # 128 x 128 planes: two per slab, so 3 planes make 2 slabs.
        assert len(set(map_slabs(slab, (3, 128, 128), workers=2))) == 2
        caller = threading.get_ident()
        for shape in ((2, 128, 128), (4, 5, 6)):
            assert set(map_slabs(lambda s: threading.get_ident(), shape,
                                 workers=2)) == {caller}


# Grids of 2-5 points per axis plus extent-1 axes; plane counts such as 5
# do not divide by 2 or 3 workers.
counts = st.tuples(*[st.integers(1, 5)] * 3)
steps = st.tuples(*[st.sampled_from((1, 3, 5))] * 3)


def random_features(rng, channels, dims):
    data = rng.normal(size=(channels,) + dims)
    origin = tuple(-1.0 + 1.0 / n for n in dims)
    step = tuple(2.0 / n for n in dims)
    return FeatureVolume(data, origin, step)


def random_cost(seed, grid_counts, disp_steps):
    rng = np.random.default_rng(seed)
    space = DisplacementSpace(0.3, disp_steps)
    values = rng.uniform(0.0, 2.0, size=grid_counts + space.steps)
    return CostTensor6D(values, space)


def assert_same_for_all_workers(compute):
    results = [compute(w) for w in WORKERS]
    for got in results[1:]:
        assert np.asarray(got).tobytes() == np.asarray(results[0]).tobytes()


class TestWorkerCountIndependence:
    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           channels=st.integers(1, 3))
    def test_dissimilarity_tensor(self, seed, grid_counts, disp_steps,
                                  channels):
        rng = np.random.default_rng(seed)
        fixed = random_features(rng, channels, (5, 4, 6))
        moving = random_features(rng, channels, (5, 4, 6))
        space = DisplacementSpace(0.3, disp_steps)
        assert_same_for_all_workers(
            lambda w: dissimilarity_tensor(fixed, moving, grid_counts, space,
                                           workers=w).values)

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           iterations=st.integers(0, 3),
           output_scale=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
           spatial=st.sampled_from((1, 3)))
    def test_regularize(self, seed, grid_counts, disp_steps, iterations,
                        output_scale, spatial):
        cost = random_cost(seed, grid_counts, disp_steps)
        # A 3-wide spatial kernel needs extents of 1 or >= 3.
        if any(c == 2 for c in grid_counts):
            spatial = 1
        params = RegularizerParams(output_scale=output_scale,
                                   iterations=iterations,
                                   spatial_kernel=spatial)
        assert_same_for_all_workers(
            lambda w: regularize(cost, params, workers=w).values)

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           temperature=st.floats(0.1, 50.0))
    def test_softmax_probabilities(self, seed, grid_counts, disp_steps,
                                   temperature):
        cost = random_cost(seed, grid_counts, disp_steps)
        assert_same_for_all_workers(
            lambda w: softmax_probabilities(cost, temperature,
                                            workers=w).values)

    @PROPERTY
    @given(seed=st.integers(0, 2**16), grid_counts=counts, disp_steps=steps,
           ids=st.lists(st.integers(0, 2035), min_size=1, max_size=4,
                        unique=True))
    def test_nonlocal_label_loss(self, seed, grid_counts, disp_steps, ids):
        rng = np.random.default_rng(seed)
        prob = softmax_probabilities(
            random_cost(seed, grid_counts, disp_steps), 3.0, workers=1)
        ids = np.array([0] + ids)
        moving = Volume3D(ids[rng.integers(0, ids.size, size=(6, 5, 7))],
                          is_label=True)
        fixed = Volume3D(ids[rng.integers(0, ids.size, size=(6, 5, 7))],
                         is_label=True)
        num_classes = int(ids.max()) + 1
        assert_same_for_all_workers(
            lambda w: nonlocal_label_loss(prob, moving, fixed, num_classes,
                                          workers=w))


class TestStridedSSC:
    """The strided, per-channel SSC equals the full-resolution computation
    subsampled afterwards, bit for bit, for every worker count."""

    @PROPERTY
    @given(seed=st.integers(0, 2**16), radius=st.integers(0, 2),
           stride=st.integers(1, 4), extra=st.tuples(*[st.integers(0, 6)] * 3),
           scale=st.sampled_from((1.0, 1e-6, 1e6)),
           constant_block=st.booleans())
    def test_matches_full_resolution(self, seed, radius, stride, extra,
                                     scale, constant_block):
        rng = np.random.default_rng(seed)
        # Smallest legal extent upwards, so most extents are not
        # multiples of the stride.
        dims = tuple(2 * radius + 3 + e for e in extra)
        data = rng.normal(size=dims) * scale
        if constant_block:
            data[: dims[0] // 2] = 1.5
        vol = Volume3D(data)
        want = full_resolution_ssc(vol, patch_radius=radius, stride=stride)
        for w in WORKERS:
            got = extract_ssc(vol, patch_radius=radius, stride=stride,
                              workers=w)
            assert got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()
            assert (got.origin, got.step) == (want.origin, want.step)
