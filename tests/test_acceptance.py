"""Shipping acceptance criteria, one test per requirement.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Criteria 3, 4 and 7 share one five-seed phantom suite
built by a module fixture; the first of them to run pays its cost.

The suite settings (five smooth-random phantoms, 64 voxels per axis,
deformation magnitude 0.25, noise 0.02, five organs, a 16 per-axis control
grid, capture range 0.4 with 15 steps, diffusion weight 1.5) are the
reference configuration for the quantitative thresholds; demos/tune_alphas.py
reproduces the parameter search behind the library defaults on the same
suite.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from densereg.correlation import (CostTensor6D, dissimilarity_tensor,
                                  flop_estimate)
from densereg.features import FeatureVolume
from densereg.geometry import DisplacementSpace, Volume3D, axis_centers
from densereg.metrics import dice, mean_dice
from densereg.phantom import PhantomSpec, generate
from densereg.pipeline import register_pair
from densereg.refine import RefineConfig, field_energy, field_energy_grad
from densereg.regularizer import RegularizerParams, min_convolution
from densereg.transform import RegistrationConfig, softmax_probabilities
from oracles import (exact_lower_envelope, lower_envelope_3d,
                     naive_dissimilarity, naive_lower_envelope)

SUITE_SEEDS = (0, 1, 2, 3, 4)
SUITE_GRID = (16, 16, 16)


def suite_config(**overrides):
    kwargs = {"grid_counts": SUITE_GRID,
              "space": DisplacementSpace(0.4, 15)}
    kwargs.update(overrides)
    return RegistrationConfig(**kwargs)


@pytest.fixture(scope="module")
def phantom_suite():
    """Plain, refined and no-mean-field runs over five seeded phantoms.

    Only scalar summaries and the refinement energy traces are kept so the
    volumes and cost tensors are freed between seeds.
    """
    runs = []
    for seed in SUITE_SEEDS:
        spec = PhantomSpec(seed=seed, dims=(64, 64, 64), organs=5,
                           deformation="smooth-random", magnitude=0.25,
                           noise_sigma=0.02)
        pair = generate(spec)
        init = mean_dice(dice(pair.fixed_labels, pair.moving_labels))
        labels = {"fixed_labels": pair.fixed_labels,
                  "moving_labels": pair.moving_labels}

        plain = register_pair(pair.fixed, pair.moving, suite_config(),
                              **labels)
        refined = register_pair(pair.fixed, pair.moving, suite_config(),
                                refinement=RefineConfig(diffusion_weight=1.5),
                                **labels)
        nomf = register_pair(
            pair.fixed, pair.moving,
            suite_config(reg_params=RegularizerParams(iterations=0)),
            **labels)

        runs.append(SimpleNamespace(
            seed=seed,
            init=init,
            plain_dice=plain.report.mean_dice,
            plain_folding=plain.report.folding_fraction,
            refined_dice=refined.report.mean_dice,
            refined_folding=refined.report.folding_fraction,
            refine_energies=np.asarray(refined.refine_energies),
            nomf_dice=nomf.report.mean_dice))
    return runs


def test_criterion_01_probability_normalization():
    # 50 seeded cost tensors on an 8^3 grid with 9 displacement steps: every
    # per-point probability row must sum to 1 within 1e-5, in under 5 s.
    space = DisplacementSpace(0.4, 9)
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 5.0, size=(8, 8, 8) + space.steps)
        prob = softmax_probabilities(CostTensor6D(vals, space),
                                     temperature=7.0)
        sums = prob.values.sum(axis=(3, 4, 5))
        assert np.all(np.abs(sums - 1.0) <= 1e-5), f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_translation_recovery():
    # Translation phantom, 64^3, magnitude 0.2, self-similarity features,
    # 16^3 control grid, capture range 0.4 over 15 steps: mean interior
    # control-point error at most one displacement-grid spacing, under 60 s.
    spec = PhantomSpec(seed=0, dims=(64, 64, 64), organs=5,
                       deformation="translation", magnitude=0.2,
                       noise_sigma=0.02)
    pair = generate(spec)
    start = time.perf_counter()
    res = register_pair(pair.fixed, pair.moving, suite_config())
    elapsed = time.perf_counter() - start
    truth = pair.truth.vectors[0, 0, 0]
    inner = res.control_field.vectors[1:-1, 1:-1, 1:-1]
    err = float(np.linalg.norm(inner - truth, axis=-1).mean())
    spacing = 2 * 0.4 / 14
    assert err <= spacing, f"error {err:.5f} > spacing {spacing:.5f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_phantom_suite_dice(phantom_suite):
    # Suite mean Dice: at most 0.6 before, at least 0.85 after; refinement
    # does not decrease the suite mean and every accepted descent step is
    # non-increasing in the combined objective.
    init = np.mean([r.init for r in phantom_suite])
    plain = np.mean([r.plain_dice for r in phantom_suite])
    refined = np.mean([r.refined_dice for r in phantom_suite])
    assert init <= 0.6, f"initial mean Dice {init:.4f}"
    assert plain >= 0.85, f"registered mean Dice {plain:.4f}"
    assert refined >= plain, \
        f"refined mean {refined:.4f} < plain mean {plain:.4f}"
    for r in phantom_suite:
        diffs = np.diff(r.refine_energies)
        assert np.all(diffs <= 1e-12), f"seed {r.seed} energy increased"


def test_criterion_04_regularity(phantom_suite):
    # Folding below 1% on every suite member, and refinement never makes
    # folding worse.
    for r in phantom_suite:
        assert r.plain_folding < 0.01, \
            f"seed {r.seed} folding {r.plain_folding:.4f}"
        assert r.refined_folding <= r.plain_folding + 1e-12, \
            f"seed {r.seed} refine raised folding"


def test_criterion_05_correlation_oracle():
    # 100 seeded small instances (grids up to 4^3, 3 steps per axis) against
    # the brute-force quadruple loop, 1e-6 absolute.
    rng = np.random.default_rng(500)
    for case in range(100):
        counts = tuple(rng.integers(3, 7, size=3))
        channels = int(rng.integers(1, 4))

        def feat():
            data = rng.normal(size=(channels,) + counts)
            origin = tuple(-1.0 + 1.0 / n for n in counts)
            step = tuple(2.0 / n for n in counts)
            return FeatureVolume(data, origin, step)

        f_fix, f_mov = feat(), feat()
        grid = tuple(rng.integers(1, 5, size=3))
        space = DisplacementSpace(float(rng.uniform(0.1, 0.5)), steps=3)
        cost = dissimilarity_tensor(f_fix, f_mov, grid, space)
        ref = naive_dissimilarity(
            f_fix.data, f_mov.data, f_fix.origin, f_fix.step,
            f_mov.origin, f_mov.step,
            [axis_centers(n) for n in grid],
            [space.axis_offsets(a) for a in range(3)])
        assert np.allclose(cost.values, ref, atol=1e-6), f"case {case}"


def test_criterion_06_envelope_oracle_and_audit():
    # Exact lower envelope equals the O(S^2) reference on 100 seeded
    # 15-vectors; the pooled approximation's RMS deviation from the exact
    # envelope is computed and recorded; on well-separated minima the two
    # routes agree on the argmin.
    rng = np.random.default_rng(600)
    for case in range(100):
        row = rng.uniform(0.0, 1.0, size=15)
        assert np.array_equal(exact_lower_envelope(row, 0.0075),
                              naive_lower_envelope(row, 0.0075)), \
            f"case {case}"

    space = DisplacementSpace(0.4, steps=15)
    acc = 0.0
    cnt = 0
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        vals = r.uniform(0.0, 1.0, size=(1, 1, 1, 15, 15, 15))
        t = CostTensor6D(vals, space)
        d = min_convolution(vals) - lower_envelope_3d(t, 0.0075).values
        acc += float(np.sum(d * d))
        cnt += d.size
    rms = float(np.sqrt(acc / cnt))
    print(f"pooled min-convolution RMS deviation from exact envelope: "
          f"{rms:.5f}")
    assert rms <= 0.015, f"RMS {rms:.5f}"

    for seed in range(20):
        r = np.random.default_rng(2000 + seed)
        vals = r.uniform(5.0, 6.0, size=(1, 1, 1, 15, 15, 15))
        pos = tuple(r.integers(2, 13, size=3))
        vals[(0, 0, 0) + pos] = 0.0
        t = CostTensor6D(vals, space)
        pooled = min_convolution(vals)
        exact = lower_envelope_3d(t, 0.0075).values
        assert np.argmin(pooled) == np.argmin(exact)
        assert np.unravel_index(np.argmin(pooled[0, 0, 0]),
                                (15, 15, 15)) == pos


def test_criterion_07_mean_field_ablation(phantom_suite):
    # Removing the mean-field smoothing must not improve the suite mean
    # Dice; only the ordering is asserted.
    plain = np.mean([r.plain_dice for r in phantom_suite])
    nomf = np.mean([r.nomf_dice for r in phantom_suite])
    assert plain >= nomf, f"full {plain:.4f} < ablated {nomf:.4f}"


def test_criterion_08_flop_budget():
    # Reference configuration: 4096 active control points, 3375 offsets,
    # 16 feature channels.
    flops = flop_estimate((16, 16, 16),
                          DisplacementSpace(0.4, 15), channels=16)
    assert flops == 3 * 4096 * 3375 * 16 == 663_552_000
    assert flops < 2e9


def test_criterion_09_gradient_check():
    # Analytic objective gradients vs central differences (h=1e-4) on 20
    # seeded instances: 10 single-point, 10 coupled 4^3 grids.  Relative
    # error below 1e-3, measured against the largest finite-difference
    # component.
    h = 1e-4

    def interior_phi(rng, space, shape):
        phi = np.empty(shape + (3,))
        for a in range(3):
            s = space.steps[a]
            dh = space.spacing(a)
            i0 = rng.integers(0, s - 1, size=shape)
            t = rng.uniform(0.1, 0.9, size=shape)
            phi[..., a] = -space.q + dh * (i0 + t)
        return phi

    def check(cost, phi, weight):
        _, grad = field_energy_grad(cost, phi, weight)
        fd = np.zeros_like(grad)
        it = np.nditer(phi, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = phi.copy()
            dn = phi.copy()
            up[idx] += h
            dn[idx] -= h
            fd[idx] = (field_energy(cost, up, weight)
                       - field_energy(cost, dn, weight)) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        rel = np.abs(grad - fd).max() / scale
        assert rel < 1e-3, f"relative error {rel:.2e}"

    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        space = DisplacementSpace(0.4, (7, 7, 7))
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 7, 7, 7))
        cost = CostTensor6D(vals, space)
        check(cost, interior_phi(rng, space, (1, 1, 1)), weight=0.0)

    for seed in range(10):
        rng = np.random.default_rng(950 + seed)
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = rng.uniform(0.0, 1.0, size=(4, 4, 4, 5, 5, 5))
        cost = CostTensor6D(vals, space)
        check(cost, interior_phi(rng, space, (4, 4, 4)), weight=1.5)


def test_criterion_10_run_determinism(tmp_path):
    # Two command-line registrations of the same inputs produce
    # byte-identical displacement fields and reports.
    from densereg.cli import main

    src = tmp_path / "data"
    rc = main(["phantom", "--out-dir", str(src), "--dims", "16",
               "--organs", "3", "--magnitude", "0.08",
               "--noise-sigma", "0.01", "--seed", "4"])
    assert rc == 0
    args = ["register",
            "--fixed", str(src / "fixed.hdr"),
            "--moving", str(src / "moving.hdr"),
            "--fixed-labels", str(src / "fixed_labels.hdr"),
            "--moving-labels", str(src / "moving_labels.hdr"),
            "--grid", "5", "--steps", "5", "--q", "0.4"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("field.hdr", "field.raw", "report.txt"):
        with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
            assert fa.read() == fb.read(), name
