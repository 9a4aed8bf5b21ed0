"""How the default regularizer preset was fitted.

Every pooling stage in the regularizer is 1-homogeneous, so a scale put
before any stage comes out as the same factor on the output, and
``RegularizerParams`` has a single ``output_scale``.  Feed-forward
accuracy feels only (a) the smoothing schedule (iterations and spatial
kernel) and (b) the product of the output scale and the softmax
temperature.  The output scale additionally sets the data term's weight
relative to the diffusion penalty during gradient refinement.  Those are
the four knobs, and this script reruns the coordinate sweeps around the
selected point that produced the library defaults:

    iterations=5, spatial kernel 5, output scale 2500, temperature 4
    (RegularizerParams()), phantom suite magnitude 0.25.

The defaults were fitted on the full acceptance-scale suite (five seeds,
64 voxels per axis, 16 per-axis control grid); run with --full to repeat
that exactly (roughly 15 minutes).  The default reduced scope (two seeds,
48 voxels, 12 per-axis grid) finishes in a few minutes and shows the same
qualitative shape.  Each table is measured on the spot, not replayed.

Usage:
    python3 demos/tune_alphas.py [--seeds N] [--dims D] [--grid G] [--full]
"""

import argparse

import numpy as np

from densereg.geometry import DisplacementSpace
from densereg.metrics import dice, mean_dice
from densereg.phantom import PhantomSpec, generate
from densereg.pipeline import register_pair
from densereg.refine import RefineConfig
from densereg.regularizer import RegularizerParams
from densereg.transform import RegistrationConfig, warp


def make_pairs(seeds, dims, magnitude):
    pairs = []
    for seed in seeds:
        spec = PhantomSpec(seed=seed, dims=(dims,) * 3, organs=5,
                           deformation="smooth-random", magnitude=magnitude,
                           noise_sigma=0.02)
        pairs.append(generate(spec))
    return pairs


def run(pair, grid, params, refinement=None):
    """Mean Dice and folding fraction of one registration.  The labels
    are warped and scored here, so the sweep skips the label loss."""
    cfg = RegistrationConfig(grid_counts=(grid,) * 3,
                             space=DisplacementSpace(0.4, 15),
                             reg_params=params)
    res = register_pair(pair.fixed, pair.moving, cfg, refinement=refinement)
    scores = dice(pair.fixed_labels, warp(pair.moving_labels, res.field))
    return mean_dice(scores), res.report.folding_fraction


def scaled_params(scale, temperature, iterations=5, kernel=5):
    return RegularizerParams(output_scale=scale, temperature=temperature,
                             iterations=iterations, spatial_kernel=kernel)


def mean_over(pairs, grid, params, refinement=None):
    scores = [run(p, grid, params, refinement) for p in pairs]
    return (float(np.mean([s[0] for s in scores])),
            float(np.mean([s[1] for s in scores])))


def sweep_sharpness(pairs, grid):
    print("\n1. Softmax sharpness (scale x temperature product)")
    print("   Too soft blurs the expectation toward zero displacement.")
    print("   Sharper keeps lifting raw overlap but drives the readout")
    print("   toward a hard argmax whose lattice quantization refinement")
    print("   must then undo; 1e4 balanced both at full scale.")
    print(f"   {'product':>10} {'dice':>8} {'folding':>9}")
    for product in (100.0, 1000.0, 10000.0, 100000.0):
        d, f = mean_over(pairs, grid, scaled_params(product / 4.0, 4.0))
        print(f"   {product:>10g} {d:>8.4f} {f:>9.5f}")


def sweep_smoothing(pairs, grid):
    print("\n2. Mean-field schedule (iterations x spatial kernel)")
    print("   More smoothing trades peak overlap for field regularity;")
    print("   5 iterations with a 5-wide kernel removes folding outright.")
    print(f"   {'iters':>6} {'kernel':>7} {'dice':>8} {'folding':>9}")
    for iters, kernel in ((2, 3), (3, 3), (5, 3), (2, 5), (5, 5)):
        d, f = mean_over(pairs, grid,
                         scaled_params(2500.0, 4.0, iters, kernel))
        print(f"   {iters:>6d} {kernel:>7d} {d:>8.4f} {f:>9.5f}")


def sweep_data_scale(pairs, grid):
    print("\n3. Output scale vs gradient refinement (product held at 1e4)")
    print("   With the product fixed the feed-forward column cannot move;")
    print("   the scale only re-weights the refined data term against the")
    print("   diffusion weight 1.5.  2500 won the full-scale sweep; the")
    print("   choices stay within a few points of each other here.")
    print(f"   {'scale':>8} {'dice':>8} {'refined':>8} {'delta':>8}")
    for scale in (500.0, 2500.0, 10000.0):
        params = scaled_params(scale, 10000.0 / scale)
        d, _ = mean_over(pairs, grid, params)
        r, _ = mean_over(pairs, grid, params, RefineConfig())
        print(f"   {scale:>8g} {d:>8.4f} {r:>8.4f} {r - d:>+8.4f}")


def scan_magnitude(seeds, dims, grid):
    print("\n4. Suite deformation magnitude (final preset)")
    print("   Refinement pays off near the capture-range edge, where the")
    print("   probability-weighted average is biased inward; far inside the")
    print("   range the soft argmax is already the best readout.")
    print(f"   {'magnitude':>10} {'dice':>8} {'refined':>8} {'delta':>8}")
    for mag in (0.15, 0.25, 0.32):
        pairs = make_pairs(seeds, dims, mag)
        params = RegularizerParams()
        d, _ = mean_over(pairs, grid, params)
        r, _ = mean_over(pairs, grid, params, RefineConfig())
        print(f"   {mag:>10g} {d:>8.4f} {r:>8.4f} {r - d:>+8.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=2,
                    help="phantom seeds per configuration (default 2)")
    ap.add_argument("--dims", type=int, default=48,
                    help="phantom voxels per axis (default 48)")
    ap.add_argument("--grid", type=int, default=12,
                    help="control points per axis (default 12)")
    ap.add_argument("--full", action="store_true",
                    help="acceptance-scale scope: 5 seeds, 64 voxels, "
                         "16-wide grid")
    args = ap.parse_args()
    seeds = range(5 if args.full else args.seeds)
    dims = 64 if args.full else args.dims
    grid = 16 if args.full else args.grid

    print(f"suite: seeds {list(seeds)}, {dims}^3 voxels, {grid}^3 control "
          f"grid, magnitude 0.25, noise 0.02, 5 organs")
    pairs = make_pairs(seeds, dims, 0.25)

    sweep_sharpness(pairs, grid)
    sweep_smoothing(pairs, grid)
    sweep_data_scale(pairs, grid)
    scan_magnitude(seeds, dims, grid)

    p = RegularizerParams()
    print("\nselected preset (the library default):")
    print(f"   iterations={p.iterations} spatial_kernel={p.spatial_kernel} "
          f"output_scale={p.output_scale:g} temperature={p.temperature:g}")


if __name__ == "__main__":
    main()
