"""End-to-end tour: phantom, feed-forward registration, refinement.

Generates one seeded synthetic pair, registers it with the library
defaults, then repeats with instance-wise gradient refinement and shows
what each stage contributed: label overlap before and after, field
regularity, the refinement energy trace, and where the time went.

Usage:
    python3 demos/registration_walkthrough.py [--seed N] [--dims D]
                                              [--out-dir DIR]
"""

import argparse
import os

import numpy as np

from densereg import io as vio
from densereg.geometry import DisplacementSpace
from densereg.metrics import dice, mean_dice
from densereg.phantom import PhantomSpec, generate
from densereg.pipeline import register_pair
from densereg.refine import RefineConfig
from densereg.transform import RegistrationConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dims", type=int, default=64,
                    help="phantom voxels per axis (default 64)")
    ap.add_argument("--out-dir", help="write field/warped/report files here")
    args = ap.parse_args()

    spec = PhantomSpec(seed=args.seed, dims=(args.dims,) * 3, organs=5,
                       deformation="smooth-random", magnitude=0.25,
                       noise_sigma=0.02)
    print(f"phantom: seed {spec.seed}, {args.dims}^3 voxels, "
          f"{spec.organs} organs, smooth-random warp of magnitude "
          f"{spec.magnitude:g}, noise {spec.noise_sigma:g}")
    pair = generate(spec)
    init = mean_dice(dice(pair.fixed_labels, pair.moving_labels))
    print(f"initial mean Dice (no registration): {init:.4f}")

    grid = max(8, args.dims // 4)
    cfg = RegistrationConfig(grid_counts=(grid,) * 3,
                             space=DisplacementSpace(0.4, 15))
    print(f"\nregistering on a {grid}^3 control grid, capture range 0.4 "
          f"over 15 steps per axis...")
    res = register_pair(pair.fixed, pair.moving, cfg,
                        fixed_labels=pair.fixed_labels,
                        moving_labels=pair.moving_labels)
    rep = res.report
    print(f"feed-forward mean Dice: {rep.mean_dice:.4f}  "
          f"(folding {rep.folding_fraction:.5f}, "
          f"std |J| {rep.std_jac:.4f})")
    print("stage timings:")
    for stage, secs in rep.runtimes.items():
        print(f"   {stage:<14} {secs:7.2f} s")

    print("\nrepeating with gradient refinement of the expected field...")
    refined = register_pair(pair.fixed, pair.moving, cfg,
                            fixed_labels=pair.fixed_labels,
                            moving_labels=pair.moving_labels,
                            refinement=RefineConfig())
    rrep = refined.report
    e = np.asarray(refined.refine_energies)
    print(f"refined mean Dice: {rrep.mean_dice:.4f}  "
          f"(delta {rrep.mean_dice - rep.mean_dice:+.4f}, "
          f"folding {rrep.folding_fraction:.5f})")
    print(f"objective trace: {e[0]:.4f} -> {e[-1]:.4f} over {e.size - 1} "
          f"recorded steps, monotone: {bool(np.all(np.diff(e) <= 0))}")

    print("\nper-label Dice (feed-forward vs refined):")
    for lab in sorted(rep.per_label_dice):
        print(f"   label {lab}: {rep.per_label_dice[lab]:.4f} vs "
              f"{rrep.per_label_dice[lab]:.4f}")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        vio.write_field(refined.field,
                        os.path.join(args.out_dir, "field.hdr"))
        vio.write_volume(refined.warped,
                         os.path.join(args.out_dir, "warped.hdr"))
        with open(os.path.join(args.out_dir, "report.txt"), "w",
                  encoding="ascii") as fh:
            fh.write(rrep.to_text())
        print(f"\nartifacts written to {args.out_dir}")


if __name__ == "__main__":
    main()
