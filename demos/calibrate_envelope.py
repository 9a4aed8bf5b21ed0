"""Calibrate the curvature that makes the exact lower envelope comparable
to the pooled min-convolution.

The regularizer approximates the min-convolution (lower envelope of
parabolas over the displacement bins) with one min-pool and two average
pools.  Auditing that approximation needs an exact envelope with a
curvature expressed per squared bin index; this script sweeps candidate
curvatures over seeded random cost tensors and reports the RMS deviation
between the two routes, picking the curvature the pooled cascade
effectively realizes.  A second section checks that both routes point at
the same displacement bin whenever one bin is clearly best; on pure noise
the two smoothed surfaces are nearly flat and bin-exact agreement is
neither expected nor asserted.

The frozen audit values in the test suite (curvature 0.0075, RMS 0.01399,
threshold 0.015) come from this sweep.

Usage:
    python3 demos/calibrate_envelope.py [--cases N]
"""

import argparse

import numpy as np

from densereg.correlation import CostTensor6D
from densereg.geometry import ControlGrid, DisplacementSpace
from densereg.regularizer import lower_envelope_3d, min_convolution

CURVATURES = (0.002, 0.004, 0.005, 0.006, 0.0075, 0.009, 0.011, 0.014,
              0.02, 0.03)

GRID1 = ControlGrid((1, 1, 1))
SPACE15 = DisplacementSpace(0.4, steps=15)


def rms_deviation(curvature, cases):
    acc = 0.0
    cnt = 0
    for seed in range(cases):
        rng = np.random.default_rng(1000 + seed)
        vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 15, 15, 15))
        t = CostTensor6D(vals, GRID1, SPACE15)
        d = min_convolution(vals) - lower_envelope_3d(t, curvature).values
        acc += float(np.sum(d * d))
        cnt += d.size
    return float(np.sqrt(acc / cnt))


def separated_minimum_agreement(curvature, cases):
    agree = 0
    for seed in range(cases):
        rng = np.random.default_rng(2000 + seed)
        vals = rng.uniform(5.0, 6.0, size=(1, 1, 1, 15, 15, 15))
        pos = tuple(rng.integers(2, 13, size=3))
        vals[(0, 0, 0) + pos] = 0.0
        t = CostTensor6D(vals, GRID1, SPACE15)
        pooled = min_convolution(vals)
        exact = lower_envelope_3d(t, curvature).values
        if np.argmin(pooled) == np.argmin(exact):
            agree += 1
    return agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=100,
                    help="seeded random tensors per curvature (default 100)")
    args = ap.parse_args()

    print(f"pooled cascade: min-pool 3 + average-pool 3 x2, "
          f"15 bins per axis, {args.cases} seeded tensors")
    print(f"{'curvature':>10} {'rms':>10}")
    best = None
    for c in CURVATURES:
        rms = rms_deviation(c, args.cases)
        print(f"{c:>10g} {rms:>10.5f}")
        if best is None or rms < best[1]:
            best = (c, rms)
    print(f"\nselected curvature {best[0]:g} (RMS {best[1]:.5f}); the audit "
          f"threshold 0.015 leaves headroom for the pooled route's bias.")

    cases = min(args.cases, 20)
    agree = separated_minimum_agreement(best[0], cases)
    print(f"argmin agreement on constructed well-separated minima: "
          f"{agree}/{cases}")


if __name__ == "__main__":
    main()
