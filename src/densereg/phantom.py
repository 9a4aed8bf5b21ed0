"""Seeded synthetic volume pairs with known ground-truth correspondence.

A phantom is a stack of ellipsoid "organs" with distinct intensities over a
dark background, plus Gaussian noise.  The moving volume is the clean fixed
volume resampled through the exact inverse of the ground-truth map (found by
fixed-point iteration, which converges because generation rejects folding
fields), so warping the moving volume by the truth field reproduces the
fixed volume up to interpolation.  Noise is drawn independently per volume
after warping so the pair never shares a noise pattern.

Randomness comes from a counter-based generator so outputs are reproducible
across platforms and numpy versions.  Update rule, for seed ``s`` and
counter ``i`` (all arithmetic mod 2^64):

    z = s + (i + 1) * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

The top 53 bits of ``z`` scaled by 2^-53 give a uniform double in [0, 1).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (DisplacementField, DisplacementSpace, Volume3D,
                       _is_int, _three_ints, axis_centers, normalized_to_index,
                       sample_points_linear)
from .metrics import jacobian_stats
from .parallel import map_slabs
from .transform import upsample_field, warp

__all__ = ["PhantomSpec", "PhantomPair", "CounterRandom", "generate"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# A phantom's displacement stays below the registration's default capture
# range, so a single registration stage can recover it.
_CAPTURE_RANGE = DisplacementSpace().q


class CounterRandom:
    """Counter-based uniform generator (xorshift-multiply mixing).

    Stateless apart from the counter: draw ``n`` values and the next call
    continues the stream.  ``jump(name)`` derives an independent stream by
    hashing the label into the seed, so the organ layout does not change
    when, say, more noise values are drawn.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _mix(self, idx: np.ndarray) -> np.ndarray:
        z = self._seed + (idx + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return (self._mix(idx) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        """n standard normal deviates via the Box-Muller transform."""
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                              r * np.sin(2.0 * np.pi * u2)])
        return out[:n]

    def jump(self, name: str) -> "CounterRandom":
        h = 1469598103934665603
        for byte in name.encode():
            h = ((h ^ byte) * 1099511628211) % (1 << 64)
        return CounterRandom(int(self._seed) ^ h)


@dataclass(frozen=True)
class PhantomSpec:
    """Generation settings.

    ``magnitude`` is the ground-truth field's maximum absolute component in
    normalized units and must stay below the default capture range (0.4)
    so a single registration stage can recover it.
    """

    seed: int = 0
    dims: tuple = (64, 64, 64)
    organs: int = 5
    deformation: str = "translation"
    magnitude: float = 0.2
    noise_sigma: float = 0.02

    def __post_init__(self):
        dims = _three_ints(self.dims, "dims")
        if any(d < 8 for d in dims):
            raise ValueError(f"dims must be three values >= 8, got {self.dims}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.deformation not in ("translation", "smooth-random"):
            raise ValueError(f"unknown deformation: {self.deformation!r}")
        if not (0.0 <= self.magnitude < _CAPTURE_RANGE):
            raise ValueError(f"magnitude must lie in [0, capture range "
                             f"{_CAPTURE_RANGE}), got {self.magnitude}")
        if not (_is_int(self.organs) and self.organs >= 1):
            raise ValueError(f"need an int number of organs >= 1, got {self.organs!r}")
        if not (0.0 <= self.noise_sigma < np.inf):
            raise ValueError(f"noise sigma must be finite and >= 0, "
                             f"got {self.noise_sigma}")
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class PhantomPair:
    fixed: Volume3D
    fixed_labels: Volume3D
    moving: Volume3D
    moving_labels: Volume3D
    truth: DisplacementField


def _ellipsoid_volume(spec: PhantomSpec, rng: CounterRandom):
    """Clean intensity volume and label volume from stacked ellipsoids."""
    dims = spec.dims
    coords = [np.linspace(-1.0, 1.0, d) for d in dims]
    xx = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    intensity = np.zeros(dims)
    labels = np.zeros(dims, dtype=np.int32)
    n = spec.organs
    for organ in range(n):
        draws = rng.uniform(9)
        center = -0.45 + 0.9 * draws[0:3]
        semi = 0.18 + 0.22 * draws[3:6]
        # Distinct, well-separated intensity per organ.
        level = 0.35 + 0.65 * (organ + draws[6] * 0.5) / n
        dist = np.sum(((xx - center) / semi) ** 2, axis=-1)
        inside = dist <= 1.0
        intensity[inside] = level
        labels[inside] = organ + 1
    return intensity, labels


def _truth_field(spec: PhantomSpec, rng: CounterRandom) -> DisplacementField:
    dims = spec.dims
    if spec.magnitude == 0.0:
        return DisplacementField(np.zeros(dims + (3,)))
    if spec.deformation == "translation":
        raw = 2.0 * rng.uniform(3) - 1.0
        biggest = np.abs(raw).max()
        if biggest < 1e-3:
            raw = np.array([1.0, 1.0, 1.0])
            biggest = 1.0
        t = raw * (spec.magnitude / biggest)
        return DisplacementField(np.broadcast_to(t, dims + (3,)).copy())
    # smooth-random: a common bias plus mild per-cell jitter on a coarse
    # grid, scaled so the largest component equals the magnitude; the
    # jitter share is kept small so the upsampled field cannot fold.
    bias = 2.0 * rng.uniform(3) - 1.0
    bias /= max(np.abs(bias).max(), 1e-3)
    jitter = 2.0 * rng.uniform(4 * 4 * 4 * 3).reshape(4, 4, 4, 3) - 1.0
    raw = bias + 0.25 * jitter
    raw *= spec.magnitude / np.abs(raw).max()
    coarse = DisplacementField(raw)
    return upsample_field(coarse, dims)


def _inverse_field(truth: DisplacementField, iterations: int = 40,
                   tol: float = 1e-12) -> DisplacementField:
    """Displacement ``psi`` inverting the map ``x -> x + truth(x)``.

    Solves ``psi(y) = -truth(y + psi(y))`` by fixed-point iteration; the
    iteration contracts whenever the forward map does not fold, which the
    generator guarantees before calling this.  Each iteration reads only
    the previous estimate, so it is evaluated one axis-0 slab at a time
    on worker threads into a second buffer, and the two buffers swap.
    """
    dims = truth.counts
    centers = [axis_centers(n) for n in dims]
    psi = -truth.vectors
    new = np.empty_like(psi)

    def slab(s):
        old = psi[s]
        fracs = np.empty(old.shape)
        fracs[..., 0] = normalized_to_index(
            centers[0][s, None, None] + old[..., 0], dims[0])
        fracs[..., 1] = normalized_to_index(
            centers[1][:, None] + old[..., 1], dims[1])
        fracs[..., 2] = normalized_to_index(centers[2] + old[..., 2], dims[2])
        np.negative(sample_points_linear(truth.vectors, fracs), out=new[s])
        return np.max(np.abs(new[s] - old))

    for _ in range(iterations):
        delta = float(np.max(map_slabs(slab, dims)))
        psi, new = new, psi
        if delta < tol:
            break
    return DisplacementField(psi)


def generate(spec: PhantomSpec) -> PhantomPair:
    """Deterministic phantom pair plus ground-truth field.

    The moving pair is built by warping with the exact inverse of the
    truth map, so ``moving(x + truth(x))`` reproduces ``fixed(x)`` up to
    interpolation and the independent noise draws.  The folding fraction
    of the truth field is verified to be zero at generation time.
    """
    organ_rng = CounterRandom(spec.seed).jump("organs")
    field_rng = CounterRandom(spec.seed).jump("field")
    noise_rng = CounterRandom(spec.seed).jump("noise")

    clean, labels = _ellipsoid_volume(spec, organ_rng)
    truth = _truth_field(spec, field_rng)
    _, folding = jacobian_stats(truth)
    if folding > 0.0:
        raise RuntimeError("ground-truth field folds; lower the magnitude")

    dims = spec.dims
    fixed_labels = Volume3D(labels, is_label=True)
    inverse = _inverse_field(truth)
    moving_clean = warp(Volume3D(clean), inverse).data
    moving_labels = warp(fixed_labels, inverse)

    count = int(np.prod(dims))
    noise_f = spec.noise_sigma * noise_rng.normal(count).reshape(dims)
    noise_m = spec.noise_sigma * noise_rng.normal(count).reshape(dims)
    fixed = Volume3D(clean + noise_f)
    moving = Volume3D(moving_clean + noise_m)
    return PhantomPair(fixed, fixed_labels, moving, moving_labels, truth)
