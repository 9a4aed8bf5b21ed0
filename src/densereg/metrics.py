"""Registration quality measures and the run report.

Dice overlap per label present, Jacobian-determinant statistics of a full-resolution
field (computed on interior voxels in voxel units so values are comparable
across volume sizes, slab by slab on worker threads), and a report
container with deterministic text and CSV serializations.  Stage runtimes
are kept out of both serializations so that two identical runs produce
identical report bytes; they are written separately.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import DisplacementField, Volume3D, present_labels
from .parallel import map_slabs

__all__ = ["dice", "mean_dice", "jacobian_stats", "RegistrationReport"]


def dice(a: Volume3D, b: Volume3D) -> dict:
    """Per-label Dice overlap ``2 |A and B| / (|A| + |B|)`` of every
    nonzero label present in either volume; a label absent from one of
    them scores 0."""
    if not (a.is_label and b.is_label):
        raise ValueError("dice needs label volumes")
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    out = {}
    for lab in present_labels(a, b).tolist():
        if lab == 0:
            continue
        in_a = a.data == lab
        in_b = b.data == lab
        inter = int(np.count_nonzero(in_a & in_b))
        total = int(np.count_nonzero(in_a)) + int(np.count_nonzero(in_b))
        out[lab] = 2.0 * inter / total
    return out


def mean_dice(scores: dict) -> float:
    """Mean over defined (non-NaN) per-label Dice values."""
    vals = [v for v in scores.values() if not np.isnan(v)]
    if not vals:
        return float("nan")
    return float(np.mean(vals))


def jacobian_stats(field: DisplacementField, workers: int = None) -> tuple:
    """Population std of interior Jacobian determinants and the folding
    fraction (share of interior voxels with determinant <= 0).

    The deformation in voxel units is ``x_vox(i) = i + phi * n/2`` per
    axis; J is its derivative by central differences over the voxel index.
    Under the shared center-aligned convention a linear normalized field
    ``phi = a x`` yields ``det = (1 + a)^3`` (unit conversion factor 1).

    The determinants are evaluated one axis-0 slab at a time on up to
    ``workers`` threads, each slab from its planes plus a one-voxel halo,
    by the closed-form cofactor expansion of the 3x3 matrix; the std and
    the folding count are then taken once over all of them, so the result
    does not depend on the slab size or the thread count.
    """
    counts = field.counts
    if any(c < 3 for c in counts):
        raise ValueError(f"need >= 3 voxels per axis for interior central "
                         f"differences, got {counts}")
    scales = [c / 2.0 for c in counts]
    dets = np.empty(tuple(c - 2 for c in counts))

    def slab(s):
        # Interior planes s are field planes s.start+1 .. s.stop; read
        # one more plane on each side.
        vec = field.vectors[s.start:s.stop + 2]
        j = [[None] * 3 for _ in range(3)]
        for c in range(3):
            comp = vec[..., c] * scales[c]
            for a in range(3):
                hi = [slice(1, -1)] * 3
                lo = [slice(1, -1)] * 3
                hi[a] = slice(2, None)
                lo[a] = slice(0, -2)
                d = (comp[tuple(hi)] - comp[tuple(lo)]) / 2.0
                if c == a:
                    d += 1.0
                j[c][a] = d
        dets[s] = (j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
                   - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
                   + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]))

    map_slabs(slab, dets.shape, workers)
    std = float(dets.std())
    folding = float(np.count_nonzero(dets <= 0.0)) / dets.size
    return std, folding


@dataclass
class RegistrationReport:
    """Quality summary of one run.

    ``runtimes`` (stage name to seconds) is excluded from :meth:`to_text`
    and :meth:`to_csv` so identical runs serialize identically; use
    :meth:`timings_text` to record it separately.
    """

    per_label_dice: dict = dc_field(default_factory=dict)
    std_jac: float = float("nan")
    folding_fraction: float = float("nan")
    runtimes: dict = dc_field(default_factory=dict)
    notes: dict = dc_field(default_factory=dict)

    @property
    def mean_dice(self) -> float:
        return mean_dice(self.per_label_dice)

    @staticmethod
    def _fmt(v: float) -> str:
        return format(float(v), ".9g")

    def to_text(self) -> str:
        lines = []
        for lab in sorted(self.per_label_dice):
            lines.append(f"dice_label_{lab}={self._fmt(self.per_label_dice[lab])}")
        lines.append(f"dice_mean={self._fmt(self.mean_dice)}")
        lines.append(f"std_jac={self._fmt(self.std_jac)}")
        lines.append(f"folding_fraction={self._fmt(self.folding_fraction)}")
        lines.append("jacobian_units=voxel")
        lines.append("field_units=normalized")
        for key in sorted(self.notes):
            lines.append(f"{key}={self.notes[key]}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["label,dice"]
        for lab in sorted(self.per_label_dice):
            rows.append(f"{lab},{self._fmt(self.per_label_dice[lab])}")
        rows.append(f"mean,{self._fmt(self.mean_dice)}")
        rows.append(f"std_jac,{self._fmt(self.std_jac)}")
        rows.append(f"folding,{self._fmt(self.folding_fraction)}")
        return "\n".join(rows) + "\n"

    def timings_text(self) -> str:
        lines = [f"{stage}={self._fmt(sec)}" for stage, sec in self.runtimes.items()]
        return "\n".join(lines) + ("\n" if lines else "")
