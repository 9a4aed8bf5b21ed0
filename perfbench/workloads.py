"""The benchmark's workloads, their seeded set-up, and the output checks.

Each workload is a family of phantom pairs made by ``densereg.generate``
plus the ``densereg register`` flags every pair is run with.  Why each
workload exists is recorded in ``perfbench/README.md``.  ``densereg`` is
imported from the checkout's ``src`` directory, which ``run.py`` puts on
``sys.path`` before importing this module.
"""

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import densereg
from densereg import io as vio


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    deformation: str
    magnitude: float
    register_args: tuple
    dice_floor: float   # a pair whose mean Dice is lower fails
    label_ids: tuple = ()   # replacement IDs for organ labels 1..5


# Flags given explicitly so a change of CLI defaults cannot change a
# workload; labels are always passed.
COMMON_ARGS = ("--q", "0.4", "--lambda", "1.5")
# Distinct phantom pairs an untraced run generates and registers.
PAIRS = 2
NOISE_SIGMA = 0.02
ORGANS = 5
# A pair whose folded-voxel share exceeds this fails (the acceptance
# suite's folding criterion).
FOLDING_CEILING_PCT = 1.0
# A pair fails unless its endpoint error is below this share of the mean
# ground-truth displacement, which is what a zero field scores.  It cannot
# be tighter: a sound voxel-128 pair scores up to 0.89 at the commit that
# added the benchmark (see README, 'Output gate').
ENDPOINT_SHARE_CEILING = 0.95

WORKLOADS = {w.name: w for w in (
    Workload("ref-g16", 64, "smooth-random", 0.25,
             ("--grid", "16", "--steps", "15"), dice_floor=0.7),
    Workload("voxel-128", 128, "translation", 0.1,
             ("--grid", "8", "--steps", "9", "--refine"), dice_floor=0.4),
    Workload("atlas-labels", 64, "smooth-random", 0.15,
             ("--grid", "8", "--steps", "9"), dice_floor=0.5,
             label_ids=(2, 17, 41, 53, 2035)),
)}

INPUTS = ("fixed", "moving", "fixed_labels", "moving_labels")


def phantom_seed(workload: str, seed: int, index: int) -> int:
    """Phantom seed of pair ``index`` of a run; independent per workload."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def set_up_pair(w: Workload, seed: int, index: int, pair_dir: Path):
    """Generate one phantom pair and write the job's inputs plus the
    ground-truth field.  Returns (set-up seconds, generation seconds)."""
    t0 = time.perf_counter()
    pair = densereg.generate(densereg.PhantomSpec(
        seed=phantom_seed(w.name, seed, index), dims=(w.dims,) * 3,
        organs=ORGANS, deformation=w.deformation, magnitude=w.magnitude,
        noise_sigma=NOISE_SIGMA))
    t_generate = time.perf_counter() - t0
    fixed_labels, moving_labels = pair.fixed_labels, pair.moving_labels
    if w.label_ids:
        lut = np.array((0,) + w.label_ids)
        fixed_labels = densereg.Volume3D(lut[fixed_labels.data],
                                         is_label=True)
        moving_labels = densereg.Volume3D(lut[moving_labels.data],
                                          is_label=True)
    pair_dir.mkdir(parents=True)
    volumes = (pair.fixed, pair.moving, fixed_labels, moving_labels)
    for name, vol in zip(INPUTS, volumes):
        vio.write_volume(vol, str(pair_dir / f"{name}.hdr"))
    vio.write_field(pair.truth, str(pair_dir / "truth.hdr"))
    return time.perf_counter() - t0, t_generate


def register_argv(w: Workload, pair_dir: Path, out_dir: Path) -> list:
    """``densereg register`` arguments for one job."""
    argv = ["register", "--out-dir", str(out_dir)]
    for name in INPUTS:
        argv += [f"--{name.replace('_', '-')}", str(pair_dir / f"{name}.hdr")]
    return argv + list(COMMON_ARGS) + list(w.register_args)


# ---------------------------------------------------------------------------
# Output checks.  Files are read with plain numpy, not densereg's reader, and
# Dice and endpoint error are recomputed here, not taken from the report.
# ---------------------------------------------------------------------------

_DTYPES = {"u8": "<u1", "i16": "<i2", "f32": "<f4"}


def read_raw(header: Path) -> np.ndarray:
    fields = {}
    for line in header.read_text(encoding="ascii").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    dims = tuple(int(d) for d in fields["dims"].split(","))
    components = int(fields.get("components", "1"))
    data = np.fromfile(header.parent / fields["data"],
                       dtype=_DTYPES[fields["dtype"]])
    return data.reshape(dims + ((3,) if components == 3 else ()))


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def mean_dice(fixed: np.ndarray, warped: np.ndarray) -> float:
    labels = np.union1d(np.unique(fixed), np.unique(warped))
    scores = []
    for lab in labels[labels != 0]:
        a = fixed == lab
        b = warped == lab
        scores.append(2.0 * np.count_nonzero(a & b)
                      / (np.count_nonzero(a) + np.count_nonzero(b)))
    return float(np.mean(scores))


def pair_baseline(pair_dir: Path) -> dict:
    """What doing nothing scores on a pair: the Dice of the unregistered
    label volumes and the mean ground-truth displacement in voxels (the
    endpoint error of a zero field)."""
    truth = read_raw(pair_dir / "truth.hdr").astype(np.float64)
    half = np.array(truth.shape[:3]) / 2.0
    return {"unregistered_dice":
            mean_dice(read_raw(pair_dir / "fixed_labels.hdr"),
                      read_raw(pair_dir / "moving_labels.hdr")),
            "truth_vox": float(np.linalg.norm(truth * half, axis=-1).mean())}


def evaluate(w: Workload, pair_dir: Path, out_dir: Path, baseline: dict):
    """Quality of one job's outputs and the problems found in them."""
    problems = []
    field = read_raw(out_dir / "field.hdr").astype(np.float64)
    if not np.all(np.isfinite(field)):
        return {}, ["field has non-finite values"]
    truth = read_raw(pair_dir / "truth.hdr").astype(np.float64)
    half = np.array(field.shape[:3]) / 2.0
    endpoint = float(np.linalg.norm((field - truth) * half, axis=-1).mean())
    dice = mean_dice(read_raw(pair_dir / "fixed_labels.hdr"),
                     read_raw(out_dir / "warped_labels.hdr"))
    report = read_report(out_dir / "report.txt")
    reported = float(report["dice_mean"])
    if abs(reported - dice) > 1e-8 * max(1.0, abs(dice)):
        problems.append(f"report dice_mean {reported} != recomputed {dice}")
    folding_pct = 100.0 * float(report["folding_fraction"])
    if dice < w.dice_floor:
        problems.append(f"dice_mean {dice:.4f} below floor {w.dice_floor}")
    if dice <= baseline["unregistered_dice"]:
        problems.append(f"dice_mean {dice:.4f} does not beat the "
                        f"unregistered {baseline['unregistered_dice']:.4f}")
    ceiling = ENDPOINT_SHARE_CEILING * baseline["truth_vox"]
    if endpoint >= ceiling:
        problems.append(f"endpoint error {endpoint:.3f} vox not below "
                        f"{ceiling:.3f} ({ENDPOINT_SHARE_CEILING} of the "
                        f"truth's {baseline['truth_vox']:.3f})")
    if folding_pct > FOLDING_CEILING_PCT:
        problems.append(f"folding {folding_pct:.3f}% above "
                        f"{FOLDING_CEILING_PCT}%")
    quality = {"dice_mean": dice, "endpoint_err_vox": endpoint,
               "folding_pct": folding_pct, **baseline}
    return quality, problems
