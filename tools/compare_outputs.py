"""Byte-compare this checkout's outputs with those of another checkout.

Run from anywhere, with the other checkout's root as the argument:

    python3 tools/compare_outputs.py PARENT_CHECKOUT [--seed N]

For every benchmark workload (``perfbench/workloads.py``, imported and
never changed), each checkout sets up pair 0 of seed ``N`` with its own
``densereg`` in a subprocess.  It then runs ``densereg register`` on that
pair with the workload's flags at ``--threads 1`` and ``--threads 2``,
and ``densereg evaluate --field`` on each result.  One more ``register``
reads the same flags and input paths, with ``threads=1``, from a
``--config`` file of ``key=value`` lines (``refine=true`` where the
workload passes ``--refine``), so config and header parsing are
byte-checked end to end.  Each checkout also runs ``densereg selftest``.
Every command runs in a directory of the same layout with relative
paths, so paths printed or written agree.

Every file the runs leave, and every command's standard output and exit
code, is compared byte for byte, except ``timings.txt``, which holds wall
times.  Prints ``identical``, ``differs`` or ``missing`` per file and
exits 1 on anything but ``identical``.  Under a file that differs it
prints how far it moved: for a ``.raw`` payload, the largest absolute
difference (also in voxels when the header gives a ``voxel_factor``) and
the count of differing values; for a report or a standard output, each
changed ``key=value`` line, old -> new.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import numpy as np  # noqa: E402
import workloads  # noqa: E402

THREADS = (1, 2)
SKIPPED = {"timings.txt"}
# Suffixes of the text files read as key=value lines.
KEY_VALUE = (".txt", ".out")
SET_UP = ("import sys; from pathlib import Path; import workloads; "
          "workloads.set_up_pair(workloads.WORKLOADS[sys.argv[1]], "
          "int(sys.argv[2]), 0, Path(sys.argv[3]))")


def run(checkout: Path, args: list, cwd: Path, log: str) -> None:
    """``python3 args`` in ``cwd`` with ``checkout``'s ``densereg``; the
    standard output and exit code go to ``cwd / log``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True)
    (cwd / log).write_text(f"{proc.stdout}exit={proc.returncode}\n")
    if proc.returncode:
        print(f"{checkout}: {' '.join(args[:3])} exited {proc.returncode}: "
              f"{proc.stderr[-500:]}", file=sys.stderr)


def config_text(argv: list) -> str:
    """``--config`` lines of ``register`` arguments: ``--key value``
    becomes ``key=value``, and a flag that takes no value ``key=true``."""
    lines = []
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) \
                and not argv[i + 1].startswith("--") else "true"
            lines.append(f"{arg[2:]}={value}\n")
    return "".join(lines)


def run_checkout(checkout: Path, seed: int, base: Path) -> None:
    base.mkdir()
    run(checkout, ["-m", "densereg.cli", "selftest"], base, "selftest.out")
    for name, w in workloads.WORKLOADS.items():
        work = base / name
        work.mkdir()
        run(checkout, ["-c", SET_UP, name, str(seed), "pair"], work,
            "set_up.out")
        for t in THREADS:
            out = Path(f"out{t}")
            argv = workloads.register_argv(w, Path("pair"), out)
            run(checkout, ["-m", "densereg.cli"] + argv
                + ["--threads", str(t)], work, f"register{t}.out")
            run(checkout, ["-m", "densereg.cli", "evaluate",
                           "--fixed-labels", "pair/fixed_labels.hdr",
                           "--moving-labels", "pair/moving_labels.hdr",
                           "--field", str(out / "field.hdr"),
                           "--threads", str(t)], work, f"evaluate{t}.out")
        argv = workloads.register_argv(w, Path("pair"), Path("out_config"))
        (work / "register.cfg").write_text(
            config_text(argv + ["--threads", "1"]), encoding="ascii")
        run(checkout, ["-m", "densereg.cli", "register", "--config",
                       "register.cfg"], work, "register_config.out")


def moved(old: Path, new: Path) -> list:
    """Lines that say how far the differing file ``new`` moved from
    ``old`` (see the module docstring); none for other files."""
    hdrs = [p.with_suffix(".hdr") for p in (old, new)]
    if old.suffix == ".raw" and all(h.is_file() for h in hdrs):
        a, b = (workloads.read_raw(h).astype(np.float64) for h in hdrs)
        if a.shape != b.shape:
            return [f"shape {a.shape} -> {b.shape}"]
        diff = np.abs(b - a)
        line = f"max |diff| {diff.max():.3g}"
        factor = workloads.read_report(hdrs[0]).get("voxel_factor")
        if factor:
            scale = np.array([float(f) for f in factor.split(",")])
            line += f" ({(diff * scale).max():.3g} voxels)"
        return [f"{line}, {np.count_nonzero(diff)} of {diff.size} "
                f"values differ"]
    if old.suffix not in KEY_VALUE:
        return []
    a, b = (dict(line.partition("=")[::2] for line in
                 p.read_text(errors="replace").splitlines())
            for p in (old, new))
    return [f"{key}={a.get(key, '(none)')} -> {b.get(key, '(none)')}"
            for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed of the pairs (default 0)")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "densereg").is_dir():
        parser.error(f"{parent} has no src/densereg")
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp, "parent"), Path(tmp, "change")]
        for checkout, base in zip((parent, ROOT), sides):
            run_checkout(checkout, args.seed, base)
        names = sorted({p.relative_to(base) for base in sides
                        for p in base.rglob("*") if p.is_file()
                        and p.name not in SKIPPED})
        bad = 0
        for name in names:
            a, b = (base / name for base in sides)
            if not (a.is_file() and b.is_file()):
                verdict = "missing"
            elif a.read_bytes() == b.read_bytes():
                verdict = "identical"
            else:
                verdict = "differs"
            bad += verdict != "identical"
            print(f"{verdict:9s} {name}")
            if verdict == "differs":
                for line in moved(a, b):
                    print(f"{'':9s}   {line}")
    print(f"{len(names) - bad} of {len(names)} files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
