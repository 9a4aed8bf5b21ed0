"""Print what one registration costs: its stage times and peak memory.

    python3 tools/reference_cost.py [--grid 16] [--organs N]

Generates the seed-0 smooth-random 64³ phantom pair in a temporary
directory, in this process, with ``--organs`` label structures when
given (passed on to ``densereg phantom --organs``) and the phantom's
default otherwise.  Then runs ``densereg register --grid GRID --steps 15
--q 0.4`` on it, with its labels, in a child process: the acceptance
reference at the default ``--grid 16``, the library default at
``--grid 32``.  Prints the child's ``timings.txt``, its wall time and
its peak resident set size (``resource.getrusage(RUSAGE_CHILDREN)``;
the child is the only one, so the peak is its own).  Prints only; exits
with the child's exit code.
"""

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from densereg import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--grid", type=int, default=16,
                        help="control-grid points per axis (default 16)")
    parser.add_argument("--organs", type=int,
                        help="label structures of the phantom "
                             "(default: the phantom's)")
    args = parser.parse_args(argv)
    organs = [] if args.organs is None else ["--organs", str(args.organs)]
    with tempfile.TemporaryDirectory() as tmp:
        pair, out = Path(tmp, "pair"), Path(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["phantom", "--out-dir", str(pair), "--seed", "0",
                             "--dims", "64", "--deformation", "smooth-random"]
                            + organs)
        if code:
            return code
        config = ["--grid", str(args.grid), "--steps", "15", "--q", "0.4"]
        argv = ["register", "--out-dir", str(out)] + config
        for side in ("fixed", "moving"):
            argv += [f"--{side}", str(pair / f"{side}.hdr"),
                     f"--{side}-labels", str(pair / f"{side}_labels.hdr")]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "densereg.cli"] + argv,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"densereg register {' '.join(config)} on a 64^3 phantom"
              f"{' with ' + ' '.join(organs) if organs else ''}: "
              f"exit {proc.returncode}")
        timings = out / "timings.txt"
        if timings.is_file():
            print(timings.read_text(), end="")
        print(f"wall_s={wall:.3f}")
        # ru_maxrss is in KiB on Linux.
        print(f"peak_rss_mib={peak / 1024:.1f}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
