"""Time this checkout against another with interleaved benchmark runs.

Run from anywhere, with the other checkout's root as the argument:

    python3 tools/bench_pairs.py PARENT_CHECKOUT [--pairs 10] [--out FILE]

For every workload of ``BENCHMARK.json``, pair ``i`` runs
``perfbench/run.py --trace 0 --seed i`` once in each checkout, for
``BENCHMARK.json``'s ``run_seconds``, in that checkout's root and with
its own ``densereg``.  The parent runs
first in even pairs and this checkout in odd ones, so a drift of the
machine's speed during the runs loads both sides alike.

Per end-to-end metric it prints both medians with their quartiles, the
pairs in which this checkout is better, and ``WORSE`` when this
checkout's median is worse than the parent's by more than the metric's
``bound`` (a fraction of the parent's median).  A pair counts only when
both of its runs finished.  It lists every run that exited non-zero or
whose result is not ``correct``, and exits 1 on either finding, 0
otherwise.  ``--out`` writes every run's result and the summary as JSON.
Each run leaves only what ``perfbench/run.py`` itself writes, under the
checkout's ``.perfbench/``.

Compare sibling directories, with PARENT beside this checkout.  One
10-pair run of identical registration code, against a parent clone
elsewhere, read ref-g16 ``register_s`` 1.722 -> 1.844 s, while two
sibling copies read 1.468 -> 1.460 s.  That is one run each, so the
cause is unverified; the tool prints a note when PARENT is not a
sibling.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result JSON of one untraced benchmark run in ``checkout``, or
    ``{"error": ...}`` when the run exits non-zero or prints no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"error": f"exit {proc.returncode}: "
                     f"{(proc.stderr or proc.stdout)[-300:].strip()}"}


def problem(result: dict):
    """Why a run's result cannot be used, or None."""
    if "error" in result:
        return result["error"]
    if not result.get("correct"):
        return (f"not correct: {result.get('failed')} of "
                f"{result.get('attempted')} jobs failed")
    return None


def location_note(parent: Path, root: Path = ROOT):
    """A one-line note when ``parent`` is not a sibling directory of
    ``root``, else None."""
    if parent.parent == root.parent:
        return None
    return (f"note: {parent} is not a sibling of {root}; timings of "
            f"checkouts in different directories may differ")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metric: dict, runs: list) -> dict:
    """Medians, quartiles and wins of one metric over the pairs whose
    two runs both finished; ``worse`` applies the metric's bound."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    pairs = [[run[side]["metrics"][name]["value"] for side in SIDES]
             for run in runs
             if all("metrics" in run[side] for side in SIDES)]
    if not pairs:
        return {"pairs": 0, "worse": False}
    parent, change = zip(*pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"pairs": len(pairs),
            "parent_median": p_med, "parent_quartiles": quartiles(parent),
            "change_median": c_med, "change_quartiles": quartiles(change),
            "wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "worse": sign * (c_med - p_med) > metric["bound"] * abs(p_med)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved pairs of runs per workload "
                             "(default 10)")
    parser.add_argument("--out", type=Path,
                        help="also write every run and the summary here "
                             "as JSON")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    note = location_note(parent)
    if note is not None:
        print(note, flush=True)
    checkouts = dict(zip(SIDES, (parent, ROOT)))

    record, bad = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.pairs):
            run = {"seed": i}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run[side] = bench(checkouts[side], workload, i,
                                  spec["run_seconds"])
            runs.append(run)
            for side in SIDES:
                why = problem(run[side])
                if why is not None:
                    bad += 1
                    print(f"FAILED {workload} pair {i} {side}: {why}",
                          flush=True)
            print(f"{workload} pair {i} done", flush=True)
        summary = {m["name"]: summarize(m, runs) for m in spec["end_to_end"]}
        print(f"\n{workload}: median [quartiles], parent -> change")
        for name, s in summary.items():
            if not s["pairs"]:
                print(f"  {name:12s} no pair finished on both sides")
                continue
            bad += s["worse"]
            print("  {:12s} {:.4g} [{:.4g}, {:.4g}] -> {:.4g} [{:.4g}, "
                  "{:.4g}]  better in {}/{}  {}".format(
                      name, s["parent_median"], *s["parent_quartiles"],
                      s["change_median"], *s["change_quartiles"],
                      s["wins"], s["pairs"],
                      "WORSE" if s["worse"] else "ok"), flush=True)
        record[workload] = {"runs": runs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps({"parent": str(parent),
                                        "seconds": spec["run_seconds"],
                                        "workloads": record}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
