"""densereg benchmark: seeded phantom pairs through ``densereg register``.

Run from the repository root:

    python3 perfbench/run.py --workload ref-g16 --seed 0 --seconds 25 --trace 0

Set-up generates the workload's phantom pairs from ``--seed`` and writes
them to disk.  Then one process runs one job at a time (a closed loop):
each job is ``python3 -m densereg.cli register`` on one pair, so it reads
the inputs, registers and writes ``field``/``warped``/``warped_labels``/
``report.txt`` as a user's command would.  Every pair runs once; further
jobs cycle through the pairs while the next one is expected to finish
within ``--seconds``.  BLAS/OpenMP threads are capped at the number of
usable cores.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up one
pair, runs it untraced and traced (``perfbench/job.py``) in turn, and
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the result JSON;
a full record with the environment, every job and every span goes to
``.perfbench/results/``.  The exit code is 2 when ``src/densereg`` is
missing, 1 on a benchmark error, 0 otherwise (failed pairs are reported
in the result, not by the exit code).
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Every job is killed this long after the run starts, so a hung job
# cannot keep the run past its time limit.
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMPARED_OUTPUTS = ("field.raw", "report.txt")
# timings.txt stage -> spans whose durations should add up to it.
STAGE_SPANS = {
    "features": ("features",),
    "correlation": ("correlation",),
    "regularization": ("regularizer",),
    "transform": ("transform.softmax", "transform.expectation"),
    "refinement": ("refine",),
    "label_loss": ("transform.label_loss",),
    "resample": ("transform.upsample", "transform.warp"),
    "evaluation": ("metrics.jacobian", "metrics.dice"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, src: Path, caps: dict) -> dict:
    import numpy
    import scipy
    return {"commit": git_commit(root), "src_sha256": source_digest(src),
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": caps}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(cmd, env, log_path: Path, deadline: float):
    """Run one job to completion; return (exit code, wall s, CPU s, peak
    RSS MiB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        # kill() after the child is reaped is a no-op for Popen.
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_time(spans, name: str) -> float:
    """Duration of the ``name`` spans minus the time their children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return sum(s["end"] - s["start"] - _covered(children[s["id"]])
               for s in spans if s["name"] == name)


def layer_metrics(spans, out_dir: Path) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def secs(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def peak_mb(*names):
        return max((s["peak_bytes"] for n in names for s in by_name[n]),
                   default=0) / 2.0 ** 20

    def attr(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    flops = attr("correlation.flop_estimate", "flops")
    correlation_s = secs("correlation")
    first = attr("refine", "energy_first")
    return {
        "io.read_s": secs("io.read"),
        "io.write_s": secs("io.write"),
        "io.bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
        "features.s": secs("features"),
        "features.peak_mb": peak_mb("features"),
        "features.out_bytes": attr("features", "out_bytes"),
        "correlation.s": correlation_s,
        "correlation.peak_mb": peak_mb("correlation"),
        "correlation.tensor_bytes": attr("correlation", "tensor_bytes"),
        "correlation.flops": flops,
        "correlation.gflops_per_s":
            flops / correlation_s / 1e9 if correlation_s else 0.0,
        "tensor.validations": len(by_name["tensor.validate"]),
        "tensor.validate_s": secs("tensor.validate"),
        "regularizer.s": secs("regularizer"),
        "regularizer.min_convolution_s": secs("regularizer.min_convolution"),
        "regularizer.mean_field_s": secs("regularizer.mean_field"),
        "regularizer.passes": len(by_name["regularizer.filter"]),
        "regularizer.peak_mb": peak_mb("regularizer"),
        "regularizer.bytes_moved": attr("regularizer.filter", "bytes"),
        "transform.softmax_s": secs("transform.softmax"),
        "transform.expectation_s": secs("transform.expectation"),
        "transform.peak_mb": peak_mb("transform.softmax",
                                     "transform.expectation"),
        "transform.label_loss_s": secs("transform.label_loss"),
        "transform.label_classes": attr("transform.label_loss", "classes"),
        "transform.upsample_s": secs("transform.upsample"),
        "transform.warp_s": secs("transform.warp"),
        "refine.s": secs("refine"),
        "refine.steps_accepted": attr("refine", "steps_accepted"),
        "refine.steps_rejected": attr("refine", "steps_rejected"),
        "refine.energy_ratio":
            attr("refine", "energy_last") / first if first else 0.0,
        "refine.energy_evals": len(by_name["refine.energy"]),
        "metrics.jacobian_s": secs("metrics.jacobian"),
        "metrics.dice_s": secs("metrics.dice"),
        "pipeline.self_s": self_time(spans, "pipeline"),
        "cli.self_s": self_time(spans, "cli"),
    }


def stage_seconds(spans) -> dict:
    return {stage: sum(s["end"] - s["start"] for s in spans
                       if s["name"] in names)
            for stage, names in STAGE_SPANS.items()}


def read_timings(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def measure(w, baselines, seconds, traced_run, pairs_dir, work, env, t_run):
    """Closed loop over the pairs; returns job records and pair quality."""
    import workloads

    plan = [(i, traced) for i in range(len(baselines))
            for traced in ((0, 1) if traced_run else (0,))]
    deadline = time.monotonic() + RUN_DEADLINE_S - (time.perf_counter()
                                                    - t_run)
    jobs, first_outputs, quality = [], {}, {}
    longest = 0.0
    t_loop = time.perf_counter()
    for n, (pair, traced) in enumerate(itertools.cycle(plan)):
        elapsed = time.perf_counter() - t_loop
        if n >= len(plan) and elapsed + longest > seconds:
            break
        if time.monotonic() + longest > deadline:
            break
        pair_dir = pairs_dir / f"pair{pair}"
        out_dir = work / f"out{n}"
        argv = workloads.register_argv(w, pair_dir, out_dir)
        spans_path = work / f"spans{n}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "job.py"), "--spans",
                   str(spans_path), "--pair", str(pair), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "densereg.cli"] + argv
        code, wall, cpu, rss_mb = run_job(cmd, env, work / f"log{n}.txt",
                                          deadline)
        longest = max(longest, wall)
        job = {"n": n, "pair": pair, "traced": bool(traced), "exit": code,
               "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb,
               "problems": []}
        jobs.append(job)
        if code != 0:
            log = (work / f"log{n}.txt").read_text(errors="replace")
            job["problems"].append(f"exit code {code}: {log[-500:]}")
        else:
            try:
                check_job(w, job, pair_dir, out_dir, baselines[pair],
                          first_outputs, quality)
                if traced:
                    trace = json.loads(spans_path.read_text())
                    job["spans"] = trace["spans"]
                    job["missing_targets"] = trace["missing"]
                    job["layers"] = layer_metrics(trace["spans"], out_dir)
                    job["stage_spans"] = stage_seconds(trace["spans"])
                    job["stage_timings"] = read_timings(out_dir
                                                        / "timings.txt")
            except (OSError, KeyError, ValueError) as exc:
                job["problems"].append(f"unreadable output: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        # Flush this job's writes so their write-back does not land in
        # the next job's time.
        os.sync()
        print(f"job {n}: pair {pair} traced={int(bool(traced))} "
              f"exit={code} wall={wall:.3f}s cpu={cpu:.3f}s "
              f"rss={rss_mb:.1f}MiB problems={len(job['problems'])}",
              flush=True)
    return jobs, quality


def check_job(w, job, pair_dir, out_dir, baseline, first_outputs, quality):
    """Output gate for one finished job (see README, 'Output gate')."""
    import workloads

    pair = job["pair"]
    digests = {name: file_digest(out_dir / name)
               for name in COMPARED_OUTPUTS}
    if pair not in first_outputs:
        first_outputs[pair] = (job["n"], job["traced"], digests)
    else:
        n0, traced0, digests0 = first_outputs[pair]
        for name in COMPARED_OUTPUTS:
            if digests[name] != digests0[name]:
                kind = "traced vs untraced" if traced0 != job["traced"] \
                    else "repeat"
                job["problems"].append(f"{name} differs from job {n0} "
                                       f"({kind})")
    if pair not in quality:
        quality[pair], problems = workloads.evaluate(w, pair_dir, out_dir,
                                                     baseline)
        job["problems"] += problems


def set_up(w, seed: int, pairs: int, pairs_dir: Path):
    """Set up the run's pairs; returns (set-up seconds, generation
    seconds, pair baselines)."""
    import workloads

    setup_s, generate_s = [], []
    for i in range(pairs):
        s, g = workloads.set_up_pair(w, seed, i, pairs_dir / f"pair{i}")
        setup_s.append(s)
        generate_s.append(g)
    baselines = [workloads.pair_baseline(pairs_dir / f"pair{i}")
                 for i in range(pairs)]
    return setup_s, generate_s, baselines


def median_of(jobs, key):
    values = [j[key] for j in jobs]
    return statistics.median(values) if values else 0.0


def crosscheck(traced_jobs, tolerance: float):
    """Compare span-derived stage times with the pipeline's timings.txt."""
    rows = []
    for job in traced_jobs:
        for stage, span_s in job["stage_spans"].items():
            if stage not in job["stage_timings"]:
                continue
            stage_s = job["stage_timings"][stage]
            rows.append({"job": job["n"], "stage": stage, "span_s": span_s,
                         "timings_s": stage_s,
                         "flagged": abs(span_s - stage_s) > tolerance})
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "densereg" / "__init__.py").is_file():
        print(f"perfbench: {src / 'densereg'} not found; run from the root "
              f"of a densereg checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    caps = {var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS}
    os.environ.update(caps)
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    w = workloads.WORKLOADS[args.workload]
    t_run = time.perf_counter()
    env_record = environment(root, src, caps)
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)

    state = root / ".perfbench"
    work = state / f"work-{w.name}-{args.seed}-{os.getpid()}"
    child_env = dict(os.environ, PYTHONPATH=str(src))
    try:
        # A traced run times one pair, untraced and traced.
        pairs = 1 if args.trace else workloads.PAIRS
        setup_s, generate_s, baselines = set_up(w, args.seed, pairs,
                                                work / "pairs")
        os.sync()
        jobs, quality = measure(w, baselines, args.seconds, args.trace,
                                work / "pairs", work, child_env, t_run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [j for j in jobs if not j["traced"] and j["exit"] == 0]
    traced = [j for j in jobs if j["traced"] and "layers" in j]
    values = {
        "register_s": median_of(untraced, "wall_s"),
        "peak_rss_mb": median_of(untraced, "rss_mb"),
        "setup_s": statistics.median(setup_s),
        "dice_mean": statistics.fmean(q["dice_mean"]
                                      for q in quality.values())
        if quality else 0.0,
    }
    checks = []
    if args.trace:
        overhead = median_of(traced, "wall_s") - values["register_s"]
        checks = crosscheck(traced, abs(overhead))
        for row in checks:
            print("crosscheck {stage}: spans {span_s:.4f}s timings.txt "
                  "{timings_s:.4f}s{flag}".format(
                      flag=" FLAGGED" if row["flagged"] else "", **row))
        for key in traced[0]["layers"] if traced else ():
            values[key] = statistics.median(j["layers"][key] for j in traced)
        for key in ("endpoint_err_vox", "folding_pct"):
            values[f"quality.{key}"] = statistics.fmean(
                q[key] for q in quality.values()) if quality else 0.0
        values["phantom.generate_s"] = statistics.median(generate_s)
        values["trace.overhead_s"] = overhead
        values["trace.stages_flagged"] = sum(r["flagged"] for r in checks)
    failed = sum(1 for j in jobs if j["problems"])
    # A trace target the program no longer has leaves the metrics it fed
    # at 0, so the result cannot be trusted until the tracer is updated.
    missing_targets = sorted({t for j in traced
                              for t in j["missing_targets"]})
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing and traced:
        raise KeyError(f"metrics not computed: {missing}")
    # Without a successful traced job the layer metrics read 0 and the
    # result is marked incorrect.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in section}

    for target in missing_targets:
        print(f"MISSING trace target {target}: the program no longer has "
              f"it; update perfbench/tracer.py")
    for job in jobs:
        for problem in job["problems"]:
            print(f"FAILED job {job['n']} pair {job['pair']}: {problem}")
    result = {"correct": failed == 0 and not missing and not missing_targets,
              "attempted": len(jobs), "failed": failed, "metrics": metrics}

    (state / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": w.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env_record, "setup_s": setup_s,
              "generate_s": generate_s, "missing_targets": missing_targets,
              "quality": {str(k): v for k, v in sorted(quality.items())},
              "jobs": jobs, "crosscheck": checks, "result": result}
    name = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (state / "results" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
