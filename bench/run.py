"""Benchmark entry point for shapeinv.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

Runs one of the four workloads described in BENCHMARK.json from the root of
a source checkout, with the library imported from `src/`.  Each workload
process is a fresh interpreter running `bench/workloads.py`; set-up is timed
from its launch to its first timed job, several times, and the median is
reported.  With `--trace 0` the last line of stdout carries the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run.
Everything else the run learned (machine facts, tail percentile, failing
jobs with their inputs) is printed above that line and written to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(BENCH, "out")
SETUP_SAMPLES = 5          # set-up-only launches, plus the measured one
IMPORT_PROBES = 3
DEADLINE_S = 170.0         # the whole run, set-up launches included
BASELINE = os.path.join(BENCH, "baseline.json")
MARGIN_SD = 4.0


class BenchError(Exception):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def launch(args: list, env: dict, timeout: float) -> dict:
    """Run one workload process; its set-up time counts from this launch."""
    cmd = [sys.executable, os.path.join("bench", "workloads.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process failed ({proc.returncode}):\n"
                         + proc.stderr[-3000:])
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["t_ready"] - t0
    return doc


def import_probe(env: dict) -> dict:
    """Wall time and `-X importtime` profile of a bare `import shapeinv`."""
    from tracing import import_profile
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import shapeinv"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("import shapeinv failed:\n" + proc.stderr[-3000:])
    prof = import_profile(proc.stderr)
    return {"process_ms": wall * 1e3, "import_ms": prof.get("shapeinv", 0) / 1e3,
            "numpy_import_ms": prof.get("numpy", 0) / 1e3,
            "site_import_ms": prof.get("site", 0) / 1e3}


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it,
    but never below the 90th (nearest rank).

    Returns (value, percentile, samples beyond).  The floor matters only
    under 100 jobs: `fd-oracle` runs about a dozen, where ten samples beyond
    would leave the fastest job as the "tail".
    """
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def untraced(args, env, t_start) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES):
        left = DEADLINE_S - (time.perf_counter() - t_start) - args.seconds
        setups.append(launch(base + ["--setup-only"], env, min(60.0, left))["setup_s"])
    left = DEADLINE_S - (time.perf_counter() - t_start)
    run = launch(base + ["--seconds", str(args.seconds)], env, left)
    return summarize(args.workload, run, setups + [run["setup_s"]])


def site(job: dict) -> str:
    """Where a job ran: its family, or its extension case."""
    return job["family"] if "family" in job else f"case-{job['case']}"


def outcome(workload: str, failures: list, attempted: int) -> dict:
    """The result line's verdict, judged against bench/baseline.json.

    A failure is unexpected if its class is not recorded for the workload,
    or is recorded only on other families (or extension cases).  A recorded
    class is in excess if its count passes its baseline share of the jobs by
    more than MARGIN_SD binomial standard deviations plus one job.  Either
    makes the run incorrect, so a change that adds wrong answers, or that
    pushes more jobs past the closed-forms deadline, cannot pass as a
    recorded defect.

    `failed` counts the jobs that break the gate: the unexpected ones and
    each job of a class beyond its limit.  Failures of recorded defects
    within their baseline share are the library as it stands; they are
    counted in `recorded_failures` and `fail_ratio`, not in `failed`.
    """
    with open(BASELINE, encoding="utf-8") as fh:
        known = json.load(fh)[workload]["classes"]
    unexpected = [f for f in failures if f["class"] not in known
                  or "on" in known[f["class"]] and site(f["job"]) not in known[f["class"]]["on"]]
    tally = _tally(failures)
    excess, failed = {}, len(unexpected)
    for cls, count in tally.items():
        if cls in known:
            p = known[cls]["share"]
            limit = attempted * p + MARGIN_SD * math.sqrt(attempted * p * (1 - p)) + 1
            if count > limit:
                excess[cls] = {"count": count, "limit": round(limit, 1)}
                failed += count - math.floor(limit)
    return {"correct": failed == 0,
            "attempted": attempted, "failed": failed,
            "recorded_failures": len(failures) - failed,
            "unexpected_failures": len(unexpected), "excess_classes": excess,
            "failure_classes": tally,
            "failures": failures}


def summarize(workload: str, run: dict, setups: list) -> tuple[dict, dict]:
    """End-to-end metrics and the run's outcome from one workload process."""
    lat = run["latencies_ms"]
    # abandoned jobs have no latency to rank, so the latency metrics are
    # censored at the deadline; their share is gated in `outcome`
    skip = set(run["abandoned"])
    done = [t for i, t in enumerate(lat) if i not in skip] or lat
    value, pct, beyond = tail(done)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(lat) / run["elapsed_s"],
        "job_p50_ms": statistics.median(done),
        "job_tail_ms": value,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    detail = {
        "fail_ratio": len(run["failures"]) / len(lat),
        "tail_percentile": pct, "tail_samples_beyond": beyond, "jobs": len(lat),
        "abandoned": len(skip), "elapsed_s": run["elapsed_s"], "setup_samples_s": setups,
    }
    return metrics, dict(detail, **outcome(workload, run["failures"], len(lat)))


def traced(args, env, t_start) -> tuple[dict, dict]:
    run = launch(["--workload", args.workload, "--seed", str(args.seed), "--trace", "1",
                  "--seconds", str(args.seconds)], env, DEADLINE_S - 30.0)
    metrics = dict(run["layers"])
    if "cli.process_ms" not in metrics:
        probes = [import_probe(env) for _ in range(IMPORT_PROBES)]
        for key in ("process_ms", "import_ms", "numpy_import_ms", "site_import_ms"):
            metrics[f"cli.{key}"] = statistics.median(p[key] for p in probes)
        metrics["cli.main_ms"] = 0.0
        metrics["cli.exit_mismatch"] = 0
    detail = {"spans_file": run["spans_file"], "per_call": run["per_call"]}
    return metrics, dict(detail, **outcome(args.workload, run["traced"]["failures"],
                                           len(run["traced"]["latencies_ms"])))


def _tally(failures: list) -> dict:
    out = {}
    for f in failures:
        out[f["class"]] = out.get(f["class"], 0) + 1
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description="shapeinv benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    from workloads import child_env
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = child_env()
    try:
        if args.trace:
            metrics, detail = traced(args, env, t_start)
            wanted = bench["per_layer"]
        else:
            metrics, detail = untraced(args, env, t_start)
            wanted = bench["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": importlib.metadata.version("numpy"),
             "git_commit": git_commit(),
             "clients": 1, "loop": "closed"}
    result = {"correct": detail.pop("correct"), "attempted": detail.pop("attempted"),
              "failed": detail.pop("failed"),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}"
                                 f"{'_trace' if args.trace else ''}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result, "all_metrics": metrics,
                   "detail": detail}, fh, indent=1)
    print("facts " + json.dumps(facts))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g}")
    for key in ("fail_ratio", "recorded_failures", "tail_percentile", "tail_samples_beyond", "jobs",
                "failure_classes", "excess_classes", "setup_samples_s"):
        if key in detail:
            print(f"{key} = {detail[key]}")
    for f in detail["failures"]:
        print(f"failed job [{f['class']}] {f['detail']} inputs={json.dumps(f['job'])}")
    print(f"report written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
