"""qchroma benchmark: closed-loop workloads, golden checks, per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload colour-direct --seed 1 --seconds 25 --trace 0

One client in one single-threaded process runs the workload's job in a
closed loop: the next job starts when the previous one has finished and
been checked.  Jobs run until starting another would pass `--seconds`
(at least MIN_CYCLES cycles run).  The package is imported from `src/`
next to this directory; nothing is installed.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json and
installs no wrappers.  `--trace 1` alternates untraced and traced jobs and
reports the per-layer metrics: span times are medians over traced jobs,
counts come from one traced job and must repeat exactly in every traced
job, and `trace.overhead_frac` compares the traced and untraced medians.

Set-up is timed from before `import qchroma` to inputs ready, once in this
process and SETUP_RUNS - 1 more times in fresh child processes, because
qchroma's caches live for the process; `setup_s` is the median.  The child
set-ups run between jobs, spread over the run, because a shared machine's
speed can drift within seconds and samples taken back to back share one
speed.

Every line but the last is informational.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("colour-direct", "colour-dual", "verify", "point-query")
MIN_CYCLES = 2
SETUP_RUNS = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=str(HERE / "golden.json"),
                    help="golden certificate digests (default: %(default)s)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print the seconds and exit")
    return ap.parse_args(argv)


def set_up(args):
    """Import the package from this checkout and build the workload's inputs."""
    with open(args.golden) as fh:
        golden = json.load(fh)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qchroma
    import workloads
    wl = workloads.make(args.workload, args.seed, golden)
    elapsed = time.perf_counter() - t0
    if not Path(qchroma.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qchroma was imported from {qchroma.__file__}, not {SRC}")
    return wl, elapsed


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--golden", args.golden, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_jobs(wl, seconds: float, kinds: list, on_job, between=None) -> None:
    """Closed loop over `kinds` (a cycle of job runners) until time is up.

    `on_job(kind, seconds, output)` records each job.  A new cycle starts
    only while the elapsed time plus the median cycle so far fits.
    `between(progress)`, if given, runs after each cycle with the share of
    `seconds` used so far; its own time is not counted.
    """
    start = time.perf_counter()
    paused = 0.0
    cycles: list[float] = []
    while len(cycles) < MIN_CYCLES or (time.perf_counter() - start - paused
                                     + statistics.median(cycles)) <= seconds:
        c0 = time.perf_counter()
        for kind in kinds:
            out, dt = kind(wl)
            on_job(kind, dt, out)
            del out
        cycles.append(time.perf_counter() - c0)
        if between:
            between((time.perf_counter() - start - paused) / seconds)
            paused += time.perf_counter() - c0 - cycles[-1]


def untraced(wl):
    t0 = time.perf_counter()
    out = wl.job()
    return out, time.perf_counter() - t0


def environment(wl, args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(), "seed": args.seed,
            "workload": args.workload, "trace": args.trace, "sizes": wl.sizes}


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, args, setup_first: float, report) -> tuple[dict, dict]:
    setups = [setup_first]
    times: list[float] = []

    def on_job(kind, dt, out):
        times.append(dt)
        report(*wl.check(out))

    def sample_setup(progress: float) -> None:
        while len(setups) < min(SETUP_RUNS, 1 + int(progress * SETUP_RUNS)):
            setups.append(setup_in_child(args))

    run_jobs(wl, args.seconds, [untraced], on_job, sample_setup)
    sample_setup(1.0)
    info = {"jobs": len(times), "job_s": times, "setup_samples_s": setups}
    values = {
        "vertices_per_s": wl.vertices * len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, info


def per_layer(wl, args, report, names: list[str]) -> tuple[dict, dict]:
    from spans import Tracer
    tracer = Tracer()
    plain: list[float] = []
    traced_times: list[float] = []
    snaps: list[dict] = []
    counts: list[dict] = []

    def traced(wl):
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.job()
            dt = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        return out, dt

    def on_job(kind, dt, out):
        report(*wl.check(out))
        if kind is untraced:
            plain.append(dt)
            return
        traced_times.append(dt)
        snaps.append(tracer.snapshot())
        counts.append({**{k: v["calls"] for k, v in snaps[-1].items()},
                       **wl.layer_counts(out)})

    run_jobs(wl, args.seconds, [untraced, traced], on_job)
    report(1, [] if all(c == counts[0] for c in counts)
           else ["trace counts differ between traced jobs of one run"])
    values = {"trace.overhead_frac":
              statistics.median(traced_times) / statistics.median(plain) - 1}
    for name in names:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = counts[0][span]
        elif field in ("s", "self_s"):
            values[name] = statistics.median(s[span][field] for s in snaps)
        else:  # a workload reports only the counts its job produces
            values[name] = counts[0].get(name, 0)
    info = {"jobs": len(plain) + len(traced_times), "traced_jobs": len(traced_times),
            "job_s_p50_untraced": statistics.median(plain),
            "job_s_p50_traced": statistics.median(traced_times)}
    return values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, setup_first = set_up(args)
    if args.setup_only:
        print(repr(setup_first))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = {"attempted": 0, "failures": []}

    def report(attempted: int, failures: list[str]) -> None:
        tally["attempted"] += attempted
        tally["failures"] += failures

    if hasattr(wl, "setup_checks"):
        report(*wl.setup_checks())
    if args.trace:
        metrics = spec["per_layer"]
        values, info = per_layer(wl, args, report, [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        values, info = end_to_end(wl, args, setup_first, report)
    failed = len(tally["failures"])
    info.update(environment(wl, args), failed_frac=failed / tally["attempted"],
                failures=tally["failures"][:10])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": tally["attempted"], "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
