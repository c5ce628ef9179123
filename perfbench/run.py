#!/usr/bin/env python3
"""findual's benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload census --seed 5 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --record base.json

Run from the root of a findual checkout; the library is imported from its
`src/`.  One pass runs a workload's jobs one at a time, each in a process
forked from this one after `import findual`, so no module state carries from
job to job.  Passes repeat until the next one would end more than half a pass
after `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics (medians
over passes); with `--trace 1` it reports per-layer metrics from traced passes
alternated with untraced ones.  Every job's output is checked; a failed check,
a traceback or a timeout counts as a failed job and never stops the run.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

JOB_TIMEOUT_S = 60      # the slowest job, the (4,17) census, takes about 5 s
RUN_DEADLINE_S = 150    # per workload; jobs not started by then fail, so a run ends in time
SETUP_SAMPLES = 11
# Nominal seconds of reference_kernel().  Timed metrics are scaled to a machine
# on which the kernel takes this long; raw seconds are reported beside them.
REFERENCE_S = 0.06
REFERENCE_EVERY_S = 1.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "max_job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
OVERHEAD_METRIC = "bench.trace_overhead_s"


class BenchError(Exception):
    """The benchmark cannot run at all (as opposed to a job failing)."""


class JobResult(NamedTuple):
    name: str
    rc: int | None
    text: str
    sha256: str
    seconds: float
    cpu_s: float
    maxrss_kb: int
    problem: str | None
    layers: dict | None


class PassResult(NamedTuple):
    wall: float
    results: list
    traced: bool
    reference_s: float  # mean reference_kernel() seconds around and within the pass

    @property
    def scale(self):
        return REFERENCE_S / self.reference_s

    @property
    def cpu(self):
        return sum(r.cpu_s for r in self.results)

    @property
    def failed(self):
        return sum(r.problem is not None for r in self.results)


def import_findual():
    if not os.path.isfile(os.path.join(SRC, "findual", "__init__.py")):
        raise BenchError(f"no findual sources under {SRC}; run from a findual checkout")
    sys.path.insert(0, SRC)
    import findual
    import findual.cli

    if not os.path.abspath(findual.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported findual from {findual.__file__}, not from {SRC}")
    return findual


# ---------------------------------------------------------------------------
# one job in a forked child


def run_job(job, work_dir, trace=False, timeout=JOB_TIMEOUT_S) -> JobResult:
    """Fork, run `job` in the child and collect its output and resource use."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(job, work_dir, trace, timeout, write_fd)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    cpu = usage.ru_utime + usage.ru_stime
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        why = "timed out" if sig == signal.SIGALRM else f"killed by signal {sig}"
        return JobResult(job.name, None, "", "", 0.0, cpu, usage.ru_maxrss, why, None)
    try:
        payload = json.loads(data)
    except ValueError:
        payload = {"error": f"child exited with status {os.WEXITSTATUS(status)} and no report"}
    if "error" in payload:
        return JobResult(job.name, None, "", "", 0.0, cpu, usage.ru_maxrss, payload["error"], None)
    text = payload["text"]
    return JobResult(job.name, payload["rc"], text, hashlib.sha256(text.encode()).hexdigest(),
                     payload["seconds"], cpu, usage.ru_maxrss, None, payload["layers"])


def _child(job, work_dir, trace, timeout, write_fd):
    code = 70
    try:
        signal.alarm(timeout)
        os.chdir(work_dir)
        tr = None
        if trace:
            tr = tracer.Tracer()
            tracer.install(tr)
        from findual.cli import cli_run

        start = time.perf_counter()
        if job.call is not None:
            rc, text = 0, job.call()
        else:
            out = io.StringIO()
            rc = cli_run(list(job.argv), stdout=out)
            text = out.getvalue()
        seconds = time.perf_counter() - start
        if job.save_as:
            with open(job.save_as, "w") as fh:
                fh.write(text)
        payload = {"rc": rc, "text": text, "seconds": seconds,
                   "layers": tr.metrics() if tr else None}
        code = 0
    except Exception:
        payload = {"error": "traceback: " + traceback.format_exc().strip().splitlines()[-1]}
    try:
        data = json.dumps(payload).encode()
        while data:
            data = data[os.write(write_fd, data):]
    finally:
        os._exit(code)


def evaluate(workload, job, result, work_dir, digests):
    """What is wrong with a job's result, or None.

    `digests` None skips the digest comparison (used when recording them)."""
    if result.problem:
        return result.problem
    if job.expect_rc is not None and result.rc != job.expect_rc:
        return f"exit code {result.rc}, expected {job.expect_rc}"
    if digests is not None and workload.seed == workloads.DEFAULT_SEED:
        want = digests.get(workload.name, {}).get(job.name)
        if result.sha256 != want:
            return f"sha256 {result.sha256[:12]} != recorded {str(want)[:12]}"
    if job.check is not None:
        try:
            return job.check(result.rc, result.text, work_dir)
        except Exception as exc:  # a malformed output is a failed job, not a crash
            return f"check raised {type(exc).__name__}: {exc}"
    return None


def run_pass(workload, work_dir, digests, deadline, trace=False) -> PassResult:
    """Run every job once.  The reference kernel is timed before the first
    job, after the last, and between jobs at least every REFERENCE_EVERY_S;
    its runs are left out of the pass's wall time."""
    results = []
    references = [time_reference()]
    wall = since_reference = 0.0
    for job in workload.jobs:
        if since_reference >= REFERENCE_EVERY_S:
            references.append(time_reference())
            since_reference = 0.0
        start = time.perf_counter()
        remaining = int(deadline - time.monotonic())
        if remaining < 1:
            result = JobResult(job.name, None, "", "", 0.0, 0.0, 0,
                               "not started: run deadline", None)
        else:
            result = run_job(job, work_dir, trace, min(JOB_TIMEOUT_S, remaining))
        results.append(result._replace(problem=evaluate(workload, job, result, work_dir, digests)))
        elapsed = time.perf_counter() - start
        wall += elapsed
        since_reference += elapsed
    references.append(time_reference())
    return PassResult(wall, results, trace, statistics.mean(references))


# ---------------------------------------------------------------------------
# machine speed


def reference_kernel(p=10007, n=80):
    """Fixed interpreter-bound work that shares no code with findual: RREF of a
    pseudo-random n x n matrix over GF(p).

    The machine's speed drifts by a third over minutes when other tenants load
    it, and findual's jobs slow in step with this kernel; timing it next to
    each pass and scaling by it keeps run-to-run spread within the bounds."""
    rng = random.Random(1)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up


def measure_setup(samples=SETUP_SAMPLES):
    """Median seconds for a fresh interpreter to import findual and parse argv,
    scaled and raw.  The first start is discarded: it may compile bytecode."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "findual.cli", "--help"]
    times, scaled = [], []
    reference_before = time_reference()
    for _ in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
        reference_after = time_reference()
        scaled.append(times[-1] * 2 * REFERENCE_S / (reference_before + reference_after))
        reference_before = reference_after
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def prepare(workload, work_dir):
    """Write the workload's inputs from a child, so this process stays pristine."""
    def write_inputs():
        workload.prepare(work_dir)
        return ""

    result = run_job(workloads.Job("prepare", call=write_inputs), work_dir)
    if result.problem:
        raise BenchError(f"{workload.name} set-up failed: {result.problem}")


# ---------------------------------------------------------------------------
# one workload


def _enough(elapsed, durations, seconds):
    """Whether to stop: the next pass would end over half a pass past `seconds`.
    Overrunning by up to half a pass gives the slowest workload three passes."""
    return bool(durations) and elapsed + statistics.median(durations) / 2 > seconds


def measure(workload, work_dir, digests, seconds, deadline):
    """Untraced passes; end-to-end metrics as medians over passes, times
    scaled by each pass's reference time.  Also returns the raw medians."""
    setup_s, raw_setup_s = measure_setup()
    passes = []
    start = time.perf_counter()
    while not _enough(time.perf_counter() - start, [p.wall for p in passes], seconds):
        passes.append(run_pass(workload, work_dir, digests, deadline))
    med = statistics.median
    timed = {
        "wall_s": lambda p: p.wall,
        "max_job_s": lambda p: max(r.seconds for r in p.results),
        "cpu_s": lambda p: p.cpu,
    }
    values = {name: med(f(p) * p.scale for p in passes) for name, f in timed.items()}
    values["peak_rss_mb"] = med(max(r.maxrss_kb for r in p.results) / 1024 for p in passes)
    values["setup_s"] = setup_s
    raw = {name: med(f(p) for p in passes) for name, f in timed.items()}
    raw["setup_s"] = raw_setup_s
    raw["reference_s"] = med(p.reference_s for p in passes)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return passes, metrics, raw


def measure_traced(workload, work_dir, digests, seconds, deadline):
    """Untraced and traced passes in turn; per-layer metrics from the traced ones.

    A traced job whose output differs from its untraced run fails."""
    plain, traced = [], []
    start = time.perf_counter()
    pair_times = []
    while not _enough(time.perf_counter() - start, pair_times, seconds):
        t0 = time.perf_counter()
        plain.append(run_pass(workload, work_dir, digests, deadline))
        traced.append(_compare_digests(plain[-1], run_pass(workload, work_dir, digests,
                                                           deadline, trace=True)))
        pair_times.append(time.perf_counter() - t0)
    metrics = {}
    for name, unit in tracer.metric_units().items():
        per_pass = [sum(r.layers[name] for r in p.results if r.layers) for p in traced]
        if unit == "s":
            value = statistics.median(v * p.scale for v, p in zip(per_pass, traced))
        else:  # counts repeat exactly from pass to pass
            value = statistics.median_low(per_pass)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(p.wall * p.scale for p in traced)
                - statistics.median(p.wall * p.scale for p in plain))
    metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    raw = {"reference_s": statistics.median(p.reference_s for p in plain + traced)}
    return plain + traced, metrics, raw


def _compare_digests(plain, traced):
    results = []
    for a, b in zip(plain.results, traced.results):
        if b.problem is None and a.problem is None and a.sha256 != b.sha256:
            b = b._replace(problem="output differs with tracing on")
        results.append(b)
    return traced._replace(results=results)


def run_workload(workload, seconds, trace, digests, work_dir):
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(work_dir)
    prepare(workload, work_dir)
    measure_fn = measure_traced if trace else measure
    passes, metrics, raw = measure_fn(workload, work_dir, digests, seconds, deadline)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [f"pass {k}: {r.name}: {r.problem}"
                for k, p in enumerate(passes) for r in p.results if r.problem]
    plain = [p for p in passes if not p.traced]
    jobs = {job.name: {"median_s": statistics.median(p.results[i].seconds for p in plain),
                       "sha256": plain[0].results[i].sha256}
            for i, job in enumerate(workload.jobs)}
    return {"workload": workload.name, "seed": workload.seed, "trace": trace,
            "passes": len(passes), "untraced_pass_walls": [p.wall for p in plain],
            "attempted": attempted, "failed": failed, "fail_rate": failed / attempted,
            "metrics": metrics, "raw": raw, "jobs": jobs, "problems": problems}


# ---------------------------------------------------------------------------
# environment and reporting


def environment(findual_threads):
    env = {
        "git_sha": None,
        "git_dirty": None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "findual_threads_unset": True,
        "findual_threads_was": findual_threads,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "--no-optional-locks", "-C", ROOT]
        try:
            env["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                            text=True, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, check=True).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def summary_lines(res):
    out = [f"{res['workload']}: seed={res['seed']} trace={int(res['trace'])} "
           f"passes={res['passes']} jobs={res['attempted']} failed={res['failed']}"]
    raw = res["raw"]
    out.append(f"  reference kernel {raw['reference_s'] * 1e3:.1f} ms (nominal "
               f"{REFERENCE_S * 1e3:.0f} ms); times below are scaled to the nominal speed")
    if not res["trace"]:
        for name, m in res["metrics"].items():
            samples = SETUP_SAMPLES if name == "setup_s" else res["passes"]
            line = f"  {name:<12} {m['value']:>12.4f} {m['unit']:<5} median of {samples}"
            if name in raw:
                line += f", raw {raw[name]:.4f} s"
            out.append(line)
        out.append(f"  {'fail_rate':<12} {res['fail_rate']:>12.4f} {'ratio':<5} "
                   f"{res['failed']} of {res['attempted']} jobs")
    else:
        out.append(f"  {OVERHEAD_METRIC} {res['metrics'][OVERHEAD_METRIC]['value']:.4f} s")
    out += [f"  FAIL {line}" for line in res["problems"]]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result as JSON to this file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_findual()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(os.environ.pop("FINDUAL_THREADS", None))
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    work_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = [run_workload(workloads.build(name, args.seed), args.seconds,
                                bool(args.trace), digests, os.path.join(work_root, name))
                   for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    for res in results:
        print("\n".join(summary_lines(res)))
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"env": env, "seconds": args.seconds, "results": results}, fh, indent=1)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
