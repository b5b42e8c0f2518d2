"""tropgeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every measurement starts a fresh interpreter (``worker.py``), as a user's
command does, so no in-process cache carries over from one run to the
next.  See ``perfbench/README.md`` for the workloads and metrics.

``--trace 0`` times set-up in ``SETUPS`` fresh interpreters and reports
the median, then runs one closed loop of whole cycles for at most about
``--seconds`` and reports the end-to-end metrics.  Every time is
reported at the reference speed of ``speed.py``: it is multiplied by
``speed.REFERENCE_S`` over the mean of the two speed probes taken right
before and right after it, so that a spell in which other tenants slow
the machine down does not read as a slower program.  The benchmark's
processes run on one CPU, so that the probes read the CPU the timed work
runs on.  The record line keeps the times as measured.
``--trace 1`` runs ``TRACE_CYCLES`` cycles untraced, replays them with
every program function wrapped, checks that both runs gave the same
digest, and reports the per-layer metrics as measured and the
tracing overhead at the reference speed.

The last line of standard output is the result object; the line before
it records the run's conditions, digests and any failing operations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from tracer import metric_units  # noqa: E402

WORKLOADS = ("library", "commands")
SETUPS = 11
# A fixed tail percentile per workload, so that runs holding a different
# number of cycles stay comparable.  Each is the highest, in steps of
# 0.05, that leaves at least ten ops beyond it in the shortest run seen
# at this baseline: two cycles of 24 ops on library, three of 32 on
# commands.
TAIL_PERCENTILE = {"library": 0.75, "commands": 0.85}
# the traced run's cycles, fixed so that its counts repeat exactly for a seed
TRACE_CYCLES = 2
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def quantile(xs, p, steps=64):
    """Harrell-Davis estimate of the p-quantile of xs.

    It is a weighted mean of all order statistics, with Beta(p(n+1),
    (1-p)(n+1)) weights, so it does not jump from one op kind to the
    next the way a single order statistic does when a run mixes kinds of
    very different cost.  The weights are integrated by the midpoint rule.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ts = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(h * sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
                               for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def source_record() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tropgeo")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".tgc")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def start_worker(workload, seed, workdir, extra):
    """Start a worker and wait for it to finish set-up; returns (proc, seconds)."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, *extra]
    with open(os.path.join(workdir, "stderr.txt"), "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker set-up failed: {tail_of(workdir)}")
    except BaseException:
        stop(proc)
        raise
    return proc, setup_s


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def tail_of(workdir):
    with open(os.path.join(workdir, "stderr.txt")) as f:
        return f.read()[-2000:]


def finish(proc, workdir):
    """Wait for a worker and return its last output line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {tail_of(workdir)}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_loop(workload, seed, workdir, extra):
    proc, setup_s = start_worker(workload, seed, workdir, extra)
    res = finish(proc, workdir)
    if res is None:
        raise BenchError("worker printed no result")
    res["setup_s"] = setup_s
    return res


def busy_s(res):
    return sum(dt for _kind, dt, _probe in res["latencies"])


def scaled_busy_s(res):
    return sum(dt * speed.REFERENCE_S / probe for _kind, dt, probe in res["latencies"])


def per_kind_median_ms(res):
    kinds = {}
    for kind, dt, _probe in res["latencies"]:
        kinds.setdefault(kind, []).append(dt)
    return {k: round(1000 * statistics.median(v), 3) for k, v in kinds.items()}


def setup_only(args, workdir):
    """Set-up seconds of a fresh interpreter, and the mean probe time around it."""
    before = speed.probe()
    proc, s = start_worker(args.workload, args.seed, workdir, ["--setup-only"])
    finish(proc, workdir)
    return s, (before + speed.probe()) / 2


def end_to_end(lat, setups, rss_mb, tail_p):
    """The end-to-end metrics, from op latencies and set-up times in seconds."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * quantile(lat, 0.5), "ms"),
        "op_tail_ms": (1000 * quantile(lat, tail_p), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def untraced(args, work):
    # half of the set-ups run before the loop and half after it, so that
    # their median spans the run rather than one moment of it
    setups = [setup_only(args, os.path.join(work, f"setup{i}")) for i in range(SETUPS // 2)]
    res = run_loop(args.workload, args.seed, os.path.join(work, "main"),
                   ["--seconds", str(args.seconds)])
    setups += [setup_only(args, os.path.join(work, f"setup{i}"))
               for i in range(SETUPS // 2, SETUPS)]
    tail_p = TAIL_PERCENTILE[args.workload]
    metrics = end_to_end([dt * speed.REFERENCE_S / probe for _kind, dt, probe in res["latencies"]],
                         [s * speed.REFERENCE_S / probe for s, probe in setups],
                         res["peak_rss_mb"], tail_p)
    as_measured = end_to_end([dt for _kind, dt, _probe in res["latencies"]],
                             [s for s, _probe in setups], res["peak_rss_mb"], tail_p)
    record = {"as_measured": {k: v for k, (v, _unit) in as_measured.items()},
              "setup_runs_s": [s for s, _probe in setups], "tail_percentile": tail_p,
              "per_kind_median_ms": per_kind_median_ms(res),
              "latencies_ms": [[kind, round(1000 * dt, 3), round(1000 * probe, 3)]
                               for kind, dt, probe in res["latencies"]]}
    return res, metrics, record, []


def traced(args, work):
    cycles = ["--cycles", str(TRACE_CYCLES)]
    plain = run_loop(args.workload, args.seed, os.path.join(work, "plain"), cycles)
    res = run_loop(args.workload, args.seed, os.path.join(work, "traced"), [*cycles, "--trace", "1"])
    problems = [] if res["digests"] == plain["digests"] else ["traced digests differ from untraced"]
    units = metric_units()
    values = dict(res["layers"], **{"trace.overhead_s": scaled_busy_s(res) - scaled_busy_s(plain)})
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    record = {"untraced_failures": plain["failures"], "untraced_digests": plain["digests"]}
    if plain["failures"]:
        problems.append("the untraced pass had failing ops")
    return res, metrics, record, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="tropgeo benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn a termination request into an exception, so that workers are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and the workers, which inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "tropgeo", "__init__.py")):
        print(f"error: no tropgeo sources under {ROOT}/src", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_record(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
    }
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        res, metrics, extra, problems = (traced if args.trace else untraced)(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    attempted = len(res["latencies"])
    failed = len(res["failures"])
    record.update(extra, cycles=res["cycles"], loop_s=res["loop_s"], busy_s=busy_s(res),
                  ops=attempted, failed=failed, failed_ratio=failed / attempted,
                  failures=res["failures"], digest=res["digests"][0],
                  cycle_digests=res["digests"], problems=problems)
    print(json.dumps({"record": record}, sort_keys=True))
    for c, kind, why in res["failures"]:
        print(f"FAILED cycle {c} {kind}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
