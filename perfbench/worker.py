"""One fresh interpreter of a benchmark run: set up, then a closed loop.

Started by ``run.py``; not meant to be run by hand.  It imports the
program from ``src/``, builds the workload's first cycle of inputs and
prints ``READY``, which ends the set-up the parent times.  With
``--setup-only`` it exits there.  Otherwise one client runs whole cycles
of operations, each sent only after the last completed, until the next
cycle would end after ``--seconds`` (or exactly ``--cycles`` cycles),
and prints one JSON line with the latencies, failures, per-cycle digests
and peak memory, plus per-layer metrics when ``--trace 1``.

Each operation is bracketed by two probes of the machine's speed
(``speed.py``); the line reports, with every latency, the mean probe time
around it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    wl = workloads.Workload(workloads.WORKLOADS[args.workload], args.seed, args.workdir)
    ops = wl.cycle(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, failures, digests = [], [], []
    cycle = 0
    start = perf_counter()
    while True:
        h = hashlib.sha256()
        for op in ops:
            before = speed.probe()
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failing op is counted, never fatal
                result, error = None, exc
            finally:
                dt = perf_counter() - t0
                if tracer:
                    tracer.active = False
            latencies.append([op.kind, dt, (before + speed.probe()) / 2])
            if error is not None:
                problems = ["".join(traceback.format_exception_only(error)).strip()]
                text = f"raised {type(error).__name__}"
            else:
                try:
                    problems, text = op.check(result)
                except Exception as exc:
                    problems, text = [f"check raised {exc!r}"], ""
            if problems:
                failures.append([cycle, op.kind, "; ".join(problems[:3])])
            h.update(f"{op.kind}\n{text}\n".encode())
        digests.append(h.hexdigest())
        cycle += 1
        elapsed = perf_counter() - start
        if args.cycles:
            if cycle >= args.cycles:
                break
        elif elapsed + elapsed / cycle > args.seconds:
            break
        ops = wl.cycle(cycle)

    out = {
        "latencies": latencies,
        "failures": failures,
        "digests": digests,
        "cycles": cycle,
        "loop_s": perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics() if tracer else None,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
