"""Benchmark worker: runs one workload's jobs in a fresh process.

Reads the seeded job list as JSON on stdin, imports quadrantal from the
checkout's src/, builds the program-side inputs, prints READY, then runs
every job in the list in a closed loop with one client, each job under its
own time cap.  Before each job, and after the last, it times a reference
kernel, a fixed piece of work that never calls the program, so run.py can
tell how fast the host ran around each job.
The last line of stdout is one JSON record with every job's outcome and
result, the kernel times, peak RSS, the fundamental-unit cache statistics
and, with --trace, the tracer's per-layer totals.  Results are checked by
run.py, outside this process and outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from oracles import class_number_by_forms

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"

# Discriminants of the python kernel.
KERNEL_DISCRIMINANTS = range(-1999, -1600, 4)
# The spawn kernel: an interpreter that ignores the environment, and so
# never sees the program, importing a few standard modules.
SPAWN_KERNEL = [sys.executable, "-I", "-c", "import argparse, fractions, json"]


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job exceeds its cap; not an Exception, so
    no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def python_kernel() -> None:
    """Pure-Python integer work of fixed size that never calls the program:
    class numbers counted by reduced forms.  Its time tracks how fast the
    shared host runs Python in this process at that moment."""
    sum(class_number_by_forms(d) for d in KERNEL_DISCRIMINANTS)


def spawn_kernel() -> None:
    """Starts and waits for SPAWN_KERNEL.  Its time tracks how fast the host
    starts a Python process, which the python kernel does not: process
    start-up slows with the host's load in its own way."""
    subprocess.run(SPAWN_KERNEL, check=True, capture_output=True)


# Reference kernels, each with its time on the reference host (see
# perfbench/README.md).  Times are reported as if every kernel had taken
# its reference time: at reference speed.
KERNELS = {"python": (python_kernel, 0.005), "spawn": (spawn_kernel, 0.05)}


def time_kernel(name: str) -> float:
    t0 = perf_counter()
    KERNELS[name][0]()
    return perf_counter() - t0


def _fundamental_unit_cache(units) -> dict:
    fn = units.fundamental_unit
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}


def _read_csv(argv) -> str | None:
    if "--csv" not in argv:
        return None
    path = Path(argv[argv.index("--csv") + 1])
    if not path.is_file():
        return None
    text = path.read_text()
    path.unlink()
    return text


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inprocess", action="store_true",
                    help="cli: call quadrantal.cli.main in this process instead of a fresh one")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import quadrantal.cli  # noqa: F401  (imports every layer)
    import_s = perf_counter() - t0
    import quadrantal

    if Path(quadrantal.__file__).resolve().parent != SRC / "quadrantal":
        print(f"quadrantal imported from {quadrantal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs
    import mpmath
    from workloads import family
    from quadrantal import units

    specs = json.load(sys.stdin)
    workload = args.workload
    if workload == "cli":
        Path(args.tmp).mkdir(parents=True, exist_ok=True)
        prepared = [jobs.prepare_cli(s, args.tmp) for s in specs]
    else:
        prepared = [getattr(jobs, f"prepare_{family(workload, s)}")(s) for s in specs]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "cli":
        env = dict(os.environ)
        env.pop("QUADRANTAL_PRECISION", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    else:
        capture = jobs.SieveCapture()
        capture.install()

    def run(spec, prep):
        kind = family(workload, spec)
        if kind == "cli":
            return jobs.run_cli_inprocess(prep)
        if kind == "census":
            return jobs.run_census(spec, prep, capture)
        return getattr(jobs, f"run_{kind}")(spec, prep)

    subprocess_cli = workload == "cli" and not args.inprocess
    # requests in fresh processes are scaled by process start-up speed
    kernel = "spawn" if subprocess_cli else "python"
    signal.signal(signal.SIGALRM, _on_alarm)

    records = []
    kernel_s = []
    for i, (spec, prep) in enumerate(zip(specs, prepared)):
        gc.collect()  # every job starts from a clean heap, whatever ran before it
        kernel_s.append(time_kernel(kernel))
        if tracer:
            tracer.start_job(i)
        record = {"status": "ok", "result": None}
        t_job = perf_counter()
        try:
            if subprocess_cli:
                record["result"] = jobs.run_cli_process(prep, env, str(CHECKOUT), spec["cap"])
            else:
                signal.setitimer(signal.ITIMER_REAL, spec["cap"])
                try:
                    record["result"] = run(spec, prep)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (JobTimeout, subprocess.TimeoutExpired):
            record["status"] = "timeout"
        except Exception as e:  # the job's failure is recorded, the loop goes on
            record["status"] = "error"
            record["error"] = f"{type(e).__name__}: {e}"
        record["latency_s"] = perf_counter() - t_job
        if workload == "cli" and record["result"] is not None:
            record["result"]["csv"] = _read_csv(prep)
        records.append(record)
    kernel_s.append(time_kernel(kernel))

    who = resource.RUSAGE_CHILDREN if subprocess_cli else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    out = {
        "import_s": import_s,
        "kernel": kernel,
        "kernel_s": kernel_s,
        "peak_rss_kb": peak_rss_kb,
        "mpmath": mpmath.__version__,
        "fundamental_unit_cache": _fundamental_unit_cache(units),
        "jobs": records,
        "trace": tracer.summary() if tracer else None,
    }
    if tracer and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
