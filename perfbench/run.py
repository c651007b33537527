"""quadrantal benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Workloads: compute and cli (see perfbench/README.md); the families that
compute mixes, classgroup, census and numberfield, also run alone.
--workload all runs compute and cli in turn and prints both reports.

--trace 0 measures the end-to-end metrics: a fresh worker process runs the
seeded jobs of rounds(workload, S) rounds in a closed loop with one client;
set-up is measured on that worker and on extra set-up-only workers, and
reported as the median.  Times are reported at reference speed: scaled by
how long the reference kernel took just before and after them (see
at_reference_speed).  --trace 1 runs the same timed worker, then replays its
jobs in a second fresh worker with the tracer installed, and reports the
per-layer metrics plus the tracing overhead (traced over untraced job time
for the same jobs, each at reference speed; for cli both sides call
quadrantal.cli.main in-process).  Every job's result is
checked by the oracles in oracles.py after the workers finish.  The last
line of stdout is the JSON result; the full record, with machine details,
goes to .bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import oracles
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
RUN_DIR = CHECKOUT / ".bench_run"

SETUP_PROBES = 6      # set-up-only workers per run, besides the measured one
RUN_LIMIT_S = 170.0   # every worker of one run is killed after this long
LAYERS = ("arith", "polynomial", "numberfield", "quadring", "units", "cyclotomic", "census", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/ref_s",
    "job_p50_ms": "ref_ms",
    "job_p90_ms": "ref_ms",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    out = {}
    for module, path in tracer.TIMED:
        out[f"{module}.{path}.calls"] = "count"
        out[f"{module}.{path}.self_s"] = "s"
    for module, path in tracer.COUNTED:
        out[f"{module}.{path}.calls"] = "count"
    out["quadring.is_principal.found_ratio"] = "ratio"
    out["units.fundamental_unit.cache_hit_ratio"] = "ratio"
    for name in ("import_s", "parse_s", "handler_s", "emit_s"):
        out[f"cli.{name}"] = "s"
    for layer in LAYERS:
        out[f"{layer}.lines"] = "count"
    out["trace.overhead_ratio"] = "ratio"
    return out


class WorkerFailed(RuntimeError):
    pass


def scratch_dir() -> Path:
    return RUN_DIR / f"tmp-{os.getpid()}"


def run_worker(workload: str, specs_json: str, deadline: float, *extra) -> tuple[dict | None, float]:
    """Spawn one fresh worker; return (its record, seconds from spawn to READY)."""
    RUN_DIR.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--tmp", str(scratch_dir()), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=CHECKOUT, text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(specs_json)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker {' '.join(extra)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), setup_s


def check_jobs(workload: str, specs, record) -> list[dict]:
    """Oracle verdict for every job the worker ran."""
    verdicts = []
    for spec, job in zip(specs, record["jobs"]):
        if job["status"] == "ok":
            try:
                problems = oracles.CHECKERS[workloads.family(workload, spec)](spec, job["result"])
            except Exception as e:  # a malformed result is a wrong result
                problems = [f"oracle could not read the result: {type(e).__name__}: {e}"]
            status = "passed" if not problems else "wrong"
        else:
            problems = [job.get("error", "exceeded cap")]
            status = job["status"]
        verdicts.append({"status": status, "problems": problems, "latency_s": job["latency_s"],
                         "cap_s": spec["cap"], "label": workloads.job_label(workload, spec)})
    return verdicts


def percentile(sorted_values, p: float) -> float:
    """Nearest rank: the smallest value with at least p percent of the values
    at or below it.  Runs mix job kinds of very different cost; this picks a
    measured job, never a blend across the gap between two kinds."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def at_reference_speed(times, timing) -> list[float]:
    """Each time as it would have been at reference speed.

    The host is shared, and the speed it gives one process drifts by up to
    2x within seconds; a fixed loop drifts with it.  A reference kernel
    (worker.KERNELS) runs before each timed piece of work and once after the
    last, so timing["kernel_s"] has one more entry than times.  Time i is
    scaled by the kernel's reference time over the mean of its times just
    before and just after it.  The kernels never call the program, so a
    change to the program moves the scaled times and not the scale."""
    ref = worker.KERNELS[timing["kernel"]][1]
    ks = timing["kernel_s"]
    return [t * 2 * ref / (ks[i] + ks[i + 1]) for i, t in enumerate(times)]


def scaled_latencies(verdicts, timing) -> list[float]:
    """Job times at reference speed.  A failed job counts at its cap, or at
    its measured time if longer (a timeout), unscaled: the cap is a limit on
    wall time."""
    scaled = at_reference_speed([v["latency_s"] for v in verdicts], timing)
    return [t if v["status"] == "passed" else max(v["latency_s"], v["cap_s"])
            for v, t in zip(verdicts, scaled)]


def reference_speed(timing) -> float:
    """The host's mean speed over a run, relative to the reference."""
    return worker.KERNELS[timing["kernel"]][1] / statistics.mean(timing["kernel_s"])


def unscaled(timing) -> dict:
    """The same timing with every kernel at its reference time: scaling by
    it leaves times as measured."""
    ref = worker.KERNELS[timing["kernel"]][1]
    return {**timing, "kernel_s": [ref] * len(timing["kernel_s"])}


def end_to_end(verdicts, record, setup) -> dict[str, float]:
    """setup holds the set-up time of each worker (setup_s) and the spawn
    kernel times around them."""
    attempted = len(verdicts)
    passed = sum(v["status"] == "passed" for v in verdicts)
    scaled = scaled_latencies(verdicts, record)
    lat = sorted(scaled)
    return {
        "setup_s": statistics.median(at_reference_speed(setup["setup_s"], setup)),
        "jobs_per_s": passed / sum(scaled),
        "job_p50_ms": percentile(lat, 50) * 1000,
        "job_p90_ms": percentile(lat, 90) * 1000,
        "passed_frac": passed / attempted,
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
    }


def source_lines() -> dict[str, int]:
    out = {}
    for layer in LAYERS:
        path = SRC / "quadrantal" / f"{layer}.py"
        out[layer] = len(path.read_text().splitlines()) if path.is_file() else 0
    return out


def per_layer(traced, timed, lines) -> dict[str, float]:
    t = traced["trace"]
    out = {}
    for module, path in tracer.TIMED:
        name = f"{module}.{path}"
        out[f"{name}.calls"] = t["calls"].get(name, 0)
        out[f"{name}.self_s"] = t["self_s"].get(name, 0.0)
    for module, path in tracer.COUNTED:
        name = f"{module}.{path}"
        out[f"{name}.calls"] = t["calls"].get(name, 0)
    calls = t["calls"].get("quadring.is_principal", 0)
    out["quadring.is_principal.found_ratio"] = (
        t["found"].get("quadring.is_principal", 0) / calls if calls else 0.0
    )
    cache = traced["fundamental_unit_cache"]
    lookups = cache["hits"] + cache["misses"]
    out["units.fundamental_unit.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["cli.import_s"] = traced["import_s"]
    out["cli.parse_s"] = t["self_s"].get("cli.parse", 0.0)
    out["cli.handler_s"] = t["total_s"].get("cli.handler", 0.0)
    out["cli.emit_s"] = t["total_s"].get("cli.emit", 0.0)
    for layer, count in lines.items():
        out[f"{layer}.lines"] = count
    out["trace.overhead_ratio"] = busy_at_reference_speed(traced) / busy_at_reference_speed(timed)
    return out


def busy_at_reference_speed(record) -> float:
    return sum(at_reference_speed([j["latency_s"] for j in record["jobs"]], record))


def machine(worker_record, cpus) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadrantal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(cpus),
        "bench_cpu": cpus[-1],
        "python": platform.python_version(),
        "mpmath": worker_record.get("mpmath"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = CHECKOUT / ".git"
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


def run_one(workload: str, seed: int, seconds: float, trace: int, cpus) -> dict | None:
    """Run one workload, print its report and return the result object."""
    deadline = perf_counter() + RUN_LIMIT_S
    n_rounds = workloads.rounds(workload, seconds)
    specs = [s for s in workloads.GENERATORS[workload](seed) if s["round"] < n_rounds]
    specs_json = json.dumps(specs)
    try:
        if trace == 0:
            # set-up is process start-up and import, scaled by the spawn kernel
            setup = {"kernel": "spawn", "kernel_s": [], "setup_s": []}
            for probe in range(SETUP_PROBES + 1):  # the last one runs the jobs
                setup["kernel_s"].append(worker.time_kernel("spawn"))
                only = ("--setup-only",) if probe < SETUP_PROBES else ()
                record, setup_s = run_worker(workload, specs_json, deadline, *only)
                setup["setup_s"].append(setup_s)
            setup["kernel_s"].append(worker.time_kernel("spawn"))
            verdicts = check_jobs(workload, specs, record)
            metrics = end_to_end(verdicts, record, setup)
            units = END_TO_END_UNITS
            extra_checks = []
        else:
            timed, _ = run_worker(workload, specs_json, deadline)
            extra_checks = check_jobs(workload, specs, timed)
            if workload == "cli":
                # the traced cli run calls main in-process; so must its baseline
                timed, _ = run_worker(workload, specs_json, deadline, "--inprocess")
                extra_checks += check_jobs(workload, specs, timed)
            spans = RUN_DIR / f"spans-{workload}-seed{seed}.json"
            record, _ = run_worker(workload, specs_json, deadline,
                                   "--inprocess", "--trace", "--spans", str(spans))
            verdicts = check_jobs(workload, specs, record)
            metrics = per_layer(record, timed, source_lines())
            units = per_layer_units()
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch_dir(), ignore_errors=True)

    correct = all(v["status"] not in ("wrong", "error") for v in verdicts + extra_checks)
    attempted = len(verdicts)
    failed = sum(v["status"] != "passed" for v in verdicts)
    info = machine(record, cpus)
    lines = source_lines()
    speed = reference_speed(record)

    print(f"# job times: wall ms, and ref ms at reference speed (x{speed:.4f} on average in this run)")
    for i, (v, ref) in enumerate(zip(verdicts, scaled_latencies(verdicts, record))):
        note = "" if v["status"] == "passed" else "  " + "; ".join(v["problems"])[:300]
        print(f"job {i:4d} {v['label']:<32} {v['status']:<8} {v['latency_s'] * 1000:10.1f} ms "
              f"{ref * 1000:10.1f} ref_ms{note}")
    print(f"# workload {workload} seed {seed} trace {trace}: {attempted} jobs, {failed} failed, "
          f"{sum(v['status'] == 'timeout' for v in verdicts)} timeouts, correct={correct}")
    shown = dict(metrics)
    if trace == 0:
        shown["failed_frac"] = failed / attempted
        shown["reference_speed"] = speed
        wall = end_to_end(verdicts, unscaled(record), unscaled(setup))
        for name in ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms"):
            shown[f"wall_{name}"] = wall[name]
    for name, value in shown.items():
        note = " (fewer than 10 jobs above p90)" if name == "job_p90_ms" and attempted < 100 else ""
        unit = units.get(name, units.get(name.removeprefix("wall_"), "ratio").replace("ref_", ""))
        print(f"# {name:<48} {value:>14.6g} {unit:<7} (n={attempted} jobs){note}")
    print(f"# machine {json.dumps(info)}")
    print(f"# source lines {json.dumps(lines)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    RUN_DIR.mkdir(exist_ok=True)
    full = {**result, "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "failed_frac": failed / attempted, "reference_speed": speed, "machine": info,
            "source_lines": lines, "kernel": record["kernel"], "kernel_s": record["kernel_s"],
            "fundamental_unit_cache": record["fundamental_unit_cache"], "jobs": verdicts}
    if trace:
        full["tracer"] = record["trace"]
    else:
        full["setup"] = setup
    (RUN_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(full, indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.GENERATORS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "quadrantal" / "__init__.py").is_file():
        print(f"error: no quadrantal sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so that the
    # reference kernel runs where the jobs run: the CPUs of a shared host
    # are slowed by other guests independently of each other.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, args.trace, cpus)
        if results[name] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
