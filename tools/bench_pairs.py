"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --pr N [--seeds 1 2 ... 10]

Exports REV with `git archive` and copies the files of this working tree
(`git ls-files -co --exclude-standard`: tracked and untracked, not ignored)
into two sibling directories under one temporary directory outside the
checkout, so both sides run from the same kind of place.  For each seed, runs
`perfbench/run.py --workload all --seed S --seconds 30` once in each,
alternating which side runs first (the base first on odd pairs).  Each side
runs its own perfbench/.  Both copies are removed once the pairs finish or
fail.  Writes BENCH_<N>.json at the root of the checkout with:

- per end-to-end metric of BENCHMARK.json and workload: the medians and
  quartiles of both sides, the pairs in which the change was better (ties
  count for neither), and whether a gain would hold: better in at least
  nine tenths of the pairs, with medians apart by more than the distance
  between the base's quartiles;
- per workload, side and job kind, the median job time at reference speed
  (ref_ms, scaled as perfbench/run.py scales it) and its quartiles, over the
  jobs of every run of that side, so that a kind's change can be read
  against its spread: the template of a cli request; the family of a compute job,
  with class groups split into imaginary and real fields, the census into
  the sieve and per-class kinds and the number fields of degree 2
  (eisenstein2, the only jobs whose shift can reach mpmath) from the rest.  Beside them, base_total_ms and
  change_total_ms: the median over the runs of a side of the kind's summed
  ref_ms in each run, the kind's share of a run even where a few slow jobs
  skew it (h = 16 and 24 class groups, Phi_11), which a median job time
  times the job count understates; and base_total_quartiles and
  change_total_quartiles, the quartiles of those per-run totals, so that a
  kind's total can be read against the spread of the base's runs;
- per workload and percentile metric (job_p50_ms, job_p90_ms), how many
  runs of each side had it fall on each job kind (the kind of the job at
  that nearest rank), so a percentile claim can be checked against the
  group that sets it;
- every run's metrics, seed and order, and the kind each percentile fell on;
- per workload, run and side, the host's speed as perfbench saw it: the
  run record's reference_speed and the mean time of its reference kernel
  (kernel_s), and per workload and side their medians over the runs
  (drift), so that a reader can tell a slower program from a slower host
  across BENCH files, where the same source can read 11% apart;
- per workload and run, beside the scaled metrics, <workload>.wall_jobs_per_s:
  the jobs_per_s of the run's wall times, which no kernel scaled, as
  perfbench prints it (passed jobs over their summed latency_s, a failed
  job at its cap), and under drift each side's median of it, so that a
  reader can see whether the reference-speed scaling or the program moved
  a pair;
- the machine details that perfbench recorded, and on both sides `wc -l`
  of src/quadrantal/*.py (source_lines), its code lines: the distinct line
  numbers of each module's bytecode, every nested function and class
  included, as tools/compile_map.py counts them, so that docstring and
  comment edits do not move it (source_code_lines), and the count of its
  parameter defaults, functions and methods but not lambdas
  (source_options), per module and in total.

Both sides run with PYTHONDONTWRITEBYTECODE=1 and from copies that hold no
__pycache__ (it is ignored), so neither side starts from cached bytecode.

Each run takes 40-90 s, so ten pairs take 15-30 minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SECONDS = 30

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(CHECKOUT / "perfbench"))
import run as perfbench  # noqa: E402  (its job-time scaling)
from compile_map import code_lines  # noqa: E402  (this directory)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=CHECKOUT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """A fresh copy of the tree at commit in dest."""
    dest.mkdir()
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", commit], cwd=CHECKOUT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")
    return dest


def copy_worktree(dest: Path) -> Path:
    """A copy in dest of the working tree's files that git does not ignore;
    files deleted from the working tree stay out."""
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = CHECKOUT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def run(tree: Path, seed: int) -> dict:
    """One perfbench run of every workload in tree: {metric: value} and the
    machine details of its compute record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
                           "--seconds", str(SECONDS)], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (seed {seed}, exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench reported wrong results in {tree} (seed {seed})")
    records = {workload: json.loads((tree / ".bench_run" / f"{workload}-seed{seed}-trace0.json").read_text())
               for workload in perfbench.workloads.WORKLOADS}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics |= {f"{workload}.wall_jobs_per_s": wall_jobs_per_s(record) for workload, record in records.items()}
    return {"metrics": metrics,
            "machine": records["compute"]["machine"],
            "job_ms": {workload: job_times(workload, record) for workload, record in records.items()},
            "percentile_kinds": {workload: percentile_kinds(workload, record) for workload, record in records.items()},
            "drift": {workload: host_speed(record) for workload, record in records.items()}}


def host_speed(record: dict) -> dict[str, float]:
    """The host's speed over one run record: perfbench's reference_speed and
    the mean time of the reference kernel that scales its jobs."""
    return {"reference_speed": record["reference_speed"], "kernel_s": statistics.mean(record["kernel_s"])}


def wall_jobs_per_s(record: dict) -> float:
    """jobs_per_s of one run record's wall times, as perfbench prints its
    wall_jobs_per_s: every kernel at its reference time, so no time is scaled."""
    passed = sum(job["status"] == "passed" for job in record["jobs"])
    return passed / sum(perfbench.scaled_latencies(record["jobs"], perfbench.unscaled(record)))


def drift_medians(runs: list[dict], workload: str) -> dict[str, dict]:
    """{side: the median over its runs of each host_speed value and of the
    workload's wall_jobs_per_s}."""
    wall = f"{workload}.wall_jobs_per_s"
    return {side: {**{key: statistics.median(r[side]["drift"][workload][key] for r in runs)
                      for key in ("reference_speed", "kernel_s")},
                   "wall_jobs_per_s": statistics.median(r[side]["metrics"][wall] for r in runs)}
            for side in ("base", "change")}


def job_kind(workload: str, label: str) -> str:
    """The kind of a job from its perfbench label (workloads.job_label)."""
    if workload == "cli":
        return label  # the template
    if label.startswith("m="):
        return "classgroup_imaginary" if label.startswith("m=-") else "classgroup_real"
    first = label.split()[0]
    if first in ("sieve", "perclass"):
        return f"census_{first}"
    # only an eisenstein2 job's shift reaches _separation_certified and mpmath
    return "numberfield_eisenstein2" if label == "eisenstein2" else "numberfield"


def job_times(workload: str, record: dict) -> dict[str, list[float]]:
    """{kind: [ref_ms of each job of that kind]} of one run record."""
    out: dict[str, list[float]] = {}
    for job, t in zip(record["jobs"], perfbench.scaled_latencies(record["jobs"], record)):
        out.setdefault(job_kind(workload, job["label"]), []).append(t * 1000)
    return out


def percentile_kinds(workload: str, record: dict) -> dict[str, str]:
    """{job_p50_ms, job_p90_ms: the kind of the job at that percentile} of one
    run record, by perfbench's nearest rank over the same scaled times."""
    times = zip(perfbench.scaled_latencies(record["jobs"], record),
                (job_kind(workload, job["label"]) for job in record["jobs"]))
    ranked = sorted(times, key=lambda pair: pair[0])
    return {f"job_p{p}_ms": perfbench.percentile(ranked, p)[1] for p in (50, 90)}


def kind_counts(runs: list[dict], workload: str) -> dict[str, dict]:
    """{percentile metric: {side: {kind: the runs whose percentile fell on it}}}."""
    return {metric: {side: dict(sorted(Counter(r[side]["percentile_kinds"][workload][metric] for r in runs).items()))
                     for side in ("base", "change")}
            for metric in ("job_p50_ms", "job_p90_ms")}


def kind_medians(runs: list[dict], workload: str) -> dict[str, dict]:
    """{kind: the median ref_ms of each side, its quartiles, the median and
    quartiles over runs of the kind's total ref_ms per run and the number of
    jobs}; both sides run the same seeds, so the same jobs."""
    out = {}
    for kind in sorted(runs[0]["base"]["job_ms"][workload]):
        per_run = {side: [r[side]["job_ms"][workload][kind] for r in runs] for side in ("base", "change")}
        out[kind] = {"jobs": sum(map(len, per_run["base"]))}
        for side, runs_ts in per_run.items():
            ts, totals = [t for run_ts in runs_ts for t in run_ts], list(map(sum, runs_ts))
            quartiles, total_quartiles = statistics.quantiles(ts, n=4), statistics.quantiles(totals, n=4)
            out[kind] |= {f"{side}_ms": statistics.median(ts), f"{side}_quartiles": [quartiles[0], quartiles[2]],
                          f"{side}_total_ms": statistics.median(totals),
                          f"{side}_total_quartiles": [total_quartiles[0], total_quartiles[2]]}
    return out


def source_lines(tree: Path) -> dict[str, int]:
    paths = sorted((tree / "src" / "quadrantal").glob("*.py"))
    lines = {f"src/quadrantal/{p.name}": len(p.read_bytes().splitlines()) for p in paths}
    return {**lines, "total": sum(lines.values())}


def source_code_lines(tree: Path) -> dict[str, int]:
    """The lines of each module that carry bytecode."""
    paths = sorted((tree / "src" / "quadrantal").glob("*.py"))
    lines = {f"src/quadrantal/{p.name}": len(code_lines(str(p))) for p in paths}
    return {**lines, "total": sum(lines.values())}


def source_options(tree: Path) -> dict[str, int]:
    """The parameter defaults of the functions and methods of each module."""
    options = {}
    for p in sorted((tree / "src" / "quadrantal").glob("*.py")):
        functions = [node.args for node in ast.walk(ast.parse(p.read_bytes()))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        options[f"src/quadrantal/{p.name}"] = sum(len(a.defaults) + sum(d is not None for d in a.kw_defaults)
                                                  for a in functions)
    return {**options, "total": sum(options.values())}


def summary(base: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "higher" else -1
    q_base, q_change = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
    gain = sign * (statistics.median(change) - statistics.median(base))
    improved = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    return {
        "better": better,
        "base_median": statistics.median(base),
        "base_quartiles": [q_base[0], q_base[2]],
        "change_median": statistics.median(change),
        "change_quartiles": [q_change[0], q_change[2]],
        "pairs_improved": improved,
        "gain_holds": improved >= 0.9 * len(base) and gain > q_base[2] - q_base[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against, e.g. HEAD~1")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")
    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    build = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs = []
    try:  # the copies serve this comparison only
        trees = {"base": export(commit, build / "base"), "change": copy_worktree(build / "change")}
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], seed)
                print(f"seed {seed} {side}: " + json.dumps(pair[side]["metrics"]), file=sys.stderr, flush=True)
            runs.append(pair)
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        code = {side: source_code_lines(tree) for side, tree in trees.items()}
        options = {side: source_options(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(build, ignore_errors=True)
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    metrics = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = f"{workload}.{metric['name']}"
            metrics[name] = {"unit": metric["unit"], **summary(
                [r["base"]["metrics"][name] for r in runs],
                [r["change"]["metrics"][name] for r in runs], metric["better"])}
    machine = runs[-1]["change"]["machine"]
    out = {
        "base": {"rev": args.base, "commit": commit,
                 "src_sha256": runs[-1]["base"]["machine"]["src_sha256"]},
        # the working tree: HEAD plus any uncommitted edits under src/
        "change": {"commit": git("rev-parse", "HEAD"), "src_edited": bool(git("status", "--porcelain", "src")),
                   "src_sha256": machine["src_sha256"]},
        "command": f"perfbench/run.py --workload all --seconds {SECONDS}",
        "pairs": len(runs),
        "machine": {k: v for k, v in machine.items() if k not in ("git_commit", "src_sha256")},
        "metrics": metrics,
        "job_ms_by_kind": {workload: kind_medians(runs, workload)
                           for workload in (w["name"] for w in spec["workloads"])},
        "percentile_kinds": {workload: kind_counts(runs, workload)
                             for workload in (w["name"] for w in spec["workloads"])},
        "drift": {workload: drift_medians(runs, workload) for workload in (w["name"] for w in spec["workloads"])},
        "source_lines": lines,
        "source_code_lines": code,
        "source_options": options,
        "runs": [{"seed": r["seed"], "first": r["first"], "base": r["base"]["metrics"],
                  "change": r["change"]["metrics"],
                  "percentile_kinds": {side: r[side]["percentile_kinds"] for side in ("base", "change")},
                  "drift": {side: r[side]["drift"] for side in ("base", "change")}}
                 for r in runs],
    }
    path = CHECKOUT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
