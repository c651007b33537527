"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --pr N [--seeds 1 2 ... 10]

Exports REV with `git archive` into .bench_build/base-<commit>/ and, for each
seed, runs `perfbench/run.py --workload all --seed S --seconds 30` once in
that export and once in this checkout, alternating which side runs first
(the base first on odd pairs).  Each side runs its own perfbench/.  The
export is removed once the pairs finish or fail.  Writes BENCH_<N>.json at
the root of the checkout with:

- per end-to-end metric of BENCHMARK.json and workload: the medians and
  quartiles of both sides, the pairs in which the change was better (ties
  count for neither), and whether a gain would hold: better in at least
  nine tenths of the pairs, with medians apart by more than the distance
  between the base's quartiles;
- per workload, side and job kind, the median job time at reference speed
  (ref_ms, scaled as perfbench/run.py scales it) and its quartiles, over the
  jobs of every run of that side, so that a kind's change can be read
  against its spread: the template of a cli request; the family of a compute job,
  with class groups split into imaginary and real fields and the census into
  the sieve and per-class kinds.  Beside them, base_total_ms and
  change_total_ms: the median over the runs of a side of the kind's summed
  ref_ms in each run, the kind's share of a run even where a few slow jobs
  skew it (h = 16 and 24 class groups, Phi_11), which a median job time
  times the job count understates;
- every run's metrics, seed and order;
- the machine details that perfbench recorded, and `wc -l` of
  src/quadrantal/*.py on both sides.

Both sides run with PYTHONDONTWRITEBYTECODE=1, and a checkout holding a
__pycache__ under src/ is refused: the export has none, and cached
bytecode would shorten only this side's start-up and CLI requests.

Each run takes 40-90 s, so ten pairs take 15-30 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
BUILD = CHECKOUT / ".bench_build"
SECONDS = 30

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(CHECKOUT / "perfbench"))
import run as perfbench  # noqa: E402  (its job-time scaling)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=CHECKOUT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str) -> Path:
    """A fresh copy of the tree at commit under BUILD."""
    dest = BUILD / f"base-{commit[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", commit], cwd=CHECKOUT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")
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
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "machine": records["compute"]["machine"],
            "job_ms": {workload: job_times(workload, record) for workload, record in records.items()}}


def job_kind(workload: str, label: str) -> str:
    """The kind of a job from its perfbench label (workloads.job_label)."""
    if workload == "cli":
        return label  # the template
    if label.startswith("m="):
        return "classgroup_imaginary" if label.startswith("m=-") else "classgroup_real"
    first = label.split()[0]
    return f"census_{first}" if first in ("sieve", "perclass") else "numberfield"


def job_times(workload: str, record: dict) -> dict[str, list[float]]:
    """{kind: [ref_ms of each job of that kind]} of one run record."""
    out: dict[str, list[float]] = {}
    for job, t in zip(record["jobs"], perfbench.scaled_latencies(record["jobs"], record)):
        out.setdefault(job_kind(workload, job["label"]), []).append(t * 1000)
    return out


def kind_medians(runs: list[dict], workload: str) -> dict[str, dict]:
    """{kind: the median ref_ms of each side, its quartiles, the median over
    runs of the kind's total ref_ms per run and the number of jobs}; both
    sides run the same seeds, so the same jobs."""
    out = {}
    for kind in sorted(runs[0]["base"]["job_ms"][workload]):
        per_run = {side: [r[side]["job_ms"][workload][kind] for r in runs] for side in ("base", "change")}
        out[kind] = {"jobs": sum(map(len, per_run["base"]))}
        for side, runs_ts in per_run.items():
            ts = [t for run_ts in runs_ts for t in run_ts]
            quartiles = statistics.quantiles(ts, n=4)
            out[kind] |= {f"{side}_ms": statistics.median(ts), f"{side}_quartiles": [quartiles[0], quartiles[2]],
                          f"{side}_total_ms": statistics.median(map(sum, runs_ts))}
    return out


def source_lines(tree: Path) -> dict[str, int]:
    paths = sorted((tree / "src" / "quadrantal").glob("*.py"))
    lines = {f"src/quadrantal/{p.name}": len(p.read_bytes().splitlines()) for p in paths}
    return {**lines, "total": sum(lines.values())}


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
    cache = next((CHECKOUT / "src").rglob("__pycache__"), None)
    if cache is not None:
        ap.error(f"remove {cache} first: the base side starts without cached bytecode")
    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_tree = export(commit)
    runs = []
    try:
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(base_tree if side == "base" else CHECKOUT, seed)
                print(f"seed {seed} {side}: " + json.dumps(pair[side]["metrics"]), file=sys.stderr, flush=True)
            runs.append(pair)
        base_lines = source_lines(base_tree)
    finally:  # the export serves this comparison only
        shutil.rmtree(base_tree, ignore_errors=True)
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
        "source_lines": {"base": base_lines, "change": source_lines(CHECKOUT)},
        "runs": [{"seed": r["seed"], "first": r["first"], "base": r["base"]["metrics"],
                  "change": r["change"]["metrics"]} for r in runs],
    }
    path = CHECKOUT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
