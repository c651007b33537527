"""What each CLI request compiles against what it runs.

    python3 tools/compile_map.py --seed N [--src DIR]
    python3 tools/compile_map.py --seeds A-B [--src DIR]

For each template of perfbench's `cli_jobs(N)` round 0 (of each seed N from
A to B with --seeds), runs the request as
`python -m quadrantal.cli` would, in a fresh interpreter without cached
bytecode and under a `sys.settrace` line hook, and prints per request:

- the `quadrantal` modules it loads (the package itself is left out);
- the code lines those modules compile: the distinct line numbers of their
  bytecode, every nested function and class included, summed over the
  compile() calls (a module compiled twice counts twice; so does cli.py,
  whose count is shown when it is not 1);
- the lines it executes: the distinct (file, line) pairs of those modules
  that the line hook saw;
- the standard-library modules it imports beyond `python -c pass`, by
  top-level name (private `_name` modules left out), taken before the probe
  imports json to write its report.

Below the requests, a table per module: the code lines compiled and the
lines executed, each summed over the requests, and how many of the requests
compiled it.  Below that, each standard-library module of the last column
with the number of requests that import it.

--src points at the src/ directory of another tree (a `git archive` of the
parent, say), so the same requests can be mapped before and after a change.
perfbench/ is imported from this checkout, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(CHECKOUT / "perfbench"))
import workloads  # noqa: E402

# Runs in the fresh interpreter: argv is [report path, package dir, request...].
# Every compile() of a file under the package dir is counted, the import
# system's included, so a module compiled twice is seen twice.
PROBE = r"""
import builtins, runpy, sys
out, root, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
compiled, executed, real_compile = [], set(), builtins.compile

def counting_compile(source, filename, *args, **kwargs):
    if str(filename).startswith(root):
        compiled.append(str(filename))
    return real_compile(source, filename, *args, **kwargs)

def lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return lines

builtins.compile = counting_compile
sys.settrace(lambda frame, event, arg: lines if frame.f_code.co_filename.startswith(root) else None)
sys.argv = ["quadrantal.cli", *argv]
try:
    runpy.run_module("quadrantal.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.settrace(None)
mods = sorted(sys.modules)
import json
with open(out, "w") as fh:
    json.dump({"modules": mods, "compiled": compiled, "executed": sorted(executed)}, fh)
"""


@lru_cache(maxsize=None)
def code_lines(path: str) -> frozenset[int]:
    """The line numbers that carry bytecode in the module at path."""
    todo, found = [compile(Path(path).read_text(), path, "exec")], set()
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return frozenset(found)


def top_level_stdlib(modules) -> set[str]:
    """The public standard-library modules among modules, by top-level name."""
    return {name.split(".")[0] for name in modules if not name.startswith("_")} & sys.stdlib_module_names


def map_request(argv: list[str], src: Path, tmp: str, startup: set[str]) -> dict:
    root = str(src / "quadrantal")
    report = os.path.join(tmp, "report.json")
    # an empty bytecode cache: every module the request imports is compiled
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": tmp, "PYTHONPATH": str(src)}
    env.pop("QUADRANTAL_PRECISION", None)
    subprocess.run([sys.executable, "-c", PROBE, report, root, *argv], cwd=tmp, env=env,
                   capture_output=True, check=False)
    data = json.loads(Path(report).read_text())
    compiled = Counter()
    for f in data["compiled"]:  # a module compiled twice counts twice
        compiled[Path(f).stem] += len(code_lines(f))
    executed = Counter(Path(f).stem for f, _ in {(f, line) for f, line in data["executed"]})
    return {
        "per_module": {module: (lines, executed[module]) for module, lines in compiled.items()},
        "modules": [name.removeprefix("quadrantal.") for name in data["modules"] if name.startswith("quadrantal.")],
        "stdlib": sorted(top_level_stdlib(data["modules"]) - startup),
        "cli_compiles": sum(Path(f).name == "cli.py" for f in data["compiled"]),
        "code_lines": sum(len(code_lines(f)) for f in data["compiled"]),
        "executed_lines": len({(f, line) for f, line in data["executed"]}),
    }


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    seeds = ap.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=seed_range, dest="seeds")
    seeds.add_argument("--seeds", type=seed_range, help="a range A-B of seeds")
    ap.add_argument("--src", type=Path, default=CHECKOUT / "src", help="the src/ directory to map")
    args = ap.parse_args()
    src = args.src.resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"], cwd=tmp,
                              capture_output=True, text=True, check=True)
        startup = top_level_stdlib(bare.stdout.split())
        for seed in args.seeds:
            for spec in (s for s in workloads.cli_jobs(seed) if s["round"] == 0):
                argv = [a.replace("{tmp}", tmp) for a in spec["argv"]]
                rows.append({"template": spec["template"], "seed": seed, **map_request(argv, src, tmp, startup)})
    print(f"{'template':<22} {'seed':>4} {'compiled':>8} {'executed':>8}  {'modules':<50} stdlib")
    for row in sorted(rows, key=lambda r: (r["template"], r["seed"])):
        mods = " ".join(row["modules"]) + ("" if row["cli_compiles"] == 1 else f" (cli.py x{row['cli_compiles']})")
        print(f"{row['template']:<22} {row['seed']:>4} {row['code_lines']:>8} {row['executed_lines']:>8}  "
              f"{mods:<50} {' '.join(row['stdlib'])}")
    print(f"{'total':<27} {sum(r['code_lines'] for r in rows):>8} {sum(r['executed_lines'] for r in rows):>8}")
    print(f"\n{'module':<22} {'compiled':>9} {'executed':>9} {'requests':>9}  (of {len(rows)})")
    modules = sorted({m for r in rows for m in r["per_module"]})
    for module in modules:
        counts = [r["per_module"][module] for r in rows if module in r["per_module"]]
        print(f"{module:<22} {sum(c for c, _ in counts):>9} {sum(e for _, e in counts):>9} {len(counts):>9}")
    print(f"\n{'stdlib module':<22} {'requests':>9}  (of {len(rows)})")
    for name, count in sorted(Counter(name for r in rows for name in r["stdlib"]).items()):
        print(f"{name:<22} {count:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
