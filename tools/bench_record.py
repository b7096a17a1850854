"""Record end-to-end benchmark runs of committed trees in BENCH_e2e.json.

    python3 tools/bench_record.py [--commit REV [--commit REV]] [--pairs N]
                                  [--workload NAME ...] [--seed N ...]

For each workload and seed (by default every workload BENCHMARK.json
declares, at seeds 1 and 2), the commit's files are exported with
`git archive` into a fresh temporary directory, and that tree's own
`perfbench/run.py` runs there as a subprocess, untraced, for the
`run_seconds` of BENCHMARK.json.  Each run appends one record to the
JSON list in `--out` (BENCH_e2e.json at the repository root):

    {"commit": 40-hex commit id, "workload": name, "seed": int,
     "seconds": run length, "gauge": {...}, "metrics": {name: {"value", "unit"}}}

`gauge` holds the speed gauge line run.py prints (readings, and the
minimum, 2nd percentile and median loop time in ms): every metric is
already scaled to the gauge's reference speed, and the gauge says how
fast the machine was while the run measured.  A run that fails or
reports a wrong answer is not recorded, and the script exits with 1.

`--pairs N` runs each commit N times per workload and seed (default
once).  Two commits run in pairs, back to back: the first commit goes
first in even-numbered pairs and second in odd ones, so that a slow
spell of the machine does not always fall on the same commit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)
from same_output import export  # noqa: E402

GAUGE = re.compile(r"# speed gauge: (\d+) readings, min ([\d.]+) ms,"
                   r" 2nd percentile ([\d.]+) ms, median ([\d.]+) ms")


class RunFailed(RuntimeError):
    """A benchmark run ended without a correct result."""


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The gauge and the metrics of one run.py run, from its standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("run.py printed nothing")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed("run.py reported a wrong answer")
    found = [m for m in map(GAUGE.fullmatch, lines) if m]
    if not found:
        raise RunFailed("run.py printed no speed gauge line")
    readings, low, p2, median = found[-1].groups()
    gauge = {"readings": int(readings), "min_ms": float(low), "p2_ms": float(p2),
             "median_ms": float(median)}
    return gauge, result["metrics"]


def record(commit: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the commit's benchmark on one workload and seed."""
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tree:
        export(commit, tree)
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True)
    if run.returncode != 0:
        raise RunFailed(f"run.py exited with {run.returncode}: {run.stderr.strip()[-500:]}")
    gauge, metrics = parse_run(run.stdout)
    return {"commit": commit, "workload": workload, "seed": seed, "seconds": seconds,
            "gauge": gauge, "metrics": metrics}


def append(path: str, rec: dict) -> None:
    """Add one record to the JSON list at path, one record per line."""
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n")


def resolve(rev: str) -> str | None:
    """The 40-hex id of the commit rev names, or None."""
    resolved = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                              capture_output=True, text=True)
    return resolved.stdout.strip() if resolved.returncode == 0 else None


def run_order(commits: list[str], pairs: int) -> list[str]:
    """The commits in the order they run for one workload and seed."""
    order: list[str] = []
    for k in range(pairs):
        order += commits if k % 2 == 0 else commits[::-1]
    return order


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", action="append",
                    help="a commit to measure, at most two (default HEAD)")
    ap.add_argument("--pairs", type=int, default=1,
                    help="runs of each commit per workload and seed, alternating (default 1)")
    ap.add_argument("--workload", action="append", help="a workload (default: all)")
    ap.add_argument("--seed", type=int, action="append", help="a seed (default: 1 and 2)")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = ap.parse_args(argv)
    revs = args.commit or ["HEAD"]
    if len(revs) > 2 or args.pairs < 1:
        ap.error("give at most two --commit and --pairs N >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1, 2]
    commits = [resolve(rev) for rev in revs]
    if None in commits:
        print(f"error: no commit {revs[commits.index(None)]!r} in {ROOT}", file=sys.stderr)
        return 2
    for workload in workloads:
        for seed in seeds:
            for commit in run_order(commits, args.pairs):
                try:
                    rec = record(commit, workload, seed, bench["run_seconds"])
                except RunFailed as exc:
                    print(f"error: {workload} seed {seed} at {commit[:12]}: {exc}",
                          file=sys.stderr)
                    return 1
                append(args.out, rec)
                print(f"recorded {workload} seed {seed} at {commit[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
