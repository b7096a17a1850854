"""Check that two commits print the same for every benchmark workload command.

    python3 tools/same_output.py [OLD [NEW]] [--workload NAME ...] [--seed N ...]
                                 [--graphs DIR] [--gen N]

OLD and NEW default to HEAD^ and HEAD.  Both commits are exported with
`git archive` into fresh temporary directories.  For each workload and
seed (by default every workload BENCHMARK.json declares, at seeds 1 and
2), OLD's `perfbench/workloads.py` writes the input files once, and every
command of the workload, warm-ups included, runs in each tree: one
Python subprocess per tree calls that tree's `mengerian.cli.main` on each
command in turn.  With `--graphs DIR`, each `*.g` file in DIR also gets
`recognize FILE --json --proof`, `recognize FILE --dot OUT`,
`falsify --samples 300 --seed 0 FILE` and `falsify --exhaustive FILE`,
and the DOT text counts as output.  Each file with a non-adjacent pair
also gets `menger FILE --source A --target B`, with and without
`--edge`, where A, B is its first such pair in the order the vertices
are declared.  A file with edge lines `e U V` that carry no label is
queried on a labeled copy, written once and read by both trees: the
copy gives each such line the label k % 3 + 1, where k counts the
file's edge lines from 0, and keeps every other line.  With `--gen N`,
OLD's `mengerian gen` writes N seeded files (see `gen_argvs`) into a
temporary directory, which is then queried as `--graphs` queries DIR.

A command whose exit code, standard output or standard error differs
between the trees is reported.  `elapsed_ms` is removed from JSON output first, since it
is a timing.  Exits with 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a subprocess with a tree's `src` as argv[1]: one JSON argv per
# input line, one JSON {"code", "out", "err"} per output line.
RUNNER = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from mengerian import cli
for line in sys.stdin:
    argv = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised " + type(exc).__name__
    text = out.getvalue()
    if "--dot" in argv:
        dot = argv[argv.index("--dot") + 1]
        if os.path.exists(dot):
            with open(dot, encoding="utf-8") as fh:
                text += fh.read()
            os.remove(dot)
    print(json.dumps({"code": code, "out": text, "err": err.getvalue()}), flush=True)
"""


def normalise(stdout: str) -> str:
    """stdout with every `elapsed_ms` key dropped from lines that hold JSON."""

    def drop(value):
        if isinstance(value, dict):
            return {k: drop(v) for k, v in value.items() if k != "elapsed_ms"}
        if isinstance(value, list):
            return [drop(v) for v in value]
        return value

    lines = []
    for line in stdout.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        lines.append(json.dumps(drop(value), sort_keys=True))
    return "\n".join(lines)


def differences(argvs: list[list[str]], old: list[dict], new: list[dict]) -> list[str]:
    """One line per command whose exit code, normalised stdout or stderr
    differs; a changed exit code hides the other two."""
    found = []
    for argv, a, b in zip(argvs, old, new):
        if a["code"] != b["code"]:
            found.append(f"{' '.join(argv)}: exit code {a['code']} != {b['code']}")
            continue
        for key, stream in (("out", "stdout"), ("err", "stderr")):
            lines_a, lines_b = normalise(a[key]).splitlines(), normalise(b[key]).splitlines()
            if lines_a != lines_b:
                k = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                         min(len(lines_a), len(lines_b)))
                found.append(f"{' '.join(argv)}: {stream} differs from line {k + 1}")
    return found


def export(commit: str, tree: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)


def run_all(tree: str, argvs: list[list[str]]) -> list[dict]:
    """Each command's exit code and stdout, run in order by the tree's package."""
    stdin = "".join(json.dumps(argv) + "\n" for argv in argvs)
    run = subprocess.run([sys.executable, "-c", RUNNER, os.path.join(tree, "src")],
                         input=stdin, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"runner in {tree} exited with {run.returncode}:"
                           f" {run.stderr.strip()[-500:]}")
    return [json.loads(line) for line in run.stdout.splitlines()]


def workload_commands(perfbench: str, name: str, seed: int, workdir: str) -> list[list[str]]:
    """Write a workload's inputs to workdir; its warm-ups and commands, in order."""
    sys.path.insert(0, perfbench)
    try:
        import workloads
        wl = workloads.BY_NAME[name](workdir, seed)
    finally:
        sys.path.remove(perfbench)
    for path, text in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    cmds = list(wl.warmups.values()) + [c for kind in workloads.KINDS for c in wl.commands[kind]]
    return [list(c.argv) for c in cmds]


def menger_pair(path: str) -> tuple[str, str] | None:
    """The first non-adjacent pair of a graph file, in the order its
    vertices are declared; None when every pair is adjacent.  Bytes that
    are not UTF-8 read as U+FFFD, so such a file still gets the commands
    that report it."""
    names, adjacent = [], set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields[:1] == ["v"]:
                names += fields[1:]
            elif fields[:1] == ["e"]:
                adjacent.add(frozenset(fields[1:3]))
    return next(((a, b) for i, a in enumerate(names) for b in names[i + 1:]
                 if frozenset((a, b)) not in adjacent), None)


def labeled_copy(path: str, workdir: str) -> str:
    """path itself when none of its edge lines lacks a label; otherwise a
    copy in workdir/labeled where the k-th edge line `e U V` (k from 0)
    gets label k % 3 + 1.  Lines are split as the graph-file reader splits
    them, and bytes that are not UTF-8 are copied as they are."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        lines = fh.read().splitlines()
    edges = labeled = 0
    for i, line in enumerate(lines):
        body, mark, note = line.partition("#")
        fields = body.split()
        if fields[:1] == ["e"]:
            if len(fields) == 3:
                lines[i] = " ".join(fields + [str(edges % 3 + 1)]) + (f" #{note}" if mark else "")
                labeled += 1
            edges += 1
    if not labeled:
        return path
    copy = os.path.join(workdir, "labeled", os.path.basename(path))
    os.makedirs(os.path.dirname(copy), exist_ok=True)
    with open(copy, "w", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return copy


def graph_commands(graphs: str, workdir: str) -> list[list[str]]:
    dot = os.path.join(workdir, "out.dot")
    argvs = []
    for path in sorted(glob.glob(os.path.join(graphs, "*.g"))):
        argvs += [["recognize", path, "--json", "--proof"], ["recognize", path, "--dot", dot],
                  ["falsify", "--samples", "300", "--seed", "0", path],
                  ["falsify", "--exhaustive", path]]
        pair = menger_pair(path)
        if pair:
            query = ["menger", labeled_copy(path, workdir),
                     "--source", pair[0], "--target", pair[1]]
            argvs += [query, query + ["--edge"]]
    return argvs


def gen_argvs(count: int) -> list[list[str]]:
    """`mengerian gen` commands for `--gen`: file i has seed i.  Five in
    six are `--model multigraph` with n 4-9, n to 3n edges and
    multiplicity at most 3; every sixth is `m-subdivided-pattern` with
    F1, F2 and F3 in turn and 0-5 ops."""
    argvs = []
    for i in range(count):
        rng = random.Random(i)
        if i % 6 == 5:
            argvs.append(["gen", "--model", "m-subdivided-pattern", "--pattern",
                          ("F1", "F2", "F3")[i // 6 % 3], "--ops", str(rng.randint(0, 5)),
                          "--seed", str(i)])
        else:
            n = rng.randint(4, 9)
            argvs.append(["gen", "--model", "multigraph", "--n", str(n),
                          "--m", str(rng.randint(n, 3 * n)), "--max-mult", "3", "--seed", str(i)])
    return argvs


def write_gen_files(tree: str, count: int, directory: str) -> None:
    """The files of `gen_argvs(count)`, written by the tree's package as
    gen0000.g, gen0001.g, ... in directory."""
    os.makedirs(directory)
    for i, ran in enumerate(run_all(tree, gen_argvs(count))):
        if ran["code"] != 0:
            raise RuntimeError(f"gen file {i} failed: {ran['err'].strip()}")
        with open(os.path.join(directory, f"gen{i:04d}.g"), "w", encoding="utf-8") as fh:
            fh.write(ran["out"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?", default="HEAD^")
    ap.add_argument("new", nargs="?", default="HEAD")
    ap.add_argument("--workload", action="append", help="a workload (default: all)")
    ap.add_argument("--seed", type=int, action="append", help="a seed (default: 1 and 2)")
    ap.add_argument("--graphs", metavar="DIR",
                    help="also recognize, falsify and query every *.g file in DIR")
    ap.add_argument("--gen", type=int, metavar="N",
                    help="also recognize, falsify and query N seeded `mengerian gen` files")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1, 2]
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        trees = {}
        for side in ("old", "new"):
            trees[side] = os.path.join(tmp, side)
            export(getattr(args, side), trees[side])
        batches = []
        for name in workloads:
            for seed in seeds:
                workdir = os.path.join(tmp, f"{name}-s{seed}")
                os.makedirs(workdir)
                perfbench = os.path.join(trees["old"], "perfbench")
                batches.append((f"{name} seed {seed}",
                                workload_commands(perfbench, name, seed, workdir)))
        if args.graphs:
            batches.append((args.graphs, graph_commands(args.graphs, tmp)))
        if args.gen:
            gen_dir = os.path.join(tmp, "gen")
            write_gen_files(trees["old"], args.gen, gen_dir)
            batches.append((f"{args.gen} gen files", graph_commands(gen_dir, gen_dir)))
        found = []
        for label, argvs in batches:
            old, new = (run_all(trees[side], argvs) for side in ("old", "new"))
            diffs = differences(argvs, old, new)
            print(f"{label}: {len(argvs)} commands, {len(diffs)} differ")
            found += [line.replace(tmp + os.sep, "") for line in diffs]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
