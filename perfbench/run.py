"""Benchmark runner: seeded inputs, a timed closed loop of CLI commands,
checked outputs, end-to-end metrics, and a traced run for per-layer ones.

    python3 perfbench/run.py --workload labeled-small --seed 1 --seconds 30 --trace 0

Run it from the repository root; it puts `src` on the import path itself.
One caller runs one command at a time in this process through
`mengerian.cli.main`, so this is a closed loop with one client.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer ends the
run with exit code 1; see README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from time import perf_counter

import workloads
from checks import Checker, WrongAnswer
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Per-input time limit.  The slowest workload input takes about 5 s
# (an exhaustive falsify run) and the known pathological inputs run for
# minutes, so nothing measured sits near this value.
LIMIT_S = 20.0
SETUP_ROUNDS = 7


class TimeLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise TimeLimit()


# ----------------------------------------------------------------------
# running one command


class Result:
    __slots__ = ("code", "out", "seconds", "failure")

    def __init__(self, code, out, seconds, failure):
        self.code, self.out, self.seconds, self.failure = code, out, seconds, failure


def execute(cli, argv, wrap=None):
    """One in-process `mengerian` invocation under the per-input limit."""
    out = io.StringIO()
    call = lambda: cli.main(list(argv))  # noqa: E731
    if wrap is not None:
        call = wrap(call)
    code, failure = None, None
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = call()
            seconds = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        failure = "TimeLimit"
    except SystemExit:
        failure = "SystemExit"
    except Exception as exc:  # every failure of the program is tallied by type
        failure = type(exc).__name__
    if failure is None and code == 2:
        failure = "ExitCode2"
    if failure is not None:
        seconds = LIMIT_S  # a failed command counts as missing the limit
    return Result(code, out.getvalue(), seconds, failure)


class Gauge:
    """The machine's speed right now, read off a fixed pure-Python loop.

    The CPUs are shared with other tenants, and the speed this process gets
    drifts by up to 1.8x, in slow spells that can last a whole run.  Every
    time is therefore scaled by REFERENCE_S over the loop's reading next to
    the measurement: the result is the time the command takes at the speed
    where the loop takes REFERENCE_S, its reading in the fast spells of the
    machine the baseline was taken on.
    """

    STALE_S = 0.01
    REFERENCE_S = 0.85e-3

    def __init__(self):
        self.readings = []
        self._at = -math.inf

    def read(self, fresh=False):
        if fresh or perf_counter() - self._at > self.STALE_S:
            start = perf_counter()
            d = {}
            for i in range(10_000):
                d[i & 255] = d.get(i & 255, 0) + i
            self._at = perf_counter()
            self.readings.append(self._at - start)
        return self.readings[-1]

    def timed(self, fn):
        """fn()'s result, its seconds and the gauge around it."""
        before = self.read()
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
        after = self.read(fresh=True) if seconds > 10 * self.STALE_S else before
        return result, seconds, (before + after) / 2

    def scale(self, seconds, reading):
        """seconds at the reference speed; a reading of None leaves them as is."""
        return seconds if reading is None else seconds * self.REFERENCE_S / reading


# ----------------------------------------------------------------------
# set-up and the timed pass


def import_package():
    for name in [m for m in sys.modules if m == "mengerian" or m.startswith("mengerian.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mengerian")
    for sub in ("cli", "multigraph", "temporal", "menger", "patterns", "witness", "recognizer"):
        importlib.import_module(f"mengerian.{sub}")
    return pkg


def setup(wl, gauge):
    """Import the package, load every input, warm each command kind up.

    Repeated SETUP_ROUNDS times; returns the last package, its loaded
    graphs and the rounds' (seconds, gauge reading) pairs."""

    def one_round():
        pkg = import_package()
        named = {path: pkg.cli.load_graphfile(path) for path in wl.files}
        for cmd in wl.warmups.values():
            res = execute(pkg.cli, cmd.argv)
            if res.failure is not None:
                raise RuntimeError(f"warm-up {' '.join(cmd.argv)} failed: {res.failure}")
        return pkg, named

    rounds = []
    for _ in range(SETUP_ROUNDS):
        (pkg, named), seconds, reading = gauge.timed(one_round)
        rounds.append((seconds, reading))
    return pkg, named, rounds


class Pass:
    """The commands of one pass and what they measured.

    Every command keeps (seconds, gauge reading) of each repetition;
    metrics use the median of its scaled repetitions."""

    def __init__(self, pkg, checker, gauge, tracer=None):
        self.pkg, self.checker, self.gauge, self.tracer = pkg, checker, gauge, tracer
        self.times = {}  # command -> [(seconds, gauge reading)] per repetition
        self.attempted = 0
        self.failures = Counter()
        self.statuses = {}  # proof input -> witness status
        self.recognize_info = []  # (chains examined, crossed structures)
        self.wrong = None  # the first wrong answer, which ends the pass

    def run(self, cmd):
        """Run and check one command; raises WrongAnswer."""
        wrap = None
        if self.tracer is not None:
            cmd_id = self.attempted
            wrap = lambda call: (lambda: self.tracer.run_command(cmd_id, call))  # noqa: E731
        res, _, reading = self.gauge.timed(lambda: execute(self.pkg.cli, cmd.argv, wrap))
        self.attempted += 1
        if res.failure is not None:
            self.failures[res.failure] += 1
            self.times.setdefault(cmd, []).append((res.seconds, None))  # the limit is not scaled
            return res
        self.times.setdefault(cmd, []).append((res.seconds, reading))
        info = self.checker.check(cmd, res.code, res.out)
        if cmd.kind == "recognize":
            self.recognize_info.append((info["chains_examined"], info["crossed"]))
            if info["status"] is not None:
                self.statuses.setdefault(cmd.path, info["status"])
        return res

    @property
    def completed(self):
        return self.attempted - sum(self.failures.values())

    def seconds(self, cmd):
        """A command's time: the median of its scaled repetitions."""
        return statistics.median(self.gauge.scale(*rep) for rep in self.times[cmd])

    def command_times(self, kind):
        """(command, seconds) of every command of one kind that ran."""
        return [(cmd, self.seconds(cmd)) for cmd in self.times if cmd.kind == kind]

    def ops_per_s(self):
        """Commands per second for one run of every command at its time."""
        return len(self.times) / sum(self.seconds(cmd) for cmd in self.times)


def timed_pass(p, wl, seconds, order_rng):
    """Every command once, then repetitions in the workload's time shares
    (the kind furthest below its share goes next) until `seconds` have
    passed.  A command that failed is not repeated."""
    deadline = perf_counter() + seconds
    queues = {k: list(v) for k, v in wl.commands.items()}
    for q in queues.values():
        order_rng.shuffle(q)
    shares = workloads.SHARES[wl.name]
    used = {k: 0.0 for k in shares}
    covered = set()
    try:
        while len(covered) < len(shares) or perf_counter() < deadline:
            kind = min(shares, key=lambda k: (k in covered, used[k] / shares[k]))
            for cmd in queues[kind]:
                if kind in covered:
                    if perf_counter() >= deadline:
                        break
                    if p.times[cmd][-1][0] == LIMIT_S:
                        continue
                used[kind] += p.run(cmd).seconds
            covered.add(kind)
            used[kind] = max(used[kind], 1e-9)  # a kind whose commands all failed
    except WrongAnswer as exc:
        p.wrong = str(exc)
    return p


def once_pass(p, wl):
    """Every command once, in order: the defects probe."""
    try:
        for kind in workloads.KINDS:
            for cmd in wl.commands[kind]:
                res = p.run(cmd)
                print(f"# {res.failure or 'ok'}: {' '.join(cmd.argv)}")
    except WrongAnswer as exc:
        p.wrong = str(exc)
    return p


# ----------------------------------------------------------------------
# metrics


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(p, setup_rounds):
    m = {}
    for kind in ("recognize", "menger"):
        ms = [t * 1000.0 for _, t in p.command_times(kind)]
        m[f"{kind}_ms.p50"] = (percentile(ms, 0.5), "ms")
        m[f"{kind}_ms.p90"] = (percentile(ms, 0.9), "ms")
    falsify = [(cmd, t) for cmd, t in p.command_times("falsify") if t < LIMIT_S]
    m["falsify_labelings_per_s"] = (sum(c.labelings for c, _ in falsify)
                                    / sum(t for _, t in falsify), "1/s")
    m["ops_per_s"] = (p.ops_per_s(), "1/s")
    m["ok_ratio"] = (p.completed / p.attempted, "ratio")
    statuses = list(p.statuses.values())
    m["proof_confirmed_ratio"] = (statuses.count("confirmed") / len(statuses), "ratio")
    m["setup_s"] = (statistics.median(p.gauge.scale(*r) for r in setup_rounds), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(tracer, p, untraced_ops):
    by_name, layer_self = tracer.summary()
    cmds = p.attempted

    def ms(name):
        return (by_name[name]["s"] * 1000.0 / cmds, "ms/cmd")

    def calls(name):
        return (by_name[name]["calls"] / cmds, "1/cmd")

    def share(name, outcome):
        e = by_name[name]
        return (e["outcomes"][outcome] / e["calls"] if e["calls"] else 0.0, "ratio")

    m = {}
    for layer in ("cli", "recognizer", "multigraph", "patterns", "witness", "menger", "temporal"):
        m[f"{layer}.self.ms"] = (layer_self.get(layer, 0.0) * 1000.0 / cmds, "ms/cmd")
    m["cli.load.ms"] = ms("cli.load")
    m["cli.report.ms"] = ms("cli.report")
    info = p.recognize_info
    m["recognizer.chains_examined"] = (sum(c for c, _ in info) / len(info) if info else 0.0, "1/cmd")
    m["recognizer.crossed"] = (sum(x for _, x in info) / len(info) if info else 0.0, "1/cmd")
    blocks = by_name["multigraph.blocks"]
    m["multigraph.blocks.ms"] = ms("multigraph.blocks")
    m["multigraph.blocks.count"] = (blocks["count"] / blocks["calls"] if blocks["calls"] else 0.0,
                                    "1/call")
    m["multigraph.chains.ms"] = ms("multigraph.chains")
    for name in ("identify", "underlying_simple", "remove_vertices", "find_path"):
        m[f"multigraph.{name}.ms"] = ms(f"multigraph.{name}")
        m[f"multigraph.{name}.calls"] = calls(f"multigraph.{name}")
    for name in ("gem_block", "gem_pinned", "assemble", "check"):
        m[f"patterns.{name}.ms"] = ms(f"patterns.{name}")
        m[f"patterns.{name}.calls"] = calls(f"patterns.{name}")
    m["patterns.gem_block.hits"] = (by_name["patterns.gem_block"]["outcomes"]["hit"] / cmds, "1/cmd")
    m["patterns.gem_pinned.hit_ratio"] = share("patterns.gem_pinned", "hit")
    m["patterns.assemble.success_ratio"] = share("patterns.assemble", "ok")
    m["witness.make.ms"] = ms("witness.make")
    m["witness.verify.ms"] = ms("witness.verify")
    m["witness.verify.calls"] = calls("witness.verify")
    for status in ("confirmed", "skipped", "cut-undefined"):
        m[f"witness.status.{status.replace('-', '_')}"] = share("recognizer.recognize_with_proof", status)
    for name in ("paths", "cut", "edge"):
        m[f"menger.{name}.ms"] = ms(f"menger.{name}")
        m[f"menger.{name}.calls"] = calls(f"menger.{name}")
    m["menger.edge.errors"] = (sum(by_name["menger.edge"]["outcomes"].values()) / cmds, "1/cmd")
    m["menger.falsify.ms"] = ms("menger.falsify")
    m["menger.falsify.labelings"] = (by_name["menger.falsify"]["count"] / cmds, "1/cmd")
    for name in ("earliest_arrival", "make"):
        m[f"temporal.{name}.ms"] = ms(f"temporal.{name}")
        m[f"temporal.{name}.calls"] = calls(f"temporal.{name}")
    traced_ops = p.ops_per_s()
    m["trace.ops_per_s"] = (traced_ops, "1/s")
    m["trace.untraced_ops_per_s"] = (untraced_ops, "1/s")
    m["trace.overhead_pct"] = (100.0 * (untraced_ops / traced_ops - 1.0), "%")
    m["trace.spans"] = (len(tracer.spans) / cmds, "1/cmd")
    return m


# ----------------------------------------------------------------------


def report(correct, passes, metrics, out=sys.stdout):
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)
    failures = Counter()
    for p in passes:
        failures.update(p.failures)
    for p in passes:
        for kind in workloads.KINDS:
            runs = [ts for cmd, ts in p.times.items() if cmd.kind == kind]
            if runs:
                ms = [t for _, t in p.command_times(kind)]
                beyond = sum(1 for t in ms if t > percentile(ms, 0.9))
                print(f"# {kind}: {len(runs)} commands, {sum(map(len, runs))} runs,"
                      f" {beyond} commands beyond p90", file=out)
    print(f"# failures by type: {json.dumps(dict(sorted(failures.items())))}", file=out)
    readings = sorted(passes[0].gauge.readings)
    print(f"# speed gauge: {len(readings)} readings, min {readings[0] * 1e3:.3f} ms,"
          f" 2nd percentile {readings[len(readings) // 50] * 1e3:.3f} ms,"
          f" median {readings[len(readings) // 2] * 1e3:.3f} ms", file=out)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}", file=out)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mengerian", "__init__.py")):
        print(f"error: no mengerian package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.BY_NAME[args.workload](workdir, args.seed)
        for path, text in wl.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        gauge = Gauge()
        pkg, named, setup_rounds = setup(wl, gauge)
        checker = Checker(pkg, named)
        order_rng = random.Random(f"order/{args.seed}")
        tracer = Tracer() if args.trace else None
        if args.workload == "defects":
            passes = [once_pass(Pass(pkg, checker, gauge), wl)]
        elif tracer is None:
            passes = [timed_pass(Pass(pkg, checker, gauge), wl, args.seconds, order_rng)]
        else:
            passes = [timed_pass(Pass(pkg, checker, gauge), wl, args.seconds / 2, order_rng)]
            tracer.install(pkg)
            try:
                passes.append(timed_pass(Pass(pkg, checker, gauge, tracer), wl,
                                         args.seconds / 2, order_rng))
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.jsonl"))
        wrong = [p.wrong for p in passes if p.wrong is not None]
        if wrong:
            print(f"error: wrong answer: {wrong[0]}", file=sys.stderr)
            report(False, passes, {})
            return 1
        if args.workload == "defects":
            p = passes[0]
            report(True, passes, {"ok_ratio": (p.completed / p.attempted, "ratio")})
        elif tracer is not None:
            plain, traced = passes
            report(True, passes, per_layer(tracer, traced, plain.ops_per_s()))
        else:
            report(True, passes, end_to_end(passes[0], setup_rounds))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
