"""Tests of the benchmark itself: its generators, its families and its checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (BENCH, os.path.join(ROOT, "tests")):
    if p not in sys.path:
        sys.path.insert(0, p)

import gen  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, WrongAnswer  # noqa: E402
from oracles import brute_c, brute_p, brute_temporal_paths  # noqa: E402

import mengerian  # noqa: E402
from mengerian import cli  # noqa: E402
from mengerian.menger import falsify_mengerian  # noqa: E402
from mengerian.multigraph import Multigraph  # noqa: E402
from mengerian.patterns import check_m_subdivision  # noqa: E402
from mengerian.recognizer import recognize  # noqa: E402

def build(name, seed, tmp_path):
    wl = workloads.BY_NAME[name](str(tmp_path), seed)
    return {os.path.basename(p): text for p, text in wl.files.items()}, wl


# ----------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_same_seed_same_bytes(name, tmp_path):
    first, _ = build(name, 5, tmp_path / "a")
    again, _ = build(name, 5, tmp_path / "b")
    assert first == again


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_other_seed_other_inputs(name, tmp_path):
    first, _ = build(name, 5, tmp_path / "a")
    other, _ = build(name, 6, tmp_path / "b")
    assert first.keys() == other.keys()
    assert first != other


def small_hosts(rng):
    for i in range(6):
        yield workloads.small_nonmengerian(rng, i, chords=i % 3)
        yield workloads.crossed_near_miss(rng, i)


def test_small_hosts_stay_small():
    for seed in range(20):
        for n, _ in small_hosts(random.Random(seed)):
            assert n <= workloads.SMALL_HOST


def test_route_count_matches_reference():
    rng = random.Random(2)
    for _ in range(10):
        n, pairs, labels = gen.labeled_multigraph(8, 16, 4, rng)
        tg = cli.parse_graphfile(gen.graph_text(n, pairs, labels)).temporal()
        for s, t in gen.nonadjacent_pairs(n, pairs, 3, rng):
            want = len({vs for vs, _ in brute_temporal_paths(tg, s, t)})
            assert gen.temporal_route_count(n, pairs, labels, s, t, 10**6) == want


def test_ordered_bell():
    assert [workloads.ordered_bell(m) for m in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]


# ----------------------------------------------------------------------
# the families are what the workloads claim; a family the falsifier
# refutes must leave the workloads


def mengerian_members():
    yield "k2n-doubled-side-2", gen.k2n_doubled_side(2)
    yield "k2n-doubled-side-3", gen.k2n_doubled_side(3)
    yield "long-spoke-k25-2", gen.long_spoke_k25(2, random.Random(0))
    yield "long-spoke-k25-3", gen.long_spoke_k25(3, random.Random(0))
    base = gen.CROSSED_CHAIN + gen.CROSSED_LEGS + gen.CROSSED_PARTS
    for hops in product((1, 2), repeat=4):
        n, pairs = 8, base
        for key, h in zip(gen.CROSSED_PARTS, hops):
            n, pairs = gen.subdivide_path(n, pairs, key, h)
        yield f"crossed-{''.join(map(str, hops))}", (n, pairs)
    yield "path-7", (5, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 4)])
    yield "k23-7", (5, [(0, 2), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


@pytest.mark.parametrize("label,graph", list(mengerian_members()), ids=lambda x: x if isinstance(x, str) else "")
def test_mengerian_family_survives_falsifier(label, graph):
    n, pairs = graph
    g = Multigraph.build(n, pairs)
    assert recognize(g).mengerian, label
    if len(pairs) <= 7:
        found = falsify_mengerian(g)
    else:
        found = falsify_mengerian(g, samples=1500, seed=1)
    assert found is None, f"{label} is refuted by the falsifier; drop it from the workloads"


@pytest.mark.parametrize("seed", range(5))
def test_small_nonmengerian_hosts_carry_a_shape(seed):
    for n, pairs in small_hosts(random.Random(seed)):
        g = Multigraph.build(n, pairs)
        verdict = recognize(g)
        assert not verdict.mengerian
        assert check_m_subdivision(g, verdict.embedding) is None


# ----------------------------------------------------------------------
# the program's vertex queries against the independent references


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", ["labeled-small", "mengerian-large"])
def test_vertex_queries_match_brute_force(name, tmp_path):
    _, wl = build(name, 0, tmp_path)
    for path, text in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    queries = [c for c in wl.commands["menger"] if not c.expect["edge"]][:8]
    assert queries
    for cmd in queries:
        code, out = run_cli(cmd.argv)
        assert code == 0
        lines = out.splitlines()
        p = int(lines[0].split("=")[1])
        c = int(next(x for x in lines if x.startswith("c = ")).split("=")[1])
        named = cli.load_graphfile(cmd.path)
        tg = named.temporal()
        s, t = named.id(cmd.expect["s"]), named.id(cmd.expect["t"])
        assert (p, c) == (brute_p(tg, s, t), brute_c(tg, s, t)), cmd.argv


# ----------------------------------------------------------------------
# checks reject wrong answers


@pytest.fixture
def checker_for(tmp_path):
    def make(n, pairs, labels=None):
        path = str(tmp_path / "g.g")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.graph_text(n, pairs, labels))
        return path, Checker(mengerian, {path: cli.load_graphfile(path)})
    return make


def test_flipped_verdict_is_wrong(checker_for):
    n, pairs = gen.SHAPES["F1"]
    path, checker = checker_for(n, pairs)
    cmd = workloads.recognize(path, "non_mengerian", proof=True)
    code, out = run_cli(cmd.argv)
    assert checker.check(cmd, code, out)["status"] == "confirmed"
    with pytest.raises(WrongAnswer):
        checker.check(cmd, 0, out.replace('"non_mengerian"', '"mengerian"'))
    with pytest.raises(WrongAnswer):
        checker.check(cmd, code, out.replace('"confirmed"', '"unconfirmed"'))


def test_broken_embedding_is_wrong(checker_for):
    n, pairs = gen.SHAPES["F3"]
    path, checker = checker_for(n, pairs)
    cmd = workloads.recognize(path, "non_mengerian", proof=True)
    code, out = run_cli(cmd.argv)
    data = json.loads(out)
    branch = data["embedding"]["branch"]
    branch["1"], branch["2"] = branch["2"], branch["1"]
    with pytest.raises(WrongAnswer):
        checker.check(cmd, code, json.dumps(data))


def test_menger_outputs_are_checked(checker_for):
    n, pairs = gen.k2n_doubled_side(3)
    labels = [1, 2, 3, 1, 2, 3, 1, 2, 3]
    path, checker = checker_for(n, pairs, labels)
    vertex = workloads.menger(path, 0, 1, edge=False, equal=True)
    code, out = run_cli(vertex.argv)
    checker.check(vertex, code, out)
    lines = out.splitlines()
    cut_line = next(i for i, x in enumerate(lines) if x.strip().startswith("cut:"))
    lines[cut_line] = "  cut: v2"
    with pytest.raises(WrongAnswer):
        checker.check(vertex, code, "\n".join(lines) + "\n")
    edge = workloads.menger(path, 0, 1, edge=True)
    code, out = run_cli(edge.argv)
    checker.check(edge, code, out)
    with pytest.raises(WrongAnswer):
        checker.check(edge, code, out.replace("c' = ", "c' = 1"))


def test_falsify_counterexample_is_wrong(checker_for):
    n, pairs = gen.k2n_doubled_side(2)
    path, checker = checker_for(n, pairs)
    cmd = workloads.falsify_samples(path, 200, 0)
    code, out = run_cli(cmd.argv)
    assert checker.check(cmd, code, out) == {}
    with pytest.raises(WrongAnswer):
        checker.check(cmd, 1, "# counterexample: p < c under this labeling\n")


# ----------------------------------------------------------------------
# the benchmark refuses to run without the program


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "labeled-small",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
