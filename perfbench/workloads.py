"""The benchmark's workloads: seeded inputs and the commands run on them.

A workload is three lists of commands, one per command kind
(`recognize`, `menger`, `falsify`), plus one small warm-up command per
kind.  Every input file is generated here from the workload seed; the
program under test only ever sees the files.  Each command carries what
the checker must find in its output.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import gen

KINDS = ("recognize", "menger", "falsify")

# Share of the timed pass that each workload gives to each command kind
# once every command has run (see run.timed_pass).
SHARES = {
    "nonmengerian-large": {"recognize": 0.8, "menger": 0.12, "falsify": 0.08},
    "mengerian-large": {"recognize": 0.8, "menger": 0.12, "falsify": 0.08},
    "labeled-small": {"recognize": 0.1, "menger": 0.55, "falsify": 0.35},
}

# Witness verification runs the exact oracles only up to this many
# vertices, so "small" proof hosts stay at or below it.
SMALL_HOST = 12


@dataclass(eq=False)
class Command:
    kind: str
    argv: list[str]
    path: str
    expect: dict = field(default_factory=dict)
    labelings: int = 0  # falsify: labelings checked when nothing is found


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)
    commands: dict[str, list[Command]] = field(default_factory=lambda: {k: [] for k in KINDS})
    warmups: dict[str, Command] = field(default_factory=dict)

    def add_file(self, workdir, stem, text):
        path = os.path.join(workdir, f"{stem}.g")
        if path in self.files:
            raise ValueError(f"duplicate input {stem}")
        self.files[path] = text
        return path


def ordered_bell(m):
    """Weak orders on m items: what an exhaustive falsify run checks."""
    a = [1]
    for k in range(1, m + 1):
        a.append(sum(_binom(k, j) * a[k - j] for j in range(1, k + 1)))
    return a[m]


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def strata(lo, hi, k, rng=None):
    """k sizes from lo to hi, one in each of k equal slices of the log
    scale: drawn within its slice, or its middle when rng is None.  Every
    seed covers the whole range the same way."""
    step = math.log(hi / lo) / k
    return [round(lo * math.exp(step * (i + (rng.random() if rng else 0.5))))
            for i in range(k)]


def _label(pairs, rng):
    return [rng.randint(1, len(pairs)) for _ in pairs]


# ----------------------------------------------------------------------
# command constructors


def recognize(path, verdict, proof, crossed=False):
    argv = ["recognize", path, "--json"] + (["--proof"] if proof else [])
    return Command("recognize", argv, path,
                   {"verdict": verdict, "proof": proof, "crossed": crossed})


def menger(path, s, t, edge, equal=False):
    argv = ["menger", path, "--source", f"v{s}", "--target", f"v{t}"]
    if edge:
        argv.append("--edge")
    return Command("menger", argv, path,
                   {"edge": edge, "equal": equal, "s": f"v{s}", "t": f"v{t}"})


def falsify_samples(path, samples, seed):
    argv = ["falsify", "--samples", str(samples), "--seed", str(seed), path]
    return Command("falsify", argv, path, {"none": True}, labelings=samples)


def falsify_exhaustive(path, edges):
    return Command("falsify", ["falsify", "--exhaustive", path], path,
                   {"none": True}, labelings=ordered_bell(edges))


# ----------------------------------------------------------------------
# shared families


def small_nonmengerian(rng, i, chords):
    """The i-th small host: a shape (in turn) subdivided to a core of 5..9
    vertices and hung with pendant trees up to 6..12 vertices, sizes in
    turn, then given `chords` chords.  At most SMALL_HOST vertices, so the
    oracles verify its proof."""
    name = sorted(gen.SHAPES)[i % 3]
    least = gen.SHAPES[name][0]
    core = least + (i // 3) % (10 - least)
    total = core + (i // 15) % (SMALL_HOST + 1 - core)
    n, pairs = gen.subdivided_shape(name, core, rng)
    n, pairs = gen.add_pendant_trees(n, pairs, total - n, rng)
    return gen.add_chords(n, pairs, chords, rng)


def crossed_near_miss(rng, i):
    """The crossed fixture one edit away from Mengerian, edits in turn: a
    stretched leg, a long middle leg or a link from the cross part to a
    side part each expose F1.  Pendants keep it at most SMALL_HOST
    vertices."""
    n, pairs = 8, gen.CROSSED_CHAIN + gen.CROSSED_LEGS + gen.CROSSED_PARTS
    if i % 3 == 0:
        n, pairs = gen.m_subdivide(n, pairs, (0, 4))
        n, pairs = gen.m_subdivide(n, pairs, (5, 6))
    elif i % 3 == 1:
        n, pairs = gen.m_subdivide(n, pairs, (3, 7))
    else:
        n, pairs = gen.m_subdivide(n, pairs, (6, 7))
        n, pairs = gen.m_subdivide(n, pairs, (5, 6))
        pairs = pairs + [(n - 2, n - 1)]
    return gen.add_pendant_trees(n, pairs, rng.randint(0, SMALL_HOST - n), rng)


def small_mengerian(rng, i):
    """The i-th small member of the Mengerian families, in turn."""
    if i % 3 == 0:
        return gen.k2n_doubled_side(2 + (i // 3) % 5)
    if i % 3 == 1:
        return gen.long_spoke_k25(2, rng)
    return gen.crossed_subdivided(rng, 2)


def labeled_queries(wl, workdir, stem, n, pairs, rng, equal=False):
    """Two vertex queries and one edge query at non-adjacent pairs of a
    randomly labeled copy.  Edge queries are the cheaper kind, so the
    menger median falls among the vertex queries, not between the two."""
    labels = _label(pairs, rng)
    path = wl.add_file(workdir, stem, gen.graph_text(n, pairs, labels))
    chosen = gen.nonadjacent_pairs(n, pairs, 2, rng)
    for s, t in chosen:
        wl.commands["menger"].append(menger(path, s, t, edge=False, equal=equal))
    s, t = chosen[0]
    wl.commands["menger"].append(menger(path, s, t, edge=True))


def add_warmups(wl, workdir):
    n, pairs = gen.SHAPES["F1"]
    path = wl.add_file(workdir, "warm-recognize", gen.graph_text(n, pairs))
    wl.warmups["recognize"] = recognize(path, "non_mengerian", proof=True)
    n, pairs = gen.k2n_doubled_side(2)
    labels = list(range(1, len(pairs) + 1))
    path = wl.add_file(workdir, "warm-menger", gen.graph_text(n, pairs, labels))
    wl.warmups["menger"] = menger(path, 0, 1, edge=False, equal=True)
    n, pairs = 8, gen.CROSSED_CHAIN + gen.CROSSED_LEGS + gen.CROSSED_PARTS
    path = wl.add_file(workdir, "warm-falsify", gen.graph_text(n, pairs))
    wl.warmups["falsify"] = falsify_samples(path, 20, 0)


def fixture_falsify(wl, workdir, seed, samples, crossed=True):
    """Sampled falsify runs on doubled-side K2,4 and the crossed fixture."""
    n, pairs = gen.k2n_doubled_side(4)
    path = wl.add_file(workdir, "fixture-k2n-4", gen.graph_text(n, pairs))
    wl.commands["falsify"].append(falsify_samples(path, samples, seed))
    if crossed:
        n, pairs = 8, gen.CROSSED_CHAIN + gen.CROSSED_LEGS + gen.CROSSED_PARTS
        path = wl.add_file(workdir, "fixture-crossed", gen.graph_text(n, pairs))
        wl.commands["falsify"].append(falsify_samples(path, samples, seed))


# ----------------------------------------------------------------------
# the workloads


def nonmengerian_large(workdir, seed):
    wl = Workload("nonmengerian-large")
    rng = random.Random(f"nonmengerian-large/{seed}")
    for i, size in enumerate(strata(40, 600, 62, rng)):
        name = sorted(gen.SHAPES)[i % 3]
        n, pairs = gen.subdivided_shape(name, size, rng)
        n, pairs = gen.add_pendant_trees(n, pairs, rng.randint(0, n // 10), rng)
        path = wl.add_file(workdir, f"{name}-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
    for i in range(6):
        n, pairs = gen.dense_multigraph(100, 300, 3, rng)
        path = wl.add_file(workdir, f"dense-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
    for i in range(34):
        # no chords: the small proofs all confirm, so the confirmed share
        # moves only when verification reaches other hosts
        n, pairs = small_nonmengerian(rng, i, chords=0)
        path = wl.add_file(workdir, f"small-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
        labeled_queries(wl, workdir, f"small-{i}-labeled", n, pairs, rng)
    fixture_falsify(wl, workdir, seed, 4000, crossed=False)
    add_warmups(wl, workdir)
    return wl


def mengerian_large(workdir, seed):
    wl = Workload("mengerian-large")
    rng = random.Random(f"mengerian-large/{seed}")
    # the family has one member per n, so its sizes do not depend on the seed
    for i, k in enumerate(strata(20, 56, 12)):
        n, pairs = gen.k2n_doubled_side(k)
        path = wl.add_file(workdir, f"k2n-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "mengerian", proof=False))
    for i, hops in enumerate(strata(15, 70, 12, rng)):
        n, pairs = gen.long_spoke_k25(hops, rng)
        path = wl.add_file(workdir, f"spoke-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "mengerian", proof=False))
    for i, max_hops in enumerate(strata(2, 400, 44, rng)):
        n, pairs = gen.crossed_subdivided(rng, max_hops)
        path = wl.add_file(workdir, f"crossed-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(
            recognize(path, "mengerian", proof=False, crossed=True))
    for i in range(32):
        n, pairs = crossed_near_miss(rng, i)
        path = wl.add_file(workdir, f"near-miss-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
    for i in range(36):
        n, pairs = small_mengerian(rng, i)
        labeled_queries(wl, workdir, f"member-{i}-labeled", n, pairs, rng, equal=True)
    fixture_falsify(wl, workdir, seed, 4000, crossed=False)
    add_warmups(wl, workdir)
    return wl


def labeled_small(workdir, seed):
    wl = Workload("labeled-small")
    rng = random.Random(f"labeled-small/{seed}")
    for i in range(120):
        n, pairs = small_nonmengerian(rng, i, chords=i % 3)
        path = wl.add_file(workdir, f"small-{i}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
    made = 0
    while made < 120:
        n, m = rng.randint(13, 15), rng.randint(40, 50)
        n, pairs, labels = gen.labeled_multigraph(n, m, 5, rng)
        # keep pairs with 20-50 temporal routes and an endpoint of at most
        # three neighbours (so c <= 3): the exponential oracles then see
        # comparable work from seed to seed
        nbrs = {v: {u for p in pairs if v in p for u in p} - {v} for v in range(n)}
        chosen = [(s, t) for s, t in gen.nonadjacent_pairs(n, pairs, 40, rng)
                  if min(len(nbrs[s]), len(nbrs[t])) <= 3
                  and 20 <= gen.temporal_route_count(n, pairs, labels, s, t, 50) <= 50][:2]
        if len(chosen) < 2:
            continue
        path = wl.add_file(workdir, f"dense-{made}", gen.graph_text(n, pairs, labels))
        made += 1
        for s, t in chosen:
            wl.commands["menger"].append(menger(path, s, t, edge=False))
        wl.commands["menger"].append(menger(path, *chosen[0], edge=True))
    for i, hops in enumerate(strata(50, 200, 8, rng)):
        n, pairs, labels = gen.doubled_corridor(hops, rng)
        path = wl.add_file(workdir, f"corridor-{i}", gen.graph_text(n, pairs, labels))
        wl.commands["menger"].append(menger(path, 0, n - 1, edge=True))
    fixture_falsify(wl, workdir, seed, 2000)
    path7 = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 4)]
    path = wl.add_file(workdir, "path-7", gen.graph_text(5, path7))
    wl.commands["falsify"].append(falsify_exhaustive(path, len(path7)))
    k23 = [(0, 2), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
    path = wl.add_file(workdir, "k23-7", gen.graph_text(5, k23))
    wl.commands["falsify"].append(falsify_exhaustive(path, len(k23)))
    add_warmups(wl, workdir)
    return wl


def defects(workdir, seed):
    """Inputs that fail today; run once each by `--workload defects`.

    Doubled corridors of a few hundred hops overflow the recursion in
    `edge_menger`.  Shapes with a handful of random chords send the gem
    search into its exhaustive fallback, which can run for minutes; how
    many of them hit the time limit depends on the seed.
    """
    wl = Workload("defects")
    rng = random.Random(f"defects/{seed}")
    for hops in (300, 600, 1500):
        n, pairs, labels = gen.doubled_corridor(hops, rng)
        path = wl.add_file(workdir, f"corridor-{hops}", gen.graph_text(n, pairs, labels))
        wl.commands["menger"].append(menger(path, 0, n - 1, edge=True))
    for name, base, chords in (("F1", 1000, 20), ("F2", 600, 20), ("F1", 300, 5),
                               ("F2", 300, 5), ("F3", 300, 5), ("F1", 100, 5)):
        n, pairs = gen.subdivided_shape(name, base, rng)
        n, pairs = gen.add_chords(n, pairs, chords, rng)
        path = wl.add_file(workdir, f"chords-{name}-{base}-{chords}", gen.graph_text(n, pairs))
        wl.commands["recognize"].append(recognize(path, "non_mengerian", proof=True))
    add_warmups(wl, workdir)
    return wl


BY_NAME = {
    "nonmengerian-large": nonmengerian_large,
    "mengerian-large": mengerian_large,
    "labeled-small": labeled_small,
    "defects": defects,
}
