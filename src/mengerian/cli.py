"""Command line interface: graph files, JSON reports, DOT drawings, generators.

Graph file format, one record per line (`#` starts a comment that runs
to the end of its line; a line ends at LF, CR LF or CR only):

    v <name>              declare a vertex
    e <u> <v> [<label>]   declare one edge; repeat lines for parallel edges

Names are whitespace-free and unique; vertex ids follow declaration
order.  Time labels are positive integers and appear on all edges or on
none.  Exit codes: 0 Mengerian / nothing found / query answered,
1 NonMengerian / counterexample found, 2 usage, parse, domain, or
resource error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from bisect import insort

from .menger import (
    CutUndefinedError,
    ResourceLimitError,
    edge_menger,
    falsify_mengerian,
    max_disjoint_paths,
    min_vertex_cut,
)
from .multigraph import Edge, GraphError, Multigraph
from .patterns import PATTERNS, MEmbedding
from .recognizer import recognize, recognize_with_proof
from .temporal import TemporalGraph


class GraphFileError(ValueError):
    """Malformed graph file; the message carries the line number."""


# ----------------------------------------------------------------------
# graph files


class NamedGraph:
    """A parsed graph file: multigraph, vertex names, optional labels."""

    def __init__(self, graph: Multigraph, names: tuple[str, ...],
                 times: dict[int, int] | None, ids: dict[str, int]):
        self.graph = graph
        self.names = names
        self.times = times
        self._ids = ids  # name -> vertex id, the inverse of names

    def name(self, v: int) -> str:
        return self.names[v]

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise GraphFileError(f"unknown vertex {name!r}") from None

    def temporal(self) -> TemporalGraph:
        if self.times is None:
            raise GraphFileError("graph file carries no time labels")
        return TemporalGraph.make(self.graph, self.times)


def _decimal(text: str) -> int:
    """ASCII digits as an int, leading zeros allowed; -1 for other text ("1_0",
    "+4", non-ASCII digits) and past int()'s limit of 4300 digits."""
    return int(text) if len(text) <= 4300 and text.isascii() and text.isdigit() else -1


def parse_graphfile(text: str) -> NamedGraph:
    """Read the format in this module's docstring; GraphFileError names the
    line of the first fault."""
    names: list[str] = []
    ids: dict[str, int] = {}
    get = ids.get
    pairs: list[tuple[int, int]] = []
    labels: list[int] = []
    labeled: bool | None = None  # decided by the first edge line

    def fail(lineno: int, msg: str) -> GraphFileError:
        return GraphFileError(f"line {lineno}: {msg}")

    if "\r" in text:  # a line ends at \n, \r\n or \r, not at str.splitlines()' others
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":  # edge lines outnumber vertex lines
            n = len(fields)
            if n != 3 and n != 4:
                raise fail(lineno, "expected: e <u> <v> [<label>]")
            u = get(fields[1])
            if u is None:
                raise fail(lineno, f"undeclared vertex {fields[1]!r}")
            v = get(fields[2])
            if v is None:
                raise fail(lineno, f"undeclared vertex {fields[2]!r}")
            if u == v:
                raise fail(lineno, f"self-loop at {fields[1]!r}")
            has_label = n == 4
            if labeled is not has_label:
                if labeled is not None:
                    raise fail(lineno, "labels must appear on all edges or on none")
                labeled = has_label
            if has_label:
                lab = _decimal(fields[3])
                if lab < 1:
                    raise fail(lineno, f"label must be a positive integer, got {fields[3]!r}")
                labels.append(lab)
            pairs.append((u, v))
        elif head == "v":
            if len(fields) != 2:
                raise fail(lineno, "expected: v <name>")
            name = fields[1]
            if name in ids:
                raise fail(lineno, f"duplicate vertex {name!r}")
            ids[name] = len(names)
            names.append(name)
        else:
            raise fail(lineno, f"unknown directive {head!r}")

    graph = Multigraph.build(range(len(names)), pairs)
    times = dict(enumerate(labels)) if labeled else None
    return NamedGraph(graph, tuple(names), times, ids)


def load_graphfile(path: str) -> NamedGraph:
    """Read and parse a UTF-8 graph file; GraphFileError names the file and
    the byte offset of text that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return parse_graphfile(text)


def emit_graphfile(graph: Multigraph, names: tuple[str, ...] | None = None,
                   times: dict[int, int] | None = None) -> str:
    """Deterministic text form; parse(emit(g)) reproduces g exactly."""
    if names is None:
        names = tuple(str(v) for v in sorted(graph.vertices))
    order = {v: i for i, v in enumerate(sorted(graph.vertices))}
    out = [f"v {names[order[v]]}" for v in sorted(graph.vertices)]
    for e in graph.edges:
        line = f"e {names[order[e.u]]} {names[order[e.v]]}"
        if times is not None:
            line += f" {times[e.id]}"
        out.append(line)
    return "\n".join(out) + "\n" if out else ""


# ----------------------------------------------------------------------
# report emission

_SEGMENT_COLORS = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a",
                   "#66a61e", "#e6ab02", "#a6761d", "#666666")


def _embedding_json(named: NamedGraph, emb: MEmbedding) -> dict:
    segments = {}
    for (a, b), route in sorted(emb.routes.items()):
        segments[f"{a},{b}"] = {
            "route": [named.name(v) for v in route],
            "hops": [sorted(h) for h in emb.hop_edges[(a, b)]],
        }
    return {
        "pattern": emb.pattern.name,
        "vertex_roles": {str(i): n for i, n in emb.pattern.vertex_names},
        "branch": {str(i): named.name(v) for i, v in sorted(emb.branch.items())},
        "segments": segments,
    }


def embedding_from_json(named: NamedGraph, data: dict) -> MEmbedding:
    """Rebuild an embedding reported against the same graph file."""
    pattern = {p.name: p for p in PATTERNS}[data["pattern"]]
    branch = {int(k): named.id(v) for k, v in data["branch"].items()}
    routes = {}
    hop_edges = {}
    for key, seg in data["segments"].items():
        a, b = (int(x) for x in key.split(","))
        routes[(a, b)] = tuple(named.id(v) for v in seg["route"])
        hop_edges[(a, b)] = tuple(tuple(h) for h in seg["hops"])
    return MEmbedding(pattern, branch, routes, hop_edges)


def _witness_json(named: NamedGraph, proof) -> dict:
    report = proof.report
    if report is None:
        status = "skipped"
    elif not report.cut_defined:
        status = "cut-undefined"
    elif report.confirmed:
        status = "confirmed"
    else:
        status = "unconfirmed"  # pragma: no cover - no known host reaches this
    return {
        "times": {str(i): lab for i, lab in proof.labeled.entries},
        "s": named.name(proof.source),
        "t": named.name(proof.target),
        "claimed_p": 1,
        "claimed_c": 2,
        "status": status,
        "measured_p": None if report is None else report.path_count,
        "measured_c": None if report is None else report.cut_size,
        "refused": None if proof.refused is None else proof.refused.named(named.name),
    }


def _crossed_json(named: NamedGraph, cs) -> dict:
    part = lambda s: sorted(named.name(v) for v in s)
    return {
        "kind": cs.kind,
        "chain": [named.name(v) for v in cs.chain.vertices],
        "corners": [named.name(v) for v in cs.corners],
        "a1": part(cs.a1),
        "a2": part(cs.a2),
        "b2": part(cs.b2),
        "b1": None if cs.b1 is None else part(cs.b1),
    }


def report_json(named: NamedGraph, verdict, proof, elapsed_ms: float) -> dict:
    emb = verdict.embedding
    return {
        "verdict": "mengerian" if verdict.mengerian else "non_mengerian",
        "pattern": None if emb is None else emb.pattern.name,
        "embedding": None if emb is None else _embedding_json(named, emb),
        "witness": None if proof is None else _witness_json(named, proof),
        "diagnostics": {
            "chains_examined": verdict.chains_examined,
            "crossed_structures": [_crossed_json(named, c) for c in verdict.crossed],
            "elapsed_ms": round(elapsed_ms, 3),
        },
    }


def _dot_id(name: str) -> str:
    """name as a quoted DOT identifier, with `\\` and `"` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(named: NamedGraph, emb: MEmbedding | None = None) -> str:
    """DOT drawing; every parallel edge drawn, embedding segments colored."""
    ids = [_dot_id(name) for name in named.names]
    color_of: dict[int, str] = {}
    branch_vertices: set[int] = set()
    if emb is not None:
        for idx, (pair, hops) in enumerate(sorted(emb.hop_edges.items())):
            for hop in hops:
                for eid in hop:
                    color_of[eid] = _SEGMENT_COLORS[idx % len(_SEGMENT_COLORS)]
        branch_vertices = set(emb.branch.values())
    out = ["graph mengerian {"]
    for v in sorted(named.graph.vertices):
        attrs = ['shape=circle']
        if v in branch_vertices:
            attrs += ['style=filled', 'fillcolor="#fdd49e"']
        out.append(f'  {ids[v]} [{", ".join(attrs)}];')
    for e in named.graph.edges:
        attrs = []
        if e.id in color_of:
            attrs = [f'color="{color_of[e.id]}"', "penwidth=2.2"]
        elif emb is not None:
            attrs = ['color="#bbbbbb"']
        suffix = f' [{", ".join(attrs)}]' if attrs else ""
        out.append(f'  {ids[e.u]} -- {ids[e.v]}{suffix};')
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# generators


def random_multigraph(n: int, m: int, max_mult: int, rng: random.Random) -> Multigraph:
    """Random multigraph; a spanning tree comes first whenever m allows."""
    if n < 2 and m > 0:
        raise GraphFileError(f"cannot place {m} edges on {n} vertices")
    if n >= 2 and m > max_mult * n * (n - 1) // 2:
        raise GraphFileError(f"cannot place {m} edges with multiplicity <= {max_mult}")
    pairs: list[tuple[int, int]] = []
    mult: dict[tuple[int, int], int] = {}

    def put(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if mult.get(key, 0) >= max_mult:
            return False
        mult[key] = mult.get(key, 0) + 1
        pairs.append(key)
        return True

    if n >= 2 and m >= n - 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            put(order[rng.randrange(i)], order[i])
    while len(pairs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            put(u, v)
    return Multigraph.build(n, pairs)


def subdivided_pattern(name: str, ops: int, rng: random.Random) -> Multigraph:
    """A pattern after `ops` random m-subdivisions, as `m_subdivide` makes
    them: each step picks one distinct adjacent pair, in sorted order, by
    `rng.randrange`, and replaces its mu parallel edges by mu edges to the
    next fresh vertex and then mu on from it, each with the next fresh id.

    The sorted pairs and each pair's ids are kept across steps, and the
    graph is built once at the end.
    """
    g = {p.name: p for p in PATTERNS}[name].graph
    ids_of: dict[tuple[int, int], range | list[int]] = {}
    for e in g.edges:
        ids_of.setdefault(e.pair, []).append(e.id)
    pairs = sorted(ids_of)
    first = z = max(g.vertices)
    next_id = max(e.id for e in g.edges) + 1
    for _ in range(ops):
        u, v = pairs.pop(rng.randrange(len(pairs)))
        mu = len(ids_of.pop((u, v)))
        z += 1  # above every vertex, so (u, z) and (v, z) are new pairs
        insort(pairs, (u, z))
        insort(pairs, (v, z))
        ids_of[u, z] = range(next_id, next_id + mu)
        ids_of[v, z] = range(next_id + mu, next_id + 2 * mu)
        next_id += 2 * mu
    edges = tuple(Edge(i, a, b) for (a, b), ids in ids_of.items() for i in ids)
    return Multigraph(g.vertices.union(range(first + 1, z + 1)), edges)


# ----------------------------------------------------------------------
# commands


def cmd_recognize(args) -> int:
    named = load_graphfile(args.path)
    start = time.perf_counter()
    if args.proof:
        verdict, proof = recognize_with_proof(named.graph)
    else:
        verdict, proof = recognize(named.graph), None
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(emit_dot(named, verdict.embedding))
    if args.as_json:
        # no indent: it would force the pure-Python encoder
        print(json.dumps(report_json(named, verdict, proof, elapsed_ms), sort_keys=True))
    elif verdict.mengerian:
        print("Mengerian")
        if verdict.crossed:
            print(f"  crossed structures: {len(verdict.crossed)}"
                  f" (chains examined: {verdict.chains_examined})")
    else:
        emb = verdict.embedding
        print(f"NonMengerian ({emb.pattern.name})")
        for i, v in sorted(emb.branch.items()):
            print(f"  {emb.pattern.display_name(i)} -> {named.name(v)}")
        if proof is not None:
            wj = _witness_json(named, proof)
            line = f"  witness: s={wj['s']} t={wj['t']} status={wj['status']}"
            print(line if wj["refused"] is None else f"{line}: {wj['refused']}")
    return 0 if verdict.mengerian else 1


def _print_paths(named: NamedGraph, tg: TemporalGraph, paths) -> None:
    for i, p in enumerate(paths, start=1):
        hops = [named.name(p.vertices[0])]
        for eid, v in zip(p.edge_ids, p.vertices[1:]):
            hops.append(f"-{tg.label(eid)}-")
            hops.append(named.name(v))
        print(f"  path {i}: {' '.join(hops)}")


def cmd_menger(args) -> int:
    named = load_graphfile(args.path)
    tg = named.temporal()
    s, t = named.id(args.source), named.id(args.target)
    if args.edge:
        paths, cut = edge_menger(tg, s, t)
        print(f"p' = {len(paths)}")
        _print_paths(named, tg, paths)
        print(f"c' = {len(cut)}")
        print(f"  cut edges: {' '.join(str(e) for e in sorted(cut))}")
        return 0
    # the cut first: it refuses an adjacent pair before any route is listed
    try:
        cut = min_vertex_cut(tg, s, t)
        paths = max_disjoint_paths(tg, s, t)
    except CutUndefinedError:
        raise CutUndefinedError(
            f"vertices {args.source!r} and {args.target!r} are adjacent, "
            "so no vertex cut exists; use --edge for the edge variant"
        ) from None
    except ResourceLimitError as exc:
        raise ResourceLimitError(exc.named(named.name)) from None
    print(f"p = {len(paths)}")
    _print_paths(named, tg, paths)
    print(f"c = {len(cut)}")
    print(f"  cut: {' '.join(named.name(v) for v in sorted(cut))}")
    return 0


def cmd_falsify(args) -> int:
    named = load_graphfile(args.path)
    try:  # --exhaustive leaves samples None
        found = falsify_mengerian(named.graph, samples=args.samples, seed=args.seed)
    except ResourceLimitError as exc:
        raise ResourceLimitError(exc.named(named.name)) from None
    if found is None:
        print("no counterexample")
        return 0
    print("# counterexample: p < c under this labeling")
    print(f"# s = {named.name(found.s)}  t = {named.name(found.t)}"
          f"  p = {len(found.paths)}  c = {len(found.cut)}")
    print(f"# cut: {' '.join(named.name(v) for v in sorted(found.cut))}")
    sys.stdout.write(emit_graphfile(named.graph, named.names, found.labeled.times))
    return 1


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.model == "multigraph":
        if args.pattern or args.ops is not None:
            raise GraphFileError("--pattern/--ops only apply to m-subdivided-pattern")
        g = random_multigraph(args.n or 0, args.m or 0, args.max_mult or 3, rng)
    else:
        if (args.n, args.m, args.max_mult) != (None, None, None):
            raise GraphFileError("--n/--m/--max-mult only apply to multigraph")
        if args.pattern is None:
            raise GraphFileError("m-subdivided-pattern requires --pattern")
        g = subdivided_pattern(args.pattern, args.ops or 0, rng)
    sys.stdout.write(emit_graphfile(g))
    return 0


# ----------------------------------------------------------------------
# dispatch


def _positive(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    value = _decimal(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# Built once per process: building costs about as much as a small
# `menger` query, and parsing leaves the parser as it was (each call
# fills a fresh namespace).
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mengerian",
        description="Decide whether a multigraph is Mengerian; run temporal "
                    "Menger oracles; falsify by labeling search; generate inputs.",
        epilog="Exit codes: 0 Mengerian / none found / answered, "
               "1 NonMengerian / counterexample, 2 error.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    r = sub.add_parser("recognize", help="classify a graph file")
    r.add_argument("path")
    r.add_argument("--proof", action="store_true",
                   help="attach a counterexample labeling, oracle-checked")
    r.add_argument("--json", dest="as_json", action="store_true",
                   help="emit a JSON report")
    r.add_argument("--dot", metavar="FILE",
                   help="write a DOT drawing, embedding highlighted")
    r.set_defaults(func=cmd_recognize)

    q = sub.add_parser("menger", help="exact p/c or p'/c' for one pair")
    q.add_argument("path")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--edge", action="store_true",
                   help="multiedge-disjoint variant (default: vertex-disjoint)")
    q.set_defaults(func=cmd_menger)

    f = sub.add_parser("falsify", help="search labelings for p < c")
    mode = f.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="every weak order of labels")
    mode.add_argument("--samples", type=_positive, metavar="N",
                      help="random labelings to try")
    f.add_argument("path")
    f.add_argument("--seed", type=_non_negative, default=0, metavar="S")
    f.set_defaults(func=cmd_falsify)

    g = sub.add_parser("gen", help="write a graph file to standard output")
    g.add_argument("--model", required=True,
                   choices=("multigraph", "m-subdivided-pattern"))
    g.add_argument("--n", type=_non_negative)
    g.add_argument("--m", type=_non_negative)
    g.add_argument("--max-mult", type=_positive)
    g.add_argument("--pattern", choices=tuple(p.name for p in PATTERNS))
    g.add_argument("--ops", type=_non_negative)
    g.add_argument("--seed", type=_non_negative, default=0)
    g.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFileError, GraphError, ResourceLimitError, CutUndefinedError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not exit 1, which means "counterexample"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
