"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` rebinds the names each module of the package imported
from another (for example `mengerian.recognizer.find_f3_subdivision`)
and a few methods, so every call across a layer boundary opens a span.
Spans record name, start, end, parent, command id, an outcome and a
count; they stay in memory and are written out when the run ends.  The
program runs in one thread with no queues, so no layer ever waits: a
span's time is busy time.  Counters the program keeps to itself, such
as gem-search nodes, are out of reach from here.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from workloads import ordered_bell


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index, command id, outcome, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.command: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def span(self, name, fn, outcome=None):
        """fn wrapped so each call inside a command records a span.

        name may be a function of the call's (args, kwargs); outcome maps
        (args, kwargs, result, exception) to (outcome, count).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.command is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            row = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.command, None, None]
            index = len(tracer.spans)
            tracer.spans.append(row)
            tracer._stack.append(index)
            result = exc = None
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                row[2] = perf_counter()
                tracer._stack.pop()
                if outcome is not None:
                    row[5], row[6] = outcome(args, kwargs, result, exc)
                elif exc is not None:
                    row[5] = type(exc).__name__

        return traced

    def run_command(self, command_id, fn):
        """Run fn() as the root span of one command."""
        self.command = command_id
        try:
            return self.span("cli.main", fn)()
        finally:
            self.command = None
            self._stack.clear()

    # ------------------------------------------------------------------
    # installation

    def _rebind(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self, pkg):
        """Wrap the layer boundaries of an imported `mengerian` package."""
        cli, recognizer, patterns = pkg.cli, pkg.recognizer, pkg.patterns
        witness, menger = pkg.witness, pkg.menger
        plain = {
            (cli, "load_graphfile"): "cli.load",
            (cli, "report_json"): "cli.report",
            (cli, "recognize"): "recognizer.recognize",
            (recognizer, "recognize"): "recognizer.recognize",
            (cli, "max_disjoint_paths"): "menger.paths",
            (witness, "max_disjoint_paths"): "menger.paths",
            (cli, "min_vertex_cut"): "menger.cut",
            (witness, "min_vertex_cut"): "menger.cut",
            (recognizer, "maximal_chains"): "multigraph.chains",
            (recognizer, "identify"): "multigraph.identify",
            (recognizer, "find_path"): "multigraph.find_path",
            (recognizer, "check_m_subdivision"): "patterns.check",
            (patterns, "check_m_subdivision"): "patterns.check",
            (recognizer, "make_witness"): "witness.make",
            (recognizer, "verify_witness"): "witness.verify",
            (menger, "earliest_arrival"): "temporal.earliest_arrival",
        }
        for (module, attr), name in plain.items():
            self._rebind(module, attr, self.span(name, getattr(module, attr)))

        self._rebind(cli, "recognize_with_proof", self.span(
            "recognizer.recognize_with_proof", cli.recognize_with_proof, _witness_status))
        self._rebind(recognizer, "biconnected_components", self.span(
            "multigraph.blocks", recognizer.biconnected_components,
            lambda a, k, r, e: (None, None if r is None else len(r))))
        self._rebind(recognizer, "find_f3_subdivision", self.span(
            _gem_name, recognizer.find_f3_subdivision,
            lambda a, k, r, e: ("hit" if r is not None else "miss", None)))
        for attr in ("assemble_f1", "assemble_f2"):
            self._rebind(recognizer, attr, self.span(
                "patterns.assemble", getattr(recognizer, attr),
                lambda a, k, r, e: ("fail" if e is not None else "ok", None)))
        self._rebind(cli, "edge_menger", self.span(
            "menger.edge", cli.edge_menger,
            lambda a, k, r, e: (None if e is None else type(e).__name__, None)))
        self._rebind(cli, "falsify_mengerian", self.span(
            "menger.falsify", cli.falsify_mengerian, _labelings))

        graph = pkg.multigraph.Multigraph
        for attr in ("underlying_simple", "remove_vertices"):
            self._rebind(graph, attr, self.span(f"multigraph.{attr}", graph.__dict__[attr]))
        temporal_graph = pkg.temporal.TemporalGraph
        make = temporal_graph.__dict__["make"].__func__
        self._rebind(temporal_graph, "make", staticmethod(self.span("temporal.make", make)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reporting

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                name, start, end, parent, cmd, outcome, count = row
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd,
                                     "outcome": outcome, "count": count}) + "\n")

    def summary(self):
        """Per span name (a defaultdict, so names never seen read as zero):
        calls, inclusive seconds, outcomes, counts; and per layer (the
        name's first part): self seconds."""
        child_time = [0.0] * len(self.spans)
        for row in self.spans:
            if row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "outcomes": defaultdict(int),
                                       "count": 0})
        layer_self = defaultdict(float)
        for i, (name, start, end, _, _, outcome, count) in enumerate(self.spans):
            entry = by_name[name]
            entry["calls"] += 1
            entry["s"] += end - start
            if outcome is not None:
                entry["outcomes"][outcome] += 1
            if count is not None:
                entry["count"] += count
            layer_self[name.split(".")[0]] += (end - start) - child_time[i]
        return by_name, layer_self


def _gem_name(args, kwargs):
    apex = kwargs.get("apex", args[1] if len(args) > 1 else None)
    return "patterns.gem_block" if apex is None else "patterns.gem_pinned"


def _witness_status(args, kwargs, result, exc):
    if result is None:
        return None, None
    verdict, proof = result
    if proof is None:
        return None, None
    report = proof.report
    if report is None:
        return "skipped", None
    if not report.cut_defined:
        return "cut-undefined", None
    return ("confirmed" if report.confirmed else "unconfirmed"), None


def _labelings(args, kwargs, result, exc):
    """Labelings an uninterrupted falsify call checked when it found nothing."""
    if exc is not None or result is not None:
        return None, None
    graph = args[0]
    samples = kwargs.get("samples")
    if samples is not None:
        return None, samples
    return None, ordered_bell(len(graph.edges))
