"""Graph file round trips, report integrity, and command exit codes."""

import argparse
import contextlib
import io
import json
import re
import shlex
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mengerian import cli, menger
from mengerian.cli import (
    GraphFileError,
    build_parser,
    embedding_from_json,
    emit_graphfile,
    emit_dot,
    main,
    parse_graphfile,
    random_multigraph,
    subdivided_pattern,
)
from mengerian.menger import max_disjoint_paths, min_vertex_cut
from mengerian.multigraph import InternalError
from mengerian.patterns import F1, F2, F3, PATTERNS, check_m_subdivision
from mengerian.temporal import TemporalGraph

from helpers import count_listings, is_connected, mg, mult_map, multigraph_isomorphic
import oracles

import random


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# graph-file pieces: names with leading zeros, labels that are
# and are not positive ASCII integers (4300 characters is the longest
# accepted), and lines that each break one rule when u and v are declared
NAMES = ("a", "b", "c", "x1", "007", "7")
GOOD_LABELS = ("1", "2", "9", "007", "10", "0" * 4299 + "1")
FAULTY_LINES = ("v", "v {u} {v}", "v {u}", "e", "e {u}", "e {u} {v} 1 2", "e {u} {u}",
                "e {u} zz", "e zz {v}", "e {u} {v} 0", "e {u} {v} x", "e {u} {v} +4",
                "e {u} {v} 1_0", "e {u} {v} \u0663", "e {u} {v} " + "0" * 4300 + "1",
                "e {u} {v}", "e {u} {v} 3", "w {u}", "ev {u} {v}", "V {u}")


@st.composite
def graph_files(draw):
    """Graph-file text: v and e lines interleaved (each name declared before
    an edge uses it), comment and blank lines, odd spacing and one line
    ending throughout (LF, CR LF or CR); comments now and then hold
    characters that `str.splitlines` would end a line at; about half of
    the files also hold faulty lines."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=5, unique=True))
    labeled = draw(st.booleans())
    lines = []
    for k, name in enumerate(names):
        lines.append(f"v {name}")
        for _ in range(draw(st.integers(0, 3)) if k else 0):
            u, v = draw(st.permutations(names[:k + 1]))[:2]
            lines.append(f"e {u} {v} {draw(st.sampled_from(GOOD_LABELS))}" if labeled
                         else f"e {u} {v}")
    for _ in range(draw(st.integers(0, 2)) * draw(st.booleans())):
        u, v = draw(st.permutations(names))[:2]
        fault = draw(st.sampled_from(FAULTY_LINES)).format(u=u, v=v)
        lines.insert(len(lines) - draw(st.integers(0, len(lines))), fault)
    text = []
    for line in lines:
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        text.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(line.split(" "))
                    + draw(st.sampled_from(["", " ", "  # note", "#", "\t#x y",
                                            "# a\u2028b\x85c\x0cd"])))
        if draw(st.integers(0, 4)) == 0:
            text.append(draw(st.sampled_from(["", "   ", "# comment", " # e a b"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(text) + draw(st.sampled_from(["", ending]))


def pattern_file(tmp_path, pattern, labeled=False):
    times = dict(pattern.labels) if labeled else None
    return write(tmp_path, f"{pattern.name}.graph",
                 emit_graphfile(pattern.graph, times=times))


class TestParsing:
    def test_basic_file(self):
        named = parse_graphfile(
            "# a triangle with one doubled side\n"
            "v a\nv b\nv c\n"
            "e a b  # trailing comment\n"
            "e a b\n"
            "e b c\n"
        )
        assert named.names == ("a", "b", "c")
        assert named.times is None
        assert mult_map(named.graph) == {(0, 1): 2, (1, 2): 1}

    def test_labeled_file(self):
        named = parse_graphfile("v x\nv y\ne x y 3\ne x y 1\n")
        assert named.times == {0: 3, 1: 1}
        tg = named.temporal()
        assert tg.label(0) == 3

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                      "\x1d", "\x1e"])
    def test_comment_runs_to_the_end_of_its_line(self, char):
        # str.splitlines() would end the line at char, and read "more" as
        # a directive on a line of its own
        named = parse_graphfile(f"v a # note{char}more\nv b\ne a b\n")
        assert named.names == ("a", "b") and mult_map(named.graph) == {(0, 1): 1}
        with pytest.raises(GraphFileError, match=r"^line 2: unknown directive 'w'$"):
            parse_graphfile(f"v a # note{char}more\nw b\n")

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_end_lines_as_lf_does(self, ending):
        text = "# labeled\nv a\nv b  # second\n\ne a b 3\ne b a 1\n"
        named, lf = parse_graphfile(text.replace("\n", ending)), parse_graphfile(text)
        assert (named.names, named.graph, named.times) == (lf.names, lf.graph, lf.times)
        with pytest.raises(GraphFileError, match=r"^line 4: undeclared vertex 'c'$"):
            parse_graphfile(ending.join(["v a", "v b", "", "e a c", ""]))

    def test_empty_file_is_empty_graph(self):
        named = parse_graphfile("# nothing\n\n")
        assert named.graph.vertices == frozenset()
        assert named.graph.edges == ()

    @pytest.mark.parametrize("text,fragment", [
        ("v a\nv a\n", "line 2: duplicate vertex"),
        ("v a\ne a b\n", "line 2: undeclared vertex 'b'"),
        ("v a\ne a a\n", "line 2: self-loop"),
        ("v a\nv b\ne a b 1\ne a b\n", "line 4: labels must appear"),
        ("v a\nv b\ne a b\ne a b 1\n", "line 4: labels must appear"),
        ("v a\nv b\ne a b 0\n", "line 3: label must be a positive integer"),
        ("v a\nv b\ne a b x\n", "line 3: label must be a positive integer"),
        # int() alone would read these as 10, 4 and 3
        ("v a\nv b\ne a b 1_0\n", "line 3: label must be a positive integer, got '1_0'"),
        ("v a\nv b\ne a b +4\n", "line 3: label must be a positive integer, got '\\+4'"),
        ("v a\nv b\ne a b \u0663\n", "line 3: label must be a positive integer"),
        # past int()'s 4300-digit limit, which 3.10.0-3.10.6 lack
        pytest.param("v a\nv b\ne a b " + "1" * 5000 + "\n",
                     "line 3: label must be a positive integer", id="label-of-5000-digits"),
        ("w a\n", "line 1: unknown directive 'w'"),
        ("v\n", "line 1: expected: v <name>"),
        ("v a\nv b\ne a\n", "line 3: expected: e <u> <v>"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(GraphFileError, match=fragment) as caught:
            parse_graphfile(text)
        with pytest.raises(GraphFileError) as reference:
            oracles.read_graphfile(text)
        assert str(caught.value) == str(reference.value)

    @settings(max_examples=250)
    @given(graph_files())
    def test_agrees_with_the_reference_reader(self, text):
        try:
            names, pairs, labels = oracles.read_graphfile(text)
        except GraphFileError as exc:
            with pytest.raises(GraphFileError) as caught:
                parse_graphfile(text)
            assert str(caught.value) == str(exc)
            return
        named = parse_graphfile(text)
        assert named.names == tuple(names)
        assert [named.id(name) for name in names] == list(range(len(names)))
        assert named.graph.vertices == frozenset(range(len(names)))
        assert [tuple(e) for e in named.graph.edges] == [
            (i, min(p), max(p)) for i, p in enumerate(pairs)]
        assert named.times == (None if labels is None else dict(enumerate(labels)))

    def test_file_that_is_not_utf8_names_the_byte(self, tmp_path, capsys):
        # 0xff never occurs in UTF-8; the offset counts from the start of
        # the file, past the reader's first buffer of 8192 bytes
        path = tmp_path / "latin1.graph"
        path.write_bytes(b"v a\nv \xe9\n")
        with pytest.raises(GraphFileError) as caught:
            cli.load_graphfile(str(path))
        assert str(caught.value) == f"{path}: not valid UTF-8 at byte 6"
        path.write_bytes(b"#" * 10_000 + b"\nv a\xff\n")
        assert run(capsys, "recognize", str(path)) == (
            2, "", f"error: {path}: not valid UTF-8 at byte 10004\n")

    def test_names_resolve_both_ways(self):
        named = parse_graphfile("v left\nv right\ne left right\n")
        assert named.id("right") == 1
        assert named.name(0) == "left"
        with pytest.raises(GraphFileError, match="unknown vertex"):
            named.id("middle")


class TestRoundTrip:
    def test_exact_round_trip_unlabeled(self):
        g = F1.graph
        again = parse_graphfile(emit_graphfile(g))
        assert [e.pair for e in again.graph.edges] == [e.pair for e in g.edges]
        assert again.times is None

    def test_exact_round_trip_labeled(self):
        g = F3.graph
        times = dict(F3.labels)
        again = parse_graphfile(emit_graphfile(g, times=times))
        assert [e.pair for e in again.graph.edges] == [e.pair for e in g.edges]
        assert again.times == times

    def test_round_trip_random_graphs(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(2, 8)
            m = rng.randrange(0, min(12, 3 * n * (n - 1) // 2 + 1))
            g = random_multigraph(n, m, 3, rng)
            again = parse_graphfile(emit_graphfile(g)).graph
            assert multigraph_isomorphic(g, again)
            assert mult_map(g) == mult_map(again)

    def test_custom_names_survive(self):
        named = parse_graphfile("v b\nv a\ne b a\n")
        text = emit_graphfile(named.graph, named.names)
        assert text == "v b\nv a\ne b a\n"


class TestRecognizeCommand:
    @pytest.mark.parametrize("pattern", [F1, F2, F3])
    def test_patterns_exit_1(self, tmp_path, capsys, pattern):
        code, out, _ = run(capsys, "recognize", pattern_file(tmp_path, pattern))
        assert code == 1
        assert f"NonMengerian ({pattern.name})" in out

    def test_tree_exits_0(self, tmp_path, capsys):
        path = write(tmp_path, "t.graph", "v a\nv b\nv c\ne a b\ne b c\n")
        code, out, _ = run(capsys, "recognize", path)
        assert code == 0
        assert out.startswith("Mengerian")

    def test_malformed_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.graph", "v a\ne a b\n")
        code, _, err = run(capsys, "recognize", path)
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "recognize", "/nonexistent/x.graph")
        assert code == 2
        assert "error:" in err

    def test_labels_ignored(self, tmp_path, capsys):
        code, out, _ = run(capsys, "recognize",
                           pattern_file(tmp_path, F1, labeled=True))
        assert code == 1

    @pytest.mark.parametrize("exc", [InternalError("bad embedding"),
                                     RecursionError("too deep"), KeyError(7)])
    def test_crash_exits_2_not_1(self, tmp_path, capsys, monkeypatch, exc):
        # exit code 1 means "non-Mengerian", so a crash must never produce it
        def crash(graph):
            raise exc

        monkeypatch.setattr(cli, "recognize", crash)
        code, out, err = run(capsys, "recognize", pattern_file(tmp_path, F2))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: internal error: ")
        assert type(exc).__name__ in err

    def test_interrupt_is_not_swallowed(self, tmp_path, monkeypatch):
        def interrupted(graph):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "recognize", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["recognize", pattern_file(tmp_path, F2)])

    def test_json_report_revalidates(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1)
        code, out, _ = run(capsys, "recognize", "--proof", "--json", path)
        assert code == 1
        assert out.count("\n") == 1  # one line: no indent
        report = json.loads(out)
        assert report["verdict"] == "non_mengerian"
        assert report["pattern"] == "F1"

        # reload the embedding against a fresh parse of the same file
        named = parse_graphfile(emit_graphfile(F1.graph))
        emb = embedding_from_json(named, report["embedding"])
        assert check_m_subdivision(named.graph, emb) is None

        # reload the witness and re-measure with the oracles
        witness = report["witness"]
        assert witness["status"] == "confirmed"
        assert (witness["claimed_p"], witness["claimed_c"]) == (1, 2)
        times = {int(k): v for k, v in witness["times"].items()}
        tg = TemporalGraph.make(named.graph, times)
        s, t = named.id(witness["s"]), named.id(witness["t"])
        assert len(max_disjoint_paths(tg, s, t)) == witness["measured_p"] == 1
        assert len(min_vertex_cut(tg, s, t)) == witness["measured_c"] == 2
        assert witness["refused"] is None

    def test_json_hop_on_another_parallel_edge_is_refused(self, tmp_path, capsys):
        # F1 with a third hub-hub edge: the report's hub-hub hop carries the
        # two lowest ids; edited to carry the new edge instead, it is
        # refused by the same two calls that recheck a report
        text = emit_graphfile(F1.graph) + "e 3 4\n"
        code, out, _ = run(capsys, "recognize", "--json", write(tmp_path, "f1.graph", text))
        assert code == 1
        data = json.loads(out)["embedding"]
        named = parse_graphfile(text)
        assert check_m_subdivision(named.graph, embedding_from_json(named, data)) is None
        seg = data["segments"]["3,4"]
        x, y = (named.id(v) for v in seg["route"][:2])
        ids = named.graph.parallel_edges(x, y)
        assert len(ids) == 3 and seg["hops"][0] == list(ids[:2])
        seg["hops"][0] = [ids[0], ids[2]]
        reason = check_m_subdivision(named.graph, embedding_from_json(named, data))
        assert reason == f"hop {x},{y} of (3, 4) must carry exactly 2 edges: its pair's lowest-id ones"

    def test_budget_refusal_says_why(self, tmp_path, capsys, monkeypatch):
        # a proof past the work budget ships as skipped, and the refusal
        # names the pair by the graph file's names
        names = ("s", "i1", "i2", "h1", "h2", "t")
        path = write(tmp_path, "f1.graph", emit_graphfile(F1.graph, names))
        monkeypatch.setattr(menger, "_WORK_BUDGET", 1)
        code, out, _ = run(capsys, "recognize", "--proof", "--json", path)
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["status"] == "skipped"
        assert witness["measured_p"] is None and witness["measured_c"] is None
        why = "between s and t exceeds the work budget of 1 steps"
        assert why in witness["refused"]
        code, out, _ = run(capsys, "recognize", "--proof", path)
        assert code == 1
        assert out.splitlines()[-1] == f"  witness: s=s t=t status=skipped: {witness['refused']}"

    def test_wheel_proof_is_cut_undefined(self, tmp_path, capsys):
        # W4, a hub e on the 4-cycle a b c d: the gem's ends c, d are
        # adjacent, so the witness has no vertex cut to measure
        wheel = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
        path = write(tmp_path, "w4.graph", emit_graphfile(mg(wheel), tuple("abcde")))
        code, out, _ = run(capsys, "recognize", "--proof", path)
        assert code == 1
        assert out.splitlines()[-1] == "  witness: s=c t=d status=cut-undefined"
        code, out, _ = run(capsys, "recognize", "--proof", "--json", path)
        assert code == 1
        witness = json.loads(out)["witness"]
        assert (witness["s"], witness["t"]) == ("c", "d")
        assert witness["status"] == "cut-undefined"
        assert witness["measured_c"] is None and witness["refused"] is None

    def test_json_mengerian_report(self, tmp_path, capsys):
        path = write(tmp_path, "c4.graph",
                     "v a\nv b\nv c\nv d\ne a b\ne b c\ne c d\ne d a\n")
        code, out, _ = run(capsys, "recognize", "--json", path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "mengerian"
        assert report["pattern"] is None
        assert report["embedding"] is None
        assert report["witness"] is None
        assert report["diagnostics"]["elapsed_ms"] >= 0

    def test_crossed_structure_in_diagnostics(self, tmp_path, capsys):
        pairs = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (0, 4),
                 (0, 6), (3, 5), (3, 7), (4, 5), (6, 7), (5, 6), (4, 7)]
        path = write(tmp_path, "crossed.graph", emit_graphfile(mg(pairs)))
        code, out, _ = run(capsys, "recognize", "--json", path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "mengerian"
        [cs] = report["diagnostics"]["crossed_structures"]
        assert cs["kind"] == 2
        assert cs["chain"] == ["0", "1", "2", "3"]
        assert len(cs["corners"]) == 4
        code, out, _ = run(capsys, "recognize", path)
        assert "crossed structures: 1" in out

    def test_dot_highlights_embedding(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1)
        dot = tmp_path / "f1.dot"
        code, _, _ = run(capsys, "recognize", "--dot", str(dot), path)
        assert code == 1
        text = dot.read_text()
        assert text.startswith("graph mengerian {")
        # every pattern edge is drawn separately and colored
        assert text.count(" -- ") == 9
        assert text.count("penwidth") == 9
        assert text.count("fillcolor") == 6

    def test_dot_greys_edges_off_the_embedding(self, tmp_path, capsys):
        # the gem plus a pendant edge: the pendant edge is drawn grey
        gem = [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]
        path = write(tmp_path, "gem.graph", emit_graphfile(mg(gem + [(3, 5)])))
        dot = tmp_path / "gem.dot"
        code, _, _ = run(capsys, "recognize", "--dot", str(dot), path)
        assert code == 1
        lines = dot.read_text().splitlines()
        assert '  "3" -- "5" [color="#bbbbbb"];' in lines
        assert sum("#bbbbbb" in line for line in lines) == 1
        assert sum("penwidth" in line for line in lines) == 7

    def test_dot_plain_when_mengerian(self, tmp_path, capsys):
        path = write(tmp_path, "p2.graph", "v a\nv b\ne a b\ne a b\n")
        dot = tmp_path / "p2.dot"
        code, _, _ = run(capsys, "recognize", "--dot", str(dot), path)
        assert code == 0
        text = dot.read_text()
        assert text.count(" -- ") == 2
        assert "penwidth" not in text


class TestMengerCommand:
    def test_vertex_values(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1, labeled=True)
        code, out, _ = run(capsys, "menger", path, "--source", "0", "--target", "5")
        assert code == 0
        assert "p = 1" in out
        assert "c = 2" in out

    def test_edge_values(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1, labeled=True)
        code, out, _ = run(capsys, "menger", path, "--source", "0",
                           "--target", "5", "--edge")
        assert code == 0
        assert "p' = 2" in out
        assert "c' = 2" in out

    def test_edge_values_along_a_long_doubled_corridor(self, tmp_path, capsys):
        # the time-expanded network is thousands of levels deep, far past
        # the interpreter's recursion limit
        hops = 1500
        lines = [f"v {i}" for i in range(hops + 1)]
        for i in range(hops):
            lines += [f"e {i} {i + 1} {i + 1}", f"e {i} {i + 1} {i + 2}"]
        path = write(tmp_path, "corridor.graph", "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "menger", path, "--source", "0",
                           "--target", str(hops), "--edge")
        assert code == 0
        assert "p' = 2" in out
        assert "c' = 2" in out

    def test_adjacent_pair_is_domain_error(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1, labeled=True)
        code, _, err = run(capsys, "menger", path, "--source", "0", "--target", "3")
        assert code == 2
        assert "adjacent" in err

    def test_unlabeled_file_rejected(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1)
        code, _, err = run(capsys, "menger", path, "--source", "0", "--target", "5")
        assert code == 2
        assert "no time labels" in err

    def test_unknown_vertex_rejected(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F1, labeled=True)
        code, _, err = run(capsys, "menger", path, "--source", "zz", "--target", "5")
        assert code == 2
        assert "unknown vertex" in err

    def test_size_guard(self, tmp_path, capsys):
        # no vertex-count guard: a cheap 17-vertex path is answered, and
        # the option that raised the guard is gone
        n = 17
        lines = [f"v {i}" for i in range(n)]
        lines += [f"e {i} {i + 1} {i + 1}" for i in range(n - 1)]
        path = write(tmp_path, "long.graph", "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "menger", path, "--source", "0",
                           "--target", str(n - 1))
        assert code == 0
        assert "p = 1" in out and "c = 1" in out
        for flag in (["--max-size", "20"], ["--vertex"]):
            with pytest.raises(SystemExit) as exc:
                main(["menger", path, "--source", "0", "--target", str(n - 1), *flag])
            assert exc.value.code == 2
        # witness verification lost its vertex-count option too
        with pytest.raises(SystemExit) as exc:
            main(["recognize", "--proof", path, "--max-size", "20"])
        assert exc.value.code == 2

    def test_dense_small_graph_refused_quickly(self, tmp_path, capsys):
        # K10 minus the edge ab: 109600 routes join a and b
        names = [chr(ord("a") + i) for i in range(10)]
        lines = [f"v {x}" for x in names]
        lines += [f"e {x} {y} 1" for i, x in enumerate(names) for y in names[i + 1:]
                  if (x, y) != ("a", "b")]
        path = write(tmp_path, "k10.graph", "\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "menger", path, "--source", "a", "--target", "b")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "more than 5000 simple routes between a and b" in err

    def test_adjacent_pair_refused_before_size_guard_and_search(
            self, tmp_path, capsys, monkeypatch):
        # a 20-cycle with a chord: the pair shares an edge, so it is refused
        # before any route is listed or the packing search runs
        n = 20
        lines = [f"v {i}" for i in range(n)]
        lines += [f"e {i} {(i + 1) % n} {i + 1}" for i in range(n)]
        lines.append("e 0 10 5")
        path = write(tmp_path, "chorded.graph", "\n".join(lines) + "\n")

        def no_packing(*args, **kwargs):
            raise AssertionError("packing searched for an adjacent pair")

        monkeypatch.setattr(cli, "max_disjoint_paths", no_packing)
        listed = count_listings(monkeypatch)
        code, out, err = run(capsys, "menger", path, "--source", "0", "--target", "1")
        assert code == 2 and out == ""
        assert "adjacent" in err and "--edge" in err
        assert listed == []

    def test_one_route_listing_per_query(self, tmp_path, capsys, monkeypatch):
        # the cut lists the pair's routes, and the packing reuses them
        path = pattern_file(tmp_path, F1, labeled=True)
        _, expected, _ = run(capsys, "menger", path, "--source", "0", "--target", "5")
        listed = count_listings(monkeypatch)
        for queries in (1, 2):
            assert run(capsys, "menger", path, "--source", "0", "--target", "5") == (0, expected, "")
            assert len(listed) == queries

    def test_env_var_sets_guard(self, tmp_path, capsys, monkeypatch):
        # the environment variable that set a vertex guard is gone
        path = pattern_file(tmp_path, F1, labeled=True)
        _, expected, _ = run(capsys, "menger", path, "--source", "0", "--target", "5")
        for value in ("2", "junk"):
            monkeypatch.setenv("MENGERIAN_MAX_SIZE", value)
            assert run(capsys, "menger", path, "--source", "0", "--target", "5") == (0, expected, "")


class TestFalsifyCommand:
    def test_f2_samples_finds_counterexample(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F2)
        code, out, _ = run(capsys, "falsify", "--samples", "20000",
                           "--seed", "3", path)
        assert code == 1
        # the fragment reparses as a labeled file and the oracles agree
        fragment = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        named = parse_graphfile(fragment)
        tg = named.temporal()
        header = next(l for l in out.splitlines() if l.startswith("# s ="))
        parts = dict(zip(("s", "t", "p", "c"),
                         [f.split("=")[1].strip() for f in header[1:].split("  ")]))
        s, t = named.id(parts["s"]), named.id(parts["t"])
        p = len(max_disjoint_paths(tg, s, t))
        c = len(min_vertex_cut(tg, s, t))
        assert (p, c) == (int(parts["p"]), int(parts["c"]))
        assert p < c

    def test_p3_exhaustive_finds_nothing(self, tmp_path, capsys):
        path = write(tmp_path, "p3.graph", "v a\nv b\nv c\ne a b\ne b c\n")
        code, out, _ = run(capsys, "falsify", "--exhaustive", path)
        assert code == 0
        assert "no counterexample" in out

    def test_exhaustive_guard(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F2)
        start = time.perf_counter()
        code, _, err = run(capsys, "falsify", "--exhaustive", path)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert "at least 7087261 labelings, past the work budget of 1048576" in err

    def test_doubled_path_exhaustive_finds_nothing(self, tmp_path, capsys):
        path = write(tmp_path, "dp.graph",
                     "v a\nv b\nv c\ne a b\ne a b\ne b c\ne b c\n")
        code, out, _ = run(capsys, "falsify", "--exhaustive", path)
        assert code == 0

    def test_same_seed_same_output(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F2)
        _, out1, _ = run(capsys, "falsify", "--samples", "20000", "--seed", "3", path)
        _, out2, _ = run(capsys, "falsify", "--samples", "20000", "--seed", "3", path)
        assert out1 == out2

    def test_too_many_routes_refused(self, tmp_path, capsys):
        # K9 minus the edge ab: 13699 simple routes join a and b
        names = [chr(ord("a") + i) for i in range(9)]
        lines = [f"v {x}" for x in names]
        lines += [f"e {x} {y}" for i, x in enumerate(names) for y in names[i + 1:]
                  if (x, y) != ("a", "b")]
        path = write(tmp_path, "k9.graph", "\n".join(lines) + "\n")
        code, out, err = run(capsys, "falsify", "--samples", "1", path)
        assert code == 2
        assert out == ""
        assert "more than 5000 simple routes between a and b" in err and "too dense" in err

    def test_route_walk_refusal_names_the_source(self, tmp_path, capsys, monkeypatch):
        # K5 minus the edge ab fits a budget of 20 by its weight, 18, but
        # the walk over the simple paths from a does not
        names = "abcde"
        lines = [f"v {x}" for x in names]
        lines += [f"e {x} {y}" for i, x in enumerate(names) for y in names[i + 1:]
                  if (x, y) != ("a", "b")]
        path = write(tmp_path, "k5.graph", "\n".join(lines) + "\n")
        monkeypatch.setattr(menger, "_WORK_BUDGET", 20)
        code, out, err = run(capsys, "falsify", "--samples", "1", path)
        assert (code, out) == (2, "")
        assert "the route search from a exceeds the work budget of 20 steps" in err

    def test_too_many_samples_refused(self, tmp_path, capsys):
        # the count is weighed before any labeling is drawn
        path = write(tmp_path, "c4.graph", "v a\nv b\nv c\nv d\n"
                     "e a b 1\ne b c 2\ne c d 3\ne d a 4\n")
        code, out, err = run(capsys, "falsify", "--samples", "100000000000000000000", path)
        assert code == 2
        assert out == ""
        assert "of 100000000000000000000 labelings is past the work budget of 1048576" in err
        code, out, _ = run(capsys, "falsify", "--samples", "1048576", path)
        assert (code, out) == (0, "no counterexample\n")

    def test_mode_is_required(self, tmp_path, capsys):
        path = pattern_file(tmp_path, F2)
        with pytest.raises(SystemExit) as exc:
            main(["falsify", path])
        assert exc.value.code == 2

    # counts are read like graph-file labels: ASCII digits, leading zeros
    # allowed; int() alone would take "1_0" as 10, "+4" as 4 and "\u0663" as 3
    @pytest.mark.parametrize("argv,expected", [
        (["falsify", "--samples", "1_0"], "expected a positive integer, got '1_0'"),
        (["falsify", "--samples", "+4"], "expected a positive integer, got '+4'"),
        (["falsify", "--samples", "\u0663"], "expected a positive integer"),
        (["falsify", "--samples", " 4"], "expected a positive integer, got ' 4'"),
        (["falsify", "--samples", "0"], "expected a positive integer, got '0'"),
        (["falsify", "--samples", "-1"], "expected a positive integer, got '-1'"),
        (["falsify", "--exhaustive", "--seed", "1_0"], "expected a non-negative integer"),
        (["falsify", "--exhaustive", "--seed", "+0"], "expected a non-negative integer"),
        (["gen", "--model", "multigraph", "--seed", "1_0"], "expected a non-negative integer"),
        (["gen", "--model", "multigraph", "--max-mult", "+2"], "expected a positive integer"),
        (["gen", "--model", "multigraph", "--n", "\u0663"], "expected a non-negative integer"),
        # past int()'s 4300-digit limit
        (["falsify", "--samples", "1" * 5000], "expected a positive integer"),
    ])
    def test_counts_are_ascii_digits(self, tmp_path, capsys, argv, expected):
        path = pattern_file(tmp_path, F2)
        with pytest.raises(SystemExit) as exc:
            main(argv + [path] if argv[0] == "falsify" else argv)
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err

    def test_counts_allow_leading_zeros(self, tmp_path, capsys):
        gem = pattern_file(tmp_path, F3)
        plain = run(capsys, "falsify", "--samples", "300", "--seed", "4", gem)
        assert run(capsys, "falsify", "--samples", "0300", "--seed", "004", gem) == plain
        gen = ["gen", "--model", "multigraph", "--n", "6", "--m", "9"]
        assert run(capsys, *gen, "--seed", "07") == run(capsys, *gen, "--seed", "7")


class TestRepeatedCalls:
    def test_parse_errors_and_defaults_do_not_leak(self, tmp_path, capsys):
        # main reuses one parser; every call must still start from the defaults
        path = pattern_file(tmp_path, F1, labeled=True)
        vertex = run(capsys, "menger", path, "--source", "0", "--target", "5")
        edge = run(capsys, "menger", path, "--source", "0", "--target", "5", "--edge")
        assert vertex[0] == edge[0] == 0 and "p = 1" in vertex[1] and "p' = 2" in edge[1]
        errors = []
        for argv in (["falsify", path], ["menger", path, "--source", "0"],
                     ["falsify", "--samples", "0", path], ["falsify", path]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[3] and "required" in errors[0]
        assert "--target" in errors[1] and "positive integer" in errors[2]
        assert run(capsys, "menger", path, "--source", "0", "--target", "5") == vertex
        gem = pattern_file(tmp_path, F3)
        seeded = run(capsys, "falsify", "--samples", "300", "--seed", "4", gem)
        default = run(capsys, "falsify", "--samples", "300", gem)
        assert seeded[0] == default[0] == 1 and seeded[1] != default[1]
        assert default == run(capsys, "falsify", "--samples", "300", "--seed", "0", gem)
        assert seeded == run(capsys, "falsify", "--samples", "300", "--seed", "4", gem)


class TestGenCommand:
    def test_fixed_seed_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "gen", "--model", "multigraph", "--n", "8",
                         "--m", "14", "--seed", "6")
        _, out2, _ = run(capsys, "gen", "--model", "multigraph", "--n", "8",
                         "--m", "14", "--seed", "6")
        assert out1 == out2
        named = parse_graphfile(out1)
        assert len(named.graph.vertices) == 8
        assert len(named.graph.edges) == 14

    def test_m_zero_is_edgeless(self, capsys):
        code, out, _ = run(capsys, "gen", "--model", "multigraph", "--n", "4",
                           "--m", "0")
        assert code == 0
        named = parse_graphfile(out)
        assert len(named.graph.vertices) == 4
        assert named.graph.edges == ()

    def test_max_mult_respected(self, capsys):
        _, out, _ = run(capsys, "gen", "--model", "multigraph", "--n", "3",
                        "--m", "6", "--max-mult", "2", "--seed", "1")
        g = parse_graphfile(out).graph
        assert max(mult_map(g).values()) <= 2

    def test_spanning_tree_keeps_it_connected(self):
        rng = random.Random(2)
        for seed in range(10):
            g = random_multigraph(7, 9, 3, random.Random(seed))
            assert is_connected(g)

    def test_subdivided_pattern_recognizes(self, tmp_path, capsys):
        _, out, _ = run(capsys, "gen", "--model", "m-subdivided-pattern",
                        "--pattern", "F1", "--ops", "3", "--seed", "11")
        path = write(tmp_path, "sub.graph", out)
        code, out, _ = run(capsys, "recognize", path)
        assert code == 1
        assert "NonMengerian (F1)" in out

    def test_subdivided_pattern_grows_by_ops(self):
        g = subdivided_pattern("F3", 4, random.Random(0))
        assert len(g.vertices) == F3.graph.vertices.__len__() + 4

    @pytest.mark.parametrize("name", ["F1", "F2", "F3"])
    def test_subdivided_pattern_matches_the_stepwise_reference(self, name):
        for seed in range(12):
            for ops in (0, 1, 2, 7, 40):
                g = subdivided_pattern(name, ops, random.Random(seed))
                assert g == oracles.subdivided_pattern(name, ops, random.Random(seed))

    def test_four_thousand_subdivisions_within_a_second(self, capsys):
        # the stepwise reference takes about a second at 1000 ops
        start = time.perf_counter()
        code, out, _ = run(capsys, "gen", "--model", "m-subdivided-pattern",
                           "--pattern", "F1", "--ops", "4000", "--seed", "3")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and len(parse_graphfile(out).graph.vertices) == 6 + 4000

    def test_inconsistent_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "--model", "multigraph", "--n", "4",
                           "--m", "2", "--pattern", "F1")
        assert code == 2
        code, _, err = run(capsys, "gen", "--model", "m-subdivided-pattern")
        assert code == 2
        assert "requires --pattern" in err
        code, _, err = run(capsys, "gen", "--model", "multigraph", "--n", "1",
                           "--m", "2")
        assert code == 2
        code, _, err = run(capsys, "gen", "--model", "multigraph", "--n", "3",
                           "--m", "10", "--max-mult", "1")
        assert code == 2


class TestReadme:
    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_quick_start_transcript(self, capsys, tmp_path, monkeypatch):
        # each `$ mengerian` line of the Quick start block prints the lines
        # after it, or writes them where it redirects; `echo $?` prints
        # the last exit code
        section = self.README.split("\n## Quick start\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines()
        monkeypatch.chdir(tmp_path)
        transcript, code = [], None
        for line in block:
            if not line.startswith("$ "):
                continue
            transcript.append(line)
            argv = shlex.split(line[2:])
            if argv == ["echo", "$?"]:
                transcript.append(str(code))
                continue
            assert argv[0] == "mengerian"
            if ">" in argv:
                code, out, _ = run(capsys, *argv[1:argv.index(">")])
                Path(argv[-1]).write_text(out)
            else:
                code, out, _ = run(capsys, *argv[1:])
                transcript += out.splitlines()
        assert transcript == block

    def test_python_examples_run(self):
        # the ```python blocks run one after another, as a reader would
        blocks = re.findall(r"```python\n(.*?)```", self.README, re.S)
        assert blocks
        namespace = {}
        for block in blocks:
            exec(block, namespace)

    def test_commands_section_names_the_parsers_flags(self):
        # each subcommand's paragraphs under "## Commands" name exactly
        # the --flags its parser takes, so no option goes undocumented
        # and no documented option is gone
        section = self.README.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
        documented: dict[str, set[str]] = {}
        for paragraph in section.strip().split("\n\n"):
            if paragraph.startswith("`mengerian "):
                flags = set(re.findall(r"--[a-z][a-z-]*", paragraph))
                documented.setdefault(paragraph.split()[1], set()).update(flags)
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert documented == parsed


class TestDotHelpers:
    def test_parallel_edges_drawn_separately(self):
        named = parse_graphfile("v a\nv b\ne a b\ne a b\ne a b\n")
        text = emit_dot(named)
        assert text.count('"a" -- "b"') == 3

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        # in a DOT string `\"` stands for a quote; a lone backslash before
        # the closing quote would escape it
        named = parse_graphfile('v a"b\\c\nv d\\\ne a"b\\c d\\\n')
        text = emit_dot(named)
        assert '  "a\\"b\\\\c" -- "d\\\\";' in text.splitlines()
        quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', text)
        names = [re.sub(r"\\(.)", r"\1", q) for q in quoted if not q.startswith("#")]
        assert names == ['a"b\\c', 'd\\', 'a"b\\c', 'd\\']


# CLI fuzzing: mutated graph files and random flag combinations.  Names
# with quotes, a backslash and a non-ASCII letter.  A file draws its
# labels from one pool, 4300 characters long or short; now and then a
# label is refused: ill-formed, or 4301 characters long
FUZZ_NAMES = ("a", "b", "007", '"a"', 'a"b', "a\\", "é")
FUZZ_LABELS = (("9" * 4300, "0" * 4299 + "1"), ("1", "2", "3", "007"))
BAD_LABELS = ("0", "+4", "1_0", "٣", "1" + "0" * 4300, "0" * 4300 + "7")
FUZZ_BYTES = (b"", b"\xff", b"\xc3", b"\x80", b"\x00", b" ", b"\n", b"\r", b"#", b"e", b"v",
              b"\xe2\x80\xa8", b"\xc2\x85", b"\x0c", b"\r\n")
BAD_COUNTS = ("-1", "+4", "1_0", "٣", "", "x", "9" * 5000)


def rarely(draw):
    """True about one time in eight."""
    return draw(st.integers(0, 7)) == 7


def fuzz_count(draw, top=12):
    return draw(st.sampled_from(BAD_COUNTS)) if rarely(draw) else str(draw(st.integers(0, top)))


@st.composite
def fuzzed_files(draw):
    """Graph-file bytes: now and then random bytes; otherwise one of
    three kinds of file, alike often: a well-formed labeled one (3 to 5
    names, at most 6 edges, none between its first two names), a
    pattern's file, or v and e lines (at most 6 edges, labels on all,
    none or some of them, now and then a duplicate vertex line).  The
    last two now and then get up to three byte edits.  With the bytes
    come the names the file may declare, a declared pair that is not
    adjacent, so `menger` can answer on it: the well-formed file's first
    two names, or the pattern's terminals; None for the other kinds,
    and whether the file is a pattern's."""
    names = draw(st.permutations(FUZZ_NAMES))
    if rarely(draw):
        return draw(st.binary(max_size=80)), names, None, False
    pool = draw(st.sampled_from(FUZZ_LABELS))
    kind = draw(st.sampled_from(["well-formed", "pattern", "lines"]))
    if kind == "well-formed":
        names = names[:draw(st.integers(3, 5))]
        pairs = list(combinations(names, 2))[1:]
        lines = [f"v {name}" for name in names]
        lines += [f"e {u} {v} {draw(st.sampled_from(pool))}"
                  for u, v in draw(st.lists(st.sampled_from(pairs), max_size=6))]
        return "\n".join(lines).encode(), names, names[:2], False
    bad = draw(st.integers(0, 15))  # the edge, if any, whose label is refused

    def label(k):
        return draw(st.sampled_from(BAD_LABELS if k == bad else pool))

    if kind == "pattern":
        pattern = draw(st.sampled_from(PATTERNS))
        times = None if rarely(draw) else {e.id: label(e.id) for e in pattern.graph.edges}
        text = emit_graphfile(pattern.graph, names[:len(pattern.graph.vertices)], times)
        pair = names[pattern.source], names[pattern.target]
    else:
        pair = None
        names = names[:draw(st.integers(2, 5))]
        lines = [f"v {name}" for name in names]
        if rarely(draw):
            lines.insert(draw(st.integers(0, len(lines))), f"v {draw(st.sampled_from(names))}")
        labeled = draw(st.sampled_from([True, False, None]))  # None: on some edges
        for k in range(draw(st.integers(0, 6))):
            if rarely(draw):  # a self-loop or an undeclared end
                u, v = draw(st.sampled_from([(names[0], names[0]), (names[0], "zz")]))
            else:
                u, v = draw(st.permutations(names))[:2]
            if labeled or (labeled is None and draw(st.booleans())):
                lines.append(f"e {u} {v} {label(k)}")
            else:
                lines.append(f"e {u} {v}")
        text = "\n".join(lines)
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 3)) if rarely(draw) else 0):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 2))] = draw(st.sampled_from(FUZZ_BYTES))
    return bytes(data), names, pair, kind == "pattern"


@st.composite
def fuzzed_argvs(draw, path, dot, names, pair, pattern):
    """A command line: a command's required options (now and then one left
    out) and any of its others, in any order, counts now and then
    ill-formed, and now and then a stray token.  Given a non-adjacent
    pair, the command is `menger` half the time, and `menger` asks for
    that pair; on a pattern's file it is `falsify` as often as `menger`,
    so that a counterexample gets printed now and then."""
    cmds = (["recognize", "menger", "falsify", "gen"] + ["menger"] * 2 * (pair is not None)
            + ["falsify"] * 2 * pattern)
    cmd = draw(st.sampled_from(cmds))
    if cmd == "recognize":
        required, optional = [[path]], [["--proof"], ["--json"], ["--dot", dot]]
    elif cmd == "menger":
        source, target = draw(st.permutations(pair or names + ["zz"]))[:2]
        required, optional = [[path], ["--source", source], ["--target", target]], [["--edge"]]
    elif cmd == "falsify":
        # one mode, now and then both, which argparse refuses; on a
        # pattern's file mostly --exhaustive, which finds F3's gap at once,
        # else up to 400 samples, which find a gap now and then
        modes = [["--exhaustive"], ["--samples", fuzz_count(draw, 400 if pattern else 12)]]
        if not pattern or rarely(draw):
            modes = draw(st.permutations(modes))
        required = [[path], modes[0]]
        optional = [["--seed", fuzz_count(draw)]] + [modes[1]] * rarely(draw)
    elif draw(st.booleans()):
        required = [["--model", "multigraph"]]
        optional = [["--n", fuzz_count(draw)], ["--m", fuzz_count(draw)],
                    ["--max-mult", fuzz_count(draw)], ["--seed", fuzz_count(draw)]]
    else:
        required = [["--model", "m-subdivided-pattern"],
                    ["--pattern", draw(st.sampled_from(["F1", "F2", "F3"]))]]
        optional = [["--ops", fuzz_count(draw)], ["--seed", fuzz_count(draw)]]
    chosen = required + [opt for opt in optional if draw(st.booleans())]
    if rarely(draw):
        del chosen[draw(st.integers(0, len(required) - 1))]
    argv = [cmd] + [token for opt in draw(st.permutations(chosen)) for token in opt]
    if rarely(draw):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--nope", "--json", "--seed", "-x", "extra", "F4"])))
    return argv


def outcome(argv, dot):
    """Exit code (argparse's SystemExit included), stdout without its
    `elapsed_ms` values, stderr, and the text of the DOT file at `dot`
    (None if none was written) of one in-process run."""
    dot.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    drawn = dot.read_text(encoding="utf-8") if dot.exists() else None
    return code, re.sub(r'"elapsed_ms": [^,}]*', "", out.getvalue()), err.getvalue(), drawn


class TestFuzz:
    @settings(max_examples=300, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_no_input_ends_in_internal_error(self, tmp_path, data):
        path = tmp_path / "g.graph"
        text, names, pair, pattern = data.draw(fuzzed_files())
        path.write_bytes(text)
        target = str(path)
        if rarely(data.draw):
            target = data.draw(st.sampled_from([str(tmp_path), str(tmp_path / "missing.graph")]))
        dot = tmp_path / "out.dot"
        argv = data.draw(fuzzed_argvs(target, str(dot), names, pair, pattern))
        first = outcome(argv, dot)
        code, _, err, _ = first
        assert code in (0, 1, 2), argv
        assert not err.startswith("error: internal error"), (argv, err)
        assert outcome(argv, dot) == first, argv
