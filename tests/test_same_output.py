"""The output comparison of tools/same_output.py: its normaliser, its diff
and the commands it builds for graph files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_output)


def report(elapsed, verdict="mengerian"):
    return json.dumps({"verdict": verdict, "diagnostics": {
        "chains_examined": 3, "elapsed_ms": elapsed, "crossed_structures": [{"kind": 1}]}})


def test_normalise_drops_elapsed_ms_at_any_depth():
    out = same_output.normalise(report(1.25) + "\n")
    assert json.loads(out) == {"verdict": "mengerian", "diagnostics": {
        "chains_examined": 3, "crossed_structures": [{"kind": 1}]}}
    assert same_output.normalise(report(1.25)) == same_output.normalise(report(97.5))


def test_normalise_keeps_text_lines():
    text = "NonMengerian (F3)\n  apex -> v4\n"
    assert same_output.normalise(text) == text.rstrip("\n")


def test_differences_names_exit_codes_and_stdout_but_not_timings():
    argvs = [["recognize", "a.g", "--json"], ["recognize", "b.g", "--json"],
             ["menger", "c.g"], ["falsify", "d.g"]]
    old = [{"code": 0, "out": report(1.0), "err": ""}, {"code": 0, "out": report(1.0), "err": ""},
           {"code": 0, "out": "paths 2\ncut 2\n", "err": ""}, {"code": 0, "out": "none\n", "err": ""}]
    new = [{"code": 0, "out": report(5.0), "err": ""}, {"code": 1, "out": report(1.0), "err": ""},
           {"code": 0, "out": "paths 2\ncut 3\n", "err": ""}, {"code": 0, "out": "none\n", "err": ""}]
    assert same_output.differences(argvs, old, new) == [
        "recognize b.g --json: exit code 0 != 1",
        "menger c.g: stdout differs from line 2",
    ]


def test_differences_counts_a_missing_line():
    old = [{"code": 0, "out": "Mengerian\n  crossed structures: 1\n", "err": ""}]
    new = [{"code": 0, "out": "Mengerian\n", "err": ""}]
    assert same_output.differences([["recognize", "x.g"]], old, new) == [
        "recognize x.g: stdout differs from line 2"]


def test_differences_names_a_changed_error_message():
    # the same exit code with another message is a change too
    argvs = [["recognize", "x.g"], ["recognize", "y.g"]]
    old = [{"code": 2, "out": "", "err": "error: line 3: self-loop at 'a'\n"},
           {"code": 2, "out": "", "err": "error: line 1: unknown directive 'w'\n"}]
    new = [{"code": 2, "out": "", "err": "error: line 3: self-loop at 'a'\n"},
           {"code": 2, "out": "", "err": "error: line 2: unknown directive 'w'\n"}]
    assert same_output.differences(argvs, old, new) == ["recognize y.g: stderr differs from line 1"]


def test_a_file_that_is_not_utf8_gets_its_commands(tmp_path):
    # the byte 0xff is not UTF-8; the pair reader takes it for U+FFFD, so
    # the file is still queried, and each command reports the byte
    path = tmp_path / "bad.g"
    path.write_bytes(b"v a\nv \xff\nv c\ne a c 1\n")
    assert same_output.menger_pair(str(path)) == ("a", "\ufffd")
    argvs = same_output.graph_commands(str(tmp_path), str(tmp_path))
    assert [argv[0] for argv in argvs] == ["recognize"] * 2 + ["falsify"] * 2 + ["menger"] * 2
    ran = same_output.run_all(str(ROOT), argvs)
    assert {(r["code"], r["out"], r["err"]) for r in ran} == {
        (2, "", f"error: {path}: not valid UTF-8 at byte 6\n")}


def test_graph_commands_recognize_and_falsify_each_file(tmp_path):
    # a 4-cycle has no gap; the gem (a path a-b-c-d and an apex e joined to
    # all four) has one that both falsify modes find; neither file carries
    # labels, so each is queried on its labeled copy, at its pair (a, c)
    (tmp_path / "c4.g").write_text("v a\nv b\nv c\nv d\ne a b\ne b c\ne c d\ne d a\n")
    (tmp_path / "gem.g").write_text("v a\nv b\nv c\nv d\nv e\ne a b\ne b c\ne c d\n"
                                    "e e a\ne e b\ne e c\ne e d\n")
    (tmp_path / "notes.txt").write_text("not a graph\n")
    work = tmp_path / "work"
    argvs = same_output.graph_commands(str(tmp_path), str(work))
    dot = str(work / "out.dot")
    query = ["--source", "a", "--target", "c"]
    assert argvs == [argv for name in ("c4.g", "gem.g") for argv in (
        ["recognize", str(tmp_path / name), "--json", "--proof"],
        ["recognize", str(tmp_path / name), "--dot", dot],
        ["falsify", "--samples", "300", "--seed", "0", str(tmp_path / name)],
        ["falsify", "--exhaustive", str(tmp_path / name)],
        ["menger", str(work / "labeled" / name)] + query,
        ["menger", str(work / "labeled" / name)] + query + ["--edge"],
    )]
    ran = same_output.run_all(str(ROOT), argvs)
    assert [r["code"] for r in ran] == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0]
    assert ran[2]["out"] == ran[3]["out"] == "no counterexample\n"
    assert all(r["out"].startswith("# counterexample: p < c") for r in ran[8:10])
    # the gem's copy labels its edges 1 2 3 1 2 3 1 in file order
    assert ran[11]["out"] == ("p' = 2\n  path 1: a -1- b -2- c\n"
                              "  path 2: a -1- e -1- d -3- c\nc' = 2\n  cut edges: 0 3\n")
    assert same_output.differences(argvs, ran, ran) == []


def test_labeled_copy_labels_each_bare_edge_line_by_its_place(tmp_path):
    # the k-th edge line gets k % 3 + 1 whatever else the file holds;
    # comments, blank lines and bytes that are not UTF-8 are kept
    bare = tmp_path / "bare.g"
    bare.write_bytes(b"# four edges\nv a\nv \xff\r\nv c\n\ne a c # first\r\n"
                     b"e c \xff\n  e  a \xff  \ne a c\n")
    copy = same_output.labeled_copy(str(bare), str(tmp_path / "work"))
    assert copy == str(tmp_path / "work" / "labeled" / "bare.g")
    assert open(copy, "rb").read() == (b"# four edges\nv a\nv \xff\nv c\n\ne a c 1 # first\n"
                                       b"e c \xff 2\ne a \xff 3\ne a c 1\n")
    # a file whose edges all carry labels, or that has none, is read as it is
    for name, text in (("labeled.g", "v a\nv b\ne a b 4\n"), ("empty.g", "v a\nv b\n")):
        (tmp_path / name).write_text(text)
        assert same_output.labeled_copy(str(tmp_path / name), str(tmp_path)) == str(tmp_path / name)


def test_graph_commands_query_the_first_non_adjacent_pair_of_labeled_files(tmp_path):
    # a labeled 4-cycle a-b-d-c declared a, b, d, c: a-b is an edge, so the
    # first non-adjacent pair is (a, d), joined by two routes; a labeled
    # triangle has no such pair
    (tmp_path / "c4.g").write_text("v a\nv b\nv d\nv c\n"
                                   "e a b 1\ne b d 2 # b-d\ne d c 3\ne c a 1\n")
    (tmp_path / "k3.g").write_text("v a\nv b\nv c\ne a b 1\ne b c 2\ne c a 3\n")
    path = str(tmp_path / "c4.g")
    argvs = same_output.graph_commands(str(tmp_path), str(tmp_path))
    assert len(argvs) == 10
    assert argvs[4:6] == [["menger", path, "--source", "a", "--target", "d"],
                          ["menger", path, "--source", "a", "--target", "d", "--edge"]]
    assert not any(argv[0] == "menger" for argv in argvs[6:])
    ran = same_output.run_all(str(ROOT), argvs[4:6])
    assert [r["code"] for r in ran] == [0, 0]
    assert ran[0]["out"].startswith("p = 2\n") and "c = 2\n  cut: b c\n" in ran[0]["out"]
    assert ran[1]["out"].startswith("p' = 2\n")


def test_gen_files_mix_random_multigraphs_and_subdivided_patterns(tmp_path):
    # five in six files are random multigraphs, the rest subdivided
    # patterns taking F1, F2 and F3 in turn; each file is queried as a
    # --graphs file is
    argvs = same_output.gen_argvs(360)
    models = [argv[argv.index("--model") + 1] for argv in argvs]
    assert models.count("multigraph") == 300
    assert [argv[argv.index("--seed") + 1] for argv in argvs] == [str(i) for i in range(360)]
    patterns = [argv[4] for argv in argvs if argv[2] == "m-subdivided-pattern"]
    assert patterns[:3] == ["F1", "F2", "F3"] and {patterns.count(p) for p in set(patterns)} == {20}
    for argv in argvs:
        opt = dict(zip(argv[1::2], argv[2::2]))
        if opt["--model"] == "multigraph":
            n = int(opt["--n"])
            assert 4 <= n <= 9 and n <= int(opt["--m"]) <= 3 * n and opt["--max-mult"] == "3"
        else:
            assert 0 <= int(opt["--ops"]) <= 5
    gen = tmp_path / "gen"
    same_output.write_gen_files(str(ROOT), 12, str(gen))
    files = sorted(p.name for p in gen.iterdir())
    assert files == [f"gen{i:04d}.g" for i in range(12)]
    assert (gen / "gen0005.g").read_text().startswith("v ")
    argvs = same_output.graph_commands(str(gen), str(gen))
    assert sum(argv[:2] == ["recognize", str(gen / name)] for argv in argvs for name in files) == 24
