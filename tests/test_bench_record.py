"""The schema of BENCH_e2e.json and the recorder that writes it; not the values."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}

spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def records():
    return json.loads((ROOT / "BENCH_e2e.json").read_text())


def test_records_follow_the_schema():
    recs = records()
    assert recs
    workloads = {w["name"] for w in BENCH["workloads"]}
    for rec in recs:
        assert set(rec) == {"commit", "workload", "seed", "seconds", "gauge", "metrics"}
        assert re.fullmatch(r"[0-9a-f]{40}", rec["commit"])
        assert rec["workload"] in workloads
        assert isinstance(rec["seed"], int) and rec["seconds"] > 0
        gauge = rec["gauge"]
        assert set(gauge) == {"readings", "min_ms", "p2_ms", "median_ms"}
        assert gauge["readings"] > 0 and 0 < gauge["min_ms"] <= gauge["p2_ms"] <= gauge["median_ms"]
        # an untraced run reports every end-to-end metric, in the declared unit
        assert set(rec["metrics"]) == set(UNITS)
        for name, metric in rec["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == UNITS[name]
            assert isinstance(metric["value"], (int, float))


RUN_OUTPUT = """# falsify: 4 commands, 90 runs, 0 commands beyond p90
# failures by type: {}
# speed gauge: 812 readings, min 0.850 ms, 2nd percentile 0.901 ms, median 1.020 ms
# ok_ratio = 1 ratio
{"correct": %s, "attempted": 90, "failed": 0, "metrics": {"ok_ratio": {"value": 1.0, "unit": "ratio"}}}
"""


def test_parse_run_reads_the_gauge_and_metrics():
    gauge, metrics = bench_record.parse_run(RUN_OUTPUT % "true")
    assert gauge == {"readings": 812, "min_ms": 0.85, "p2_ms": 0.901, "median_ms": 1.02}
    assert metrics == {"ok_ratio": {"value": 1.0, "unit": "ratio"}}


@pytest.mark.parametrize("out", [
    RUN_OUTPUT % "false",
    "\n".join(line for line in (RUN_OUTPUT % "true").splitlines() if "gauge" not in line),
    "",
])
def test_parse_run_refuses_a_run_without_a_correct_result(out):
    with pytest.raises(bench_record.RunFailed):
        bench_record.parse_run(out)


def test_append_keeps_one_record_per_line(tmp_path):
    path = tmp_path / "bench.json"
    for seed in (1, 2):
        bench_record.append(str(path), {"seed": seed})
    assert json.loads(path.read_text()) == [{"seed": 1}, {"seed": 2}]
    assert path.read_text().splitlines() == ["[", '{"seed": 1},', '{"seed": 2}', "]"]


def test_pairs_alternate_which_commit_runs_first(tmp_path, monkeypatch):
    runs = []

    def record(commit, workload, seed, seconds):
        runs.append((workload, seed, commit))
        return {"commit": commit}

    monkeypatch.setattr(bench_record, "record", record)
    monkeypatch.setattr(bench_record, "resolve", lambda rev: rev * 40)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--commit", "a", "--commit", "b", "--pairs", "3",
                              "--workload", "w", "--workload", "v", "--seed", "4",
                              "--out", str(out)]) == 0
    order = ["a", "b", "b", "a", "a", "b"]
    assert runs == [(w, 4, c * 40) for w in ("w", "v") for c in order]
    assert [rec["commit"] for rec in json.loads(out.read_text())] == [c for _, _, c in runs]


def test_one_commit_runs_once_per_pair():
    assert bench_record.run_order(["a"], 3) == ["a", "a", "a"]
    assert bench_record.run_order(["a", "b"], 1) == ["a", "b"]


@pytest.mark.parametrize("argv", [
    ["--commit", "a", "--commit", "b", "--pairs", "0"],
    ["--commit", "a", "--commit", "b", "--commit", "c"],
])
def test_refuses_three_commits_or_no_pairs(argv, monkeypatch):
    monkeypatch.setattr(bench_record, "record", None)
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2
