import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# A stand-in for dwbench/run.py: one digest line, the wall medians, then the
# result line.
STUB = """import json, sys
print("digest stub: sha256=0")
print("wall medians: run {wall} s, setup 0.5 s")
metrics = {{m: {{"value": 1.0}} for m in ("run_s", "setup_s", "peak_rss_mb")}}
print(json.dumps({{"correct": 1, "attempted": 1, "failed": {failed}, "metrics": metrics}}))
sys.exit({code})
"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name, failed=0, code=0, wall=2.0):
    (root / name / "dwbench").mkdir(parents=True)
    (root / name / "dwbench" / "run.py").write_text(STUB.format(failed=failed, code=code, wall=wall))
    return root / name


def _argv(tmp_path, parent, change):
    return [
        "--parent", str(parent), "--change", str(change), "--workload", "class-scan",
        "--pairs", "2", "--seconds", "1", "--seed", "5", "--out", str(tmp_path / "pairs.json"),
    ]


@pytest.mark.parametrize("failed, code", [(1, 1), (0, 1), (2, 0)])
def test_bench_pairs_exits_1_and_names_a_bad_run(tmp_path, capsys, failed, code):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", failed, code)
    assert _tool().main(_argv(tmp_path, parent, change)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"bad run: class-scan pair seed {seed} change: exit code {code}, {failed} failed"
        for seed in (5, 6)
    ]
    # Every pair still ran and was written out.
    assert len(json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]["pairs"]) == 2


def test_bench_pairs_exits_0_when_every_run_passes(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    assert capsys.readouterr().err == ""


# Stand-ins for a run.py that gives no result line.
SILENT = """import sys
sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
sys.exit(3)
"""
NOT_JSON = """print("digest stub: sha256=0")
print("pass 1 of 40")
"""
NO_WALL = """import json
metrics = {m: {"value": 1.0} for m in ("run_s", "setup_s", "peak_rss_mb")}
print(json.dumps({"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


@pytest.mark.parametrize(
    "script, code, problem",
    [
        (SILENT, 3, "exit code 3, no output; stderr: RuntimeError: boom"),
        (NOT_JSON, 0, "exit code 0, last line is not a JSON result"),
        (NO_WALL, 0, "exit code 0, no wall medians line"),
    ],
)
def test_bench_pairs_keeps_pairs_past_a_run_without_result(tmp_path, capsys, script, code, problem):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    (change / "dwbench" / "run.py").write_text(script)
    argv = _argv(tmp_path, parent, change)
    argv[argv.index("--pairs") + 1] = "3"
    assert _tool().main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"bad run: class-scan pair seed {seed} change: {problem}" for seed in (5, 6, 7)
    ]
    assert "change bad run" in captured.out
    assert "class-scan run_s: no pair in which both runs gave a result" in captured.out
    # Every pair ran and was written out, the bad runs with their exit code
    # and the tail of their standard error.
    written = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]
    assert [p["seed"] for p in written["pairs"]] == [5, 6, 7]
    for pair in written["pairs"]:
        assert pair["parent"]["run_s"] == 1.0
        assert pair["change"]["exit_code"] == code and "run_s" not in pair["change"]
        tail = "" if code == 0 else "Traceback (most recent call last):\nRuntimeError: boom"
        assert pair["change"]["stderr_tail"] == tail
    assert written["summary"]["run_s"]["pairs"] == 0
    assert written["summary"]["failed"] == {"parent": 0, "change": 0}


def test_bench_pairs_summarizes_the_whole_pairs():
    bench = _tool()
    good = {
        "exit_code": 0, "failed": 0, "digests": [], "run_s": 2.0, "setup_s": 1.0,
        "peak_rss_mb": 3.0, "wall_run_s": 4.0, "wall_setup_s": 5.0,
    }
    bad = {"exit_code": 1, "error": "no output", "stderr_tail": ""}
    faster = dict(good, run_s=1.0)
    summary = bench.summarize([
        {"seed": 1, "parent": good, "change": faster},
        {"seed": 2, "parent": bad, "change": faster},
        {"seed": 3, "parent": good, "change": bad},
    ])
    assert summary["run_s"]["pairs"] == 1 and summary["run_s"]["change_wins"] == 1
    assert summary["run_s"]["parent"]["median"] == 2.0 and summary["run_s"]["change"]["median"] == 1.0
    assert summary["digests_equal"] == 1 and summary["digests_differ"] == []


def test_bench_pairs_keeps_the_pairs_of_an_interrupted_session(tmp_path, monkeypatch):
    # A session stopped during its second pair still leaves the first pair,
    # both sides, in the --out JSON.
    bench = _tool()
    real, calls = bench.run_once, []

    def run_once(checkout, workload, seed, seconds):
        calls.append(seed)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(checkout, workload, seed, seconds)

    monkeypatch.setattr(bench, "run_once", run_once)
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    with pytest.raises(KeyboardInterrupt):
        bench.main(_argv(tmp_path, parent, change))
    written = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]
    assert [p["seed"] for p in written["pairs"]] == [5]
    assert written["pairs"][0]["parent"]["run_s"] == written["pairs"][0]["change"]["run_s"] == 1.0
    assert "summary" not in written


# A stand-in whose two reports digest alike on both sides but for ``tb``.
TWO_REPORTS = """import json
print("digest tb-run n=1 N=2 L=9: sha256={tb} carleson_norm=1")
print("digest check-weight n=2 N=2 L=5: sha256=0 a2=2")
print("wall medians: run 2 s, setup 0.5 s")
metrics = {{m: {{"value": 1.0}} for m in ("run_s", "setup_s", "peak_rss_mb")}}
print(json.dumps({{"correct": 2, "attempted": 2, "failed": 0, "metrics": metrics}}))
"""


def test_bench_pairs_names_the_reports_whose_digests_differ(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    (parent / "dwbench" / "run.py").write_text(TWO_REPORTS.format(tb="0"))
    (change / "dwbench" / "run.py").write_text(TWO_REPORTS.format(tb="1"))
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    assert "class-scan: digests differ for tb-run n=1 N=2 L=9" in capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]["summary"]
    assert summary["digests_equal"] == 0 and summary["digests_differ"] == ["tb-run n=1 N=2 L=9"]


def test_bench_pairs_keeps_the_raw_wall_medians(tmp_path, capsys):
    # Each run's wall medians are kept beside its reference-speed metrics,
    # summarized like them and printed beside run_s.
    parent = _checkout(tmp_path, "parent", wall=2.0)
    change = _checkout(tmp_path, "change", wall=1.5)
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    out = capsys.readouterr().out.splitlines()
    for seed in (5, 6):
        pair = f"class-scan pair {seed - 4}/2 seed {seed}:"
        assert f"{pair} run_s parent 1.0000 change 1.0000; wall_run_s parent 2.0000 change 1.5000" in out
    assert (
        "class-scan wall_run_s: parent 2.0000 (2.0000-2.0000),"
        " change 1.5000 (1.5000-1.5000), change lower in 2 of 2"
    ) in out
    assert (
        "class-scan wall_setup_s: parent 0.5000 (0.5000-0.5000),"
        " change 0.5000 (0.5000-0.5000), change lower in 0 of 2"
    ) in out
    written = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]
    for pair in written["pairs"]:
        assert (pair["parent"]["wall_run_s"], pair["change"]["wall_run_s"]) == (2.0, 1.5)
        assert pair["parent"]["wall_setup_s"] == pair["change"]["wall_setup_s"] == 0.5
    summary = written["summary"]
    assert summary["wall_run_s"]["change"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert summary["wall_run_s"]["change_wins"] == 2 and summary["wall_setup_s"]["change_wins"] == 0


# A stand-in that prints run.py's summary line with its pass count.
COUNTED = """import json
print("digest stub: sha256=0")
print("wall medians: run 2 s, setup 0.5 s")
print("class-scan seed=5 passes={passes} traced=0 setups=5 failed_frac=0 (0/1 invocations)")
metrics = {{m: {{"value": 1.0}} for m in ("run_s", "setup_s", "peak_rss_mb")}}
print(json.dumps({{"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}}))
"""


def test_bench_pairs_records_the_pass_counts(tmp_path, capsys):
    # Each run keeps the passes= count of its summary line, and the counts
    # are summarized per side like the metrics.
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    (parent / "dwbench" / "run.py").write_text(COUNTED.format(passes=200))
    (change / "dwbench" / "run.py").write_text(COUNTED.format(passes=240))
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    assert (
        "class-scan passes: parent 200.0000 (200.0000-200.0000),"
        " change 240.0000 (240.0000-240.0000), change lower in 0 of 2"
    ) in capsys.readouterr().out.splitlines()
    written = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]
    for pair in written["pairs"]:
        assert (pair["parent"]["passes"], pair["change"]["passes"]) == (200, 240)
    assert written["summary"]["passes"]["change"] == {"median": 240, "q1": 240, "q3": 240}
    assert written["summary"]["passes"]["pairs"] == 2


def test_bench_pairs_reads_a_run_without_a_pass_count(tmp_path, capsys):
    # A run.py that prints no summary line still gives every metric; only the
    # pass counts are missing, from the run and from the summary.
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    (change / "dwbench" / "run.py").write_text(COUNTED.format(passes=240))
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "class-scan passes: no pair in which both runs gave a result" in out
    written = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["class-scan"]
    for pair in written["pairs"]:
        assert "passes" not in pair["parent"] and pair["change"]["passes"] == 240
        assert pair["parent"]["run_s"] == pair["change"]["run_s"] == 1.0
    summary = written["summary"]
    assert summary["run_s"]["pairs"] == 2 and summary["passes"]["pairs"] == 0
