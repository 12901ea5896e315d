import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "deep_ladder.py"
STAGES = ("build_s", "doubling_s", "thewest_s", "scan_s", "tb_run_s", "class_s")

# A stand-in checkout: the field generator and the library names a
# child reads, with ``tb_run``'s body given per checkout.
STUB = {
    "dwbench/inputs.py": """
def field_rng(seed, index):
    return seed

def make_field(rng, n, N, L):
    return None, None
""",
    "src/dwlab/__init__.py": "",
    "src/dwlab/grid.py": """
class Grid:
    def __init__(self, n, L, mu=None):
        pass

class WeightField:
    def __init__(self, grid, values):
        pass
""",
    "src/dwlab/weights.py": """
from types import SimpleNamespace

CLASS_KEYS = ("b2_i", "doubling")

def family_scan(field, keys, shifts=None):
    return SimpleNamespace(sups={k: 1.0 for k in keys})
""",
    "src/dwlab/tb.py": """
from types import SimpleNamespace

def make_gamma(kind, field):
    return None

def tb_run(field, gamma, eps2, shifts=None):
    {body}
    return SimpleNamespace(as_dict=lambda: {{"carleson_norm": 1.0}})
""",
}
PASSES = "pass"
FAILS = "raise RuntimeError('boom')"
# 16 GiB, far above the children's 5 GB address-space cap: the allocation is
# refused, never made.
OUT_OF_MEMORY = "bytearray(2**34)"
# 3 MiB that outlive the stage.
KEEPS = "tb_run.kept = bytearray(3 * 2**20)"


def _tool():
    spec = importlib.util.spec_from_file_location("deep_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name, body=PASSES):
    for rel, text in STUB.items():
        path = root / name / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text.format(body=body) if rel.endswith("tb.py") else text)
    return root / name


def _argv(tmp_path, parent, change, *extra):
    return [
        "--parent", str(parent), "--change", str(change), "--rung", "2,2,9,2",
        "--pairs", "2", "--out", str(tmp_path / "ladder.json"), *extra,
    ]


def _written(tmp_path):
    return json.loads((tmp_path / "ladder.json").read_text())["workloads"]


def test_ladder_runs_every_rung_and_summarizes_like_bench_pairs(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    argv = _argv(tmp_path, parent, change, "--rung", "1,2,14,-,7")
    assert _tool().main(argv) == 0
    assert capsys.readouterr().err == ""
    written = _written(tmp_path)
    assert list(written) == ["n=2 N=2 L=9 shifts=2 seed=5", "n=1 N=2 L=14 shifts=default seed=7"]
    for label, runs in written.items():
        assert [p["first"] for p in runs["pairs"]] == ["parent", "change"]
        for pair in runs["pairs"]:
            for side in ("parent", "change"):
                run = pair[side]
                assert run["exit_code"] == 0 and run["tb_run_s"] >= 0.0 and run["peak_rss_mb"] > 0
                assert run["class_s"] >= 0.0
                rss = [run[f"{stage[:-2]}_rss_mb"] for stage in STAGES] + [run["peak_rss_mb"]]
                assert rss[0] > 0 and rss == sorted(rss)
                assert run["digests"][0].startswith(f"{label}: sha256=")
                assert run["digests"][1].startswith(f"{label} class scan: sha256=")
        summary = runs["summary"]
        assert summary["tb_run_s"]["pairs"] == 2 and summary["digests_differ"] == []
        assert set(summary) >= {"build_s", "doubling_s", "thewest_s", "scan_s", "class_s", "peak_rss_mb"}
        assert set(summary) >= {"build_rss_mb", "scan_rss_mb", "tb_run_rss_mb", "class_rss_mb"}


def test_ladder_records_a_failing_rung_and_exits_1(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change", FAILS)
    assert _tool().main(_argv(tmp_path, parent, change)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"bad run: n=2 N=2 L=9 shifts=2 seed=5 pair {i} change:"
        " exit code 1, no output; stderr: RuntimeError: boom"
        for i in (1, 2)
    ]
    runs = _written(tmp_path)["n=2 N=2 L=9 shifts=2 seed=5"]
    assert len(runs["pairs"]) == 2
    for pair in runs["pairs"]:
        assert "tb_run_s" in pair["parent"] and pair["change"]["error"] == "no output"
        assert pair["change"]["stderr_tail"].endswith("RuntimeError: boom")
    assert runs["summary"]["tb_run_s"]["pairs"] == 0


def test_ladder_records_a_capped_memory_error_as_a_result(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", OUT_OF_MEMORY)
    change = _checkout(tmp_path, "change")
    assert _tool().main(_argv(tmp_path, parent, change)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    runs = _written(tmp_path)["n=2 N=2 L=9 shifts=2 seed=5"]
    for pair in runs["pairs"]:
        assert pair["parent"]["exit_code"] == 0 and "tb_run_s" not in pair["parent"]
        assert pair["parent"]["scan_s"] >= 0.0 and "class_s" not in pair["parent"]
        assert "scan_rss_mb" in pair["parent"] and "tb_run_rss_mb" not in pair["parent"]
        assert pair["parent"]["memory_error"] == {
            "stage": "tb_run_s",
            "at": "tb.py:8 in tb_run: bytearray(2**34)",
        }
        assert "tb_run_s" in pair["change"]
    assert (
        "n=2 N=2 L=9 shifts=2 seed=5 pair 1 parent: MemoryError in tb_run_s"
        " at tb.py:8 in tb_run: bytearray(2**34) (cap 5 GB)"
    ) in captured.out.splitlines()
    assert runs["summary"]["tb_run_s"]["pairs"] == 0


def test_ladder_held_traces_each_stage_and_writes_no_times(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change", KEEPS)
    assert _tool().main(_argv(tmp_path, parent, change, "--held", "--pairs", "1")) == 0
    assert capsys.readouterr().err == ""
    runs = _written(tmp_path)["n=2 N=2 L=9 shifts=2 seed=5"]
    names = [stage[:-2] for stage in STAGES]
    held = {f"{name}_{kind}_mb" for name in names for kind in ("held", "kept", "rss")} | {"peak_rss_mb"}
    for pair in runs["pairs"]:
        for side in ("parent", "change"):
            run = pair[side]
            assert run["exit_code"] == 0 and len(run["digests"]) == 2
            assert set(run) >= held and not [key for key in run if key.endswith("_s")]
            assert all(run[f"{name}_held_mb"] >= run[f"{name}_kept_mb"] > 0 for name in names)
        parent, change = pair["parent"], pair["change"]
        # The bytes tb_run keeps are traced during it and after it, and the
        # class scan's peak counts them too.
        assert change["scan_held_mb"] < 3 <= change["tb_run_held_mb"] <= change["class_held_mb"]
        assert 3 <= change["tb_run_kept_mb"] - change["scan_kept_mb"] < 3.1
        assert parent["tb_run_kept_mb"] - parent["scan_kept_mb"] < 0.1
    assert set(runs["summary"]) >= held and not [key for key in runs["summary"] if key.endswith("_s")]


@pytest.mark.parametrize("rung", ["2,2", "2,2,x", "1,2,3,4,5,6"])
def test_ladder_refuses_a_malformed_rung(tmp_path, rung):
    argv = ["--parent", ".", "--change", ".", "--rung", rung, "--out", str(tmp_path / "l.json")]
    with pytest.raises(SystemExit):
        _tool().main(argv)
