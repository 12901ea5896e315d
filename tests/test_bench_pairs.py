import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# A stand-in for dwbench/run.py: one digest line, then the result line.
STUB = """import json, sys
print("digest stub: sha256=0")
metrics = {{m: {{"value": 1.0}} for m in ("run_s", "setup_s", "peak_rss_mb")}}
print(json.dumps({{"correct": 1, "attempted": 1, "failed": {failed}, "metrics": metrics}}))
sys.exit({code})
"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name, failed=0, code=0):
    (root / name / "dwbench").mkdir(parents=True)
    (root / name / "dwbench" / "run.py").write_text(STUB.format(failed=failed, code=code))
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
