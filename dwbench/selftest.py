"""Self-tests of the benchmark; run from the checkout root:

    python3 dwbench/selftest.py

1. The output checks reject reports that break each relation they test.
2. BENCHMARK.json names exactly the metrics the benchmark prints.
3. Per workload, two traced runs with one seed give identical call counts,
   and no invocation fails.  In the longer one, with three or more traced
   passes, the layers' self times plus the untraced remainder sum to the
   reported traced run_s.
4. An untraced run prints every end-to-end metric with its unit.
5. Without the program's sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "dwbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def test_checks_reject_broken_reports():
    good_class = {
        "b2_i": 2.0, "b2_ii": 2.0, "b2_iii": 4.0, "b2_iv": 2.5,
        "ainf_i": 1.5, "ainf_ii": 1.5, "a2": 3.0, "thewest": 10.0,
    }
    broken_class = [
        {"a2": 0.5},
        {"b2_iii": 4.1},
        {"b2_iv": 1.9},
        {"thewest": (2.5 * 1.5) ** 2 * 1.01},
    ]
    good_tb = {
        "violations": [], "partition_residual": 0.0, "proof_regime": True,
        "assembled_bound": 3.0, "carleson_norm": 1.0,
    }
    broken_tb = [
        {"violations": [{"kind": "energy-bound"}]},
        {"partition_residual": 1e-6},
        {"proof_regime": False},
        {"assembled_bound": 0.5},
    ]
    good_inc = {"report": {"b2_iv": workloads.INCLUSION_CAP}, "label": "empirical"}
    broken_inc = [
        {"report": {"b2_iv": workloads.INCLUSION_CAP * 1.001}},
        {"label": "certified"},
    ]
    cases = [
        (workloads.check_class, good_class, broken_class),
        (workloads.check_tb, good_tb, broken_tb),
        (workloads.check_inclusion, good_inc, broken_inc),
    ]
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        path = Path(tmp) / "report.json"
        for check, good, broken in cases:
            path.write_text(json.dumps(good))
            assert check(0, path) == [], (check.__name__, check(0, path))
            assert check(2, path), check.__name__
            for patch in broken:
                path.write_text(json.dumps(dict(good, **patch)))
                assert check(0, path), (check.__name__, patch)


def test_spec_names_match_printed_metrics(traced, untraced):
    assert [m["name"] for m in SPEC["end_to_end"]] == list(untraced["metrics"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(traced["metrics"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for res in (traced, untraced):
        for name, m in res["metrics"].items():
            assert m["unit"] == units[name], name


def test_traced_runs(workload, seed=3):
    # Long enough for at least three traced passes, so the reported pass is
    # picked from several.
    rc1, first, p1 = bench("--workload", workload, "--seed", str(seed), "--seconds", "90", "--trace", "1")
    rc2, second, p2 = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert rc1 == rc2 == 0, (p1.stderr, p2.stderr)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
    passes = int(p1.stdout.split(" traced=")[1].split()[0])
    assert passes >= 3, passes
    m1, m2 = first["metrics"], second["metrics"]
    calls = [n for n in m1 if m1[n]["unit"] == "count" and not n.endswith(".errors")]
    differ = [n for n in calls if m1[n]["value"] != m2[n]["value"]]
    assert not differ, differ
    total = sum(m1[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    remainder = m1["trace.untraced_s"]["value"]
    run_s = m1["trace.run_s"]["value"]
    assert remainder >= 0.0 and abs(total + remainder - run_s) <= 1e-6 * run_s, (total, remainder, run_s)
    print(
        f"  {workload}: {len(calls)} counts repeat; {passes} traced passes;"
        f" self {total:.3f} s + untraced {remainder:.2e} s = run {run_s:.3f} s"
    )
    return first


def test_untraced_run(workload, seed=3):
    rc, res, proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0")
    assert rc == 0 and res["correct"] and res["failed"] == 0, proc.stderr
    for name in ("run_s", "setup_s", "peak_rss_mb"):
        assert res["metrics"][name]["value"] > 0.0, name
    assert "failed_frac=0 " in proc.stdout
    return res


def test_refuses_without_sources():
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        rc, res, proc = bench("--workload", "class-scan", "--seed", "1", "--seconds", "1", cwd=bare)
    assert rc != 0 and res is None, proc.stdout


def main():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    test_checks_reject_broken_reports()
    print("ok  output checks reject broken reports")
    test_refuses_without_sources()
    print("ok  exits non-zero without the program's sources")
    traced = untraced = None
    for workload in workloads.FIELDS:
        traced = test_traced_runs(workload)
        untraced = test_untraced_run(workload)
    print("ok  traced counts repeat, self times add up, no failures")
    test_spec_names_match_printed_metrics(traced, untraced)
    print("ok  BENCHMARK.json names the printed metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
