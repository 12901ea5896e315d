"""Alternating benchmark pairs: a parent and a change checkout, run in turn.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload inclusion-anneal --pairs 10 --seconds 36 --seed 301 \\
        --out pairs.json

Each pair runs ``python3 dwbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with ``S`` the base seed plus the pair
number; the side that runs first alternates from pair to pair, so a drift of
the host's speed weighs on both sides alike.  Every run reads the metrics
from the last line of its output, the raw wall medians of the timed section
and of set-up (``wall_run_s``, ``wall_setup_s``) from its ``wall medians``
line, the number of timed passes (``passes``) from the ``passes=`` field of
its summary line when it prints one, and the report digests from its
``digest`` lines.  A pass count matters beside ``peak_rss_mb``: a run that
makes faster passes makes more of them in its seconds.

Printed per pair: ``run_s`` and ``wall_run_s`` of both sides.  Printed per
workload and metric, the wall medians and pass counts included: each side's median and
quartiles over its runs, and the number of pairs in which the change is
better (lower); per workload, the invocation labels (the text before ``:`` of
a ``digest`` line) whose report digests differ between the sides of any pair.
The JSON written to ``--out`` holds every run and that summary; it is the
source of a ``BENCH_*.json``.  It is rewritten after every pair, so an
interrupted session keeps the pairs it ran.  A run that prints no output,
whose last line is not a JSON result, or that prints no ``wall medians``
line, is kept as a bad run (its exit code and the tail of its standard
error) and the summary reads the pairs in which both runs gave a result.  The
exit code is 1, after every pair has run, when a run of either side is bad,
exits non-zero or reports failed invocations; each such run is named on
standard error.  Standard library only; nothing under ``dwbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
# The raw wall medians, in seconds, of the line ``dwbench/run.py`` prints.
WALL = ("wall_run_s", "wall_setup_s")
WALL_LINE = re.compile(r"^wall medians: run (\S+) s, setup (\S+) s$")
# The timed passes a run made, from the summary line ``dwbench/run.py`` prints.
PASSES = re.compile(r"\bpasses=(\d+)\b")
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One ``dwbench/run.py`` run in ``checkout``: its metrics, failures and digests."""
    argv = [
        sys.executable, "dwbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    wall = [m.groups() for m in map(WALL_LINE.match, lines) if m]
    passes = [int(m.group(1)) for m in map(PASSES.search, lines) if m]
    error = None
    if not lines:
        error = "no output"
    elif not isinstance(result, dict):
        error = "last line is not a JSON result"
    elif not wall:
        error = "no wall medians line"
    if error:
        # A bad run: no result or wall line to read metrics from.
        return {
            "exit_code": proc.returncode,
            "error": error,
            "stderr_tail": proc.stderr.strip()[-2000:],
        }
    return {
        "exit_code": proc.returncode,
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{m: result["metrics"][m]["value"] for m in METRICS},
        **{m: float(v) for m, v in zip(WALL, wall[-1])},
        **({"passes": passes[-1]} if passes else {}),
        "digests": [line[len("digest ") :] for line in lines if line.startswith("digest ")],
    }


def spread(values):
    """Median and quartiles of ``values``."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _digests_by_label(run):
    """A run's report digests keyed by invocation label, the text before ``:``."""
    return dict(line.split(":", 1) for line in run["digests"])


def summarize(pairs, metrics=METRICS + WALL):
    """Spreads and wins of ``metrics`` over the pairs in which both runs gave
    them, and the spread of the pass counts over the pairs in which both runs
    gave those too."""
    whole = [p for p in pairs if all(m in p[s] for s in SIDES for m in metrics)]
    counted = [p for p in whole if all("passes" in p[s] for s in SIDES)]
    out = {}
    for m in metrics + ("passes",):
        sides = {s: [p[s][m] for p in (counted if m == "passes" else whole)] for s in SIDES}
        out[m] = {s: spread(v) if v else None for s, v in sides.items()}
        out[m]["change_wins"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        out[m]["pairs"] = len(sides["parent"])
    out["failed"] = {s: sum(p[s].get("failed", 0) for p in pairs) for s in SIDES}
    out["digests_equal"] = sum(p["parent"]["digests"] == p["change"]["digests"] for p in whole)
    differ = set()
    for p in whole:
        parent, change = (_digests_by_label(p[s]) for s in SIDES)
        differ |= {k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k)}
    out["digests_differ"] = sorted(differ)
    return out


def _value(run, metric):
    return "bad run" if "error" in run else f"{run[metric]:.4f}"


def summary_lines(workload, summary, metrics=METRICS + WALL):
    """The printed summary of one workload: a line per metric and for the pass
    counts, then failures and digests."""
    lines = []
    for m in metrics + ("passes",):
        s = summary[m]
        if not s["pairs"]:
            lines.append(f"{workload} {m}: no pair in which both runs gave a result")
            continue
        lines.append(
            f"{workload} {m}: parent {s['parent']['median']:.4f}"
            f" ({s['parent']['q1']:.4f}-{s['parent']['q3']:.4f}),"
            f" change {s['change']['median']:.4f}"
            f" ({s['change']['q1']:.4f}-{s['change']['q3']:.4f}),"
            f" change lower in {s['change_wins']} of {s['pairs']}"
        )
    lines.append(
        f"{workload}: failed parent {summary['failed']['parent']} change"
        f" {summary['failed']['change']}; digests equal in {summary['digests_equal']}"
        f" of {summary[metrics[0]]['pairs']}"
    )
    if summary["digests_differ"]:
        lines.append(f"{workload}: digests differ for {', '.join(summary['digests_differ'])}")
    return lines


def host():
    return (
        f"{platform.machine()}, {platform.system()} {platform.release()},"
        f" Python {platform.python_version()}"
    )


def report_bad_runs(report, problem, name=lambda pair: f"pair seed {pair['seed']}"):
    """Name on standard error, by ``name(pair)``, every run of ``report`` that
    ``problem`` finds bad; the exit code, 1 when there is one."""
    bad = [
        f"{workload} {name(pair)} {side}: {problem(pair[side])}"
        for workload, runs in report["workloads"].items()
        for pair in runs["pairs"]
        for side in SIDES
        if problem(pair[side])
    ]
    for line in bad:
        print(f"bad run: {line}", file=sys.stderr)
    return 1 if bad else 0


def _problem(run):
    """Why a run is bad, or None when it is not."""
    if "error" in run:
        tail = run["stderr_tail"].splitlines()
        last = f"; stderr: {tail[-1]}" if tail else ""
        return f"exit code {run['exit_code']}, {run['error']}{last}"
    if run["exit_code"] or run["failed"]:
        return f"exit code {run['exit_code']}, {run['failed']} failed"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "command": (
            "python3 dwbench/run.py --workload W --seed S --seconds"
            f" {args.seconds:g} --trace 0, S = {args.seed} + pair"
        ),
        "host": host(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        report["workloads"][workload] = {"pairs": pairs}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(
                f"{workload} pair {i + 1}/{args.pairs} seed {seed}:"
                + ";".join(
                    f" {m} parent {_value(pair['parent'], m)} change {_value(pair['change'], m)}"
                    for m in ("run_s", "wall_run_s")
                ),
                flush=True,
            )
            # Written after every pair, so a session stopped mid-workload
            # keeps the pairs it ran.
            args.out.write_text(json.dumps(report, indent=1) + "\n")
        summary = summarize(pairs)
        report["workloads"][workload]["summary"] = summary
        print("\n".join(summary_lines(workload, summary)))
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return report_bad_runs(report, _problem)


if __name__ == "__main__":
    sys.exit(main())
