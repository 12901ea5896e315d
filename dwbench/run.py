"""dwlab benchmark: run one workload in-process and print its metrics.

    python3 dwbench/run.py --workload class-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  A run repeats passes until ``--seconds`` is spent.  A pass
is a set-up (a fresh import of dwlab, the seeded field files written out)
followed by the timed section: every invocation of the workload through
``dwlab.cli.main`` in turn, one closed-loop client.  Reports are checked after
the timed section.

With ``--trace 0`` the metrics are medians over passes of the timed section
(``run_s``) and of set-up (``setup_s``), both in reference-speed seconds from
``refclock``, plus the peak resident memory of this process.  With
``--trace 1`` untraced and traced passes alternate and the metrics are
per-layer counts and self times from the traced pass of median length.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any invocation fails its checks and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "dwbench"

# The checkout stays as it was: no bytecode files from the benchmark or dwlab.
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Bytecode is looked up under a directory that never holds any, so every
# set-up compiles dwlab from source, whatever __pycache__ the checkout has.
sys.pycache_prefix = str(WORK / "no-bytecode")

# Set-up is short and noisy, so each run measures at least this many.
MIN_SETUPS = 15


def _purge_dwlab():
    for name in [m for m in sys.modules if m == "dwlab" or m.startswith("dwlab.")]:
        del sys.modules[name]
    gc.collect()
    importlib.invalidate_caches()


def setup(workload, seed, workdir):
    """Fresh import of dwlab plus the seeded field files.

    Returns ``(cli, paths, (start, end))``, the span being the set-up's
    perf_counter interval.
    """
    _purge_dwlab()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    cli = importlib.import_module("dwlab.cli")
    paths = workloads.write_fields(workload, seed, workdir)
    t1 = time.perf_counter()
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"dwlab was imported from {origin}, not from {SRC}")
    return cli, paths, (t0, t1)


def timed_section(cli, invs):
    """Run every invocation in turn; return (span, exit codes or exceptions, output)."""
    sink = io.StringIO()
    results = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for inv in invs:
            try:
                results.append(cli.main(list(inv.argv)))
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failure
                results.append(exc)
    return (t0, time.perf_counter()), results, sink.getvalue()


def check(invs, results, output):
    """Problems per failed invocation, as printable lines."""
    lines = []
    for inv, rc in zip(invs, results):
        if isinstance(rc, BaseException):
            problems = ["raised " + "".join(traceback.format_exception_only(rc)).strip()]
        else:
            try:
                problems = inv.check(rc, inv.report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"report unreadable: {exc!r}"]
        if problems:
            lines.append(f"FAILED {inv.label}: " + "; ".join(problems))
    if lines and output.strip():
        lines.append("program output:\n" + output.strip()[-2000:])
    return lines


class Run:
    """State of one benchmark run: samples, counts and failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.setups = []
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def one_pass(self, trace=None):
        cli, paths, span = setup(self.workload, self.seed, self.workdir)
        self.setups.append(span)
        invs = workloads.invocations(self.workload, paths, self.workdir)
        if trace is not None:
            trace.install()
        try:
            span, results, output = timed_section(cli, invs)
        finally:
            if trace is not None:
                trace.uninstall()
        problems = check(invs, results, output)
        for line in problems:
            print(line, file=sys.stderr)
        self.attempted += len(invs)
        self.failed += sum(1 for line in problems if line.startswith("FAILED"))
        if self.digests is None and not problems:
            self.digests = [workloads.digest(inv) for inv in invs]
        self.passes.append(span)
        return span[1] - span[0]


def layer_metrics(traced):
    """Per-layer metrics from the traced pass whose run_s is the median.

    ``traced`` holds one ``(Tracer.summary(), traced run_s)`` pair per pass.
    Every figure comes from that one pass, so its layers' self times plus the
    untraced remainder add up to its run_s.
    """
    summary, run_s = sorted(traced, key=lambda t: t[1])[(len(traced) - 1) // 2]
    spans = summary["spans"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_names(layer):
        return [n for n in spans if n.split(".", 1)[0] == layer]

    for name in tracer.SPAN_METRICS:
        span, kind = name.rsplit(".", 1)
        if kind == "calls":
            put(name, calls(span), "count")
        else:
            put(name, self_s([span]), "s")
    n_avg = calls("grid.avg_entries")
    put("grid.avg_entries.distinct_ratio", summary["avg_distinct"] / n_avg if n_avg else 0.0, "ratio")
    n_fire = calls("stopping.fires")
    put("stopping.fires.select_ratio", summary["fires_selected"] / n_fire if n_fire else 0.0, "ratio")
    put("matrices.calls", sum(calls(n) for n in layer_names("matrices")), "count")
    for layer in tracer.LAYERS:
        put(f"{layer}.errors", summary["errors"][layer], "count")
        put(f"{layer}.self_s", self_s(layer_names(layer)), "s")
    put("trace.run_s", run_s, "s")
    put("trace.untraced_s", run_s - summary["root_s"], "s")
    return out


def repeatable(traced):
    """Problems with the trace itself: calls must repeat between passes of one seed."""
    counts = [{n: v["calls"] for n, v in s["spans"].items()} for s, _ in traced]
    if any(c != counts[0] for c in counts[1:]):
        return ["calls differ between traced passes of one seed"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FIELDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dwlab" / "__init__.py").is_file():
        print(f"dwbench: no dwlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    clock = None if args.trace else refclock.ReferenceClock().start()
    start = time.perf_counter()
    traced = []
    untraced = []
    try:
        # Unmeasured: loads the library modules dwlab pulls in, so that every
        # measured set-up does the same work.
        setup(run.workload, run.seed, run.workdir)
        while True:
            t_unit = time.perf_counter()
            untraced.append(run.one_pass())
            if args.trace:
                t = tracer.Tracer()
                seconds = run.one_pass(trace=t)
                if not traced:
                    WORK.mkdir(parents=True, exist_ok=True)
                    t.save(WORK / f"trace-{args.workload}-{args.seed}.npz")
                traced.append((t.summary(), seconds))
            now = time.perf_counter()
            if now - start + (now - t_unit) > args.seconds:
                break
        while len(run.setups) < MIN_SETUPS:
            run.setups.append(setup(run.workload, run.seed, run.workdir)[2])
    finally:
        if clock is not None:
            clock.stop()
        _purge_dwlab()
        shutil.rmtree(run.workdir, ignore_errors=True)

    correct = run.failed == 0
    wall_setup = statistics.median(b - a for a, b in run.setups)
    print(f"wall medians: run {statistics.median(untraced):.6g} s, setup {wall_setup:.6g} s")
    if args.trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.run_s"]["value"] - statistics.median(untraced),
            "unit": "s",
        }
        problems = repeatable(traced)
        for line in problems:
            print(line, file=sys.stderr)
        correct = correct and not problems
    else:
        metrics = {
            "run_s": {
                "value": statistics.median(clock.seconds(a, b) for a, b in run.passes),
                "unit": "s",
            },
            "setup_s": {
                "value": statistics.median(clock.seconds(a, b) for a, b in run.setups),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print(
            f"host speed: median reference loop {statistics.median(clock.durations) * 1e6:.0f} us"
            f" against {refclock.REFERENCE_S * 1e6:.0f} us nominal, {len(clock.durations)} samples"
        )

    for line in run.digests or ():
        print("digest", line)
    print(
        f"{args.workload} seed={args.seed} passes={len(untraced)} traced={len(traced)}"
        f" setups={len(run.setups)} failed_frac={run.failed / max(run.attempted, 1):.6g}"
        f" ({run.failed}/{run.attempted} invocations)"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
