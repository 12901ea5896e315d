"""Deep-grid ladder: a parent and a change checkout on fields beyond the benchmark's.

    python3 tools/deep_ladder.py --parent ../parent --change . \\
        --rung 2,2,9,2 --rung 2,2,10,2 --pairs 3 --out ladder.json

A rung is ``n,N,L[,shifts[,seed]]``: the field is
``dwbench/inputs.make_field(field_rng(seed, 0), n, N, L)`` (seed 5 unless
given) and ``shifts`` the translated grids of the scans (``-`` or left out:
the library's default, ``3^n - 1``).  Without ``--rung`` the ladder runs
``RUNGS``.  Each pair runs every rung once per side, each time in a fresh
child process of this script inside that side's checkout, and the side that
runs first alternates from pair to pair.

A child times, in order: the field build (``build_s``), the ``{doubling}``
scan (``doubling_s``), the ``{thewest}`` scan (``thewest_s``), the
``{doubling, thewest}`` scan that ``tb_run`` reads (``scan_s``), the warm
``tb_run`` with the martingale gamma at eps2 0.3, gamma included
(``tb_run_s``), then the ``weights.CLASS_KEYS`` scan that ``check-weight``
runs, over the rung's shifts (``class_s``).  It reads its peak RSS so far from
``getrusage`` after each stage (``build_rss_mb`` to ``class_rss_mb``, so a
rung shows which stage sets its peak) and at its end (``peak_rss_mb``), and
prints two digests: one of the three scans' sups and the ``tb_run`` report,
and one of the class scan's sups.  Every
child limits its address space to ``CAP_GB`` with ``RLIMIT_AS``, so a deep
rung cannot take the host's memory; a ``MemoryError`` under the cap is a
result, kept with the stage and the source line that failed and the stages
timed before it, not a bad run.

With ``--held`` every child runs under ``tracemalloc`` and writes no times:
per stage, ``<stage>_held_mb`` is the traced peak during the stage (the peak
is reset as it starts, so what earlier stages still hold is counted) and
``<stage>_kept_mb`` what is still traced after it, beside the same RSS
figures.  Tracing slows numpy-heavy stages about twofold, so the two modes
are separate runs.

The JSON written to ``--out`` has the shape of ``tools/bench_pairs.py``'s, one
workload per rung, and is rewritten after every pair.  A child that prints no
JSON result or exits non-zero is a bad run; the exit code is then 1, after
every pair has run.  Standard library only;
nothing under ``dwbench/`` is changed.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402
from bench_pairs import SIDES  # noqa: E402

CAP_GB = 5
STAGES = ("build_s", "doubling_s", "thewest_s", "scan_s", "tb_run_s", "class_s")
RSS = tuple(f"{stage[:-2]}_rss_mb" for stage in STAGES) + ("peak_rss_mb",)
METRICS = STAGES + RSS
# The metrics of a --held run: traced memory per stage, no times.
HELD = tuple(f"{stage[:-2]}_{kind}_mb" for stage in STAGES for kind in ("held", "kept")) + RSS
SCANS = (
    ("doubling_s", ("doubling",)),
    ("thewest_s", ("thewest",)),
    ("scan_s", ("doubling", "thewest")),
)


@dataclass(frozen=True)
class Rung:
    n: int
    N: int
    L: int
    shifts: int | None = None
    seed: int = 5

    @property
    def label(self):
        shifts = "default" if self.shifts is None else self.shifts
        return f"n={self.n} N={self.N} L={self.L} shifts={shifts} seed={self.seed}"


# The deep-grid table of ROADMAP.md.  At n=3 L=6, seed 5's density fails
# make_field's doubling cap, so that rung takes seed 6.
RUNGS = (
    Rung(1, 2, 14),
    Rung(1, 2, 18),
    Rung(1, 3, 12),
    Rung(2, 2, 8),
    Rung(2, 3, 7),
    Rung(2, 2, 9, shifts=2),
    Rung(2, 2, 10, shifts=2),
    Rung(2, 2, 11, shifts=2),
    Rung(3, 2, 5),
    Rung(3, 2, 6, seed=6),
)


def parse_rung(text):
    """``n,N,L[,shifts[,seed]]``, ``-`` for the default shifts."""
    parts = text.split(",")
    if not 3 <= len(parts) <= 5:
        raise argparse.ArgumentTypeError(f"rung {text!r} is not n,N,L[,shifts[,seed]]")
    try:
        n, N, L = (int(p) for p in parts[:3])
        shifts = int(parts[3]) if len(parts) > 3 and parts[3] != "-" else None
        seed = int(parts[4]) if len(parts) > 4 else 5
    except ValueError:
        raise argparse.ArgumentTypeError(f"rung {text!r} is not n,N,L[,shifts[,seed]]") from None
    return Rung(n, N, L, shifts, seed)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(rung, held=False):
    """Run one rung in the checkout that is the working directory, under
    ``tracemalloc`` if ``held``; print its result as one JSON line and return
    the exit code."""
    root = Path.cwd()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "dwbench")]
    cap = CAP_GB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from inputs import field_rng, make_field
    from dwlab.grid import Grid, WeightField
    from dwlab.tb import make_gamma, tb_run
    from dwlab.weights import CLASS_KEYS, family_scan

    result, stage = {}, "build_s"
    if held:
        tracemalloc.start()

    def begin():
        if held:
            tracemalloc.reset_peak()
        return time.perf_counter()

    def done(start):
        name = stage[:-2]
        if held:
            kept, peak = tracemalloc.get_traced_memory()
            result[f"{name}_held_mb"], result[f"{name}_kept_mb"] = peak / 2**20, kept / 2**20
        else:
            result[stage] = time.perf_counter() - start
        result[f"{name}_rss_mb"] = _peak_rss_mb()

    try:
        start = begin()
        mu, values = make_field(field_rng(rung.seed, 0), rung.n, rung.N, rung.L)
        field = WeightField(Grid(rung.n, rung.L, mu), values)
        done(start)
        sups = {}
        for stage, keys in SCANS:
            start = begin()
            sups.update(family_scan(field, keys, rung.shifts).sups)
            done(start)
        stage = "tb_run_s"
        start = begin()
        report = tb_run(field, make_gamma("martingale", field), eps2=0.3, shifts=rung.shifts)
        done(start)
        result["digests"] = [f"{rung.label}: sha256={_digest({'sups': sups, 'tb_run': report.as_dict()})}"]
        stage = "class_s"
        start = begin()
        sups = family_scan(field, CLASS_KEYS, rung.shifts).sups
        done(start)
        result["digests"].append(f"{rung.label} class scan: sha256={_digest(sups)}")
    except MemoryError:
        frame = traceback.extract_tb(sys.exc_info()[2])[-1]
        result["memory_error"] = {
            "stage": stage,
            "at": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}: {frame.line}",
        }
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


def run_child(checkout, rung, held=False):
    """One fresh child process on ``rung`` in ``checkout``: its result, or a bad run."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(asdict(rung))]
    argv += ["--held"] if held else []
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {
            "exit_code": proc.returncode,
            "error": "no output" if not lines else "last line is not a JSON result",
            "stderr_tail": proc.stderr.strip()[-2000:],
        }
    return {"exit_code": proc.returncode, "failed": 0, "digests": [], **result}


def _memory(run):
    m = run["memory_error"]
    return f"MemoryError in {m['stage']} at {m['at']} (cap {CAP_GB} GB)"


def problem(run):
    """Why a run is bad, or None when it is not."""
    if "error" in run:
        return bench_pairs._problem(run)
    if run["exit_code"]:
        return f"exit code {run['exit_code']}"
    return None


def _value(run, metric):
    if "error" in run:
        return "bad run"
    return f"{run[metric]:.4f}" if metric in run else _memory(run)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        return child(Rung(**json.loads(argv[1])), held="--held" in argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--rung", action="append", help="n,N,L[,shifts[,seed]]; repeatable")
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--held", action="store_true", help="trace held memory per stage; no times")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        rungs = [parse_rung(r) for r in args.rung] if args.rung else list(RUNGS)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics, shown = (HELD, "tb_run_held_mb") if args.held else (METRICS, "tb_run_s")

    report = {
        "command": f"python3 tools/deep_ladder.py --child RUNG{' --held' if args.held else ''},"
        " one fresh process per rung and side",
        "host": bench_pairs.host(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {r.label: {"rung": asdict(r), "pairs": []} for r in rungs},
    }
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for rung in rungs:
            pair = {"pair": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run_child(checkouts[side], rung, args.held)
            report["workloads"][rung.label]["pairs"].append(pair)
            print(
                f"{rung.label} pair {i + 1}/{args.pairs}:"
                + ";".join(
                    f" {m} parent {_value(pair['parent'], m)} change {_value(pair['change'], m)}"
                    for m in (shown, "peak_rss_mb")
                ),
                flush=True,
            )
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    for label, runs in report["workloads"].items():
        runs["summary"] = bench_pairs.summarize(runs["pairs"], metrics)
        print("\n".join(bench_pairs.summary_lines(label, runs["summary"], metrics)))
        for pair in runs["pairs"]:
            for side in SIDES:
                if "memory_error" in pair[side]:
                    print(f"{label} pair {pair['pair']} {side}: {_memory(pair[side])}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return bench_pairs.report_bad_runs(report, problem, lambda pair: f"pair {pair['pair']}")


if __name__ == "__main__":
    sys.exit(main())
