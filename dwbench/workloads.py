"""The three workloads: fixed lists of dwlab CLI invocations and their checks.

Each check reads the report the invocation wrote and tests relations that
hold for any correct run, derived from the definitions rather than from the
code that computed them.  A check returns a list of problems; empty means
the invocation passed.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

REL = 1e-9

# (n, N, L) of the fields each workload reads.
FIELDS = {
    # One large field queried by thousands of translated boxes: box integrals
    # and the family scan do almost all the work.
    "class-scan": ((2, 2, 5), (1, 3, 9)),
    # Proof-regime tb runs: hypothesis constants, stopping walks and owner
    # chains dominate; the N=3 field makes the ring net do real work.
    "tb-skeleton": ((1, 2, 9), (1, 3, 7), (2, 2, 4)),
    # Fields are built by the program itself: many small fields, few boxes each.
    "inclusion-anneal": (),
}

# The search's own seed is fixed.  The command anneals at L = 2, 3 and 4 with
# seeds seed+2, seed+3 and seed+4.  Under this cap the number of projections
# depends on the seed (from 1 to 48 over seeds 0-11), so a seed drawn from the
# benchmark seed would make the work vary.  Seed 3 projects 30 times and runs
# the final shrink at L=4, the level whose field is reported, which ends at
# b2_iv = 3.999: the cap-constrained path is measured, the cap check is close
# to binding, and the work is the same on every run.
INCLUSION_CAP = 4.0
INCLUSION_ARGS = ("--n", "1", "--N", "2", "--L", "4", "--b2-cap", "4", "--budget", "200", "--seed", "3")


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple
    report: Path
    check: Callable


def _load(path):
    return json.loads(Path(path).read_text())


def check_class(rc, report):
    if rc != 0:
        return [f"exit code {rc}"]
    d = _load(report)
    keys = ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest")
    bad = [f"{k}={d[k]!r} < 1" for k in keys if not d[k] >= 1.0 - REL]
    if not abs(d["b2_iii"] - d["b2_ii"] ** 2) <= REL * d["b2_iii"]:
        bad.append(f"b2_iii={d['b2_iii']!r} != b2_ii^2={d['b2_ii'] ** 2!r}")
    if not d["b2_ii"] <= d["b2_iv"] * (1.0 + REL):
        bad.append(f"b2_ii={d['b2_ii']!r} > b2_iv={d['b2_iv']!r}")
    cap = (d["b2_iv"] * d["ainf_ii"]) ** 2
    if not d["thewest"] <= cap * (1.0 + REL):
        bad.append(f"thewest={d['thewest']!r} > (b2_iv*ainf_ii)^2={cap!r}")
    return bad


def check_tb(rc, report):
    if rc != 0:
        return [f"exit code {rc}"]
    d = _load(report)
    bad = []
    if d["violations"]:
        bad.append(f"{len(d['violations'])} violations, first {d['violations'][0]}")
    if not d["partition_residual"] <= 1e-9:
        bad.append(f"partition_residual={d['partition_residual']!r}")
    if d["proof_regime"] is not True:
        bad.append("not in the proof regime")
    if not d["assembled_bound"] >= d["carleson_norm"]:
        bad.append(
            f"assembled_bound={d['assembled_bound']!r} < carleson_norm={d['carleson_norm']!r}"
        )
    return bad


def check_inclusion(rc, report):
    if rc != 0:
        return [f"exit code {rc}"]
    d = _load(report)
    bad = []
    if not d["report"]["b2_iv"] <= INCLUSION_CAP * (1.0 + REL):
        bad.append(f"b2_iv={d['report']['b2_iv']!r} exceeds the cap {INCLUSION_CAP}")
    if d.get("label") != "empirical":
        bad.append(f"label {d.get('label')!r} is not 'empirical'")
    return bad


# Subcommand and flags of the workloads that read the seeded fields, and the
# check of each report; the other workload is inclusion-anneal.
FIELD_COMMANDS = {
    "class-scan": (("check-weight",), check_class),
    "tb-skeleton": (("tb-run", "--gamma", "martingale", "--eps2", "0.3"), check_tb),
}


def write_fields(workload, seed, workdir):
    """Generate and write the workload's fields; return their paths."""
    paths = []
    for i, (n, N, L) in enumerate(FIELDS[workload]):
        rng = inputs.field_rng(seed, zlib.crc32(f"{workload}/{i}".encode()))
        mu, values = inputs.make_field(rng, n, N, L)
        path = workdir / f"{workload}-{i}.wf"
        path.write_text(inputs.field_text(mu, values))
        paths.append(path)
    return paths


def invocations(workload, field_paths, workdir):
    if workload in FIELD_COMMANDS:
        (command, *flags), check = FIELD_COMMANDS[workload]
        return [
            Invocation(
                f"{command} n={n} N={N} L={L}",
                (command, "--field", str(p), *flags, "--report", str(p.with_suffix(".json"))),
                p.with_suffix(".json"),
                check,
            )
            for p, (n, N, L) in zip(field_paths, FIELDS[workload])
        ]
    outdir = workdir / "inclusion"
    return [
        Invocation(
            "inclusion-search",
            ("inclusion-search", *INCLUSION_ARGS, "--out", str(outdir)),
            outdir / "report.json",
            check_inclusion,
        )
    ]


def digest(inv):
    """One line naming the report's bytes and its headline numbers."""
    raw = inv.report.read_bytes()
    d = json.loads(raw)
    if "report" in d:
        d = dict(d["report"], objective=d["objective"])
    keys = [k for k, v in d.items() if isinstance(v, float)]
    nums = " ".join(f"{k}={d[k]:.6g}" for k in sorted(keys))
    return f"{inv.label}: sha256={hashlib.sha256(raw).hexdigest()[:16]} {nums}"
