"""Command line front end: one subcommand per experiment driver.

Exit codes: 0 clean run, 1 usage or input error, 2 a numerical invariant was
violated (the report is still written so the violation can be inspected).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, canonical_json
from .cones import build_net, coverage_check
from .grid import Cube, FieldFormatError, read_weight_field, root_cube, write_weight_field
from .harness import inclusion_search
from .haar import paraproduct_plus, product_identity_residual
from .rrt import delta_of_eps_curve, worst_case_search
from .stopping import (
    corona_stop,
    first_generation_ratio,
    kato_family_stop,
    packing_constant,
    partition_residual,
    volberg_stop,
)
from .tb import HYPOTHESIS_KEYS, CanonicalFamily, make_gamma, tb_run
from .weights import class_report, family_scan

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _write_report(path, payload):
    text = canonical_json(payload)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _seed(text):
    """The ``type`` of every ``--seed``: a non-negative integer, as numpy's
    generators take, refused at parsing before any file is read."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _effective_jobs(args):
    env = os.environ.get("DWLAB_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"DWLAB_JOBS must be an integer, got {env!r}") from None
    return max(1, args.jobs)


def _load_config(args):
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    return cfg.validate()


def _parse_root(spec):
    if spec is None:
        return None
    try:
        return [int(p) for p in spec.split(",")]
    except ValueError:
        raise UsageError(f"corona: bad --root {spec!r}; expected 'level,c1,...,cn'") from None


def _root_in(nums, grid):
    """The ``--root`` cube, refused unless it is a cube of ``grid``."""
    if nums is None:
        return root_cube(grid.n)
    if len(nums) != grid.n + 1:
        raise UsageError(f"corona: --root needs {grid.n + 1} integers for dimension {grid.n}")
    level, coords = nums[0], tuple(nums[1:])
    if not 0 <= level <= grid.L:
        raise UsageError(f"corona: --root level {level} must lie in [0, {grid.L}], the field's L")
    if not all(0 <= c < 2**level for c in coords):
        raise UsageError(f"corona: --root coords must lie in [0, {2**level}) at level {level}")
    return Cube(level, coords)


def _meta(cfg, seed):
    return {"config_hash": cfg.hash(), "seed": seed}


def _cmd_check_weight(args):
    cfg = _load_config(args)
    field = read_weight_field(args.field)
    shifts = args.shifts if args.shifts is not None else cfg.shifts
    report = class_report(field, shifts=shifts, seed=args.seed)
    payload = report.as_dict()
    payload["meta"] = _meta(cfg, args.seed)
    payload["meta"]["cube_count"] = report.cube_count
    _write_report(args.report, payload)
    floor = 1.0 - cfg.loewner_tol
    keys = ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest")
    return 0 if all(payload[k] >= floor for k in keys) else 2


# Accepted --param of each corona criterion; NaN and infinities fail them all.
_PARAM_RANGES = {
    "volberg": (lambda p: 1.0 < p < np.inf, "a finite number above 1"),
    "corona": (lambda p: 0.0 < p < np.inf, "a finite number above 0"),
    "kato": (lambda p: 0.0 < p < 1.0, "a number in (0, 1)"),
}


def _cmd_corona(args):
    cfg = _load_config(args)
    in_range, allowed = _PARAM_RANGES[args.criterion]
    if not in_range(args.param):
        raise UsageError(f"corona: --param must be {allowed} for --criterion {args.criterion}")
    nums = _parse_root(args.root)
    field = read_weight_field(args.field)
    root = _root_in(nums, field.grid)
    if args.criterion == "corona":
        res, packing = corona_stop(root, field, args.param)
        ratio = first_generation_ratio(res, field.grid)
    else:
        if args.criterion == "volberg":
            res, ratio = volberg_stop(root, field, args.param)
        else:
            v0 = np.zeros(field.N)
            v0[0] = 1.0
            res, ratio = kato_family_stop(root, field, CanonicalFamily(field), v0, args.param)
        packing = packing_constant(res, field.grid)
    tree, mu = res.tree, field.grid.mu_stack
    residual = partition_residual(tree, res.criterion, res.root, res.cubes, res.owner, mu)
    gens = [tree.descriptors(gen) for gen in res.generations]
    gen_mass = [sum(mu[gen].tolist()) / float(mu[res.root]) for gen in res.generations]
    payload = {
        "criterion": args.criterion,
        "param": args.param,
        "root": root.descriptor(),
        "generations": gens,
        "generation_mass": gen_mass,
        "packing": packing,
        "first_generation_ratio": ratio,
        "partition_residual": residual,
        "meta": _meta(cfg, args.seed),
    }
    _write_report(args.report, payload)
    return 0 if residual <= 1e-9 else 2


def _cmd_cone_net(args):
    cfg = _load_config(args)
    if args.trials < 0:
        raise UsageError("cone-net: --trials must be at least 0")
    net = build_net(args.N, args.eps1, seed=args.seed)
    failures = coverage_check(net, args.trials, seed=args.seed)
    payload = {
        "N": args.N,
        "eps1": args.eps1,
        "size": net.size,
        "certificate_cos": net.certificate_cos,
        "certificate_gap": net.certificate_gap,
        "required_cos": net.required_cos,
        "trials": args.trials,
        "failures": failures,
        "meta": _meta(cfg, args.seed),
    }
    _write_report(args.report, payload)
    return 0 if failures == 0 and net.certificate_cos >= net.required_cos else 2


def _cmd_tb_run(args):
    cfg = _load_config(args)
    lam = getattr(args, "lambda") if getattr(args, "lambda") is not None else cfg.lam
    for ok, message in (
        (args.M >= 1, "--M must be at least 1"),
        (args.eps3 is None or 0.0 < args.eps3 < np.inf, "--eps3 must be a finite number above 0"),
        (1.0 < lam < np.inf, "--lambda must be a finite number above 1"),
    ):
        if not ok:
            raise UsageError(f"tb-run: {message}")
    field = read_weight_field(args.field)
    doubling = family_scan(field, HYPOTHESIS_KEYS, cfg.shifts).sups["doubling"]
    if doubling > cfg.doubling_cap:
        raise UsageError(
            f"measure fails the doubling cap: {doubling:.3g} > {cfg.doubling_cap:.3g};"
            " the run refuses non-doubling instances"
        )
    gamma = make_gamma(args.gamma, field, M=args.M, seed=args.seed)
    # flags override the config file; unset epsilons fall through to the
    # proof-ordered derivations inside the run
    eps2 = args.eps2 if args.eps2 is not None else cfg.eps2
    eps3 = args.eps3 if args.eps3 is not None else (cfg.eps3 if cfg.eps3 > 0.0 else None)
    eps1 = args.eps1 if args.eps1 is not None else (cfg.eps1 if cfg.eps1 > 0.0 else None)
    report = tb_run(
        field,
        gamma,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        lam=lam,
        shifts=cfg.shifts,
    )
    payload = report.as_dict()
    payload["meta"] = _meta(cfg, args.seed)
    _write_report(args.report, payload)
    ok = not report.violations and report.partition_residual <= 1e-9
    return 0 if ok else 2


def _cmd_rrt_search(args):
    cfg = _load_config(args)
    jobs = _effective_jobs(args)
    if (args.delta is None) == (args.eps_grid is None):
        raise UsageError("give exactly one of --delta or --eps-grid")
    if args.budget < 0:
        raise UsageError("rrt-search: --budget must be at least 0")
    if args.delta is not None:
        inst = worst_case_search(
            args.m, args.delta, budget=args.budget, seed=args.seed, jobs=jobs
        )
        payload = {"mode": "worst-case", "instance": inst.as_dict()}
    else:
        try:
            grid = [float(x) for x in args.eps_grid.split(",") if x]
        except ValueError:
            raise UsageError(f"bad --eps-grid {args.eps_grid!r}") from None
        rows = delta_of_eps_curve(args.m, grid, budget=args.budget, seed=args.seed, jobs=jobs)
        payload = {"mode": "curve", "rows": rows}
    payload["meta"] = _meta(cfg, args.seed)
    _write_report(args.report, payload)
    return 0


def _cmd_inclusion_search(args):
    cfg = _load_config(args)
    out = Path(args.out)
    # The nearest existing path of --out must be a directory to write into.
    existing = next(p for p in (out, *out.parents) if p.exists())
    for ok, message in (
        (args.n >= 1, "--n must be at least 1"),
        (args.N >= 2, "--N must be at least 2; the scalar inclusion is known"),
        (args.L >= 0, "--L must be at least 0"),
        (1.0 < args.b2_cap < np.inf, "--b2-cap must be a finite number above 1"),
        (args.budget >= 0, "--budget must be at least 0"),
        (existing.is_dir(), f"--out must name a directory; {existing} is not one"),
    ):
        if not ok:
            raise UsageError(f"inclusion-search: {message}")
    # A finite grid certifies nothing about unboundedness; record the growth of
    # the best constant across grid depths so the trend is visible.
    trend = []
    result = None
    for level in range(min(2, args.L), args.L + 1):
        res = inclusion_search(
            args.n, args.N, level, args.b2_cap, budget=args.budget, seed=args.seed + level,
            shifts=cfg.shifts,
        )
        trend.append(
            {
                "L": level,
                "ainf_ii": res.report.ainf_ii,
                "b2_iv": res.report.b2_iv,
                "objective": res.objective,
            }
        )
        result = res
    out.mkdir(parents=True, exist_ok=True)
    write_weight_field(out / "best_field.wf", result.field)
    payload = result.as_dict()
    payload["field_file"] = "best_field.wf"
    payload["label"] = "empirical"
    payload["trend"] = trend
    payload["meta"] = _meta(cfg, args.seed)
    (out / "report.json").write_text(canonical_json(payload))
    with open(out / "trend.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["L", "ainf_ii", "b2_iv", "objective"])
        writer.writeheader()
        writer.writerows(trend)
    sys.stdout.write(canonical_json({"out": str(out), "objective": result.objective}))
    return 0


def _cmd_paraproduct_demo(args):
    cfg = _load_config(args)
    if args.depth < 0:
        raise UsageError("paraproduct-demo: --depth must be at least 0")
    rng = np.random.default_rng(args.seed)
    size = 2**args.depth
    b = rng.standard_normal(size)
    f = rng.standard_normal(size)
    residual = product_identity_residual(b, f)
    para = paraproduct_plus(b, f)
    payload = {
        "depth": args.depth,
        "product_identity_residual": residual,
        "paraproduct_energy": para.energy,
        "bmo_energy_ratio": para.bmo_energy_ratio,
        "meta": _meta(cfg, args.seed),
    }
    _write_report(args.report, payload)
    return 0 if residual <= 1e-9 else 2


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="dwlab", description=__doc__)
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-weight", help="matrix weight class constants")
    p.add_argument("--field", required=True)
    p.add_argument("--shifts", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_weight)

    p = sub.add_parser("corona", help="stopping-time decompositions")
    p.add_argument("--field", required=True)
    p.add_argument("--criterion", required=True, choices=("volberg", "kato", "corona"))
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--root", default=None, help="level,c1,...,cn")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_corona)

    p = sub.add_parser("cone-net", help="direction net and sector coverage")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_cone_net)

    p = sub.add_parser("tb-run", help="end-to-end estimate run")
    p.add_argument("--field", required=True)
    p.add_argument("--gamma", required=True, choices=("zero", "constant", "martingale", "random"))
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--eps2", type=float, default=None)
    p.add_argument("--eps3", type=float, default=None)
    p.add_argument("--eps1", type=float, default=None)
    p.add_argument("--lambda", type=float, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_tb_run)

    p = sub.add_parser("rrt-search", help="near-isometry worst case search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps-grid", default=None)
    p.add_argument(
        "--budget",
        type=int,
        default=10000,
        help="annealing steps, split evenly over the 50 restarts (each also "
        "evaluates its initial pair; a budget below 50 anneals nothing)",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_rrt_search)

    p = sub.add_parser("inclusion-search", help="class inclusion probe")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--b2-cap", type=float, required=True)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inclusion_search)

    p = sub.add_parser("paraproduct-demo", help="scalar product identity demo")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_paraproduct_demo)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    except FieldFormatError as exc:
        sys.stderr.write(f"field file error: {exc}\n")
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
