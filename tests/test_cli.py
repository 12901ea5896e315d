import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import cli, stopping, weights
from dwlab.cones import ConeNet
from dwlab.cli import main
from dwlab.config import RunConfig, canonical_json
from dwlab.grid import Grid, WeightField, write_weight_field
from dwlab.harness import WeightGenerator, generate
from dwlab.tb import gamma_zero, make_gamma, tb_run

from conftest import coarse_anchor_owners


@pytest.fixture
def const_field(tmp_path):
    path = tmp_path / "const.wf"
    w = WeightField(Grid(1, 2), np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
    write_weight_field(path, w)
    return str(path)


@pytest.fixture
def random_field(tmp_path):
    path = tmp_path / "rand.wf"
    w = generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=3), 1, 2, 3)
    write_weight_field(path, w)
    return str(path)


def test_check_weight_constant(const_field, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["check-weight", "--field", const_field, "--report", str(rep)]) == 0
    d = json.loads(rep.read_text())
    assert set(d) >= {
        "b2_i", "b2_ii", "b2_iii", "b2_iv",
        "ainf_i", "ainf_ii", "a2", "thewest", "doubling", "worst_cubes",
    }
    for key in ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest"):
        assert abs(d[key] - 1.0) < 1e-9
    assert {"config_hash", "seed"} <= set(d["meta"])


def test_check_weight_refuses_shifts_out_of_range(const_field, tmp_path, capsys):
    # n=1 has 6 distinct shifts beyond the zero vector: thirds, then ninths
    rep = tmp_path / "r.json"
    for shifts in ("-3", "50", "7"):
        argv = ["check-weight", "--field", const_field, "--shifts", shifts, "--report", str(rep)]
        assert main(argv) == 1
        assert "shifts must lie in [0, 6] for n=1" in capsys.readouterr().err
    assert not rep.exists()
    assert main(["check-weight", "--field", const_field, "--shifts", "6", "--report", str(rep)]) == 0


def test_tb_run_zero_gamma(const_field, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["tb-run", "--field", const_field, "--gamma", "zero", "--report", str(rep)]) == 0
    d = json.loads(rep.read_text())
    assert d["carleson_norm"] == 0.0
    assert d["violations"] == []
    assert set(d["constants"]) == {"C1", "C2", "C3", "C4"}
    assert set(d) >= {
        "carleson_norm", "assembled_bound", "violations",
        "per_sector", "partition_residual", "constants",
    }


def test_tb_run_rejects_bad_parameters(const_field, tmp_path, capsys):
    rep = tmp_path / "r.json"
    base = ["tb-run", "--field", const_field, "--gamma", "constant", "--report", str(rep)]
    for flag, value in (("--eps3", "-0.5"), ("--eps3", "0"), ("--eps3", "nan"), ("--eps3", "inf"),
                        ("--lambda", "nan"), ("--lambda", "1"), ("--lambda", "inf"), ("--M", "0")):
        assert main(base + [flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"tb-run: {flag} must be"), (flag, value)
        assert not rep.exists()
    # an eps3 above eps2^2/4 stays allowed from flags: the run is outside the regime
    assert main(base + ["--eps3", "0.7"]) == 0
    assert json.loads(rep.read_text())["proof_regime"] is False
    w = WeightField(Grid(1, 2), np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
    for kwargs, name in ((dict(eps3=0.0), "eps3"), (dict(eps3=float("nan")), "eps3"),
                         (dict(lam=float("nan")), "lam"), (dict(lam=float("inf")), "lam")):
        with pytest.raises(ValueError, match=name):
            tb_run(w, make_gamma("constant", w), **kwargs)
    with pytest.raises(ValueError, match="M must"):
        tb_run(w, gamma_zero(w.grid, 0, 2))


def test_tb_run_violation_exit_code(tmp_path):
    path = tmp_path / "steep.wf"
    w = WeightField(Grid(1, 2), np.array([1.0, 1.0, 1.0, 0.3]).reshape(4, 1, 1))
    write_weight_field(path, w)
    rep = tmp_path / "r.json"
    rc = main([
        "tb-run", "--field", str(path), "--gamma", "constant",
        "--eps1", "0.45", "--eps2", "0.3", "--eps3", "0.7", "--report", str(rep),
    ])
    assert rc == 2
    d = json.loads(rep.read_text())  # report still written
    assert d["violations"]


def test_corona_subcommand(random_field, tmp_path):
    rep = tmp_path / "r.json"
    rc = main([
        "corona", "--field", random_field, "--criterion", "corona",
        "--param", "0.2", "--report", str(rep),
    ])
    assert rc == 0
    d = json.loads(rep.read_text())
    assert d["packing"] >= 1.0
    assert d["partition_residual"] <= 1e-9
    assert d["generations"][0] == ["level=0 coords=0"]
    for crit, param in (("volberg", 4.0), ("kato", 0.2)):
        assert main([
            "corona", "--field", random_field, "--criterion", crit,
            "--param", str(param), "--report", str(rep),
        ]) == 0
    rc = main([
        "corona", "--field", random_field, "--criterion", "corona",
        "--param", "0.2", "--root", "1,1", "--report", str(rep),
    ])
    assert rc == 0
    assert json.loads(rep.read_text())["root"] == "level=1 coords=1"


def test_corona_rejects_bad_parameters(random_field, tmp_path, capsys):
    rep = tmp_path / "r.json"
    base = ["corona", "--report", str(rep), "--criterion"]
    # Refused before the field is read, so a missing field file is not reached.
    missing = ["--field", str(tmp_path / "missing.wf")]
    for crit, value in (("corona", "0"), ("corona", "inf"), ("corona", "nan"),
                        ("volberg", "1"), ("volberg", "inf"), ("volberg", "nan"),
                        ("kato", "0"), ("kato", "1"), ("kato", "-inf"), ("kato", "nan")):
        assert main(base + [crit, f"--param={value}"] + missing) == 1
        assert capsys.readouterr().err.startswith("corona: --param must be"), (crit, value)
    assert main(base + ["corona", "--param", "0.2", "--root", "1,x"] + missing) == 1
    assert capsys.readouterr().err.startswith("corona: bad --root")
    # The field has n=1 and L=3: a root deeper than L, with the wrong number
    # of integers or off the grid is refused before the decomposition.
    for root in ("12,0", "4,0", "-1,0", "1,0,0", "1,2"):
        argv = base + ["corona", "--param", "0.2", "--field", random_field, f"--root={root}"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("corona: --root"), root
    assert not rep.exists()


def test_corona_partition_check_catches_wrong_engine(monkeypatch, tmp_path):
    # The smooth field of the tb-run partition test: the corona stop fires at
    # some cubes and owners are inherited at the others.
    w = generate(WeightGenerator("log-gaussian", amplitude=0.08, seed=51), 1, 2, 5)
    path, rep = tmp_path / "f.wf", tmp_path / "r.json"
    write_weight_field(path, w)
    argv = ["corona", "--field", str(path), "--criterion", "corona", "--param", "0.06125",
            "--report", str(rep)]
    assert main(argv) == 0
    assert json.loads(rep.read_text())["partition_residual"] == 0.0
    monkeypatch.setattr(stopping, "anchor_owners", coarse_anchor_owners)
    assert main(argv) == 2
    assert json.loads(rep.read_text())["partition_residual"] > 1e-9


def test_cone_net_subcommand(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rc = main(["cone-net", "--N", "2", "--eps1", "0.5", "--trials", "300", "--report", str(rep)])
    assert rc == 0
    d = json.loads(rep.read_text())
    assert d["size"] >= 51 and d["failures"] == 0
    assert d["certificate_cos"] >= d["required_cos"]
    capsys.readouterr()
    assert main(["cone-net", "--N", "2", "--eps1", "0.5", "--trials", "-5"]) == 1
    assert capsys.readouterr().err.startswith("cone-net: --trials must be at least 0")


def _wrong_neighbour(monkeypatch):
    """Make the net lookup answer the next index after the right one."""
    lookup = ConeNet.cover_indices
    monkeypatch.setattr(
        ConeNet, "cover_indices", lambda self, v1s: (lookup(self, v1s) + 1) % self.size
    )


def test_cone_net_refuses_uncertified_net(monkeypatch, tmp_path):
    rep = tmp_path / "r.json"
    argv = ["cone-net", "--N", "3", "--eps1", "0.3", "--trials", "20", "--report", str(rep)]
    assert main(argv) == 0
    _wrong_neighbour(monkeypatch)
    assert main(argv) == 2
    d = json.loads(rep.read_text())  # report still written
    assert d["certificate_cos"] < d["required_cos"]


def test_tb_run_net_gap_catches_wrong_lookup(monkeypatch, random_field, tmp_path):
    rep = tmp_path / "r.json"
    argv = ["tb-run", "--field", random_field, "--gamma", "random", "--report", str(rep)]
    assert main(argv) == 0
    _wrong_neighbour(monkeypatch)
    assert main(argv) == 2
    kinds = {v["kind"] for v in json.loads(rep.read_text())["violations"]}
    assert "net-gap" in kinds


def test_net_too_large_to_walk_exits_1(tmp_path, capsys):
    assert main(["cone-net", "--N", "6", "--eps1", "0.05"]) == 1
    assert "N=6, eps1=0.05" in capsys.readouterr().err
    path = tmp_path / "six.wf"
    write_weight_field(path, WeightField(Grid(1, 2), np.broadcast_to(np.eye(6), (4, 6, 6)).copy()))
    rep = tmp_path / "r.json"
    argv = ["tb-run", "--field", str(path), "--gamma", "random", "--report", str(rep)]
    assert main(argv) == 1
    assert "N=6, eps1=0.05" in capsys.readouterr().err
    assert not rep.exists()


def test_tb_run_refuses_martingale_rows_beyond_N(tmp_path, capsys):
    # A martingale multiplier has at most N rows; the refusal names M and N
    # before any level is built, and the other kinds keep M = 3.
    path = tmp_path / "n2.wf"
    write_weight_field(path, generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=3), 2, 2, 4))
    rep = tmp_path / "r.json"
    argv = ["tb-run", "--field", str(path), "--gamma", "martingale", "--M", "3", "--report", str(rep)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: the martingale multiplier has at most N = 2 rows, got M = 3\n"
    )
    assert not rep.exists()
    argv[argv.index("martingale")] = "random"
    assert main(argv) == 0 and rep.exists()


def test_rrt_search_subcommand(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rc = main([
        "rrt-search", "--m", "2", "--delta", "0.1",
        "--budget", "400", "--report", str(rep),
    ])
    assert rc == 0
    d = json.loads(rep.read_text())
    assert d["instance"]["epsilon_measured"] >= 0.1 - 1e-9
    rc = main([
        "rrt-search", "--m", "1", "--eps-grid", "0.1,0.2",
        "--budget", "100", "--report", str(rep),
    ])
    assert rc == 0
    assert [r["delta"] for r in json.loads(rep.read_text())["rows"]] == [0.1, 0.2]
    # exactly one mode must be given
    assert main(["rrt-search", "--m", "2"]) == 1
    capsys.readouterr()
    for mode in (["--delta", "0.1"], ["--eps-grid", "0.1"]):
        assert main(["rrt-search", "--m", "2", *mode, "--budget", "-3"]) == 1
        assert capsys.readouterr().err.startswith("rrt-search: --budget must be at least 0")


def test_inclusion_search_subcommand(tmp_path, capsys):
    out = tmp_path / "incl"
    rc = main([
        "inclusion-search", "--N", "2", "--L", "3", "--b2-cap", "1.5",
        "--budget", "30", "--out", str(out),
    ])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["best_field.wf", "report.json", "trend.csv"]
    d = json.loads((out / "report.json").read_text())
    assert d["report"]["b2_iv"] <= 1.5 + 1e-9
    assert d["label"] == "empirical"
    assert [row["L"] for row in d["trend"]] == [2, 3]
    trend_lines = (out / "trend.csv").read_text().strip().splitlines()
    assert trend_lines[0] == "L,ainf_ii,b2_iv,objective" and len(trend_lines) == 3
    capsys.readouterr()
    base = ["inclusion-search", "--N", "2", "--b2-cap", "2.0", "--budget", "3", "--out", str(out)]
    for flag, value in (("--N", "1"), ("--b2-cap", "nan"), ("--b2-cap", "inf"), ("--b2-cap", "1"),
                        ("--budget", "-5"), ("--n", "0"), ("--L", "-1")):
        assert main(base + [flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"inclusion-search: {flag} must be"), flag


def test_inclusion_search_report_is_check_weight_at_its_shift_count(tmp_path):
    # The search scans the config's shifts, as check-weight does, so at n=2
    # check-weight on the emitted field reproduces the report block and the
    # trend's last row bit for bit: at the default 2 shifts and at 8.
    eight = tmp_path / "eight.cfg"
    eight.write_text("[grid]\nshifts = 8\n")
    argv = ["inclusion-search", "--n", "2", "--N", "2", "--L", "3", "--b2-cap", "4", "--budget", "100", "--seed", "7"]
    for config in ([], ["--config", str(eight)]):
        out = tmp_path / f"incl-{len(config)}"
        assert main(config + argv + ["--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        block = payload["report"]
        rep = tmp_path / f"check-{len(config)}.json"
        assert main(config + ["check-weight", "--field", str(out / "best_field.wf"), "--report", str(rep)]) == 0
        check = json.loads(rep.read_text())
        del check["meta"]
        assert check == block
        last = payload["trend"][-1]
        assert (last["b2_iv"], last["ainf_ii"]) == (block["b2_iv"], block["ainf_ii"])


def test_inclusion_search_refuses_an_out_that_is_not_a_directory(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("annealed before the --out check")

    monkeypatch.setattr(cli, "inclusion_search", refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        argv = ["inclusion-search", "--N", "2", "--b2-cap", "2.0", "--budget", "3", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"inclusion-search: --out must name a directory; {taken} is not one\n"
    assert taken.read_text() == ""


def test_paraproduct_demo(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert main(["paraproduct-demo", "--depth", "6", "--report", str(rep)]) == 0
    d = json.loads(rep.read_text())
    assert d["product_identity_residual"] <= 1e-10
    capsys.readouterr()
    assert main(["paraproduct-demo", "--depth", "-1"]) == 1
    assert capsys.readouterr().err.startswith("paraproduct-demo: --depth must be at least 0")


def test_malformed_field_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.wf"
    bad.write_text("1 1 1\n1.0 2.0\nbroken\n")
    assert main(["check-weight", "--field", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err
    for text, line in (("1 1 1\n1 2\n1 nan\n", 3), ("1 1 1\n1 2\n1 inf\n", 3),
                       ("1 1 1\n1 2\n1 2\njunk\n", 4)):
        bad.write_text(text)
        assert main(["check-weight", "--field", str(bad)]) == 1
        assert f"line {line}:" in capsys.readouterr().err


def json_dumps_report(obj):
    """The oracle of ``canonical_json``: the standard library's encoder."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, -1e16, 0.1, 1e22)
EDGE_TEXT = ('"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\r\t\b\f", "é✓😀\u2028", "")
json_text = st.one_of(st.text(max_size=8), st.sampled_from(EDGE_TEXT))
finite = st.floats(allow_nan=False, allow_infinity=False)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    finite,
    st.sampled_from(EDGE_FLOATS),
    st.builds(np.float64, finite),
    json_text,
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=json_values)
def test_canonical_json_writes_the_bytes_of_json_dumps(obj):
    assert canonical_json(obj) == json_dumps_report(obj)


def test_canonical_json_edge_values():
    obj = {
        "floats": [*EDGE_FLOATS, np.float64(2.5), np.float64(-0.0)],
        "ints": [0, -1, 2**70, -(3**50)],
        "bools": [True, False, None],
        "flags": {"on": True, "off": False, "none": None},
        "nested": {"empty_list": [], "empty_dict": {}, "deep": [[[]], [{}], {"a": [{}]}]},
        'k"\\\x01é': "v\u2028\x7f",
        "tuple": (1, (2.0, "x")),
    }
    assert canonical_json(obj) == json_dumps_report(obj)
    assert canonical_json(True) == "true\n" and canonical_json([True, 1]) == "[\n  true,\n  1\n]\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_canonical_json_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match=r"report value a\.1\.b is .*the first of 2 non-finite"):
        canonical_json({"a": [1.0, {"b": bad, "c": 2.0}], "z": [bad]})


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), {1: 2.0}, {"a": 1, 2: 3}, np.bool_(True)])
def test_canonical_json_refuses_other_types_and_keys(bad):
    # A key that is not a str is refused, though json.dumps would write an int one.
    with pytest.raises(TypeError):
        canonical_json({"value": [bad]})


def test_tb_run_names_the_non_finite_report_value(tmp_path, capsys):
    # A valid field whose cells alternate I and 1e200 I: the report holds
    # infinities and NaNs (C2, and C3 and C4 from their overflowed forms),
    # which JSON cannot hold.  The refusal names the first in written order
    # and counts them; no report is written.
    vals = np.array([np.eye(2) * (1.0 if i % 2 == 0 else 1e200) for i in range(4)])
    path = tmp_path / "wild.wf"
    write_weight_field(path, WeightField(Grid(1, 2), vals))
    rep = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        rc = main(["tb-run", "--field", str(path), "--gamma", "martingale", "--report", str(rep)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: report value assembled_bound is inf, the first of 7 non-finite values,"
        " which JSON cannot hold\n"
    )
    assert not rep.exists()


def test_violated_invariant_exit_code(const_field, monkeypatch, capsys):
    real = weights.ratio_kernel
    cases = (
        ("b2_sampled", "b2_ii", "sampled direction ratio exceeded the operator norm"),
        ("ainf_i", "ainf_i_jensen", "ainf_i exceeded its Jensen bound"),
    )
    for key, bound, message in cases:

        def oversampled(*args, key=key, bound=bound, **kwargs):
            out = real(*args, **kwargs)
            out[key] = out[bound] * 2.0
            return out

        monkeypatch.setattr(weights, "ratio_kernel", oversampled)
        assert main(["check-weight", "--field", const_field]) == 2
        assert f"invariant violated: {message} on shift=0 level=0 pos=0" in capsys.readouterr().err


def test_b2_self_check_guards_the_eigenvalues(random_field, monkeypatch, capsys):
    # b2_sampled reads the averages, not the eigenvalues of the b2_iii stack
    # that give b2_i: an eigvalsh that quarters them halves b2_i and trips the
    # check.  The kernel's stack is the b2_iii rows, then as many Jensen rows.
    eigvalsh = np.linalg.eigvalsh

    def quartered(a):
        eig = eigvalsh(a)
        eig[: len(a) // 2] /= 4.0
        return eig

    monkeypatch.setattr(weights.np.linalg, "eigvalsh", quartered)
    assert main(["check-weight", "--field", random_field]) == 2
    assert "sampled direction ratio exceeded the operator norm" in capsys.readouterr().err


def test_check_weight_names_the_non_finite_report_value(tmp_path, capsys):
    # The field whose cells alternate I and 1e200 I overflows the averages of
    # W^2 and W^-1 and the determinants: check-weight refuses the report by
    # naming a non-finite value, not with a linear-algebra error.  a2 is inf
    # on the coarse boxes and NaN (inf times 0) on a level-2 box of a later
    # batch; the first NaN box wins the sup.
    vals = np.array([np.eye(2) * (1.0 if i % 2 == 0 else 1e200) for i in range(4)])
    path = tmp_path / "wild.wf"
    write_weight_field(path, WeightField(Grid(1, 2), vals))
    rep = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        rc = main(["check-weight", "--field", str(path), "--report", str(rep)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: report value a2 is nan, the first of 7 non-finite values, which JSON cannot hold\n"
    assert "LinAlgError" not in err and "did not converge" not in err
    assert not rep.exists()


def test_parser_is_built_once_and_parses_afresh():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    a = parser.parse_args(["check-weight", "--field", "f", "--seed", "3"])
    b = parser.parse_args(["check-weight", "--field", "g"])
    assert (a.field, a.seed, b.field, b.seed) == ("f", 3, "g", 0)


def test_usage_errors():
    assert main(["check-weight", "--no-such-flag"]) == 1
    assert main(["corona", "--field", "x.wf", "--criterion", "corona", "--param", "0.2",
                 "--root", "zero"]) == 1


SEED_COMMANDS = {
    "check-weight": ["--field", "{field}", "--report", "{out}"],
    "corona": ["--field", "{field}", "--criterion", "kato", "--param", "0.3", "--report", "{out}"],
    "cone-net": ["--N", "2", "--eps1", "0.3", "--trials", "10", "--report", "{out}"],
    "tb-run": ["--field", "{field}", "--gamma", "martingale", "--report", "{out}"],
    "rrt-search": ["--m", "2", "--delta", "0.1", "--budget", "0", "--report", "{out}"],
    "inclusion-search": ["--N", "2", "--L", "1", "--b2-cap", "4", "--budget", "0", "--out", "{out}"],
    "paraproduct-demo": ["--depth", "2", "--report", "{out}"],
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_negative_seed_is_refused_at_parsing(command, const_field, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("field file read")

    monkeypatch.setattr(cli, "read_weight_field", refuse)
    out = tmp_path / "out"
    argv = [a.format(field=const_field, out=out) for a in SEED_COMMANDS[command]]
    assert main([command, *argv, "--seed", "-1"]) == 1
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(shifts=4, eps2=0.25, lam=8.0)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
    back = RunConfig.from_file(path)
    assert back == cfg
    assert back.hash() == cfg.hash()
    annotated = "[epsilons]\neps2 = 0.125   ; inline note\n"
    assert RunConfig.from_text(annotated).eps2 == 0.125
    with pytest.raises(ValueError):
        RunConfig(eps2=1.5).validate()
    with pytest.raises(ValueError):
        RunConfig(lam=0.5).validate()
    with pytest.raises(ValueError):
        RunConfig(eps2=0.2, eps3=0.02).validate()  # 0.02 >= 0.2^2/4
    for name in ("eps1", "eps2", "eps3", "lam", "loewner_tol", "doubling_cap"):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: float("nan")}).validate()
    with pytest.raises(ValueError, match="lambda"):
        RunConfig(lam=float("inf")).validate()
    for tol in (-1.0, 1.0, 5.0, float("inf")):
        with pytest.raises(ValueError, match="loewner_tol"):
            RunConfig(loewner_tol=tol).validate()
    for cap in (0.5, -1.0, float("-inf")):
        with pytest.raises(ValueError, match="doubling_cap"):
            RunConfig(doubling_cap=cap).validate()
    RunConfig(loewner_tol=0.0, doubling_cap=1.0).validate()


def test_config_with_retired_keys_still_loads(tmp_path):
    # Files written before the grid size and seed left the config still load;
    # the keys are ignored, since the field file and --seed fix them.
    old = "[grid]\nn = 2\nN = 3\nL = 3\nshifts = 4\n\n[seeds]\nseed = 9\n"
    cfg = RunConfig.from_text(old)
    assert cfg == RunConfig(shifts=4)
    assert "seed" not in cfg.to_text() and "L =" not in cfg.to_text()
    path = tmp_path / "old.cfg"
    path.write_text(old)
    rep = tmp_path / "r.json"
    field = tmp_path / "const.wf"
    write_weight_field(field, WeightField(Grid(1, 2), np.broadcast_to(np.eye(2), (4, 2, 2)).copy()))
    argv = ["--config", str(path), "check-weight", "--field", str(field), "--report", str(rep)]
    assert main(argv) == 0
    assert json.loads(rep.read_text())["meta"]["config_hash"] == cfg.hash()


def test_config_file_feeds_tb_run(tmp_path, const_field):
    cfg = RunConfig(eps2=0.2, shifts=1)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg.to_text())
    rep = tmp_path / "r.json"
    rc = main([
        "--config", str(cfg_path),
        "tb-run", "--field", const_field, "--gamma", "zero", "--report", str(rep),
    ])
    assert rc == 0
    d = json.loads(rep.read_text())
    assert d["eps"]["eps2"] == 0.2
    assert d["eps"]["eps3"] == pytest.approx(0.2**2 / 8.0)
    # an explicit flag still wins
    rc = main([
        "--config", str(cfg_path),
        "tb-run", "--field", const_field, "--gamma", "zero",
        "--eps2", "0.4", "--report", str(rep),
    ])
    assert rc == 0
    assert json.loads(rep.read_text())["eps"]["eps2"] == 0.4


def test_jobs_env_override(monkeypatch, tmp_path):
    rep = tmp_path / "r.json"
    monkeypatch.setenv("DWLAB_JOBS", "1")
    assert main(["rrt-search", "--m", "2", "--delta", "0.05", "--budget", "200",
                 "--report", str(rep)]) == 0
    monkeypatch.setenv("DWLAB_JOBS", "banana")
    assert main(["rrt-search", "--m", "2", "--delta", "0.05", "--budget", "200",
                 "--report", str(rep)]) == 1


def test_reports_are_deterministic(random_field, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        main(["tb-run", "--field", random_field, "--gamma", "random",
              "--seed", "5", "--report", str(target)])
    assert a.read_bytes() == b.read_bytes()


def _child_env(**extra):
    """Environment for a fresh interpreter that imports the dwlab under test."""
    src = str(Path(weights.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_module_entrypoint(const_field):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "dwlab", "check-weight", "--field", const_field],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["b2_ii"] == pytest.approx(1.0, abs=1e-9)


def test_cross_process_determinism(random_field, tmp_path):
    # fresh interpreters with randomized hash seeds must agree byte for byte
    outs = []
    for seed_env, name in (("1234", "x.json"), ("987654", "y.json")):
        target = tmp_path / name
        env = _child_env(PYTHONHASHSEED=seed_env, DWLAB_JOBS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "dwlab", "tb-run", "--field", random_field,
             "--gamma", "random", "--seed", "11", "--report", str(target)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_tb_run_refuses_non_doubling_measure(tmp_path, capsys):
    side = 16
    mu = np.ones(side)
    mu[: side // 2] = 1e7  # violent half-step in the density
    w = WeightField(Grid(1, 4, mu), np.ones((side, 1, 1)))
    path = tmp_path / "wild.wf"
    write_weight_field(path, w)
    rc = main(["tb-run", "--field", str(path), "--gamma", "zero"])
    assert rc == 1
    assert "doubling cap" in capsys.readouterr().err


def test_one_family_pass_per_report(random_field, tmp_path, monkeypatch):
    # check-weight reads every class constant and doubling from one pass over
    # the translated family; tb-run's doubling-cap refusal and its C1 and C2
    # read one pass too.
    calls = []
    real = Grid.box_batches

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Grid, "box_batches", counted)
    rep = str(tmp_path / "r.json")
    for argv in (
        ["check-weight", "--field", random_field, "--report", rep],
        ["tb-run", "--field", random_field, "--gamma", "martingale", "--report", rep],
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, (argv[0], calls)

    # A refused run scans once and stops before the owner engine.
    side = 16
    mu = np.ones(side)
    mu[: side // 2] = 1e7
    wild = tmp_path / "wild.wf"
    write_weight_field(wild, WeightField(Grid(1, 4, mu), np.ones((side, 1, 1))))

    def refuse(*args, **kwargs):
        raise AssertionError("owner engine ran")

    monkeypatch.setattr(stopping, "anchor_owners", refuse)
    calls.clear()
    assert main(["tb-run", "--field", str(wild), "--gamma", "zero"]) == 1
    assert len(calls) == 1
