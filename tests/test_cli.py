"""End-to-end exercises of the command line, in process.

Exit codes are a contract: 0 success (divergence included), 2 input error,
3 hypothesis violation, 4 numerical-domain error, 5 verification failure.
"""

import argparse
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sici

from blockspaces import PiecewiseConstant1D, dirichlet_sn
from blockspaces import cli
from blockspaces.cli import build_parser, main
from blockspaces.io import read_csv


def write_spec(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def usage_error(argv, capsys) -> str:
    """Run argv, which argparse must refuse with exit code 2; return the stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.fixture
def ball(tmp_path):
    return write_spec(tmp_path / "ball.json", {"type": "indicator", "a": -1, "b": 1})


@pytest.fixture
def i12(tmp_path):
    return write_spec(tmp_path / "i12.json", {"type": "indicator", "a": 1, "b": 2})


# -- norm -----------------------------------------------------------------------


def test_norm_flat_ball(ball, tmp_path):
    out = tmp_path / "n"
    assert main(["norm", "--input", ball, "--params", "1,1,2,0", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "n.json").read_text())
    assert rep["norm"] == 2.0
    assert rep["divergent"] is False
    assert rep["profile"]["total"] == 2.0


def test_norm_weighted_interval(i12, tmp_path):
    out = tmp_path / "n"
    assert main(["norm", "--input", i12, "--params", "1,1,2,1", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "n.json").read_text())
    assert rep["norm"] == 1.5


def test_norm_divergent_is_data_not_error(tmp_path):
    f = write_spec(tmp_path / "f.json", {"type": "indicator", "a": 0, "b": 1})
    out = tmp_path / "n"
    assert main(["norm", "--input", f, "--params", "1,1,2,-1", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "n.json").read_text())
    assert rep["divergent"] is True
    assert rep["norm"] == "inf"


def test_norm_fraction_params(ball, tmp_path):
    out = tmp_path / "n"
    assert main(["norm", "--input", ball, "--params", "1,1/2,2,-3/4", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "n.json").read_text())
    assert rep["provenance"]["config"]["params"] == [1, 0.5, 2, -0.75]


def test_norm_bad_json_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    out = tmp_path / "n"
    assert main(["norm", "--input", str(f), "--params", "1,1,2,0", "--out", str(out)]) == 2
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [[1, 2], "x"], ids=["list", "string"])
def test_norm_non_object_spec_exits_2(tmp_path, spec, capsys):
    f = write_spec(tmp_path / "f.json", spec)
    assert main(["norm", "--input", f, "--params", "1,1,2,0", "--out", str(tmp_path / "n")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_norm_missing_params_exits_2(ball, tmp_path, capsys):
    err = usage_error(["norm", "--input", ball, "--out", str(tmp_path / "n")], capsys)
    assert "required: --params" in err
    assert [p.name for p in tmp_path.iterdir()] == ["ball.json"]


def test_norm_invalid_params_exit_2(ball, tmp_path):
    assert main(["norm", "--input", ball, "--params", "1,0,2,0", "--out", str(tmp_path / "n")]) == 2
    assert main(["norm", "--input", ball, "--params", "1,1,2", "--out", str(tmp_path / "n")]) == 2
    assert main(["norm", "--input", ball, "--params", "1,1,2,x", "--out", str(tmp_path / "n")]) == 2
    assert main(["norm", "--input", ball, "--params", "1,1e400,2,0", "--out", str(tmp_path / "n")]) == 2


# -- decompose --------------------------------------------------------------------


def test_decompose_unit_shell_single_term(tmp_path):
    f = write_spec(
        tmp_path / "shell.json",
        {"breakpoints": [-1.0, -0.5, 0.5, 1.0], "values": [1.0, 0.0, 1.0]},
    )
    out = tmp_path / "d"
    rc = main(
        ["decompose", "--input", f, "--params", "1,1,2,0", "--op", "homogeneous", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    assert len(rep["terms"]) == 1
    assert rep["terms"][0]["lambda"] == math.sqrt(2.0)
    assert rep["terms"][0]["k"] == 0
    assert rep["residual_norm"] == 0.0
    assert rep["quasinorm_upper_bound"] == math.sqrt(2.0)


def test_decompose_ball_three_terms(tmp_path):
    f = write_spec(tmp_path / "b2.json", {"type": "indicator", "a": -4, "b": 4})
    out = tmp_path / "d"
    assert main(["decompose", "--input", f, "--params", "1,1,2,0", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    assert [t["k"] for t in rep["terms"]] == [0, 1, 2]
    assert all(t["restrict_type"] for t in rep["terms"])


def test_decompose_zero_function(tmp_path):
    f = write_spec(tmp_path / "z.json", {"type": "zero"})
    out = tmp_path / "d"
    assert main(["decompose", "--input", f, "--params", "1,1,2,0", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    assert rep["terms"] == [] and rep["coefficient_cost"] == 0.0


def test_decompose_round_trip_lossless(tmp_path, i12):
    out = tmp_path / "d"
    assert main(["decompose", "--input", i12, "--params", "1,1,2,-1/2", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    from blockspaces.io import function_from_dict, load_function

    total = PiecewiseConstant1D.zero()
    for t in rep["terms"]:
        total = total + t["lambda"] * function_from_dict(t["block"])
    assert total.equal_as_functions(load_function(i12))


def test_decompose_hypothesis_violation_exits_3(tmp_path, ball, capsys):
    rc = main(
        [
            "decompose",
            "--input",
            ball,
            "--params",
            "1,2,2,0",  # p = s: the homogeneous route needs p < s
            "--op",
            "homogeneous",
            "--out",
            str(tmp_path / "d"),
        ]
    )
    assert rc == 3
    assert "p < s" in capsys.readouterr().err


def test_decompose_upper_bound_route(tmp_path, ball):
    out = tmp_path / "d"
    rc = main(
        [
            "decompose",
            "--input",
            ball,
            "--params",
            "1,1,2,-1/2",
            "--op",
            "upper-bound",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    direct = rep["coefficient_cost"]
    assert rep["quasinorm_upper_bound"] <= direct ** 1.0 + 1e-12


def test_decompose_unknown_route_exits_2(tmp_path, ball, capsys):
    argv = ["decompose", "--input", ball, "--params", "1,1,2,0", "--op", "svd"]
    err = usage_error(argv + ["--out", str(tmp_path / "d")], capsys)
    assert "argument --op: invalid choice: 'svd'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["ball.json"]


def test_decompose_residual_leaves_upper_bound_null(tmp_path, ball):
    # the homogeneous ladder stops at k_min = -12 and leaves chi(-2^-13, 2^-13) over
    out = tmp_path / "d"
    argv = ["decompose", "--input", ball, "--params", "1,1,2,0", "--op", "homogeneous"]
    assert main(argv + ["--out", str(out)]) == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    assert rep["quasinorm_upper_bound"] is None
    assert rep["residual_norm"] == 0.015625
    assert rep["residual"] == {"breakpoints": [-(2.0**-13), 2.0**-13], "values": [1.0]}


# -- apply ------------------------------------------------------------------------


def test_apply_hilbert_closed_form(tmp_path, i12):
    out = tmp_path / "a"
    rc = main(["apply", "--input", i12, "--op", "hilbert", "--grid", "4:4:1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(tmp_path / "a.csv"))
    assert rows[0][0] == 4.0
    assert math.isclose(rows[0][1], math.log(1.5) / math.pi, rel_tol=1e-14)
    rep = json.loads((tmp_path / "a.json").read_text())
    assert rep["operator"] == "hilbert"


def test_apply_breakpoint_pv_exits_4(tmp_path, i12, capsys):
    rc = main(["apply", "--input", i12, "--op", "hilbert", "--grid", "1:2:3", "--out", str(tmp_path / "a")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "1.0" in err  # the offending abscissa is named


def test_apply_carleson_anchor(tmp_path, i12):
    out = tmp_path / "a"
    rc = main(
        ["apply", "--input", i12, "--op", "carleson", "--grid", "3/2:3/2:1", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(str(tmp_path / "a.csv"))
    assert abs(rows[0][1] - 1.1789797444721675) < 1e-6


def test_apply_sn_zero_input(tmp_path):
    f = write_spec(tmp_path / "z.json", {"type": "zero"})
    out = tmp_path / "a"
    rc = main(["apply", "--input", f, "--op", "sn", "--grid=-1:1:5", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(tmp_path / "a.csv"))
    assert len(rows) == 5 and all(v == 0.0 for _, v in rows)


def test_apply_sn_readme_grid_meets_jumps(tmp_path, ball):
    # S_N is entire: the README grid hits the jumps at +-1 and still exits 0
    out = tmp_path / "a"
    argv = ["apply", "--input", ball, "--op", "sn", "--schedule", "16", "--grid=-1:1:201"]
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    x, got = np.asarray(read_csv(str(tmp_path / "a.csv"))).T
    ball_fn = PiecewiseConstant1D.indicator(-1.0, 1.0)
    np.testing.assert_array_equal(got, dirichlet_sn(ball_fn, 16.0, x))
    z = 2.0 * math.pi * 16.0
    want = (sici(z * (x + 1.0))[0] - sici(z * (x - 1.0))[0]) / math.pi
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("op", ["sn", "hilbert_truncated"])
def test_apply_empty_schedule_exits_2(tmp_path, ball, op, capsys):
    # these operators use exactly one level; extra levels would be echoed but unused
    for schedule in ("", "4,8"):
        argv = ["apply", "--input", ball, "--op", op, f"--schedule={schedule}", "--grid=-1:1:5"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 2
        assert "--schedule" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def test_apply_unknown_op_exits_2(tmp_path, ball, capsys):
    argv = ["apply", "--input", ball, "--op", "fft", "--grid", "0:1:2"]
    err = usage_error(argv + ["--out", str(tmp_path / "a")], capsys)
    assert "argument --op: invalid choice: 'fft'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["ball.json"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["apply", "--input", "{i12}", "--op", "carleson", "--grid", "1.5:1.5:1"], "--tolerance=inf"),
        (["apply", "--input", "{i12}", "--op", "carleson", "--grid", "1.5:1.5:1"], "--tolerance=nan"),
        (["apply", "--input", "{i12}", "--op", "carleson", "--grid", "1.5:1.5:1"], "--tolerance=-1"),
        (["apply", "--input", "{i12}", "--op", "carleson", "--grid", "1.5:1.5:1"], "--tolerance=0"),
        (["decompose", "--input", "{i12}", "--params", "1,1,2,0", "--op", "upper-bound"], "--seed=-1"),
        (["verify", "--theorem", "all"], "--seed=-1"),
    ],
    ids=["tolerance-inf", "tolerance-nan", "tolerance-negative", "tolerance-zero",
         "decompose-seed-negative", "verify-seed-negative"],
)
def test_out_of_range_seed_or_tolerance_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, i12, argv, flag
):
    # a tolerance must be finite and > 0, a seed a non-negative integer; json cannot
    # encode inf/nan, -1 ran every refinement, and numpy's refusal of seed -1 named no flag
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    err = usage_error([a.format(i12=i12) for a in argv] + [flag], capsys)
    assert f"argument {flag.split('=')[0]}: wants" in err
    assert list(work.iterdir()) == []


def test_apply_schedule_override(tmp_path, i12):
    out = tmp_path / "a"
    rc = main(
        [
            "apply",
            "--input",
            i12,
            "--op",
            "sn",
            "--schedule",
            "16",
            "--grid",
            "1.5:1.5:1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "a.json").read_text())
    assert rep["schedule"] == [16.0]


# -- verify -----------------------------------------------------------------------


def test_verify_single_claim_passes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--theorem", "4.1", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "v.json").read_text())
    assert rep["theorem"] == "4.1" and rep["passed"] is True
    # curve measurements come with CSV sidecars
    csvs = list(tmp_path.glob("v.*.csv"))
    assert csvs


def test_verify_unknown_claim_exits_2(tmp_path, capsys):
    err = usage_error(["verify", "--theorem", "9.9", "--out", str(tmp_path / "v")], capsys)
    assert "argument --theorem: invalid choice: '9.9'" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_failure_names_failed_verdicts(tmp_path, monkeypatch, capsys):
    import blockspaces.cli as cli
    from blockspaces.verify import Verdict, VerificationReport

    verdicts = (
        Verdict("ratio-small", "ratio", 1.05, 1.5, False),
        Verdict("slope-flat", "slope", 0.1, 0.01, True),
        Verdict("outside", "ratio", 1.05, 9.0, None, out_of_hypothesis=True),
    )
    report = VerificationReport("5.3", {}, {"ratio": 1.5}, verdicts)
    monkeypatch.setattr(cli, "run_theorem", lambda tid, seed: report)
    assert main(["verify", "--theorem", "5.3", "--out", str(tmp_path / "v")]) == 5
    out, err = capsys.readouterr()
    assert out.startswith("5.3: FAIL")
    assert err == "5.3: failed ratio-small: ratio = 1.5, tolerance 1.05\n"


def test_verify_seed_echoed_in_provenance(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--theorem", "5.3", "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "v.json").read_text())
    assert rep["provenance"]["seed"] == 7
    assert rep["provenance"]["config"]["theorem"] == "5.3"


# -- sweep ------------------------------------------------------------------------


def test_sweep_error_curve_decreases(tmp_path):
    f = write_spec(tmp_path / "q.json", {"type": "indicator", "a": 0.25, "b": 0.5})
    out = tmp_path / "s"
    rc = main(
        [
            "sweep",
            "--input",
            f,
            "--op",
            "e-of-N",
            "--params",
            "1,1,2,-1/2",
            "--schedule",
            "1,4,16",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(str(tmp_path / "s.csv"))
    assert [r[0] for r in rows] == [1.0, 4.0, 16.0]
    assert rows[-1][1] < rows[0][1]
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert sidecar["rows"] == 3


def test_sweep_error_curve_rejects_zero_cutoff(tmp_path, ball, capsys):
    argv = ["sweep", "--input", ball, "--op", "e-of-N", "--params", "1,1,2,0", "--schedule", "0"]
    assert main(argv + ["--out", str(tmp_path / "s")]) == 2
    assert "N must be positive" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "route", [["--op", "e-of-N", "--input", "{ball}"], ["--op", "hilbert"]], ids=["e-of-N", "hilbert"]
)
def test_sweep_empty_schedule_exits_2(tmp_path, ball, route, capsys):
    # an empty --schedule is a malformed flag value, not a 0-row curve
    argv = ["sweep", *[a.format(ball=ball) for a in route], "--params", "1,1,2,0", "--schedule="]
    assert main(argv + ["--out", str(tmp_path / "s")]) == 2
    assert "--schedule wants at least one level" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["ball.json"]


def test_sweep_block_scale_flat(tmp_path):
    out = tmp_path / "s"
    rc = main(
        [
            "sweep",
            "--op",
            "hilbert",
            "--params",
            "1,1,2,-1/2",
            "--schedule=-2,0,2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(str(tmp_path / "s.csv"))
    vals = [r[1] for r in rows]
    assert max(vals) / min(vals) < 1.0 + 1e-6  # dilation covariance end to end


REFERENCE_3_1 = Path(__file__).resolve().parents[1] / "perfbench/reference/verify/seed0/claim.3.1.json"


@pytest.mark.parametrize("op, claim_op", [("sn", "dirichlet_sn"), ("hilbert", "hilbert")])
def test_sweep_block_scale_matches_claim_3_1(tmp_path, op, claim_op):
    # the CLI sweep and claim 3.1 measure the same block norms, bit for bit
    out = tmp_path / "s"
    rc = main(["sweep", "--op", op, "--params", "1,1,2,-1/2", "--schedule=-1,0,1", "--out", str(out)])
    assert rc == 0
    claim = json.loads(REFERENCE_3_1.read_text())["measurements"]
    want = dict(claim[f"{claim_op}|p=1|norms|indicator"])
    rows = read_csv(str(tmp_path / "s.csv"))
    assert [k for k, _ in rows] == [-1.0, 0.0, 1.0]
    for k, norm in rows:
        assert norm == want[k]


def test_sweep_block_scale_stays_in_float_range(tmp_path, capsys):
    # the nodes of the 2^k-scaled grid are finite and normal for |k| <= 982;
    # beyond it the sweep used to print nan or crash, so those are input errors
    def sweep(k):
        argv = ["sweep", "--op", "hilbert", "--params", "1,1,2,-1/2", f"--schedule={k}"]
        return main(argv + ["--out", str(tmp_path / "s")])

    for k in (-983, 983):
        assert sweep(k) == 2
        assert "-982 <= k <= 982" in capsys.readouterr().err
    assert sweep(0) == 0
    base = read_csv(str(tmp_path / "s.csv"))[0][1]
    for k in (-982, 982):
        assert sweep(k) == 0
        norm = read_csv(str(tmp_path / "s.csv"))[0][1]
        assert max(norm, base) / min(norm, base) < 1.05  # the exact-route ratio of claim 3.1


def test_sweep_rejects_fractional_scales(tmp_path):
    rc = main(
        ["sweep", "--op", "hilbert", "--params", "1,1,2,-1/2", "--schedule", "0.5", "--out", str(tmp_path / "s")]
    )
    assert rc == 2


def test_sweep_unknown_kind_exits_2(tmp_path, capsys):
    argv = ["sweep", "--op", "resolvent", "--params", "1,1,2,0", "--out", str(tmp_path / "s")]
    assert "argument --op: invalid choice: 'resolvent'" in usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == []


# -- exit-code contract -------------------------------------------------------------

_APPLY = ["apply", "--input", "{i12}", "--op", "maximal"]


@pytest.mark.parametrize(
    "argv, code, outputs, stderr",
    [
        (_APPLY + ["--grid", "1:2"], 2, {}, "error: --grid wants a:b:count"),
        (_APPLY + ["--grid", "0:1:x"], 2, {}, "error: grid count must be an integer"),
        (_APPLY + ["--grid", "0:1:0"], 2, {}, "error: grid count must be >= 1"),
        (["norm", "--params", "1,1,2,0"], 2, {}, "required: --input"),
        (["norm", "--input", "missing.json", "--params", "1,1,2,0"], 2, {}, "error: cannot read"),
        (["apply", "--input", "{i12}", "--grid", "0:1:3"], 2, {}, "required: --op"),
        (_APPLY, 2, {}, "required: --grid"),
        (["verify"], 2, {}, "required: --theorem"),
        (["sweep", "--params", "1,1,2,0"], 2, {}, "required: --op"),
        (["sweep", "--op", "e-of-N", "--params", "1,1,2,0"], 2, {}, "e-of-N needs --input"),
        (_APPLY + ["--grid", "0.5,3/2,2.5"], 0, {"apply.csv": None, "apply.json": [0.5, 1.5, 2.5]}, ""),
        (["norm", "--input", "{i12}", "--params", "1,1,2,0", "--out", "n.json"], 0, {"n.json": None}, ""),
        (["decompose", "--input", "{i12}", "--params", "1,1,2,-1", "--op", "homogeneous"], 3, {},
         "hypothesis violation"),
    ],
    ids=[
        "grid-two-fields", "grid-count-not-integer", "grid-count-zero", "no-input",
        "unreadable-input", "apply-no-op", "apply-no-grid", "verify-no-theorem", "sweep-no-op",
        "e-of-N-no-input", "grid-comma-list", "out-with-extension", "homogeneous-alpha-minus-1",
    ],
)
def test_exit_code_contract(tmp_path, monkeypatch, capsys, i12, argv, code, outputs, stderr):
    # outputs: every file the run writes in the working directory, with the
    # grid its JSON report must echo where one is given.  A missing flag is a
    # usage error (argparse exits 2); a bad value or file returns 2 with "error: ...".
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    try:
        rc = main([a.format(i12=i12) for a in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert stderr in capsys.readouterr().err
    assert sorted(p.name for p in work.iterdir()) == sorted(outputs)
    for name, grid in outputs.items():
        if grid is not None:
            assert json.loads((work / name).read_text())["grid"] == grid


# -- the flags each subcommand reads ------------------------------------------------

FLAGS_READ = {
    "norm": {"input", "params", "out"},
    "decompose": {"input", "params", "op", "seed", "out"},
    "apply": {"input", "op", "schedule", "grid", "tolerance", "out"},
    "verify": {"theorem", "seed", "out"},
    "sweep": {"input", "params", "op", "schedule", "out"},
}

# one complete run per subcommand, each exiting 0 and writing its report on its own
_RUNS = {
    "norm": ["norm", "--input", "{ball}", "--params", "1,1,2,0"],
    "decompose": ["decompose", "--input", "{ball}", "--params", "1,1,2,0"],
    "apply": ["apply", "--input", "{ball}", "--op", "maximal", "--grid", "0:1:3"],
    "verify": ["verify", "--theorem", "5.3"],
    "sweep": ["sweep", "--op", "e-of-N", "--input", "{ball}", "--params", "1,1,2,0", "--schedule", "1"],
}
_VALUES = {
    "input": "{ball}", "params": "1,1,2,0", "op": "hilbert", "theorem": "4.1", "schedule": "1",
    "grid": "0:1:3", "seed": "1", "out": "x", "tolerance": "1e-4",
}


FLAGS_NEEDED = {
    "norm": {"input", "params"},
    "decompose": {"input", "params"},
    "apply": {"input", "op", "grid"},
    "verify": {"theorem"},
    "sweep": {"op", "params"},
}

# subcommand -> --op route -> the flags that only this route reads
ROUTE_FLAGS = {
    "decompose": {"nonhomogeneous": set(), "homogeneous": set(), "upper-bound": {"seed"}},
    "apply": {
        "hilbert": set(),
        "hilbert_truncated": {"schedule"},
        "hilbert_maximal": {"schedule"},
        "sn": {"schedule"},
        "carleson": {"schedule", "tolerance"},
        "maximal": set(),
    },
    "sweep": {"e-of-N": {"input"}, "hilbert": set(), "hilbert_maximal": set(), "carleson": set(), "sn": set()},
}

# each subcommand with its needed flags but no --op
_ROUTE_RUNS = {
    "decompose": ["decompose", "--input", "{ball}", "--params", "1,1,2,0"],
    "apply": ["apply", "--input", "{ball}", "--grid", "0:1:3"],
    "sweep": ["sweep", "--params", "1,1,2,0"],
}


def _subparsers():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_each_subcommand_needs_its_required_flags():
    got = {
        name: {a.dest for a in sub._actions if a.required}
        for name, sub in _subparsers().items()
    }
    assert got == FLAGS_NEEDED


def test_op_and_theorem_take_only_known_choices():
    got = {
        name: {a.dest: set(a.choices) for a in sub._actions if a.choices is not None}
        for name, sub in _subparsers().items()
    }
    theorems = {"2.1", "2.2", "3.1", "4.1", "5.2", "5.3", "6.1.pointwise", "6.3", "all"}
    assert got == {
        "norm": {},
        "decompose": {"op": set(ROUTE_FLAGS["decompose"])},
        "apply": {"op": set(ROUTE_FLAGS["apply"])},
        "verify": {"theorem": theorems},
        "sweep": {"op": set(ROUTE_FLAGS["sweep"])},
    }
    assert {sub: {r: set(f) for r, f in routes.items()} for sub, routes in cli._ROUTES.items()} == ROUTE_FLAGS


@pytest.mark.parametrize(
    "sub, route, flag",
    [("decompose", None, "seed")]
    + [
        (sub, route, flag)
        for sub, routes in ROUTE_FLAGS.items()
        for route in routes
        for flag in sorted(set().union(*routes.values()) - routes[route])
    ],
)
def test_flag_the_route_does_not_read_exits_2(tmp_path, monkeypatch, capsys, ball, sub, route, flag):
    # a route-only flag on any other route would be echoed as if it took effect
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    op = [] if route is None else ["--op", route]
    argv = [a.format(ball=ball) for a in _ROUTE_RUNS[sub] + op + [f"--{flag}", _VALUES[flag]]]
    err = usage_error(argv, capsys)
    assert f"{sub} --op {route or 'nonhomogeneous'} does not read --{flag}" in err
    assert list(work.iterdir()) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row starts with header, as cells."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell: str) -> tuple[str, ...]:
    return tuple(name.removeprefix("--") for name in re.findall(r"`([^`]+)`", cell))


def test_readme_flag_tables_match_the_parser():
    flags = {
        _names(sub)[0]: (_names(needs), _names(takes))
        for sub, needs, takes in _readme_table("| subcommand  | needs")
    }
    assert flags == {name: (needs, takes) for name, (_, needs, takes) in cli._SUBCOMMANDS.items()}

    routes, needed, defaults = {}, {}, {}
    for sub, ops, only in _readme_table("| subcommand  | `--op` routes"):
        (sub,) = _names(sub)
        for op in _names(ops):
            routes.setdefault(sub, {})[op] = set(_names(only))
            if "(needed)" in only:
                needed[(sub, op)] = _names(only)
        defaults.update((sub, op) for op in re.findall(r"`([^`]+)` \(the default\)", ops))
    assert routes == {sub: {r: set(f) for r, f in rs.items()} for sub, rs in cli._ROUTES.items()}
    assert needed == cli._ROUTE_NEEDS
    # the first route of a table is the one taken without --op
    assert defaults == {"decompose": next(iter(cli._ROUTES["decompose"]))}


def test_each_subcommand_exposes_only_the_flags_it_reads():
    got = {
        name: {a.dest for a in sub._actions if a.dest != "help"}
        for name, sub in _subparsers().items()
    }
    assert got == FLAGS_READ
    assert sum(len(flags) for flags in got.values()) == 22


@pytest.mark.parametrize(
    "sub, flag",
    [(sub, flag) for sub in FLAGS_READ for flag in _VALUES if flag not in FLAGS_READ[sub]],
)
def test_unread_flag_exits_2(tmp_path, monkeypatch, capsys, ball, sub, flag):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [a.format(ball=ball) for a in _RUNS[sub] + [f"--{flag}", _VALUES[flag]]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_readme_cli_examples_parse():
    lines = [line for line in README.read_text().splitlines() if line.startswith("blockspaces ")]
    for line in lines:
        cli._parse_argv(shlex.split(line, comments=True)[1:])
    assert {shlex.split(line)[1] for line in lines} == set(FLAGS_READ)
