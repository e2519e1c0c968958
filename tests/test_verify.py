"""Verification harness semantics: determinism, hypothesis honesty, dispatch."""

import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import blockspaces
from blockspaces import THEOREM_IDS, PiecewiseConstant1D, WeightParams, maximal_1d_exact, run_theorem
from blockspaces import carleson, geometric_schedule, hilbert, hilbert_maximal, verify
from blockspaces.blocks import make_canonical_block
from blockspaces.io import dumps, report_to_dict
from blockspaces.quadrature import shell_grid, weighted_norm_from_samples


def test_registered_ids():
    assert THEOREM_IDS == ("2.1", "2.2", "3.1", "4.1", "5.2", "5.3", "6.1.pointwise", "6.3")


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        run_theorem("9.9")


def test_package_exports_exactly_its_public_names():
    # the harnesses are private: run_theorem is the one way to run a claim.
    # The namespace is lazy: dir() lists its names, and each binds on first
    # access, to an object that is never a submodule
    assert sorted(dir(blockspaces)) == sorted(blockspaces.__all__)
    for name in blockspaces.__all__:
        assert not isinstance(getattr(blockspaces, name), types.ModuleType), name
    public = {
        name
        for name, value in vars(blockspaces).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(blockspaces.__all__) == sorted(public | {"__version__"})
    assert not [name for name in dir(blockspaces) if name.startswith("verify_")]


def test_reports_are_deterministic():
    a = run_theorem("2.1", seed=0)
    b = run_theorem("2.1", seed=0)
    assert dumps(report_to_dict(a)) == dumps(report_to_dict(b))


def test_report_round_trip_preserves_verdicts():
    rep = run_theorem("5.3")
    back = json.loads(dumps(report_to_dict(rep)))
    assert back["theorem"] == rep.theorem
    assert back["verdicts"] == [asdict(v) for v in rep.verdicts]


def test_out_of_hypothesis_verdicts_are_abstentions():
    # alpha = -1/4 exceeds p/s - 1 at (p, s) = (1, 2), outside the L^s
    # inclusion's range: that verdict must neither pass nor fail, and the
    # report's pass rests on the in-hypothesis verdicts alone
    assert not WeightParams(1, 1.0, 2.0, -0.25).in_inclusion_range
    rep = run_theorem("2.2")
    (v,) = [v for v in rep.verdicts if v.criterion.endswith("[p=1,s=2,alpha=-0.25]")]
    assert v.out_of_hypothesis and v.passed is None
    assert rep.out_of_hypothesis
    assert rep.passed  # no in-hypothesis verdict failed


def test_block_bound_applies_each_operator_once_per_block(monkeypatch):
    # both parameter points of claim 3.1 give the same canonical block at
    # every scale, so each operator runs once per block, not once per
    # (block, point).  The maximal leg runs once per scale, and so does
    # dirichlet_sn, on the panels off the lattice Z/4.  The lattice cells of
    # all 13 blocks go to one kernel call of 13 rows (each block is its own
    # mirror), and so do hilbert's values on the scale-0 grid.  S_N and H_eps
    # run once per level, on a family of 13 rows, one per scale: 41 N levels
    # and 33 eps levels, where one run per scale would be 13 x 41 and 13 x 33
    a, b = verify._BLOCK_GRID
    for k in range(-6, 7):
        assert make_canonical_block(a, k).data == make_canonical_block(b, k).data
    calls = []

    def per_block(name):
        def fake(f, *args):
            calls.append((name, f))
            return np.ones(np.shape(args[-1]))

        return fake

    def per_level(name):
        def fake(bps, values, levels, x):
            calls.extend((name, level, len(values)) for level in levels)
            return np.ones((len(values), x.size))

        return fake

    for name in ("dirichlet_sn", "maximal_1d_exact"):
        monkeypatch.setattr(verify, name, per_block(name))

    def per_family(bps, values, x):
        calls.append(("hilbert", len(values)))
        return np.ones((len(values), x.size))

    monkeypatch.setattr(verify, "_hilbert_rows", per_family)
    monkeypatch.setattr(verify, "_sn_rows", per_level("S_N"))
    monkeypatch.setattr(verify, "_truncated_rows", per_level("H_eps"))
    lattice, kernel = [], verify._sn_error_on_lattice

    def counting_kernel(bps, *args):
        lattice.append(len(bps))
        return kernel(bps, *args)

    monkeypatch.setattr(verify, "_sn_error_on_lattice", counting_kernel)
    rep = run_theorem("3.1")
    assert lattice == [13]
    assert len(calls) == len(set(calls))
    assert Counter(c[0] for c in calls) == {
        "hilbert": 1, "dirichlet_sn": 13, "maximal_1d_exact": 13, "S_N": 41, "H_eps": 33,
    }
    assert ("hilbert", 13) in calls
    assert {c[2] for c in calls if len(c) == 3} == {13}
    assert len(rep.verdicts) == 9


def test_family_legs_reject_blocks_that_are_not_dilations_of_one_another():
    # hilbert, carleson and hilbert_maximal evaluate every block on the
    # scale-0 grid, which holds only for blocks that 2^-k pulls back to one
    # set of breakpoints
    f = make_canonical_block(verify._BLOCK_GRID[0], 0).data
    for op in ("hilbert", "carleson", "hilbert_maximal"):
        with pytest.raises(ValueError, match="dilations of one another"):
            list(verify._block_values(op, [(f, 0), (f, 1)]))


def test_family_legs_equal_the_public_operators_at_each_scale():
    # the carleson and hilbert_maximal rows, evaluated on the scale-0 grid and
    # schedule, have the bits of the public operator on the block at scale k,
    # its grid scaled by 2^k, N by 2^-k and eps by 2^k
    x0, w0 = shell_grid(*verify._BLOCK_SHELLS, verify._SHELL_NODES)
    N, eps = geometric_schedule(*verify._N_SCHEDULE), geometric_schedule(*verify._EPS_SCHEDULE)
    blocks = [(make_canonical_block(verify._BLOCK_GRID[0], k).data, k) for k in (-6, 0, 6)]
    for op, public in (
        ("carleson", lambda f, k, x: carleson(f, N * 2.0**-k, x)),
        ("hilbert_maximal", lambda f, k, x: hilbert_maximal(f, 2.0**k * eps, x)),
    ):
        for (f, k), (row, x, w) in zip(blocks, verify._block_values(op, blocks), strict=True):
            assert x.tobytes() == np.ldexp(x0, k).tobytes()
            assert w.tobytes() == np.ldexp(w0, k).tobytes()
            assert row.tobytes() == public(f, k, x).tobytes()


def test_mirrored_legs_equal_the_full_grid_bit_for_bit():
    # the hilbert and carleson legs evaluate the positive half of the shell
    # grid and give the negative half as -1 (odd Hf) or +1 (even S_N f)
    # times those values reversed.  That the bits match the whole grid's
    # rests on the BLAS summing each 4-term dot product of the 4-breakpoint
    # blocks in an order that reversal keeps, as the goldens rest on its sums
    x0, _ = shell_grid(*verify._BLOCK_SHELLS, verify._SHELL_NODES)
    assert x0.tobytes() == (-x0[::-1]).tobytes()
    lo, hi = verify._BLOCK_SCALES[0], verify._BLOCK_SCALES[-1]
    ks = [lo, lo // 2, -300, -6, 0, 6, 300, hi // 2, hi]
    N = geometric_schedule(*verify._N_SCHEDULE)
    for params in verify._BLOCK_GRID:
        blocks = [(make_canonical_block(params, k).data, k) for k in ks]
        for (f, k), (row, _, _) in zip(blocks, verify._block_values("hilbert", blocks), strict=True):
            assert row.tobytes() == hilbert(f, np.ldexp(x0, k)).tobytes(), (params, k)
        bps = np.asarray(blocks[ks.index(0)][0].breakpoints)
        want = verify._sn_rows(bps, np.array([f.values for f, _ in blocks]), N, x0)
        for (row, _, _), expected, k in zip(verify._block_values("carleson", blocks), want, ks, strict=True):
            assert row.tobytes() == expected.tobytes(), (params, k)


def test_mirrored_legs_reject_blocks_that_are_not_even():
    # the mirror holds for even blocks only, which make_canonical_block always builds
    for f in (
        PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 2.0)),
        PiecewiseConstant1D((-1.0, -0.5, 0.25, 1.0), (1.0, 0.0, 1.0)),
    ):
        for op in verify._MIRRORED_LEGS:
            with pytest.raises(ValueError, match="not even"):
                list(verify._block_values(op, [(f, 0)]))


def test_maximal_leg_is_the_exact_evaluator_on_the_shell_grid():
    # k = 0 block norm of M at (1, 2, -1/2), stable as the shell nodes double
    params = WeightParams(1, 1.0, 2.0, -0.5)
    want = 6.335462841364244
    assert verify._block_norms("hl_maximal", (params,), [0]) == [[want]]
    f = make_canonical_block(params, 0).data
    for nodes in (48, 96):
        x, w = shell_grid(*verify._BLOCK_SHELLS, nodes)
        got = weighted_norm_from_samples(maximal_1d_exact(f, x), x, w, params.p, params.alpha)
        assert abs(got / want - 1.0) <= 1e-15


def test_claims_load_no_scipy():
    src = str(Path(blockspaces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, blockspaces\n"
        "for tid in blockspaces.THEOREM_IDS: blockspaces.run_theorem(tid, 0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # nor numpy.ma, which np.unique's first call imports (10 to 30 ms)
    assert run.stdout.strip() == "[]"


def test_in_hypothesis_verdicts_carry_booleans():
    rep = run_theorem("6.1.pointwise")
    assert rep.verdicts
    for v in rep.verdicts:
        if not v.out_of_hypothesis:
            assert isinstance(v.passed, bool)


def test_inclusion_constants_stable_across_seeds():
    # 2.1 and 2.2 together measure all three inclusion legs
    for tid in ("2.1", "2.2"):
        rep = run_theorem(tid)
        assert rep.passed
        # every ratio verdict is a genuine measurement with a finite value
        for v in rep.verdicts:
            if not v.out_of_hypothesis:
                assert math.isfinite(v.value)


def test_measurements_are_json_ready():
    rep = run_theorem("5.3")
    s = dumps(report_to_dict(rep))
    assert '"theorem": "5.3"' in s
    # provenance echoes enough to rerun the harness
    assert "seed" in s or "seeds" in s
