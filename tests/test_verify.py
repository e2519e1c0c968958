"""Verification harness semantics: determinism, hypothesis honesty, dispatch."""

import json
import math
import types
from dataclasses import asdict

import numpy as np
import pytest

import blockspaces
from blockspaces import THEOREM_IDS, WeightParams, run_theorem
from blockspaces import verify
from blockspaces.blocks import make_canonical_block
from blockspaces.io import dumps, report_to_dict


def test_registered_ids():
    assert THEOREM_IDS == ("2.1", "2.2", "3.1", "4.1", "5.2", "5.3", "6.1.pointwise", "6.3")


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        run_theorem("9.9")


def test_package_exports_exactly_its_public_names():
    # the harnesses are private: run_theorem is the one way to run a claim
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
    # every scale, so each operator runs once per scale: 13 scales x 5
    # operators, where one run per (operator, point) would be 117
    a, b = verify._BLOCK_GRID
    for k in range(-6, 7):
        assert make_canonical_block(a, k).data == make_canonical_block(b, k).data
    calls = []

    def fake_block_values(op, f, k):
        calls.append((op, k))
        return np.ones(3), np.ones(3), np.ones(3)

    monkeypatch.setattr(verify, "_block_values", fake_block_values)
    rep = run_theorem("3.1")
    assert len(calls) == len(set(calls)) == 65
    assert len(rep.verdicts) == 9


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
