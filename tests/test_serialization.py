"""Lossless written floats for functions, decompositions, reports, and curves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockspaces import PiecewiseConstant1D, WeightParams, decompose_nonhomogeneous
from blockspaces.io import (
    decomposition_to_dict,
    dumps,
    function_from_dict,
    function_to_dict,
    jsonsafe,
    load_function,
    read_csv,
    write_csv,
    write_json,
)

chi = PiecewiseConstant1D.indicator


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_survive_json(x):
    assert json.loads(dumps(x)) == x


def test_dumps_is_stable_text():
    s = dumps({"b": 1.5, "a": [2.0, 3.0]})
    assert s == '{\n  "a": [\n    2.0,\n    3.0\n  ],\n  "b": 1.5\n}\n'


def test_nonfinite_markers_round_trip():
    obj = {"a": math.inf, "b": [-math.inf, 1.0], "c": {"d": math.nan}}
    safe = jsonsafe(obj)
    json.dumps(safe, allow_nan=False)  # must not raise
    assert safe == {"a": "inf", "b": ["-inf", 1.0], "c": {"d": "nan"}}
    assert jsonsafe(math.inf) == "inf" and jsonsafe(2.5) == 2.5


def test_write_json_leaves_no_file_when_encoding_fails(tmp_path):
    p = tmp_path / "r.json"
    with pytest.raises(ValueError):
        write_json(str(p), {"a": math.nan})
    assert not p.exists()


def test_function_dict_round_trip():
    f = PiecewiseConstant1D((-1.0, 0.1, 2.0), (0.3, -7.25))
    g = function_from_dict(function_to_dict(f))
    assert g.breakpoints == f.breakpoints and g.values == f.values


def test_function_shorthand_forms():
    ind = function_from_dict({"type": "indicator", "a": 1, "b": 2})
    assert ind.equal_as_functions(chi(1.0, 2.0))
    scaled = function_from_dict({"type": "indicator", "a": 0, "b": 1, "value": 3})
    assert scaled.values == (3.0,)
    assert function_from_dict({"type": "zero"}).is_zero
    with pytest.raises(ValueError):
        function_from_dict({"type": "spline"})


def test_load_function_from_file(tmp_path):
    p = tmp_path / "f.json"
    write_json(str(p), function_to_dict(chi(0.0, 1.0)))
    assert load_function(str(p)).equal_as_functions(chi(0.0, 1.0))


def test_decomposition_round_trip_lossless():
    params = WeightParams(1, 1.0, 2.0, -0.5)
    dec = decompose_nonhomogeneous(chi(-4.0, 4.0), params)
    back = json.loads(dumps(decomposition_to_dict(dec)))
    assert back["coefficient_cost"] == dec.coefficient_cost
    assert len(back["terms"]) == len(dec.terms)
    for a, b in zip(back["terms"], dec.terms):
        assert a["lambda"] == b.lam and a["k"] == b.block.k
        block = function_from_dict(a["block"])
        assert block.breakpoints == b.block.data.breakpoints
        assert block.values == b.block.data.values


def test_decomposition_infinite_residual_encodes():
    params = WeightParams(1, 1.0, 2.0, -0.5)
    from blockspaces.blocks import Decomposition

    dec = Decomposition(params, (), True, PiecewiseConstant1D.zero(), math.inf)
    d = decomposition_to_dict(dec)
    assert d["residual_norm"] == "inf"


def test_csv_round_trip_exact(tmp_path):
    p = tmp_path / "curve.csv"
    rows = [(0.1, 1.0 / 3.0), (2.0 ** -40, math.pi)]
    write_csv(str(p), rows, header=("N", "error_norm"))
    text = p.read_text().splitlines()
    assert text[0] == "N,error_norm"
    back = read_csv(str(p))
    assert back == rows  # repr-exact floats


def test_csv_empty_rows(tmp_path):
    p = tmp_path / "empty.csv"
    write_csv(str(p), [])
    assert read_csv(str(p)) == []
    assert p.read_text().strip() == "x,value"
