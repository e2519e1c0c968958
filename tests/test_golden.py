"""Verify reports are byte-identical to the recorded references.

`perfbench/reference/verify/seed{k}/claim.<tid>.json` holds the report that
`blockspaces verify --theorem <tid> --seed <k> --out claim.<tid>` writes.
The cheap claims are rerun here for seeds 0-3 and compared byte for byte;
3.1 and 6.3 take tens of seconds each and are left to the benchmark.
"""

from pathlib import Path

import pytest

from blockspaces.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify"
CHEAP_CLAIMS = ("2.1", "2.2", "4.1", "5.2", "5.3", "6.1.pointwise")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tid", CHEAP_CLAIMS)
def test_report_bytes_match_reference(tid, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "--theorem", tid, "--seed", str(seed), "--out", f"claim.{tid}"])
    assert rc == 0
    got = (tmp_path / f"claim.{tid}.json").read_bytes()
    assert got == (REFERENCE / f"seed{seed}" / f"claim.{tid}.json").read_bytes()
