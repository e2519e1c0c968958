"""CLI outputs are byte-identical to the recorded golden set.

Each case runs one cheap `blockspaces` invocation in an empty working
directory, with relative input paths so the provenance echo is the same on
every machine, and compares the exit code, stdout and every written file
byte for byte with `tests/golden/cli/<case>/`.

Re-record (only when a change moves these bytes on purpose, and say so):

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from blockspaces.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
EXIT_CODE = "exit_code.txt"
STDOUT = "stdout.txt"

SPECS = {
    "ball.json": {"type": "indicator", "a": -1, "b": 1},
    "unit.json": {"type": "indicator", "a": 0, "b": 1},
    "i12.json": {"type": "indicator", "a": 1, "b": 2},
    "b4.json": {"type": "indicator", "a": -4, "b": 4},
    "quarter.json": {"type": "indicator", "a": 0.25, "b": 0.5},
    "shell.json": {"breakpoints": [-1.0, -0.5, 0.5, 1.0], "values": [1.0, 0.0, 1.0]},
}

GRID = "--grid=-3/2:5/2:5"  # -1.5, -0.5, 0.5, 1.5, 2.5: clear of the jumps at 1 and 2

CASES = {
    "norm-ball": ["norm", "--input", "ball.json", "--params", "1,1,2,0"],
    "norm-divergent": ["norm", "--input", "unit.json", "--params", "1,1,2,-1"],
    "decompose-nonhomogeneous": ["decompose", "--input", "b4.json", "--params", "1,1,2,0"],
    "decompose-homogeneous": [
        "decompose", "--input", "shell.json", "--params", "1,1,2,0", "--op", "homogeneous",
    ],
    "decompose-upper-bound": [
        "decompose", "--input", "ball.json", "--params", "1,1,2,-1/2", "--op", "upper-bound",
    ],
    "apply-hilbert": ["apply", "--input", "i12.json", "--op", "hilbert", GRID],
    "apply-hilbert_truncated": ["apply", "--input", "i12.json", "--op", "hilbert_truncated", GRID],
    "apply-hilbert_maximal": ["apply", "--input", "i12.json", "--op", "hilbert_maximal", GRID],
    "apply-sn": ["apply", "--input", "i12.json", "--op", "sn", "--schedule", "16", GRID],
    "apply-carleson": [
        "apply", "--input", "i12.json", "--op", "carleson", "--tolerance", "1e-4", GRID,
    ],
    "apply-maximal": ["apply", "--input", "i12.json", "--op", "maximal", GRID],
    "sweep-e-of-N": [
        "sweep", "--input", "quarter.json", "--op", "e-of-N", "--params", "1,1,2,-1/2",
        "--schedule", "1,4,16",
    ],
    "sweep-block-scale": ["sweep", "--op", "hilbert", "--params", "1,1,2,-1/2", "--schedule=-1,0,1"],
    "sweep-carleson": ["sweep", "--op", "carleson", "--params", "1,1,2,-1/2", "--schedule=-1,0,1"],
    "sweep-hilbert_maximal": [
        "sweep", "--op", "hilbert_maximal", "--params", "1,1,2,-1/2", "--schedule=-1,0,1",
    ],
    "verify-5.3": ["verify", "--theorem", "5.3"],
}


def run_case(argv, cwd: Path) -> dict[str, bytes]:
    """Run one invocation in cwd; return its exit code, stdout and written files as bytes."""
    for name, spec in SPECS.items():
        (cwd / name).write_text(json.dumps(spec))
    out = io.StringIO()
    old_cwd = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    finally:
        os.chdir(old_cwd)
    got = {EXIT_CODE: f"{rc}\n".encode(), STDOUT: out.getvalue().encode()}
    for path in sorted(cwd.iterdir()):
        if path.name not in SPECS:
            got[path.name] = path.read_bytes()
    return got


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, tmp_path):
    got = run_case(CASES[case], tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}: {name} differs"


@pytest.mark.parametrize("case", sorted(CASES))
def test_provenance_echoes_the_flags_given(case):
    argv = CASES[case]
    given = {a[2:].split("=")[0] for a in argv if a.startswith("--")} - {"out"}
    (report,) = (GOLDEN / case).glob("*.json")
    provenance = json.loads(report.read_text())["provenance"]
    assert set(provenance["config"]) == given
    assert provenance["subcommand"] == argv[0]
    # only verify reads a seed
    assert ("seed" in provenance) == (argv[0] == "verify")


def test_no_golden_holds_a_numpy_repr():
    for path in GOLDEN.parent.rglob("*"):
        if path.is_file():
            assert b"np.float64(" not in path.read_bytes(), path


def record() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, Path(tmp))
        (GOLDEN / case).mkdir(parents=True)
        for name, data in got.items():
            (GOLDEN / case / name).write_bytes(data)


if __name__ == "__main__":
    record()
