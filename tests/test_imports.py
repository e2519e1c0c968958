"""What each entry point imports, each measured in a fresh interpreter.

`import blockspaces` loads no submodule, and each CLI subcommand loads the
modules it runs: a short CLI run pays for nothing else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockspaces
from blockspaces.cli import main

SRC = str(Path(blockspaces.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

#: the modules of every run: the package, its version and the CLI's own imports
CLI = {"blockspaces", "blockspaces._version", "blockspaces.cli", "blockspaces.io", "blockspaces.params", "blockspaces.piecewise"}


def loaded_after(code: str, cwd) -> dict:
    """Run code in a fresh interpreter; the blockspaces modules it leaves loaded, and whether numpy is."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps({'blockspaces': sorted(m for m in sys.modules if m.split('.')[0] == 'blockspaces'),"
        " 'numpy': 'numpy' in sys.modules}))"
    )
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "i12.json"
    path.write_text(json.dumps({"type": "indicator", "a": 1, "b": 2}))
    return str(path)


def test_package_import_loads_only_its_version(tmp_path):
    assert loaded_after("import blockspaces", tmp_path) == {
        "blockspaces": ["blockspaces", "blockspaces._version"],
        "numpy": False,
    }


@pytest.mark.parametrize(
    "argv, modules, numpy",
    [
        (["norm", "--params", "1,1,2,0"], {"blockspaces.norms"}, False),
        (["decompose", "--params", "1,1,2,0"], {"blockspaces.norms", "blockspaces.blocks"}, False),
        (
            ["apply", "--op", "hilbert", "--grid", "0.5,1.5,2.5"],
            {"blockspaces.operators", "blockspaces.lattice", "blockspaces.sine_integral", "blockspaces._si_table"},
            True,
        ),
    ],
    ids=["norm", "decompose", "apply"],
)
def test_a_subcommand_loads_the_modules_it_runs(tmp_path, spec, argv, modules, numpy):
    # neither verify nor quadrature, and norm leaves the operators unloaded;
    # norm and decompose sum closed forms over tuples and load no numpy
    argv = argv + ["--input", spec, "--out", str(tmp_path / "out")]
    code = f"from blockspaces.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, tmp_path) == {"blockspaces": sorted(CLI | modules), "numpy": numpy}


def test_sine_integral_is_the_function_after_its_submodule_loads(tmp_path):
    code = (
        "import blockspaces.operators\n"
        "from blockspaces import sine_integral\n"
        "assert callable(sine_integral) and sine_integral.__name__ == 'sine_integral'\n"
        "assert blockspaces.sine_integral is sine_integral\n"
        "assert sys.modules['blockspaces.sine_integral'].sine_integral is sine_integral"
    )
    assert "blockspaces.sine_integral" in loaded_after("import sys\n" + code, tmp_path)["blockspaces"]


def test_claim_ids_load_every_module_the_harnesses_reach(tmp_path):
    # the two imports a timed verify run makes before its clock starts: running
    # every claim after them (exit 5: claim 3.1 has red legs) loads nothing more
    imports = "from blockspaces import THEOREM_IDS\nfrom blockspaces.cli import main\n"
    ran = imports + "assert main(['verify', '--theorem', 'all', '--out', 'v']) in (0, 5)"
    assert loaded_after(ran, tmp_path) == loaded_after(imports, tmp_path)


#: the modules of a run of verify or sweep: every harness module but the CLI's own
HARNESS = {
    "blockspaces._si_table", "blockspaces.blocks", "blockspaces.lattice", "blockspaces.norms",
    "blockspaces.operators", "blockspaces.quadrature", "blockspaces.sine_integral", "blockspaces.verify",
}


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--op", "e-of-N", "--params", "1,1,2,-1/2", "--schedule", "1,2"], ["verify", "--theorem", "6.3"]],
    ids=["sweep-e-of-N", "verify-6.3"],
)
def test_e_of_n_loads_no_scipy(tmp_path, spec, argv):
    # e(N)'s closed-form tails take Si's auxiliary series and a Gauss-Jacobi
    # rule from numpy.linalg: the run loads the harness modules, and outside
    # the standard library only blockspaces and numpy (scipy.special alone
    # would add about 0.18 s of import)
    argv = argv + (["--input", spec] if argv[0] == "sweep" else []) + ["--out", str(tmp_path / "out")]
    code = (
        "import json, sys\n"
        "top = lambda: {m.split('.')[0] for m in sys.modules} - set(sys.stdlib_module_names)\n"
        "start = top()\n"  # what the interpreter's site hooks load
        "from blockspaces.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(top() - start)))"
    )
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == ["blockspaces", "numpy"]
    assert loaded_after(f"from blockspaces.cli import main\nmain({argv!r})", tmp_path)["blockspaces"] == sorted(CLI | HARNESS)


def test_python_m_runs_the_cli(tmp_path, spec, capsys):
    argv = ["norm", "--input", spec, "--params", "1,1,2,0", "--out", str(tmp_path / "n")]
    code = main(argv)
    want = capsys.readouterr().out
    run = subprocess.run([sys.executable, "-m", "blockspaces", *argv], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (code, want)
