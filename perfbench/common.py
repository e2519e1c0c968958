"""Shared plumbing for the benchmark: paths, child processes, statistics.

Every process the benchmark starts runs one interpreter with a single BLAS
thread, from the root of the checkout, with only the checkout's `src` on the
import path, so the package under test is always the one built from this
tree.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: one client, one process, no threads of its own; BLAS pinned to match
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in _THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def pin_threads() -> None:
    """Pin BLAS threads in this process; call before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def now_ns() -> int:
    """CLOCK_MONOTONIC, which is shared by every process on the machine."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class ChildRun:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    start_ns: int


def spawn(argv: list[str], cwd: Path, name: str, timeout: float = 170.0) -> ChildRun:
    """Run one child to completion; wall time is spawn to exit, RSS its own peak."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"{name}.stdout"
    err_path = WORK / f"{name}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = now_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        # a hung child is killed by the alarm; wait4 then reaps it
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(int(timeout))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=(end - start) / 1e9,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        start_ns=start,
    )


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def setup_seconds(count: int) -> list[float]:
    """Fresh interpreter start to `import blockspaces` done, `count` times."""
    code = (
        "import time, blockspaces; "
        "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    )
    out = []
    for i in range(count):
        run = spawn(python_argv("-c", code), ROOT, f"setup{i}")
        if run.code != 0:
            raise RuntimeError(f"import blockspaces failed:\n{run.stderr}")
        out.append((int(run.stdout.split()[-1]) - run.start_ns) / 1e9)
    return out


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples no such percentile exists and the maximum
    is returned with percentile 100.
    """
    s = sorted(xs)
    if len(s) < 11:
        return 100.0, float(s[-1])
    i = len(s) - 11
    return 100.0 * (i + 1) / len(s), float(s[i])


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
