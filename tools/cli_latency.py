"""Per-invocation CLI latency of two revisions, alternating, on cli-oneshot's script.

    python3 tools/cli_latency.py --parent HEAD --change $(git write-tree) \
        --scratch /tmp/lat --rounds 6 --seed 101

Each revision (any tree-ish) is `git archive`d into its own directory under
--scratch.  The invocations are those of perfbench's cli-oneshot workload
(`perfbench/cli_oneshot.build_script(seed)`, imported from this checkout and
not changed), each run as that workload runs it: a fresh interpreter with
`python -c "...main(sys.argv[1:])"`, the spec files in a fresh directory,
one BLAS thread, PYTHONDONTWRITEBYTECODE=1 and no `__pycache__` in the tree.
Every round runs every invocation once on each tree, the parent first in
even rounds; the time is spawn to exit.  An exit code other than the
script's expected one is reported and the table still printed.

The table gives each invocation's median over the rounds on both sides,
their ratio and the rounds in which the change was faster, then the sum of
the medians.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from ab_bench import archive  # noqa: E402  (tools/ is this script's directory)
from cli_oneshot import RUN_CODE, build_script  # noqa: E402
from common import child_env  # noqa: E402


def spawn(tree: Path, cwd: Path, argv: list[str]) -> tuple[int, float]:
    """(exit code, seconds from spawn to exit) of one CLI run against tree's src.

    The tree is a fresh archive and no run writes bytecode, so every run
    compiles what it imports, as the benchmark's runs do.
    """
    env = {**child_env(), "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter_ns()
    code = subprocess.run([sys.executable, "-c", RUN_CODE, *argv], cwd=cwd, env=env, capture_output=True).returncode
    return code, (time.perf_counter_ns() - start) / 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="tree-ish of the parent side")
    ap.add_argument("--change", required=True, help="tree-ish of the change side")
    ap.add_argument("--scratch", required=True, type=Path, help="directory outside the checkout for both trees")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--seed", type=int, default=101, help="cli-oneshot's benchmark seed")
    args = ap.parse_args(argv)

    sides = ("parent", "change")
    trees = {side: args.scratch / side for side in sides}
    for side in sides:
        archive(getattr(args, side), trees[side])
    script, specs = build_script(args.seed)
    times = {side: [[] for _ in script] for side in sides}
    bad = []
    for r in range(args.rounds):
        for i, inv in enumerate(script):
            for side in sides if r % 2 == 0 else sides[::-1]:
                cwd = args.scratch / "runs" / side / f"{i:02d}-{inv.name}"
                shutil.rmtree(cwd, ignore_errors=True)
                cwd.mkdir(parents=True)
                for name, spec in specs.items():
                    (cwd / name).write_text(json.dumps(spec))
                code, seconds = spawn(trees[side], cwd, inv.argv)
                times[side][i].append(seconds)
                if code != inv.expected_code:
                    bad.append(f"round {r} {side} {inv.name}: exit {code}, expected {inv.expected_code}")
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr, flush=True)

    print(f"median spawn-to-exit latency over {args.rounds} alternating rounds, cli-oneshot seed {args.seed}")
    print("invocation | subcommand | parent ms | change ms | change/parent | change faster")
    totals = dict.fromkeys(sides, 0.0)
    for i, inv in enumerate(script):
        med = {side: statistics.median(times[side][i]) for side in sides}
        for side in sides:
            totals[side] += med[side]
        faster = sum(c < p for p, c in zip(times["parent"][i], times["change"][i]))
        print(f"{inv.name} | {inv.argv[0]} | {1e3 * med['parent']:.1f} | {1e3 * med['change']:.1f} | "
              f"{med['change'] / med['parent']:.3f} | {faster}/{args.rounds}")
    print(f"sum of medians | | {1e3 * totals['parent']:.1f} | {1e3 * totals['change']:.1f} | "
          f"{totals['change'] / totals['parent']:.3f} |")
    for line in bad:
        print("unexpected exit:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
