"""Alternating A/B runs of perfbench between two revisions of this repository.

    python3 tools/ab_bench.py --parent HEAD --change $(git write-tree) \
        --scratch /tmp/ab --pairs 10 --seconds 10 --out ab.json

Each revision (any tree-ish: a commit, or `git write-tree` of the staged
change) is `git archive`d into its own directory under --scratch.  For every
workload the script runs `perfbench/run.py --trace 0` on both trees for
--pairs pairs; pair i uses seed --seed + 100 w + i for the w-th workload
and runs the parent first when i is even.  Each run starts with no
`__pycache__` in its tree, PYTHONDONTWRITEBYTECODE=1 and PYTHONPATH unset,
so both sides compile and import alike.  Nothing under `perfbench/` is
changed: the script only runs it and reads what it writes to
`.perfbench_work/` (the result line, the full result, and for large-input
the worker's per-operation pass times).

For each metric it prints each side's median and quartiles, the number of
pairs in which the change was lower, and whether the gap between the medians
exceeds the parent's interquartile distance.  --out writes every run and
that summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("verify-all", "cli-oneshot", "large-input")


def archive(rev: str, dest: Path) -> None:
    """The tree of rev, fresh, at dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            t.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its result line, its full result and, for large-input, per-operation times."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    out = {"rc": proc.returncode}
    if proc.returncode != 0:
        out["stderr"] = proc.stderr[-2000:]
        return out
    out["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    work = tree / ".perfbench_work"
    full = json.loads((work / f"result-{workload}-seed{seed}-trace0.json").read_text())
    out["metrics"] = {name: value for name, (value, _unit) in full["end_to_end"].items()}
    if workload == "large-input":
        passes = json.loads((work / "large-untraced.json").read_text())["passes"]
        out["operations_ms"] = {op: [1e3 * p[op] for p in passes] for op in passes[0]}
    return out


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"n": len(xs), "min": min(xs), "q1": q1, "median": median, "q3": q3, "max": max(xs)}


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides' quartiles, the pairs the change was lower in, and the median gap against the parent's IQR."""
    p, c = quartiles(parent), quartiles(change)
    iqr, gap = p["q3"] - p["q1"], abs(c["median"] - p["median"])
    return {
        "parent": p,
        "change": c,
        "change_lower_pairs": sum(b < a for a, b in zip(parent, change)),
        "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else None,
        "median_gap_over_parent_iqr": gap / iqr if iqr else (float("inf") if gap else 0.0),
        "median_gap_exceeds_parent_iqr": gap > iqr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="tree-ish of the parent side")
    ap.add_argument("--change", required=True, help="tree-ish of the change side")
    ap.add_argument("--scratch", required=True, type=Path, help="directory outside the checkout for both trees")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=3300)
    ap.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    args = ap.parse_args(argv)

    trees = {side: args.scratch / side for side in ("parent", "change")}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        archive(rev, trees[side])
    runs, summary = [], {}
    for w, workload in enumerate(args.workloads):
        for i in range(args.pairs):
            seed = args.seed + 100 * w + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                got = run(trees[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "pair": i, "seed": seed, "side": side, "first": order[0], **got})
                metrics = got.get("metrics", {})
                print(f"{workload} pair {i} seed {seed} {side}: rc {got['rc']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        mine = [r for r in runs if r["workload"] == workload and r["rc"] == 0]
        by_side = {side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["pair"]) for side in trees}
        if len(by_side["parent"]) != len(by_side["change"]):
            print(f"{workload}: a run failed, no summary", flush=True)
            continue
        entry = {
            "failed": {side: sum(r["result"]["failed"] for r in rs) for side, rs in by_side.items()},
            "correct": {side: all(r["result"]["correct"] for r in rs) for side, rs in by_side.items()},
        }
        for name in by_side["parent"][0]["metrics"]:
            entry[name] = compare(*([r["metrics"][name] for r in by_side[side]] for side in ("parent", "change")))
        if workload == "large-input":
            ops = by_side["parent"][0]["operations_ms"]
            entry["operations_ms"] = {
                op: {side: statistics.median(t for r in rs for t in r["operations_ms"][op]) for side, rs in by_side.items()}
                for op in ops
            }
        summary[workload] = entry
        for name, row in entry.items():
            if isinstance(row, dict) and "parent" in row and isinstance(row["parent"], dict):
                p, c = row["parent"], row["change"]
                print(f"{workload} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                      f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                      f"lower in {row['change_lower_pairs']}/{p['n']}  "
                      f"gap/IQR {row['median_gap_over_parent_iqr']:.2f}"
                      f"{' (exceeds)' if row['median_gap_exceeds_parent_iqr'] else ''}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"parent": args.parent, "change": args.change, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
