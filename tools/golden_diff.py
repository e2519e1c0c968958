"""Summarize how the working-tree goldens differ from the committed ones.

Compares every file under `tests/golden` with its copy at `HEAD` and prints:

- each changed JSON key, with the number of files it changed in and its
  largest absolute and relative delta.  List indices are folded into `[]`,
  except that a list entry holding a "criterion" is named by it, so every
  verdict keeps its own key;
- keys added or removed, and non-JSON files whose bytes differ;
- any flip of a verdict's (or a report's) `passed` flag.

Run from anywhere inside the repository, after a re-record:

    python3 tools/golden_diff.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
from collections import defaultdict
from pathlib import Path

ROOT = Path(
    subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
    ).stdout.strip()
)
GOLDEN = "tests/golden"


def committed(rel: str) -> bytes | None:
    run = subprocess.run(["git", "show", f"HEAD:{rel}"], cwd=ROOT, capture_output=True)
    return run.stdout if run.returncode == 0 else None


def committed_files() -> set[str]:
    run = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", "HEAD", GOLDEN],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return set(run.stdout.split())


def leaves(node, path: str = ""):
    """(key, value) for every scalar in a JSON document, keyed as described above."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            tag = v["criterion"] if isinstance(v, dict) and "criterion" in v else ""
            # an unnamed entry keeps its index so that two entries never share a key
            yield from leaves(v, f"{path}[{tag}]" if tag else f"{path}[]#{i}")
    else:
        yield path, node


def keyed(doc) -> dict:
    return dict(leaves(doc))


def folded(key: str) -> str:
    """The key with unnamed list indices dropped, for grouping."""
    return re.sub(r"\[\]#\d+", "[]", key)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main() -> None:
    rels = sorted(committed_files() | {
        str(p.relative_to(ROOT)) for p in (ROOT / GOLDEN).rglob("*") if p.is_file()
    })
    # folded key -> [files, leaves, max abs delta, max rel delta, kind]
    stats: dict[str, list] = defaultdict(lambda: [set(), 0, 0.0, 0.0, "changed"])
    flips, other = [], []
    changed_files = 0
    for rel in rels:
        old = committed(rel)
        path = ROOT / rel
        new = path.read_bytes() if path.exists() else None
        if old == new:
            continue
        changed_files += 1
        if old is None or new is None or not rel.endswith(".json"):
            other.append(f"{rel}: {'added' if old is None else 'removed' if new is None else 'bytes differ'}")
            continue
        a, b = keyed(json.loads(old)), keyed(json.loads(new))
        for key in sorted(a.keys() | b.keys()):
            va, vb = a.get(key), b.get(key)
            if key in a and key in b and repr(va) == repr(vb):
                continue
            row = stats[folded(key)]
            row[0].add(rel)
            row[1] += 1
            if key not in b or key not in a:
                row[4] = "removed" if key not in b else "added"
            elif is_number(va) and is_number(vb):
                d = abs(vb - va)
                row[2] = max(row[2], d)
                row[3] = max(row[3], d / abs(va) if va else math.inf)
            if key.split(".")[-1] == "passed" and key in a and key in b:
                flips.append(f"{rel}: {key}: {va} -> {vb}")
    print(f"{changed_files} files changed under {GOLDEN}")
    for key, (files, n, d_abs, d_rel, kind) in sorted(stats.items()):
        delta = f"max abs {d_abs:.6g}, max rel {d_rel:.6g}" if kind == "changed" else kind
        print(f"{key}: {len(files)} files, {n} values, {delta}")
    for line in other:
        print(line)
    print(f"passed flips: {len(flips)}")
    for line in flips:
        print(f"  {line}")


if __name__ == "__main__":
    main()
