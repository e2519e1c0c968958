"""verify-all workload: every registered claim, in a fresh interpreter per pass.

The worker (this file run as a script) runs the product's own verify command,
`blockspaces.cli.main(["verify", "--theorem", tid, "--seed", seed, "--out",
"claim.<tid>"])`, once for each of the eight THEOREM_IDS, from inside the
pass's output directory.  Each call runs `run_theorem(tid, seed)` and writes
one JSON report plus one CSV per curve through the public `io` writers, as
`verify --theorem all --out` does; the relative `--out` keeps the provenance
the report embeds the same in every pass.  The parent compares every report
with the reference recorded from commit ad40fe9: a claim that raises or exits
with a code other than 0 (passed) or 5 (a red verdict) is a failed operation,
and so is one whose verdicts or exit code differ from the reference; a
byte-identical report counts towards `verify.golden_identical_claims`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import common

CLAIM_3_1 = "3.1"
CLAIM_6_3 = "6.3"
#: the program's THEOREM_IDS at commit ad40fe9; per-layer metric names use them
CLAIM_IDS = ("2.1", "2.2", "3.1", "4.1", "5.2", "5.3", "6.1.pointwise", "6.3")
#: seeds the reference reports were recorded for; a run uses seed % len
VERIFY_SEEDS = (0, 1, 2, 3)
REFERENCE = common.BENCH_DIR / "reference" / "verify"


def worker(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default="")
    args = ap.parse_args(argv)
    result_path, trace_path = Path(args.result).resolve(), Path(args.trace).resolve()

    start = time.perf_counter()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    from blockspaces import THEOREM_IDS
    from blockspaces.cli import main

    ready = time.perf_counter()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    claims = {}
    for group, tid in enumerate(THEOREM_IDS):
        argv = ["verify", "--theorem", tid, "--seed", str(args.seed), "--out", f"claim.{tid}"]
        t0 = time.perf_counter()
        code, error = None, None
        try:
            if tracer is not None:
                tracer.group = group
                with tracer.span(f"verify.{tid}"):
                    code = main(argv)
            else:
                code = main(argv)
        except Exception as exc:  # a raising claim is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if error is None and code not in (0, 5):
            error = f"verify exited {code}"
        claims[tid] = {"wall_s": time.perf_counter() - t0, "code": code, "error": error}
    end = time.perf_counter()
    result = {
        "import_s": ready - start,
        "wall_s": end - ready,
        "claims": claims,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(trace_path)
    common.write_json(result_path, result)
    return 0


# -- parent side -----------------------------------------------------------------


def verify_seed(seed: int) -> int:
    return VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]


def reference_dir(vseed: int) -> Path:
    return REFERENCE / f"seed{vseed}"


def _verdicts(rd: dict) -> list:
    return [(v["criterion"], v["passed"], v["out_of_hypothesis"]) for v in rd["verdicts"]] + [
        ("report", rd["passed"], False)
    ]


def run_pass(vseed: int, tag: str, trace_path: Path | None = None):
    out = common.WORK / "verify" / tag
    result_path = common.WORK / f"verify-{tag}.json"
    argv = common.python_argv(
        str(common.BENCH_DIR / "verify_all.py"),
        "--seed", str(vseed), "--out", str(out), "--result", str(result_path),
    )
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    run = common.spawn(argv, common.ROOT, f"verify-{tag}")
    if run.code != 0:
        raise RuntimeError(f"verify-all worker exited {run.code}:\n{run.stderr[-4000:]}")
    return run, common.read_json(result_path), out


def check_pass(result: dict, out: Path, vseed: int) -> tuple[int, list]:
    """(byte-identical claims, failures) against the reference.

    Each failure is (wrong output?, description): a claim that raised or
    exited with an error code has no output; one whose exit code or verdicts
    differ from the reference is wrong.
    """
    golden, notes = 0, []
    ref = reference_dir(vseed)
    for tid, info in result["claims"].items():
        if info["error"]:
            notes.append((False, f"claim {tid} raised {info['error']}"))
            continue
        got = (out / f"claim.{tid}.json").read_bytes()
        want = (ref / f"claim.{tid}.json").read_bytes()
        want_code = 0 if json.loads(want)["passed"] else 5
        if info["code"] != want_code:
            notes.append((True, f"claim {tid} exited {info['code']}, the reference {want_code}"))
            continue
        if got == want:
            golden += 1
            continue
        got_v, want_v = _verdicts(json.loads(got)), _verdicts(json.loads(want))
        flips = [(a, b) for a, b in zip(got_v, want_v) if a != b]
        if flips or len(got_v) != len(want_v):
            notes.append((True, f"claim {tid} verdicts differ from the reference: {flips[:3]}"))
    return golden, notes


if __name__ == "__main__":
    sys.exit(worker())
