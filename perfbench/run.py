"""blockspaces benchmark: one command, three workloads, correctness-checked.

    python3 perfbench/run.py --workload verify-all|cli-oneshot|large-input
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Each run first starts SETUP_REPEATS fresh interpreters that import
blockspaces (setup_s is their median), then repeats whole passes of the
workload until S seconds of passes have run (at least one), checking every
operation.  With --trace 1 the same untraced passes run first, then one
traced pass gives the per-layer metrics and the tracing overhead.

stdout ends with one JSON line: correct / attempted / failed and the
metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1).  The lines before it print every metric of the workload by name
and unit, the failures, and where the full result and trace were written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import common

SETUP_REPEATS = 5
WORKLOADS = ("verify-all", "cli-oneshot", "large-input")


class Outcome:
    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.notes: list[tuple[bool, str]] = []  # one per failed operation: (wrong output?, description)
        self.untraced_wall_s = 0.0
        self.traced_wall_s = 0.0
        self.trace_files: list = []
        self.extra: dict = {}

    @property
    def failed(self) -> int:
        return len(self.notes)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def run_verify_all(seed: int, seconds: float, trace: bool) -> Outcome:
    import verify_all

    o = Outcome()
    vseed = verify_all.verify_seed(seed)
    passes, claims, rss, spent = [], {}, [], 0.0
    while not passes or spent < seconds:
        run, result, out = verify_all.run_pass(vseed, f"pass{len(passes)}")
        golden, notes = verify_all.check_pass(result, out, vseed)
        o.attempted += len(result["claims"])
        o.notes += notes
        passes.append(result["wall_s"])
        rss.append(run.maxrss_mb)
        spent += run.wall_s
        for tid, info in result["claims"].items():
            claims.setdefault(tid, []).append(info["wall_s"])
    o.put("wall_s", common.median(passes), "s")
    o.put("peak_rss_mb", max(rss), "MiB")
    o.put("claim_3_1_s", common.median(claims[verify_all.CLAIM_3_1]), "s")
    o.put("claim_6_3_s", common.median(claims[verify_all.CLAIM_6_3]), "s")
    other = [t for t in claims if t not in (verify_all.CLAIM_3_1, verify_all.CLAIM_6_3)]
    o.put("claims_other_s", common.median([sum(x) for x in zip(*(claims[t] for t in other))]), "s")
    o.extra = {"verify_seed": vseed, "passes": len(passes), "golden": golden}
    o.untraced_wall_s = common.median(passes)
    if trace:
        path = common.WORK / "trace" / "verify-all.json"
        _, result, out = verify_all.run_pass(vseed, "traced", trace_path=path)
        _, notes = verify_all.check_pass(result, out, vseed)
        o.attempted += len(result["claims"])
        o.notes += notes
        o.traced_wall_s = result["wall_s"]
        o.trace_files = [path]
    return o


def run_cli_oneshot(seed: int, seconds: float, trace: bool) -> Outcome:
    import cli_oneshot

    o = Outcome()
    script, specs = cli_oneshot.build_script(seed)
    latencies, by_sub, by_name, pass_walls, rss = [], {}, {}, [], []
    while not pass_walls or sum(pass_walls) < seconds:
        wall = 0.0
        for i, inv in enumerate(script):
            run, note = cli_oneshot.run_invocation(inv, i, specs, f"pass{len(pass_walls)}", None)
            o.attempted += 1
            if note:
                o.notes.append(note)
            latencies.append(run.wall_s)
            by_sub.setdefault(inv.argv[0], []).append(run.wall_s)
            by_name.setdefault(inv.name, []).append(run.wall_s)
            rss.append(run.maxrss_mb)
            wall += run.wall_s
        pass_walls.append(wall)
    pct, tail = common.tail(latencies)
    o.put("wall_s", common.median(pass_walls), "s")
    o.put("peak_rss_mb", max(rss), "MiB")
    o.put("cli_latency_p50_s", common.median(latencies), "s")
    o.put("cli_latency_tail_s", tail, "s")
    o.extra = {
        "invocations": len(latencies),
        "tail_percentile": pct,
        "cli_latency": {sub: common.median(v) for sub, v in by_sub.items()},
        "invocation_latency": {name: round(common.median(v), 4) for name, v in by_name.items()},
    }
    o.untraced_wall_s = common.median(pass_walls)
    if trace:
        tdir = common.WORK / "trace" / "cli-oneshot"
        shutil.rmtree(tdir, ignore_errors=True)
        for i, inv in enumerate(script):
            path = tdir / f"{i:02d}.json"
            run, note = cli_oneshot.run_invocation(inv, i, specs, "traced", path)
            o.attempted += 1
            if note:
                o.notes.append(note)
            o.traced_wall_s += run.wall_s
            if path.exists():
                o.trace_files.append(path)
    return o


def run_large_input(seed: int, seconds: float, trace: bool) -> Outcome:
    import large_input

    o = Outcome()
    run, result = large_input.run_worker(seed, seconds, "untraced")
    o.attempted += result["attempted"]
    o.notes += result["notes"]
    passes = result["passes"]
    o.put("wall_s", large_input.stage_seconds(passes), "s")
    o.put("peak_rss_mb", run.maxrss_mb, "MiB")
    o.put("eval_pairs_per_s", result["pairs_per_pass"] / large_input.stage_seconds(passes, "operators"), "1/s")
    o.put("decompose_s", large_input.stage_seconds(passes, "decompositions"), "s")
    o.extra = {
        "passes": len(passes),
        "pairs_per_pass": result["pairs_per_pass"],
        "carleson_schedule_sizes": result["carleson_schedule_sizes"],
    }
    # the traced run has one (cold) pass, so its base is the first untraced pass
    o.untraced_wall_s = sum(passes[0].values())
    if trace:
        path = common.WORK / "trace" / "large-input.json"
        _, result = large_input.run_worker(seed, 0.0, "traced", trace_path=path)
        o.attempted += result["attempted"]
        o.notes += result["notes"]
        o.traced_wall_s = large_input.stage_seconds(result["passes"])
        o.trace_files = [path]
    return o


RUNNERS = {"verify-all": run_verify_all, "cli-oneshot": run_cli_oneshot, "large-input": run_large_input}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    common.pin_threads()  # before numpy loads
    if not (common.SRC / "blockspaces" / "__init__.py").is_file():
        print(f"error: no package source at {common.SRC}/blockspaces; run from a checkout", file=sys.stderr)
        return 2
    spec = common.read_json(common.ROOT / "BENCHMARK.json")
    common.WORK.mkdir(exist_ok=True)

    setups = common.setup_seconds(SETUP_REPEATS)
    o = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace))
    o.put("setup_s", common.median(setups), "s")
    o.put("failed_share", o.failed / max(o.attempted, 1), "1")

    import layers

    facts = layers.machine_facts()
    per_layer = {}
    if args.trace:
        import tracer

        agg = tracer.aggregate(o.trace_files)
        extra = {
            **o.extra,
            "imports": layers.import_breakdown(),
            "si_rates": layers.si_rates(args.seed),
            "overhead_pct": 100.0 * (o.traced_wall_s / o.untraced_wall_s - 1.0),
        }
        per_layer = layers.per_layer(agg, extra)
        o.extra["span_accounting"] = layers.claim_accounting(agg)

    print(f"blockspaces benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    for name, (value, unit) in o.metrics.items():
        print(f"  {name:<22} {value:>16.6g} {unit}")
    for key, value in o.extra.items():
        if key != "span_accounting":
            print(f"  {key}: {value}")
    if args.trace:
        print(f"  traced pass {o.traced_wall_s:.3f} s vs untraced {o.untraced_wall_s:.3f} s")
        for name, row in o.extra.get("span_accounting", {}).items():
            print(f"  span {name}: {json.dumps({k: round(v, 6) for k, v in row.items()})}")
        for name in sorted(per_layer):
            print(f"  {name:<52} {per_layer[name]:.6g}")
    for wrong, note in o.notes:
        print(f"  FAILED ({'wrong output' if wrong else 'no output'}): {note}")

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "setup_samples_s": setups,
        "end_to_end": o.metrics,
        "per_layer": per_layer,
        "extra": o.extra,
        "attempted": o.attempted,
        "failed": o.failed,
        "notes": o.notes,
    }
    out_path = common.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    common.write_json(out_path, full)
    print(f"full result: {out_path}")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in section:
        value = per_layer[m["name"]] if args.trace else o.metrics[m["name"]][0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    # correct: no operation produced a wrong output; failed also counts those that produced none
    wrong = any(w for w, _ in o.notes)
    print(json.dumps({"correct": not wrong, "attempted": o.attempted, "failed": o.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
