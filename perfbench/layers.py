"""Per-layer metrics of a traced run, and the probes measured from outside.

Layers are the `src/blockspaces` modules.  Counts, busy and self times and
peak allocations come from the spans (see tracer.py); the Si branch rates,
the import breakdown and the machine facts are measured here directly.
A function a workload never calls reports 0 calls and 0 s.
"""

from __future__ import annotations

import os
import platform
import re
import statistics
import sys
import time

import numpy as np

import common
import verify_all

CLI_SUBCOMMANDS = ("norm", "decompose", "apply", "sweep", "verify")
MIB = 2.0 ** 20

#: float64 points x breakpoints temporaries each dense kernel allocates, counted
#: from its source expression at commit ad40fe9; computed bytes use these
#: and ignore cache behaviour
KERNEL_TEMPORARIES = {
    "operators.hilbert": 3,  # x - b, |x - b|, log
    "operators.hilbert_truncated": 12,  # clipped ends, ratios, masks' wheres, logs, out
    "operators.dirichlet_sn": 5,  # x - b, 2 pi N (x - b), |t|, Si out, sign product
}

SI_POINTS = 1_000_000
SI_BRANCHES = {"small": (0.0, 8.0), "mid": (8.0, 44.0), "large": (44.0, 1000.0)}
SI_MIN_SECONDS = 0.5


def per_layer(agg: dict, extra: dict) -> dict:
    """Every per-layer metric the traced run defines, by name."""
    stats = agg["stats"]
    out = {}

    def st(name):
        return stats.get(name, {})

    def put(name, key, metric=None, scale=1.0):
        out[f"{name}.{metric or key}"] = st(name).get(key, 0.0) * scale

    def times(name, *kinds):
        out[f"{name}.calls"] = st(name).get("calls", 0.0)
        for kind in kinds:
            out[f"{name}.{kind}_s"] = st(name).get(f"{kind}_ns", 0.0) / 1e9

    times("sine_integral", "busy")
    for branch in SI_BRANCHES:
        put("sine_integral", f"points.{branch}")
    for name in ("operators.dirichlet_sn", "operators.hilbert", "operators.hilbert_truncated"):
        times(name, "busy", "self")
        put(name, "pairs")
        put(name, "peak_bytes", "peak_alloc_mb", 1.0 / MIB)
        out[f"{name}.computed_mb"] = st(name).get("pairs", 0.0) * 8.0 * KERNEL_TEMPORARIES[name] / MIB
    times("operators.carleson", "busy", "self")
    out["operators.carleson.sn_calls"] = agg["child_calls"].get(
        ("operators.carleson", "operators.dirichlet_sn"), 0
    )
    times("operators.hilbert_maximal", "busy", "self")
    for name in ("operators.EvalGrid.for_function", "operators.EvalGrid.filtered"):
        times(name, "busy")
        put(name, "peak_bytes", "peak_alloc_mb", 1.0 / MIB)
    times("operators.hl_maximal", "busy")
    put("operators.hl_maximal", "cells")
    put("operators.hl_maximal", "window_passes")
    times("lattice.LatticeFunction.from_callable", "busy")
    put("lattice.LatticeFunction.from_callable", "cells")
    times("operators.maximal_1d_exact", "busy")
    put("operators.maximal_1d_exact", "points")
    for fn in ("panel_nodes", "oscillation_edges", "shell_grid", "weighted_power_integral"):
        times(f"quadrature.{fn}", "busy")
        put(f"quadrature.{fn}", "nodes")
    for fn in ("weighted_lp_norm", "norm_profile"):
        times(f"norms.{fn}", "busy")
    for fn in ("decompose_nonhomogeneous", "homogeneous_total_cost", "rl_norm_upper_bound", "make_canonical_block"):
        times(f"blocks.{fn}", "busy")
    put("blocks.decompose_nonhomogeneous", "terms")
    out["blocks.rl_norm_upper_bound.terms"] = agg["child_counts"].get(
        ("blocks.rl_norm_upper_bound", "blocks.decompose_nonhomogeneous", "terms"), 0.0
    )
    for method in ("restrict", "__add__", "simplify", "__call__"):
        times(f"piecewise.PiecewiseConstant1D.{method}", "busy")
    for tid in verify_all.CLAIM_IDS:
        out[f"verify.{tid}.self_s"] = st(f"verify.{tid}").get("self_ns", 0.0) / 1e9
    out["verify.golden_identical_claims"] = extra.get("golden", 0)
    for fn in ("write_json", "write_csv", "load_function"):
        times(f"io.{fn}", "busy")
        put(f"io.{fn}", "bytes")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.latency_s"] = extra.get("cli_latency", {}).get(sub, 0.0)
    out.update(extra["imports"])
    out.update(extra["si_rates"])
    out["trace.overhead_pct"] = extra["overhead_pct"]
    out["trace.spans"] = agg["spans"]
    return out


def claim_accounting(agg: dict) -> dict:
    """Per root span name, summed over its spans: span, self, children, tracer time.

    self + children + tracer time outside the children equals the span, so
    each claim's (or invocation's, or stage's) wall time is accounted for.
    """
    rows = {}
    for name, spans in agg["roots"].items():
        dur, self_ns, child_ns, ovh_ns = (sum(col) for col in zip(*spans))
        rows[name] = {
            "spans": len(spans),
            "span_s": dur / 1e9,
            "self_s": self_ns / 1e9,
            "children_s": child_ns / 1e9,
            "tracer_outside_children_s": ovh_ns / 1e9,
        }
    return rows


# -- probes --------------------------------------------------------------------------


def si_rates(seed: int) -> dict:
    """ns per point of the public sine_integral and of scipy's sici, per branch.

    10^6 seeded points from one branch at a time; each timing is the median of
    repeats filling at least SI_MIN_SECONDS (one call when a call is longer).
    """
    sys.path.insert(0, str(common.SRC))
    from blockspaces import sine_integral
    from scipy.special import sici

    rng = np.random.default_rng(seed)
    out = {}
    for branch, (lo, hi) in SI_BRANCHES.items():
        t = rng.uniform(lo, hi, size=SI_POINTS)
        if branch == "mid":
            t = t[(t > lo) & (t < hi)]
        t *= rng.choice((-1.0, 1.0), size=t.size)
        for label, fn in (("sine_integral", sine_integral), ("sici", lambda x: sici(x)[0])):
            samples, spent = [], 0.0
            while not samples or spent < SI_MIN_SECONDS:
                t0 = time.perf_counter()
                fn(t)
                samples.append(time.perf_counter() - t0)
                spent += samples[-1]
            out[f"{label}.ns_per_point.{branch}"] = statistics.median(samples) / t.size * 1e9
    return out


IMPORT_MODULES = {"blockspaces": "import.blockspaces_s", "scipy.ndimage": "import.scipy.ndimage_s", "numpy": "import.numpy_s"}
IMPORT_REPEATS = 3


def import_breakdown() -> dict:
    """Cumulative import time of blockspaces, scipy.ndimage and numpy, from -X importtime.

    scipy loads `ndimage` lazily, so its package line can be missing; then
    the submodule lines at the outermost level of its subtree are summed.
    """
    samples = {metric: [] for metric in IMPORT_MODULES.values()}
    for i in range(IMPORT_REPEATS):
        argv = common.python_argv("-X", "importtime", "-c", "import blockspaces")
        run = common.spawn(argv, common.ROOT, f"importtime{i}")
        if run.code != 0:
            raise RuntimeError(f"import blockspaces failed:\n{run.stderr[-2000:]}")
        lines = []
        for line in run.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)$", line)
            if m:
                lines.append((m.group(4), len(m.group(3)), int(m.group(2)) / 1e6))
        for module, metric in IMPORT_MODULES.items():
            exact = [t for name, _, t in lines if name == module]
            if exact:
                samples[metric].append(exact[0])
                continue
            sub = [(depth, t) for name, depth, t in lines if name.startswith(module + ".")]
            top = min((depth for depth, _ in sub), default=0)
            samples[metric].append(sum(t for depth, t in sub if depth == top))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def machine_facts() -> dict:
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/meminfo") as fh:
            facts["ram_gib"] = int(fh.readline().split()[1]) / 2 ** 20
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            facts["llc"] = fh.read().strip()
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return facts
