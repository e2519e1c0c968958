"""Spans around calls into blockspaces' public functions, recorded from outside.

`install()` wraps each traced function and rebinds the wrapper under every
name that holds the original in any loaded `blockspaces` module, so calls by
name from `verify`, `blocks`, `cli`, the package `__init__` and `operators`
itself (carleson -> dirichlet_sn -> sine_integral) are all seen.  Methods are
replaced on their class.

Each span records its name, start, end, parent and group (one group per
claim, CLI invocation or stage), plus counts taken from the call's arguments
and result.  Time the tracer spends counting, and in `tracemalloc` for the
kernels whose peak allocation is recorded, is measured and subtracted from
the spans that contain it, so busy and self times describe the program; the
remaining cost shows as the traced run's overhead against the untraced run.
Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Si branch limits on |t|, as the kernel documents them at commit ad40fe9
SI_SMALL_MAX = 8.0
SI_LARGE_MIN = 44.0

#: tracemalloc slows every allocation while it traces (it doubled claim 3.1's
#: carleson leg), so peaks are taken only for dense calls of at least this
#: many points x breakpoints (an 8 MiB matrix); smaller calls cannot hold
#: the kernel's peak
PEAK_MIN_PAIRS = 2 ** 20

_clock = time.perf_counter_ns


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _npoints(grid) -> int:
    return int(np.size(getattr(grid, "points", grid)))


def _si_counts(args, kwargs):
    a = np.abs(np.asarray(_arg(args, kwargs, 0, "t"), dtype=float))
    small = int(np.count_nonzero(a <= SI_SMALL_MAX))
    large = int(np.count_nonzero(a >= SI_LARGE_MIN))
    return {"points.small": small, "points.mid": a.size - small - large, "points.large": large}


def _pairs(grid_index, per_piece=False):
    """Counter of points x breakpoints (x pieces) for f(..., grid) at grid_index."""

    def count(args, kwargs):
        f = args[0]
        grid = _arg(args, kwargs, grid_index, "grid")
        return {"pairs": _npoints(grid) * len(f.values if per_piece else f.breakpoints)}

    return count


def _pairs_grid(args, kwargs):  # classmethod: args[0] is the class
    f = _arg(args, kwargs, 1, "f")
    return {"pairs": _npoints(_arg(args, kwargs, 2, "points")) * len(f.breakpoints)}


def _points_1(args, kwargs):
    return {"points": _npoints(_arg(args, kwargs, 1, "grid"))}


def _hl_counts(args, kwargs):
    f = args[0]
    widths = {int(w) for w in _arg(args, kwargs, 1, "window_halfwidths")}
    # one uniform and one maximum 1-D filter pass per axis per distinct width
    return {"cells": int(f.values.size), "window_passes": 2 * f.n * len(widths)}


def _nodes_from_values(args, kwargs):
    return {"nodes": int(np.size(_arg(args, kwargs, 1, "x")))}


def _nodes_result(args, kwargs, result):
    x = result[0] if isinstance(result, tuple) else result
    return {"nodes": int(np.size(x))}


def _cells_result(args, kwargs, result):
    return {"cells": int(result.values.size)}


def _terms_result(args, kwargs, result):
    return {"terms": len(result.terms)}


def _bytes_of_path(args, kwargs, result=None):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, qualified name, counts before the call, counts after it,
#  record peak allocation of large calls)
TRACED = (
    ("sine_integral", "sine_integral", _si_counts, None, False),
    ("operators", "dirichlet_sn", _pairs(2), None, True),
    ("operators", "carleson", None, None, False),
    ("operators", "hilbert", _pairs(1), None, True),
    ("operators", "hilbert_truncated", _pairs(2, per_piece=True), None, True),
    ("operators", "hilbert_maximal", None, None, False),
    ("operators", "EvalGrid.for_function", _pairs_grid, None, True),
    ("operators", "EvalGrid.filtered", _pairs_grid, None, True),
    ("operators", "hl_maximal", _hl_counts, None, False),
    ("operators", "maximal_1d_exact", _points_1, None, False),
    ("lattice", "LatticeFunction.from_callable", None, _cells_result, False),
    ("quadrature", "panel_nodes", None, _nodes_result, False),
    ("quadrature", "oscillation_edges", None, _nodes_result, False),
    ("quadrature", "shell_grid", None, _nodes_result, False),
    ("quadrature", "weighted_power_integral", _nodes_from_values, None, False),
    ("norms", "weighted_lp_norm", None, None, False),
    ("norms", "norm_profile", None, None, False),
    ("blocks", "decompose_nonhomogeneous", None, _terms_result, False),
    ("blocks", "homogeneous_total_cost", None, None, False),
    ("blocks", "rl_norm_upper_bound", None, None, False),
    ("blocks", "make_canonical_block", None, None, False),
    ("piecewise", "PiecewiseConstant1D.restrict", None, None, False),
    ("piecewise", "PiecewiseConstant1D.__add__", None, None, False),
    ("piecewise", "PiecewiseConstant1D.simplify", None, None, False),
    ("piecewise", "PiecewiseConstant1D.__call__", None, None, False),
    ("io", "write_json", None, _bytes_of_path, False),
    ("io", "write_csv", None, _bytes_of_path, False),
    ("io", "load_function", _bytes_of_path, None, False),
)

# span row fields
ID, NAME, PARENT, GROUP, START, END, CHILD_NS, DIRECT_OVH, TOTAL_OVH, PEAK, COUNTS = range(11)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows: list[tuple] = []
        # open spans: [id, name, start, child_ns, direct_ovh, total_ovh_children]
        self._stack: list[list] = [[-1, -1, 0, 0, 0, 0]]
        # open peak spans: [base bytes, highest peak seen before a reset, started here]
        self._peaks: list[list] = []
        self._next_id = 0
        self.group = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ---------------------------------------------------------------

    def _peak_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._peaks.append([0, 0, True])
            return
        self._peaks[-1][1] = max(self._peaks[-1][1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._peaks.append([tracemalloc.get_traced_memory()[0], 0, False])

    def _peak_exit(self) -> int:
        base, seen, started = self._peaks.pop()
        top = max(seen, tracemalloc.get_traced_memory()[1])
        if started:
            tracemalloc.stop()
        else:
            self._peaks[-1][1] = max(self._peaks[-1][1], top)
        return top - base

    def _push(self, nid: int, start: int) -> list:
        frame = [self._next_id, nid, start, 0, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, end: int, peak: int, counts, outside_ns: int) -> None:
        self._stack.pop()
        sid, nid, start, child_ns, direct_ovh, ovh_children = frame
        total_ovh = direct_ovh + ovh_children
        parent = self._stack[-1]
        self.rows.append(
            (sid, nid, parent[0], self.group, start, end, child_ns, direct_ovh, total_ovh, peak, counts)
        )
        parent[3] += end - start
        parent[4] += outside_ns
        parent[5] += total_ovh

    def wrap(self, name: str, fn, pre=None, post=None, peak=False):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = _clock()
            counts = pre(args, kwargs) if pre is not None else None
            track = peak and counts["pairs"] >= PEAK_MIN_PAIRS
            if track:
                self._peak_enter()
            frame = self._push(nid, _clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _clock()
                size = self._peak_exit() if track else -1
                self._pop(frame, end, size, counts, (frame[2] - t0) + (_clock() - end))
                raise
            end = _clock()
            size = self._peak_exit() if track else -1
            if post is not None:
                counts = post(args, kwargs, result)
            self._pop(frame, end, size, counts, (frame[2] - t0) + (_clock() - end))
            return result

        return traced

    def span(self, name: str):
        """Context manager for a root or stage span opened by the benchmark."""
        return _Span(self, self.name_id(name))

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "rows": self.rows}, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.frame = self.tracer._push(self.nid, _clock())
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.frame, _clock(), -1, None, 0)
        return False


def install() -> Tracer:
    """Import blockspaces, wrap every traced function, return the tracer."""
    tracer = Tracer()
    for module_name, *_ in TRACED:
        importlib.import_module(f"blockspaces.{module_name}")
    modules = [m for n, m in sys.modules.items() if n == "blockspaces" or n.startswith("blockspaces.")]
    for module_name, qualname, pre, post, peak in TRACED:
        module = sys.modules[f"blockspaces.{module_name}"]
        span_name = f"{module_name}.{qualname}" if module_name != qualname else qualname
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(span_name, raw.__func__, pre, post, peak)))
            else:
                setattr(owner, attr, tracer.wrap(span_name, raw, pre, post, peak))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, pre, post, peak)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer


# -- aggregation ----------------------------------------------------------------


def aggregate(paths) -> dict:
    """Per span name: calls, busy/self seconds, summed counts, peak bytes.

    busy is the corrected duration of spans with no ancestor of the same
    name; self is a span's duration minus the time its child spans cover.
    Child-call counts are kept per (parent name, child name).
    """
    stats: dict = defaultdict(lambda: defaultdict(float))
    child_calls: dict = defaultdict(int)
    child_counts: dict = defaultdict(float)
    groups: dict = defaultdict(dict)
    spans = 0
    for path in paths:
        data = json.loads(Path(path).read_text())
        names = data["names"]
        rows = {r[ID]: r for r in data["rows"]}
        spans += len(rows)
        for r in rows.values():
            name = names[r[NAME]]
            s = stats[name]
            dur = r[END] - r[START]
            s["calls"] += 1
            s["self_ns"] += dur - r[CHILD_NS] - r[DIRECT_OVH]
            s["raw_ns"] += dur
            s["overhead_ns"] += r[TOTAL_OVH]
            if r[PEAK] >= 0:
                s["peak_bytes"] = max(s["peak_bytes"], r[PEAK])
            if r[COUNTS]:
                for key, value in r[COUNTS].items():
                    s[key] += value
            parent = rows.get(r[PARENT])
            if parent is not None:
                pname = names[parent[NAME]]
                child_calls[(pname, name)] += 1
                if r[COUNTS]:
                    for key, value in r[COUNTS].items():
                        child_counts[(pname, name, key)] += value
            nested = False
            while parent is not None:
                if parent[NAME] == r[NAME]:
                    nested = True
                    break
                parent = rows.get(parent[PARENT])
            if not nested:
                s["busy_ns"] += dur - r[TOTAL_OVH]
            if r[PARENT] < 0:
                groups[name][(str(path), r[GROUP])] = (dur, dur - r[CHILD_NS] - r[DIRECT_OVH], r[CHILD_NS], r[DIRECT_OVH])
    return {
        "stats": {k: dict(v) for k, v in stats.items()},
        "child_calls": dict(child_calls),
        "child_counts": dict(child_counts),
        "roots": {k: list(v.values()) for k, v in groups.items()},
        "spans": spans,
    }
