"""Bounded working sets: the row-blocked kernels and the streamed e(N).

The direct S_N kernel (operators._sn_rows, which dirichlet_sn runs unless
it routes a call through its Chebyshev interpolant) and hilbert_truncated
evaluate their points x breakpoints kernels over row blocks.  Each must equal the dense `kernel @ coeffs` bit
for bit, and each row of the sups over a family of functions on shared
breakpoints must equal the calls on its function alone.  The dense product
is itself thread-dependent on large matrices (OpenBLAS splits the rows
between threads), so the oracle runs in a subprocess with one BLAS thread,
and the blocked kernels run here with the process's default thread count.
For hilbert_truncated the dense product is of the clamped logs
L(b_j) = max(log|x - b_j|, log eps), each point's distances and eps scaled
by 2^-k for the octave 2^k of its farthest breakpoint, over the pieces'
L(a) - L(b); the blocks must give its bits.  Its accuracy is pinned apart
from it, against each piece clipped to the outside of [x - eps, x + eps]
in exact arithmetic, at perfbench's oracle budget.

hilbert takes its far breakpoints by series, so it meets the dense log sum
within perfbench's oracle budget, 1e-12 (sum of |piece terms| + 1), and
instead each of its values must depend on its point alone.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blockspaces
from blockspaces import (
    PiecewiseConstant1D,
    WeightParams,
    dirichlet_sn,
    hilbert,
    hilbert_truncated,
    maximal_1d_exact,
    operators,
    verify,
)
from blockspaces.verify import partial_sum_error_norm

SIZES = (1, 2, 63, 64, 65, 66, 129, 4097, 8193)
BREAKPOINTS = (2, 1025)
# a final 1-row block joins the block before it, so the block buffers hold
# one row more than a block: 16384 + 1 rows for the 2-column kernels
# (dirichlet_sn, hilbert) and 32768 + 1 for hilbert_truncated's 1 piece.
# Dense at 1025 breakpoints these would take gigabytes, so only the narrow
# kernels run them
SIZES_BY_BREAKPOINTS = {2: SIZES + (16385, 32769), 1025: SIZES}
# frequencies keeping the 1025-breakpoint kernel in the cheap |t| <= 8 branch
# of Si, and the 2-breakpoint one across all three branches
FREQUENCY = {2: 8.0, 1025: 0.5}
EPS = 0.01

ORACLE = """
import math, sys
import numpy as np
from blockspaces.sine_integral import sine_integral


data = dict(np.load(sys.argv[1]))
out = {}
for nb in map(int, data["breakpoints"]):
    bps, v, N = data[f"bps{nb}"], data[f"v{nb}"], float(data[f"N{nb}"])
    c = np.diff(np.concatenate([[0.0], v, [0.0]]))
    for size in map(int, data["sizes"]):
        x = data[f"x{size}"]
        xx = x[:, None]
        si = sine_integral(2.0 * math.pi * N * (xx - bps[None, :]))
        out[f"dirichlet_sn-{nb}-{size}"] = si @ c / math.pi
        logs = np.log(np.abs(xx - bps[None, :]))
        out[f"hilbert-{nb}-{size}"] = logs @ c / math.pi
        terms = v * (logs[:, :-1] - logs[:, 1:]) / math.pi
        out[f"hilbert-budget-{nb}-{size}"] = 1e-12 * (np.abs(terms).sum(axis=1) + 1.0)
        dist = np.abs(xx - bps[None, :])
        far = dist.max(axis=1, keepdims=True)
        k = np.frexp(far)[1]
        floor = np.log(np.ldexp(np.minimum(float(data["eps"]), far), -k))
        clamped = np.maximum(np.log(np.ldexp(dist, -k)), floor)
        out[f"hilbert_truncated-{nb}-{size}"] = ((clamped[:, :-1] - clamped[:, 1:]) @ v) / math.pi
np.savez(sys.argv[2], **out)
"""


def _function(nb: int) -> PiecewiseConstant1D:
    rng = np.random.default_rng(nb)
    bps = np.sort(rng.uniform(-1.0, 1.0, nb))
    return PiecewiseConstant1D(tuple(bps), tuple(rng.standard_normal(nb - 1)))


def _points(size: int) -> np.ndarray:
    return np.random.default_rng(size).uniform(-1.5, 1.5, size)


def _env(**extra) -> dict:
    src = str(Path(blockspaces.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dense")
    out = {}
    for nb, sizes in SIZES_BY_BREAKPOINTS.items():
        f = _function(nb)
        inputs = {
            "breakpoints": np.array([nb]),
            "sizes": np.array(sizes),
            "eps": EPS,
            f"bps{nb}": np.asarray(f.breakpoints),
            f"v{nb}": np.asarray(f.values),
            f"N{nb}": FREQUENCY[nb],
        }
        for size in sizes:
            inputs[f"x{size}"] = _points(size)
        np.savez(tmp / f"inputs{nb}.npz", **inputs)
        subprocess.run(
            [sys.executable, "-c", ORACLE, str(tmp / f"inputs{nb}.npz"), str(tmp / f"dense{nb}.npz")],
            env=_env(OPENBLAS_NUM_THREADS="1"),
            check=True,
        )
        out.update(np.load(tmp / f"dense{nb}.npz"))
    return out


def direct_sn(f, N, x):
    """dirichlet_sn by the direct kernel at every point, which its interpolation route bypasses."""
    return operators._sn_rows(*operators._one_row(f), [N], x, sup=False)[0]


KERNELS = {
    "dirichlet_sn": lambda f, nb, x: direct_sn(f, FREQUENCY[nb], x),
    "hilbert": lambda f, nb, x: hilbert(f, x),
    "hilbert_truncated": lambda f, nb, x: hilbert_truncated(f, EPS, x),
}


@pytest.mark.parametrize("nb", BREAKPOINTS)
@pytest.mark.parametrize("op", sorted(KERNELS))
def test_blocked_kernel_equals_dense_product(op, nb, dense):
    f = _function(nb)
    for size in SIZES_BY_BREAKPOINTS[nb]:
        got = KERNELS[op](f, nb, _points(size))
        want = dense[f"{op}-{nb}-{size}"]
        assert got.shape == want.shape == (size,)
        if op == "hilbert":
            budget = dense[f"hilbert-budget-{nb}-{size}"]
            assert np.all(np.abs(got - want) <= budget), f"{nb} breakpoints, {size} points"
        else:
            assert np.array_equal(got, want), f"{op}, {nb} breakpoints, {size} points"


def _clipped_terms(f: PiecewiseConstant1D, eps: float, x: float) -> list[float]:
    """(1/pi) v log((x - a) / (x - lo)) and v log((hi - x) / (b - x)) of each piece [a, b] of f.

    Each piece is clipped to its parts [a, lo] left of x - eps and [hi, b]
    right of x + eps, in exact arithmetic, so x +- eps never rounds to x.
    """
    X, E = Fraction(x), Fraction(eps)
    terms = []
    for a, b, v in zip(map(Fraction, f.breakpoints), map(Fraction, f.breakpoints[1:]), f.values):
        lo, hi = min(b, X - E), max(a, X + E)
        if a < lo:
            terms.append(v * (math.log(X - a) - math.log(X - lo)) / math.pi)
        if hi < b:
            terms.append(v * (math.log(hi - X) - math.log(b - X)) / math.pi)
    return terms


@st.composite
def step_functions_and_points(draw):
    """(f, x): a step function on [-4, 4] and points on, one ulp beside and between its breakpoints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps = np.unique(np.concatenate([rng.uniform(-4.0, 4.0, draw(st.integers(2, 8))), [0.0] * draw(st.booleans())]))
    assume(bps.size > 1)
    f = PiecewiseConstant1D(tuple(bps), tuple(rng.standard_normal(bps.size - 1)))
    beside = np.nextafter(bps, rng.choice([-np.inf, np.inf], bps.size))
    return f, np.concatenate([bps, beside, rng.uniform(-6.0, 6.0, 8), [0.0]])


@settings(deadline=None, max_examples=200)
@given(
    case=step_functions_and_points(),
    # 2^-60 and 1e-300 are below half an ulp of every nonzero point but the
    # ones near 0.  An eps that 2^-k underflows (below about 2^-1070 here)
    # would be log 0 = -inf, which on a breakpoint gives NaN: not drawn
    eps=st.one_of(st.sampled_from([1e-300, 2.0**-60, 2.0**-20, 0.3, 2.0, 1e10]), st.floats(1e-8, 10.0)),
)
def test_truncated_kernel_meets_the_clipped_pieces(case, eps):
    # hilbert_truncated by clamped logs against each piece clipped to the
    # outside of [x - eps, x + eps] in exact arithmetic and summed by fsum,
    # within perfbench's oracle budget 1e-12 (sum of |terms| + 1), also on a
    # breakpoint and where x +- eps rounds to x
    f, x = case
    got = hilbert_truncated(f, eps, x)
    for xi, value in zip(x, got):
        terms = _clipped_terms(f, eps, float(xi))
        assert abs(value - math.fsum(terms)) <= 1e-12 * (math.fsum(map(abs, terms)) + 1.0), (xi, eps)


ROUTED = """
import sys
import numpy as np
from blockspaces import PiecewiseConstant1D, dirichlet_sn

data = np.load(sys.argv[1])
f = PiecewiseConstant1D(tuple(data["bps"]), tuple(data["v"]))
np.save(sys.argv[2], np.concatenate([dirichlet_sn(f, float(data["N"]), data[f"x{size}"]) for size in data["sizes"]]))
"""


def test_routed_sn_bits_do_not_depend_on_blas_threads(tmp_path):
    # dirichlet_sn takes these calls through its Chebyshev interpolant, whose
    # gemvs run over 64-aligned row blocks as _rowwise's do: one BLAS thread,
    # two and this process's default give the same bits
    f, N, sizes = _function(1025), FREQUENCY[1025], (4097, 8193, 32769)
    bps, v = np.asarray(f.breakpoints), np.asarray(f.values)
    for size in sizes:
        assert operators._sn_nodes(bps, v, N, _points(size)) is not None, size
    np.savez(tmp_path / "in.npz", bps=bps, v=v, N=N, sizes=np.array(sizes), **{f"x{s}": _points(s) for s in sizes})
    want = np.concatenate([dirichlet_sn(f, N, _points(size)) for size in sizes])
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-c", ROUTED, str(tmp_path / "in.npz"), str(tmp_path / "out.npy")],
            env=_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        )
        assert np.load(tmp_path / "out.npy").tobytes() == want.tobytes(), threads


@pytest.mark.parametrize("nb", BREAKPOINTS)
def test_hilbert_values_depend_on_their_point_alone(nb):
    # hilbert groups the points by octave and sorts them by series length,
    # so a call's other points decide where a point sits in every buffer;
    # its bits must not move, for any subset or order of the points, and a
    # family row must have the bits of the call on its function alone
    f = _function(nb)
    x = _points(8193)
    full = hilbert(f, x)
    rng = np.random.default_rng(nb)
    for size in (1, 2, 3, 64, 65, 1000):
        pick = rng.choice(x.size, size, replace=False)
        assert hilbert(f, x[pick]).tobytes() == full[pick].tobytes(), size
    order = rng.permutation(x.size)
    assert hilbert(f, x[order]).tobytes() == full[order].tobytes()
    bps, v = np.asarray(f.breakpoints), np.asarray(f.values)
    values = np.stack([v, -0.5 * v, rng.standard_normal(v.size)])
    rows = operators._hilbert_rows(bps, values, x[:1000])
    for row, coeffs in zip(rows, values, strict=True):
        assert row.tobytes() == hilbert(PiecewiseConstant1D(bps, coeffs), x[:1000]).tobytes()


SUPS = {
    "dirichlet_sn": lambda bps, values, nb, x: operators._sn_rows(bps, values, [FREQUENCY[nb]], x),
    "hilbert_truncated": lambda bps, values, nb, x: operators._truncated_rows(bps, values, [EPS], x),
}


@pytest.mark.parametrize("nb", BREAKPOINTS)
@pytest.mark.parametrize("op", sorted(SUPS))
def test_family_rows_equal_single_function_calls(op, nb):
    # the sups run a family of functions on shared breakpoints as rows of
    # one kernel per block, which multiplies every row on its own: at one
    # level each row has the bits of |the call on its function alone|, also
    # at the sizes and widths whose blocks test_sup_routes_equal_the_per_level_route
    # does not reach
    f = _function(nb)
    bps, v = np.asarray(f.breakpoints), np.asarray(f.values)
    values = np.stack([v, -0.5 * v, np.random.default_rng(nb + 1).standard_normal(v.size)])
    for size in SIZES_BY_BREAKPOINTS[nb]:
        x = _points(size)
        got = SUPS[op](bps, values, nb, x)
        assert got.shape == (len(values), size)
        for i, row in enumerate(values):
            want = np.abs(KERNELS[op](PiecewiseConstant1D(bps, row), nb, x))
            assert np.array_equal(got[i], want), f"{op}, {nb} breakpoints, {size} points, row {i}"


@pytest.mark.parametrize("op", ["dirichlet_sn", "hilbert", "hilbert_truncated"])
def test_block_buffers_are_allocated_once_per_call(op, monkeypatch):
    # 1024 pieces give 64-row blocks, so 64 * 65 points run 65 of them.  A
    # counting fake of _rowwise's kernel family sees how often the buffers
    # are built, and tracemalloc (which sees numpy's data) how much each
    # block allocates beyond them, from the block's start to the yield of
    # its one level: less than one 64 x 1024 buffer, plus for S_N the two
    # that sine_integral's series takes (t^2 and its accumulator)
    f = _function(1025)
    x = _points(64 * 65)
    if op == "hilbert":
        _near_blocks_share_one_buffer(f, x, monkeypatch)
        return
    rowwise, built, blocks = operators._rowwise, [], []

    def counting_rowwise(kernel_for, *args):
        def counting_kernel_for(rows):
            built.append(rows)
            kernel_blocks = kernel_for(rows)

            def counting_blocks(xb):
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
                for block in kernel_blocks(xb):
                    _, peak = tracemalloc.get_traced_memory()
                    blocks.append(peak - start)
                    yield block

            return counting_blocks

        return rowwise(counting_kernel_for, *args)

    monkeypatch.setattr(operators, "_rowwise", counting_rowwise)
    tracemalloc.start()
    try:
        KERNELS[op](f, 1025, x)
    finally:
        tracemalloc.stop()
    assert built == [64]
    assert len(blocks) == 65
    assert max(blocks) < (3 if op == "dirichlet_sn" else 1) * 64 * 1024 * 8, blocks


def _near_blocks_share_one_buffer(f, x, monkeypatch):
    # hilbert's near logs go in blocks through one _BLOCK_BYTES buffer per
    # call: every block's differences are a view of it, the memory held
    # grows by less than one 64 x 1024 buffer from the first block to the
    # last, and the call's peak stays below 2 MiB (the dense 4160 x 1025
    # logs would take 34 MB; measured 1.0 MB, of which about 130 bytes per
    # point are the far series' per-point arrays)
    differences, buffers, held = operators._differences, set(), []

    def counting(xb, bps, out):
        buffers.add(id(out.base))
        held.append(tracemalloc.get_traced_memory()[0])
        return differences(xb, bps, out)

    monkeypatch.setattr(operators, "_differences", counting)
    tracemalloc.start()
    try:
        hilbert(f, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) > 1 and len(buffers) == 1
    assert max(held) - min(held) < 64 * 1024 * 8, held
    assert peak < 2 * 1024 * 1024, peak


# -- sups over levels and over a family of functions -----------------------------


@st.composite
def grids(draw):
    """(bps, x): breakpoints -b[::-1], (0,) b and points x[n-1-i] = -x[i], some of them on breakpoints.

    Even n may have a -0/+0 centre pair, odd n has the centre 0, and a
    mirrored pair of points may be put on a mirrored pair of breakpoints.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = np.sort(rng.uniform(2.0**-6, 4.0, draw(st.sampled_from([1, 2, 5, 300]))))  # 300: 64-row blocks
    bps = np.concatenate([-b[::-1], [0.0] * draw(st.booleans()), b])
    n = draw(st.integers(0, 400))
    half = rng.uniform(0.0, 5.0, n // 2)
    half = half if draw(st.booleans()) else np.sort(half)
    if half.size and draw(st.booleans()):
        half[0] = 0.0  # the centre pair -0, +0
    x = np.concatenate([-half[::-1], [0.0] * (n % 2), half])
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n // 2 - 1)), draw(st.integers(0, bps.size - 1))
        x[i], x[n - 1 - i] = bps[j], -bps[j]
    return bps, x


def _per_level_sup(operator, levels, bps, values, x):
    """max over the levels of |operator(f, level, x)| for the function f of each row of values."""
    out = np.zeros((values.shape[0], x.size))
    for level in levels:
        for row, v in zip(out, values):
            np.maximum(row, np.abs(operator(PiecewiseConstant1D(bps, v), float(level), x)), out=row)
    return out


@settings(deadline=None, max_examples=100)
@given(
    case=grids(),
    rows=st.sampled_from([1, 3]),
    N=st.lists(st.sampled_from([2.0**-1070, 2.0**-10, 0.3, 1.0, 8.0, 2.0**40]), min_size=1, max_size=4, unique=True),
    eps=st.lists(st.floats(2.0**-10, 8.0), min_size=1, max_size=4, unique=True),
    seed=st.integers(0, 2**16),
)
def test_sup_routes_equal_the_per_level_route(case, rows, N, eps, seed):
    # carleson and hilbert_maximal (and claim 3.1's legs) run their levels
    # on each block for every row of a family (H_eps on logs it takes once
    # per block); each value must have the bits of the sup over one public
    # call per level on its row's function, also where a point lies on a
    # breakpoint or a phase underflows.  eps goes in the drawn order,
    # unsorted.  The per-level calls (S_N's direct kernel, which
    # dirichlet_sn may bypass, and hilbert_truncated) are pinned to the
    # dense products by test_blocked_kernel_equals_dense_product
    bps, x = case
    values = np.random.default_rng(seed).standard_normal((rows, bps.size - 1))
    N = np.sort(N)
    pairs = [
        (operators._sn_rows(bps, values, N, x), _per_level_sup(direct_sn, N, bps, values, x)),
        (operators._truncated_rows(bps, values, eps, x), _per_level_sup(hilbert_truncated, eps, bps, values, x)),
    ]
    f = PiecewiseConstant1D(bps, values[0])
    pairs.append((blockspaces.carleson(f, N, x), pairs[0][1][0]))
    pairs.append((blockspaces.hilbert_maximal(f, eps, x), pairs[1][1][0]))
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def test_maximal_1d_exact_memory_is_bounded():
    # 1024 pieces give 31-point blocks whose temporaries are _BLOCK_BYTES each,
    # so the peak stays a few of them, whatever the number of points
    f = _function(1025)
    maximal_1d_exact(f, _points(1))  # any set-up a first call makes stays out of the count
    tracemalloc.start()
    try:
        maximal_1d_exact(f, _points(256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


def test_partial_sum_error_norm_streams_its_lattice_tables():
    # e(1024) of chi[-256, 256] has 4N X_N = 1M + 64 lattice cells per side.
    # It holds, per chunk of 8192 cells, one shared Si table of at most two
    # chunks, work buffers of one chunk each, and each side's errors.  A
    # table over every lattice point would add 32 MiB.  It forms each chunk's
    # 8193 edges and keeps the split cells as index arrays, instead of all
    # 1M + 1 edges and a (2, 1M) cell mask (10 MiB of the 13.2 MiB peak they
    # gave).  Measured 2.76 MiB with its closed-form far tails
    f, params = PiecewiseConstant1D.indicator(-256.0, 256.0), WeightParams(1, 1.0, 2.0, -0.5)
    partial_sum_error_norm(f, params, 1.0)
    tracemalloc.start()
    try:
        partial_sum_error_norm(f, params, 1024.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 1024 * 1024, peak


def test_e_panels_form_their_lattice_edges_per_chunk(monkeypatch):
    # e(1024) of chi[-256, 256] has 1M + 64 lattice cells per side: each
    # _lattice_edges call forms at most one chunk's 8193 edges, never all of
    # them, and the split cells come back as a few sorted indices, not a
    # (2, 1M) cell mask
    f, params = PiecewiseConstant1D.indicator(-256.0, 256.0), WeightParams(1, 1.0, 2.0, -0.5)
    edges, panels = [], verify._lattice_panels(f.breakpoints, 1024.0, verify._near_zone_end(f, 1024.0), 1)
    lattice_edges = verify._lattice_edges
    monkeypatch.setattr(verify, "_lattice_edges", lambda ls, *args: edges.append(ls.size) or lattice_edges(ls, *args))
    partial_sum_error_norm(f, params, 1024.0)
    assert panels[1] == 1024 * 1024 + 64
    assert edges and max(edges) <= 8193, max(edges)
    for cells in panels[2]:
        assert cells.dtype.kind == "i" and 0 < cells.size < 16 and np.all(np.diff(cells) > 0), cells


def test_sn_leg_memory_is_bounded():
    # claim 3.1's dirichlet_sn leg: one lattice kernel call of 13 rows in
    # chunks of 1024 cells, 8 nodes each, measured 2.43 MiB.  dirichlet_sn on
    # all 65832 nodes of each block peaked at 5.2 MiB, and chunks of 4096
    # cells, whose err buffer is 13 x 256 KiB, at 9.4 MiB
    ks = list(range(verify._K_RANGE[0], verify._K_RANGE[1] + 1))
    verify._block_norms("dirichlet_sn", verify._BLOCK_GRID, ks)
    tracemalloc.start()
    try:
        verify._block_norms("dirichlet_sn", verify._BLOCK_GRID, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024, peak


def _e_of_n_in_a_child(breakpoints, N) -> tuple[str, int]:
    """repr of e(N) of the indicator on breakpoints at (1, 1, 2, -1/2), and VmHWM in KiB, from a fresh interpreter.

    The child reads its own VmHWM: on Linux its ru_maxrss keeps the
    high-water mark of the process that forked it.
    """
    code = (
        "import re\n"
        "from blockspaces import PiecewiseConstant1D, WeightParams\n"
        "from blockspaces.verify import partial_sum_error_norm\n"
        f"f = PiecewiseConstant1D.indicator(*{breakpoints!r})\n"
        f"e = partial_sum_error_norm(f, WeightParams(1, 1.0, 2.0, -0.5), {N!r})\n"
        "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1)\n"
        "print(repr(e), hwm)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    value, hwm_kib = run.stdout.split()
    return value, int(hwm_kib)


def test_partial_sum_error_norm_memory_is_bounded():
    # e(2^11) of chi[1/4, 1/2] integrates on its near zone, 4N X_N = 4160
    # lattice cells per side, and adds the tails past X_N in closed form.
    # Out to x_max = 256 it streamed 16.8M quadrature nodes, at 0.001031502908723847;
    # the dense form peaked at 2474 MiB, and the dirichlet_sn stream at 201 MiB
    value, hwm_kib = _e_of_n_in_a_child((0.25, 0.5), 2048.0)
    assert float(value) == 0.001031504766395448
    assert hwm_kib / 1024 < 100


def test_partial_sum_error_norm_memory_is_bounded_on_a_wide_support():
    # e(1024) of chi[-256, 256] still streams 2^20 + 64 lattice cells per side
    value, hwm_kib = _e_of_n_in_a_child((-256.0, 256.0), 1024.0)
    assert float(value) == 0.00013412900613712857
    assert hwm_kib / 1024 < 100
