"""Bounded working sets: the row-blocked kernels and the streamed e(N).

dirichlet_sn, hilbert and hilbert_truncated evaluate their points x
breakpoints kernels over row blocks.  Each must equal the dense
`kernel @ coeffs` bit for bit, and each row of a family of functions on
shared breakpoints must equal the call on its function alone.  The dense
product is itself thread-dependent on large matrices (OpenBLAS splits the
rows between threads), so the oracle runs in a subprocess with one BLAS
thread, and the blocked kernels run here with the process's default thread
count.  The oracle clips every piece for hilbert_truncated; the kernel clips
only the pieces holding x - eps or x + eps, and must still give the same
bits.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blockspaces
from blockspaces import (
    PiecewiseConstant1D,
    WeightParams,
    dirichlet_sn,
    hilbert,
    hilbert_truncated,
    maximal_1d_exact,
    operators,
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


def clipped_log(num, den, mask):
    return np.log(np.divide(num, den, out=np.ones(mask.shape), where=mask))


data = dict(np.load(sys.argv[1]))
out = {}
for nb in map(int, data["breakpoints"]):
    bps, v, N = data[f"bps{nb}"], data[f"v{nb}"], float(data[f"N{nb}"])
    c = np.diff(np.concatenate([[0.0], v, [0.0]]))
    a, b = bps[:-1][None, :], bps[1:][None, :]
    for size in map(int, data["sizes"]):
        x = data[f"x{size}"]
        xx = x[:, None]
        si = sine_integral(2.0 * math.pi * N * (xx - bps[None, :]))
        out[f"dirichlet_sn-{nb}-{size}"] = si @ c / math.pi
        out[f"hilbert-{nb}-{size}"] = np.log(np.abs(xx - bps[None, :])) @ c / math.pi
        bl = np.minimum(b, xx - float(data["eps"]))
        ar = np.maximum(a, xx + float(data["eps"]))
        trunc = clipped_log(xx - a, xx - bl, a < bl) + clipped_log(ar - xx, b - xx, ar < b)
        out[f"hilbert_truncated-{nb}-{size}"] = (trunc @ v) / math.pi
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


KERNELS = {
    "dirichlet_sn": lambda f, nb, x: dirichlet_sn(f, FREQUENCY[nb], x),
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
        assert np.array_equal(got, want), f"{op}, {nb} breakpoints, {size} points"


ROWS = {
    "dirichlet_sn": lambda bps, values, nb, x: operators._sn_rows(bps, values, FREQUENCY[nb], x),
    "hilbert_truncated": lambda bps, values, nb, x: operators._truncated_rows(bps, values, EPS, x),
}


@pytest.mark.parametrize("nb", BREAKPOINTS)
@pytest.mark.parametrize("op", sorted(ROWS))
def test_family_rows_equal_single_function_calls(op, nb):
    # a family's functions share each block's kernel, which multiplies every
    # row on its own: each row has the bits of the call on its function alone
    f = _function(nb)
    bps, v = np.asarray(f.breakpoints), np.asarray(f.values)
    values = np.stack([v, -0.5 * v, np.random.default_rng(nb + 1).standard_normal(v.size)])
    for size in SIZES_BY_BREAKPOINTS[nb]:
        x = _points(size)
        got = ROWS[op](bps, values, nb, x)
        assert got.shape == (len(values), size)
        for i, row in enumerate(values):
            want = KERNELS[op](PiecewiseConstant1D(bps, row), nb, x)
            assert np.array_equal(got[i], want), f"{op}, {nb} breakpoints, {size} points, row {i}"


@pytest.mark.parametrize("op", ["hilbert", "hilbert_truncated"])
def test_block_buffers_are_allocated_once_per_call(op, monkeypatch):
    # 1024 pieces give 64-row blocks, so 64 * 65 points run 65 of them.  A
    # counting fake of _rowwise's kernel sees how often the buffers are
    # built, and tracemalloc (which sees numpy's data) how much each block
    # allocates beyond them: less than one 64 x 1024 buffer
    f = _function(1025)
    x = _points(64 * 65)
    rowwise, built, blocks = operators._rowwise, [], []

    def counting_rowwise(kernel_for, x, ncols, coeffs):
        def counting_kernel_for(rows):
            built.append(rows)
            kernel = kernel_for(rows)

            def counting_kernel(xb):
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
                out = kernel(xb)
                _, peak = tracemalloc.get_traced_memory()
                blocks.append(peak - start)
                return out

            return counting_kernel

        return rowwise(counting_kernel_for, x, ncols, coeffs)

    monkeypatch.setattr(operators, "_rowwise", counting_rowwise)
    tracemalloc.start()
    try:
        KERNELS[op](f, 1025, x)
    finally:
        tracemalloc.stop()
    assert built == [64]
    assert len(blocks) == 65
    assert max(blocks) < 64 * 1024 * 8, blocks


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
    # e(1024) holds its 1M-cell edge array and cell mask (10 MiB) and, per
    # chunk of 8192 cells, one shared Si table of at most two chunks, work
    # buffers of one chunk each, and each side's errors.  A table over every
    # lattice point would add 32 MiB
    f, params = PiecewiseConstant1D.indicator(0.25, 0.5), WeightParams(1, 1.0, 2.0, -0.5)
    partial_sum_error_norm(f, params, 1.0)
    tracemalloc.start()
    try:
        partial_sum_error_norm(f, params, 1024.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 * 1024, peak


def test_partial_sum_error_norm_memory_is_bounded():
    # e(2^11) streams its 16.8M quadrature nodes; the dense form peaked at
    # 2474 MiB, and the dirichlet_sn stream at 201 MiB.  The literal is the
    # value of the lattice kernel, 4.2e-16 relative from the dense form's
    # 0.001031502908723846.  The child reads its own VmHWM: on Linux its
    # ru_maxrss keeps the high-water mark of the process that forked it.
    code = (
        "import re\n"
        "from blockspaces import PiecewiseConstant1D, WeightParams\n"
        "from blockspaces.verify import partial_sum_error_norm\n"
        "f = PiecewiseConstant1D.indicator(0.25, 0.5)\n"
        "e = partial_sum_error_norm(f, WeightParams(1, 1.0, 2.0, -0.5), 2048.0)\n"
        "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1)\n"
        "print(repr(e), hwm)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    value, hwm_kib = run.stdout.split()
    assert float(value) == 0.0010315029087238465
    assert int(hwm_kib) / 1024 < 100
