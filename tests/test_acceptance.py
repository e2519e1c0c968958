"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test measures against a frozen tolerance and prints a single summary
line with the observed numbers.  Tolerances are a contract; when the
implementation genuinely cannot reach one, the test stays red rather than
being loosened, and the analysis lives in the project notes.
"""

import math
import time

import numpy as np
from scipy.special import sici

from blockspaces import (
    PiecewiseConstant1D,
    WeightParams,
    carleson,
    dirichlet_sn,
    dirichlet_sn_via_hilbert,
    geometric_schedule,
    hilbert,
    run_all,
    run_theorem,
    sine_integral,
)
from blockspaces.io import dumps, report_to_dict
from blockspaces.verify import partial_sum_error_norm

chi = PiecewiseConstant1D.indicator


def report(name: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {name}: {status} [{detail}]")
    assert not failures, "; ".join(failures)


def test_criterion_01_hilbert_closed_form():
    t0 = time.time()
    f = chi(1.0, 2.0)
    x = np.linspace(-5.0, 8.0, 4096)
    x = x[np.minimum(np.abs(x - 1.0), np.abs(x - 2.0)) >= 1.0 / 16.0][:1000]
    assert x.size == 1000
    err = float(np.abs(hilbert(f, x) - np.log(np.abs((x - 1.0) / (x - 2.0))) / math.pi).max())
    dt = time.time() - t0
    failures = []
    if not err < 1e-10:
        failures.append(f"max abs error {err:.3e} >= 1e-10")
    if not dt < 1.0:
        failures.append(f"runtime {dt:.2f}s >= 1s")
    report("01 hilbert closed form", failures, f"err={err:.3e}, {dt:.2f}s")


def test_criterion_02_partial_sum_route_agreement():
    t0 = time.time()
    f = chi(-0.25, 0.25)
    N, m, L = 4.0, 16, 64.0
    spec = dirichlet_sn_via_hilbert(f, N, m=m, L=L)
    h = 2.0 * L / (1 << m)
    keep = np.abs(np.abs(spec.x) - 0.25) > 2.0 * h
    err_interior = float(np.abs(spec.values[keep] - dirichlet_sn(f, N, spec.x[keep])).max())

    # band-limited surrogate: the cutoff acts as the identity
    class Trig:
        support_bounds = None

        def __call__(self, t):
            t = np.asarray(t, dtype=float)
            return np.cos(2.0 * math.pi * 1.5 * t) + 0.25 * np.sin(2.0 * math.pi * 3.0 * t)

    surro = dirichlet_sn_via_hilbert(Trig(), N, m=12, L=L)
    err_identity = float(np.abs(surro.values - Trig()(surro.x)).max())
    dt = time.time() - t0
    failures = []
    if not err_interior < 1e-6:
        failures.append(f"interior route error {err_interior:.3e} >= 1e-6")
    if not err_identity < 1e-8:
        failures.append(f"identity recovery {err_identity:.3e} >= 1e-8")
    if not dt < 5.0:
        failures.append(f"runtime {dt:.2f}s >= 5s")
    report(
        "02 S_N route agreement",
        failures,
        f"interior={err_interior:.3e}, identity={err_identity:.3e}, {dt:.2f}s",
    )


def test_criterion_03_gibbs_anchor():
    t0 = time.time()
    got = carleson(
        chi(1.0, 2.0),
        geometric_schedule(0.25, 64.0),
        np.array([1.5]),
        refine_tolerance=1e-8,
    )[0]
    want = 2.0 / math.pi * sine_integral(math.pi)
    err = abs(got - want)
    dt = time.time() - t0
    failures = []
    if not err < 1e-6:
        failures.append(f"|sup - (2/pi)Si(pi)| = {err:.3e} >= 1e-6")
    if not dt < 1.0:
        failures.append(f"runtime {dt:.2f}s >= 1s")
    report("03 Gibbs anchor", failures, f"value={got:.12f}, err={err:.3e}, {dt:.2f}s")


def test_criterion_04_uniform_block_constants():
    t0 = time.time()
    measured = run_theorem("3.1").measurements
    ratios = {}
    for p in ("1", "0.5"):
        for op in ("hilbert", "dirichlet_sn"):
            ratios[f"{op}@p={p}"] = measured[f"{op}|p={p}|ratio"]
    ratios["hl_maximal@p=1"] = measured["hl_maximal|p=1|ratio"]
    dt = time.time() - t0
    failures = []
    for name, ratio in ratios.items():
        bound = 1.5 if name.startswith("hl_maximal") else 1.05
        if not ratio < bound:
            failures.append(f"{name} ratio {ratio:.6f} >= {bound}")
    if not dt < 30.0:
        failures.append(f"runtime {dt:.2f}s >= 30s")
    detail = ", ".join(f"{k}={v:.6f}" for k, v in ratios.items())
    report("04 uniform block constants", failures, f"{detail}, {dt:.2f}s")


def test_criterion_05_maximal_sharpness():
    t0 = time.time()
    rep = run_theorem("4.1")
    slope = rep.measurements["tail_slope|p=1,alpha=0"]
    shrink = rep.measurements["increment_shrink_factor|p=1,alpha=-0.5"]
    spread = rep.measurements["inner_slope_spread|p=1,alpha=-1"]
    slopes_pos = all(y > 0.0 for _, y in rep.measurements["inner_slopes|p=1,alpha=-1"])
    dt = time.time() - t0
    failures = []
    if not abs(slope / 4.0 - 1.0) < 0.10:
        failures.append(f"boundary slope {slope:.6f} not 4 +- 10%")
    if not shrink >= 2.0:
        failures.append(f"interior increments shrink {shrink:.6f}x per doubling, need >= 2x")
    if not (spread < 0.15 and slopes_pos):
        failures.append(f"log-divergence slope spread {spread:.4f} (positive: {slopes_pos})")
    if not dt < 30.0:
        failures.append(f"runtime {dt:.2f}s >= 30s")
    report(
        "05 maximal sharpness",
        failures,
        f"slope={slope:.4f}, shrink={shrink:.4f}, spread={spread:.4f}, {dt:.2f}s",
    )


def test_criterion_06_decomposition_independence():
    t0 = time.time()
    rep = run_theorem("5.3")
    worst = max(
        v for k, v in rep.measurements.items() if k.startswith("rel_diff")
    )
    dt = time.time() - t0
    failures = []
    if not worst < 1e-8:
        failures.append(f"worst relative disagreement {worst:.3e} >= 1e-8")
    if not dt < 5.0:
        failures.append(f"runtime {dt:.2f}s >= 5s")
    report("06 decomposition independence", failures, f"worst={worst:.3e}, {dt:.2f}s")


def test_criterion_07_norm_convergence():
    t0 = time.time()
    f = chi(0.25, 0.5)
    params = WeightParams(1, 1.0, 2.0, -0.5)
    es = [partial_sum_error_norm(f, params, 2.0 ** j) for j in range(11)]
    ratio = es[10] / es[0]
    tail_decreasing = all(a > b for a, b in zip(es[-4:], es[-3:]))
    pts = np.linspace(-2.0, 2.0, 1601)
    bps = np.array([0.25, 0.5])
    pts = pts[np.abs(pts[:, None] - bps[None, :]).min(axis=1) >= 1.0 / 16.0]
    sup = float(np.abs(dirichlet_sn(f, 256.0, pts) - f(pts)).max())
    dt = time.time() - t0
    failures = []
    if not ratio < 0.05:
        failures.append(f"e(2^10)/e(1) = {ratio:.4f} >= 0.05")
    if not tail_decreasing:
        failures.append(f"error-norm tail not decreasing: {es[-4:]}")
    if not sup < 1e-2:
        failures.append(f"pointwise sup at N=2^8 is {sup:.3e} >= 1e-2")
    if not dt < 30.0:
        failures.append(f"runtime {dt:.2f}s >= 30s")
    report(
        "07 norm convergence",
        failures,
        f"e-ratio={ratio:.5f}, sup={sup:.3e}, {dt:.2f}s",
    )


def test_criterion_08_inclusion_constants():
    t0 = time.time()
    rep = run_theorem("2.1")
    spreads = {
        v.criterion: v.value for v in rep.verdicts if not v.out_of_hypothesis
    }
    dt = time.time() - t0
    failures = []
    for name, spread in spreads.items():
        if not spread < 2.0:
            failures.append(f"{name}: constant spread {spread:.4f} >= 2")
    if not dt < 20.0:
        failures.append(f"runtime {dt:.2f}s >= 20s")
    worst = max(spreads.values())
    report("08 inclusion constants", failures, f"worst spread={worst:.4f}, {dt:.2f}s")


def test_criterion_09_sine_integral_accuracy():
    t0 = time.time()
    t = np.linspace(0.0, 1e3, 10_000)
    err = float(np.abs(sine_integral(t) - sici(t)[0]).max())
    dt = time.time() - t0
    failures = []
    if not err < 1e-12:
        failures.append(f"max abs deviation {err:.3e} >= 1e-12")
    if not dt < 1.0:
        failures.append(f"runtime {dt:.2f}s >= 1s")
    report("09 Si accuracy", failures, f"err={err:.3e}, {dt:.2f}s")


def test_criterion_10_verify_all_reproducible():
    t0 = time.time()
    first = run_all(seed=0)
    t_first = time.time() - t0
    second = run_all(seed=0)
    text1 = "".join(dumps(report_to_dict(r)) for r in first.values())
    text2 = "".join(dumps(report_to_dict(r)) for r in second.values())
    failures = []
    if not t_first < 120.0:
        failures.append(f"verify-all runtime {t_first:.1f}s >= 120s")
    if text1 != text2:
        failures.append("reports are not bit-identical across reruns")
    report(
        "10 verify all",
        failures,
        f"{len(first)} claims, {t_first:.1f}s, bit-identical={text1 == text2}",
    )
