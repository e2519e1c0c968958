"""Audit e(N)'s near integral and closed-form far tails against 30-digit mpmath.

For each N it prints, for claim 6.3's f = chi[1/4, 1/2] at (p, alpha) =
(1, -1/2) (or the --p/--alpha given), the near zone's end X_N, the integral
on [-X_N, X_N] and each far tail as `verify._far_tails` gives it, with its K
integration-by-parts terms.  Each tail's reference is mpmath's own:

- on [X_N, 8 X_N], tanh-sinh quadrature of |S_N f|^p x^alpha between the
  zeros of S_N f = (1/pi) sum_j c_j Si(2 pi N (x - b_j)), with Si from
  mpmath, the zeros bracketed on a 1/(8N) grid and refined by findroot;
- past 8 X_N, the same asymptotic formula in mpmath arithmetic: M_p int h
  by quadrature to infinity, with Si's auxiliary functions F and G from
  mpmath's Si and Ci, minus K terms whose derivatives come from Taylor
  coefficients formed with W' = -iW + i/t.

The left tail is the right tail of x -> f(-x).

With --leg it audits claim 3.1's dirichlet_sn leg instead: for the block
at each scale of --k (default 0) and both of the claim's (p, alpha), the
integral of |S_1 f|^p |x|^alpha over X < |x| < 1024, X = X_1, by mpmath
split at the zeros of S_1 f, by the closed form the leg takes
(`verify._far_tail`, doubled: the block is even) and by 4-node
Gauss-Legendre on the leg's panels of width 1/8, which the leg took
before; and the leg's norm with each.

It needs the project and mpmath, nothing else; N = 1, 2, 4 take a few
minutes on one core, and so does the leg at one scale:

    PYTHONPATH=src python3 tools/e_tail_audit.py [--N 1,2,4] [--p 1] [--alpha -1/2]
    PYTHONPATH=src python3 tools/e_tail_audit.py --leg [--k 0]
"""

from __future__ import annotations

import argparse
from fractions import Fraction

import mpmath
import numpy as np

from blockspaces import PiecewiseConstant1D, dirichlet_sn, make_canonical_block, verify
from blockspaces.quadrature import oscillation_edges, panel_nodes, weighted_power_terms
from blockspaces.verify import _TAIL_TERMS, _far_tail, _far_tails, _near_zone_end, _partial_sum_integrals

DPS = 30


def jumps_of(f):
    """(breakpoints, jumps) of f as mpf lists."""
    padded = (0.0, *f.values, 0.0)
    return [mpmath.mpf(b) for b in f.breakpoints], [mpmath.mpf(r - l) for l, r in zip(padded, padded[1:])]


def partial_sum(bps, cs, N):
    return lambda x: sum(c * mpmath.si(2 * mpmath.pi * N * (x - b)) for b, c in zip(bps, cs)) / mpmath.pi


def stretch(bps, cs, N, a, b, pairs):
    """int_a^b |S_N f|^p x^alpha dx for each (p, alpha) of pairs, split at the zeros of S_N f."""
    s = partial_sum(bps, cs, N)
    step = mpmath.mpf(1) / (8 * N)
    edges, x, sx = [a], a, s(a)
    while x < b:
        y = min(x + step, b)
        sy = s(y)
        if sx * sy < 0:
            edges.append(mpmath.findroot(s, (x, y), solver="anderson"))
        x, sx = y, sy
    edges.append(b)
    return [mpmath.quad(lambda t: abs(s(t)) ** p * t**alpha, edges) for p, alpha in pairs]


def aux_w(t):
    """W = F - iG, F = Ci sin - (Si - pi/2) cos and G = -Ci cos - (Si - pi/2) sin (DLMF 6.2.17-18)."""
    si, ci = mpmath.si(t) - mpmath.pi / 2, mpmath.ci(t)
    return (ci * mpmath.sin(t) - si * mpmath.cos(t)) - 1j * (-ci * mpmath.cos(t) - si * mpmath.sin(t))


def jet_quotient(a, b):
    out = []
    for n, an in enumerate(a):
        out.append((an - sum(b[i] * out[n - i] for i in range(1, n + 1))) / b[0])
    return out


def cos_power_antiderivatives(theta, p, count):
    """Q_1..Q_count at theta by quadrature: Q_k(u) = int_0^u (u-s)^(k-1)/(k-1)! g + the zero-mean polynomial."""
    m = mpmath.gamma(p + 1) / (2**p * mpmath.gamma(p / 2 + 1) ** 2)
    g = lambda s: abs(mpmath.cos(s)) ** p - m
    half = mpmath.pi / 2

    def integral(u, k):  # I_k(u) for 0 <= u <= pi/2
        return mpmath.quad(lambda s: (u - s) ** (k - 1) * g(s), [0, u]) / mpmath.factorial(k - 1) if u else mpmath.mpf(0)

    constants = {}
    for j in range(2, count + 1, 2):
        mean = 2 / mpmath.pi * integral(half, j + 1)
        mean += sum(c * half ** (j - i) / mpmath.factorial(j - i + 1) for i, c in constants.items())
        constants[j] = -mean
    u = theta - mpmath.pi * mpmath.nint(theta / mpmath.pi)
    v, out = abs(u), []
    for k in range(1, count + 1):
        value = integral(v, k) + sum(c * v ** (k - j) / mpmath.factorial(k - j) for j, c in constants.items() if j <= k)
        out.append(-value if u < 0 and k % 2 else value)
    return out, m


def asymptotic_tail(bps, cs, N, x, p, alpha, terms):
    """int_x^inf |S_N f|^p t^alpha dt by the closed form of verify._far_tail, in mpmath arithmetic."""
    omega = 2 * mpmath.pi * N
    rot = [c * mpmath.expjpi(-2 * N * b) for b, c in zip(bps, cs)]
    z_of = lambda t: sum(r * aux_w(omega * (t - b)) for b, r in zip(bps, rot))
    # the Taylor coefficients W_n = W^(n)/n! at each t_j, from W' = -iW + i/t: n W_n = -i W_(n-1) + i (-1)^(n-1) / t^n
    coeffs = [mpmath.mpf(0)] * (terms + 1)
    for b, r in zip(bps, rot):
        t = omega * (x - b)
        w = [aux_w(t)]
        for n in range(1, terms + 1):
            w.append((-1j * w[-1] + 1j * (-1) ** (n - 1) / t**n) / n)
        for n in range(terms + 1):
            coeffs[n] += r * w[n] * omega**n
    rate = jet_quotient([n * c for n, c in enumerate(coeffs[1:], 1)], coeffs)
    theta_rate = [(omega if n == 0 else 0) + mpmath.im(q) for n, q in enumerate(rate)]
    log_h_rate = [p * mpmath.re(q) + alpha * (-1) ** n / x ** (n + 1) for n, q in enumerate(rate)]
    h = [(abs(coeffs[0]) / mpmath.pi) ** p * x**alpha]
    for n in range(1, terms):
        h.append(sum(log_h_rate[k] * h[n - 1 - k] for k in range(n)) / n)
    theta = 2 * mpmath.pi * N * x + mpmath.arg(coeffs[0])
    qs, m = cos_power_antiderivatives(theta, p, terms)
    H, total = jet_quotient(h, theta_rate), mpmath.mpf(0)
    for k, q in enumerate(qs):
        total += (-1) ** k * H[0] * q
        H = jet_quotient([(n + 1) * c for n, c in enumerate(H[1:])], theta_rate)
    mean = mpmath.quad(lambda t: (abs(z_of(t)) / mpmath.pi) ** p * t**alpha, [x, 2 * x, 8 * x, mpmath.inf])
    return m * mean - total


def audit_e(Ns, p, alpha) -> None:
    f = PiecewiseConstant1D.indicator(0.25, 0.5)
    bps, cs = jumps_of(f)
    sides = {"right": (bps, cs), "left": ([-b for b in reversed(bps)], [-c for c in reversed(cs)])}
    print(f"f = chi[1/4, 1/2], p = {p:g}, alpha = {alpha:g}, K = {_TAIL_TERMS}, mpmath at {DPS} digits")
    print("N | X_N | near | side | tail | K terms | reference tail | rel. diff | e(N) | e(N) with reference tails | rel. diff")
    for N in Ns:
        x_n = _near_zone_end(f, N)
        ((near,),) = _partial_sum_integrals([f], [(p, alpha)], N, x_n, 1)
        near = float(near)
        ours, refs = near, mpmath.mpf(near)
        rows = []
        for (name, (b, c)), ((tail, terms),) in zip(sides.items(), _far_tails(f, N, x_n, [(p, alpha)])):
            x = mpmath.mpf(x_n)
            (near_ref,) = stretch(b, c, N, x, 8 * x, [(p, alpha)])
            ref = near_ref + asymptotic_tail(b, c, N, 8 * x, p, alpha, _TAIL_TERMS)
            ours += tail
            refs += ref
            rows.append((name, tail, terms, ref))
        e, e_ref = ours ** (1 / p), refs ** (1 / p)
        for name, tail, terms, ref in rows:
            listed = ", ".join(f"{t:.2e}" for t in terms)
            print(
                f"{N:g} | {x_n:g} | {near:.15g} | {name} | {tail:.15g} | {listed} | {mpmath.nstr(ref, 17)} | "
                f"{mpmath.nstr((tail - ref) / ref, 3)} | {e:.15g} | {mpmath.nstr(e_ref, 17)} | {mpmath.nstr((e - e_ref) / e_ref, 3)}"
            )


def audit_leg(ks) -> None:
    N, x_end = verify._SN_N, verify._SN_PANELS["x_max"]
    spacing, nodes = verify._SN_PANELS["spacing"], verify._SN_PANELS["nodes"]
    pairs = [(params.p, params.alpha) for params in verify._BLOCK_GRID]
    print(f"claim 3.1's dirichlet_sn leg on X < |x| < {x_end:g}, mpmath at {DPS} digits")
    print("k | p | alpha | X | segment: mpmath | closed form | rel. diff | 4-node panels | rel. diff | norm: closed form | 4-node panels | mpmath | moved | toward mpmath")
    for k in ks:
        f = make_canonical_block(verify._BLOCK_GRID[0], k).data
        x_n = _near_zone_end(f, N, x_end)
        near = _partial_sum_integrals([f], pairs, N, x_n, verify._SN_SUB, False)[0]
        bps, cs = jumps_of(f)
        refs = [2 * r for r in stretch(bps, cs, N, mpmath.mpf(x_n), mpmath.mpf(x_end), pairs)]
        closed = [2 * tail for tail, _ in _far_tail(np.asarray(f.breakpoints), np.diff(f.values, prepend=0.0, append=0.0), N, x_n, pairs, x_end)]
        edges = oscillation_edges(f.breakpoints, x_end, spacing)
        x, w = panel_nodes(edges[edges >= x_n], nodes)
        values = dirichlet_sn(f, N, x)
        panels = [2 * float(np.sum(weighted_power_terms(values, x, w, p, alpha))) for p, alpha in pairs]
        for (p, alpha), n, ref, c, q in zip(pairs, near, refs, closed, panels):
            norms = [(n + v) ** (1 / p) for v in (c, q)]
            norm_ref = (n + ref) ** (1 / p)
            moved = norms[0] / norms[1] - 1
            toward = abs(norms[0] - norm_ref) < abs(norms[1] - norm_ref)
            print(
                f"{k} | {p:g} | {alpha:g} | {x_n:g} | {mpmath.nstr(ref, 17)} | {c:.17g} | {mpmath.nstr((c - ref) / ref, 3)} | "
                f"{q:.17g} | {mpmath.nstr((q - ref) / ref, 3)} | {norms[0]:.17g} | {norms[1]:.17g} | {mpmath.nstr(norm_ref, 17)} | "
                f"{moved:.3g} | {'yes' if toward else 'no'}"
            )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", default="1,2,4")
    ap.add_argument("--p", default="1")
    ap.add_argument("--alpha", default="-1/2")
    ap.add_argument("--leg", action="store_true", help="audit claim 3.1's dirichlet_sn leg instead of e(N)")
    ap.add_argument("--k", default="0", help="the leg's block scales, comma-separated")
    args = ap.parse_args(argv)
    mpmath.mp.dps = DPS
    if args.leg:
        audit_leg([int(k) for k in args.k.split(",")])
        return
    p, alpha = float(Fraction(args.p)), float(Fraction(args.alpha))
    if not alpha < p - 1:
        raise SystemExit(f"the tails converge only for alpha < p - 1, got p = {p}, alpha = {alpha}")
    audit_e([float(Fraction(n)) for n in args.N.split(",")], p, alpha)


if __name__ == "__main__":
    main()
