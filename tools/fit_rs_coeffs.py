"""Fit the Riemann-Siegel correction functions C1..C3 on p in [0,1].

For fixed fractional part p of sqrt(t/2pi), the remainder of the
Riemann-Siegel main sum expands as

    Z(t) - mainsum(t) = (-1)^(N-1) (2pi/t)^(1/4) * sum_k C_k(p) (2pi/t)^(k/2)

We evaluate the left side with mpmath at high precision for a ladder of
integer parts N (fixed p), and least-squares the polynomial in
x = (2pi/t)^(1/2) = 1/(N+p).  C0 has the closed form
cos(2pi(p^2-p-1/16))/cos(2pi p), which validates the pipeline.

Output: chebyshev coefficients for C0..C3, written to
_rs_coeffs_generated.py next to this script, to be pasted into
src/bsylab/_rs_coeffs.py.  Run as ``python3 tools/fit_rs_coeffs.py``.
"""
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().with_name("_rs_coeffs_generated.py")

mp.mp.dps = 40

def mainsum(t, N):
    th = mp.siegeltheta(t)
    s = mp.mpf(0)
    for n in range(1, N + 1):
        s += mp.cos(th - t * mp.log(n)) / mp.sqrt(n)
    return 2 * s

def remainder_series(p, Ns, deg=9):
    rows, ys = [], []
    for N in Ns:
        tau = mp.mpf(N) + p
        t = 2 * mp.pi * tau ** 2
        R = (mp.siegelz(t) - mainsum(t, N)) * (-1) ** (N - 1) * tau ** mp.mpf(0.5)
        x = 1 / tau
        rows.append([x ** k for k in range(deg + 1)])
        ys.append(R)
    A = mp.matrix(rows)
    y = mp.matrix(ys)
    coef = mp.lu_solve(A.T * A, A.T * y)
    return [float(c) for c in coef]

def psi(p):
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)

def main():
    deg_cheb = 40
    # chebyshev points on [0,1]
    k = np.arange(deg_cheb + 1)
    pts = 0.5 * (1 - np.cos(np.pi * k / deg_cheb))
    Ns = sorted({int(v) for v in np.round(np.geomspace(12, 150, 36)).astype(int)})
    C = np.zeros((4, len(pts)))
    worst_c0 = 0.0
    for i, pf in enumerate(pts):
        p = mp.mpf(float(pf))
        if abs(float(mp.cos(2 * mp.pi * p))) < 1e-12:
            p = p + mp.mpf('1e-9')
        coef = remainder_series(p, Ns)
        c0_exact = float(psi(p))
        worst_c0 = max(worst_c0, abs(coef[0] - c0_exact))
        for j in range(4):
            C[j, i] = coef[j]
        print(f"node {i}: p={float(p):.6f} C0err={abs(coef[0]-c0_exact):.2e} "
              f"C1={coef[1]:+.6e} C2={coef[2]:+.6e} C3={coef[3]:+.6e}", flush=True)
    print("worst C0 deviation vs closed form:", worst_c0)
    # chebfit on [0,1]
    out = ["# generated by tools/fit_rs_coeffs.py; chebyshev coeffs on [0,1]",
           "import numpy as np", ""]
    for j in (0, 1, 2, 3):
        cf = np.polynomial.chebyshev.Chebyshev.fit(pts, C[j], deg_cheb, domain=[0.0, 1.0])
        arr = np.array2string(cf.coef, separator=',', precision=17, max_line_width=100)
        out.append(f"C{j}_CHEB = np.array({arr})")
        # report fit residual at midpoints
        mid = np.linspace(0, 1, 301)
        print(f"C{j} cheb selfcheck maxerr on nodes:",
              np.max(np.abs(cf(pts) - C[j])))
    OUT.write_text("\n".join(out) + "\n")
    print(f"written {OUT}")

if __name__ == '__main__':
    main()
