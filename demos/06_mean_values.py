"""Dirichlet polynomial mean values and the moment identity.

The exact mean square of R(t) over [T, 2T] approaches the diagonal
T*sum r(n)^2 as T grows.  The weighted log-zeta moment over the same
range matches a closed-form prime sum, with the gap normalized by
N (log TN)^(3/2) sum r^2.
"""
import dataclasses

from bsylab import (DEFAULT, Lemma3Request, ResonatorParams, build_resonator,
                    lemma3_lhs, lemma3_normalization, lemma3_rhs,
                    mean_square_exact)
from bsylab.accum import comp_sum

params = ResonatorParams(mu=2, nu=0, N=100, h=0.1, L=1.0, A=2.0, B=30.0,
                         override=True)
table = build_resonator(params, "plus")
base = comp_sum(table.rs ** 2)

print("mean square of R over [T, 2T] vs the diagonal T*sum r^2")
for T in (1e2, 1e3, 1e4):
    ms = mean_square_exact(table, T)
    print(f"  T={T:8.0f}  mean square={ms:14.4f}  ratio to diagonal"
          f"={ms / (T * base):.6f}")

print()
print("log-zeta moment vs its closed-form main term (alpha=0.6, h=0.1)")
cfg = dataclasses.replace(DEFAULT, quad_tol=1e-3)
for T in (300.0, 1000.0):
    req = Lemma3Request(alpha=0.6, h=0.1, T=T, table=table)
    lhs = lemma3_lhs(req, cfg)
    rhs = lemma3_rhs(req)
    print(f"  T={T:6.0f}  moment={lhs:+.4f}")
    print(f"            main  ={rhs:+.4f}"
          f"   normalized gap="
          f"{abs(lhs - rhs) / lemma3_normalization(req):.6f}")
