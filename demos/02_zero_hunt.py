"""Locate, verify, and cache nontrivial zeros on the critical line.

Zeros are bracketed by sign changes of the Hardy Z function on a grid
through the Gram points, polished to full precision, and certified
complete by Turing's method: the Gram blocks above the list bound N(t)
from above, so the sign changes below account for every zero.
"""
from bsylab import (DEFAULT, count_zeros, export_zeros, find_zeros_up_to,
                    import_zeros, verify_zero_list)

height = 100.0
zs = find_zeros_up_to(height, DEFAULT)
print(f"{len(zs)} zeros below t = {height:g}")
for g in zs.ordinates[:5]:
    print(f"  {g:.12f}")
print("  ...")

verified = verify_zero_list(zs, DEFAULT)
print(f"residuals and Turing count verified: {verified.verified}")
print(f"count_zeros({height:g}) = {count_zeros(height, DEFAULT)} "
      f"(list holds {len(zs)})")

path = "demo_zeros.txt"
export_zeros(zs, path)
back = import_zeros(path)
print(f"cache round-trip: {len(back)} zeros, "
      f"covered height {back.covered_height:.6f}")
