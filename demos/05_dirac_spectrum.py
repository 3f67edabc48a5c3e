"""Dirac spectrum on the five-sphere from Weyl's dimension formula.

Multiplicities are the dimensions of the (n, k) summands, with highest
weight (n+k, k, ..., k, 0); the eigenvalue is -k on the (0, k) summands and
n + k otherwise.  The sphere's rewriting system is confluent, so its normal
words are a basis, and the count of normal words with n letters z_i and k
letters z*_i matches each summand's dimension.
"""

from qsphere.presentations import build
from qsphere.spectrum import dim_irrep, spectrum_with_multiplicities

print(f"dim of the (1,1) summand for N = 3: {dim_irrep(3, 1, 1)}")

out = spectrum_with_multiplicities(3, 3)
print("spectrum on the five-sphere (|eigenvalue| <= 3):")
for entry in out["spectrum"]:
    summands = ", ".join(f"({s['n']},{s['k']}):{s['dim']}" for s in entry["summands"])
    print(f"  lambda = {entry['eigenvalue']:>2}: multiplicity {entry['multiplicity']:>3}"
          f"   [{summands}]")

sphere = build("sphere", 3)
grade = {g: (1, 0) if g[0] == "z" else (0, 1) for g in sphere.generators}
counts = sphere.system.count_normal_words(grade, 3)
print(f"confluent: {sphere.system.check_confluence().confluent}")
print("normal words by bidegree vs summand dimension:")
for (n, k), c in sorted(counts.items()):
    d = dim_irrep(3, n, k)
    print(f"  ({n},{k}): {c:>2} words, dim {d:>2} -> {'match' if c == d else 'MISMATCH'}")

flagged = spectrum_with_multiplicities(2, 1)
print(f"N = 2 status: {flagged['status']} ({flagged['note']})")
