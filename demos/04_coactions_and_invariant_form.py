"""Sphere coactions, the morphism builder, and the invariant inner product.

Embeds the sphere into the special unitary coordinate algebra, builds both
standard coactions and says how each part of each map was decided (by a
lemma or by a loop), pushes the unitary coaction forward to the special
unitary one and that one to the embedding, solves the invariance linear
system for the form on the span of the coordinates, and runs the three
morphism-builder presets.
"""

from qsphere.errors import HypothesisFails
from qsphere.freealg import NcPoly, u, z
from qsphere.hopf import (
    build_coaction,
    build_u_morphism,
    check_form_preservation,
    check_intertwine,
    deltaR_from_rho_u,
    embed_sphere,
    embedding_from_deltaR,
    invariant_forms,
)
from qsphere.parser import render, render_scalar
from qsphere.presentations import build, build_free_matrix, build_torus


def decided(records):
    return ", ".join(f"{r['fact']} by {r['by']}" for r in records)


phi = embed_sphere(2)
print(f"sphere -> suq(2) embedding: {decided(phi.report)}")
for i in (1, 2):
    print(f"  z[{i}] -> {render(phi.images[z(i)])}")

coactions = {name: build_coaction(name, 2) for name in ("deltaR", "rho_u")}
for name, rho in coactions.items():
    print(f"coaction {name} (coefficients in {rho.coeff.name}): {decided(rho.report)}")

pushed = deltaR_from_rho_u(coactions["rho_u"], build("suq", 2))
print(f"deltaR as rho_u pushed along uq -> suq: {decided(pushed.report)}")
at_point = embedding_from_deltaR(pushed)
print(f"embedding as deltaR at the point z = (1, 0): {decided(at_point.report)}")

F, H = invariant_forms(2)
print("invariant form, N = 2:")
print("  F = diag(" + ", ".join(render_scalar(F[i][i]) for i in range(2)) + ")")
print("  H = diag(" + ", ".join(render_scalar(H[i][i]) for i in range(2)) + ")")
print(f"  coaction preserves H: {check_form_preservation(coactions['deltaR'], H)}")

# morphism builder presets
Q = build("uq", 2)
qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(2)] for i in range(2)]
psi = build_u_morphism(Q, qmat)
rho_u = coactions["rho_u"]
print(f"identity preset: intertwines the coaction: {check_intertwine(psi, rho_u, rho_u)}")

T = build_torus(2)
tmat = [[NcPoly.gen(("T", i + 1)) if i == j else NcPoly() for j in range(2)]
        for i in range(2)]
psi_t = build_u_morphism(T, tmat)
print("torus preset: built; dinv -> " + render(psi_t.images[("d",)]))

try:
    free = build_free_matrix(2)
    fmat = [[NcPoly.gen(("a", i + 1, j + 1)) for j in range(2)] for i in range(2)]
    build_u_morphism(free, fmat)
    print("free preset: unexpectedly succeeded")
except HypothesisFails as exc:
    print(f"free preset: fails at hypothesis ({exc.which}), as it must")
