"""The braiding operator, its Hecke eigenstructure, and the universal r-form.

Prints the exact braiding matrix for N = 2, checks the quadratic (Hecke)
relation and the eigenprojection ranks, identifies the kernel of the sphere
multiplication map with the shifted image of the braiding, and evaluates the
universal r-form on a few products.
"""

from qsphere.linalg import rank, transpose
from qsphere.parser import render_scalar
from qsphere.presentations import build
from qsphere.rmatrix import (
    RFormEvaluator,
    check_hecke,
    eigenprojections,
    mult_kernel,
    rhat,
)
from qsphere.freealg import NcPoly, u

R = rhat(2)
print("braiding matrix for N = 2 (basis e1e1, e1e2, e2e1, e2e2):")
for row in R:
    print("  [" + ", ".join(render_scalar(x) for x in row) + "]")

for N in (2, 3, 4):
    p_plus, p_minus = eigenprojections(N)
    info = mult_kernel(build("sphere", N))
    print(f"N={N}: hecke={check_hecke(N)}, "
          f"rank P+ = {rank(p_plus)}, rank P- = {rank(p_minus)}, "
          f"ker mu = im(R - q): {info['equal']} (dim {info['dim_kernel']})")

# the r-form is computed in Q(q) and printed in t, with t^2 = 1/q
ev = RFormEvaluator(build("suq", 2))
print("r-form on suq(2), parameter t with t^2 = 1/q:")
for (a, b) in (((1, 1), (1, 1)), ((1, 1), (2, 2)), ((2, 1), (1, 2))):
    val = ev.eval(NcPoly.gen(u(*a)), NcPoly.gen(u(*b)))
    print(f"  r(u[{a[0]},{a[1]}] (x) u[{b[0]},{b[1]}]) = {render_scalar(ev.in_t(val), var='t')}")
prod = NcPoly.monomial((u(1, 1), u(1, 2)))
print(f"  r(u[1,1]*u[1,2] (x) u[2,1]) = "
      f"{render_scalar(ev.in_t(ev.eval(prod, NcPoly.gen(u(2, 1)))), var='t')}")
M = ev.sigma_matrix()  # the braiding from the r-form, divided by t
print(f"  sigma recomputed from the r-form equals t*R: {M == rhat(2)}")
print(f"  sigma is exactly symmetric, so hermitian for real t: {M == transpose(M)}")
