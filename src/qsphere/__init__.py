"""Exact symbolic models of q-deformed matrix, unitary and sphere algebras.

The package builds finitely presented star-algebras over the rational
function field in the deformation parameter, normalizes elements through
terminating rewriting with confluence certificates, and mechanically checks
the structural identities these algebras are supposed to satisfy: Hopf
axioms, coactions, braiding/Hecke identities, the universal r-form calculus,
invariant sesquilinear forms, and Dirac spectrum multiplicities.
"""

from .errors import QsphereError
from .freealg import DINV, EMPTY, NcPoly, TensorPoly, u, z, zs
from .hopf import (
    Coaction,
    Morphism,
    antipode,
    build_coaction,
    build_u_morphism,
    check_form_preservation,
    check_grouplike,
    check_intertwine,
    check_matrix_identities,
    coproduct,
    counit,
    embed_sphere,
    invariant_forms,
    solve_invariant_forms,
    star_laws,
    verify_hopf,
)
from .parser import parse_expr, render, render_scalar
from .presentations import (
    Presentation,
    StructureMaps,
    antipode_matrix,
    build,
    build_free_matrix,
    build_torus,
    check_central,
    invariant_form_matrix,
    quantum_determinant,
)
from .rewrite import MonomialOrder, RewriteSystem, Rule
from .rmatrix import (
    RFormEvaluator,
    check_cqt,
    check_hecke,
    eigenprojections,
    mult_kernel,
    rhat,
    rhat_inverse,
)
from .scalars import ONE, QPARAM, ZERO, Scalar, qnum
from .spectrum import d_eigenvalue, dim_irrep, spectrum_with_multiplicities, weyl_dim

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
