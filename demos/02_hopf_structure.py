"""Hopf-algebra structure of the quantum unitary and special unitary groups.

Verifies the coalgebra axioms and antipode laws in every degree (the maps
kill every relation and the laws hold on each generator), shows the quantum
determinant is central and group-like, and runs the entrywise matrix
identities certifying the antipode and star.
"""

from qsphere.freealg import NcPoly
from qsphere.hopf import check_grouplike, check_matrix_identities, counit, verify_hopf
from qsphere.presentations import build, check_central, quantum_determinant
from qsphere.parser import render

det = quantum_determinant(2)
mq = build("mq", 2)
print(f"quantum determinant: {render(det)}")
print(f"  central in mq(2):  {check_central(det, mq)}")
print(f"  group-like:        {check_grouplike(det, mq)}")
print(f"  counit:            {render(NcPoly.unit(counit(det, mq)))}")

for name in ("suq", "uq"):
    P = build(name, 2)
    stats = verify_hopf(P)
    print(f"{name}(2): axioms hold in every degree ({stats['relations_checked']} "
          f"relations killed, laws on {stats['generators_checked']} generators)")
    report = check_matrix_identities(P)
    labels = sorted(k for k in report if k != "decided")
    print(f"  matrix identities: {labels}, decided by {report['decided'][-1]['by']}")
