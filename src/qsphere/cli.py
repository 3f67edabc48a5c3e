"""Command-line front end: named verification suites and machine reports.

Every check emits one line ``check-name: status`` and, with ``--json``, a
report object with stable field order.  Exit code 0 means every requested
check passed, 1 means at least one failed, 2 means a usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction

from . import hopf, parser, presentations, rmatrix, spectrum
from .errors import (
    AxiomFails,
    ExprSyntaxError,
    HypothesisFails,
    IdentityFails,
    IndexOutOfRange,
    InvalidTopRow,
    QsphereError,
    UnknownGenerator,
)
from .freealg import NcPoly, u, word_name
from .scalars import QPARAM, ZERO

REPORT_VERSION = "1"

ALGEBRAS = ("mq", "suq", "uq", "sphere")


def _report(algebra, N, check, params, status, details, counterexample, ms):
    return {
        "version": REPORT_VERSION,
        "algebra": {"name": algebra, "N": N},
        "check": check,
        "params": params,
        "status": status,
        "details": details,
        "counterexample": counterexample,
        "timing_ms": ms,
    }


# ---------------------------------------------------------------------------
# the verification checks; each returns (status, details, counterexample)
# ---------------------------------------------------------------------------


def _certificate(P):
    """The confluence certificate of P's rewriting system, once per P."""
    return P.memo("confluence", P.system.check_confluence)


def _check_confluence(P, args):
    rep = _certificate(P)
    return ("pass" if rep.confluent else "fail", rep.to_dict(), None)


def _check_star_laws(P, args):
    laws = hopf.star_laws(P)
    ok = laws["closure"] and laws["involution"]
    details = {
        "closure_and_involution": ok,
        "relation_kills": laws["relation_kills"],
        "hypotheses": laws["hypotheses"],
    }
    return ("pass" if ok else "fail", details, None)


def _check_hecke(P, args):
    ok = rmatrix.check_hecke(P.N)
    return ("pass" if ok else "fail", {"N": P.N}, None)


def _check_kernel(P, args):
    info = rmatrix.mult_kernel(P.N)
    details = {
        "dim_kernel": info["dim_kernel"],
        "dim_image": info["dim_image"],
        "expected_dim": P.N * (P.N - 1) // 2,
        "equal": info["equal"],
    }
    ok = info["equal"] and info["dim_kernel"] == details["expected_dim"]
    return ("pass" if ok else "fail", details, None)


def _check_det_central(P, args):
    # decided in mq (on uq in its companion), which implies it in uq; the
    # facts are shared with the relation-kill lemmas of hopf-axioms
    det = presentations.quantum_determinant(P.N)
    details = {
        "central": hopf.det_fact(P, "central"),
        "grouplike": hopf.det_fact(P, "grouplike"),
        "counit_one": hopf.counit(det, P).is_one,
        "decided_in": "mq",
    }
    ok = details["central"] and details["grouplike"] and details["counit_one"]
    cx = None if ok else parser.render(det)
    return ("pass" if ok else "fail", details, cx)


def _check_hopf(P, args):
    return ("pass", hopf.verify_hopf(P), None)


def _check_matrix_identities(P, args):
    report = presentations.check_matrix_identities(P)
    return ("pass", report, None)


def _check_coaction(P, args):
    # one mq companion for both coefficient algebras, so the facts about D
    # memoised on it (``hopf.det_fact``) are computed once
    suq = presentations.build("suq", P.N)
    uq = presentations.build("uq", P.N, aux=suq.aux)
    maps = {
        "embedding": hopf.embed_sphere(P.N, sphere=P, target=suq),
        "deltaR": hopf.build_coaction("deltaR", P.N, sphere=P, coeff=suq),
        "rho_u": hopf.build_coaction("rho_u", P.N, sphere=P, coeff=uq),
    }
    details = {
        "embedding": True,
        "coactions": ["deltaR", "rho_u"],
        "maps": {name: m.report for name, m in maps.items()},
    }
    return ("pass", details, None)


def _check_cqt(P, args):
    stats = rmatrix.check_cqt(P)
    return ("pass", stats, None)


def _check_invariant_form(P, args):
    N = P.N
    out = hopf.solve_invariant_forms(N, P)
    F, H = out["F"], out["H"]
    E = presentations.invariant_form_matrix(N)
    denom = sum((QPARAM ** (2 * m) for m in range(1, N + 1)), start=ZERO)
    c = QPARAM ** (2 * N) / denom
    ok_f = F == E
    ok_h = all(
        (H[i][j] == (c if i == j else ZERO)) for i in range(N) for j in range(N)
    )
    details = {
        "z_zstar_matches_diagonal_form": ok_f,
        "zstar_z_scalar_matrix": ok_h,
        "scalar": parser.render_scalar(c),
        "solve": out["solve"],
        "systems": out["systems"],
    }
    return ("pass" if ok_f and ok_h else "fail", details, None)


def _check_spectrum(P, args):
    # Under the confluence certificate the normal words are a basis, and
    # the one inhomogeneous relation, sum z_i z*_i = 1, only lowers
    # bidegree, so the normal words with n letters z_i and k letters z*_i
    # count the (n, k) summand: one count for each summand of the spectrum
    out = spectrum.spectrum_with_multiplicities(P.N, args.max_eig)
    grade = {g: (1, 0) if g[0] == "z" else (0, 1) for g in P.generators}
    counts = P.system.count_normal_words(grade, args.max_eig)
    dims = {(s["n"], s["k"]): s["dim"] for e in out["spectrum"] for s in e["summands"]}
    bidegrees = [
        {"n": n, "k": k, "normal_words": counts.get((n, k), 0), "dim": dim}
        for (n, k), dim in sorted(dims.items())
    ]
    confluent = _certificate(P).confluent
    ok = confluent and all(b["normal_words"] == b["dim"] for b in bidegrees)
    details = {
        "spectrum": out["spectrum"],
        "max_eig": args.max_eig,
        "confluent": confluent,
        "bidegrees": bidegrees,
    }
    return (out["status"] if ok else "fail", details, None)


# name -> (check, algebras it applies to, least N it applies to)
CHECKS = {
    "confluence": (_check_confluence, ALGEBRAS, 1),
    "star-laws": (_check_star_laws, ("sphere", "suq", "uq"), 1),
    "hecke-eq11": (_check_hecke, ALGEBRAS, 1),
    "kernel-lemma67": (_check_kernel, ("sphere",), 1),
    "det-central-rem36": (_check_det_central, ("mq", "uq"), 1),
    "hopf-axioms": (_check_hopf, ("mq", "suq", "uq"), 1),
    "matrix-identities": (_check_matrix_identities, ("suq", "uq"), 1),
    "coaction-eq20": (_check_coaction, ("sphere",), 2),
    "cqt-eq2": (_check_cqt, ("suq",), 1),
    "invariant-form-rem68": (_check_invariant_form, ("uq",), 1),
    "gt-spectrum-thm76": (_check_spectrum, ("sphere",), 2),
}


def _numeric_checks(P, q0):
    """Extra sanity at a rational parameter value: the braiding eigenspaces
    are orthogonal there."""
    ortho = rmatrix.check_eigenspace_orthogonality(P.N, q0)
    return (
        "pass" if ortho else "fail",
        {"q": str(q0), "eigenspace_orthogonality": ortho},
        None,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _open_json(path):
    """The ``--json`` file, opened before any work so a bad path costs none."""
    return open(path, "w") if path else contextlib.nullcontext()


def _emit(reports, fh):
    worst = 0
    for r in reports:
        print(f"{r['check']}: {r['status']}")
        if r["status"] == "fail":
            worst = 1
    if fh is not None:
        json.dump(reports, fh, indent=2)
    return worst


def _check_names(args):
    """The checks to run; naming one that cannot run here is a usage error."""
    if args.checks == "all":
        return [
            n for n, (_, algs, min_n) in CHECKS.items()
            if args.algebra in algs and args.N >= min_n
        ]
    names = [s.strip() for s in args.checks.split(",") if s.strip()]
    if not names:
        raise ValueError("no checks named")
    for name in names:
        entry = CHECKS.get(name)
        if entry is None:
            raise ValueError(f"unknown check {name!r}")
        _, algs, min_n = entry
        if args.algebra not in algs:
            raise ValueError(f"check {name!r} does not apply to {args.algebra}")
        if args.N < min_n:
            raise ValueError(f"check {name!r} needs N >= {min_n}")
    return names


def _run_checks(args, names):
    P = presentations.build(args.algebra, args.N)
    reports = []
    for name in sorted(names):
        fn = CHECKS[name][0]
        t0 = time.monotonic()
        try:
            status, details, cx = fn(P, args)
        except (AxiomFails, HypothesisFails, IdentityFails, QsphereError) as exc:
            status, details, cx = "fail", {"error": str(exc)}, None
        ms = int((time.monotonic() - t0) * 1000)
        params = {"max_degree": args.max_degree}
        reports.append(
            _report(args.algebra, args.N, name, params, status, details, cx, ms)
        )
    if args.q is not None:
        t0 = time.monotonic()
        status, details, cx = _numeric_checks(P, args.q)
        ms = int((time.monotonic() - t0) * 1000)
        reports.append(
            _report(args.algebra, args.N, "numeric-evaluation",
                    {"q": str(args.q)}, status, details, cx, ms)
        )
    return reports


def cmd_verify(args) -> int:
    names = _check_names(args)
    with _open_json(args.json) as fh:
        return _emit(_run_checks(args, names), fh)


def cmd_basis(args) -> int:
    P = presentations.build(args.algebra, args.N)
    graded = P.system.enumerate_basis(args.max_degree)
    for d, level in enumerate(graded):
        print(f"degree {d}: {len(level)}")
        for w in level:
            print(f"  {word_name(w)}")
    return 0


def cmd_nf(args) -> int:
    P = presentations.build(args.algebra, args.N)
    a = parser.parse_expr(args.expr, P)
    print(parser.render(P.nf(a)))
    return 0


def cmd_det(args) -> int:
    det = presentations.quantum_determinant(args.N)
    print(parser.render(det))
    return 0


def cmd_spectrum(args) -> int:
    with _open_json(args.json) as fh:
        out = spectrum.spectrum_with_multiplicities(args.N, args.max_eig)
        for entry in out["spectrum"]:
            print(f"eigenvalue {entry['eigenvalue']}: multiplicity {entry['multiplicity']}")
        if out["status"] == "flagged":
            print(f"flagged: {out['note']}")
        if fh is not None:
            json.dump(out, fh, indent=2)
    return 0


def cmd_rform(args) -> int:
    # the arguments are parsed over suq in Q(q); the value is printed in t
    ev = rmatrix.RFormEvaluator(presentations.build("suq", args.N))
    left = parser.parse_expr(args.left, ev.P)
    right = parser.parse_expr(args.right, ev.P)
    print(parser.render_scalar(ev.in_t(ev.eval(left, right)), var="t"))
    return 0


def cmd_morphism(args) -> int:
    N = args.N
    if args.target == "identity":
        Q = presentations.build("uq", N)
        qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(N)] for i in range(N)]
    elif args.target == "torus":
        Q = presentations.build_torus(N)
        qmat = [
            [NcPoly.gen(("T", i + 1)) if i == j else NcPoly() for j in range(N)]
            for i in range(N)
        ]
    elif args.target == "free-fail":
        Q = presentations.build_free_matrix(N)
        qmat = [[NcPoly.gen(("a", i + 1, j + 1)) for j in range(N)] for i in range(N)]
    else:
        print(f"unknown preset {args.target!r}", file=sys.stderr)
        return 2
    try:
        psi = hopf.build_u_morphism(Q, qmat, N)
    except HypothesisFails as exc:
        if args.target == "free-fail" and exc.which == "ii":
            print("morphism: fails at hypothesis (ii), as required")
            return 0
        print(f"morphism: hypothesis ({exc.which}) fails: {exc.witness}")
        return 1
    if args.target == "free-fail":
        print("morphism: expected a hypothesis failure but none occurred")
        return 1
    print("morphism: ok")
    for g in sorted(psi.images):
        print(f"  {word_name((g,))} -> {parser.render(psi.images[g])}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors as one stderr line, not the usage text."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _int_at_least(lo):
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return n

    return parse


def _nonzero_rational(text):
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        q0 = None
    if not q0:
        raise argparse.ArgumentTypeError(f"expected a nonzero rational, got {text!r}")
    return q0


def _make_argparser():
    top = _ArgumentParser(prog="qsphere")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", choices=ALGEBRAS, required=True)
        p.add_argument("--N", type=_int_at_least(1), required=True)

    p = sub.add_parser("verify", help="run named checks on an algebra")
    common(p)
    p.add_argument("--checks", default="all")
    p.add_argument("--max-degree", type=_int_at_least(0), default=3,
                   help="recorded in the report; no verify check reads it")
    p.add_argument("--max-eig", type=_int_at_least(0), default=2)
    p.add_argument("--json", default=None)
    p.add_argument("--q", type=_nonzero_rational, default=None,
                   help="nonzero rational value for numeric checks")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("basis", help="irreducible words by degree")
    common(p)
    p.add_argument("--max-degree", type=_int_at_least(0), required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("nf", help="normal form of an expression")
    common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("det", help="print the quantum determinant")
    common(p, algebra=False)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("spectrum", help="Dirac eigenvalues with multiplicities")
    common(p, algebra=False)
    p.add_argument("--max-eig", type=_int_at_least(0), required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("rform", help="evaluate the universal r-form")
    common(p, algebra=False)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_rform)

    p = sub.add_parser("morphism", help="run a morphism-builder preset")
    common(p, algebra=False)
    p.add_argument("--target", choices=("identity", "torus", "free-fail"), required=True)
    p.set_defaults(fn=cmd_morphism)

    return top


def main(argv=None) -> int:
    top = _make_argparser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except ExprSyntaxError as exc:
        print(f"syntax error at {exc.position}: expected {exc.expected}", file=sys.stderr)
        return 2
    except (UnknownGenerator, IndexOutOfRange, InvalidTopRow, ValueError, OSError) as exc:
        # inputs outside what a command supports (N too small for a check,
        # an unwritable --json path) are usage errors, not failed checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser, the normal form and the r-form all run on explicit
        # stacks; this keeps the one-line contract should anything recurse
        print("error: input too deep for the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except SystemError as exc:
        # CPython can report an exhausted memory limit as a SystemError
        # ("error return without exception set") instead of MemoryError
        print(f"error: interpreter failure, most likely out of memory ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
