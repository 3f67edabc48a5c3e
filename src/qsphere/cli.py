"""Command-line front end: named verification suites and machine reports.

Every check emits one line ``check-name: status`` and, with ``--json``, a
report object with stable field order, whose ``details`` end with the
records of how each fact was decided (``decided``, see ``hopf.record``).
Exit code 0 means every requested check passed, 1 means at least one
failed, 2 means a usage or parse error.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from types import SimpleNamespace

from . import hopf, parser, presentations, rmatrix, spectrum
from .errors import (
    ExprSyntaxError,
    HypothesisFails,
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
    details = {**rep.to_dict(), "decided": [hopf.record("confluence")]}
    return ("pass" if rep.confluent else "fail", details, None)


def _check_star_laws(P, args):
    laws = hopf.star_laws(P)
    ok = laws["closure"] and laws["involution"]
    details = {"closure_and_involution": ok, "decided": laws["decided"]}
    return ("pass" if ok else "fail", details, None)


def _check_hecke(P, args):
    ok = rmatrix.check_hecke(P.N)
    return ("pass" if ok else "fail", {"N": P.N, "decided": [hopf.record("hecke-eq11")]}, None)


def _check_kernel(P, args):
    info = rmatrix.mult_kernel(P)
    details = {
        "dim_kernel": info["dim_kernel"],
        "dim_image": info["dim_image"],
        "expected_dim": P.N * (P.N - 1) // 2,
        "equal": info["equal"],
        "decided": [hopf.record("kernel-lemma67")],
    }
    ok = info["equal"] and info["dim_kernel"] == details["expected_dim"]
    return ("pass" if ok else "fail", details, None)


def _check_det_central(P, args):
    # decided in mq (on uq in its companion), which implies it in uq; the
    # verdict on D group-like is shared with the relation-kill lemmas, and
    # D central reads the cofactor expansions the other checks read
    det = presentations.quantum_determinant(P.N)
    central, central_decided = hopf.det_central(P, det)
    grouplike, grouplike_decided = hopf.det_grouplike(P)
    details = {
        "central": central,
        "grouplike": grouplike,
        "counit_one": hopf.counit(det, P).is_one,
        "decided_in": "mq",
        "decided": grouplike_decided + central_decided,
    }
    ok = details["central"] and details["grouplike"] and details["counit_one"]
    cx = None if ok else parser.render(det)
    return ("pass" if ok else "fail", details, cx)


def _check_hopf(P, args):
    return ("pass", hopf.verify_hopf(P), None)


def _check_matrix_identities(P, args):
    report = hopf.check_matrix_identities(P)
    return ("pass", report, None)


def _check_coaction(P, args):
    # one mq companion for both coefficient algebras, so the verdict on D
    # group-like memoised on it (``hopf.det_grouplike``) is computed once.
    # deltaR is rho_u pushed along uq -> suq and the embedding is deltaR at
    # a point of the sphere; each is verified on its own only where that
    # is refused, in the order of the report, so that a failure is the one
    # the report's first failing map gives.
    suq = presentations.build("suq", P.N)
    uq = presentations.build("uq", P.N, aux=suq.aux)
    try:
        rho_u, rho_u_failure = hopf.build_coaction("rho_u", P.N, sphere=P, coeff=uq), None
    except QsphereError as exc:
        rho_u, rho_u_failure = None, exc
    delta_r = rho_u and hopf.deltaR_from_rho_u(rho_u, suq)
    embedding = (delta_r and hopf.embedding_from_deltaR(delta_r)) or hopf.embed_sphere(
        P.N, sphere=P, target=suq
    )
    delta_r = delta_r or hopf.build_coaction("deltaR", P.N, sphere=P, coeff=suq)
    if rho_u_failure is not None:
        raise rho_u_failure
    details = {
        "embedding": True,
        "coactions": ["deltaR", "rho_u"],
        "decided": [r for m in (rho_u, delta_r, embedding) for r in m.report],
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
        "systems": out["systems"],
        "decided": out["decided"],
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
        "decided": [hopf.record("confluence"),
                    hopf.record("gt-spectrum-thm76", "normal-word-count", ["confluence"])],
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _open_json(path):
    """The ``--json`` file, opened before any work so a bad path costs none."""
    return open(path, "w") if path else contextlib.nullcontext()


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
    """The report of each named check, yielded as soon as it is made."""
    P = presentations.build(args.algebra, args.N)
    for name in sorted(names):
        fn = CHECKS[name][0]
        t0 = time.monotonic()
        try:
            status, details, cx = fn(P, args)
        except QsphereError as exc:
            status, details, cx = "fail", {"error": str(exc)}, None
        ms = int((time.monotonic() - t0) * 1000)
        params = {"max_degree": args.max_degree}
        yield _report(args.algebra, args.N, name, params, status, details, cx, ms)


def cmd_verify(args) -> int:
    """Print each check's line as the check finishes, so a run that ends in
    an error still shows what passed before it; the ``--json`` file gets
    the reports of the checks that finished, also then."""
    names = _check_names(args)
    reports = []
    with _open_json(args.json) as fh:
        try:
            for r in _run_checks(args, names):
                print(f"{r['check']}: {r['status']}", flush=True)
                reports.append(r)
        finally:
            if fh is not None:
                json.dump(reports, fh, indent=2)
    return 1 if any(r["status"] == "fail" for r in reports) else 0


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
    else:  # free-fail; the parser admits no other target
        Q = presentations.build_free_matrix(N)
        qmat = [[NcPoly.gen(("a", i + 1, j + 1)) for j in range(N)] for i in range(N)]
    try:
        psi = hopf.build_u_morphism(Q, qmat)
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


class _UsageError(Exception):
    """A bad command line, as (prog, message): one stderr line, exit 2."""


def _int_at_least(lo):
    def parse(text):
        with contextlib.suppress(ValueError):
            if int(text) >= lo:
                return int(text)
        raise ValueError(f"expected an integer >= {lo}, got {text!r}")

    return parse


_REQUIRED = object()
_N = (_int_at_least(1), _REQUIRED)
_ALGEBRA_N = {"--algebra": (ALGEBRAS, _REQUIRED), "--N": _N}

# command -> (help line, {option: (converter or choices, default)}), from which
# the usage text, --help and every usage error are read; command X runs
# cmd_X, looked up when it runs so that a replaced cmd_X is the one called
COMMANDS = {
    "verify": ("run named checks on an algebra", {
        **_ALGEBRA_N, "--checks": (str, "all"), "--max-degree": (_int_at_least(0), 3),
        "--max-eig": (_int_at_least(0), 2), "--json": (str, None)}),
    "basis": ("irreducible words by degree",
              {**_ALGEBRA_N, "--max-degree": (_int_at_least(0), _REQUIRED)}),
    "nf": ("normal form of an expression", {**_ALGEBRA_N, "--expr": (str, _REQUIRED)}),
    "det": ("print the quantum determinant", {"--N": _N}),
    "spectrum": ("Dirac eigenvalues with multiplicities", {
        "--N": _N, "--max-eig": (_int_at_least(0), _REQUIRED), "--json": (str, None)}),
    "rform": ("evaluate the universal r-form",
              {"--N": _N, "--left": (str, _REQUIRED), "--right": (str, _REQUIRED)}),
    "morphism": ("run a morphism-builder preset",
                 {"--N": _N, "--target": (("identity", "torus", "free-fail"), _REQUIRED)}),
}


def _show_usage(commands):
    """Print the usage of the named commands, with all their options."""
    lines = ["usage: qsphere COMMAND [--option value ...]; -h or --help prints this",
             "Options read --name value or --name=value, and a unique prefix of a name",
             "will do; a value is the next token, even one that begins with '-'."]
    for command in commands:
        line, options = COMMANDS[command]
        lines += ["", f"{command}: {line}"]
        for o, (c, d) in options.items():
            form = f"{o} {{{','.join(c)}}}" if isinstance(c, tuple) else f"{o} {o[2:].upper()}"
            note = "required" if d is _REQUIRED else "optional" if d is None else f"default {d}"
            lines.append(f"  {form:<36} {note}")
    print("\n".join(lines))
    return 0


def _option(token, names, prog):
    """The option a token names, exactly or by a unique prefix, and its
    value after '=' (or None); (None, None) if it names none."""
    key, eq, value = token.partition("=")
    key = "--help" if key == "-h" else key
    hits = [n for n in names if n == key] or [
        n for n in names if key.startswith("--") and len(key) > 2 and n.startswith(key)]
    if len(hits) > 1:
        raise _UsageError(prog, f"ambiguous option: {token} could match {', '.join(hits)}")
    return (hits[0], value if eq else None) if hits else (None, None)


def _parse_args(argv):
    """The function to run and its argument: a command with its options read
    by COMMANDS, or _show_usage with the commands whose usage is asked for."""
    if not argv:
        raise _UsageError("qsphere", "the following arguments are required: command")
    command, *rest = argv
    if _option(command, ["--help"], "qsphere")[0]:
        return _show_usage, list(COMMANDS)
    if command not in COMMANDS:
        raise _UsageError("qsphere", f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, COMMANDS))})")
    prog, options = f"qsphere {command}", COMMANDS[command][1]
    values, extras, tokens = {}, [], iter(rest)
    for token in tokens:
        opt, value = _option(token, [*options, "--help"], prog)
        if opt == "--help":
            return _show_usage, [command]
        if opt is None:
            extras.append(token)
            continue
        value = next(tokens, None) if value is None else value
        if value is None:
            raise _UsageError(prog, f"argument {opt}: expected one argument")
        conv = options[opt][0]
        if isinstance(conv, tuple) and value not in conv:
            raise _UsageError(prog, f"argument {opt}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, conv))})")
        try:
            values[opt] = value if isinstance(conv, tuple) else conv(value)
        except ValueError as exc:
            raise _UsageError(prog, f"argument {opt}: {exc}") from None
    missing = [o for o, (_, d) in options.items() if d is _REQUIRED and o not in values]
    if missing:
        raise _UsageError(prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError("qsphere", f"unrecognized arguments: {' '.join(extras)}")
    return globals()[f"cmd_{command}"], SimpleNamespace(
        **{o[2:].replace("-", "_"): values.get(o, d) for o, (_, d) in options.items()})


def main(argv=None) -> int:
    try:
        fn, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"{exc.args[0]}: error: {exc.args[1]}", file=sys.stderr)
        return 2
    try:
        return fn(args)
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
