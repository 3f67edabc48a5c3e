"""End-to-end command-line behavior: output contracts and exit codes."""

import argparse
import json

import pytest

from qsphere import cli, hopf, presentations
from qsphere.cli import REPORT_VERSION, main
from qsphere.freealg import NcPoly
from qsphere.rewrite import Ambiguity, AmbiguityReport, RewriteSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_sphere_all(capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    code, out, _ = run(
        capsys, "verify", "--algebra", "sphere", "--N", "2", "--json", report_path
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert "confluence: pass" in lines
    assert "kernel-lemma67: pass" in lines
    assert "star-laws: pass" in lines
    # one line per check; nothing fails (the two-sphere spectrum is flagged)
    assert all(l.endswith(": pass") or l.endswith(": flagged") for l in lines)
    assert "gt-spectrum-thm76: flagged" in lines
    reports = json.load(open(report_path))
    assert len(reports) == len(lines)
    for r in reports:
        assert list(r) == [
            "version", "algebra", "check", "params",
            "status", "details", "counterexample", "timing_ms",
        ]
        assert r["version"] == REPORT_VERSION
        assert r["algebra"] == {"name": "sphere", "N": 2}


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "suq", "--N", "2", "--checks", "hecke-eq11"
    )
    assert code == 0
    assert out.strip() == "hecke-eq11: pass"


def test_verify_failure_exit_code(capsys):
    # the unitary-group rewriting system is honestly reported non-confluent
    code, out, _ = run(
        capsys, "verify", "--algebra", "uq", "--N", "2", "--checks", "confluence"
    )
    assert code == 1
    assert "confluence: fail" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(
        capsys, "verify", "--algebra", "mq", "--N", "2", "--checks", "bogus"
    )
    assert code == 2
    assert "unknown check" in err


def test_verify_inapplicable_check(capsys):
    code, _, err = run(
        capsys, "verify", "--algebra", "mq", "--N", "2", "--checks", "kernel-lemma67"
    )
    assert code == 2


def test_verify_numeric(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "sphere", "--N", "2",
        "--checks", "confluence", "--q", "1/3",
    )
    assert code == 0
    assert "numeric-evaluation: pass" in out


def test_nf_command(capsys):
    code, out, _ = run(
        capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", "z[2]*z[1]"
    )
    assert code == 0
    assert out.strip() == "q^-1*z[1]*z[2]"


def test_nf_parse_error(capsys):
    code, _, err = run(capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", "z[")
    assert code == 2
    assert "syntax error" in err


def test_nf_bad_index(capsys):
    code, _, err = run(
        capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", "z[5]"
    )
    assert code == 2
    assert "not a generator" in err


def test_det_command(capsys):
    code, out, _ = run(capsys, "det", "--N", "2")
    assert code == 0
    assert out.strip() == "u[1,1]*u[2,2]-q*u[1,2]*u[2,1]"


def test_basis_command(capsys):
    code, out, _ = run(
        capsys, "basis", "--algebra", "sphere", "--N", "2", "--max-degree", "2"
    )
    assert code == 0
    assert "degree 0: 1" in out
    assert "degree 1: 4" in out


def test_spectrum_command(capsys, tmp_path):
    path = str(tmp_path / "spec.json")
    code, out, _ = run(capsys, "spectrum", "--N", "3", "--max-eig", "2", "--json", path)
    assert code == 0
    assert "eigenvalue 2: multiplicity 14" in out
    assert "flagged" not in out
    data = json.load(open(path))
    assert {"eigenvalue": 2, "multiplicity": 14} == {
        k: v
        for k, v in next(
            e for e in data["spectrum"] if e["eigenvalue"] == 2
        ).items()
        if k in ("eigenvalue", "multiplicity")
    }


def test_spectrum_n2_flagged(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "2", "--max-eig", "1")
    assert code == 0
    assert "flagged" in out


def test_spectrum_at_large_n(capsys):
    # Gelfand-Tsetlin patterns at N = 60 nest past the recursion limit
    code, out, err = run(capsys, "spectrum", "--N", "60", "--max-eig", "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "eigenvalue -1: multiplicity 60",
        "eigenvalue 0: multiplicity 1",
        "eigenvalue 1: multiplicity 60",
    ]


def test_rform_command(capsys):
    code, out, _ = run(
        capsys, "rform", "--N", "2", "--left", "u[1,1]", "--right", "u[1,1]"
    )
    assert code == 0
    assert out.strip() == "t^-1"


@pytest.mark.parametrize("side", ["--left", "--right"])
def test_rform_deep_word(capsys, side):
    # r(u11^n, u11) = r(u11, u11^n) = t^-n; n = 1,100 is past the recursion
    # limit of a per-letter recursive evaluation
    other = "--right" if side == "--left" else "--left"
    code, out, err = run(
        capsys, "rform", "--N", "2", side, "u[1,1]^1100", other, "u[1,1]"
    )
    assert (code, out.strip(), err) == (0, "t^-1100", "")


def test_rform_deep_words_on_both_sides(capsys):
    # r(u11^n, u11^n) = t^-(n*n): the left split walks the right word letter
    # by letter, where expanding its coproduct would take 2^n terms per split
    code, out, err = run(
        capsys, "rform", "--N", "2", "--left", "u[1,1]^12", "--right", "u[1,1]^12"
    )
    assert (code, out, err) == (0, "t^-144\n", "")


@pytest.mark.parametrize("left", ["t", "t*u[1,1]", "u[1,1]*t^-2"])
def test_rform_refuses_t_in_its_input(capsys, left):
    # arguments are parsed over suq in Q(q); t only appears in the output
    code, out, err = run(capsys, "rform", "--N", "2", "--left", left, "--right", "u[1,1]")
    assert (code, out) == (2, "")
    assert err == "error: t is not a generator of suq(2)\n"


def test_rform_prints_a_polynomial_argument_in_t(capsys):
    # degrees 0, 1 and 2 in one argument: q = t^-2 and each word pair
    # carries t^(|a||b|)
    code, out, err = run(capsys, "rform", "--N", "2",
                         "--left", "q + u[1,1] + q*u[1,1]^2", "--right", "u[2,2]")
    assert (code, out, err) == (0, "t+1+t^-2\n", "")


def test_morphism_presets(capsys):
    for target in ("identity", "torus"):
        code, out, _ = run(capsys, "morphism", "--N", "2", "--target", target)
        assert code == 0
        assert "morphism: ok" in out


_IDENTITY_3 = "morphism: ok\n  dinv -> dinv\n" + "".join(
    f"  u[{i},{j}] -> u[{i},{j}]\n" for i in (1, 2, 3) for j in (1, 2, 3)
)
_TORUS_2 = """morphism: ok
  dinv -> Ts[1]*Ts[2]
  u[1,1] -> T[1]
  u[1,2] -> 0
  u[2,1] -> 0
  u[2,2] -> T[2]
"""
_SUQ3_LEAD = (
    "-q^-3+q^-3*u[1,1]*u[2,2]*u[3,3]-q^-2*u[1,1]*u[2,3]*u[3,2]"
    "-q^-2*u[1,2]*u[2,1]*u[3,3]+q^-1*u[1,2]*u[2,3]*u[3,1]+q^-1*u[1,3]*u[2,1]*u[3,2]"
)
_UQ3_LEAD = (
    "-q^-3+q^-3*u[1,1]*u[2,2]*u[3,3]*dinv-q^-2*u[1,1]*u[2,3]*u[3,2]*dinv"
    "-q^-2*u[1,2]*u[2,1]*u[3,3]*dinv+q^-1*u[1,2]*u[2,3]*u[3,1]*dinv"
    "+q^-1*u[1,3]*u[2,1]*u[3,2]*dinv"
)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("morphism", "--N", "3", "--target", "identity"), _IDENTITY_3),
        (("morphism", "--N", "2", "--target", "torus"), _TORUS_2),
        (("nf", "--algebra", "suq", "--N", "2", "--expr", "u[1,2]*u[2,1]"),
         "-q^-1+q^-1*u[1,1]*u[2,2]\n"),
        (("nf", "--algebra", "suq", "--N", "2", "--expr", "u[2,2]*u[1,2]*u[2,1]*u[1,1]"),
         "(-q^-3+q^-5)+(q^-3-q^-5-q^-7)*u[1,1]*u[2,2]+q^-7*u[1,1]*u[1,1]*u[2,2]*u[2,2]\n"),
        (("nf", "--algebra", "uq", "--N", "2", "--expr", "u[2,1]*dinv*u[1,2]"),
         "-q^-1+q^-1*u[1,1]*u[2,2]*dinv\n"),
        (("nf", "--algebra", "uq", "--N", "2", "--expr",
          "u[1,1]*u[2,2]*dinv-q*u[1,2]*u[2,1]*dinv"), "1\n"),
        (("nf", "--algebra", "suq", "--N", "3", "--expr", "u[1,3]*u[2,2]*u[3,1]"),
         _SUQ3_LEAD + "\n"),
        (("nf", "--algebra", "uq", "--N", "3", "--expr", "dinv*u[1,3]*u[2,2]*u[3,1]"),
         _UQ3_LEAD + "\n"),
    ],
    ids=["morphism-identity-3", "morphism-torus-2", "nf-suq2-lead", "nf-suq2-deg4",
         "nf-uq2-lead", "nf-uq2-det-dinv", "nf-suq3-lead", "nf-uq3-lead"],
)
def test_printed_output_is_the_normal_form(capsys, argv, want):
    # what users read comes from the suq/uq normal form, not from the
    # mq-reduced forms that the checks compare through the zero test; on
    # uq 3 the normal form of a reduced S(D) is not dinv
    assert run(capsys, *argv) == (0, want, "")


def test_morphism_free_fail(capsys):
    code, out, _ = run(capsys, "morphism", "--N", "2", "--target", "free-fail")
    assert code == 0
    assert "fails at hypothesis (ii)" in out


def test_bad_arguments(capsys):
    assert run(capsys, "verify", "--algebra", "nope", "--N", "2")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_cache_dir_is_a_usage_error(capsys, tmp_path):
    # the artifact cache is gone; the option is an unknown argument
    cache = str(tmp_path / "cache")
    code, out, err = run(
        capsys, "verify", "--algebra", "suq", "--N", "2",
        "--checks", "matrix-identities", "--cache-dir", cache,
    )
    assert (code, out) == (2, "")
    assert err == f"qsphere: error: unrecognized arguments: --cache-dir {cache}\n"
    assert not (tmp_path / "cache").exists()


def test_cqt_report_records_the_proof_hypotheses(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "suq", "--N", "2",
                       "--checks", "cqt-eq2", "--json", path)
    assert (code, out) == (0, "cqt-eq2: pass\n")
    (report,) = json.load(open(path))
    assert report["details"] == {
        "generator_pairs": 16,
        "relation_kills": 56,
        "hopf_hypotheses": {
            "generators_checked": 4, "relations_checked": 7, "antipode_checked": True,
            "relation_kills": "lemma",
            "proved_by_lemma": ["antipode", "delta"],
            "hypotheses": [
                "relations-as-built", "delta-is-matrix-coproduct", "det-grouplike-in-mq",
                "epsilon-antipode-as-built", "antipode-laws-on-generators",
            ],
        },
        "reality": "all-degrees",
        "star_hypotheses": [
            "relations-as-built", "delta-is-matrix-coproduct", "det-grouplike-in-mq",
            "epsilon-antipode-as-built", "antipode-laws-on-generators", "hopf-axioms",
            "star-is-antipode-of-transpose", "transpose-kills-relations",
            "transpose-flips-coproduct",
        ],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "--algebra", "mq", "--N", "0", "--expr", "u[1,1]"),
        ("verify", "--algebra", "sphere", "--N", "1", "--checks", "coaction-eq20"),
        ("verify", "--algebra", "sphere", "--N", "2", "--checks", "confluence", "--q", "0"),
        ("verify", "--algebra", "sphere", "--N", "2", "--checks", "confluence", "--q", "abc"),
        ("spectrum", "--N", "1", "--max-eig", "1"),
        ("verify", "--algebra", "sphere", "--N", "2", "--checks", "confluence",
         "--json", "{missing}/report.json"),
        ("verify", "--algebra", "mq", "--N", "2", "--checks", "hopf-axioms",
         "--max-degree", "-5"),
        ("verify", "--algebra", "sphere", "--N", "1", "--checks", "gt-spectrum-thm76"),
        ("verify", "--algebra", "suq", "--N", "2", "--checks", "confluence",
         "--json", "{missing}/r.json"),
        ("spectrum", "--N", "2", "--max-eig", "1", "--json", "{missing}/r.json"),
        ("verify", "--algebra", "mq", "--N", "2", "--checks", ","),
        ("verify", "--algebra", "mq", "--N", "2", "--checks", ""),
        ("nf", "--algebra", "sphere", "--N", "2", "--expr", "(" * 2000 + "z[1]"),
    ],
    ids=["N0", "sphere-N1-coaction", "q0", "q-abc", "spectrum-N1", "json-unwritable",
         "negative-degree", "sphere-N1-spectrum", "json-unwritable-suq",
         "spectrum-json-unwritable", "checks-comma", "checks-empty",
         "deep-parentheses-unclosed"],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "error" in err and "Traceback" not in err


def test_check_below_its_least_N_is_named(capsys):
    for check in ("coaction-eq20", "gt-spectrum-thm76"):
        code, _, err = run(capsys, "verify", "--algebra", "sphere", "--N", "1",
                           "--checks", check)
        assert code == 2
        assert err.strip() == f"error: check {check!r} needs N >= 2"


def test_verify_all_skips_checks_below_their_least_N(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "1")
    assert code == 0
    assert [l.split(":")[0] for l in out.splitlines()] == [
        "confluence", "hecke-eq11", "kernel-lemma67", "star-laws",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--algebra", "mq", "--N", "2", "--checks", ","), "no checks named"),
        (("nf", "--algebra", "suq", "--N", "2", "--expr", "dinv"),
         "dinv is not a generator of suq(2)"),
        (("nf", "--algebra", "sphere", "--N", "2", "--expr", "w[1]"),
         "w is not a generator of sphere(2)"),
        (("rform", "--N", "2", "--left", "dinv", "--right", "u[1,1]"),
         "dinv is not a generator of suq(2)"),
        (("nf", "--algebra", "uq", "--N", "2", "--expr", "d[1]"),
         "d is not a generator of uq(2)"),
        (("nf", "--algebra", "uq", "--N", "2", "--expr", "d"),
         "d is not a generator of uq(2)"),
        (("nf", "--algebra", "sphere", "--N", "2", "--expr",
          "(" * 2000 + "w[1]" + ")" * 2000),
         "w is not a generator of sphere(2)"),
    ],
    ids=["empty-checks", "nf-dinv", "nf-family", "rform-dinv", "uq-d-indexed", "uq-d",
         "deep-parentheses"],
)
def test_bad_input_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("algebra, inner, want", [
    ("sphere", "z[1]", "z[1]"),
    ("suq", "u[1,2]*u[2,1]", "-q^-1+q^-1*u[1,1]*u[2,2]"),
])
def test_deep_parentheses_accepted(capsys, algebra, inner, want):
    # 2,000 nested parentheses are past the recursion limit of a recursive
    # descent; the parser keeps the nesting on an explicit stack
    code, out, err = run(capsys, "nf", "--algebra", algebra, "--N", "2", "--expr",
                         "(" * 2000 + inner + ")" * 2000)
    assert (code, out, err) == (0, want + "\n", "")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    code, out, err = run(capsys, "verify", "--algebra", "mq", "--N", "2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_system_error_is_one_error_line(capsys, monkeypatch):
    # CPython can report exhausted memory as a SystemError
    def exhausted(args):
        raise SystemError("error return without exception set")

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    code, out, err = run(capsys, "verify", "--algebra", "mq", "--N", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("algebra", ["suq", "uq"])
def test_hopf_and_star_laws_reach_n4(capsys, tmp_path, algebra):
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", algebra, "--N", "4",
                       "--checks", "hopf-axioms,star-laws", "--json", path)
    assert (code, out) == (0, "hopf-axioms: pass\nstar-laws: pass\n")
    reports = json.load(open(path))
    assert [r["details"]["relation_kills"] for r in reports] == ["lemma", "lemma"]
    assert all(r["details"]["hypotheses"] for r in reports)


def test_coaction_report_says_how_the_star_step_was_decided(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "2",
                       "--checks", "coaction-eq20", "--json", path)
    assert (code, out) == (0, "coaction-eq20: pass\n")
    (report,) = json.load(open(path))
    maps = report["details"]["maps"]
    assert sorted(maps) == ["deltaR", "embedding", "rho_u"]
    for m in maps.values():
        assert (m["relation_kills"], m["star_step"]) == ("loop", "lemma")
        assert "target-star-involution" in m["hypotheses"]


def test_coaction_check_decides_d_grouplike_once(capsys, monkeypatch):
    # the suq and uq of the check share one mq companion, and the verdict
    # on D is memoised there
    seen = []
    grouplike = hopf.check_grouplike
    monkeypatch.setattr(hopf, "check_grouplike",
                        lambda x, P: (seen.append(P), grouplike(x, P))[1])
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3",
                       "--checks", "coaction-eq20")
    assert (code, out) == (0, "coaction-eq20: pass\n")
    assert len(seen) == 1 and seen[0].name == "mq"


def test_invariant_form_check_solves_each_system_once(capsys, monkeypatch):
    calls = []
    solve = hopf._invariance_solution

    def counted(N, P, variant):
        calls.append(variant)
        return solve(N, P, variant)

    monkeypatch.setattr(hopf, "_invariance_solution", counted)
    code, out, _ = run(capsys, "verify", "--algebra", "uq", "--N", "3",
                       "--checks", "invariant-form-rem68")
    assert (code, out) == (0, "invariant-form-rem68: pass\n")
    assert sorted(calls) == ["z_zstar", "zstar_z"]


def _spectrum_report(capsys, tmp_path, N, *extra):
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", str(N),
                       "--checks", "gt-spectrum-thm76", "--json", path, *extra)
    (report,) = json.load(open(path))
    return code, out, report


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_spectrum_check_counts_every_bidegree(capsys, tmp_path, N):
    code, out, report = _spectrum_report(capsys, tmp_path, N)
    status = "flagged" if N == 2 else "pass"
    assert (code, out) == (0, f"gt-spectrum-thm76: {status}\n")
    details = report["details"]
    assert (details["max_eig"], details["confluent"]) == (2, True)
    assert [(b["n"], b["k"]) for b in details["bidegrees"]] == [
        (n, k) for n in range(3) for k in range(3 - n)
    ]
    summands = {(s["n"], s["k"]): s["dim"]
                for e in details["spectrum"] for s in e["summands"]}
    for b in details["bidegrees"]:
        assert b["normal_words"] == b["dim"] == summands[(b["n"], b["k"])]


def test_spectrum_check_fails_with_a_rule_dropped(capsys, tmp_path, monkeypatch):
    # without z_N z*_N -> 1 - ..., the words z_i z*_j are all normal, and
    # the (1, 1) count is N^2 where the summand has dimension N^2 - 1; the
    # smaller system is still confluent, so the count alone fails it
    rules = presentations._sphere_rules
    monkeypatch.setattr(presentations, "_sphere_rules", lambda N: rules(N)[:-1])
    code, out, report = _spectrum_report(capsys, tmp_path, 3)
    assert (code, out) == (1, "gt-spectrum-thm76: fail\n")
    details = report["details"]
    assert details["confluent"]
    wrong = [(b["n"], b["k"], b["normal_words"], b["dim"])
             for b in details["bidegrees"] if b["normal_words"] != b["dim"]]
    assert wrong == [(1, 1, 9, 8)]


def test_spectrum_check_fails_without_the_confluence_certificate():
    # every count matches, but without confluence the normal words are
    # only a spanning set, and the count proves nothing
    P = presentations.build("sphere", 3)
    rule = P.system.rules[0]
    bad = AmbiguityReport(1, [Ambiguity("overlap", 0, 0, rule.lhs, NcPoly.unit())])
    P.memo("confluence", lambda: bad)
    status, details, _ = cli._check_spectrum(P, argparse.Namespace(max_eig=2))
    assert (status, details["confluent"]) == ("fail", False)
    assert all(b["normal_words"] == b["dim"] for b in details["bidegrees"])


def test_sphere_suite_certifies_confluence_once(capsys, monkeypatch):
    calls = []
    check = RewriteSystem.check_confluence
    monkeypatch.setattr(RewriteSystem, "check_confluence",
                        lambda self: (calls.append(self), check(self))[1])
    code, _, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3")
    assert code == 0
    assert len(calls) == 1


def test_spectrum_check_reaches_n6_at_max_eig_20(capsys, tmp_path):
    # listing the normal words would take degree^(2N - 1) of them; the
    # count holds only each word's last letter and bidegree
    code, out, report = _spectrum_report(capsys, tmp_path, 6, "--max-eig", "20")
    assert (code, out, report["status"]) == (0, "gt-spectrum-thm76: pass\n", "pass")
    assert len(report["details"]["bidegrees"]) == 21 * 22 // 2


def test_invariant_form_report_records_the_solve(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "--algebra", "uq", "--N", "4",
                     "--checks", "invariant-form-rem68", "--json", path)
    assert code == 0
    (report,) = json.load(open(path))
    details = report["details"]
    assert details["solve"] == "graded"
    # the full solve: 16 unknowns, 256 products, 1,728 rows
    system = {"unknowns": 4, "products": 64, "rows": 224}
    assert details["systems"] == {"z_zstar": system, "zstar_z": system}


def test_hopf_report_records_generators_checked(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, _, _ = run(
        capsys, "verify", "--algebra", "mq", "--N", "2", "--checks", "hopf-axioms",
        "--max-degree", "5", "--json", path,
    )
    assert code == 0
    (report,) = json.load(open(path))
    assert report["params"] == {"max_degree": 5}
    assert report["details"]["generators_checked"] == 4


def test_nf_deep_word_has_no_recursion_limit(capsys):
    code, out, err = run(
        capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", "z[2]^1500*z[1]"
    )
    assert (code, err) == (0, "")
    assert out.strip() == "q^-1500*z[1]" + "*z[2]" * 1500
