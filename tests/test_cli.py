"""End-to-end command-line behavior: output contracts and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qsphere import cli, hopf, presentations
from qsphere.cli import ALGEBRAS, REPORT_VERSION, main
from qsphere.freealg import NcPoly, TensorPoly, u
from qsphere.parser import _int_text
from qsphere.rewrite import Ambiguity, AmbiguityReport, RewriteSystem
from qsphere.scalars import Scalar
from records import way, ways
from variants import variant, with_tables


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


def test_nf_command(capsys):
    code, out, _ = run(
        capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", "z[2]*z[1]"
    )
    assert code == 0
    assert out.strip() == "q^-1*z[1]*z[2]"


def test_nf_prints_and_reads_integers_past_the_digit_limit(capsys):
    # 2^20000 has 6,021 digits, past CPython's default limit of 4,300 on
    # int <-> str conversion; render's output must parse back
    code, out, err = run(capsys, "nf", "--algebra", "mq", "--N", "2", "--expr",
                         "2^20000*u[1,1]")
    assert (code, err) == (0, "")
    digits, word = out.strip().split("*", 1)
    assert (len(digits), word) == (6021, "u[1,1]")
    assert digits == _int_text(2**20000)  # checked digit by digit in test_parser
    assert run(capsys, "nf", "--algebra", "mq", "--N", "2", "--expr", out.strip()) == (
        0, out, "")
    literal = "9" + "0" * 4998 + "7"
    assert run(capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr",
               f"z[1]*{literal}") == (0, f"{literal}*z[1]\n", "")


def test_nf_of_a_deep_word(capsys):
    # z[2]^12000*z[1] = q^-12000 z[1]*z[2]^12000: one run of 12,000 swaps
    k = 12000
    code, out, err = run(capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr",
                         f"z[2]^{k}*z[1]")
    assert (code, err) == (0, "")
    assert out == f"q^-{k}*z[1]*" + "*".join(["z[2]"] * k) + "\n"


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


def test_morphism_exits_1_where_a_preset_goes_wrong(capsys, monkeypatch):
    # a torus with epsilon(T1) = 2 breaks hypothesis (i) of a preset meant
    # to pass; the free matrix with epsilon(a11) = 2 fails at (i), not at
    # the (ii) it must fail at; a builder that refuses nothing lets
    # free-fail through.  Each exits 1.
    def counit_doubled(build, g):
        return lambda N: with_tables(build(N), epsilon={g: Scalar.from_int(2)})

    monkeypatch.setattr(presentations, "build_torus",
                        counit_doubled(presentations.build_torus, ("T", 1)))
    assert run(capsys, "morphism", "--N", "2", "--target", "torus") == (
        1, "morphism: hypothesis (i) fails: counit of entry (1,1)\n", "")
    monkeypatch.setattr(presentations, "build_free_matrix",
                        counit_doubled(presentations.build_free_matrix, ("a", 1, 1)))
    assert run(capsys, "morphism", "--N", "2", "--target", "free-fail") == (
        1, "morphism: hypothesis (i) fails: counit of entry (1,1)\n", "")
    monkeypatch.setattr(hopf, "build_u_morphism", lambda Q, qmat: hopf.Morphism(Q, Q, {}))
    assert run(capsys, "morphism", "--N", "2", "--target", "free-fail") == (
        1, "morphism: expected a hypothesis failure but none occurred\n", "")


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


NF_MQ2 = ("nf", "--algebra", "mq", "--N", "2", "--expr")


@pytest.mark.parametrize("argv, err", [
    ((), "qsphere: error: the following arguments are required: command"),
    (("frobnicate",), "qsphere: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'verify', 'basis', 'nf', 'det', 'spectrum', 'rform', 'morphism')"),
    (("nf", "--algebra", "mq", "--N", "2", "--expr", "u[1,1]", "--bogus", "x"),
     "qsphere: error: unrecognized arguments: --bogus x"),
    (("nf", "stray", "--algebra", "mq", "--N", "2", "--expr", "u[1,1]"),
     "qsphere: error: unrecognized arguments: stray"),
    (("nf",), "qsphere nf: error: the following arguments are required: "
     "--algebra, --N, --expr"),
    (("rform", "--N", "2", "--left", "u[1,1]"),
     "qsphere rform: error: the following arguments are required: --right"),
    (NF_MQ2, "qsphere nf: error: argument --expr: expected one argument"),
    (("nf", "--algebra", "mq", "--N", "0", "--expr", "u[1,1]"),
     "qsphere nf: error: argument --N: expected an integer >= 1, got '0'"),
    (("nf", "--algebra", "nope", "--N", "2", "--expr", "u[1,1]"),
     "qsphere nf: error: argument --algebra: invalid choice: 'nope' "
     "(choose from 'mq', 'suq', 'uq', 'sphere')"),
    (("morphism", "--N", "2", "--target", "nope"),
     "qsphere morphism: error: argument --target: invalid choice: 'nope' "
     "(choose from 'identity', 'torus', 'free-fail')"),
    # the spot check at a numeric q is gone: it recomputed the Hecke
    # product that hecke-eq11 decides exactly, so it could not fail
    (("verify", "--algebra", "mq", "--N", "2", "--q", "1/3"),
     "qsphere: error: unrecognized arguments: --q 1/3"),
    (("verify", "--algebra", "mq", "--N", "2", "--max", "2"),
     "qsphere verify: error: ambiguous option: --max could match --max-degree, --max-eig"),
    (("verify", "--algebra", "mq", "--N", "2", "--max=2"),
     "qsphere verify: error: ambiguous option: --max=2 could match --max-degree, --max-eig"),
], ids=["no-command", "unknown-command", "unknown-option", "stray-token", "nf-required",
        "rform-required", "trailing-option", "N0", "bad-algebra", "bad-target",
        "q-unknown", "ambiguous-prefix", "ambiguous-prefix-inline"])
def test_usage_errors_are_one_stderr_line(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err + "\n")


def test_first_option_error_wins_over_a_later_help(capsys):
    # options are read left to right: a bad value before --help is reported
    code, out, err = run(capsys, "nf", "--N", "0", "--help")
    assert (code, out) == (2, "")
    assert err.startswith("qsphere nf: error: argument --N:")


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he",)], ids=str)
def test_help_at_the_top_names_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: qsphere COMMAND")
    for command, (line, options) in cli.COMMANDS.items():
        assert f"{command}: {line}" in out
        assert all(opt in out for opt in options)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_of_a_command_names_its_options(capsys, command, flag):
    # --help is read wherever it stands, before required options are missed
    code, out, err = run(capsys, command, "--N", "2", flag)
    assert (code, err) == (0, "")
    assert out.startswith("usage: qsphere")
    options = cli.COMMANDS[command][1]
    listed = [l.split()[0] for l in out.splitlines() if l.startswith("  --")]
    assert listed == list(options)
    for other in set(cli.COMMANDS) - {command}:
        assert f"\n{other}: " not in out


@pytest.mark.parametrize("argv", [
    NF_MQ2 + ("u[2,2]*u[1,1]",),
    ("nf", "--algebra=mq", "--N=2", "--expr=u[2,2]*u[1,1]"),
    ("nf", "--alg", "mq", "--N", "2", "--ex", "u[2,2]*u[1,1]"),
    ("nf", "--a=mq", "--N", "2", "--e", "u[2,2]*u[1,1]"),
    ("nf", "--expr", "u[2,2]*u[1,1]", "--N", "3", "--algebra", "sphere", "--N", "2",
     "--algebra", "mq"),
], ids=["spaced", "inline", "prefix", "prefix-inline", "last-wins"])
def test_option_forms_read_the_same(capsys, argv):
    assert run(capsys, *argv) == (0, "u[1,1]*u[2,2]+(-q+q^-1)*u[1,2]*u[2,1]\n", "")


def test_nf_output_beginning_with_minus_reads_back(capsys):
    # the value of an option is the next token even when it begins with '-',
    # so what nf prints can be given back to it as it stands
    code, out, _ = run(capsys, *NF_MQ2, "u[1,2]*u[2,1]-u[2,2]*u[1,1]")
    assert (code, out) == (0, "-u[1,1]*u[2,2]+(q+1-q^-1)*u[1,2]*u[2,1]\n")
    assert run(capsys, *NF_MQ2, out.strip()) == (0, out, "")


def test_rform_reads_arguments_beginning_with_minus(capsys):
    assert run(capsys, "rform", "--N", "2", "--left", "-u[1,1]", "--right", "u[1,1]") == (
        0, "-t^-1\n", "")


def test_benchmark_argument_shapes_parse(capsys, tmp_path):
    path = str(tmp_path / "r.json")
    code, out, err = run(capsys, "verify", "--algebra", "mq", "--N", "2", "--checks",
                         "confluence,hecke-eq11,hopf-axioms", "--max-degree", "2",
                         "--json", path)
    assert (code, err) == (0, "")
    assert out == "confluence: pass\nhecke-eq11: pass\nhopf-axioms: pass\n"
    assert [r["params"] for r in json.load(open(path))] == [{"max_degree": 2}] * 3
    expr = "+".join(["z[2]*z[1]*zs[1]"] * 251)
    assert len(expr) > 4000
    code, out, err = run(capsys, "nf", "--algebra", "sphere", "--N", "2", "--expr", expr)
    assert (code, out, err) == (0, "251*q^-1*z[1]*z[2]*zs[1]\n", "")


# the standard-library modules that qsphere imports by name
STDLIB_IMPORTS = ["__future__", "contextlib", "fractions", "itertools", "json", "math",
                  "operator", "sys", "time", "types"]


def _modules_added_by(code):
    """The modules that running code adds in a fresh interpreter started
    with -S, so that site and what it loads do not count."""
    src = str(Path(cli.__file__).parents[1])
    probe = f"import sys; before = set(sys.modules); {code}; print(*set(sys.modules) - before)"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    return set(out.stdout.split())


def test_cli_import_loads_only_the_standard_modules_it_names():
    # every run, and every benchmark job's setup_s, pays for the import of
    # qsphere.cli: it may load the modules qsphere names and what they pull
    # in (fractions: decimal, numbers; json and fractions: re, enum,
    # collections), and nothing else; argparse and the gettext it loads, or
    # a helper such as dataclasses or typing, would fail here
    allowed = _modules_added_by("; ".join(f"import {m}" for m in STDLIB_IMPORTS))
    added = _modules_added_by("import qsphere.cli")
    assert "qsphere.cli" in added
    assert {m for m in added if m.split(".")[0] != "qsphere"} - allowed == set()
    assert not {"argparse", "gettext"} & allowed


_EXTERIOR = ["mq-as-built", "exterior-algebra-confluent", "coaction-kills-exterior-relations"]
_GROUPLIKE = {"fact": "det-grouplike", "by": "exterior-algebra",
              "hypotheses": [*_EXTERIOR, "coaction-coassociative", "top-image-is-det"]}
_COFACTORS = {"fact": "cofactor-expansions", "by": "exterior-algebra", "hypotheses": [
    *_EXTERIOR, "top-image-is-det", "exterior-products", "row-coaction-on-minors",
    "column-coaction-kills-exterior-relations", "column-coaction-on-minors",
    "column-top-image-is-det"]}


def test_cqt_report_records_the_proof_hypotheses(capsys, tmp_path):
    # each fact once: the Hopf axioms and the star laws name the facts they
    # rest on instead of repeating their hypotheses
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "suq", "--N", "2",
                       "--checks", "cqt-eq2", "--json", path)
    assert (code, out) == (0, "cqt-eq2: pass\n")
    (report,) = json.load(open(path))
    assert report["details"] == {
        "generator_pairs": 16,
        "kill_pairs": 56,
        "decided": [
            _GROUPLIKE,
            _COFACTORS,
            {"fact": "antipode-laws-on-generators", "by": "cofactor-expansions",
             "hypotheses": ["cofactor-scope"]},
            {"fact": "hopf-axioms", "by": "frt-lemma", "hypotheses": [
                "relations-as-built", "delta-is-matrix-coproduct", "det-grouplike",
                "epsilon-antipode-as-built", "antipode-laws-on-generators"]},
            {"fact": "star-laws", "by": "star-lemma", "hypotheses": [
                "hopf-axioms", "star-is-antipode-of-transpose", "transpose-kills-relations",
                "transpose-flips-coproduct"]},
            {"fact": "reality-on-generators", "by": "braiding-table",
             "hypotheses": ["star-laws", "table-symmetric"]},
            {"fact": "reality", "by": "star-lemma",
             "hypotheses": ["star-laws", "reality-on-generators"]},
        ],
    }


def test_cqt_report_says_how_reality_on_generators_was_decided(capsys, tmp_path,
                                                               monkeypatch):
    # star(u11) = S(u11) + (D - 1) in the construction: the same star on
    # suq, but not S o tau on the tables, so the star lemma is refused and
    # reality on generator pairs pairs the cofactors, and holds
    construction = presentations._standard_construction

    def shifted(name, N):
        rules, star, structure, det = construction(name, N)
        if star is not None:  # the mq companion has none
            star[u(1, 1)] = star[u(1, 1)] + det - NcPoly.unit()
        return rules, star, structure, det

    monkeypatch.setattr(presentations, "_standard_construction", shifted)
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "suq", "--N", "2",
                       "--checks", "cqt-eq2,star-laws", "--json", path)
    assert (code, out) == (0, "cqt-eq2: pass\nstar-laws: pass\n")
    cqt, laws = json.load(open(path))
    assert ways(cqt["details"]["decided"]) == {
        "det-grouplike": "exterior-algebra", "cofactor-expansions": "exterior-algebra",
        "antipode-laws-on-generators": "cofactor-expansions", "hopf-axioms": "frt-lemma",
        "reality-on-generators": "loop",
    }
    assert laws["details"]["decided"] == [{"fact": "star-laws", "by": "loop", "hypotheses": []}]


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


def test_recursion_error_is_one_error_line(capsys, monkeypatch):
    def too_deep(args):
        raise RecursionError

    monkeypatch.setattr(cli, "cmd_verify", too_deep)
    code, out, err = run(capsys, "verify", "--algebra", "mq", "--N", "2")
    assert (code, out, err) == (2, "", "error: input too deep for the recursion limit\n")


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
    hopf_axioms, star_laws = json.load(open(path))
    assert way(hopf_axioms["details"], "hopf-axioms") == "frt-lemma"
    assert way(star_laws["details"], "star-laws") == "star-lemma"


def _coaction_maps(capsys, tmp_path, N):
    path = str(tmp_path / f"report{N}.json")
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", str(N),
                       "--checks", "coaction-eq20", "--json", path)
    assert (code, out) == (0, "coaction-eq20: pass\n")
    (report,) = json.load(open(path))
    return report["details"]["decided"]


def _check_coaction_maps(decided):
    # rho_u by lemmas 1 and 2, deltaR pushed forward from it, and the
    # embedding evaluated from deltaR, each naming the facts it rests on
    rho_u = ["rho_u-star-step", "rho_u-relation-kills", "rho_u-coaction-laws"]
    assert decided == [
        {"fact": "rho_u-star-step", "by": "construction",
         "hypotheses": ["source-star-swaps-generators", "star-commutes-in-free-algebra",
                        "target-star-involution"]},
        {"fact": "rho_u-relation-kills", "by": "star-orbits",
         "hypotheses": ["rho_u-star-step", "source-star-permutes-relations",
                        "target-star-closure"]},
        {"fact": "rho_u-coaction-laws", "by": "hopf-algebra-laws",
         "hypotheses": ["coefficients-as-built", "images-as-built", "coefficient-hopf-axioms"]},
        {"fact": "deltaR", "by": "push-forward",
         "hypotheses": [*rho_u, "quotient-map-star-morphism",
                        "quotient-map-hopf-on-generators", "images-pushed-forward"]},
        {"fact": "embedding", "by": "point-evaluation",
         "hypotheses": ["deltaR", "point-is-star-character", "images-pushed-forward"]},
    ]


def test_coaction_report_says_how_the_star_step_was_decided(capsys, tmp_path):
    # and how the relation kills and the laws were decided, per map
    for N in (2, 3):
        _check_coaction_maps(_coaction_maps(capsys, tmp_path, N))


def test_coaction_check_reaches_sphere_n4(capsys, tmp_path):
    _check_coaction_maps(_coaction_maps(capsys, tmp_path, 4))


def _tamper(P, part):
    if part == "delta":
        return with_tables(P, delta={u(1, 1): TensorPoly.monomial((u(1, 1),), (u(1, 1),))})
    return variant(P, star={**P.star, u(1, 2): P.star[u(1, 2)].scale(Scalar.from_int(2))})


@pytest.mark.parametrize(
    "algebra, part, error",
    [
        ("suq", "delta", "axiom coaction-coassociativity fails on z[1]"),
        ("suq", "star", "star breaks at z[2]"),
        ("uq", "delta", "axiom coaction-coassociativity fails on z[1]"),
    ],
)
def test_coaction_check_on_a_tampered_coefficient_algebra_keeps_its_verdict(
    capsys, tmp_path, monkeypatch, algebra, part, error
):
    # the push-forward is refused (suq) or never tried (rho_u fails on uq),
    # so the maps are verified on their own, and the check fails as with
    # the push-forward switched off
    build, push, pushed = presentations.build, hopf.deltaR_from_rho_u, []

    def tampered_build(name, N, **kw):
        P = build(name, N, **kw)
        return _tamper(P, part) if name == algebra else P

    def spied_push(rho_u, suq):
        pushed.append(push(rho_u, suq))
        return pushed[-1]

    monkeypatch.setattr(presentations, "build", tampered_build)
    monkeypatch.setattr(hopf, "deltaR_from_rho_u", spied_push)
    path = str(tmp_path / "report.json")
    run(capsys, "verify", "--algebra", "sphere", "--N", "2", "--checks", "coaction-eq20",
        "--json", path)
    (with_push,) = json.load(open(path))
    monkeypatch.setattr(hopf, "deltaR_from_rho_u", lambda r, s: None)
    run(capsys, "verify", "--algebra", "sphere", "--N", "2", "--checks", "coaction-eq20",
        "--json", path)
    (alone,) = json.load(open(path))
    assert with_push["status"] == alone["status"] == "fail"
    assert with_push["details"] == alone["details"] == {"error": error}
    assert pushed == ([None] if algebra == "suq" else [])


def test_coaction_check_decides_d_grouplike_once(capsys, monkeypatch):
    # the suq and uq of the check share one mq companion, and the verdict
    # on D is memoised there
    seen = []
    decide = hopf._exterior_proves_grouplike
    monkeypatch.setattr(hopf, "_exterior_proves_grouplike",
                        lambda P, D: (seen.append(P), decide(P, D))[1])
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3",
                       "--checks", "coaction-eq20")
    assert (code, out) == (0, "coaction-eq20: pass\n")
    assert len(seen) == 1 and seen[0].name == "mq"


@pytest.mark.parametrize("algebra, tamper, by, status", [
    ("mq", False, "exterior-algebra", "pass"),
    ("uq", False, "exterior-algebra", "pass"),
    ("mq", True, "loop", "fail"),
], ids=["mq-False-exterior-algebra-pass", "uq-False-exterior-algebra-pass",
        "mq-True-coproduct-fail"])
def test_det_central_report_says_how_d_grouplike_was_decided(
    capsys, tmp_path, monkeypatch, algebra, tamper, by, status
):
    # the tampered mq is not as built, so D central takes its loop too
    central = ([{"fact": "det-central", "by": "loop", "hypotheses": []}] if tamper else [
        _COFACTORS, {"fact": "det-central", "by": "cofactor-expansions",
                     "hypotheses": ["x-is-quantum-determinant"]}])
    grouplike = _GROUPLIKE if by == "exterior-algebra" else {
        "fact": "det-grouplike", "by": by, "hypotheses": []}
    if tamper:
        build = presentations.build
        monkeypatch.setattr(presentations, "build",
                            lambda name, N, **kw: _tamper(build(name, N, **kw), "delta"))
    path = str(tmp_path / "report.json")
    run(capsys, "verify", "--algebra", algebra, "--N", "3", "--checks", "det-central-rem36",
        "--json", path)
    (report,) = json.load(open(path))
    assert report["status"] == status
    assert report["details"] == {
        "central": True, "grouplike": status == "pass", "counit_one": True,
        "decided_in": "mq", "decided": [grouplike, *central],
    }


def _refuse_cofactors(monkeypatch):
    """Every cofactor certificate made from now on is refused, so each of
    its consumers takes its own loop."""
    monkeypatch.setattr(hopf, "_cofactors_by_exterior", lambda mq: None)


def test_d_central_is_decided_only_by_det_central_rem36(capsys, monkeypatch):
    _d_central_deciders(capsys, monkeypatch, refused=False)


def test_d_central_takes_the_commutators_where_the_certificate_is_refused(capsys, monkeypatch):
    _refuse_cofactors(monkeypatch)
    _d_central_deciders(capsys, monkeypatch, refused=True)


def _d_central_deciders(capsys, monkeypatch, refused):
    # the uq antipode lemma needs no D central in mq (it follows from uq's
    # own relations), so neither hopf-axioms nor coaction-eq20 decides it;
    # det-central-rem36 reads the cofactor certificate, and zero-tests the
    # commutators of D once, on the mq, only where it is refused
    decided, commutators = [], []
    det_central, check = hopf.det_central, presentations.check_central
    monkeypatch.setattr(hopf, "det_central",
                        lambda P, x: (decided.append(P.name), det_central(P, x))[1])
    monkeypatch.setattr(hopf, "check_central",
                        lambda x, P: (commutators.append(P.name), check(x, P))[1])
    for N in (2, 3, 4):
        assert way(hopf.verify_hopf(presentations.build("uq", N)), "hopf-axioms") == "frt-lemma"
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3",
                       "--checks", "coaction-eq20")
    assert (code, out, decided, commutators) == (0, "coaction-eq20: pass\n", [], [])
    code, out, _ = run(capsys, "verify", "--algebra", "uq", "--N", "2",
                       "--checks", "det-central-rem36")
    assert (code, out, decided) == (0, "det-central-rem36: pass\n", ["uq"])
    assert commutators == (["mq"] if refused else [])


def test_det_central_fails_on_a_d_that_is_not_central(capsys, tmp_path, monkeypatch):
    # D + u12 in place of D: group-like is decided on the true D (hopf's
    # own), and u11 u12 = q u12 u11 keeps D + u12 from being central
    det = presentations.quantum_determinant
    monkeypatch.setattr(presentations, "quantum_determinant",
                        lambda N: det(N) + NcPoly.gen(u(1, 2)))
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "--algebra", "mq", "--N", "2",
                       "--checks", "det-central-rem36", "--json", path)
    assert (code, out) == (1, "det-central-rem36: fail\n")
    (report,) = json.load(open(path))
    assert report["details"] == {
        "central": False, "grouplike": True, "counit_one": True, "decided_in": "mq",
        "decided": [_GROUPLIKE, {"fact": "det-central", "by": "loop", "hypotheses": []}],
    }
    assert report["counterexample"] == "u[1,2]+u[1,1]*u[2,2]-q*u[1,2]*u[2,1]"


def _without_decided_by(report, refused):
    """The report without its records and system sizes, after checking
    that no fact was read off the cofactor certificate where it was
    refused."""
    details = dict(report["details"])
    decided = details.pop("decided", [])
    assert not refused or all("cofactor-expansions" not in (r["fact"], r["by"]) for r in decided)
    details.pop("systems", None)
    return {**report, "details": details, "timing_ms": None}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("algebra", ["mq", "suq", "uq", "sphere"])
def test_verify_with_the_cofactor_certificate_refused_gives_the_same_reports(
    capsys, tmp_path, monkeypatch, algebra, N
):
    # every check that reads the certificate decides as its loop does (on
    # the sphere, coaction-eq20 reads the Hopf axioms of uq); only the
    # records and the system sizes differ
    path = str(tmp_path / "report.json")
    argv = ("verify", "--algebra", algebra, "--N", str(N), "--json", path)
    fast = run(capsys, *argv), json.load(open(path))
    _refuse_cofactors(monkeypatch)
    slow = run(capsys, *argv), json.load(open(path))
    assert fast[0] == slow[0]
    assert [_without_decided_by(r, False) for r in fast[1]] == [
        _without_decided_by(r, True) for r in slow[1]]
    read = [r for report in fast[1] for r in report["details"]["decided"]
            if r["by"] == "cofactor-expansions"]
    assert bool(read) == (algebra != "sphere")


# the fields that said how a fact was decided before every report listed
# its records, and the vocabulary of ``by``
_WAY_FIELDS = {"grouplike_by", "central_by", "decided_by", "solve", "relation_kills",
               "proved_by_lemma", "laws", "star_step", "reality", "hypotheses",
               "hopf_hypotheses", "star_hypotheses", "maps"}
_BY = {"loop", "exterior-algebra", "cofactor-expansions", "frt-lemma", "star-lemma",
       "braiding-table", "construction", "star-orbits", "hopf-algebra-laws", "push-forward",
       "point-evaluation", "normal-word-count"}


def _keys(value):
    """Every key of every object in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


@pytest.mark.parametrize("N", [2, 3])
def test_every_report_lists_how_each_fact_was_decided_in_one_shape(capsys, tmp_path, N):
    reports = []
    for algebra in ALGEBRAS:
        path = str(tmp_path / f"{algebra}.json")
        run(capsys, "verify", "--algebra", algebra, "--N", str(N), "--json", path)
        reports += json.load(open(path))
    all_facts = {r["fact"] for report in reports for r in report["details"]["decided"]}
    for report in reports:
        decided = report["details"].pop("decided")
        assert decided and all(list(r) == ["fact", "by", "hypotheses"] for r in decided)
        facts = [r["fact"] for r in decided]
        assert len(set(facts)) == len(facts), report["check"]
        assert {r["by"] for r in decided} <= _BY
        for k, r in enumerate(decided):
            # a fact named by a record, in ``by`` or among its hypotheses,
            # has its own record before it in the same report
            named = {r["by"], *r["hypotheses"]} & all_facts
            assert named <= set(facts[:k]), (report["check"], r)
        assert not _keys(report) & _WAY_FIELDS, report["check"]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert {by for by in _BY if f"`{by}`" not in readme} == set()


def test_verify_prints_each_check_as_it_finishes(capsys, tmp_path, monkeypatch):
    # the second check (in name order) runs out of memory: the first
    # check's line and report are already out, then one error line and
    # exit 2, and the third check does not run
    def out_of_memory(P, args):
        raise MemoryError

    monkeypatch.setitem(cli.CHECKS, "hecke-eq11",
                        (out_of_memory, *cli.CHECKS["hecke-eq11"][1:]))
    path = str(tmp_path / "report.json")
    code, out, err = run(capsys, "verify", "--algebra", "mq", "--N", "2",
                         "--checks", "confluence,hopf-axioms,hecke-eq11", "--json", path)
    assert (code, out, err) == (2, "confluence: pass\n", "error: out of memory\n")
    assert [r["check"] for r in json.load(open(path))] == ["confluence"]


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
    status, details, _ = cli._check_spectrum(P, SimpleNamespace(max_eig=2))
    assert (status, details["confluent"]) == ("fail", False)
    assert all(b["normal_words"] == b["dim"] for b in details["bidegrees"])


def test_kernel_check_uses_the_run_sphere(capsys, monkeypatch):
    built = []
    rules = presentations._sphere_rules
    monkeypatch.setattr(presentations, "_sphere_rules", lambda N: (built.append(N), rules(N))[1])
    code, out, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3",
                       "--checks", "kernel-lemma67")
    assert (code, out) == (0, "kernel-lemma67: pass\n")
    assert built == [3]


def test_sphere_suite_certifies_confluence_once(capsys, monkeypatch):
    # counted on the sphere's own system: the exterior algebra through
    # which D is proved group-like has its own certificate
    calls = []
    check = RewriteSystem.check_confluence
    monkeypatch.setattr(RewriteSystem, "check_confluence",
                        lambda self: (calls.append(self), check(self))[1])
    code, _, _ = run(capsys, "verify", "--algebra", "sphere", "--N", "3")
    assert code == 0
    sphere = presentations.build("sphere", 3).system.alphabet
    assert len([s for s in calls if s.alphabet == sphere]) == 1


def test_spectrum_check_reaches_n6_at_max_eig_20(capsys, tmp_path):
    # listing the normal words would take degree^(2N - 1) of them; the
    # count holds only each word's last letter and bidegree
    code, out, report = _spectrum_report(capsys, tmp_path, 6, "--max-eig", "20")
    assert (code, out, report["status"]) == (0, "gt-spectrum-thm76: pass\n", "pass")
    assert len(report["details"]["bidegrees"]) == 21 * 22 // 2


def test_invariant_form_report_records_the_solve(capsys, tmp_path):
    _invariant_form_solve_report(capsys, tmp_path, refused=False)


def test_invariant_form_report_records_the_graded_solve_where_refused(
    capsys, tmp_path, monkeypatch
):
    _refuse_cofactors(monkeypatch)
    _invariant_form_solve_report(capsys, tmp_path, refused=True)


def _invariant_form_solve_report(capsys, tmp_path, refused):
    path = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "--algebra", "uq", "--N", "4",
                     "--checks", "invariant-form-rem68", "--json", path)
    assert code == 0
    (report,) = json.load(open(path))
    details = report["details"]
    if refused:
        # the full solve
        by, system = "loop", {"unknowns": 16, "products": 256, "rows": 1728}
    else:
        # read off the cofactor expansions: no system is formed
        by, system = "cofactor-expansions", {"unknowns": 16, "products": 0, "rows": 0}
    assert [way(details, f"invariance-{v}") for v in ("z_zstar", "zstar_z")] == [by, by]
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
