"""Self-tests of the benchmark: its verdict checkers, its tracer and the
scaling of times to a fixed host speed.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import verdicts  # noqa: E402
from workloads import WORKLOADS, _expr_text  # noqa: E402

Z1, Z2, ZS1, ZS2 = ("z", 1), ("z", 2), ("zs", 1), ("zs", 2)


# -- the q = 1 reference, against small cases worked by hand


def test_reference_zs1_z1_on_the_two_sphere():
    # commutative at q = 1, and z_1 z*_1 is not the eliminated pair z_2 z*_2
    assert verdicts.reference_q1("sphere", 2, [(ZS1, Z1)]) == {
        ((Z1, 1), (ZS1, 1)): Fraction(1)
    }


def test_reference_eliminates_the_top_pair():
    # z_2 z*_2 = 1 - z_1 z*_1, so z*_2 z_2 z_1 = z_1 - z_1^2 z*_1
    assert verdicts.reference_q1("sphere", 2, [(ZS2, Z2, Z1)]) == {
        ((Z1, 1),): Fraction(1),
        ((Z1, 2), (ZS1, 1)): Fraction(-1),
    }


def test_reference_mq_is_the_plain_monomial():
    u11, u22 = ("u", 1, 1), ("u", 2, 2)
    words = [(u22, u11), (u11, u22)]
    assert verdicts.reference_q1("mq", 2, words) == {
        ((u11, 1), (u22, 1)): Fraction(2)
    }


def test_cli_output_of_zs1_z1_agrees_with_the_reference():
    # the output of `qsphere nf --algebra sphere --N 2 --expr "zs[1]*z[1]"`
    out = "(1-q^-2)+q^-2*z[1]*zs[1]"
    assert verdicts.parse_output(out) == {
        (): {0: 1, -2: -1},
        (Z1, ZS1): {-2: 1},
    }
    assert verdicts.check_nf_q1("sphere", 2, [(ZS1, Z1)], 0, out) is None


def test_parse_output_reads_fractions_powers_and_signs():
    got = verdicts.parse_output("-1/2*q^3*z[1]^2+(q-q^-1)*z[2]")
    assert got == {
        (Z1, Z1): {3: Fraction(-1, 2)},
        (Z2,): {1: 1, -1: -1},
    }


# -- every checker rejects a deliberately wrong answer


@pytest.mark.parametrize(
    "out",
    [
        "2*z[1]*zs[1]",  # wrong coefficient
        "z[1]",  # wrong word
        "(1-q^-2)",  # missing term
        "(1+q)/(1-q)*z[1]*zs[1]",  # not a Laurent coefficient
        "z[1]*",  # unreadable
    ],
)
def test_nf_checker_rejects_wrong_output(out):
    assert verdicts.check_nf_q1("sphere", 2, [(ZS1, Z1)], 0, out) is not None


def test_nf_checker_rejects_failing_exit_code():
    assert verdicts.check_nf_q1("sphere", 2, [(ZS1, Z1)], 1, "z[1]*zs[1]") is not None


def test_deep_checker_accepts_the_closed_form_in_any_spelling():
    k = 5
    assert verdicts.check_nf_deep(k, 0, "q^-5*z[1]*z[2]*z[2]*z[2]*z[2]*z[2]") is None
    assert verdicts.check_nf_deep(k, 0, "q^-5*z[1]*z[2]^5") is None


@pytest.mark.parametrize(
    "out",
    [
        "q^-4*z[1]*z[2]^5",  # wrong power of q
        "q^-5*z[2]^5*z[1]",  # wrong order of the word
        "q^-5*z[1]*z[2]^4",  # wrong word length
        "q^-5*z[1]*z[2]^5+z[1]",  # extra term
    ],
)
def test_deep_checker_rejects_wrong_output(out):
    assert verdicts.check_nf_deep(5, 0, out) is not None


def _reports(statuses):
    return [{"check": c, "status": s} for c, s in statuses.items()]


def test_verify_checker_accepts_the_known_answer():
    want = verdicts.expected_statuses("uq", 3, "all")
    assert want["confluence"] == "fail"
    assert set(v for k, v in want.items() if k != "confluence") == {"pass"}
    assert verdicts.check_verify("uq", 3, "all", 1, _reports(want)) is None
    want = verdicts.expected_statuses("suq", 2, "all")
    assert want["confluence"] == "pass"
    assert verdicts.check_verify("suq", 2, "all", 0, _reports(want)) is None


def test_verify_checker_rejects_wrong_answers():
    want = verdicts.expected_statuses("uq", 3, "all")
    passing = dict(want, confluence="pass")  # uq is not confluent
    assert verdicts.check_verify("uq", 3, "all", 0, _reports(passing)) is not None
    failing = dict(want, **{"hopf-axioms": "fail"})
    assert verdicts.check_verify("uq", 3, "all", 1, _reports(failing)) is not None
    missing = {k: v for k, v in want.items() if k != "star-laws"}
    assert verdicts.check_verify("uq", 3, "all", 1, _reports(missing)) is not None
    assert verdicts.check_verify("uq", 3, "all", 0, _reports(want)) is not None  # exit code
    assert verdicts.check_verify("uq", 3, "all", 1, None) is not None
    sphere2 = dict(verdicts.expected_statuses("sphere", 2, "all"))
    assert sphere2["gt-spectrum-thm76"] == "flagged"
    sphere2["gt-spectrum-thm76"] = "pass"
    assert verdicts.check_verify("sphere", 2, "all", 0, _reports(sphere2)) is not None


# -- workloads


def test_workloads_are_fixed_by_the_seed():
    for make in WORKLOADS.values():
        assert make(3) == make(3)
    assert WORKLOADS["rewrite"](3) != WORKLOADS["rewrite"](4)


def test_rewrite_spells_the_named_jobs():
    exprs = [job["argv"][-1] for job in WORKLOADS["rewrite"](0)]
    assert exprs[:3] == ["zs[1]^6*z[1]^6", "u[2,2]^100*u[1,1]", "z[2]^1500*z[1]"]
    assert _expr_text([(Z1, Z1, ZS1), (Z2,)]) == "z[1]^2*zs[1]+z[2]"


# -- the tracer, on the package under test


def test_tracer_patches_every_binding_and_spares_recursive_methods():
    import subprocess

    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import qsphere, qsphere.cli\n"
        "from qsphere import hopf, presentations, rewrite, rmatrix\n"
        "raw = rewrite.RewriteSystem.reduce_word, rmatrix.RFormEvaluator.eval_words\n"
        "from tracer import Tracer\n"
        "t = Tracer().install()\n"
        "assert hopf.build is presentations.build is qsphere.build\n"
        "assert presentations.build.__wrapped__ is not None\n"
        "assert (rewrite.RewriteSystem.reduce_word, rmatrix.RFormEvaluator.eval_words) == raw\n"
        "hopf.build_coaction('deltaR', 2)\n"
        "s = t.summary()\n"
        "assert s['spans']['presentations.build'][0] >= 3, s['spans']\n"
        "assert s['scalar_ops'] > 0 and s['nf_cache_words'] > 0\n"
    ) % (os.path.join(os.path.dirname(HERE), "src"), HERE)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=300)


def test_benchmark_json_names_every_emitted_metric():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    outcome = {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 1.0, "error": None,
               "wrong": None, "check_s": {}, "scale": 1.0}
    setup = {"setup_s": 0.1, "scale": 1.0}
    for declared, emitted in (
        (spec["end_to_end"], run.end_to_end([[outcome]], {"job": [setup]})),
        (spec["per_layer"], run.per_layer([outcome], [outcome])),
    ):
        assert [(m["name"], m["unit"]) for m in declared] == [
            (k, v["unit"]) for k, v in emitted.items()
        ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


# -- scaling to a fixed host speed


def test_scale_is_the_mean_probe_speed_against_the_reference():
    import run

    ref = run.REF_PROBE_S
    fast = {"probes": [ref, ref]}
    mixed = {"probes": [ref, 2 * ref]}  # half the time at half speed
    silent = {"probes": []}
    run.scale_to_reference([fast, mixed, silent])
    assert fast["scale"] == pytest.approx(1.0)
    assert mixed["scale"] == pytest.approx(0.75)
    assert silent["scale"] == pytest.approx((1 + 1 + 1 + 0.5) / 4)
    with pytest.raises(RuntimeError):
        run.scale_to_reference([{"probes": []}])


def test_probe_kernel_uses_no_qsphere_code():
    import subprocess

    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import job\n"
        "job._probe_unit()\n"
        "assert not [m for m in sys.modules if m.startswith('qsphere')]\n"
    ) % HERE
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
