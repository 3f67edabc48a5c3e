"""The benchmark's workloads: fixed lists of ``qsphere`` CLI jobs.

A job is a dict with the CLI arguments (``argv``), the presentation its
set-up builds (``algebra``, ``N``) and how its verdict is checked
(``kind`` plus the data the checker needs).  ``--seed`` picks the random
words of the two N = 3 ``nf`` jobs of ``rewrite`` and the job order of each
pass; the program only ever sees the generated CLI arguments.
"""

from __future__ import annotations

import random

DEEP_K = 1500  # z[2]^1500*z[1] overflows the recursive reduce_word today
RANDOM_WORDS = 120
RANDOM_LENGTH = 6


def _gen_text(g):
    return f"{g[0]}[{','.join(str(i) for i in g[1:])}]"


def _expr_text(words):
    """CLI expression for a sum of words, runs of a letter written as powers."""
    terms = []
    for w in words:
        runs = []
        for g in w:
            if runs and runs[-1][0] == g:
                runs[-1][1] += 1
            else:
                runs.append([g, 1])
        terms.append("*".join(_gen_text(g) + (f"^{k}" if k > 1 else "") for g, k in runs))
    return "+".join(terms)


def _generators(algebra, N):
    if algebra == "mq":
        return [("u", i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    return [("z", i) for i in range(1, N + 1)] + [("zs", i) for i in range(1, N + 1)]


def _nf_job(name, algebra, N, words, kind="nf-q1", **extra):
    argv = ["nf", "--algebra", algebra, "--N", str(N), "--expr", _expr_text(words)]
    return dict(name=name, kind=kind, algebra=algebra, N=N, argv=argv, words=words, **extra)


def _random_nf_job(name, algebra, N, seed):
    rng = random.Random(f"{seed}:{name}")
    gens = _generators(algebra, N)
    words = [
        tuple(rng.choice(gens) for _ in range(RANDOM_LENGTH))
        for _ in range(RANDOM_WORDS)
    ]
    return _nf_job(name, algebra, N, words)


def _verify_job(name, algebra, N, checks="all", max_degree=None):
    argv = ["verify", "--algebra", algebra, "--N", str(N)]
    if checks != "all":
        argv += ["--checks", ",".join(checks)]
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    return dict(name=name, kind="verify", algebra=algebra, N=N, argv=argv, checks=checks)


def rewrite(seed):
    """Parser, rewrite and scalars only, on the confluent mq and sphere: no
    structure maps, zero-test refinement or linear algebra.  The deep job
    fails today (``reduce_word`` recurses once per rewrite step) and is kept
    so that the defect shows in the error share."""
    z1, z2, zs1 = ("z", 1), ("z", 2), ("zs", 1)
    u11, u22 = ("u", 1, 1), ("u", 2, 2)
    return [
        _nf_job("nf-sphere2-zs1^6z1^6", "sphere", 2, [(zs1,) * 6 + (z1,) * 6]),
        _nf_job("nf-mq2-u22^100u11", "mq", 2, [(u22,) * 100 + (u11,)]),
        _nf_job(
            f"nf-sphere2-z2^{DEEP_K}z1", "sphere", 2, [(z2,) * DEEP_K + (z1,)],
            kind="nf-deep", k=DEEP_K,
        ),
        _random_nf_job("nf-sphere3-random", "sphere", 3, seed),
        _random_nf_job("nf-mq3-random", "mq", 3, seed),
    ]


def hopf_quotient(seed):
    """Hopf maps with legs decided by the echelon quotient (suq) and by plain
    nf (mq), and the r-form evaluated in the t-context."""
    return [
        _verify_job("verify-suq3-hopf-d2", "suq", 3, ("hopf-axioms",), max_degree=2),
        _verify_job("verify-suq2-all", "suq", 2),
        _verify_job(
            "verify-suq3-conf-star-mat", "suq", 3,
            ("confluence", "star-laws", "matrix-identities"),
        ),
        _verify_job("verify-mq3-all-d2", "mq", 3, max_degree=2),
    ]


def unitary_localize(seed):
    """The same Hopf and zero-test layers used the other way on uq (dinv
    cleared through determinant powers), with the only rref work and the
    rare true denominators ([N]_q) of the N = 4 invariant form."""
    return [
        _verify_job("verify-uq3-all-d2", "uq", 3, max_degree=2),
        _verify_job("verify-uq4-invform", "uq", 4, ("invariant-form-rem68",)),
        _verify_job("verify-sphere3-all", "sphere", 3),
    ]


WORKLOADS = {
    "rewrite": rewrite,
    "hopf-quotient": hopf_quotient,
    "unitary-localize": unitary_localize,
}
