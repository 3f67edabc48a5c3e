"""Answers known independently of the code under test, and their checkers.

Nothing here imports ``qsphere``.  Three kinds of answer are used:

* ``verify``: every check passes, except the ones the paper and README
  state otherwise.  The ``uq`` systems (N = 2, 3) and ``suq`` at N = 3 are
  not confluent in the prescribed orientation, so ``confluence`` reports
  ``fail`` there (and ``pass`` on ``suq`` at N = 2); the three-sphere
  (N = 2) Dirac spectrum is extrapolated and reports ``flagged``.
* ``nf`` on ``mq`` or the sphere: at q = 1 both algebras are commutative,
  so the normal form evaluated at q = 1 must equal the commutative image of
  the input -- the plain monomial for ``mq``, and for the sphere the
  reduction by z_N z*_N = 1 - sum_{i<N} z_i z*_i.
* the deep sphere word ``z[2]^k*z[1]``, whose normal form is exactly
  ``q^-k*z[1]*z[2]^k``.
"""

from __future__ import annotations

import re
from fractions import Fraction

# checks that ``verify --checks all`` runs, per algebra (README, "Available checks")
ALL_CHECKS = {
    "mq": ("confluence", "hecke-eq11", "det-central-rem36", "hopf-axioms"),
    "suq": (
        "confluence", "star-laws", "hecke-eq11", "hopf-axioms",
        "matrix-identities", "cqt-eq2",
    ),
    "uq": (
        "confluence", "star-laws", "hecke-eq11", "det-central-rem36",
        "hopf-axioms", "matrix-identities", "invariant-form-rem68",
    ),
    "sphere": (
        "confluence", "star-laws", "hecke-eq11", "kernel-lemma67",
        "coaction-eq20", "gt-spectrum-thm76",
    ),
}

NOT_PASS = {
    ("uq", 2, "confluence"): "fail",
    ("uq", 3, "confluence"): "fail",
    ("suq", 3, "confluence"): "fail",
    ("sphere", 2, "gt-spectrum-thm76"): "flagged",
}


def expected_statuses(algebra: str, N: int, checks) -> dict:
    names = ALL_CHECKS[algebra] if checks == "all" else checks
    return {c: NOT_PASS.get((algebra, N, c), "pass") for c in names}


def check_verify(algebra, N, checks, rc, reports):
    """None when the verify run gave the known answer, else the reason."""
    want = expected_statuses(algebra, N, checks)
    if not isinstance(reports, list):
        return "no JSON report"
    got = {r.get("check"): r.get("status") for r in reports}
    if got != want:
        bad = sorted(c for c in set(got) | set(want) if got.get(c) != want.get(c))
        return "statuses differ at " + ", ".join(
            f"{c}: got {got.get(c)}, want {want.get(c)}" for c in bad
        )
    want_rc = 1 if "fail" in want.values() else 0
    if rc != want_rc:
        return f"exit code {rc}, want {want_rc}"
    return None


# ---------------------------------------------------------------------------
# parsing the CLI's text output: words over generators with coefficients in
# Z[q, 1/q], kept exactly as {word: {exponent: Fraction}}
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def _tokens(text):
    out = []
    for m in _TOKEN.finditer(text):
        num, name, sym = m.groups()
        if num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append(("name", name))
        elif sym is not None and not sym.isspace():
            out.append(("sym", sym))
    out.append(("end", None))
    return out


def _lmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add_into(out, b, sign=1):
    for w, c in b.items():
        acc = out.setdefault(w, {})
        for e, x in c.items():
            acc[e] = acc.get(e, 0) + sign * x
            if not acc[e]:
                del acc[e]
        if not acc:
            del out[w]
    return out


def _pmul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _add_into(out, {w1 + w2: _lmul(c1, c2)})
    return out


def _ppow(a, k):
    out = {(): {0: Fraction(1)}}
    for _ in range(k):
        out = _pmul(out, a)
    return out


class _Reader:
    """expr := ["-"] term (("+"|"-") term)*;  term := factor (("*"|"/") factor)*;
    factor := atom ("^" ["-"] int)?;  atom := int | q | gen | "(" expr ")"."""

    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos]

    def _take(self, kind=None, val=None):
        tok = self.toks[self.pos]
        if (kind and tok[0] != kind) or (val is not None and tok[1] != val):
            raise ValueError(f"unexpected {tok!r} at token {self.pos}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        self._take("end")
        return out

    def expr(self):
        sign = -1 if self._peek() == ("sym", "-") else 1
        if sign < 0:
            self._take()
        out = _add_into({}, self.term(), sign)
        while self._peek() in (("sym", "+"), ("sym", "-")):
            sign = 1 if self._take()[1] == "+" else -1
            _add_into(out, self.term(), sign)
        return out

    def term(self):
        out = self.factor()
        while self._peek() in (("sym", "*"), ("sym", "/")):
            op = self._take()[1]
            rhs = self.factor()
            out = _pmul(out, rhs if op == "*" else _invert_monomial(rhs))
        return out

    def factor(self):
        base = self.atom()
        if self._peek() != ("sym", "^"):
            return base
        self._take()
        neg = self._peek() == ("sym", "-")
        if neg:
            self._take()
        k = self._take("int")[1]
        return _ppow(_invert_monomial(base) if neg else base, k)

    def atom(self):
        kind, val = self._take()
        if kind == "int":
            return {(): {0: Fraction(val)}} if val else {}
        if kind == "sym" and val == "(":
            out = self.expr()
            self._take("sym", ")")
            return out
        if kind == "name" and val == "q":
            return {(): {1: Fraction(1)}}
        if kind == "name":
            self._take("sym", "[")
            idx = [self._take("int")[1]]
            while self._peek() == ("sym", ","):
                self._take()
                idx.append(self._take("int")[1])
            self._take("sym", "]")
            return {((val, *idx),): {0: Fraction(1)}}
        raise ValueError(f"unexpected {val!r}")


def _invert_monomial(a):
    """Inverse of a scalar c*q^e; any other divisor is not a Laurent polynomial."""
    if list(a) != [()] or len(a[()]) != 1:
        raise ValueError("division by a non-monomial")
    (e, c), = a[()].items()
    return {(): {-e: 1 / c}}


def parse_output(text: str) -> dict:
    """The polynomial printed by ``qsphere nf``, exactly."""
    return _Reader(text.strip()).parse()


# ---------------------------------------------------------------------------
# the q = 1 reference
# ---------------------------------------------------------------------------


def _commutative(word):
    counts = {}
    for g in word:
        counts[g] = counts.get(g, 0) + 1
    return tuple(sorted(counts.items()))


def at_q1(poly: dict) -> dict:
    """Commutative image at q = 1: {sorted (generator, power) tuple: Fraction}."""
    out = {}
    for w, c in poly.items():
        key = _commutative(w)
        out[key] = out.get(key, 0) + sum(c.values())
    return {k: v for k, v in out.items() if v}


def _cmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            counts = dict(m1)
            for g, k in m2:
                counts[g] = counts.get(g, 0) + k
            key = tuple(sorted(counts.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def reference_q1(algebra: str, N: int, words) -> dict:
    """Commutative image at q = 1 of a sum of words (generator tuples)."""
    out = {}
    if algebra == "sphere":
        # z_N z*_N = 1 - sum_{i<N} z_i z*_i
        unit_rel = {(): Fraction(1)}
        for i in range(1, N):
            unit_rel[((("z", i), 1), (("zs", i), 1))] = Fraction(-1)
    for w in words:
        counts = dict(_commutative(w))
        part = {(): Fraction(1)}
        if algebra == "sphere":
            m = min(counts.get(("z", N), 0), counts.get(("zs", N), 0))
            for g in (("z", N), ("zs", N)):
                if g in counts:
                    counts[g] -= m
                    if not counts[g]:
                        del counts[g]
            for _ in range(m):
                part = _cmul(part, unit_rel)
        elif algebra != "mq":
            raise ValueError(f"no q = 1 reference for {algebra}")
        part = _cmul(part, {tuple(sorted(counts.items())): Fraction(1)})
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def check_nf_q1(algebra, N, words, rc, text):
    if rc != 0:
        return f"exit code {rc}, want 0"
    try:
        got = at_q1(parse_output(text))
    except ValueError as exc:
        return f"unreadable output: {exc}"
    if got != reference_q1(algebra, N, words):
        return "normal form at q = 1 differs from the commutative reduction"
    return None


def check_nf_deep(k, rc, text):
    """``z[2]^k*z[1]`` on the N = 2 sphere is ``q^-k*z[1]*z[2]^k``."""
    if rc != 0:
        return f"exit code {rc}, want 0"
    try:
        got = parse_output(text)
    except ValueError as exc:
        return f"unreadable output: {exc}"
    want = {(("z", 1),) + (("z", 2),) * k: {-k: Fraction(1)}}
    return None if got == want else f"not q^-{k}*z[1]*z[2]^{k}"
