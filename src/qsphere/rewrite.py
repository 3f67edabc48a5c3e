"""Terminating rewriting to canonical normal forms, and diamond-lemma checks.

A rewriting system is a set of oriented rules lhs -> rhs over a degree-then-
lexicographic monomial order.  Rule construction verifies that every word on
the right-hand side is strictly smaller than the left-hand side, which makes
every reduction step decrease the word multiset and guarantees termination.
Confluence is certified by resolving all overlap and inclusion ambiguities
(Bergman's diamond lemma); when the certificate passes, ``normal_form`` is
strategy-independent and irreducible words of bounded degree enumerate a
vector-space basis.
"""

from __future__ import annotations

from operator import add

from .errors import AlphabetMismatch, DuplicateRule, NonTerminatingRule
from .freealg import EMPTY, NcPoly, word_name
from .scalars import ONE, Scalar


class MonomialOrder:
    """Degree-first, then lexicographic on a fixed generator precedence."""

    def __init__(self, precedence):
        self.precedence = list(precedence)
        self.rank = {g: i for i, g in enumerate(self.precedence)}

    def key(self, word):
        return (len(word), tuple(self.rank[g] for g in word))


class Rule:
    """One oriented rule lhs -> rhs."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple, rhs: NcPoly):
        self.lhs = lhs
        self.rhs = rhs

    def validate(self, order: MonomialOrder):
        k = order.key(self.lhs)
        for w in self.rhs.terms:
            if order.key(w) >= k:
                raise NonTerminatingRule(
                    f"rule {word_name(self.lhs)} -> ... does not decrease at {word_name(w)}"
                )


class Ambiguity:
    """An unresolved overlap or inclusion of two rules."""

    def __init__(self, kind: str, rule_a: int, rule_b: int, word: tuple, difference: NcPoly):
        self.kind = kind  # "overlap" or "inclusion"
        self.rule_a = rule_a
        self.rule_b = rule_b
        self.word = word
        self.difference = difference


class AmbiguityReport:
    def __init__(self, total: int, unresolved: list):
        self.total = total
        self.unresolved = unresolved

    @property
    def confluent(self) -> bool:
        return not self.unresolved

    def to_dict(self):
        return {
            "ambiguities": self.total,
            "confluent": self.confluent,
            "unresolved": [
                {
                    "kind": a.kind,
                    "rules": [a.rule_a, a.rule_b],
                    "word": word_name(a.word),
                    "difference": repr(a.difference),
                }
                for a in self.unresolved
            ],
        }


def _add_scaled(acc, terms, c):
    """acc += c * terms in place, in the order of ``terms``; c is nonzero.

    Sums that cancel are deleted, so ``acc`` never holds a zero coefficient.
    """
    one = c.is_one
    if not acc:  # nothing to add to or cancel against
        acc.update(terms if one else {w: c2 * c for w, c2 in terms.items()})
        return
    for w, c2 in terms.items():
        if not one:
            c2 = c2 * c
        cur = acc.get(w)
        if cur is None:
            acc[w] = c2
        else:
            c2 = cur + c2
            if c2.is_zero:
                del acc[w]
            else:
                acc[w] = c2


class RewriteSystem:
    """Alphabet, monomial order and oriented rules, with a normal-form cache."""

    def __init__(self, order: MonomialOrder, rules):
        self.order = order
        self.rules = list(rules)
        self.alphabet = set(order.precedence)
        seen = {}
        for idx, r in enumerate(self.rules):
            if r.lhs in seen:
                raise DuplicateRule(f"duplicate lhs {word_name(r.lhs)}")
            seen[r.lhs] = idx
            for g in r.lhs:
                if g not in self.alphabet:
                    raise AlphabetMismatch(f"rule uses unknown generator {g}")
            for w in r.rhs.terms:
                for g in w:
                    if g not in self.alphabet:
                        raise AlphabetMismatch(f"rule uses unknown generator {g}")
            r.validate(self.order)
        self._lhs_index = seen
        self._lhs_lengths = sorted({len(r.lhs) for r in self.rules})
        self._back = max(self._lhs_lengths, default=1) - 1
        self._nf_cache: dict[tuple, NcPoly] = {}
        self._index_redexes()

    def _index_redexes(self):
        """The tables of the redex search and the rewrite step, built once.

        ``_pair_index`` maps a letter pair to the rules that can match at a
        position holding it, in rule order, as (index, the lhs past its
        first two letters); a left side shorter than two letters is listed
        under every pair it begins.  ``_last_index`` maps a letter to the
        first such short rule that matches a word's last letter alone.
        ``_steps`` holds, for each rule with a one-term rhs, (lhs length,
        rhs word, run letter, coefficient), and None for the other rules;
        the coefficient is an (exponent, integer) pair when it is a Laurent
        monomial and a ``Scalar`` otherwise.  The run letter is x for a
        swap x y -> c y x whose pair (x, y) lies in no other left side
        (see ``reduce_word``), and None otherwise.
        """
        rules = self.rules
        pairs, short = {}, []
        holders = {}  # letter pair -> the rules whose lhs contains it
        for idx, r in enumerate(rules):
            lhs = r.lhs
            if len(lhs) < 2:
                short.append((idx, lhs))
                continue
            pairs.setdefault(lhs[:2], []).append((idx, lhs[2:]))
            for i in range(len(lhs) - 1):
                holders.setdefault(lhs[i : i + 2], set()).add(idx)
        last = {}
        for idx, lhs in short:
            for a in self.alphabet:
                if lhs in ((), (a,)):
                    last.setdefault(a, idx)
                    for b in self.alphabet:
                        pairs.setdefault((a, b), []).append((idx, ()))
        self._pair_index = {k: tuple(sorted(v)) for k, v in pairs.items()}
        self._last_index = last
        self._steps = []
        for idx, r in enumerate(rules):
            if len(r.rhs.terms) != 1:
                self._steps.append(None)
                continue
            ((word, c),) = r.rhs.terms.items()
            if c.dn == (1,) and len(c.cf) == 1:
                c = (c.val, c.cf[0])
            run = None
            if len(r.lhs) == 2 and word == r.lhs[::-1] and holders[r.lhs] == {idx}:
                run = r.lhs[0]
            self._steps.append((len(r.lhs), word, run, c))

    # -- single-word machinery

    def _find_redex(self, word, start=0):
        """Leftmost reducible position; ties broken by rule list order.

        ``word`` is a tuple or a list.  The caller guarantees that no redex
        begins before ``start``.
        """
        get = self._pair_index.get
        n = len(word) - 1
        for pos in range(start, n):
            cands = get((word[pos], word[pos + 1]))
            if cands is not None:
                for idx, tail in cands:
                    if not tail or tuple(word[pos + 2 : pos + 2 + len(tail)]) == tail:
                        return (pos, idx)
        if self._last_index and start <= n:
            idx = self._last_index.get(word[n])
            if idx is not None:
                return (n, idx)
        return None

    def reduce_word(self, word) -> NcPoly:
        """Fully reduce a single word (memoized).

        A word's normal form is its leftmost redex's rhs terms, each reduced
        in place of the lhs and scaled by its coefficient, summed in rhs
        order.  A run of rules with a one-term rhs is followed on a list:
        each step overwrites the redex in place, and the word becomes a
        tuple again once, at the end of the run.  The cache is not looked up
        inside the run, and only its first and last words are cached.  After
        a rewrite at ``pos`` the untouched prefix still holds no whole lhs,
        so the next redex search starts ``maxL - 1`` letters before ``pos``.
        The run's coefficient is kept as an exponent and an integer while
        its rules' coefficients are Laurent monomials, and becomes one
        ``Scalar`` at its end.

        A swap x y -> c y x whose pair (x, y) lies in no other left side
        moves y past the whole run of x before the redex in one step, with
        coefficient c^k for the k letters x it passes.  This is the chain
        of k single steps, because after a single step at ``pos`` the next
        redex is the same rule at ``pos - 1`` when the letter there is x:

        - nothing that starts and ends before ``pos`` is a redex, since
          that part of the word is unchanged and held no redex before;
        - a left side that covers both ``pos - 1`` and ``pos`` holds the
          pair (x, y) there, so it is this rule's, starting at ``pos - 1``;
        - a left side of fewer than two letters that matched at ``pos - 1``
          would have matched there before the step.

        The search after the run starts ``maxL - 1`` letters before its new
        front, as after the last of the single steps.  For N >= 2 every
        one-term rule keeps the word length (the commutation rules and
        ``dinv u -> u dinv``); the ones that shorten a word exist only at
        N = 1.  Iterative over an explicit stack, so a long chain of
        rewrite steps is not limited by the interpreter's recursion depth.
        """
        word = tuple(word)
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        rules = self.rules
        steps = self._steps
        find = self._find_redex
        back = self._back
        # (word, redex search start, None) to reduce, or
        # (word, None, [(child, coef), ...]) once its children are queued
        stack = [(word, 0, None)]
        while stack:
            w, start, children = stack.pop()
            if children is None:
                if w in cache:
                    continue
                x = w
                buf = None
                e, m, other = 0, 1, ONE  # the run's coefficient m * q^e * other
                hit = find(w, start)
                while hit is not None:
                    pos, idx = hit
                    step = steps[idx]
                    if step is None:
                        break
                    L, r, run, c = step
                    if buf is None:
                        buf = list(w)
                    k = 1
                    if run is not None and pos and buf[pos - 1] == run:
                        s = pos - 1
                        while s and buf[s - 1] == run:
                            s -= 1
                        k += pos - s
                        buf[s : pos + 2] = r[:1] + r[1:] * k
                        pos = s
                    else:
                        buf[pos : pos + L] = r
                    if type(c) is tuple:
                        e += c[0] * k
                        m *= c[1] ** k
                    else:
                        other = other * (c if k == 1 else c**k)
                    start = max(0, pos - back)
                    hit = find(buf, start)
                if buf is not None:  # at least one step was taken
                    x = tuple(buf)
                    coef = Scalar.monomial(m, e)
                    if other is not ONE:
                        coef = coef * other
                    stack.append((w, None, [(x, coef)]))
                    if x in cache:
                        continue
                if hit is None:
                    cache[x] = NcPoly.monomial(x)
                    continue
                pos, idx = hit
                rule = rules[idx]
                pre, suf = x[:pos], x[pos + len(rule.lhs) :]
                children = [(pre + r + suf, c) for r, c in rule.rhs.terms.items()]
                stack.append((x, None, children))
                start = max(0, pos - back)
                stack.extend(
                    (y, start, None) for y, _ in reversed(children) if y not in cache
                )
                continue
            out = NcPoly()
            for x, c in children:
                _add_scaled(out.terms, cache[x].terms, c)
            cache[w] = out
        return cache[word]

    # -- public operations

    def normal_form(self, a: NcPoly) -> NcPoly:
        alphabet = self.alphabet
        for w in a.terms:
            if not alphabet.issuperset(w):
                g = next(g for g in w if g not in alphabet)
                raise AlphabetMismatch(f"unknown generator {g}")
        out = NcPoly()
        for w, c in a.terms.items():
            if not c.is_zero:
                _add_scaled(out.terms, self.reduce_word(w).terms, c)
        return out

    def _ambiguities(self):
        """Every overlap and inclusion ambiguity of two rules, in rule-pair
        order, as (kind, rule indices, word, its two one-step reducts).

        The rules b that meet rule a are looked up, not searched for: those
        whose left side begins with a proper suffix of lhs_a (overlaps, in a
        table of proper prefixes) and those whose left side is a shorter
        subword of lhs_a (inclusions, in ``_lhs_index``).  Sorting by
        (b, overlaps before inclusions, k or position) gives the order of
        the double loop over rule pairs."""
        rules = self.rules
        prefixes = {}  # proper prefix -> the rules whose lhs begins with it
        for ib, rb in enumerate(rules):
            for k in range(1, len(rb.lhs)):
                prefixes.setdefault(rb.lhs[:k], []).append(ib)
        for ia, ra in enumerate(rules):
            a = ra.lhs
            found = []
            for k in range(1, len(a)):
                found += [(ib, 0, k) for ib in prefixes.get(a[-k:], ())]
            for L in self._lhs_lengths:
                if L >= len(a):
                    break
                for pos in range(len(a) - L + 1):
                    ib = self._lhs_index.get(a[pos : pos + L])
                    if ib is not None:
                        found.append((ib, 1, pos))
            for ib, inclusion, k in sorted(found):
                b = rules[ib].lhs
                if not inclusion:  # a proper suffix of lhs_a is a proper prefix of lhs_b
                    yield (
                        "overlap", ia, ib, a + b[k:],
                        ra.rhs * NcPoly.monomial(b[k:]),
                        NcPoly.monomial(a[:-k]) * rules[ib].rhs,
                    )
                else:  # lhs_b is a proper subword of lhs_a, at position k
                    yield (
                        "inclusion", ia, ib, a, ra.rhs,
                        NcPoly.monomial(a[:k]) * rules[ib].rhs * NcPoly.monomial(a[k + len(b) :]),
                    )

    def check_confluence(self) -> AmbiguityReport:
        """Enumerate and resolve all overlap and inclusion ambiguities: each
        is resolved when its two reducts have the same normal form."""
        total = 0
        unresolved = []
        for kind, ia, ib, word, left, right in self._ambiguities():
            total += 1
            diff = self.normal_form(left) - self.normal_form(right)
            if not diff.is_zero:
                unresolved.append(Ambiguity(kind, ia, ib, word, diff))
        return AmbiguityReport(total, unresolved)

    def _ends_in_lhs(self, word) -> bool:
        """Does some rule's left side end at the last letter of ``word``?"""
        n = len(word)
        return any(word[n - L :] in self._lhs_index for L in self._lhs_lengths if L <= n)

    def enumerate_basis(self, max_degree: int):
        """Irreducible words grouped by degree, ascending within each degree.

        If confluence has not been certified this is only a spanning bound.
        """
        graded = [[EMPTY]]
        for d in range(1, max_degree + 1):
            level = []
            for w in graded[d - 1]:
                for g in self.order.precedence:
                    cand = w + (g,)
                    # appending one letter can only create a redex at a suffix
                    if not self._ends_in_lhs(cand):
                        level.append(cand)
            graded.append(level)
        return graded

    def count_normal_words(self, grade: dict, max_degree: int) -> dict:
        """The number of irreducible words of each grade among the words of
        length at most ``max_degree``, counted without listing them.

        ``grade`` maps each generator to a tuple of integers, and a word's
        grade is the sum over its letters.  A word is irreducible exactly
        when no rule's left side ends at any of its letters, so whether a
        letter may be appended depends only on the word's last maxL - 1
        letters (maxL the longest left side).  The count runs level by level
        over (those letters, grade) pairs, as ``enumerate_basis`` runs over
        words.  If confluence has not been certified these are only
        spanning bounds.
        """
        keep = max(self._lhs_lengths, default=1) - 1
        zero = tuple(0 for _ in next(iter(grade.values()), ()))
        counts = {zero: 1}
        level = {(EMPTY, zero): 1}  # (last letters, grade) -> words
        for _ in range(max_degree):
            nxt = {}
            for (tail, deg), c in level.items():
                for g in self.order.precedence:
                    cand = tail + (g,)
                    if not self._ends_in_lhs(cand):
                        key = (cand[len(cand) - keep :], tuple(map(add, deg, grade[g])))
                        nxt[key] = nxt.get(key, 0) + c
            level = nxt
            for (_, deg), c in level.items():
                counts[deg] = counts.get(deg, 0) + c
        return counts
