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
from .scalars import ONE


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
        self._nf_cache: dict[tuple, NcPoly] = {}

    # -- single-word machinery

    def _find_redex(self, word, start=0):
        """Leftmost reducible position; ties broken by rule list order.

        ``word`` is a tuple or a list.  The caller guarantees that no redex
        begins before ``start``.
        """
        get = self._lhs_index.get
        lengths = self._lhs_lengths
        n = len(word)
        for pos in range(start, n):
            best = None
            for L in lengths:
                if pos + L > n:
                    break
                idx = get(tuple(word[pos : pos + L]))
                if idx is not None and (best is None or idx < best):
                    best = idx
            if best is not None:
                return (pos, best)
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
        For N >= 2 every one-term rule keeps the word length (the
        commutation rules and ``dinv u -> u dinv``), so each step of a run
        costs the length of its rule, not of the word; the one-term rules
        that shorten a word exist only at N = 1.  Iterative over an explicit
        stack, so a long chain of rewrite steps is not limited by the
        interpreter's recursion depth.
        """
        word = tuple(word)
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        rules = self.rules
        find = self._find_redex
        back = max(self._lhs_lengths, default=1) - 1
        # (word, redex search start, None) to reduce, or
        # (word, None, [(child, coef), ...]) once its children are queued
        stack = [(word, 0, None)]
        while stack:
            w, start, children = stack.pop()
            if children is None:
                if w in cache:
                    continue
                x = w
                buf, coef = None, ONE
                hit = find(w, start)
                while hit is not None:
                    pos, idx = hit
                    rule = rules[idx]
                    if len(rule.rhs.terms) != 1:
                        break
                    ((r, c),) = rule.rhs.terms.items()
                    if buf is None:
                        buf = list(w)
                    buf[pos : pos + len(rule.lhs)] = r
                    if not c.is_one:
                        coef = coef * c
                    start = max(0, pos - back)
                    hit = find(buf, start)
                if buf is not None:  # at least one step was taken
                    x = tuple(buf)
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
        for w in a.terms:
            for g in w:
                if g not in self.alphabet:
                    raise AlphabetMismatch(f"unknown generator {g}")
        out = NcPoly()
        for w, c in a.terms.items():
            if not c.is_zero:
                _add_scaled(out.terms, self.reduce_word(w).terms, c)
        return out

    def _ambiguities(self):
        """Every overlap and inclusion ambiguity of two rules, in rule-pair
        order, as (kind, rule indices, word, its two one-step reducts)."""
        for ia, ra in enumerate(self.rules):
            for ib, rb in enumerate(self.rules):
                # overlap: proper suffix of lhs_a equals proper prefix of lhs_b
                for k in range(1, min(len(ra.lhs), len(rb.lhs))):
                    if ra.lhs[-k:] == rb.lhs[:k]:
                        yield (
                            "overlap", ia, ib, ra.lhs + rb.lhs[k:],
                            ra.rhs * NcPoly.monomial(rb.lhs[k:]),
                            NcPoly.monomial(ra.lhs[:-k]) * rb.rhs,
                        )
                # inclusion: lhs_b a proper subword of lhs_a
                if ia != ib and len(rb.lhs) < len(ra.lhs):
                    for pos in range(len(ra.lhs) - len(rb.lhs) + 1):
                        if ra.lhs[pos : pos + len(rb.lhs)] == rb.lhs:
                            pre = ra.lhs[:pos]
                            suf = ra.lhs[pos + len(rb.lhs) :]
                            yield (
                                "inclusion", ia, ib, ra.lhs, ra.rhs,
                                NcPoly.monomial(pre) * rb.rhs * NcPoly.monomial(suf),
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
