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

from dataclasses import dataclass, field

from .errors import AlphabetMismatch, DuplicateRule, NonTerminatingRule
from .freealg import EMPTY, NcPoly, word_name


class MonomialOrder:
    """Degree-first, then lexicographic on a fixed generator precedence."""

    def __init__(self, precedence):
        self.precedence = list(precedence)
        self.rank = {g: i for i, g in enumerate(self.precedence)}

    def key(self, word):
        return (len(word), tuple(self.rank[g] for g in word))

    def less(self, a, b) -> bool:
        return self.key(a) < self.key(b)

    def sorted_words(self, words, reverse=True):
        return sorted(words, key=self.key, reverse=reverse)


@dataclass
class Rule:
    lhs: tuple
    rhs: NcPoly

    def validate(self, order: MonomialOrder):
        k = order.key(self.lhs)
        for w in self.rhs.terms:
            if order.key(w) >= k:
                raise NonTerminatingRule(
                    f"rule {word_name(self.lhs)} -> ... does not decrease at {word_name(w)}"
                )


@dataclass
class Ambiguity:
    kind: str  # "overlap" or "inclusion"
    rule_a: int
    rule_b: int
    word: tuple
    difference: NcPoly


@dataclass
class AmbiguityReport:
    total: int
    unresolved: list = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        return not self.unresolved

    def to_dict(self, render=word_name):
        return {
            "ambiguities": self.total,
            "confluent": self.confluent,
            "unresolved": [
                {
                    "kind": a.kind,
                    "rules": [a.rule_a, a.rule_b],
                    "word": render(a.word),
                    "difference": repr(a.difference),
                }
                for a in self.unresolved
            ],
        }


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

    def _find_redex(self, word):
        """Leftmost reducible position; ties broken by rule list order."""
        index = self._lhs_index
        n = len(word)
        for pos in range(n):
            best = None
            for L in self._lhs_lengths:
                if pos + L > n:
                    break
                idx = index.get(word[pos : pos + L])
                if idx is not None and (best is None or idx < best):
                    best = idx
            if best is not None:
                return (pos, best)
        return None

    def reduce_word(self, word) -> NcPoly:
        """Fully reduce a single word (memoized).

        Iterative over an explicit stack, so a long chain of rewrite steps
        is not limited by the interpreter's recursion depth.  A word's
        normal form is its redex's rhs terms, each reduced in place of the
        lhs and scaled by its coefficient, summed in rhs order.
        """
        word = tuple(word)
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        stack = [(word, None)]
        while stack:
            w, children = stack[-1]
            if children is None:
                if w in cache:
                    stack.pop()
                    continue
                hit = self._find_redex(w)
                if hit is None:
                    cache[w] = NcPoly.monomial(w)
                    stack.pop()
                    continue
                pos, idx = hit
                rule = self.rules[idx]
                pre, suf = w[:pos], w[pos + len(rule.lhs) :]
                children = [(pre + r + suf, c) for r, c in rule.rhs.terms.items()]
                stack[-1] = (w, children)
                pending = [(x, None) for x, _ in reversed(children) if x not in cache]
                if pending:
                    stack.extend(pending)
                    continue
            stack.pop()
            result = NcPoly()
            for x, c in children:
                piece = cache[x]
                if not c.is_one:
                    piece = piece.scale(c)
                for w2, c2 in piece.terms.items():
                    result._iadd_term(w2, c2)
            cache[w] = result
        return cache[word]

    # -- public operations

    def normal_form(self, a: NcPoly) -> NcPoly:
        for w in a.terms:
            for g in w:
                if g not in self.alphabet:
                    raise AlphabetMismatch(f"unknown generator {g}")
        out = NcPoly()
        for w, c in a.terms.items():
            piece = self.reduce_word(w).scale(c)
            for w2, c2 in piece.terms.items():
                out._iadd_term(w2, c2)
        return out

    def is_irreducible_word(self, word) -> bool:
        return self._find_redex(tuple(word)) is None

    def check_confluence(self) -> AmbiguityReport:
        """Enumerate and resolve all overlap and inclusion ambiguities."""
        total = 0
        unresolved = []
        for ia, ra in enumerate(self.rules):
            for ib, rb in enumerate(self.rules):
                # overlap: proper suffix of lhs_a equals proper prefix of lhs_b
                for k in range(1, min(len(ra.lhs), len(rb.lhs))):
                    if ra.lhs[-k:] == rb.lhs[:k]:
                        word = ra.lhs + rb.lhs[k:]
                        left = self.normal_form(
                            ra.rhs * NcPoly.monomial(rb.lhs[k:])
                        )
                        right = self.normal_form(
                            NcPoly.monomial(ra.lhs[:-k]) * rb.rhs
                        )
                        total += 1
                        diff = left - right
                        if not diff.is_zero:
                            unresolved.append(
                                Ambiguity("overlap", ia, ib, word, diff)
                            )
                # inclusion: lhs_b a proper subword of lhs_a
                if ia != ib and len(rb.lhs) < len(ra.lhs):
                    for pos in range(len(ra.lhs) - len(rb.lhs) + 1):
                        if ra.lhs[pos : pos + len(rb.lhs)] == rb.lhs:
                            pre = ra.lhs[:pos]
                            suf = ra.lhs[pos + len(rb.lhs) :]
                            left = self.normal_form(ra.rhs)
                            right = self.normal_form(
                                NcPoly.monomial(pre) * rb.rhs * NcPoly.monomial(suf)
                            )
                            total += 1
                            diff = left - right
                            if not diff.is_zero:
                                unresolved.append(
                                    Ambiguity("inclusion", ia, ib, ra.lhs, diff)
                                )
        return AmbiguityReport(total, unresolved)

    def enumerate_basis(self, max_degree: int):
        """Irreducible words grouped by degree, ascending within each degree.

        If confluence has not been certified this is only a spanning bound.
        """
        gens = self.order.sorted_words(
            [(g,) for g in self.order.precedence], reverse=False
        )
        graded = [[EMPTY]]
        for d in range(1, max_degree + 1):
            level = []
            for w in graded[d - 1]:
                for (g,) in gens:
                    cand = w + (g,)
                    # appending one letter can only create a redex at a suffix
                    if not any(
                        cand[-L:] == r.lhs
                        for r in self.rules
                        if (L := len(r.lhs)) <= len(cand)
                    ):
                        level.append(cand)
            graded.append(level)
        return graded

