"""Decision procedures relating splicing languages to regular languages.

``decide_equal`` settles L(S) = K for a regular K via three regular
inclusions: with P the words obtainable by splicing two K-words,

    (1) I is contained in K,
    (2) P is contained in K,
    (3) K minus P is contained in I.

(1)+(2) force the closure of I inside K; (3) lets every K-word be rebuilt
inductively (splicing results are strictly longer than both operands, so
a K-word outside P must be an axiom).  ``alphabetic_generability``
inverts the question: it looks for a finite alphabetic system generating
K, using the maximal admissible rule set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import (
    Dfa,
    conjugacy_closure,
    dfa_concat,
    dfa_difference,
    dfa_empty,
    dfa_from_words,
    dfa_equivalent,
    dfa_intersect,
    dfa_is_finite,
    dfa_none,
    dfa_subset,
    dfa_union,
    difference_witness,
    enumerate_dfa,
    pattern_dfa,
    state_languages,
)
from .core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialSet,
    SplicingRule,
    SplicingSystem,
    UnsupportedError,
)

Inclusion = int | str  # 1 | 2 | 3 | "conjugacy"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equality test; on failure names the violated
    inclusion (1, 2, 3, or "conjugacy" for circular systems whose target
    is not rotation-closed) and carries a shortest witness word."""

    equal: bool
    failing_inclusion: Inclusion | None = None
    witness: str | None = None

    def __post_init__(self):
        if self.equal and (self.failing_inclusion is not None or self.witness is not None):
            raise ValueError("an equal verdict carries no witness")


def _rule_image(K: Dfa, rule: SplicingRule) -> Dfa:
    """Words obtainable by one application of ``rule`` to two K-words."""
    A = K.alphabet
    if rule.usage == CONCAT:
        left = dfa_intersect(K, pattern_dfa(A, rule.alpha, rule.beta))
        right = dfa_intersect(K, pattern_dfa(A, rule.gamma, rule.delta))
        if dfa_empty(left) or dfa_empty(right):
            return dfa_none(A)
        return dfa_concat(left, right)
    middle = dfa_intersect(K, pattern_dfa(A, rule.gamma, rule.delta))
    if dfa_empty(middle):
        return dfa_none(A)
    total = dfa_none(A)
    for q in range(K.n_states):
        into_q, outof_q = state_languages(K, q)
        left = dfa_intersect(into_q, pattern_dfa(A, "", rule.alpha))
        if dfa_empty(left):
            continue
        right = dfa_intersect(outof_q, pattern_dfa(A, rule.beta, ""))
        if dfa_empty(right):
            continue
        total = dfa_union(total, dfa_concat(dfa_concat(left, middle), right))
    return total


def splice_image(K: Dfa, rules, *, rotate: bool = False) -> Dfa:
    """The union P of the one-step splice images of all rules; with
    ``rotate`` each rule image is closed under conjugacy (circular
    splicing can paste at any arrangement)."""
    total = dfa_none(K.alphabet)
    for rule in sorted(rules):
        image = _rule_image(K, rule)
        if rotate:
            image = conjugacy_closure(image)
        total = dfa_union(total, image)
    return total


def _epsilon_dfa(alphabet) -> Dfa:
    return dfa_from_words(alphabet, [""])


def decide_equal(system: SplicingSystem, K: Dfa) -> Verdict:
    """Is the system's language exactly L(K)?  Initial set must be finite
    or regular.  The empty word is compared via the loader's ε-flag."""
    if system.initial.kind == "contextfree":
        raise UnsupportedError(
            "equality with a regular language is decided for finite or "
            "regular initial sets only"
        )
    if set(K.alphabet) != set(system.alphabet.letters):
        raise ValueError("target automaton alphabet differs from the system's")
    eps_in_K = K.accepts("")
    if system.initial.had_epsilon and not eps_in_K:
        return Verdict(False, 1, "")
    if eps_in_K and not system.initial.had_epsilon:
        return Verdict(False, 3, "")
    if system.mode == CIRCULAR:
        if system.concat_rules:
            raise UnsupportedError("circular systems use splice rules only")
        closed = conjugacy_closure(K)
        if not dfa_equivalent(closed, K):
            return Verdict(False, "conjugacy", difference_witness(closed, K))
        P = splice_image(K, system.splice_rules, rotate=True)
    else:
        P = splice_image(K, system.rules)

    # (1) every axiom lies in K
    if system.initial.kind == "finite":
        assert system.initial.words is not None
        bad = sorted(
            (w for w in system.initial.words if not K.accepts(w)),
            key=lambda w: (len(w), w),
        )
        if bad:
            return Verdict(False, 1, bad[0])
    else:
        w = difference_witness(system.initial.dfa, K)
        if w is not None:
            return Verdict(False, 1, w)

    # (2) splicing K-words never leaves K
    w = difference_witness(P, K)
    if w is not None:
        return Verdict(False, 2, w)

    # (3) K-words that no splice produces must be axioms
    residue = dfa_difference(K, P)
    if eps_in_K:
        residue = dfa_difference(residue, _epsilon_dfa(K.alphabet))
    if system.initial.kind == "finite":
        axioms = dfa_from_words(K.alphabet, system.initial.words)
    else:
        axioms = system.initial.dfa
    w = difference_witness(residue, axioms)
    if w is not None:
        return Verdict(False, 3, w)
    return Verdict(True)


def all_alphabetic_rules(alphabet: Alphabet) -> list[SplicingRule]:
    """Every splice-usage rule whose four handles are a letter or empty."""
    options = [""] + list(alphabet.letters)
    return [
        SplicingRule(a, b, g, d, usage=SPLICE)
        for a, b, g, d in itertools.product(options, repeat=4)
    ]


def alphabetic_generability(K: Dfa) -> SplicingSystem | None:
    """A finite alphabetic splicing system generating exactly L(K), or
    None when the maximal admissible rule set leaves an infinite residue.

    Admissible rules keep their one-step image inside K; the image union P
    is monotone in the rule set, so if any admissible set leaves a finite
    residue the maximal one does too, and the residue itself serves as the
    axiom set."""
    alphabet = Alphabet(K.alphabet)
    eps = K.accepts("")
    core = dfa_difference(K, _epsilon_dfa(K.alphabet)) if eps else K
    admissible = [
        r for r in all_alphabetic_rules(alphabet) if dfa_subset(_rule_image(core, r), core)
    ]
    image = splice_image(core, admissible)
    residue = dfa_difference(core, image)
    if not dfa_is_finite(residue):
        return None
    words = enumerate_dfa(residue, residue.n_states)
    initial = InitialSet(kind="finite", words=frozenset(words), had_epsilon=eps)
    return SplicingSystem(
        alphabet=alphabet,
        initial=initial,
        rules=frozenset(admissible),
        mode=FLAT,
    )
