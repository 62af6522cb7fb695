"""System-to-system rewrites: rule-set completion, splitting a complete
system into pure insertions plus concatenations, flattening circular
systems, and normalizing recorded sequences so concatenations come first:
each word's skeleton of glued axioms is built before its insertions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .automata import conjugacy_closure
from .core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialRef,
    InitialSet,
    Production,
    ProductionSequence,
    Ref,
    SplicingRule,
    SplicingSystem,
    StepRef,
    UnsupportedError,
    conjugates,
    replay_sequence,
)


def complete(rules: Iterable[SplicingRule], alphabet: Alphabet) -> frozenset[SplicingRule]:
    """Close an alphabetic rule set under replacing any subset of its empty
    handles by letters, keeping the originals.  Idempotent."""
    out: set[SplicingRule] = set()
    for rule in rules:
        if not rule.is_alphabetic:
            raise ValueError(f"completion needs alphabetic rules, got {rule}")
        choices = [
            [h] if h else [""] + list(alphabet.letters) for h in rule.handles
        ]
        for handles in itertools.product(*choices):
            out.add(SplicingRule(*handles, usage=rule.usage))
    return frozenset(out)


def is_complete(rules: Iterable[SplicingRule], alphabet: Alphabet) -> bool:
    """Whether ``complete(rules, alphabet) == rules``, without building the
    completion: a set holding every one-letter filling of an empty handle
    of each of its rules holds, one handle at a time, every filling."""
    present = set()
    for rule in rules:
        if not rule.is_alphabetic:
            raise ValueError(f"completion needs alphabetic rules, got {rule}")
        present.add((rule.usage, rule.handles))
    for usage, handles in present:
        for i, h in enumerate(handles):
            if not h:
                for x in alphabet.letters:
                    if (usage, handles[:i] + (x,) + handles[i + 1 :]) not in present:
                        return False
    return True


def complete_system(system: SplicingSystem) -> SplicingSystem:
    return SplicingSystem(
        alphabet=system.alphabet,
        initial=system.initial,
        rules=complete(system.rules, system.alphabet),
        mode=system.mode,
    )


def to_heterogeneous(system: SplicingSystem) -> SplicingSystem:
    """Split a complete alphabetic flat system into pure insertion rules
    plus concatenation rules.

    A rule with an empty outer handle only ever adds something beyond its
    letterized siblings when the cut sits at the very end of the word —
    which is a concatenation.  So pure rules stay; a rule with beta empty
    becomes the concatenation <eps#alpha $ gamma#delta>; a rule with alpha
    empty becomes <gamma#delta $ beta#eps>; the emitted concatenation set
    is completed."""
    if system.mode != FLAT:
        raise ValueError("heterogeneous splitting applies to flat systems")
    if not system.is_alphabetic:
        raise ValueError("heterogeneous splitting needs alphabetic rules")
    if not is_complete(system.rules, system.alphabet):
        raise ValueError("rule set must be completed first")
    pure: set[SplicingRule] = set()
    concat: set[SplicingRule] = set(system.concat_rules)
    for rule in system.splice_rules:
        if rule.is_pure:
            pure.add(rule)
        if not rule.beta:
            concat.add(SplicingRule("", rule.alpha, rule.gamma, rule.delta, usage=CONCAT))
        if not rule.alpha:
            concat.add(SplicingRule(rule.gamma, rule.delta, rule.beta, "", usage=CONCAT))
    rules = frozenset(pure) | complete(concat, system.alphabet)
    return SplicingSystem(
        alphabet=system.alphabet,
        initial=system.initial,
        rules=rules,
        mode=FLAT,
    )


def circular_rule_expansion(rule: SplicingRule) -> frozenset[SplicingRule]:
    """The four flat rules simulating one circular rule: the rule itself,
    its reversal, and two concatenation variants."""
    a, b, g, d = rule.handles
    return frozenset(
        [
            SplicingRule(a, b, g, d, usage=SPLICE),
            SplicingRule(d, g, b, a, usage=SPLICE),
            SplicingRule(b, a, g, d, usage=CONCAT),
            SplicingRule(g, d, b, a, usage=CONCAT),
        ]
    )


def _linearize_initial(system: SplicingSystem) -> InitialSet:
    initial = system.initial
    if initial.kind == "finite":
        assert initial.words is not None
        words: set[str] = set()
        for w in initial.words:
            words |= conjugates(w)
        return InitialSet(
            kind="finite", words=frozenset(words), had_epsilon=initial.had_epsilon
        )
    if initial.kind == "regular":
        # rotations of non-empty words are non-empty, so the closure of an
        # ε-free language is ε-free
        return InitialSet(
            kind="regular",
            dfa=conjugacy_closure(initial.dfa),
            had_epsilon=initial.had_epsilon,
        )
    raise UnsupportedError(
        "flattening a circular system with a context-free initial set is "
        "not supported; use a finite or regular initial set"
    )


def circular_to_flat(system: SplicingSystem) -> SplicingSystem:
    """The flat heterogeneous system with the same language, word for word:
    the initial set is replaced by all rotations of its words and each rule
    by its four-rule flat expansion."""
    if system.mode != CIRCULAR:
        raise ValueError("input system is already flat")
    if not system.is_alphabetic:
        raise ValueError("flattening is defined for alphabetic rules only")
    rules: set[SplicingRule] = set()
    for rule in system.splice_rules:
        rules |= circular_rule_expansion(rule)
    return SplicingSystem(
        alphabet=system.alphabet,
        initial=_linearize_initial(system),
        rules=frozenset(rules),
        mode=FLAT,
    )


# --------------------------------------------------------------------------
# Sequence normalization (concatenations first)


@dataclass(eq=False)
class _Word:
    """A trace word as a chain of insertions on a skeleton: a word emitted
    at ``out`` that spells ``word``, or, until it is emitted, the insertion
    that the trace's ``step`` makes at ``cut`` into ``prev``."""

    prev: _Word | None = None
    step: Production | None = None
    cut: int = 0
    out: Ref | None = None
    word: str = ""


def _unemitted(w: _Word) -> tuple[_Word, list[_Word]]:
    """The last emitted word of ``w``'s chain and the insertions after it."""
    chain = []
    while w.out is None:
        chain.append(w)
        w = w.prev
    return w, chain[::-1]


def normalize_sequence(
    system: SplicingSystem, seq: ProductionSequence
) -> ProductionSequence:
    """An equivalent sequence (same final word) in which every
    concatenation precedes every insertion.  Defined for alphabetic flat
    systems with pure insertions; the rewriting is unsound otherwise.

    Each trace word is a skeleton glued from axioms with a chain of
    insertions on it; x.y chains y's insertions after x's, cuts moved on by
    len(x).  A pure insertion cuts strictly inside its host and keeps its
    end letters, so an alphabetic concatenation rule that accepts two words
    accepts their skeletons.  So the skeletons are glued first, in trace
    order, and then the chains of the final word and of the words inserted
    are emitted, each inserted word before its use."""
    if system.mode == CIRCULAR:
        raise UnsupportedError("sequence normalization applies to flat systems")
    if not system.is_alphabetic:
        raise ValueError("sequence normalization needs an alphabetic system")
    for step in seq.steps:
        if step.rule.usage == SPLICE and not step.rule.is_pure:
            raise ValueError(
                "sequence normalization needs pure insertion rules; "
                f"{step.rule} is impure"
            )
    replay_sequence(system, seq)
    steps: list[Production] = []
    words: list[_Word] = []  # per trace step

    def word_at(ref: Ref) -> _Word:
        return _Word(out=ref, word=ref.word) if isinstance(ref, InitialRef) else words[ref.index]

    for step in seq.steps:
        if step.rule.usage == SPLICE:
            words.append(_Word(word_at(step.left), step, step.cut))
            continue
        # only skeletons are emitted so far, so these are whole chains
        x, x_chain = _unemitted(word_at(step.left))
        y, y_chain = _unemitted(word_at(step.right))
        w = _Word(out=StepRef(len(steps)), word=x.word + y.word)
        steps.append(Production(step.rule, x.out, y.out, len(x.word), w.word))
        x_len = len(seq.steps[step.left.index].result) if x_chain else len(x.word)
        for chain, shift in ((x_chain, 0), (y_chain, x_len)):
            for ins in chain:
                w = _Word(w, ins.step, ins.cut + shift)
        words.append(w)

    inserted = {step.right for step in seq.steps if step.rule.usage == SPLICE}
    for w in [w for i, w in enumerate(words) if StepRef(i) in inserted] + words[-1:]:
        for ins in _unemitted(w)[1]:
            host, v = ins.prev, word_at(ins.step.right)
            ins.word = host.word[: ins.cut] + v.word + host.word[ins.cut :]
            ins.out = StepRef(len(steps))
            steps.append(Production(ins.step.rule, host.out, v.out, ins.cut, ins.word))
    out = ProductionSequence(tuple(steps), seed=seq.seed)
    replay_sequence(system, out)
    return out
