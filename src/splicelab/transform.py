"""System-to-system rewrites: rule-set completion, splitting a complete
system into pure insertions plus concatenations, flattening circular
systems, and normalizing recorded sequences so concatenations come first.
"""

from __future__ import annotations

import itertools
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
    rules = frozenset(rules)
    return complete(rules, alphabet) == rules


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


def _resolve_word(steps: list[Production], ref: Ref):
    if isinstance(ref, InitialRef):
        return ref.word
    return steps[ref.index].result


def _remap_refs(step: Production, mapping: dict[int, int]) -> Production:
    def remap(ref: Ref) -> Ref:
        if isinstance(ref, StepRef) and ref.index in mapping:
            return StepRef(mapping[ref.index])
        return ref

    return Production(step.rule, remap(step.left), remap(step.right), step.cut, step.result)


def _bubble(steps: list[Production], i: int) -> list[Production]:
    """Move the concatenation at index i one step left past the insertion
    at i-1, rewriting per the exchange argument when the concatenation
    consumes the insertion's result."""
    p = i - 1
    ins, cat = steps[p], steps[i]
    uses_left = cat.left == StepRef(p)
    uses_right = cat.right == StepRef(p)
    u_word = _resolve_word(steps, ins.left)
    v_word = _resolve_word(steps, ins.right)
    k0 = ins.cut
    assert isinstance(k0, int)
    needed_later = any(
        StepRef(p) in (later.left, later.right) for later in steps[i + 1 :]
    )
    reemit = [Production(ins.rule, ins.left, ins.right, k0, ins.result)]

    if not uses_left and not uses_right:
        block = [cat, ins]
        mapping = {p: p + 1, i: p}
        shift = 0
    elif uses_left and uses_right:
        # Self-concatenation w.w: concatenate the uninserted word with
        # itself, then insert at both seams.
        uu = u_word + u_word
        after4 = uu[:k0] + v_word + uu[k0:]
        cut5 = len(u_word) + len(v_word) + k0
        final = after4[:cut5] + v_word + after4[cut5:]
        assert final == cat.result
        p3 = Production(cat.rule, ins.left, ins.left, len(u_word), uu)
        p4 = Production(ins.rule, StepRef(p), ins.right, k0, after4)
        p5 = Production(ins.rule, StepRef(p + 1), ins.right, cut5, final)
        block = [p3, p4, p5] + (reemit if needed_later else [])
        mapping = {i: p + 2, p: p + len(block) - 1}
        shift = len(block) - 2
    else:
        # One-sided use: concatenate with the uninserted word, then insert
        # at the shifted seam.
        if uses_left:
            other = cat.right
            s_word = _resolve_word(steps, other)
            glued = u_word + s_word
            p3 = Production(cat.rule, ins.left, other, len(u_word), glued)
            cut4 = k0
        else:
            other = cat.left
            s_word = _resolve_word(steps, other)
            glued = s_word + u_word
            p3 = Production(cat.rule, other, ins.left, len(s_word), glued)
            cut4 = len(s_word) + k0
        final = glued[:cut4] + v_word + glued[cut4:]
        assert final == cat.result
        p4 = Production(ins.rule, StepRef(p), ins.right, cut4, final)
        block = [p3, p4] + (reemit if needed_later else [])
        mapping = {i: p + 1, p: p + len(block) - 1}
        shift = len(block) - 2
    for j in range(i + 1, len(steps)):
        mapping.setdefault(j, j + shift)
    tail = [_remap_refs(stp, mapping) for stp in steps[i + 1 :]]
    head = steps[:p]
    if not uses_left and not uses_right:
        block = [_remap_refs(stp, mapping) for stp in block]
    return head + block + tail


def normalize_sequence(
    system: SplicingSystem, seq: ProductionSequence
) -> ProductionSequence:
    """An equivalent sequence (same final word) in which every
    concatenation precedes every insertion.  Defined for alphabetic flat
    systems; the rewriting is unsound otherwise."""
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
    steps = list(seq.steps)
    while True:
        target = None
        for i in range(1, len(steps)):
            if steps[i].rule.usage == CONCAT and steps[i - 1].rule.usage == SPLICE:
                target = i
                break
        if target is None:
            break
        steps = _bubble(steps, target)
    out = ProductionSequence(tuple(steps), seed=seq.seed)
    replay_sequence(system, out)
    return out
