"""Ground-truth semantics: bounded closure by saturation, membership by
backtracking tape decomposition, and derivation witnesses.

The bounded closure is exact, not an approximation: every production's
result is as long as both operands together, so the words of the language
up to length n can only ever be built from other words up to length n.
Saturation therefore pairs each word only with the earlier words that fit
beside it under the bound.  Flat splice rules, whatever their handle
lengths, go through one matcher that serves both forward saturation and
backward search.

A trace from ``witness`` or ``derivation`` is one valid derivation of the
word, guaranteed to replay; which one is not fixed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .core import (
    CIRCULAR,
    BudgetExceededError,
    CircularWord,
    InitialRef,
    Production,
    ProductionSequence,
    SpliceError,
    SplicingRule,
    SplicingSystem,
    StepRef,
    UnsupportedError,
    apply_concat,
    iter_circular_splices,
    matches_pattern,
)

DEFAULT_BUDGET = 10**6

# (alpha, beta) -> rule for the rules an inserted word matches, and the
# distinct (len alpha, len beta) shapes among those keys
_Contexts = tuple[dict[tuple[str, str], SplicingRule], list[tuple[int, int]]]


def _rule_at(contexts: _Contexts, s: str, p: int, q: int) -> SplicingRule | None:
    """A rule whose alpha ends ``s[:p]`` and whose beta starts ``s[q:]``,
    or None: the cut context of an insertion at ``p`` (forward, ``q == p``)
    or of the span ``s[p:q]`` (backward)."""
    ctx, shapes = contexts
    for la, lb in shapes:
        # near an end of s a slice comes out short, but it is still a suffix
        # of s[:p] or a prefix of s[q:], so any key it equals fits here too
        rule = ctx.get((s[p - la : p], s[q : q + lb]))
        if rule is not None:
            return rule
    return None


class _FlatProducer:
    """Enumerates productions between two flat words for a fixed system.

    Splice rules are indexed by (gamma, delta); each inserted word gets, once,
    the merged cut contexts of the rules it matches, so a cut costs one dict
    lookup per context shape whatever the handle lengths."""

    def __init__(self, system: SplicingSystem):
        self.concat = system.concat_rules
        self.by_gd: dict[tuple[str, str], list[SplicingRule]] = defaultdict(list)
        for rule in system.splice_rules:
            self.by_gd[(rule.gamma, rule.delta)].append(rule)
        self._by_word: dict[str, _Contexts] = {}
        # words that match the same (gamma, delta) pairs share one table
        self._by_gds: dict[tuple, _Contexts] = {}

    def contexts(self, v: str) -> _Contexts:
        """The merged cut contexts of the splice rules whose gamma and delta
        ``v`` matches."""
        got = self._by_word.get(v)
        if got is None:
            gds = tuple(gd for gd in self.by_gd if matches_pattern(v, *gd))
            got = self._by_gds.get(gds)
            if got is None:
                ctx: dict[tuple[str, str], SplicingRule] = {}
                for gd in gds:
                    for rule in self.by_gd[gd]:
                        ctx.setdefault((rule.alpha, rule.beta), rule)
                got = (ctx, sorted({(len(a), len(b)) for a, b in ctx}))
                self._by_gds[gds] = got
            self._by_word[v] = got
        return got

    def splice_results(self, u: str, v: str):
        """Yield (result, rule, cut) for every insertion of v into u."""
        contexts = self.contexts(v)
        if not contexts[0]:
            return
        for i in range(len(u) + 1):
            rule = _rule_at(contexts, u, i, i)
            if rule is not None:
                yield u[:i] + v + u[i:], rule, i

    def concat_results(self, u: str, v: str):
        """Yield at most one (result, rule, cut) for the concatenation uv."""
        for rule in self.concat:
            if apply_concat(rule, u, v) is not None:
                yield u + v, rule, len(u)
                return


def _saturate(system: SplicingSystem, max_len: int) -> dict:
    """Parent pointers of every word up to ``max_len``: None for an axiom,
    else (rule, u, v, cut) of the production that first reached it."""
    if system.mode == CIRCULAR:
        if system.concat_rules:
            raise UnsupportedError("circular systems take splice rules only")
        splice = system.splice_rules
        starts = map(CircularWord, system.initial.enumerate(max_len))

        def results(u, v):
            for rule in splice:
                for i, j, w in iter_circular_splices(rule, u, v):
                    yield w, (rule, u, v, (i, j))

    else:
        produce = _FlatProducer(system)
        starts = system.initial.enumerate(max_len)

        def results(u, v):
            for w, rule, cut in produce.splice_results(u, v):
                yield w, (rule, u, v, cut)
            for w, rule, cut in produce.concat_results(u, v):
                yield w, (rule, u, v, cut)

    parents: dict = dict.fromkeys(starts)
    agenda = deque(parents)
    # words off the agenda by length; z pairs with each of them (itself
    # included) that fits beside it under the bound, so every result does
    done: list[list] = [[] for _ in range(max_len + 1)]
    while agenda:
        z = agenda.popleft()
        done[len(z)].append(z)
        for n in range(1, max_len - len(z) + 1):
            for y in done[n]:
                for u, v in ((z, y), (y, z)):
                    for w, parent in results(u, v):
                        if w not in parents:
                            parents[w] = parent
                            agenda.append(w)
    return parents


def closure_bounded(system: SplicingSystem, max_len: int):
    """All words of the system's language up to ``max_len``, length-lex
    sorted; circular systems yield canonical CircularWords.  The empty
    word never appears (it belongs to the language iff it was an axiom,
    which the loader records separately)."""
    if max_len < 1:
        raise ValueError("the length bound must be at least 1")
    words = _saturate(system, max_len)
    if system.mode == CIRCULAR:
        return sorted(words, key=CircularWord.sort_key)
    return sorted(words, key=lambda w: (len(w), w))


def witness(system: SplicingSystem, word, max_len: int) -> ProductionSequence:
    """A replayable production sequence for ``word``, reconstructed from
    the bounded closure's parent pointers.  Raises SpliceError when the
    word is not in the closure within the bound."""
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    parents = _saturate(system, max_len)
    if word not in parents:
        raise SpliceError(f"{word} is not in the closure within length {max_len}")

    steps: list[Production] = []
    refs: dict = {}

    def build(w):
        if w in refs:
            return refs[w]
        parent = parents[w]
        if parent is None:
            ref = InitialRef(w)
        else:
            rule, u, v, cut = parent
            left = build(u)
            right = build(v)
            steps.append(Production(rule, left, right, cut, w))
            ref = StepRef(len(steps) - 1)
        refs[w] = ref
        return ref

    top = build(word)
    if isinstance(top, InitialRef):
        return ProductionSequence((), seed=word)
    return ProductionSequence(tuple(steps))


# --------------------------------------------------------------------------
# Membership by tape decomposition


@dataclass
class _Budget:
    nodes: int

    def spend(self) -> None:
        self.nodes -= 1
        if self.nodes < 0:
            raise BudgetExceededError("membership search budget exceeded")


def _flat_undos(system: SplicingSystem, produce: _FlatProducer, seg: str):
    """Yield undo moves for the last tape segment: each forward production
    that could have produced ``seg``, as (kind, rule, left, right, cut)."""
    n = len(seg)
    for p in range(n):
        for q in range(p + 1, n + 1):
            if p == 0 and q == n:
                continue
            v = seg[p:q]
            rule = _rule_at(produce.contexts(v), seg, p, q)
            if rule is not None:
                yield ("splice", rule, seg[:p] + seg[q:], v, p)
    for p in range(1, n):
        u, v = seg[:p], seg[p:]
        for rule in system.concat_rules:
            if apply_concat(rule, u, v) is not None:
                yield ("concat", rule, u, v, p)
                break


def _circular_undos(system: SplicingSystem, seg: CircularWord):
    """Undo moves for a circular segment: pick a rotation, split it into a
    left part matching beta..alpha and a right part matching gamma..delta."""
    rep = seg.representative
    n = len(rep)
    emitted = set()
    for rot in range(n):
        z = rep[rot:] + rep[:rot]
        for k in range(1, n):
            left, right = z[:k], z[k:]
            for rule in system.splice_rules:
                if not matches_pattern(left, rule.beta, rule.alpha):
                    continue
                if not matches_pattern(right, rule.gamma, rule.delta):
                    continue
                cu, cv = CircularWord(left), CircularWord(right)
                i = _rotation_offset(cu.representative, left)
                j = _rotation_offset(cv.representative, right)
                key = (rule, cu, cv, i, j)
                if key in emitted:
                    continue
                emitted.add(key)
                yield ("splice", rule, cu, cv, (i, j))


def _rotation_offset(rep: str, arranged: str) -> int:
    for i in range(len(rep)):
        if rep[i:] + rep[:i] == arranged:
            return i
    raise AssertionError("arranged word is not a rotation of its representative")


def _search(
    system: SplicingSystem,
    produce: _FlatProducer | None,
    tape: tuple,
    failed: set,
    budget: _Budget,
    log: list,
):
    """Depth-first tape decomposition; True iff the tape can be cleared.
    Successful moves are appended to ``log`` (failed branches are rolled
    back), so on success the log read backwards is a forward derivation."""
    if not tape:
        return True
    if tape in failed:
        return False
    budget.spend()
    last = tape[-1]
    if system.initial_contains(last):
        log.append(("axiom", last))
        if _search(system, produce, tape[:-1], failed, budget, log):
            return True
        log.pop()
    if system.mode == CIRCULAR:
        moves = _circular_undos(system, last)
    else:
        assert produce is not None
        moves = _flat_undos(system, produce, last)
    for move in moves:
        kind, rule, left, right, cut = move
        log.append((kind, rule, left, right, cut, last))
        if _search(system, produce, tape[:-1] + (left, right), failed, budget, log):
            return True
        log.pop()
    failed.add(tape)
    return False


def _run_search(system: SplicingSystem, word, budget_nodes: int):
    produce = None if system.mode == CIRCULAR else _FlatProducer(system)
    tape = (word,)
    log: list = []
    ok = _search(system, produce, tape, set(), _Budget(budget_nodes), log)
    return ok, log


def _sequence_from_log(log: list) -> ProductionSequence:
    steps: list[Production] = []
    stack: list[tuple] = []  # (ref, word)
    for entry in reversed(log):
        if entry[0] == "axiom":
            stack.append((InitialRef(entry[1]), entry[1]))
            continue
        kind, rule, left, right, cut, result = entry
        ref_v, got_v = stack.pop()
        ref_u, got_u = stack.pop()
        assert got_u == left and got_v == right, "derivation log out of order"
        steps.append(Production(rule, ref_u, ref_v, cut, result))
        stack.append((StepRef(len(steps) - 1), result))
    assert len(stack) == 1
    if not steps:
        return ProductionSequence((), seed=stack[0][1])
    return ProductionSequence(tuple(steps))


def member(system: SplicingSystem, word, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``word`` belongs to the system's language.  The empty word
    is answered from the loader's ε-flag; BudgetExceededError signals an
    inconclusive search."""
    if isinstance(word, str) and word == "":
        return system.initial.had_epsilon
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    ok, _ = _run_search(system, word, budget)
    return ok


def derivation(
    system: SplicingSystem, word, budget: int = DEFAULT_BUDGET
) -> ProductionSequence | None:
    """A replayable derivation of ``word``, or None when it is not in the
    language."""
    if isinstance(word, str) and word == "":
        raise ValueError("the empty word has no derivation; it is axiom-level")
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    ok, log = _run_search(system, word, budget)
    if not ok:
        return None
    return _sequence_from_log(log)
