"""Ground-truth semantics: bounded closure by saturation, membership from
a memo over words, and derivation witnesses.

The bounded closure is exact, not an approximation: every production's
result is as long as both operands together, so the words of the language
up to length n can only ever be built from other words up to length n.
Saturation therefore pairs each word only with the earlier words that fit
beside it under the bound.  Flat splice rules, whatever their handle
lengths, go through one matcher that serves both forward saturation and
backward search.

Membership decides each word once.  A word is in the language iff it is an
axiom or some undo move splits it into two parts that are both in it, so
one memo over words serves the whole search.

A trace from ``witness`` or ``derivation`` is one valid derivation of the
word, guaranteed to replay; which one is not fixed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial

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


def _sequence(parents: dict, word) -> ProductionSequence:
    """The production sequence that ``parents`` records for ``word``: None
    marks an axiom, (rule, u, v, cut) the production that made a word.
    Each step follows the steps of its left part and then of its right
    part, and a word that occurs twice is built once."""
    steps: list[Production] = []
    refs: dict = {}
    stack = [word]
    while stack:
        w = stack[-1]
        if w in refs:
            stack.pop()
            continue
        parent = parents[w]
        if parent is None:
            refs[w] = InitialRef(w)
            stack.pop()
            continue
        rule, u, v, cut = parent
        # u goes on top, so its steps come first
        pending = [x for x in (v, u) if x not in refs]
        if pending:
            stack.extend(pending)
            continue
        steps.append(Production(rule, refs[u], refs[v], cut, w))
        refs[w] = StepRef(len(steps) - 1)
        stack.pop()
    if not steps:
        return ProductionSequence((), seed=word)
    return ProductionSequence(tuple(steps))


def witness(system: SplicingSystem, word, max_len: int) -> ProductionSequence:
    """A replayable production sequence for ``word``, reconstructed from
    the bounded closure's parent pointers.  Raises SpliceError when the
    word is not in the closure within the bound."""
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    parents = _saturate(system, max_len)
    if word not in parents:
        raise SpliceError(f"{word} is not in the closure within length {max_len}")
    return _sequence(parents, word)


# --------------------------------------------------------------------------
# Membership by a memo over words


def _flat_undos(produce: _FlatProducer, seg: str):
    """Undo moves for a flat word: each forward production that could have
    produced ``seg``, as (rule, u, v, cut)."""
    n = len(seg)
    for p in range(n):
        for q in range(p + 1, n + 1):
            if p == 0 and q == n:
                continue
            v = seg[p:q]
            rule = _rule_at(produce.contexts(v), seg, p, q)
            if rule is not None:
                yield rule, seg[:p] + seg[q:], v, p
    for p in range(1, n):
        u, v = seg[:p], seg[p:]
        for rule in produce.concat:
            if apply_concat(rule, u, v) is not None:
                yield rule, u, v, p
                break


def _circular_undos(splice: list[SplicingRule], seg: CircularWord):
    """Undo moves for a circular word: pick a rotation, split it into a
    left part matching beta..alpha and a right part matching gamma..delta."""
    rep = seg.representative
    n = len(rep)
    emitted = set()
    for rot in range(n):
        z = rep[rot:] + rep[:rot]
        for k in range(1, n):
            left, right = z[:k], z[k:]
            for rule in splice:
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
                yield rule, cu, cv, (i, j)


def _rotation_offset(rep: str, arranged: str) -> int:
    for i in range(len(rep)):
        if rep[i:] + rep[:i] == arranged:
            return i
    raise AssertionError("arranged word is not a rotation of its representative")


def _decide(system: SplicingSystem, word, budget: int) -> dict:
    """What the search learnt deciding ``word``: None for an axiom, the
    first undo move (rule, u, v, cut) whose parts are both in the
    language, False for a word that is not in it.

    Every undo move makes both parts strictly shorter than the word, so no
    word depends on itself and each is decided once, on an explicit stack.
    Each distinct word the search takes up spends one unit of ``budget``."""
    if system.mode == CIRCULAR:
        undos = partial(_circular_undos, system.splice_rules)
    else:
        undos = partial(_flat_undos, _FlatProducer(system))
    known: dict = {}
    stack: list[list] = []  # [word, its undo moves, the move being tried]

    def take_up(w) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetExceededError("membership search budget exceeded")
        if system.initial_contains(w):
            known[w] = None
        else:
            stack.append([w, undos(w), None])

    take_up(word)
    while stack:
        frame = stack[-1]
        move = frame[2]
        if move is not None:
            # the right part first: for an insertion it is the inserted
            # word, often short
            for part in (move[2], move[1]):
                if known.get(part, False) is False:
                    break
            else:
                known[frame[0]] = move
                stack.pop()
                continue
            if part not in known:
                take_up(part)
                continue
        frame[2] = next(frame[1], None)
        if frame[2] is None:
            known[frame[0]] = False
            stack.pop()
    return known


def member(system: SplicingSystem, word, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``word`` belongs to the system's language.  The empty word
    is answered from the loader's ε-flag; BudgetExceededError signals an
    inconclusive search."""
    if isinstance(word, str) and word == "":
        return system.initial.had_epsilon
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    return _decide(system, word, budget)[word] is not False


def derivation(
    system: SplicingSystem, word, budget: int = DEFAULT_BUDGET
) -> ProductionSequence | None:
    """A replayable derivation of ``word``, or None when it is not in the
    language."""
    if isinstance(word, str) and word == "":
        raise ValueError("the empty word has no derivation; it is axiom-level")
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    known = _decide(system, word, budget)
    if known[word] is False:
        return None
    return _sequence(known, word)
