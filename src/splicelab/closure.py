"""Ground-truth semantics: bounded closure by saturation, membership from
a memo over words, and derivation witnesses.

The bounded closure is exact, not an approximation: every production's
result is as long as both operands together, so the words of the language
up to length n can only ever be built from other words up to length n.
Saturation therefore pairs each word only with the earlier words that fit
beside it under the bound.  Splice rules, whatever their handle lengths,
go through one matcher that serves forward saturation and the backward
search of flat and circular words alike.

Saturation does per-word work once, not once per pair.  Flat words are
grouped by the context table of the splice rules they can be inserted by,
and each host gets one cut list per table it meets, so a pair costs only
its hits; concat rules are two bit masks per word.  Each circular word
gets one rotation list per rule pattern, and a result is tested against
the set of every rotation found so far before it is canonicalized.

Membership decides each word once.  A word is in the language iff it is an
axiom or some undo move splits it into two parts that are both in it, so
one memo over words serves the whole search.  A flat undo move takes out
a span with alpha before it and beta after it; a circular one takes out
an arc of the circle with alpha before it and beta after it, both inside
the rest.

A trace from ``witness`` or ``derivation`` is one valid derivation of the
word, guaranteed to replay; which one is not fixed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from itertools import chain

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
    apply_concat,
    matches_pattern,
)

DEFAULT_BUDGET = 10**6


class _Contexts:
    """The merged cut contexts of the splice rules an inserted word
    matches: (alpha, beta) -> rule, and the distinct (len alpha, len beta)
    shapes among those keys.  Words that match the same rules share one
    table, which hashes by identity."""

    __slots__ = ("ctx", "shapes")

    def __init__(self, ctx: dict[tuple[str, str], SplicingRule]):
        self.ctx = ctx
        self.shapes = sorted({(len(a), len(b)) for a, b in ctx})

    def rule_at(
        self, s: str, p: int, q: int, room: int | None = None
    ) -> SplicingRule | None:
        """A rule whose alpha ends ``s[:p]`` and whose beta starts
        ``s[q:]``, or None: the cut context of an insertion at ``p``
        (forward, ``q == p``) or of the span ``s[p:q]`` (backward).  With
        ``room``, alpha and beta together take at most ``room`` letters."""
        ctx = self.ctx
        for la, lb in self.shapes:
            if room is not None and la + lb > room:
                continue
            # near an end of s a slice comes out short, but it is still a
            # suffix of s[:p] or a prefix of s[q:], so any key it equals
            # fits here too
            rule = ctx.get((s[p - la : p], s[q : q + lb]))
            if rule is not None:
                return rule
        return None

    def cuts(self, host: str) -> list[tuple[int, SplicingRule]]:
        """(cut, rule) for every insertion point of ``host`` at which a
        word of this table may go in, cuts ascending."""
        if not self.ctx:
            return []
        if self.shapes[0] == (0, 0):
            # ("", "") is a key, and it fits at every cut
            rule = self.ctx[("", "")]
            return [(i, rule) for i in range(len(host) + 1)]
        hits = ((i, self.rule_at(host, i, i)) for i in range(len(host) + 1))
        return [hit for hit in hits if hit[1] is not None]


class _FlatProducer:
    """The splice rules of a system indexed by (gamma, delta), for flat
    and circular words alike.

    Each inserted word gets, once, the merged cut contexts of the rules it
    matches, so a cut costs one dict lookup per context shape whatever the
    handle lengths."""

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
                got = self._by_gds[gds] = _Contexts(ctx)
            self._by_word[v] = got
        return got


# Saturation pairs each word z taken off the agenda with groups of words
# taken off before it.  A mode's pairing has three parts: ``admit`` turns
# a result into a word, ``entry`` gives a word's group and what the
# pairing keeps of it, and ``results`` yields (result, parent) for z
# against one group, both ways round.


class _FlatPairs(_FlatProducer):
    """Flat productions, with per-word work done once.

    A group holds the words that share one context table, so a host's cut
    list for that table is built once, the first time the host meets the
    group, and serves every word in it: a pair then costs only its hits.
    Each word also carries two bit masks of the concat rules it may be the
    left or the right operand of; the lowest common bit is the first rule
    in rule order."""

    def __init__(self, system: SplicingSystem, seen: dict):
        super().__init__(system)
        self.seen = seen
        # table -> host -> the host's cut list for the words of that table
        self.cut_lists: dict[_Contexts, dict[str, list]] = defaultdict(dict)

    @staticmethod
    def admit(s: str) -> str:
        return s

    def entry(self, w: str):
        table = self.contexts(w)
        lmask = rmask = 0
        for k, rule in enumerate(self.concat):
            if matches_pattern(w, rule.alpha, rule.beta):
                lmask |= 1 << k
            if matches_pattern(w, rule.gamma, rule.delta):
                rmask |= 1 << k
        return table, (w, table, lmask, rmask)

    def results(self, ze, table: _Contexts, ys):
        z, z_table, zl, zr = ze
        cuts = self.cut_lists[table]
        z_cuts = cuts.get(z)
        if z_cuts is None:
            z_cuts = cuts[z] = table.cuts(z)
        y_cuts = self.cut_lists[z_table] if z_table.ctx else None
        if not (z_cuts or y_cuts is not None or zl or zr):
            return
        z_splits = [(z[:i], z[i:], i, rule) for i, rule in z_cuts]
        seen, concat = self.seen, self.concat
        for y, _, yl, yr in ys:
            for head, tail, i, rule in z_splits:
                s = head + y + tail
                if s not in seen:
                    yield s, (rule, z, y, i)
            m = zl & yr
            if m and z + y not in seen:
                yield z + y, (concat[(m & -m).bit_length() - 1], z, y, len(z))
            if y_cuts is not None:
                hits = y_cuts.get(y)
                if hits is None:
                    hits = y_cuts[y] = z_table.cuts(y)
                for i, rule in hits:
                    s = y[:i] + z + y[i:]
                    if s not in seen:
                        yield s, (rule, y, z, i)
            m = yl & zr
            if m and y + z not in seen:
                yield y + z, (concat[(m & -m).bit_length() - 1], y, z, len(y))


class _CircularPairs:
    """Circular productions, with per-word work done once.

    Each word gets, once, for every distinct (prefix, suffix) pattern of
    the rules, the offsets of its rotations in that pattern.  A result
    ``left + right`` is tested against the set of every rotation of every
    word found so far, so only a new word pays for its canonical
    rotation."""

    def __init__(self, system: SplicingSystem):
        rules = system.splice_rules
        ends = [((r.beta, r.alpha), (r.gamma, r.delta)) for r in rules]
        self.patterns = list(dict.fromkeys(p for pair in ends for p in pair))
        index = self.patterns.index
        self.rules = [(r, index(lp), index(rp)) for r, (lp, rp) in zip(rules, ends)]
        self.seen: set[str] = set()
        # the rotations of each word admitted and not yet given an entry
        self.rotations: dict[CircularWord, list[str]] = {}

    def admit(self, s: str) -> CircularWord:
        w = CircularWord(s)
        rep = w.representative
        rots = [rep[i:] + rep[:i] for i in range(len(rep))]
        self.seen.update(rots)
        self.rotations[w] = rots
        return w

    def entry(self, w: CircularWord):
        rots = self.rotations.pop(w)
        offsets = [
            [i for i, r in enumerate(rots) if matches_pattern(r, *p)] for p in self.patterns
        ]
        return None, (w, rots, offsets)

    def results(self, ze, _, ys):
        seen = self.seen
        for ye in ys:
            for (u, u_rots, u_offsets), (v, v_rots, v_offsets) in ((ze, ye), (ye, ze)):
                for rule, lp, rp in self.rules:
                    rights = v_offsets[rp]
                    for i in u_offsets[lp]:
                        left = u_rots[i]
                        for j in rights:
                            s = left + v_rots[j]
                            if s not in seen:
                                yield s, (rule, u, v, (i, j))


def _saturate(system: SplicingSystem, max_len: int) -> dict:
    """Parent pointers of every word up to ``max_len``: None for an axiom,
    else (rule, u, v, cut) of the production that first reached it."""
    parents: dict = {}
    if system.mode == CIRCULAR:
        pairs = _CircularPairs(system)
    else:
        pairs = _FlatPairs(system, parents)
    admit = pairs.admit
    parents.update(dict.fromkeys(map(admit, system.initial.enumerate(max_len))))
    agenda = deque(parents)
    # a word pairs only with words that fit beside it under the bound, so
    # one longer than max_len minus the shortest axiom pairs with none
    room = max_len - min(map(len, parents), default=0)
    # the words off the agenda by group, then by length; z pairs with each
    # of them (itself included) that fits beside it, so every result does.
    # A result comes out only while it is new.
    done: dict = {}
    while agenda:
        z = agenda.popleft()
        if len(z) > room:
            continue
        key, ze = pairs.entry(z)
        done.setdefault(key, [[] for _ in range(max_len + 1)])[len(z)].append(ze)
        fits = slice(1, max_len - len(z) + 1)
        for key, by_len in done.items():
            if any(by_len[fits]):
                for s, parent in pairs.results(ze, key, chain.from_iterable(by_len[fits])):
                    w = admit(s)
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
            rule = produce.contexts(v).rule_at(seg, p, q)
            if rule is not None:
                yield rule, seg[:p] + seg[q:], v, p
    for p in range(1, n):
        u, v = seg[:p], seg[p:]
        for rule in produce.concat:
            if apply_concat(rule, u, v) is not None:
                yield rule, u, v, p
                break


def _circular_undos(produce: _FlatProducer, seg: CircularWord):
    """Undo moves for a circular word: each split of the circle into an arc
    u, which starts with beta and ends with alpha, and the arc v after it,
    which matches gamma..delta."""
    rep = seg.representative
    n = len(rep)
    # every arc of the circle, and the letters on both sides of it, is a
    # slice of the ring
    ring = rep * 3
    for start in range(n):
        for k in range(1, n):
            v = ring[start + k : start + n]
            rule = produce.contexts(v).rule_at(ring, start + k, start + n, k)
            if rule is not None:
                u = ring[start : start + k]
                cu, cv = CircularWord(u), CircularWord(v)
                cut = (cu.representative * 2).index(u), (cv.representative * 2).index(v)
                yield rule, cu, cv, cut


def _decide(system: SplicingSystem, word, budget: int) -> dict:
    """What the search learnt deciding ``word``: None for an axiom, the
    first undo move (rule, u, v, cut) whose parts are both in the
    language, False for a word that is not in it.

    Every undo move makes both parts strictly shorter than the word, so no
    word depends on itself and each is decided once, on an explicit stack.
    Each distinct word the search takes up spends one unit of ``budget``."""
    undos = partial(
        _circular_undos if system.mode == CIRCULAR else _flat_undos, _FlatProducer(system)
    )
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
