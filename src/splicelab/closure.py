"""Ground-truth semantics: bounded closure by saturation, membership from
a memo over words, and derivation witnesses.

The bounded closure is exact, not an approximation: every production's
result is as long as both operands together, so the words of the language
up to length n can only ever be built from other words up to length n.
Saturation therefore pairs each word only with the earlier words that fit
beside it under the bound.  Splice rules, whatever their handle lengths,
go through one occurrence scan that serves flat and circular saturation
and the backward search of flat and circular words alike: a seam is a
pair of handles that meet at a cut (alpha and beta, alpha and gamma, delta
and beta, or round a circle a suffix and a prefix), and a word is searched
once for each seam, with str.find, so the work follows the occurrences and
not the number of cuts, spans or rotations.

Saturation does per-word work once, not once per pair, in one direct
loop per mode.  A flat word's context table (the merged cut contexts of
the splice rules it can be inserted by) and two concat bit masks follow
from its first and last letters, as many as the longest handles tested,
so a per-call dict keyed by those ends gives them.  A group of words
with one table keeps its least length, for a word to skip a group it
cannot fit beside, and each host gets one cut list per table it meets,
so a pair costs only its hits.  A new circular word cuts its rotations
once, for its canonical rotation and the set later results are tested
against; only a word that can still pair keeps the list, to be scanned
once for its rotations in each rule pattern.

Membership decides each word once.  A word is in the language iff it is an
axiom or some undo move splits it into two parts that are both in it, so
one memo over words serves the whole search.  A flat undo move takes out
a span with alpha before it and beta after it; a circular one takes out
an arc of the circle with alpha before it and beta after it, both inside
the rest.  The moves of a word come from its seams: a span runs from a
place where alpha ends and gamma starts to one where delta ends and beta
starts.  Each move names the first rule, in one fixed order, that makes
it, and a rule that an earlier one dominates is never looked for.  Each
distinct arc of a circular search is canonicalized once.

Every production keeps both operands whole, so a word of the language
counts each letter as a sum of initial words does, and a letter weighting
that sums to 0 on every initial word sums to 0 on it too.  The search
takes a basis of these weightings from the initial set once per system,
and a word that breaks one, or uses a letter no initial word uses, is out
with no undo move tried.  A finite set's basis is the integer null space
of its words' letter counts; a regular set's comes from a spanning tree
of its automaton and is exact; a context-free set gives none.  Only
non-members are cut, so every answer and trace stays as it was.

Whatever a search needs from the system alone is built once per system
and read by every later search of it: the undominated rule order with its
seams and bounds, the concat rules, the letter-count test, flat
saturation's context tables and circular saturation's rule patterns.  The
system object keeps its tables and the tables hold no reference to it, so
they go when it does; an equal but distinct system builds its own.  What a
search learns about words (its memo, cut lists, arcs, rotations and parent
pointers) lives only as long as the call.

A trace from ``witness`` or ``derivation`` is one valid derivation of the
word, guaranteed to replay; which one is not fixed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul

from .automata import _live_distances
from .core import (
    CIRCULAR,
    SPLICE,
    BudgetExceededError,
    CircularWord,
    InitialRef,
    InitialSet,
    Production,
    ProductionSequence,
    SpliceError,
    SplicingRule,
    SplicingSystem,
    StepRef,
    _handles,
    apply_concat,
    dominates,
    matches_pattern,
)

DEFAULT_BUDGET = 10**6


def _seams(text: str, stop: int, seams, cyclic: bool = False) -> list:
    """For each (left, right) of the distinct ``seams``, the positions,
    ascending, at which ``left`` ends and ``right`` starts in ``text``:
    where ``left + right`` starts below ``stop``, moved on by
    ``len(left)``.  A cyclic ``text`` is a circle of ``stop`` letters
    written twice, and its positions count round the circle."""
    out = []
    for left, right in seams:
        seam = left + right
        if not seam:
            out.append(range(stop))
            continue
        # round the circle, a position moved on by len(left) wraps at most once
        found, k = [], len(left) % stop if cyclic else len(left)
        i = text.find(seam)
        while 0 <= i < stop:
            found.append(i + k)
            i = text.find(seam, i + 1)
        if cyclic and found and found[-1] >= stop:
            cut = bisect_left(found, stop)
            found = [i - stop for i in found[cut:]] + found[:cut]
        out.append(found)
    return out


class _Contexts:
    """The merged cut contexts of the splice rules an inserted word
    matches: the (alpha, beta) keys with their rules, in the order of
    ``_undo_rules``.  Words that match the same rules share one table,
    which hashes by identity."""

    __slots__ = ("keys", "rules")

    def __init__(self, ctx: dict[tuple[str, str], SplicingRule]):
        self.keys = list(ctx)
        self.rules = list(ctx.values())

    def cuts(self, host: str) -> list[tuple[int, SplicingRule]]:
        """(cut, rule) for every insertion point of ``host`` at which a
        word of this table may go in, cuts ascending: at each, the rule
        of the first key that fits."""
        keys = self.keys
        if not keys:
            return []
        found = _seams(host, len(host) + 1, keys)
        if len(keys) == 1:
            rule = self.rules[0]
            return [(i, rule) for i in found[0]]
        windows = [(ps, k) for k, ps in enumerate(found) if ps]
        return [(i, self.rules[k]) for i, k in _firsts(windows)]


def _saturate(system: SplicingSystem, max_len: int) -> dict:
    """Parent pointers of every word up to ``max_len``: None for an axiom,
    else (rule, u, v, cut) of the production that first reached it.  Each
    mode's loop pairs every word z, both ways round, with each word before
    it (z too) that fits beside it, by group and then by length."""
    initial = system.initial.enumerate(max_len)
    # a word pairs only with words that fit beside it under the bound, so
    # one longer than max_len minus the shortest axiom pairs with none
    room = max_len - min(map(len, initial), default=0)
    loop = _saturate_circular if system.mode == CIRCULAR else _saturate_flat
    return loop(_tables(system), initial, max_len, room)


def _saturate_flat(tables: _Tables, initial: list, max_len: int, room: int) -> dict:
    parents = dict.fromkeys(initial)
    agenda = deque(parents)
    concat = tables.concat
    entries: dict = {}  # handle signature -> (context table, left mask, right mask)
    # context table -> [least length, words by length, host -> its cut list]
    groups: dict[_Contexts, list] = {}
    while agenda:
        z = agenda.popleft()
        n = len(z)
        if n > room:
            continue
        key = tables.signature(z)
        z_table, zl, zr = entries.get(key) or entries.setdefault(key, tables.entry(z))
        group = groups.get(z_table)
        if group is None:
            group = groups[z_table] = [n, [[] for _ in range(max_len + 1)], {}]
        elif n < group[0]:
            group[0] = n
        group[1][n].append((z, zl, zr))
        y_cuts = group[2] if z_table.keys else None
        for table, (least, by_len, cuts) in groups.items():
            if n + least > max_len:
                continue
            # z is new, so none of its cut lists is made yet
            z_cuts = cuts[z] = table.cuts(z)
            if not (z_cuts or y_cuts is not None or zl or zr):
                continue
            z_splits = [(z[:i], z[i:], i, rule) for i, rule in z_cuts]
            for y, yl, yr in chain.from_iterable(by_len[least : max_len - n + 1]):
                # y into z, then z y
                for head, tail, i, rule in z_splits:
                    s = head + y + tail
                    if s not in parents:
                        parents[s] = (rule, z, y, i)
                        agenda.append(s)
                m = zl & yr
                if m and z + y not in parents:
                    parents[z + y] = (concat[(m & -m).bit_length() - 1], z, y, n)
                    agenda.append(z + y)
                # z into y, then y z
                if y_cuts is not None:
                    hits = y_cuts.get(y)
                    if hits is None:
                        hits = y_cuts[y] = z_table.cuts(y)
                    for i, rule in hits:
                        s = y[:i] + z + y[i:]
                        if s not in parents:
                            parents[s] = (rule, y, z, i)
                            agenda.append(s)
                m = yl & zr
                if m and y + z not in parents:
                    parents[y + z] = (concat[(m & -m).bit_length() - 1], y, z, len(y))
                    agenda.append(y + z)
    return parents


def _saturate_circular(tables: _Tables, initial: list, max_len: int, room: int) -> dict:
    rules, swapped = tables.circular_rules, tables.swapped
    parents: dict = {}
    seen: set[str] = set()  # every rotation of every word admitted
    rotations: dict[CircularWord, list[str]] = {}  # of each word yet to pair
    agenda: deque = deque()

    def admit(s: str, parent) -> None:
        rots = _rotations(s)
        seen.update(rots)
        w = CircularWord._of_least(rots[0])
        parents[w] = parent
        if len(s) <= room:
            rotations[w] = rots
            agenda.append(w)

    for s in initial:
        if s not in seen:
            admit(s, None)
    by_len: list[list] = [[] for _ in range(max_len + 1)]
    while agenda:
        z = agenda.popleft()
        z_rots = rotations.pop(z)
        n = len(z_rots)
        ze = (z, z_rots, tables.offsets(z_rots[0]))
        by_len[n].append(ze)
        for ye in chain.from_iterable(by_len[1 : max_len - n + 1]):
            pairings = ((ze, ye, rules), (ye, ze, swapped))
            for (u, u_rots, u_offsets), (v, v_rots, v_offsets), pairing in pairings:
                for rule, lp, rp in pairing:
                    rights = v_offsets[rp]
                    for i in u_offsets[lp]:
                        left = u_rots[i]
                        for j in rights:
                            s = left + v_rots[j]
                            if s not in seen:
                                admit(s, (rule, u, v, (i, j)))
    return parents


def _rotations(s: str) -> list[str]:
    """The rotations of ``s``, from its least one on."""
    n, ring = len(s), s + s
    windows = [ring[i : i + n] for i in range(n)]
    i = windows.index(min(windows))
    return windows[i:] + windows[:i]


def closure_bounded(system: SplicingSystem, max_len: int):
    """All words of the system's language up to ``max_len``, length-lex
    sorted; circular systems yield canonical CircularWords.  The empty
    word never appears (it belongs to the language iff it was an axiom,
    which the loader records separately).  It reads the system's search
    tables, built once, and keeps no word past the call."""
    if max_len < 1:
        raise ValueError("the length bound must be at least 1")
    words = _saturate(system, max_len)
    if system.mode == CIRCULAR:
        return sorted(words, key=CircularWord.sort_key)
    words = sorted(words)
    words.sort(key=len)
    return words


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
    word is not in the closure within the bound.  The parent pointers go
    with the call."""
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    parents = _saturate(system, max_len)
    if word not in parents:
        raise SpliceError(f"{word} is not in the closure within length {max_len}")
    return _sequence(parents, word)


# --------------------------------------------------------------------------
# Membership by a memo over words


def _undo_rules(system: SplicingSystem) -> list[SplicingRule]:
    """The splice rules in the order that saturation's context tables and
    membership's undo moves both prefer them: shorter (alpha, beta) first,
    then by the first splice rule with the same (gamma, delta).  A rule
    that a rule before it dominates is left out, as it could never be
    preferred."""
    keyed = [(_handles(r), r) for r in system.rules if r.usage == SPLICE]
    first: dict[tuple[str, str], tuple] = {}  # (gamma, delta) -> least handles
    for h, _ in keyed:
        first[h[2:]] = min(first.get(h[2:], h), h)
    keyed.sort(key=lambda hr: (len(hr[0][0]), len(hr[0][1]), first[hr[0][2:]], hr[0]))
    return [
        r
        for k, (h, r) in enumerate(keyed)
        if not any(dominates(SPLICE, h2, h) for h2, _ in keyed[:k])
    ]


def _grouped(lists):
    """(position, ks) for each position of the (ascending positions, k)
    ``lists``, ascending: the k of the lists that hold it, in list order."""
    if len(lists) == 1:
        ((ps, k),) = lists
        return zip(ps, repeat((k,)))
    at = defaultdict(list)
    for ps, k in lists:
        for x in ps:
            at[x].append(k)
    return sorted(at.items())


def _firsts(windows):
    """(position, k) for each position of the ``windows``, ascending, with
    the least k that holds it; a window is (ascending positions, k), and
    the windows come by ascending k."""
    if len(windows) == 1:
        ((ps, k),) = windows
        return zip(ps, repeat(k))
    first: dict[int, int] = {}
    for ps, k in reversed(windows):
        first.update(zip(ps, repeat(k)))
    return sorted(first.items())


class _Undos:
    """The undo moves of one membership search, found from where the
    rules' handles occur rather than by trying every span.

    Each word is scanned once for its seams: for every rule, the positions
    where alpha ends and gamma starts, and those where delta ends and beta
    starts.  An undo move of the rule takes out the part between one of
    each, when it is long enough for gamma and delta and what is left long
    enough for alpha and beta.  A move keeps the first rule, in the order
    of ``_undo_rules``, that makes it.  A move whose taken-out part v the
    search ``known`` already holds to be out of the language is left out,
    as the search would turn it down."""

    def __init__(self, tables: _Tables, known: dict):
        self.rules, self.bounds = tables.rules, tables.bounds
        self.seams, self.at = tables.seams, tables.at
        self.concat = tables.concat
        # arc -> its circular word and the arc's rotation offset in it
        self.arcs: dict[str, tuple[CircularWord, int]] = {}
        self.known = known

    def flat(self, seg: str):
        """Each forward production that could have produced ``seg``, as
        (rule, u, v, cut): the taken-out v = seg[p:q] by p, then q, and
        then the concatenations."""
        rules, bounds, known = self.rules, self.bounds, self.known
        n, m = len(seg), len(rules)
        found = _seams(seg, n + 1, self.seams)
        seams = [found[i] for i in self.at]
        # a rule takes part only where both its seams occur
        live = [(seams[k], k) for k in range(m) if seams[k] and seams[m + k]]
        for p, ks in _grouped(live):
            windows = []
            for k in ks:
                qs = seams[m + k]
                lo = bisect_left(qs, p + bounds[k][1])
                # v is never the whole word
                hi = bisect_left(qs, n) if p == 0 else len(qs)
                if lo < hi:
                    windows.append((qs[lo:hi], k))
            for q, k in _firsts(windows):
                v = seg[p:q]
                if known.get(v) is not False:
                    yield rules[k], seg[:p] + seg[q:], v, p
        for p in range(1, n) if self.concat else ():
            u, v = seg[:p], seg[p:]
            for rule in self.concat:
                if apply_concat(rule, u, v) is not None:
                    yield rule, u, v, p
                    break

    def circular(self, seg: CircularWord):
        """Each split of the circle into an arc u, which starts with beta
        and ends with alpha, and the arc v after it, which matches
        gamma..delta: by where u starts, then by its length."""
        rep, arcs, known = seg.representative, self.arcs, self.known
        n, m = len(rep), len(self.rules)
        ring = rep + rep
        found = _seams(ring, n, self.seams, cyclic=True)
        seams = [found[i] for i in self.at]
        live = [(seams[m + k], k) for k in range(m) if seams[k] and seams[m + k]]
        # where u may end (and v start), once more a round later
        ends = {k: [*seams[k], *(p + n for p in seams[k])] for _, k in live}
        for q, ks in _grouped(live):
            windows = []
            for k in ks:
                ps, (lu, lv) = ends[k], self.bounds[k]
                lo, hi = bisect_left(ps, q + lu), bisect_right(ps, q + n - lv)
                if lo < hi:
                    windows.append((ps[lo:hi], k))
            for p, k in _firsts(windows):
                v = ring[p : q + n]
                cv, j = arcs.get(v) or self._arc(v)
                if known.get(cv) is not False:
                    u = ring[q:p]
                    cu, i = arcs.get(u) or self._arc(u)
                    yield self.rules[k], cu, cv, (i, j)

    def _arc(self, arc: str) -> tuple[CircularWord, int]:
        w = CircularWord(arc)
        got = self.arcs[arc] = w, (w.representative * 2).index(arc)
        return got


# --------------------------------------------------------------------------
# Letter-count invariants of the initial set


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the greatest common divisor of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _null_space(rows, width: int) -> list[list[int]]:
    """An integer basis of the weightings f with f·r = 0 for each of the
    ``rows``, lists of ``width`` integers.  Fraction-free elimination keeps
    the independent rows in reduced echelon form, each zero at the others'
    pivots; each free column then gives one weighting, whose weights at
    the pivots the rows fix."""
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in rows:
        for c, p in pivots:
            if row[c]:
                k, m = p[c], row[c]
                row = [k * x - m * y for x, y in zip(row, p)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            continue
        row = _primitive(row)
        for i, (c, p) in enumerate(pivots):
            if p[col]:
                k, m = row[col], p[col]
                pivots[i] = (c, _primitive([k * x - m * y for x, y in zip(p, row)]))
        pivots.append((col, row))
        if len(pivots) == width:
            return []
    taken = {c for c, _ in pivots}
    basis = []
    for j in range(width):
        if j in taken:
            continue
        used = [(c, p) for c, p in pivots if p[j]]
        d = lcm(*(p[c] for c, p in used))
        f = [0] * width
        f[j] = d
        for c, p in used:
            f[c] = -p[j] * d // p[c]
        basis.append(_primitive(f))
    return basis


def _count_rows(initial: InitialSet):
    """The letters the initial words use, and rows whose integer null
    space is exactly the letter weightings that sum to 0 on every initial
    word; None for a context-free set.

    A finite set's rows are its words' letter counts.  A regular set's
    come from a breadth-first spanning tree over the live states of its
    DFA, each state q with the counts P(q) of its tree path: P(q) for each
    final q, and P(q) + a - P(q') for each live transition q -a-> q' off
    the tree.  A weighting f sums to 0 on every accepted word iff every
    path to each live q sums to f·P(q) under it, and f·P(q) is 0 at the
    finals: iff f is 0 on these rows."""
    if initial.kind == "finite":
        letters = tuple(sorted(set().union(*initial.words)))
        return letters, list({tuple(map(w.count, letters)) for w in initial.words})
    if initial.kind != "regular":
        return None
    dfa = initial.dfa
    live = _live_distances(dfa)
    arrows = {
        q: [(a, t) for a, t in zip(dfa.alphabet, dfa.transitions[q]) if t in live]
        for q in live
    }
    letters = tuple(sorted({a for out in arrows.values() for a, _ in out}))
    index = {a: i for i, a in enumerate(letters)}
    rows = []
    path = {dfa.start: [0] * len(letters)} if dfa.start in live else {}
    queue = deque(path)
    while queue:
        q = queue.popleft()
        if q in dfa.finals:
            rows.append(path[q])
        for a, t in arrows[q]:
            step = path[q].copy()
            step[index[a]] += 1
            if t in path:
                rows.append([x - y for x, y in zip(step, path[t])])
            else:
                path[t] = step
                queue.append(t)
    return letters, rows


def _breaks_counts(system: SplicingSystem):
    """A test of whether a word's letter counts break an invariant of the
    initial set, or None when only letters outside the alphabet could.
    Every production keeps both its operands whole, so each word of the
    language counts as a sum of initial words: a weighting that sums to 0
    on each of them sums to 0 on it, and a letter no initial word uses
    is in none of it."""
    got = _count_rows(system.initial)
    if got is None:
        return None
    letters, rows = got
    basis = _null_space(rows, len(letters))
    if not basis and set(letters) >= set(system.alphabet):
        return None
    circular = system.mode == CIRCULAR

    def breaks(word) -> bool:
        if circular:
            word = word.representative
        counts = list(map(word.count, letters))
        return sum(counts) != len(word) or any(sum(map(mul, f, counts)) for f in basis)

    return breaks


# --------------------------------------------------------------------------
# Search tables, once per system


class _Tables:
    """What saturation and the membership search need from a system's
    rules and initial set alone, built once for the system and read by
    every later search of it, which keeps it on the system.  It holds
    rules, handles and letter counts, never the system, so the two form
    no cycle."""

    def __init__(self, system: SplicingSystem):
        # membership's undo moves: the rules, and for each the least
        # lengths of what an undo move keeps and takes out
        self.rules = rules = _undo_rules(system)
        self.bounds = [
            (max(1, len(r.alpha) + len(r.beta)), max(1, len(r.gamma) + len(r.delta)))
            for r in rules
        ]
        # each rule's two seams, (alpha, gamma) and (delta, beta), as
        # indices into the distinct seams that each word is scanned for
        pairs = [(r.alpha, r.gamma) for r in rules]
        pairs += [(r.delta, r.beta) for r in rules]
        index = {pair: i for i, pair in enumerate(dict.fromkeys(pairs))}
        self.seams = list(index)
        self.at = [index[pair] for pair in pairs]
        self.concat = system.concat_rules
        self.breaks = _breaks_counts(system)
        # flat saturation: words that match the same (gamma, delta) pairs
        # share one context table, made the first time a word needs it
        self.gds = list(dict.fromkeys((r.gamma, r.delta) for r in rules))
        self.by_gds: dict[tuple, _Contexts] = {}
        # P and S, the longest prefix and suffix handles a flat entry tests
        hs = self.gds + [h for r in self.concat for h in (r.handles[:2], r.handles[2:])]
        self.ends = [max((len(h[i]) for h in hs), default=0) for i in (0, 1)]
        # circular saturation: each splice rule with the indices of its
        # (prefix, suffix) patterns, left (beta, alpha) and right (gamma,
        # delta), among the distinct patterns
        splice = system.splice_rules
        ends = [((r.beta, r.alpha), (r.gamma, r.delta)) for r in splice]
        patterns = list(dict.fromkeys(p for pair in ends for p in pair))
        at = patterns.index
        self.circular_rules = [(r, at(lp), at(rp)) for r, (lp, rp) in zip(splice, ends)]
        # with the operands swapped, a rule whose two patterns are equal
        # makes y·x for each x·y it made the first way round: a rotation
        # of a word already admitted
        self.swapped = [(r, lp, rp) for r, lp, rp in self.circular_rules if lp != rp]
        self.pattern_seams = [(suffix, prefix) for prefix, suffix in patterns]
        self.widths = [len(prefix) + len(suffix) for prefix, suffix in patterns]

    def signature(self, w: str):
        """What a flat word's ``entry`` follows from: its first P and last S
        letters (P and S as ``ends``), or the word when shorter than both."""
        (p, s), n = self.ends, len(w)
        return (w[:p], w[n - s :]) if n >= p + s else w

    def entry(self, w: str) -> tuple[_Contexts, int, int]:
        """A flat word's context table, and bit masks of the concat rules it
        may be the left and the right operand of, first rule lowest."""
        rules = list(enumerate(self.concat))
        lmask = sum(1 << k for k, r in rules if matches_pattern(w, r.alpha, r.beta))
        rmask = sum(1 << k for k, r in rules if matches_pattern(w, r.gamma, r.delta))
        return self.contexts(w), lmask, rmask

    def offsets(self, rep: str) -> list:
        """For each rule pattern, the offsets from ``rep``, ascending, of
        the rotations in ``prefix A* suffix``: where suffix ends and
        prefix starts round the circle, if the pattern fits in the word."""
        n = len(rep)
        found = _seams(rep + rep, n, self.pattern_seams, cyclic=True)
        return [ps if width <= n else [] for ps, width in zip(found, self.widths)]

    def contexts(self, v: str) -> _Contexts:
        """The merged cut contexts of the splice rules whose gamma and delta
        ``v`` matches; an (alpha, beta) key keeps its first rule in the
        order of ``_undo_rules``."""
        gds = tuple(gd for gd in self.gds if matches_pattern(v, *gd))
        got = self.by_gds.get(gds)
        if got is None:
            ctx: dict[tuple[str, str], SplicingRule] = {}
            for rule in self.rules:
                if (rule.gamma, rule.delta) in gds:
                    ctx.setdefault((rule.alpha, rule.beta), rule)
            got = self.by_gds[gds] = _Contexts(ctx)
        return got


def _tables(system: SplicingSystem) -> _Tables:
    got = system.__dict__.get("_search_tables")
    if got is None:
        # a frozen dataclass blocks setattr, not its __dict__
        got = system.__dict__["_search_tables"] = _Tables(system)
    return got


def _decide(system: SplicingSystem, word, budget: int) -> dict:
    """What the search learnt deciding ``word``: None for an axiom, the
    first undo move (rule, u, v, cut) whose parts are both in the
    language, False for a word that is not in it.

    Every undo move makes both parts strictly shorter than the word, so no
    word depends on itself and each is decided once, on an explicit stack.
    Each distinct word the search takes up spends one unit of ``budget``.
    A word whose letter counts break an invariant of the initial set is
    out at once, with no undo move tried."""
    known: dict = {}
    tables = _tables(system)
    breaks = tables.breaks
    search = _Undos(tables, known)
    undos = search.circular if system.mode == CIRCULAR else search.flat
    stack: list[list] = []  # [word, its undo moves, the move being tried]

    def take_up(w) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetExceededError("membership search budget exceeded")
        if breaks is not None and breaks(w):
            known[w] = False
        elif system.initial_contains(w):
            known[w] = None
        else:
            stack.append([w, undos(w), None])

    take_up(word)
    unseen = object()
    while stack:
        frame = stack[-1]
        w, moves, move = frame
        while True:
            if move is None:
                move = next(moves, None)
                if move is None:
                    known[w] = False
                    stack.pop()
                    break
            # the right part first: for an insertion it is the inserted
            # word, often short
            for part in (move[2], move[1]):
                got = known.get(part, unseen)
                if got is False or got is unseen:
                    break
            else:
                known[w] = move
                stack.pop()
                break
            if got is unseen:
                frame[2] = move
                take_up(part)
                break
            move = None
    return known


def member(system: SplicingSystem, word, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``word`` belongs to the system's language.  The empty word
    is answered from the loader's ε-flag; BudgetExceededError signals an
    inconclusive search.  The system's search tables are built on its
    first search and reused by later ones; no word or verdict the search
    learns outlives the call."""
    if isinstance(word, str) and word == "":
        return system.initial.had_epsilon
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    return _decide(system, word, budget)[word] is not False


def derivation(
    system: SplicingSystem, word, budget: int = DEFAULT_BUDGET
) -> ProductionSequence | None:
    """A replayable derivation of ``word``, or None when it is not in the
    language.  It reads the system's search tables as ``member`` does, and
    keeps nothing of the search past the call."""
    if isinstance(word, str) and word == "":
        raise ValueError("the empty word has no derivation; it is axiom-level")
    if system.mode == CIRCULAR and isinstance(word, str):
        word = CircularWord(word)
    known = _decide(system, word, budget)
    if known[word] is False:
        return None
    return _sequence(known, word)
