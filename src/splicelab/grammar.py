"""Context-free grammar kernel and the grammar-level constructions used by
the synthesis pipeline.

Symbols are plain strings.  A body symbol is a variable iff it appears in
the grammar's ``variables``; everything else must be a declared terminal.
Terminals are usually single letters, but composite symbols (seam markers
like ``M_a_b``, graft pseudo-terminals) are allowed, so enumeration counts
symbols, not characters.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator

from .automata import (
    Dfa, _normalize, _product_walk, _reach, _require_same_alphabet, _visit, _walk, pattern_dfa,
)
from .core import Alphabet, InitialSet

Body = tuple[str, ...]

_FRESH = itertools.count()


def fresh_name(base: str, avoid: Iterable[str] = ()) -> str:
    """A new variable name not present in ``avoid``, which is tested as
    given (pass a set when it is large).  The counter is global so names
    minted by nested constructions never collide with each other."""
    while True:
        name = f"{base}{next(_FRESH)}"
        if name not in avoid:
            return name


@dataclass(frozen=True)
class Cfg:
    """An immutable context-free grammar.

    ``variables`` is ordered (declaration order drives elimination order and
    deterministic output); ``productions`` is an ordered, duplicate-free
    list of (head, body) pairs.  ``varset`` is the stored frozenset of
    ``variables``, for membership tests; it takes no part in equality,
    hashing or repr.
    """

    terminals: tuple[str, ...]
    variables: tuple[str, ...]
    productions: tuple[tuple[str, Body], ...]
    start: str
    varset: frozenset[str] = field(init=False, repr=False, compare=False)

    def __init__(self, terminals, variables, productions, start):
        terminals = tuple(terminals)
        variables = tuple(dict.fromkeys(variables))
        seen: dict[tuple[str, Body], None] = {}
        for head, body in productions:
            seen[(head, tuple(body))] = None
        productions = tuple(seen)
        overlap = set(terminals) & set(variables)
        if overlap:
            raise ValueError(f"symbols both terminal and variable: {sorted(overlap)}")
        if start not in variables:
            raise ValueError(f"start symbol {start!r} is not a variable")
        varset = frozenset(variables)
        known = varset | set(terminals)
        for head, body in productions:
            if head not in varset:
                raise ValueError(f"production head {head!r} is not a variable")
            for sym in body:
                if sym not in known:
                    raise ValueError(f"undeclared symbol {sym!r} in a body")
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "productions", productions)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "varset", varset)

    @classmethod
    def _trusted(cls, terminals, variables, productions, start, varset=None) -> Cfg:
        """The kernel's constructor for a grammar it builds from grammars it
        already holds, by filtering, renaming apart or grafting them: the
        parts are taken as given, tuples with no duplicate variable or
        production and every symbol declared, and nothing is checked.
        ``varset`` passes the variables' frozenset through when they are
        unchanged.  Grammars from outside go through ``Cfg(...)``."""
        self = object.__new__(cls)
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "productions", productions)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "varset", frozenset(variables) if varset is None else varset)
        return self

    def bodies(self, var: str) -> list[Body]:
        return [b for h, b in self.productions if h == var]


def finite_cfg(terminals, words: Iterable[str]) -> Cfg:
    """A grammar for a finite set of (nonempty or empty) words given as
    strings of single-character terminals."""
    terminals = tuple(terminals)
    start = fresh_name("F", terminals)
    prods = [(start, tuple(w)) for w in sorted(set(words), key=lambda w: (len(w), w))]
    return Cfg(terminals, (start,), prods, start)


def _renamed(g: Cfg, mapping: dict[str, str]) -> tuple:
    """The parts of ``g`` with its variables renamed by ``mapping``."""

    def m(sym: str) -> str:
        return mapping.get(sym, sym)

    return (
        g.terminals,
        tuple(m(v) for v in g.variables),
        tuple((m(h), tuple(m(s) if s in g.varset else s for s in b)) for h, b in g.productions),
        m(g.start),
    )


# --------------------------------------------------------------------------
# Trimming, emptiness, light simplification


def cfg_empty(g: Cfg) -> bool:
    """Whether ``g`` derives no word: the least-length search stops as soon
    as the start settles."""
    return g.start not in _settle(g, g.start)


def cfg_trim(g: Cfg) -> Cfg:
    """Drop non-generating and unreachable variables (and their rules).
    The start variable is always kept, so an empty language trims to a
    grammar with no productions.  A grammar that is trimmed already is
    returned as it is."""
    gen = _settle(g)
    barren = g.varset - gen.keys()
    useful = [(h, b) for h, b in g.productions if h in gen and barren.isdisjoint(b)]
    below: dict[str, set[str]] = defaultdict(set)  # terminals too: they lead nowhere
    for head, body in useful:
        below[head].update(body)
    reach = set(_visit(g.start, below.__getitem__))
    keep = [v for v in g.variables if v in reach and v in gen]
    if g.start not in keep:
        keep = [g.start] + keep
    prods = tuple((h, b) for h, b in useful if h in reach)
    if len(prods) == len(g.productions) and tuple(keep) == g.variables:
        return g
    return Cfg._trusted(g.terminals, tuple(keep), prods, g.start)


def cfg_simplify(g: Cfg) -> Cfg:
    """Trim, then inline non-start variables that have a single production
    whose body is empty or one symbol, and drop self-loop productions.
    Language is preserved; shapes get close to hand-written grammars.

    The trim settles which variables have one production, so callers need
    not trim first; inlining keeps a trimmed grammar trimmed, so no trim
    follows.  Each round inlines the first such variable in ``variables``
    order, taken from a queue sorted by position, and rewrites only the
    productions that hold it.  A rewrite that duplicates a production
    keeps the earlier of the two, so the productions keep their order."""
    g = cfg_trim(g)
    slots: list[tuple[str, Body] | None] = [(h, b) for h, b in g.productions if b != (h,)]
    bodies: dict[str, dict[Body, int]] = {v: {} for v in g.variables}
    holders: dict[str, set[int]] = {v: set() for v in g.variables}
    for i, (head, body) in enumerate(slots):
        bodies[head][body] = i
        for s in body:
            if s in g.varset:
                holders[s].add(i)

    def single(v: str) -> Body | None:
        """The body to inline for ``v``, or None when ``v`` is not inlinable."""
        if v != g.start and len(bodies[v]) == 1:
            [body] = bodies[v]
            if len(body) <= 1 and body != (v,):
                return body
        return None

    position = {v: -i for i, v in enumerate(g.variables)}  # negated: the first pops first
    queue = sorted((position[v], v) for v in g.variables if single(v) is not None)
    inlined: set[str] = set()
    while queue:
        _, v = queue.pop()
        replacement = single(v)
        if replacement is None:
            continue
        [own] = bodies[v].values()
        slots[own] = None
        bodies[v] = {}
        inlined.add(v)
        touched = set()
        for i in holders.pop(v):
            if slots[i] is None:
                continue
            head, body = slots[i]
            del bodies[head][body]
            touched.add(head)
            new = tuple(r for s in body for r in (replacement if s == v else (s,)))
            earlier = bodies[head].get(new)
            if earlier is not None and earlier < i:
                slots[i] = None
                continue
            if earlier is not None:
                slots[earlier] = None
            slots[i] = (head, new)
            bodies[head][new] = i
            if replacement and replacement[0] in g.varset:
                holders[replacement[0]].add(i)
        for head in touched:
            if single(head) is not None:
                insort(queue, (position[head], head))
    variables = tuple(v for v in g.variables if v not in inlined)
    return Cfg._trusted(g.terminals, variables, tuple(p for p in slots if p is not None), g.start)


_MINTED = re.compile(r"^([A-Z])[0-9]+$")


def cfg_canonical(g: Cfg) -> Cfg:
    """Renumber machine-minted variables (a capital letter plus digits) in
    order of first appearance, so equal constructions serialize to
    identical bytes no matter what the name allocator did.  Hand-named
    variables are left alone."""
    taken = {v for v in g.variables if not _MINTED.match(v)} | set(g.terminals)
    order: list[str] = []
    seen: set[str] = set()

    def visit(sym: str) -> None:
        if sym in g.varset and sym not in seen and _MINTED.match(sym):
            seen.add(sym)
            order.append(sym)

    visit(g.start)
    for head, body in g.productions:
        visit(head)
        for sym in body:
            visit(sym)
    for v in g.variables:
        visit(v)

    mapping: dict[str, str] = {}
    next_index: dict[str, int] = {}
    for v in order:
        letter = _MINTED.match(v).group(1)
        n = next_index.get(letter, 0)
        while True:
            n += 1
            name = f"{letter}{n}"
            if name not in taken:
                break
        next_index[letter] = n
        taken.add(name)
        mapping[v] = name
    # a one-to-one renaming of every minted variable onto names no symbol has
    return Cfg._trusted(*_renamed(g, mapping))


# --------------------------------------------------------------------------
# Regular embeddings and intersection


def cfg_from_dfa(d: Dfa) -> Cfg:
    """Right-linear grammar for the automaton's language."""
    variables = [f"Q{s}" for s in range(d.n_states)]
    prods: list[tuple[str, Body]] = []
    for s in range(d.n_states):
        for x, letter in enumerate(d.alphabet):
            prods.append((variables[s], (letter, variables[d.transitions[s][x]])))
        if s in d.finals:
            prods.append((variables[s], ()))
    g = Cfg(d.alphabet, variables, prods, variables[d.start])
    return cfg_trim(g)


def _binarize(g: Cfg) -> Cfg:
    """``g`` with every body longer than 2 split by fresh link variables
    (``g`` itself when there is none)."""
    if all(len(body) <= 2 for _, body in g.productions):
        return g
    variables = list(g.variables)
    prods: list[tuple[str, Body]] = []
    avoid = set(g.variables) | set(g.terminals)
    for head, body in g.productions:
        while len(body) > 2:
            link = fresh_name("N", avoid)
            avoid.add(link)
            variables.append(link)
            prods.append((head, (body[0], link)))
            head, body = link, body[1:]
        prods.append((head, body))
    return Cfg._trusted(g.terminals, tuple(variables), tuple(prods), g.start)


def bar_hillel(g: Cfg, d: Dfa) -> Cfg:
    """Grammar for L(g) ∩ L(d) by the triple construction on a binarized
    copy of ``g``, built over the triples that survive a trim only: the
    generating-triple fixpoint of ``_generating_ends``, then the walk down
    of ``_product``."""
    if set(g.terminals) != set(d.alphabet):
        raise ValueError(
            f"terminal alphabet {sorted(g.terminals)} does not match "
            f"automaton alphabet {sorted(d.alphabet)}"
        )
    g = _binarize(g)
    return _product(g, d, _generating_ends(g, d))


def _letter_ends(d: Dfa) -> dict[str, list]:
    """``ends`` entries of the letters: each leads p to its one successor."""
    return {a: [(row[i],) for row in d.transitions] for i, a in enumerate(d.alphabet)}


def _generating_ends(g: Cfg, d: Dfa) -> dict[str, list]:
    """The generating triples of ``g`` against ``d``, as ``ends[s][p]``:
    the states a word of the symbol s leads p to.  ``g`` is binarized.
    Semi-naive: each triple (v, p, q) is found once and pushed once
    through the bodies that hold v, joined there with the triples the
    other symbol of the body has so far; a triple of that symbol found
    later makes the join from its own side.  ``into[s][q]`` holds the
    states p with q in ``ends[s][p]``, for the joins from the right."""
    n = d.n_states
    ends: dict[str, list] = _letter_ends(d)
    into: dict[str, list] = {a: [[] for _ in range(n)] for a in d.alphabet}
    for a, row in ends.items():
        for p, (q,) in enumerate(row):
            into[a][q].append(p)
    for v in g.variables:
        ends[v] = [set() for _ in range(n)]
        into[v] = [set() for _ in range(n)]
    work: list[tuple[str, int, int]] = []

    def add(v: str, found: Iterable[tuple[int, int]]) -> None:
        for p, q in found:
            if q not in ends[v][p]:
                ends[v][p].add(q)
                into[v][q].add(p)
                work.append((v, p, q))

    users: dict[str, list[tuple[str, Body]]] = defaultdict(list)
    for head, body in g.productions:
        if g.varset.isdisjoint(body):  # its triples follow from d alone
            found = []
            for p in range(n):
                q = p
                for a in body:
                    (q,) = ends[a][q]
                found.append((p, q))
            add(head, found)
        for s in dict.fromkeys(body):
            if s in g.varset:
                users[s].append((head, body))
    while work:
        v, p, q = work.pop()
        for head, body in users[v]:
            if len(body) == 1:
                add(head, [(p, q)])
                continue
            x, y = body
            found = [(p, r) for r in ends[y][q]] if x == v else []
            if y == v:
                found += [(o, q) for o in into[x][p]]
            add(head, found)
    return ends


def _product(g: Cfg, d: Dfa, ends: dict[str, list]) -> Cfg:
    """The triple grammar of the binarized ``g`` and ``d`` from the
    generating triples ``ends``.  A walk down from the start's triples
    follows only the generating runs of states through each body, so every
    triple it reaches is both reachable and generating.  The productions
    come out ordered by production of ``g``, then by the states of the
    run, ascending, which is the order of the full product; the result
    needs no trim."""
    by_head: dict[str, list[int]] = defaultdict(list)
    for i, (head, _) in enumerate(g.productions):
        by_head[head].append(i)
    roots = [(g.start, d.start, f) for f in sorted(d.finals) if f in ends[g.start][d.start]]
    reached = set(roots)
    stack = list(roots)
    built: list[tuple[int, tuple[int, ...]]] = []  # (production index, run)
    while stack:
        v, p, q = stack.pop()
        for i in by_head[v]:
            body = g.productions[i][1]
            runs = [(p,)]  # each run of states a word of the body can pass
            for s in body:
                step = ends[s]
                runs = [run + (r,) for run in runs for r in step[run[-1]]]
            for run in runs:
                if run[-1] != q:
                    continue
                built.append((i, run))
                for s, a, b in zip(body, run, run[1:]):
                    if s in g.varset and (s, a, b) not in reached:
                        reached.add((s, a, b))
                        stack.append((s, a, b))

    avoid = set(g.variables) | set(g.terminals)
    names: dict[tuple[str, int, int], str] = {}

    def trip(v: str, p: int, q: int) -> str:
        key = (v, p, q)
        if key not in names:
            names[key] = fresh_name("B", avoid)
        return names[key]

    start = fresh_name("B", avoid)
    prods = [(start, (trip(*root),)) for root in roots]
    for i, run in sorted(built):
        head, body = g.productions[i]
        syms = tuple(trip(s, a, b) if s in g.varset else s for s, a, b in zip(body, run, run[1:]))
        prods.append((trip(head, run[0], run[-1]), syms))
    return Cfg._trusted(g.terminals, (start, *names.values()), tuple(prods), start)


# --------------------------------------------------------------------------
# Bounded enumeration


def _fixpoint(g: Cfg, update: Callable[[str, Body], bool]) -> None:
    """Run ``update(head, body)`` once on every production, then again on
    each production whose body holds a variable whose facts changed, until
    nothing changes.  ``update`` returns whether it changed the facts of
    ``head``; facts only ever improve, so the result is the least fixpoint
    whatever order the productions are visited in.  Only the enumeration's
    length bitmasks use it: an update there is a few integer operations
    over a body's whole length sets, so pushing only the new lengths
    through a body would cost about what re-running it does."""
    users: dict[str, list[int]] = defaultdict(list)
    for i, (_, body) in enumerate(g.productions):
        for s in dict.fromkeys(body):
            if s in g.varset:
                users[s].append(i)
    queued = [True] * len(g.productions)
    work = deque(range(len(g.productions)))
    while work:
        i = work.popleft()
        queued[i] = False
        head, body = g.productions[i]
        if update(head, body):
            for j in users[head]:
                if not queued[j]:
                    queued[j] = True
                    work.append(j)


def _settle(g: Cfg, stop: str | None = None) -> dict[str, int]:
    """The least derivable word length of each generating variable, by
    Knuth's generalization of Dijkstra's algorithm: a heap of candidate
    lengths, and per production a count of the body variables, one per
    occurrence, not settled yet.  A production fires once, when its count
    reaches 0, and each variable settles once.  The search ends early once
    ``stop`` settles."""
    varset = g.varset
    uses: dict[str, list[int]] = {v: [] for v in g.variables}
    waiting: list[int] = []  # per production, its unsettled body variables
    total: list[int] = []  # per production, the lengths of its settled parts
    heap: list[tuple[int, str]] = []
    for i, (head, body) in enumerate(g.productions):
        count = 0
        for s in body:
            if s in varset:
                uses[s].append(i)
                count += 1
        waiting.append(count)
        total.append(len(body) - count)
        if not count:
            heap.append((len(body), head))
    heapify(heap)
    settled: dict[str, int] = {}
    while heap:
        length, v = heappop(heap)
        if v in settled:
            continue
        settled[v] = length
        if v == stop:
            break
        for i in uses[v]:
            total[i] += length
            waiting[i] -= 1
            if not waiting[i]:
                head = g.productions[i][0]
                if head not in settled:
                    heappush(heap, (total[i], head))
    return settled


def _min_lengths(g: Cfg) -> dict[str, int | None]:
    """Least derivable word length per variable (None = generates nothing).
    A variable is generating iff its entry is not None, and nullable iff
    it is 0."""
    best: dict[str, int | None] = dict.fromkeys(g.variables)
    best.update(_settle(g))
    return best


def _length_splits(options: list[list[int]], total: int) -> Iterator[tuple[int, ...]]:
    """Every choice of one length per part, each from that part's ascending
    ``options``, that sums to ``total``.  A stack, not a recursion: a part
    is offered only the lengths that leave a remainder between the least
    and the greatest sums of the later parts."""
    lo, hi = [0], [0]
    for opts in reversed(options):
        lo.append(lo[-1] + opts[0])
        hi.append(hi[-1] + opts[-1])
    lo.reverse()
    hi.reverse()
    stack = [(0, total, ())] if lo[0] <= total <= hi[0] else []
    while stack:
        i, rest, chosen = stack.pop()
        if i == len(options):
            yield chosen
            continue
        opts = options[i]
        for n in opts[bisect_left(opts, rest - hi[i + 1]) : bisect_right(opts, rest - lo[i + 1])]:
            stack.append((i + 1, rest - n, chosen + (n,)))


def _sumset(a: int, b: int) -> int:
    """The length bitmask of {i + j : bit i of ``a``, bit j of ``b``}."""
    out = 0
    while a:
        low = a & -a
        out |= b << (low.bit_length() - 1)
        a ^= low
    return out


def _rooms(g: Cfg, minlen: dict[str, int | None], max_len: int) -> dict[str, int]:
    """Each variable's room: the length of its longest word that a start
    word of at most ``max_len`` symbols can use, or -1 when none can.  A
    body symbol's room is its head's room less the least lengths of the
    body's other symbols.  A worklist raises rooms until none grows; a
    room is at most ``max_len``, so it grows at most that many times."""
    room = dict.fromkeys(g.variables, -1)
    room[g.start] = max_len
    by_head: dict[str, list[Body]] = defaultdict(list)
    for head, body in g.productions:
        if all(minlen.get(s, 1) is not None for s in body):
            by_head[head].append(body)
    work = deque([g.start])
    while work:
        v = work.popleft()
        for body in by_head[v]:
            spare = room[v] - sum(minlen.get(s, 1) for s in body)
            if spare < 0:
                continue
            for s in body:
                if s in g.varset and room[s] < spare + minlen[s]:
                    room[s] = spare + minlen[s]
                    work.append(s)
    return room


def _body_totals(body: Body, masks: dict[str, int], cap: int) -> tuple[int, int]:
    """The totals up to ``cap`` (a bitmask of lengths) that ``body``
    reaches from its symbols' length bitmasks ``masks``, as (all, built):
    ``built`` holds only the totals of splits whose variable parts are all
    shorter than the total, the ones a length's pass can build from
    finished tables.  The others come from a lone variable part with ε
    around it, which the carrier worklist brings."""
    # the totals of the splits so far: every part ε (bit 0); one variable
    # part nonempty and the rest ε; every other split
    zero, lone, built = 1, 0, 0
    for s in body:
        m = masks.get(s)
        if m is None:  # a terminal, 1 long
            zero, lone, built = 0, 0, (zero | lone | built) << 1 & cap
            continue
        nonempty = m & ~1
        grown = _sumset(nonempty, lone | built)
        if not m & 1:  # the part is never ε
            lone = built = 0
        built = (built | grown) & cap
        lone = (lone | (nonempty if zero else 0)) & cap
        zero &= m
    return (zero | lone | built) & cap, built


def enumerate_cfg_tuples(g: Cfg, max_len: int) -> list[Body]:
    """All derivable symbol tuples with at most ``max_len`` symbols, in
    length-lex order.

    Each variable gets a room (``_rooms``) and, by a fixpoint over length
    bitmasks, the lengths up to its room at which it has words.  A
    production is then visited only at the lengths its body can build
    within its head's room, shortest first.  A visit builds its words from
    the finished tables of shorter lengths: a terminal part is 1 long, and
    a variable offers only the lengths at which it has words.  A part can
    reach the new length itself only when every other symbol of its body
    derives ε, so a worklist then carries the new words along those
    productions."""
    minlen = _min_lengths(g)
    if minlen[g.start] is None or max_len < 0:
        return []
    room = _rooms(g, minlen, max_len)
    caps = {v: (1 << room[v] + 1) - 1 for v in g.variables}
    masks = dict.fromkeys(g.variables, 0)

    def update(head: str, body: Body) -> bool:
        reach = _body_totals(body, masks, caps[head])[0]
        if reach & ~masks[head]:
            masks[head] |= reach
            return True
        return False

    _fixpoint(g, update)
    schedule: dict[int, list[tuple[str, Body]]] = defaultdict(list)
    for head, body in g.productions:
        built = _body_totals(body, masks, caps[head])[1]
        while built:
            low = built & -built
            schedule[low.bit_length() - 1].append((head, body))
            built ^= low
    nullable = {v for v, n in minlen.items() if n == 0}
    carriers: dict[str, set[str]] = defaultdict(set)
    for head, body in g.productions:
        heavy = [s for s in body if s not in nullable]
        if not heavy:
            for s in body:
                carriers[s].add(head)
        elif len(heavy) == 1 and heavy[0] in g.varset:
            carriers[heavy[0]].add(head)
    # a variable's tables are read only by the bodies scheduled at later
    # lengths, so each goes once the last length that reads it is done,
    # and none is kept past it; the start's tables stay
    last_read: dict[str, int] = {}
    for ln in sorted(schedule):
        for _, body in schedule[ln]:
            last_read.update(dict.fromkeys(body, ln))
    last_read[g.start] = max_len + 1
    expiring: dict[int, list[str]] = defaultdict(list)
    for v in g.variables:
        if v in last_read:
            expiring[last_read[v]].append(v)
    words: dict[str, dict[int, set[Body]]] = {v: {} for v in g.variables}
    lengths: dict[str, list[int]] = {v: [] for v in g.variables}
    for v in nullable:
        words[v][0] = {()}
        lengths[v].append(0)
    for ln in sorted(schedule):
        level: dict[str, set[Body]] = defaultdict(set)
        for head, body in schedule[ln]:
            options = [lengths[s] if s in g.varset else [1] for s in body]
            for split in _length_splits(options, ln):
                built = {()}
                for s, n in zip(body, split):
                    part = words[s][n] if s in g.varset else ((s,),)
                    built = {w + x for w in built for x in part}
                level[head] |= built
        work = list(level.items())
        while work:
            v, new = work.pop()
            for head in carriers[v]:
                if ln <= room[head]:
                    fresh = new - level[head]
                    if fresh:
                        level[head] |= fresh
                        work.append((head, fresh))
        for v, found in level.items():
            if found and ln < last_read.get(v, -1):
                words[v][ln] = found
                lengths[v].append(ln)
        for v in expiring.pop(ln, ()):
            words[v].clear()
    return [t for ln in range(max_len + 1) for t in sorted(words[g.start].get(ln, ()))]


def enumerate_cfg(g: Cfg, max_len: int) -> list[str]:
    """Derivable words of at most ``max_len`` symbols, joined to strings."""
    return ["".join(t) for t in enumerate_cfg_tuples(g, max_len)]


# --------------------------------------------------------------------------
# Substitution (grafting)


def substitute(g: Cfg, sigma: dict[str, Cfg]) -> Cfg:
    """Replace each terminal ``t`` in ``sigma`` by the language of
    ``sigma[t]``: every grafted grammar is renamed apart and its start
    variable stands in for the terminal.  Keys not among ``g``'s terminals
    are ignored.  Grafted words are final — no re-substitution."""
    applicable = {t: h for t, h in sigma.items() if t in g.terminals}
    variables = list(g.variables)
    prods: list[tuple[str, Body]] = []
    new_terminals = [t for t in g.terminals if t not in applicable]
    starts: dict[str, str] = {}
    grafted = {term for graft in applicable.values() for term in graft.terminals}
    clash = g.varset & grafted
    if clash:
        raise ValueError(f"symbols both terminal and variable: {sorted(clash)}")
    avoid = set(g.variables) | set(g.terminals) | grafted
    for t in sorted(applicable):
        graft = applicable[t]
        mapping = {}
        for v in graft.variables:
            mapping[v] = fresh_name("G", avoid)
            avoid.add(mapping[v])
        starts[t] = mapping[graft.start]
        variables.extend(mapping.values())
        prods.extend((mapping[h], tuple([mapping.get(s, s) for s in b])) for h, b in graft.productions)
        for term in graft.terminals:
            if term not in new_terminals:
                new_terminals.append(term)
    body_prods = []
    for head, body in g.productions:
        if not starts.keys().isdisjoint(body):
            body = tuple([starts.get(s, s) for s in body])
        body_prods.append((head, body))
    # the grafts are renamed apart onto fresh names, so nothing collides
    return Cfg._trusted(tuple(new_terminals), tuple(variables), tuple(body_prods + prods), g.start)


# --------------------------------------------------------------------------
# Generalized grammars and variable elimination


@dataclass(frozen=True)
class GeneralizedCfg:
    """A grammar whose right-hand side per variable is a whole context-free
    language: each ``rhs_languages`` entry maps a variable to a Cfg over
    the terminals plus the generalized variables (treated there as
    terminals)."""

    terminals: tuple[str, ...]
    variables: tuple[str, ...]
    start: str
    rhs_languages: tuple[tuple[str, Cfg], ...]

    def __init__(self, terminals, variables, start, rhs_languages):
        terminals = tuple(terminals)
        variables = tuple(variables)
        rhs_languages = tuple((v, c) for v, c in rhs_languages)
        if start not in variables:
            raise ValueError(f"start symbol {start!r} is not a variable")
        heads = [v for v, _ in rhs_languages]
        if sorted(heads) != sorted(variables) or len(set(heads)) != len(heads):
            raise ValueError("exactly one right-hand-side language per variable")
        allowed = set(terminals) | set(variables)
        for v, cfg in rhs_languages:
            stray = set(cfg.terminals) - allowed
            if stray:
                raise ValueError(
                    f"right-hand side of {v!r} uses undeclared symbols {sorted(stray)}"
                )
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "rhs_languages", rhs_languages)


def kral_single(g: GeneralizedCfg) -> Cfg:
    """Flatten a single-variable generalized grammar: take the grammar H of
    the right-hand-side language (over terminals plus the variable S), turn
    its S-occurrences into genuine variable occurrences, and add S → start
    of H."""
    if len(g.variables) != 1:
        raise ValueError("kral_single requires exactly one variable")
    [(_, h)] = g.rhs_languages
    if g.start in g.terminals:
        raise ValueError(f"symbols both terminal and variable: [{g.start!r}]")
    return _closure(g.start, h, g.terminals)


def _closure(x: str, h: Cfg, terminals: tuple[str, ...]) -> Cfg:
    """The flattened closure of ``x`` with right-hand side ``h``, declaring
    ``terminals``, which must hold every symbol of ``h`` but ``x``: ``h``'s
    variables named ``x`` or a terminal are renamed apart, and x → start
    of ``h`` is added."""
    forbidden = {x, *terminals}
    avoid = forbidden | set(h.variables)
    mapping = {v: fresh_name("K", avoid) for v in h.variables if v in forbidden}
    m = mapping.get
    prods = [(x, (m(h.start, h.start),))]
    prods += [(m(head, head), tuple([m(s, s) for s in body])) for head, body in h.productions]
    variables = (x, *[m(v, v) for v in h.variables])
    return Cfg._trusted(terminals, variables, tuple(prods), x)


def kral_eliminate(g: GeneralizedCfg) -> Cfg:
    """Flatten a generalized grammar to an ordinary one by eliminating
    non-start variables in declaration order: a variable's closure is built
    once the first remaining right-hand side uses it, over its own
    right-hand side's symbols, and grafted into each one that uses it; the
    start is flattened last, over the grammar's terminals.

    A right-hand side that declares x but uses it in no production only
    drops x from its terminals.  One that uses x takes the closure with no
    trim when the closure is non-empty (a trimmed grammar grafted with a
    trimmed non-empty closure is trimmed already); when it is empty, the
    productions that use x go and the rest is trimmed.  The flattened
    start goes to ``cfg_simplify``, which trims it before inlining."""
    rhs = {v: c for v, c in g.rhs_languages}
    remaining = list(g.variables)
    for x in [v for v in g.variables if v != g.start]:
        remaining.remove(x)
        own = rhs.pop(x)
        closure = None
        for v in remaining:
            h = rhs[v]
            if x not in h.terminals:
                continue
            kept = [(head, body) for head, body in h.productions if x not in body]
            used = len(kept) < len(h.productions)
            if used and closure is None:
                closure = _closure(x, own, tuple(t for t in own.terminals if t != x))
                empty = cfg_empty(closure)
            if used and not empty:
                clash = h.varset.intersection(closure.terminals)
                if clash:  # h's local variables named like a closure symbol: rename them apart
                    avoid = {*h.variables, *h.terminals, *closure.terminals}
                    h = Cfg._trusted(*_renamed(h, {y: fresh_name("K", avoid) for y in sorted(clash)}))
                rhs[v] = substitute(h, {x: closure})
            else:
                terminals = tuple(t for t in h.terminals if t != x)
                rest = Cfg._trusted(terminals, h.variables, tuple(kept), h.start, h.varset)
                rhs[v] = cfg_trim(rest) if used else rest
    return cfg_simplify(_closure(g.start, rhs[g.start], g.terminals))


# --------------------------------------------------------------------------
# Seam markers


def marker(a: str, b: str) -> str:
    """The seam-marker symbol recording an insertion context between a
    letter ``a`` on the left and ``b`` on the right."""
    return f"M_{a}_{b}"


def word_ins(w: str) -> Body:
    """Interleave seam markers between adjacent letters:
    ``abc`` → ``a M_a_b b M_b_c c``.  Single letters map to themselves."""
    if not w:
        raise ValueError("the empty word has no marker image")
    out: list[str] = [w[0]]
    for x, y in zip(w, w[1:]):
        out.append(marker(x, y))
        out.append(y)
    return tuple(out)


def _remove_epsilon(g: Cfg) -> Cfg:
    nullable = {v for v, n in _min_lengths(g).items() if n == 0}
    if g.start in nullable:
        raise ValueError("language contains the empty word")
    prods: list[tuple[str, Body]] = []
    for head, body in g.productions:
        optional = [i for i, s in enumerate(body) if s in nullable]
        for dropped in itertools.chain.from_iterable(
            itertools.combinations(optional, k) for k in range(len(optional) + 1)
        ):
            kept = tuple(s for i, s in enumerate(body) if i not in dropped)
            if kept:
                prods.append((head, kept))
    return Cfg(g.terminals, g.variables, prods, g.start)


def _first_last(g: Cfg) -> dict[str, set[tuple[str, str]]]:
    """The (first, last) symbol pairs of each symbol's words (a terminal's
    one pair is itself twice), for the grammars ``ins_image`` builds:
    binarized, trimmed and with no ε-body.  A one-symbol body has its
    symbol's pairs, and a two-symbol body pairs each first of its first
    symbol with each last of its second.  Semi-naive: each new pair of a
    symbol is pushed once through the bodies that hold the symbol, joined
    there with the pairs the other symbol of the body has so far."""
    pairs: dict[str, set[tuple[str, str]]] = {t: {(t, t)} for t in g.terminals}
    pairs.update({v: set() for v in g.variables})
    users: dict[str, list[tuple[str, Body]]] = defaultdict(list)
    for head, body in g.productions:
        for s in dict.fromkeys(body):
            users[s].append((head, body))
    work = [(t, t, t) for t in g.terminals]
    while work:
        s, f, l = work.pop()
        for head, body in users[s]:
            if len(body) == 1:
                found = [(f, l)]
            else:
                x, y = body
                found = [(f, last) for _, last in pairs[y]] if x == s else []
                if y == s:
                    found += [(first, l) for first, _ in pairs[x]]
            for pair in found:
                if pair not in pairs[head]:
                    pairs[head].add(pair)
                    work.append((head, *pair))
    return pairs


def ins_image(g: Cfg) -> Cfg:
    """Grammar for { word_ins(w) : w ∈ L(g) } over the alphabet extended
    with seam markers.  Each variable is annotated with the (first, last)
    letters of the words it derives, so markers can be placed at every
    seam of every binarized rule."""
    g = cfg_trim(_remove_epsilon(_binarize(g)))

    pairs = _first_last(g)
    avoid = set(g.variables) | set(g.terminals)
    names: dict[tuple[str, str, str], str] = {}

    def ann(v: str, f: str, l: str) -> str:
        key = (v, f, l)
        if key not in names:
            names[key] = fresh_name("A", avoid)
        return names[key]

    used_markers: set[str] = set()
    prods: list[tuple[str, Body]] = []
    for head, body in g.productions:
        if len(body) == 1:
            s = body[0]
            for f, l in sorted(pairs[s]):
                sym = s if s not in g.varset else ann(s, f, l)
                prods.append((ann(head, f, l), (sym,)))
        else:
            s1, s2 = body
            for f1, l1 in sorted(pairs[s1]):
                for f2, l2 in sorted(pairs[s2]):
                    m = marker(l1, f2)
                    used_markers.add(m)
                    left = s1 if s1 not in g.varset else ann(s1, f1, l1)
                    right = s2 if s2 not in g.varset else ann(s2, f2, l2)
                    prods.append((ann(head, f1, l2), (left, m, right)))
    start = fresh_name("A", avoid)
    start_prods = [(start, (ann(g.start, f, l),)) for f, l in sorted(pairs[g.start])]
    terminals = tuple(g.terminals) + tuple(sorted(used_markers))
    # no trim: g is trimmed and ε-free, so each (v, f, l) is generating,
    # and every pair of a reachable v is reached from the start's pairs
    return Cfg._trusted(terminals, (start, *names.values()), tuple(start_prods + prods), start)


# --------------------------------------------------------------------------
# Initial-set splitting


def split_first_last(
    initial: InitialSet, alphabet: Alphabet
) -> tuple[dict[tuple[str, str], Cfg], set[str]]:
    """Partition an ε-free initial set by first and last letters: a grammar
    per (a, b) for the words of length ≥ 2 starting with a and ending with
    b, plus the set of single letters present.  Empty components are
    omitted.

    Both infinite kinds are read against ``_first_last_dfa``, whose states
    name a word's letter or its (first, last) pair; the tracking states of
    the set's words give its letters and pairs.  A regular set takes one
    product of its automaton with the tracker.  A pair's component is that
    product minimized with, as finals, its states that are final in the
    set's automaton and track the pair.  That is the minimal automaton of
    the set's words in ``pattern_dfa(letters, a, b)``, which ``_normalize``
    numbers canonically, so it is the automaton ``dfa_intersect`` builds
    for the pair.  A context-free set is binarized once and runs one
    generating-triple fixpoint against the tracker.  Each pair builds the
    product with ``pattern_dfa(letters, a, b)`` from that table projected
    onto it, the same grammar ``bar_hillel`` builds for the pair."""
    letters = alphabet.letters
    components: dict[tuple[str, str], Cfg] = {}
    singletons: set[str] = set()
    if initial.kind == "finite":
        assert initial.words is not None
        groups: dict[tuple[str, str], list[str]] = defaultdict(list)
        for w in initial.words:
            if len(w) >= 2:
                groups[(w[0], w[-1])].append(w)
            elif w:
                singletons.add(w)
        for key in sorted(groups):
            components[key] = finite_cfg(letters, groups[key])
        return components, singletons
    tracker = _first_last_dfa(letters)
    if initial.kind == "regular":
        d = initial.dfa
        assert d is not None
        # the tracker accepts nothing, so the union accepts where d does
        product = _reach(letters, *_product_walk("union", _walk(d), _walk(tracker)))
        track = [tracker.start] * product.n_states  # each state's tracking state
        for i, row in enumerate(product.transitions):  # states are in discovery order
            for x, j in enumerate(row):
                track[j] = tracker.transitions[track[i]][x]
        ending: dict[int, set[int]] = defaultdict(set)  # the final states of each tracking state
        for f in product.finals:
            ending[track[f]].add(f)
        spans = set(ending)  # the tracking states of its words

        def component(a: str, b: str, t: int) -> Cfg:
            return cfg_from_dfa(_normalize(letters, product.transitions, 0, ending[t]))

    else:
        assert initial.cfg is not None
        g = initial.cfg
        base = Cfg(tuple(dict.fromkeys(g.terminals + letters)), g.variables, g.productions, g.start)
        if set(base.terminals) != set(letters):
            raise ValueError("initial grammar uses letters outside the alphabet")
        base = _binarize(base)
        tracked = _generating_ends(base, tracker)
        spans = tracked[base.start][tracker.start]  # the tracking states of its words

        def component(a: str, b: str, t: int) -> Cfg:
            d = pattern_dfa(letters, a, b)
            return _product(base, d, _projected_ends(tracked, tracker, d))

    ones = tracker.transitions[tracker.start]  # the state of each one-letter word
    for i, a in enumerate(letters):
        if ones[i] in spans:
            singletons.add(a)
    for i, a in enumerate(letters):
        for j, b in enumerate(letters):
            t = tracker.transitions[ones[i]][j]
            if t in spans:
                components[(a, b)] = component(a, b, t)
    return components, singletons


def _first_last_dfa(letters: tuple[str, ...]) -> Dfa:
    """The automaton that tracks a word's first letter, last letter and
    whether it has two letters or more, with no final state: 1 + k + k²
    states for k letters."""
    k = len(letters)
    rows = [tuple(1 + x for x in range(k))]
    rows += [tuple(1 + k + i * k + x for x in range(k)) for i in range(k)]
    rows += [tuple(1 + k + i * k + x for x in range(k)) for i in range(k) for _ in range(k)]
    return Dfa(tuple(letters), tuple(rows), 0, frozenset())


class _ProjectedRow(dict):
    """One variable's row of ``_projected_ends``: the entry of a state of
    ``d`` is mapped from the tracked table when it is first read."""

    def __init__(self, tracked_row: list, image: dict[int, int], sources: list[int]):
        super().__init__()
        self.tracked_row, self.image, self.sources = tracked_row, image, sources

    def __missing__(self, p: int) -> set[int]:
        image = self.image
        out = self[p] = {image[q] for q in self.tracked_row[self.sources[p]]}
        return out


def _projected_ends(tracked: dict[str, list], tracker: Dfa, d: Dfa) -> dict[str, list]:
    """``_generating_ends(g, d)`` read off ``tracked``, the generating
    triples of ``g`` against ``tracker`` (``_first_last_dfa``).  The state
    ``d`` reaches on a word must depend only on the word's tracking state,
    as it does for ``pattern_dfa``; then image[t], the state ``d`` reaches
    on the words of tracking state t, maps each tracked set onto its
    counterpart in ``d``.  The walk over (t, image[t]) pairs zips the rows
    of both by position, so their alphabets must be equal.  A row is
    mapped only when ``_product``'s walk down reads it."""
    _require_same_alphabet(tracker, d)
    image = dict(_visit(*_product_walk("union", _walk(tracker), _walk(d))[:2]))
    pick: dict[int, int] = {}  # a tracking state for each state of d
    for t, p in image.items():
        pick.setdefault(p, t)
    sources = [pick[p] for p in range(d.n_states)]
    ends = _letter_ends(d)
    for v, row in tracked.items():
        if v not in ends:  # the letters' entries come from d
            ends[v] = _ProjectedRow(row, image, sources)
    return ends
