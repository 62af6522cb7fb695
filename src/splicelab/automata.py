"""Deterministic finite automata and regular expressions.

Every public constructor and operation returns a *normalized* DFA: total,
trimmed, minimized, and renumbered by breadth-first discovery order.  Two
normalized DFAs over the same alphabet accept the same language iff they
are structurally equal, which makes equivalence checks trivial and all
outputs deterministic.

Every construction goes through one subset walk, ``_reach``, over the
nodes of an implicit DFA: regex positions, word prefixes, pattern
progress, product state pairs, or the states of a concatenation or a
rotation closure.  No construction has ε-moves to follow.  ``_reach``
numbers the nodes and minimizes nothing; ``_explore`` is ``_reach``
followed by ``_normalize``, and every public function returns through it.
The walks behind ``pattern_dfa``, ``dfa_from_words`` and
``conjugacy_closure`` are private builders, and every boolean product of
two automata is ``_product_walk`` over two walks (``_walk`` makes a ``Dfa``
one), so the decider can search a walk, or ``_reach`` it, unminimized:
minimizing pays only where the result is returned or a new automaton is
built from it, since a product or a subset walk grows with the states of
its operands.  ``_reach`` builds (``_normalize`` renumbers through it),
``_least_word`` finds the least word to a node, stopping at the first, and
``_visit`` visits each node once, for searches that collect a set or answer
yes or no, with no automaton and no words built.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from .core import Alphabet, ParseError

# an implicit DFA: (start node, node -> successors in alphabet order,
# node -> accepts)
Walk = tuple[Hashable, Callable[[Any], Iterable], Callable[[Any], bool]]


@dataclass(frozen=True)
class Dfa:
    """A total DFA; ``transitions[state][letter_index]`` is the target."""

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]
    # each letter's column in ``transitions``, built once per automaton; it
    # takes no part in equality, hashing or repr
    letter_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "letter_index", {a: i for i, a in enumerate(self.alphabet)})

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts(self, word: str) -> bool:
        index = self.letter_index
        state = self.start
        for ch in word:
            if ch not in index:
                return False
            state = self.transitions[state][index[ch]]
        return state in self.finals


def _accepts_rotation(d: Dfa, word: str) -> bool:
    """Whether ``d`` accepts some rotation of the nonempty ``word``, in
    O(|word|·states) where running each rotation takes O(|word|²).  The
    rotation at i reads word[i:], then word[:i]: it ends where the map of
    word[:i] over all states sends tails[i], the state word[i:] leads the
    start to.  The tails come from the maps of the suffixes, built right to
    left; the maps of the prefixes are built left to right."""
    index = d.letter_index
    if not index.keys() >= set(word):
        return False
    xs = [index[ch] for ch in word]
    delta = d.transitions
    tails = [0] * len(xs)
    suffix = range(d.n_states)  # each state's state after the suffix so far
    for i in range(len(xs) - 1, -1, -1):
        x = xs[i]
        suffix = [suffix[row[x]] for row in delta]
        tails[i] = suffix[d.start]
    prefix = list(range(d.n_states))  # each state's state after word[:i]
    for i, x in enumerate(xs):
        if prefix[tails[i]] in d.finals:
            return True
        prefix = [delta[q][x] for q in prefix]
    return False


def _normalize(
    alphabet: tuple[str, ...],
    delta: Sequence[Sequence[int]],
    start: int,
    finals: Collection[int],
) -> Dfa:
    """Minimize (partition refinement), then renumber the classes by
    ``_reach`` from the start's, which drops every unreachable one."""
    part = [1 if s in finals else 0 for s in range(len(delta))]
    classes = len(set(part))
    while True:
        # refining only splits classes, so an unchanged count means stable
        sigs: dict[tuple, int] = {}
        part = [
            sigs.setdefault((c, *map(part.__getitem__, row)), len(sigs))
            for c, row in zip(part, delta)
        ]
        if len(sigs) == classes:
            break
        classes = len(sigs)
    cdelta: list = [None] * classes
    for c, row in zip(part, delta):
        cdelta[c] = [part[t] for t in row]
    final = {part[s] for s in finals}
    return _reach(alphabet, part[start], cdelta.__getitem__, final.__contains__)


def _reach(alphabet: tuple[str, ...], start, step, final) -> Dfa:
    """The total DFA whose states are the nodes reachable from ``start``,
    numbered in breadth-first discovery order: ``step(node)`` gives a
    node's successors in alphabet order and ``final(node)`` whether it
    accepts.  Nothing is minimized, so equivalent or dead states may stay;
    every state is reachable, so it has a final state iff its language is
    not empty."""
    ids = {start: 0}
    nodes = [start]
    delta: list[tuple[int, ...]] = []
    for node in nodes:  # grows as new nodes are found
        row = []
        for nxt in step(node):
            i = ids.get(nxt)
            if i is None:
                i = ids[nxt] = len(nodes)
                nodes.append(nxt)
            row.append(i)
        delta.append(tuple(row))
    finals = frozenset(i for i, node in enumerate(nodes) if final(node))
    return Dfa(alphabet, tuple(delta), 0, finals)


def _visit(start, step) -> Iterator:
    """Each node reachable from ``start`` once, in breadth-first discovery
    order: ``step(node)`` gives a node's successors.  A caller that stops
    early walks no further."""
    seen = {start}
    nodes = [start]
    for node in nodes:  # grows as new nodes are found
        yield node
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                nodes.append(nxt)


def _explore(alphabet: tuple[str, ...], start, step, final) -> Dfa:
    """The normalized DFA of the nodes reachable from ``start``."""
    d = _reach(alphabet, start, step, final)
    return _normalize(alphabet, d.transitions, 0, d.finals)


def _letters(alphabet) -> tuple[str, ...]:
    if isinstance(alphabet, Alphabet):
        return alphabet.letters
    return tuple(sorted(alphabet))


# --------------------------------------------------------------------------
# Simple constructors


def dfa_none(alphabet) -> Dfa:
    """The empty language."""
    letters = _letters(alphabet)
    return Dfa(letters, (tuple(0 for _ in letters),), 0, frozenset())


def dfa_from_words(alphabet, words) -> Dfa:
    """The finite language consisting of exactly ``words``."""
    letters = _letters(alphabet)
    return _explore(letters, *_words_walk(letters, words))


def _words_walk(letters: tuple[str, ...], words) -> Walk:
    """The walk of ``dfa_from_words``: a node is the prefix read so far,
    or None once no word has it."""
    words = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)}

    def step(prefix):
        for ch in letters:
            nxt = None if prefix is None else prefix + ch
            yield nxt if nxt in prefixes else None

    return "", step, words.__contains__


def pattern_dfa(alphabet, prefix: str = "", suffix: str = "") -> Dfa:
    """The language ``prefix A* suffix`` (formal concatenation)."""
    letters = _letters(alphabet)
    return _explore(letters, *_pattern_walk(letters, prefix, suffix))


def _pattern_walk(letters: tuple[str, ...], prefix: str, suffix: str) -> Walk:
    """The walk of ``pattern_dfa``: a node is the number of prefix letters
    read, None once one differs, and, from the end of the prefix on, the
    lengths of the suffix's prefixes that the letters read since then end
    with."""
    n, m = len(prefix), len(suffix)
    none, ends0 = frozenset(), frozenset([0])

    def step(node):
        i, ends = node
        for ch in letters:
            if i == n:
                yield n, ends0.union([j + 1 for j in ends if j < m and suffix[j] == ch])
            elif i is not None and ch == prefix[i]:
                yield i + 1, ends0 if i + 1 == n else none
            else:
                yield None, none

    start = (0, ends0 if n == 0 else none)
    return start, step, lambda node: node[0] == n and m in node[1]


# --------------------------------------------------------------------------
# Regular expressions

# AST nodes: ("empty",) ("eps",) ("lit", ch) ("union", parts) ("cat", parts)
# ("star", body)

EMPTY = ("empty",)
EPS = ("eps",)


def lit(ch: str) -> tuple:
    return ("lit", ch)


def _contains(nodes: list[tuple], node: tuple) -> bool:
    """Whether ``node`` equals one of ``nodes``.  ``==`` on nested tuples
    recurses in C, one level for each level their equal part goes down,
    so past the recursion limit the nodes are compared in post-order
    instead, as flat lists of leaves and (kind, arity) entries."""
    try:
        return node in nodes
    except RecursionError:
        form = _postfix(node)
        return any(_postfix(other) == form for other in nodes)


def _head(node: tuple) -> tuple:
    """The first 16 entries of the pre-order form of ``node``, as leaves
    and (kind, arity) entries: equal nodes share it, and it takes at most
    16 steps however large or deep the node is.  (Hashing the node itself
    recurses in C with no limit, and a deep enough one overflows the C
    stack.)"""
    out, stack = [], [node]
    while stack and len(out) < 16:
        n = stack.pop()
        if n[0] in ("union", "cat"):
            out.append((n[0], len(n[1])))
            stack.extend(reversed(n[1][:16]))
        elif n[0] == "star":
            out.append(n[:1])
            stack.append(n[1])
        else:
            out.append(n)
    return tuple(out)


def union(*parts: tuple) -> tuple:
    """The union of ``parts``, flattened, with a part that equals one kept
    before it left out.  The kept parts are grouped by their heads, so a
    part is compared only with those that share its head."""
    flat: list[tuple] = []
    kept: dict[tuple, list[tuple]] = defaultdict(list)
    for p in parts:
        if p == EMPTY:
            continue
        if p[0] == "union":
            flat.extend(p[1])
            for q in p[1]:
                kept[_head(q)].append(q)
            continue
        same = kept[_head(p)]
        if not _contains(same, p):
            flat.append(p)
            same.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return ("union", tuple(flat))


def cat(*parts: tuple) -> tuple:
    flat: list[tuple] = []
    for p in parts:
        if p == EMPTY:
            return EMPTY
        if p == EPS:
            continue
        if p[0] == "cat":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return ("cat", tuple(flat))


def star(body: tuple) -> tuple:
    if body in (EMPTY, EPS):
        return EPS
    if body[0] == "star":
        return body
    return ("star", body)


def parse_regex(text: str) -> tuple:
    """Parse the concrete regex syntax: letters, ``|``, juxtaposition,
    ``*``, ``+``, ``?``, parentheses, and ``_`` for the empty word.  One
    pass over the characters keeps a frame per open group: its finished
    branches and the items of the branch being read."""
    empty_branch = "empty regex branch; use _ for the empty word"
    groups: list[tuple[list, list]] = []  # the frames of the enclosing groups
    branches: list[tuple] = []
    items: list[tuple] = []
    for ch in text:
        if ch in " \t":
            continue
        if ch in ")|" and not items:
            raise ParseError(empty_branch)
        if ch == "(":
            groups.append((branches, items))
            branches, items = [], []
        elif ch == "|":
            branches.append(cat(*items))
            items = []
        elif ch == ")":
            if not groups:
                raise ParseError("trailing ')' in regex")
            node = union(*branches, cat(*items))
            branches, items = groups.pop()
            items.append(node)
        elif ch in "*+?":
            # a postfix operator rewrites the item it follows
            if not items:
                raise ParseError(f"unexpected {ch!r} in regex")
            node = items[-1]
            if ch == "*":
                items[-1] = star(node)
            elif ch == "+":
                items[-1] = cat(node, star(node))
            else:
                items[-1] = union(EPS, node)
        else:
            items.append(EPS if ch == "_" else lit(ch))
    if not items:
        raise ParseError(empty_branch)
    if groups:
        raise ParseError("unbalanced parenthesis in regex")
    return union(*branches, cat(*items))


def _postorder(node: tuple) -> list[tuple]:
    """The nodes of an AST, children before their parent and left to
    right: a walker keeps a stack of finished results, and a parent takes
    the last ones, one per child."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        out.append(n)
        if n[0] in ("union", "cat"):
            stack.extend(n[1])
        elif n[0] == "star":
            stack.append(n[1])
    out.reverse()
    return out


def _postfix(node: tuple) -> list[tuple]:
    return [
        (n[0], len(n[1])) if n[0] in ("union", "cat") else n[:1] if n[0] == "star" else n
        for n in _postorder(node)
    ]


def _children(done: list, n: tuple) -> list:
    """Pop the finished results of the parts of a union or cat ``n``."""
    cut = len(done) - len(n[1])
    parts = done[cut:]
    del done[cut:]
    return parts


def regex_letters(node: tuple) -> set[str]:
    return {n[1] for n in _postorder(node) if n[0] == "lit"}


def regex_to_dfa(regex, alphabet) -> Dfa:
    """Compile a regex (text or AST) to the minimal DFA over ``alphabet``
    by Glushkov's position construction, which needs no ε-moves: every
    letter occurrence is a position, and a node is the set of positions
    the word read so far may end at, with position 0 for the start."""
    node = parse_regex(regex) if isinstance(regex, str) else regex
    letters = _letters(alphabet)
    extra = regex_letters(node) - set(letters)
    if extra:
        raise ValueError(f"regex uses letters outside the alphabet: {sorted(extra)}")
    index = {a: x for x, a in enumerate(letters)}
    letter_of: list[int] = [-1]  # position 0 reads no letter
    follow: list[set[int]] = [set()]
    # per finished subtree: whether it accepts the empty word, and its
    # first and last positions; positions are numbered left to right and
    # the follow sets inside a subtree are linked when it is finished
    done: list[tuple[bool, set[int], set[int]]] = []
    for n in _postorder(node):
        kind = n[0]
        if kind in ("empty", "eps"):
            done.append((kind == "eps", set(), set()))
        elif kind == "lit":
            p = len(letter_of)
            letter_of.append(index[n[1]])
            follow.append(set())
            done.append((False, {p}, {p}))
        elif kind == "union":
            scans = _children(done, n)
            done.append((
                any(nullable for nullable, _, _ in scans),
                set().union(*(first for _, first, _ in scans)),
                set().union(*(last for _, _, last in scans)),
            ))
        elif kind == "cat":
            nullable, first, last = True, set(), set()
            for part_nullable, part_first, part_last in _children(done, n):
                for q in last:
                    follow[q] |= part_first
                if nullable:
                    first |= part_first
                last = last | part_last if part_nullable else part_last
                nullable = nullable and part_nullable
            done.append((nullable, first, last))
        elif kind == "star":
            _, first, last = done.pop()
            for q in last:
                follow[q] |= first
            done.append((True, first, last))
        else:
            raise ValueError(f"bad regex node {n!r}")

    nullable, follow[0], last = done.pop()
    # per position, the positions that may follow it, split by letter
    moves = []
    for after in follow:
        row = [[] for _ in letters]
        for q in after:
            row[letter_of[q]].append(q)
        moves.append(list(map(frozenset, row)))
    accepting = last | {0} if nullable else last
    # a row of empty sets keeps one column per letter when ``cur`` is empty
    padding = [frozenset()] * len(letters)

    def step(cur: frozenset[int]):
        return [frozenset().union(*column) for column in zip(padding, *map(moves.__getitem__, cur))]

    return _explore(letters, frozenset([0]), step, lambda cur: not accepting.isdisjoint(cur))


def render_regex(node: tuple) -> str:
    """Render an AST back to the concrete syntax (no node for the empty
    language: callers must special-case it)."""
    done: list[str] = []
    for n in _postorder(node):
        kind = n[0]
        if kind == "eps":
            text = "_"
        elif kind == "lit":
            text = n[1]
        elif kind == "star":
            text = done.pop()
            if n[1][0] in ("union", "cat"):
                text = f"({text})"
            text += "*"
        elif kind == "cat":
            parts = zip(n[1], _children(done, n))
            text = "".join(f"({s})" if p[0] == "union" else s for p, s in parts)
        elif kind == "union":
            text = "|".join(_children(done, n))
        else:
            raise ValueError(f"cannot render {n!r}")
        done.append(text)
    return done.pop()


# --------------------------------------------------------------------------
# Boolean algebra and decision procedures


def _require_same_alphabet(a: Dfa, b: Dfa) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")


def dfa_boolean(op: str, a: Dfa, b: Dfa) -> Dfa:
    """Product construction for union / intersect / difference."""
    _require_same_alphabet(a, b)
    return _explore(a.alphabet, *_product_walk(op, _walk(a), _walk(b)))


def _walk(d: Dfa) -> Walk:
    """``d`` as a walk over its states."""
    return d.start, d.transitions.__getitem__, d.finals.__contains__


def _product_walk(op: str, a: Walk, b: Walk) -> Walk:
    """The walk over the node pairs of walks ``a`` and ``b`` over one
    alphabet, accepting by ``op``: union, intersect or difference."""
    (start_a, step_a, final_a), (start_b, step_b, final_b) = a, b
    if op == "union":
        keep = lambda pair: final_a(pair[0]) or final_b(pair[1])
    elif op == "intersect":
        keep = lambda pair: final_a(pair[0]) and final_b(pair[1])
    elif op == "difference":
        keep = lambda pair: final_a(pair[0]) and not final_b(pair[1])
    else:
        raise ValueError(f"unknown boolean op {op!r}")
    return (start_a, start_b), lambda pair: zip(step_a(pair[0]), step_b(pair[1])), keep


def dfa_union(a: Dfa, b: Dfa) -> Dfa:
    return dfa_boolean("union", a, b)


def dfa_intersect(a: Dfa, b: Dfa) -> Dfa:
    return dfa_boolean("intersect", a, b)


def dfa_difference(a: Dfa, b: Dfa) -> Dfa:
    return dfa_boolean("difference", a, b)


def dfa_without_epsilon(a: Dfa) -> Dfa:
    """The language of ``a`` minus the empty word: reading starts from a
    fresh non-final copy of the start state, which no word returns to."""
    if a.start not in a.finals:
        return a
    delta = [list(row) for row in a.transitions]
    delta.append(list(a.transitions[a.start]))
    return _normalize(a.alphabet, delta, a.n_states, set(a.finals))


def dfa_empty(a: Dfa) -> bool:
    """Every state of a DFA built here is reachable, so emptiness is the
    absence of finals."""
    return not a.finals


def _least_word(alphabet: tuple[str, ...], start, step, stop) -> str | None:
    """Length-lex least word leading ``start`` to a node where ``stop``
    holds, or None when no reachable node does: ``step(node)`` gives a
    node's successors in alphabet order.  A breadth-first walk that
    expands letters in alphabet order discovers the nodes in length-lex
    order of their first word, so the first stopping node found ends it;
    no automaton is built."""
    if stop(start):
        return ""
    words = {start: ""}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for letter, nxt in zip(alphabet, step(node)):
            if nxt not in words:
                words[nxt] = words[node] + letter
                if stop(nxt):
                    return words[nxt]
                queue.append(nxt)
    return None


def difference_witness(a: Dfa, b: Dfa) -> str | None:
    """Length-lex least word accepted by ``a`` but not ``b``: the least
    word to a state pair accepting in ``a`` and rejecting in ``b``."""
    _require_same_alphabet(a, b)
    return _least_word(a.alphabet, *_product_walk("difference", _walk(a), _walk(b)))


def dfa_subset(a: Dfa, b: Dfa) -> bool:
    return difference_witness(a, b) is None


def dfa_equivalent(a: Dfa, b: Dfa) -> bool:
    _require_same_alphabet(a, b)
    return a == b


def _live_distances(a: Dfa) -> dict[int, int]:
    """The live states, those reachable from the start that reach a final
    state, each with the length of its shortest word to acceptance: a
    reverse breadth-first walk from the reachable finals."""
    # the reachable states, each with its predecessors
    rev: dict[int, list[int]] = {s: [] for s in _visit(a.start, a.transitions.__getitem__)}
    for s in rev:
        for t in a.transitions[s]:
            rev[t].append(s)
    dist = {f: 0 for f in a.finals if f in rev}
    queue = deque(dist)
    while queue:
        s = queue.popleft()
        for p in rev[s]:
            if p not in dist:
                dist[p] = dist[s] + 1
                queue.append(p)
    return dist


def dfa_is_finite(a: Dfa) -> bool:
    """Finite iff no cycle passes through a live state: peeling live
    states with no live predecessor left (Kahn's order) must use them all."""
    live = _live_distances(a)
    indegree = dict.fromkeys(live, 0)
    for s in live:
        for t in a.transitions[s]:
            if t in live:
                indegree[t] += 1
    stack = [s for s, d in indegree.items() if d == 0]
    peeled = 0
    while stack:
        s = stack.pop()
        peeled += 1
        for t in a.transitions[s]:
            if t in live:
                indegree[t] -= 1
                if indegree[t] == 0:
                    stack.append(t)
    return peeled == len(live)


def dfa_concat(a: Dfa, b: Dfa) -> Dfa:
    """The concatenation: a node is the state of ``a`` after the whole
    word read so far and the states of ``b`` after its suffixes that
    follow a prefix ``a`` accepts."""
    _require_same_alphabet(a, b)
    ta, tb = a.transitions, b.transitions
    k = len(a.alphabet)

    def node(s: int, bs: list[int]) -> tuple[int, frozenset[int]]:
        return s, frozenset(bs + [b.start] if s in a.finals else bs)

    def step(cur):
        s, bs = cur
        for x in range(k):
            yield node(ta[s][x], [tb[t][x] for t in bs])

    return _explore(a.alphabet, node(a.start, []), step, lambda cur: not b.finals.isdisjoint(cur[1]))


def conjugacy_closure(a: Dfa) -> Dfa:
    """All rotations of all accepted words."""
    return _explore(a.alphabet, *_conjugacy_walk(a))


def _conjugacy_walk(a: Dfa) -> Walk:
    """The walk of ``conjugacy_closure``.

    A rotation v·u of an accepted word u·v splits it at a guessed state
    g, the state u leads to.  A node holds the (state, g) pairs still
    reading the suffix part v from g, and those reading the prefix part u
    from the start after v reached acceptance; it accepts when a prefix
    pair is back at its g.  Pairs whose state is not live are dropped.
    """
    live = _live_distances(a)
    T, k = a.transitions, len(a.alphabet)

    def node(suffix, prefix) -> tuple[frozenset, frozenset]:
        # a suffix pair at a final state restarts as a prefix pair
        restart = [(a.start, g) for s, g in suffix if s in a.finals]
        return frozenset(suffix), frozenset(prefix).union(restart)

    def step(cur):
        suffix, prefix = cur
        for x in range(k):
            yield node(
                [(t, g) for s, g in suffix if (t := T[s][x]) in live],
                [(t, g) for s, g in prefix if (t := T[s][x]) in live],
            )

    start = node([(g, g) for g in live], ())
    return start, step, lambda cur: any(s == g for s, g in cur[1])


def _rotation_closed(a: Dfa) -> bool:
    """Whether ``a`` accepts every rotation of every word it accepts.  The
    one-letter rotations generate the others, so it does iff w·x is
    accepted whenever x·w is, for every letter x and word w: per letter,
    one walk over the pairs (start·x·w, start·w) looks for a pair whose
    first state accepts while the second, after reading x, rejects.  It
    reads only the transitions, so it is exact on any DFA, minimized or
    not."""
    T, finals = a.transitions, a.finals
    step = lambda pair: zip(T[pair[0]], T[pair[1]])
    for x in range(len(a.alphabet)):
        for p, q in _visit((T[a.start][x], a.start), step):
            if p in finals and T[q][x] not in finals:
                return False
    return True


def enumerate_dfa(a: Dfa, max_len: int) -> list[str]:
    """Accepted words of length <= max_len in length-lex order.

    Grows the prefixes one letter at a time, in alphabet order, keeping
    only those that can still reach acceptance within the bound."""
    dist = _live_distances(a)
    # per state, the letters that lead on toward acceptance, with the
    # length still needed after them
    succ = [
        [(letter, t, dist[t]) for letter, t in zip(a.alphabet, row) if t in dist]
        for row in a.transitions
    ]
    out: list[str] = []
    level = [("", a.start)] if dist.get(a.start, max_len + 1) <= max_len else []
    for length in range(max_len + 1):
        out.extend(prefix for prefix, s in level if s in a.finals)
        room = max_len - length - 1
        level = [
            (prefix + letter, t)
            for prefix, s in level
            for letter, t, need in succ[s]
            if need <= room
        ]
    return out


def dfa_to_regex(a: Dfa) -> tuple:
    """Recover a regex AST by state elimination; EMPTY for the empty
    language.  Each state keeps its own edges in and out, so eliminating
    it reads only those; one elimination adds at most one part to each
    edge, so the text does not depend on the order they are read in."""
    if dfa_empty(a):
        return EMPTY
    n = a.n_states
    src, dst = n, n + 1  # fresh outer start / accept
    out: list[dict[int, tuple]] = [{} for _ in range(n + 2)]
    into: list[dict[int, tuple]] = [{} for _ in range(n + 2)]

    def add(i: int, j: int, r: tuple) -> None:
        out[i][j] = into[j][i] = union(out[i].get(j, EMPTY), r)

    for s in range(n):
        for x, letter in enumerate(a.alphabet):
            add(s, a.transitions[s][x], lit(letter))
    add(src, a.start, EPS)
    for f in a.finals:
        add(f, dst, EPS)
    for mid in range(n):
        loop_star = star(out[mid].pop(mid, EMPTY))
        into[mid].pop(mid, None)
        ins, outs = into[mid], out[mid]
        for i in ins:
            del out[i][mid]
        for j in outs:
            del into[j][mid]
        for i, rin in ins.items():
            for j, rout in outs.items():
                add(i, j, cat(rin, loop_star, rout))
    return out[src].get(dst, EMPTY)
