"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library's own application and
closure code paths; they re-derive results from the definitions with
plain string manipulation so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from fractions import Fraction
from functools import lru_cache

from splicelab.automata import _live_distances, pattern_dfa
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialSet,
    SplicingRule,
    SplicingSystem,
    _handles,
)
from splicelab.grammar import Cfg, GeneralizedCfg, cfg_trim, enumerate_cfg_tuples

# --------------------------------------------------------------------------
# Independent regex matcher (over the parsed AST)


def regex_matches(node: tuple, word: str) -> bool:
    @lru_cache(maxsize=None)
    def go(n: tuple, w: str) -> bool:
        kind = n[0]
        if kind == "empty":
            return False
        if kind == "eps":
            return w == ""
        if kind == "lit":
            return w == n[1]
        if kind == "union":
            return any(go(p, w) for p in n[1])
        if kind == "cat":
            parts = n[1]
            if not parts:
                return w == ""
            rest = ("cat", parts[1:])
            return any(go(parts[0], w[:i]) and go(rest, w[i:]) for i in range(len(w) + 1))
        if kind == "star":
            if w == "":
                return True
            return any(go(n[1], w[:i]) and go(n, w[i:]) for i in range(1, len(w) + 1))
        raise AssertionError(f"unknown node {n!r}")

    return go(node, word)


# --------------------------------------------------------------------------
# Naive splicing closure (independent of splicelab.closure)


def _fits(word: str, prefix: str, suffix: str) -> bool:
    if prefix and suffix:
        return (
            len(word) >= len(prefix) + len(suffix)
            and word.startswith(prefix)
            and word.endswith(suffix)
        )
    if prefix:
        return word.startswith(prefix)
    if suffix:
        return word.endswith(suffix)
    return True


def naive_apply(rule: SplicingRule, u: str, v: str) -> set[str]:
    """Every word producible from the ordered pair (u, v) by the rule."""
    out: set[str] = set()
    if not _fits(v, rule.gamma, rule.delta):
        return out
    if rule.usage == CONCAT:
        if _fits(u, rule.alpha, rule.beta):
            out.add(u + v)
        return out
    for cut in range(len(u) + 1):
        if u[:cut].endswith(rule.alpha) and u[cut:].startswith(rule.beta):
            out.add(u[:cut] + v + u[cut:])
    return out


def naive_flat_closure(system: SplicingSystem, max_len: int) -> set[str]:
    words = {w for w in system.initial.enumerate(max_len) if w}
    rules = sorted(system.rules)
    while True:
        fresh: set[str] = set()
        for u in words:
            for v in words:
                if len(u) + len(v) > max_len:
                    continue
                for rule in rules:
                    fresh |= naive_apply(rule, u, v)
        fresh = {w for w in fresh if len(w) <= max_len} - words
        if not fresh:
            return words
        words |= fresh


def naive_undos(system: SplicingSystem, word: str) -> list[tuple]:
    """Every way to split ``word`` into the two operands of one production,
    in the order the membership search offers them, with the rules that
    make each split.  Flat: (u, v, cut, rules), every span v = word[p:q]
    by p, then q, taken out of u = the rest, then every concatenation u v
    by the length of u.  Circular: (u, v, rules), every rotation of the
    least rotation of ``word`` by its offset, cut after its first k letters
    into u and v, by k."""
    rules = sorted(system.rules)
    n = len(word)
    out = []
    if system.mode == CIRCULAR:
        least = min(rotations(word))
        for start in range(n):
            rot = least[start:] + least[:start]
            for k in range(1, n):
                u, v = rot[:k], rot[k:]
                fit = [r for r in rules if _fits(u, r.beta, r.alpha) and _fits(v, r.gamma, r.delta)]
                if fit:
                    out.append((u, v, fit))
        return out
    for p in range(n):
        for q in range(p + 1, n + 1):
            if (p, q) == (0, n):
                continue
            u, v = word[:p] + word[q:], word[p:q]
            fit = [
                r
                for r in rules
                if r.usage == SPLICE
                and u[:p].endswith(r.alpha)
                and u[p:].startswith(r.beta)
                and _fits(v, r.gamma, r.delta)
            ]
            if fit:
                out.append((u, v, p, fit))
    for p in range(1, n):
        u, v = word[:p], word[p:]
        fit = [
            r
            for r in rules
            if r.usage == CONCAT and _fits(u, r.alpha, r.beta) and _fits(v, r.gamma, r.delta)
        ]
        if fit:
            out.append((u, v, p, fit))
    return out


def shortenings(usage: str, place: int, handle: str) -> list[str]:
    """The handles a rule of ``usage`` may have at ``place`` (0 to 3:
    alpha, beta, gamma, delta) instead of ``handle`` and still make every
    production that one with ``handle`` there makes: ``handle`` shortened
    on its outer side (splice: alpha's suffixes, beta's and gamma's
    prefixes, delta's suffixes; concat: alpha's and gamma's prefixes,
    beta's and delta's suffixes), shortest first.  A rule dominates
    another of the same usage when it differs from it and each of its
    handles is among these for the other's."""
    if place == 3 or place == (0 if usage == SPLICE else 1):
        return [handle[i:] for i in range(len(handle), -1, -1)]
    return [handle[:i] for i in range(len(handle) + 1)]


def naive_undo_rules(system: SplicingSystem) -> list[SplicingRule]:
    """The splice rules in the order of ``closure._undo_rules``, each rule
    left out when some rule ranked before it has, at every place, one of
    the handles ``shortenings`` lists for it: every combination of the
    shortenings that some rule has at each place is looked up."""
    keyed = [(_handles(r), r) for r in system.rules if r.usage == SPLICE]
    first: dict[tuple[str, str], tuple] = {}
    for h, _ in keyed:
        first[h[2:]] = min(first.get(h[2:], h), h)
    keyed.sort(key=lambda hr: (len(hr[0][0]), len(hr[0][1]), first[hr[0][2:]], hr[0]))
    rank = {h: k for k, (h, _) in enumerate(keyed)}
    options: dict[tuple[int, str], list[str]] = {}
    for i, place in enumerate(map(set, zip(*rank))):
        for h in place:
            options[(i, h)] = [s for s in shortenings(SPLICE, i, h) if s in place]
    return [
        r
        for k, (h, r) in enumerate(keyed)
        if all(
            rank.get(g, k) >= k
            for g in itertools.product(*map(options.get, enumerate(h)))
        )
    ]


def rotations(word: str) -> set[str]:
    return {word[i:] + word[:i] for i in range(max(len(word), 1))}


def in_one_step_image(accepts, rules, word: str) -> bool:
    """Whether ``word`` arises from one rule application to two accepted
    words.  Operand lengths always sum to the result's length, so all
    candidate pairs come from cutting ``word`` apart."""
    n = len(word)
    for rule in rules:
        if rule.usage == CONCAT:
            for i in range(n + 1):
                u, v = word[:i], word[i:]
                if word in naive_apply(rule, u, v) and accepts(u) and accepts(v):
                    return True
            continue
        for i in range(n + 1):
            for j in range(i, n + 1):
                u, v = word[:i] + word[j:], word[i:j]
                if not (accepts(u) and accepts(v)):
                    continue
                if word in naive_apply(rule, u, v):
                    return True
    return False


def is_balanced(word: str, open_ch: str = "a", close_ch: str = "b") -> bool:
    """Nonempty word over {open, close} that is well-nested as brackets."""
    if not word or set(word) - {open_ch, close_ch}:
        return False
    depth = 0
    for ch in word:
        depth += 1 if ch == open_ch else -1
        if depth < 0:
            return False
    return depth == 0


def naive_circular_closure(system: SplicingSystem, max_len: int) -> set[str]:
    """Closure of a circular system, returned as the full set of rotations
    of its members (the flat shadow of the circular language)."""
    words: set[str] = set()
    for w in system.initial.enumerate(max_len):
        if w:
            words |= rotations(w)
    rules = sorted(system.rules)
    while True:
        fresh: set[str] = set()
        for u in words:
            for v in words:
                if len(u) + len(v) > max_len:
                    continue
                for rule in rules:
                    # u here ranges over all rotations, so it plays the role
                    # of the linear form beta.x.alpha directly; likewise v
                    # must lie in gamma A* delta
                    if not _fits(v, rule.gamma, rule.delta):
                        continue
                    if not _fits(u, rule.beta, rule.alpha):
                        continue
                    fresh |= rotations(u + v)
        fresh = {w for w in fresh if len(w) <= max_len} - words
        if not fresh:
            return words
        words |= fresh


# --------------------------------------------------------------------------
# Random generators (all driven by an explicit random.Random)


def random_word(rng: random.Random, letters: str, max_len: int = 3) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))


def random_rule(
    rng: random.Random, letters: str, usage: str, handle_len: int = 1
) -> SplicingRule:
    """A rule whose handles each join ``handle_len`` draws, each draw empty
    with probability 2 / (2 + len(letters)), else one letter."""
    handles = [
        "".join(rng.choice([""] * 2 + list(letters)) for _ in range(handle_len))
        for _ in range(4)
    ]
    return SplicingRule(*handles, usage=usage)


def random_system(
    rng: random.Random,
    *,
    max_letters: int = 2,
    max_initial: int = 2,
    max_rules: int = 2,
    usages: tuple[str, ...] = (SPLICE,),
    mode: str = FLAT,
    max_word_len: int = 3,
    handle_len: int = 1,
) -> SplicingSystem:
    letters = "abc"[: rng.randint(1, max_letters)]
    words = {
        random_word(rng, letters, max_word_len)
        for _ in range(rng.randint(1, max_initial))
    }
    rules = {
        random_rule(rng, letters, rng.choice(usages), handle_len)
        for _ in range(rng.randint(0, max_rules))
    }
    return SplicingSystem(
        alphabet=Alphabet(letters),
        initial=InitialSet.finite(words),
        rules=frozenset(rules),
        mode=mode,
    )


def random_cfg(rng: random.Random, letters: tuple[str, ...] = ("a", "b"), max_body: int = 2) -> Cfg:
    """A small grammar over ``letters``: 2–4 variables, each with 0–3
    bodies of 0 to ``max_body`` symbols drawn from the letters and the
    variables.  Unit cycles, ε-bodies, unreachable and non-generating
    variables all occur."""
    variables = [f"V{i}" for i in range(rng.randint(2, 4))]
    symbols = list(letters) + variables
    prods = [
        (v, tuple(rng.choice(symbols) for _ in range(rng.randint(0, max_body))))
        for v in variables
        for _ in range(rng.randint(0, 3))
    ]
    return Cfg(letters, variables, prods, variables[0])


def random_regex(rng: random.Random, letters: str, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(list(letters) + ["_"])
    shape = rng.randrange(4)
    if shape == 0:
        return random_regex(rng, letters, depth - 1) + random_regex(rng, letters, depth - 1)
    if shape == 1:
        return f"({random_regex(rng, letters, depth - 1)}|{random_regex(rng, letters, depth - 1)})"
    if shape == 2:
        return f"({random_regex(rng, letters, depth - 1)})*"
    return f"({random_regex(rng, letters, depth - 1)})" + rng.choice("+?")


# --------------------------------------------------------------------------
# Lazy expander for generalized grammars (oracle for variable elimination)


def _least_weight(lang: Cfg, weight) -> float:
    """Least total ``weight`` of a word of ``lang`` (inf when it is empty),
    by relaxing every production until nothing improves."""
    best = {v: float("inf") for v in lang.variables}
    changed = True
    while changed:
        changed = False
        for head, body in lang.productions:
            total = sum(best[s] if s in lang.varset else weight(s) for s in body)
            if total < best[head]:
                best[head] = total
                changed = True
    return best[lang.start]


def lazy_generalized_words(g: GeneralizedCfg, max_len: int) -> set[str]:
    """Bounded language of a generalized grammar by direct sentential-form
    expansion, replacing one variable occurrence at a time by a word of its
    right-hand-side language.

    Every occurrence left in a sentential form must yield a nonempty word:
    an expansion erases any subset of the nullable variables it introduces
    and never leaves nothing behind.  So every occurrence costs at least
    one letter, a form holds at most ``max_len`` of them, and the search
    ends even when a nullable variable can reproduce itself
    (``A -> A A | ε``).  A right-hand word is taken after its erasures, so
    one with more than ``max_len`` symbols still counts when erasing its
    nullable variables brings it within the bound."""
    langs = dict(g.rhs_languages)
    varset = set(g.variables)

    # least terminal yield of each variable, for pruning sentential forms:
    # a letter weighs 1 and a variable its own least yield
    yields: dict[str, float] = {v: float("inf") for v in varset}
    changed = True
    while changed:
        changed = False
        for var, lang in langs.items():
            least = _least_weight(lang, lambda s: yields[s] if s in varset else len(s))
            if least < yields[var]:
                yields[var] = least
                changed = True

    nullable = {v for v in varset if yields[v] == 0}

    def erasures(lang: Cfg) -> Cfg:
        """``lang`` with each nullable variable occurrence optional."""
        optional = {s: f"{s}?" for s in lang.terminals if s in nullable}
        prods = [(h, tuple(optional.get(s, s) for s in b)) for h, b in lang.productions]
        prods += [(o, (s,)) for s, o in optional.items()] + [(o, ()) for o in optional.values()]
        return Cfg(lang.terminals, lang.variables + tuple(optional.values()), prods, lang.start)

    rhs_words = {
        var: [w for w in enumerate_cfg_tuples(erasures(lang), max_len) if w]
        for var, lang in langs.items()
    }

    def cost(form: tuple[str, ...]) -> float:
        return sum(max(yields[s], 1) if s in varset else len(s) for s in form)

    done: set[str] = {""} if g.start in nullable else set()
    seen: set[tuple[str, ...]] = set()
    agenda = [(g.start,)]
    while agenda:
        form = agenda.pop()
        if form in seen or cost(form) > max_len:
            continue
        seen.add(form)
        var_at = next((i for i, s in enumerate(form) if s in varset), None)
        if var_at is None:
            done.add("".join(form))
            continue
        for repl in rhs_words[form[var_at]]:
            agenda.append(form[:var_at] + repl + form[var_at + 1 :])
    return done


# --------------------------------------------------------------------------
# Round-by-round simplification (oracle for the indexed cfg_simplify)


def naive_cfg_simplify(g: Cfg) -> Cfg:
    """``cfg_simplify`` by its definition: trim, drop self-loops, then
    round by round inline the first non-start variable in ``variables``
    order whose only production has a body of at most one symbol (and is
    not a self-loop), rebuilding every production each round and keeping
    the first of any duplicates."""
    g = cfg_trim(g)
    prods = [(h, b) for h, b in g.productions if b != (h,)]
    variables = list(g.variables)
    while True:
        by_head: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        for h, b in prods:
            by_head[h].append(b)
        target = None
        for v in variables:
            bs = by_head.get(v, [])
            if v != g.start and len(bs) == 1 and len(bs[0]) <= 1 and bs[0] != (v,):
                target = (v, bs[0])
                break
        if target is None:
            break
        v, replacement = target
        new_prods = []
        for h, b in prods:
            if h != v:
                out: list[str] = []
                for s in b:
                    out.extend(replacement if s == v else (s,))
                new_prods.append((h, tuple(out)))
        prods = list(dict.fromkeys(new_prods))
        variables.remove(v)
    return Cfg(g.terminals, variables, prods, g.start)


# --------------------------------------------------------------------------
# Round-robin grammar fixpoints (independent of the settle-once kernel)


def naive_fixpoint(g: Cfg, update) -> None:
    """Run ``update(head, body)`` once on every production, then again on
    each production whose body holds a variable whose facts changed, until
    nothing changes.  ``update`` returns whether it changed the facts of
    ``head``; facts only ever improve, so the result is the least fixpoint
    whatever order the productions are visited in."""
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


def naive_min_lengths(g: Cfg) -> dict[str, int | None]:
    """Least derivable word length per variable (None = generates nothing),
    improved production by production until no length shrinks."""
    best: dict[str, int | None] = {v: None for v in g.variables}

    def update(head: str, body: tuple[str, ...]) -> bool:
        total = 0
        for s in body:
            part = 1 if s not in g.varset else best[s]
            if part is None:
                return False
            total += part
        if best[head] is None or total < best[head]:
            best[head] = total
            return True
        return False

    naive_fixpoint(g, update)
    return best


def naive_generating_ends(g: Cfg, d) -> dict[str, list]:
    """The generating triples of the binarized ``g`` against the automaton
    ``d``, as ``ends[s][p]``: each production re-runs its whole body from
    every state p whenever a body variable's triples grow."""
    n = d.n_states
    ends: dict[str, list] = {a: [(row[i],) for row in d.transitions] for i, a in enumerate(d.alphabet)}
    ends.update({v: [set() for _ in range(n)] for v in g.variables})

    def update(head: str, body: tuple[str, ...]) -> bool:
        grown = False
        for p, known in enumerate(ends[head]):
            reach = {p}
            for s in body:
                step = ends[s]
                reach = {r for q in reach for r in step[q]}
            if not known.issuperset(reach):
                known.update(reach)
                grown = True
        return grown

    naive_fixpoint(g, update)
    return ends


def naive_first_last(g: Cfg) -> dict[str, set[tuple[str, str]]]:
    """The (first, last) symbol pairs of each symbol's words in a binarized,
    ε-free grammar, each production recomputing its head's pairs from the
    whole of its body's."""
    pairs: dict[str, set[tuple[str, str]]] = {t: {(t, t)} for t in g.terminals}
    pairs.update({v: set() for v in g.variables})

    def update(head: str, body: tuple[str, ...]) -> bool:
        if len(body) == 1:
            fresh = pairs[body[0]] - pairs[head]
        else:
            firsts = {f for f, _ in pairs[body[0]]}
            lasts = {l for _, l in pairs[body[1]]}
            fresh = {(f, l) for f in firsts for l in lasts} - pairs[head]
        pairs[head] |= fresh
        return bool(fresh)

    naive_fixpoint(g, update)
    return pairs


# --------------------------------------------------------------------------
# Grammar isomorphism (for golden-shape checks, small grammars only)


def cfg_isomorphic(g: Cfg, h: Cfg) -> bool:
    """Whether the grammars are identical up to a renaming of variables
    that fixes the start symbol.  Brute force; intended for tiny grammars."""
    if len(g.variables) != len(h.variables):
        return False
    if sorted(g.terminals) != sorted(h.terminals):
        return False
    if len(g.productions) != len(h.productions):
        return False
    g_vars = sorted(g.variables)
    for perm in itertools.permutations(sorted(h.variables)):
        mapping = dict(zip(g_vars, perm))
        if mapping[g.start] != h.start:
            continue
        mapped = {
            (mapping[head], tuple(mapping.get(s, s) for s in body))
            for head, body in g.productions
        }
        if mapped == set(h.productions):
            return True
    return False


def words_by_length(words, *lengths) -> dict[int, int]:
    counts: dict[int, int] = {n: 0 for n in lengths}
    for w in words:
        if len(w) in counts:
            counts[len(w)] += 1
    return counts


# --------------------------------------------------------------------------
# Letter counts (oracle for the membership search's count invariants)


def parikh_vectors(dfa, letters: tuple[str, ...], max_len: int) -> set[tuple[int, ...]]:
    """The letter counts, over ``letters``, of every word of at most
    ``max_len`` letters that ``dfa`` accepts: a breadth-first walk over
    (state, counts so far), one length at a time."""
    out = set()
    frontier = {(dfa.start, (0,) * len(letters))}
    for n in range(max_len + 1):
        out |= {c for q, c in frontier if q in dfa.finals}
        if n == max_len:
            break
        nxt = set()
        for q, c in frontier:
            for a, t in zip(dfa.alphabet, dfa.transitions[q]):
                if a in letters:
                    i = letters.index(a)
                    nxt.add((t, c[:i] + (c[i] + 1,) + c[i + 1 :]))
        frontier = nxt
    return out


def rank(rows) -> int:
    """The rank of the integer ``rows``, by Gaussian elimination over
    fractions."""
    pivots: list[list[Fraction]] = []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for p in pivots:
            c = next(i for i, x in enumerate(p) if x)
            if vec[c]:
                k = vec[c] / p[c]
                vec = [x - k * y for x, y in zip(vec, p)]
        if any(vec):
            pivots.append(vec)
    return len(pivots)


# --------------------------------------------------------------------------
# Automaton walks read straight off the state tables of Dfas


def dfa_product_walk(op: str, a, b) -> tuple:
    """The walk over the state pairs of the Dfas ``a`` and ``b``,
    accepting by ``op``: union, intersect or difference."""
    fa, fb = a.finals, b.finals
    keep = {
        "union": lambda pair: pair[0] in fa or pair[1] in fb,
        "intersect": lambda pair: pair[0] in fa and pair[1] in fb,
        "difference": lambda pair: pair[0] in fa and pair[1] not in fb,
    }[op]
    ta, tb = a.transitions, b.transitions
    return (a.start, b.start), lambda pair: zip(ta[pair[0]], tb[pair[1]]), keep


def naive_reached(K, state: int, prefix: str, suffix: str) -> set[int]:
    """The K states that the words m of K ∩ prefix A* suffix lead
    ``state`` to: a walk over (state·m, K.start·m, pattern state)
    triples, kept to the live states of K and of the pattern automaton."""
    live = _live_distances(K)
    pattern = pattern_dfa(K.alphabet, prefix, suffix)
    pattern_live = _live_distances(pattern)
    out: set[int] = set()
    start = (state, K.start, pattern.start)
    seen = {start}
    stack = [start]
    while stack:
        k, m, x = stack.pop()
        if m in K.finals and x in pattern.finals:
            out.add(k)
        for triple in zip(K.transitions[k], K.transitions[m], pattern.transitions[x]):
            if triple[1] in live and triple[2] in pattern_live and triple not in seen:
                seen.add(triple)
                stack.append(triple)
    return out
