"""Decision procedures relating splicing languages to regular languages.

``decide_equal`` settles L(S) = K for a regular K via three regular
inclusions over K⁺, the non-empty words of K: with P the words obtainable
by splicing two K⁺-words,

    (1) I is contained in K,
    (2) P is contained in K,
    (3) K⁺ minus P is contained in I.

(1)+(2) force the closure of I inside K; (3) lets every K⁺-word be rebuilt
inductively (splicing results are strictly longer than both non-empty
operands, so a K⁺-word outside P must be an axiom).  Splicing in the empty
word gives back the other operand, so ε is never an operand; it is settled
apart, by the initial set's ε-flag.  A rule dominated by another of the
same usage (one with its handles shortened on their outer sides) adds
nothing to P, so only the undominated rules' images count.  An image is a
list of walks, implicit DFAs whose nodes are made as a search reaches
them: one per splice rule and resume state, one per concat rule.  (2) is
one walk search in both modes and builds no P: a splice rule whose image
stays in K passes by a K-state inclusion, and the witness is the least,
over the walks of the other rules, of a breadth-first search over (walk
node, K state) pairs.  A circular K is closed under rotation by then, so
rot(P) − K is the rotations of P − K, whose least word is as long as the
shortest word of P − K: the circular witness is the least rotation of
the words outside K of the walks whose least such word is that short.
Only ``splice_image`` folds P: each walk is minimized and folded into
it by ``dfa_union``.  (3) and generability read only the residue
R = K⁺ − P, built from K⁺ by subtracting one raw walk at a time, each
product minimized before the next; a pair whose R state is dead is one
dead node, so a walk is explored only under R's live states.  (3) looks
for the least word of R outside the axioms; in circular mode the axioms
are every rotation of the initial words, and P is rotated.  (2) put P
inside K⁺, so P is closed under rotation iff R is, and then R stands for
K⁺ − rot(P); otherwise the rotation closure of P = K⁺ − R is walked only
as far as the witness.  An automaton is minimized only where it is
returned or a new one is built from it (image walks before
``splice_image``'s fold, fold and residue products, P and a walk's words
outside K before they are rotated), as a product or a subset walk grows
with the states of what it is built from.  Products are ``_product_walk``
over two walks, so no pattern automaton is built; K ∩ x A* y and the
finite axiom automaton stay unminimized.  The other searches over state
pairs (``reached``, ``includes``, the rotation test) are ``_visit``
walks.  A circular K, or a residue, that a pair walk finds closed under
rotation is not rotated: rotating K and P was nearly all of a circular
decision's time.
``alphabetic_generability`` inverts the question: it looks for a finite
alphabetic system generating K, using the maximal admissible rule set; a
candidate rule is admissible when, at every cut, each word K⁺ accepts
after alpha·beta is also accepted after alpha, any middle word and beta:
an inclusion between the languages of two K⁺ states, tested with no
automaton for the image, and only for the rules that no admissible rule
dominates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .automata import (
    Dfa,
    Walk,
    dfa_concat,
    dfa_difference,
    dfa_empty,
    dfa_is_finite,
    dfa_none,
    dfa_union,
    dfa_without_epsilon,
    difference_witness,
    enumerate_dfa,
    _conjugacy_walk,
    _explore,
    _least_word,
    _live_distances,
    _pattern_walk,
    _product_walk,
    _reach,
    _rotation_closed,
    _visit,
    _walk,
    _words_walk,
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
    dominates,
)
from .transform import _linearize_initial

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


def _maximal(rules) -> list[SplicingRule]:
    """The rules that no other rule of the same usage dominates: a
    dominated rule's image lies inside its dominator's, so it adds
    nothing to a union of images.  Sorted as the dataclass orders rules:
    no two rules share their handles and usage, so no rule is compared."""
    keyed = sorted((r.handles, r.usage, r) for r in set(rules))
    return [
        r
        for h, usage, r in keyed
        if not any(u == usage and dominates(usage, h2, h) for h2, u, _ in keyed)
    ]


class _RuleImages:
    """One-step rule images over one K, as walks: implicit DFAs whose
    nodes are found only as a search reaches them.  The rules share K's
    live states, each language K ∩ x A* y (built once per (x, y)), the K
    states its words lead each state to, and the inclusions between K's
    state languages."""

    def __init__(self, K: Dfa):
        self.K = K
        self.live = _live_distances(K)
        self._fitting: dict[tuple[str, str], tuple[Dfa, dict[int, int]]] = {}
        self._reached: dict[tuple[int, str, str], set[int]] = {}
        self._includes: dict[tuple[int, int], bool] = {}
        self._images: dict[SplicingRule, list[Walk]] = {}

    def fitting(self, prefix: str, suffix: str) -> tuple[Dfa, dict[int, int]]:
        """K ∩ prefix A* suffix and its live states, not minimized: the
        image walks search it, and the table a concat rule builds from it
        is minimized."""
        key = (prefix, suffix)
        if key not in self._fitting:
            pattern = _pattern_walk(self.K.alphabet, prefix, suffix)
            d = _reach(self.K.alphabet, *_product_walk("intersect", _walk(self.K), pattern))
            self._fitting[key] = (d, _live_distances(d))
        return self._fitting[key]

    def step(self, state: int, word: str) -> int:
        """The K state ``word`` leads ``state`` to."""
        rows, index = self.K.transitions, self.K.letter_index
        for ch in word:
            state = rows[state][index[ch]]
        return state

    def cuts(self, rule: SplicingRule) -> dict[int, list[int]]:
        """The live K states p at which alpha·beta can be read, grouped by
        the live state t that alpha·beta leads p to."""
        groups: dict[int, list[int]] = {}
        for p in sorted(self.live):
            t = self.step(p, rule.alpha + rule.beta)
            if t in self.live:
                groups.setdefault(t, []).append(p)
        return groups

    def reached(self, state: int, prefix: str, suffix: str) -> set[int]:
        """The K states that the words m of K ∩ prefix A* suffix lead
        ``state`` to: a walk over (state·m, fitting state of m) pairs."""
        key = (state, prefix, suffix)
        if key not in self._reached:
            T = self.K.transitions
            fitting, fitting_live = self.fitting(prefix, suffix)
            M, finals = fitting.transitions, fitting.finals

            def step(pair):
                return [(k, m) for k, m in zip(T[pair[0]], M[pair[1]]) if m in fitting_live]

            walk = _visit((state, fitting.start), step)
            self._reached[key] = {k for k, m in walk if m in finals}
        return self._reached[key]

    def includes(self, t: int, k: int) -> bool:
        """Whether K accepts from state k every word it accepts from t: a
        walk over state pairs that stops at the first pair accepting from
        t's side only.  When none is found, every pair walked holds too."""
        if (t, k) not in self._includes:
            T, finals, live = self.K.transitions, self.K.finals, self.live

            def step(pair):
                return [(x, y) for x, y in zip(T[pair[0]], T[pair[1]]) if x in live and x != y]

            walked = []
            for x, y in _visit((t, k), step):
                if x in finals and y not in finals:
                    self._includes[(t, k)] = False
                    break
                walked.append((x, y))
            else:
                self._includes.update(dict.fromkeys(walked, True))
        return self._includes[(t, k)]

    def keeps_inside(self, rule: SplicingRule) -> bool:
        """Whether a splice rule's image lies in K, without an automaton
        for the image.  A cut p with t = p·alpha·beta live turns u·v into
        u·alpha·m·beta·v; that lies in K for every v accepted from t iff
        K accepts from k·beta everything it accepts from t, where k is the
        state the middle word m leads p·alpha to."""
        for t, group in self.cuts(rule).items():
            for p in group:
                for k in self.reached(self.step(p, rule.alpha), rule.gamma, rule.delta):
                    if not self.includes(t, self.step(k, rule.beta)):
                        return False
        return True

    def resumed_image(self, rule: SplicingRule, t: int, group: list[int]) -> Walk:
        """The walk of the words u·alpha·m·beta·v with m in K ∩ gamma A*
        delta and u·alpha·beta·v in K, cut at one of the states ``group``
        that alpha·beta leads to t.  A node is K's state on u (None once
        not live), the positions reached in alpha, the live middle states,
        the positions reached in beta and the live K states resumed from
        t; ending one part starts the next."""
        K, live = self.K, self.live
        middle, middle_live = self.fitting(rule.gamma, rule.delta)
        alpha, beta, cut = rule.alpha, rule.beta, set(group)
        T, M = K.transitions, middle.transitions

        def node(u, in_alpha, inside, in_beta, resumed):
            if u in cut:
                in_alpha.append(0)
            if len(alpha) in in_alpha:
                inside.append(middle.start)
            if not middle.finals.isdisjoint(inside):
                in_beta.append(0)
            if len(beta) in in_beta:
                resumed.append(t)
            return u, frozenset(in_alpha), frozenset(inside), frozenset(in_beta), frozenset(resumed)

        def step(cur):
            u, in_alpha, inside, in_beta, resumed = cur
            for x, letter in enumerate(K.alphabet):
                nu = None if u is None else T[u][x]
                yield node(
                    nu if nu in live else None,
                    [i + 1 for i in in_alpha if i < len(alpha) and alpha[i] == letter],
                    [n for m in inside if (n := M[m][x]) in middle_live],
                    [i + 1 for i in in_beta if i < len(beta) and beta[i] == letter],
                    [n for s in resumed if (n := T[s][x]) in live],
                )

        start = node(K.start, [], [], [], [])
        return start, step, lambda cur: not K.finals.isdisjoint(cur[4])

    def image(self, rule: SplicingRule) -> list[Walk]:
        """The walks whose union is the words obtainable by one
        application of ``rule`` to two K-words, made once per rule; none
        when a handle's language is empty.

        A splice rule has one walk per resume state t: a single walk over
        all t would carry sets of (middle state, t) pairs whose subsets
        grow with the product of the per-t walks.  A concat rule has the
        one table of its ``dfa_concat``."""
        if rule not in self._images:
            self._images[rule] = self._walks(rule)
        return self._images[rule]

    def _walks(self, rule: SplicingRule) -> list[Walk]:
        if rule.usage == CONCAT:
            left, _ = self.fitting(rule.alpha, rule.beta)
            right, _ = self.fitting(rule.gamma, rule.delta)
            if dfa_empty(left) or dfa_empty(right):
                return []
            return [_walk(dfa_concat(left, right))]
        if dfa_empty(self.fitting(rule.gamma, rule.delta)[0]):
            return []
        return [self.resumed_image(rule, t, group) for t, group in sorted(self.cuts(rule).items())]

    def union(self, maximal: list[SplicingRule]) -> Dfa:
        """P as a normalized DFA: the union of the images of the rules
        ``maximal``, which no other rule of the same usage dominates (see
        ``_maximal``).  Each image walk is minimized, and the walks are
        folded in by ``dfa_union``, so every product is minimized before
        the next: both are constructions, and a product or a subset walk
        grows with the states of what it is built from.  One walk over the
        tuples of all the image walks' nodes would be the same language,
        but it grows with the product of the walks before minimization can
        merge them: exponentially in the number of resume states on
        counting targets, ``(b|ab*ab*a)+`` and the like."""
        parts = [_explore(self.K.alphabet, *walk) for rule in maximal for walk in self.image(rule)]
        return functools.reduce(dfa_union, parts) if parts else dfa_none(self.K.alphabet)

    def residue(self, maximal: list[SplicingRule]) -> Dfa:
        """K minus the images of the rules ``maximal`` (the residue K⁺ − P
        when K is K⁺), with no automaton for the images: each walk in
        turn is subtracted from what is left, R <- R − walk, and the
        product is minimized before the next.  A pair whose R state is
        dead is one dead node, so a walk is explored only under R's live
        states and none is minimized on its own.  A minimal DFA is unique,
        so R is the normalized ``dfa_difference(K, self.union(maximal))``,
        or K itself when there is no walk."""
        R = self.K
        # its own pair step, not ``_product_walk``: a pair with a dead R state is one node
        for rule in maximal:
            for walk in self.image(rule):
                live, T, finals = _live_distances(R), R.transitions, R.finals
                start, step, final = walk
                dead = (None,) * len(R.alphabet)

                def pair_step(pair):
                    if pair is None:
                        return dead
                    r, w = pair
                    return [(t, v) if t in live else None for t, v in zip(T[r], step(w))]

                R = _explore(
                    R.alphabet,
                    (R.start, start) if R.start in live else None,
                    pair_step,
                    lambda pair: pair is not None and pair[0] in finals and not final(pair[1]),
                )
        return R


def splice_image(K: Dfa, rules) -> Dfa:
    """The union P of the one-step splice images of all rules, as a
    normalized DFA.  Only the images of rules that no other rule of the
    same usage dominates are walked: a dominated rule's image lies in its
    dominator's."""
    return _RuleImages(K).union(_maximal(rules))


def _least_outside(K: Dfa, walk: Walk, rotate: bool = False) -> str | None:
    """The length-lex least word of a walk that K rejects, or with
    ``rotate`` the least rotation of one: a search over (walk node, K
    state) pairs, or over the rotation closure of their automaton, which
    is minimized first because a rotation closure is a construction."""
    outside = _product_walk("difference", walk, _walk(K))
    if rotate:
        outside = _conjugacy_walk(_explore(K.alphabet, *outside))
    return _least_word(K.alphabet, *outside)


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
    if system.initial.had_epsilon != K.accepts(""):
        return Verdict(False, 1 if system.initial.had_epsilon else 3, "")
    if system.mode == CIRCULAR and not _rotation_closed(K):
        # the least word of the closure's walk outside K is the least
        # missing rotation; no automaton for the closure is built
        return Verdict(False, "conjugacy", _least_outside(K, _conjugacy_walk(K)))

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

    # (2) splicing K⁺-words never leaves K.  P − K is the union of each
    # image walk's words outside K, so its least word is the least of
    # theirs, and P is not built.  A circular K is closed under rotation,
    # so rot(P) − K is the rotations of P − K: its least word has the
    # length of the shortest word of P − K, and is the least rotation of
    # the words outside K of a walk whose least one is that short
    core = dfa_without_epsilon(K)
    images = _RuleImages(core)
    maximal = _maximal(system.rules)
    failing = [
        (w, walk)
        for rule in maximal
        if rule.usage == CONCAT or not images.keeps_inside(rule)
        for walk in images.image(rule)
        if (w := _least_outside(K, walk)) is not None
    ]
    shortest = min((len(w) for w, _ in failing), default=None)
    found = [
        _least_outside(K, walk, rotate=True) if system.mode == CIRCULAR else w
        for w, walk in failing if len(w) == shortest
    ]
    if found:
        return Verdict(False, 2, min(found))

    # (3) K⁺-words that no splice produces must be axioms (in circular
    # mode, rotations of axioms): one search of the residue R = K⁺ − P minus
    # the axioms and, unless R is closed under rotation (then rot(P) = P, as
    # (2) put P inside K⁺), minus the rotations of P, walked lazily
    R = images.residue(maximal)
    initial = _linearize_initial(system) if system.mode == CIRCULAR else system.initial
    if initial.kind == "finite":
        axioms = _reach(K.alphabet, *_words_walk(K.alphabet, initial.words))
    else:
        axioms = initial.dfa
    unproduced = _walk(R)
    if system.mode == CIRCULAR and not _rotation_closed(R):
        rotated = _conjugacy_walk(dfa_difference(core, R))
        unproduced = _product_walk("difference", unproduced, rotated)
    w = _least_word(K.alphabet, *_product_walk("difference", unproduced, _walk(axioms)))
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


def _admissible(
    images: _RuleImages, alphabet: Alphabet
) -> tuple[set[SplicingRule], list[SplicingRule]]:
    """The alphabetic rules whose images stay in K, and the undominated
    ones among them.  A rule with one handle emptied dominates it, so a
    rule with an admissible such variant is admissible and dominated.
    Taking the rules by their number of nonempty handles, fewest first,
    only the others are tested, and those found admissible are the
    undominated ones.  For alphabetic rules the variants with one handle
    emptied are exactly the immediate dominators, so this lookup stands
    in for ``dominates``: testing each rule against the undominated list
    with it made the generability queries 10–20% slower."""
    admissible: dict[tuple[str, ...], SplicingRule] = {}
    maximal = []
    for rule in sorted(all_alphabetic_rules(alphabet), key=lambda r: -r.handles.count("")):
        handles = rule.handles
        emptied = (handles[:i] + ("",) + handles[i + 1 :] for i, h in enumerate(handles) if h)
        if any(variant in admissible for variant in emptied):
            admissible[handles] = rule
        elif images.keeps_inside(rule):
            admissible[handles] = rule
            maximal.append(rule)
    return set(admissible.values()), maximal


def alphabetic_generability(K: Dfa) -> SplicingSystem | None:
    """A finite alphabetic splicing system generating exactly L(K), or
    None when the maximal admissible rule set leaves an infinite residue.

    Admissible rules keep their one-step image inside K; the image union P
    is monotone in the rule set, so if any admissible set leaves a finite
    residue the maximal one does too, and the residue K⁺ − P itself
    serves as the axiom set."""
    alphabet = Alphabet(K.alphabet)
    core = dfa_without_epsilon(K)
    images = _RuleImages(core)
    admissible, maximal = _admissible(images, alphabet)
    residue = images.residue(maximal)
    if not dfa_is_finite(residue):
        return None
    words = enumerate_dfa(residue, residue.n_states)
    initial = InitialSet(kind="finite", words=frozenset(words), had_epsilon=K.accepts(""))
    return SplicingSystem(
        alphabet=alphabet,
        initial=initial,
        rules=frozenset(admissible),
        mode=FLAT,
    )
