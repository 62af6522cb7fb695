"""Equality of splicing languages with regular languages, one-step splice
images, and the search for generating systems."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from splicelab.automata import (
    Dfa,
    conjugacy_closure,
    dfa_difference,
    dfa_empty,
    dfa_from_words,
    dfa_intersect,
    dfa_is_finite,
    dfa_none,
    dfa_subset,
    dfa_union,
    dfa_without_epsilon,
    difference_witness,
    enumerate_dfa,
    parse_regex,
    pattern_dfa,
    regex_to_dfa,
    _normalize,
)
from splicelab.closure import closure_bounded
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialSet,
    SplicingRule,
    SplicingSystem,
    UnsupportedError,
    conjugates,
)
import splicelab.decider
from splicelab.decider import (
    Verdict,
    _admissible,
    _maximal,
    _RuleImages,
    all_alphabetic_rules,
    alphabetic_generability,
    decide_equal,
    splice_image,
)
from splicelab.examples import anbn, anbn_circular, concat_chain, dyck
from splicelab.fileformat import parse_system
from splicelab.grammar import finite_cfg
from splicelab.transform import complete_system

from helpers import (
    in_one_step_image,
    naive_reached,
    shortenings,
    naive_apply,
    random_regex,
    random_rule,
    random_system,
    rotations,
)

AB = ("a", "b")


def even_a(mode):
    """(aa)* with every splice allowed: the empty word is an axiom, but
    splicing it in gives back the other operand, so no odd word is built."""
    return SplicingSystem(
        alphabet=Alphabet("a"),
        initial=InitialSet.regular(regex_to_dfa(parse_regex("(aa)*"), ("a",))),
        rules=frozenset([SplicingRule("", "", "", "")]),
        mode=mode,
    )


def naive_maximal(rules) -> list[SplicingRule]:
    """``_maximal`` by lookup: each rule looks up every combination of its
    handles' shortenings that some rule has at that place."""
    keyed = [(r, r.usage, r.handles) for r in sorted(set(rules))]
    present = {(usage, handles) for _, usage, handles in keyed}
    occurring = {(usage, i, h) for _, usage, handles in keyed for i, h in enumerate(handles)}

    def dominated(usage, handles) -> bool:
        options = [
            [h for h in shortenings(usage, i, handle) if (usage, i, h) in occurring]
            for i, handle in enumerate(handles)
        ]
        return any(
            h != handles and (usage, h) in present for h in itertools.product(*options)
        )

    return [r for r, usage, handles in keyed if not dominated(usage, handles)]


def circ_a_plus():
    return SplicingSystem(
        alphabet=Alphabet("a"),
        initial=InitialSet.finite(["a"]),
        rules=frozenset([SplicingRule("", "a", "a", "")]),
        mode=CIRCULAR,
    )


class TestVerdict:
    def test_equal_carries_no_witness(self):
        with pytest.raises(ValueError):
            Verdict(True, 2, "ab")
        assert Verdict(True).witness is None

    def test_failure_labels(self):
        v = Verdict(False, "conjugacy", "ba")
        assert not v.equal and v.witness == "ba"


class TestDecideEqual:
    def test_block_language_is_not_ab_plus(self):
        verdict = decide_equal(anbn(), regex_to_dfa(parse_regex("(ab)+"), AB))
        assert not verdict.equal
        assert verdict.failing_inclusion == 2
        assert verdict.witness == "aabb"

    def test_concat_chain_language(self):
        target = regex_to_dfa(parse_regex("c*ab|c"), ("a", "b", "c"))
        assert decide_equal(concat_chain(), target).equal

    def test_no_rules_equal_means_axioms(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["ab"]),
            rules=frozenset(),
            mode=FLAT,
        )
        assert decide_equal(system, dfa_from_words(AB, ["ab"])).equal
        verdict = decide_equal(system, dfa_from_words(AB, ["ab", "ba"]))
        assert not verdict.equal
        assert verdict.failing_inclusion == 3
        assert verdict.witness == "ba"

    def test_axiom_outside_target(self):
        verdict = decide_equal(anbn(), dfa_from_words(AB, ["aabb"]))
        assert verdict.failing_inclusion == 1
        assert verdict.witness == "ab"

    def test_epsilon_only_in_target(self):
        target = regex_to_dfa(parse_regex("(ab)*"), AB)
        verdict = decide_equal(anbn(), target)
        assert not verdict.equal
        assert verdict.failing_inclusion == 3
        assert verdict.witness == ""

    def test_epsilon_only_in_system(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet(kind="finite", words=frozenset({"ab"}), had_epsilon=True),
            rules=frozenset(),
            mode=FLAT,
        )
        verdict = decide_equal(system, dfa_from_words(AB, ["ab"]))
        assert not verdict.equal
        assert verdict.failing_inclusion == 1
        assert verdict.witness == ""

    def test_epsilon_on_both_sides(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet(kind="finite", words=frozenset({"ab"}), had_epsilon=True),
            rules=frozenset(),
            mode=FLAT,
        )
        target = regex_to_dfa(parse_regex("ab|_"), AB)
        assert decide_equal(system, target).equal

    def test_epsilon_operand_adds_no_words(self):
        target = regex_to_dfa(parse_regex("a*"), ("a",))
        assert decide_equal(even_a(FLAT), target) == Verdict(False, 3, "a")
        assert decide_equal(even_a(FLAT), regex_to_dfa(parse_regex("(aa)*"), ("a",))).equal

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            decide_equal(anbn(), regex_to_dfa(parse_regex("a"), ("a", "c")))

    def test_contextfree_initial_unsupported(self):
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.contextfree(finite_cfg(AB, ["ab"])),
            rules=frozenset(),
            mode=FLAT,
        )
        with pytest.raises(UnsupportedError):
            decide_equal(system, dfa_from_words(AB, ["ab"]))


class TestVerdictPrecedence:
    """A target that breaks several inclusions is reported under the first
    check in the documented order, whatever the later checks would say."""

    def test_conjugacy_before_axioms(self):
        target = regex_to_dfa(parse_regex("(ba)+"), AB)
        assert anbn_circular().initial.contains("ab") and not target.accepts("ab")
        assert decide_equal(anbn_circular(), target) == Verdict(False, "conjugacy", "ab")

    def test_axioms_before_splice_image(self):
        target = dfa_from_words(AB, ["aabb"])
        image = splice_image(target, anbn().rules)
        assert not dfa_subset(image, target)
        assert decide_equal(anbn(), target) == Verdict(False, 1, "ab")


class TestDecideEqualCircular:
    def test_target_must_be_rotation_closed(self):
        target = regex_to_dfa(parse_regex("(ab)+"), AB)
        verdict = decide_equal(anbn_circular(), target)
        assert not verdict.equal
        assert verdict.failing_inclusion == "conjugacy"
        assert verdict.witness == "ba"

    def test_circular_equal(self):
        target = regex_to_dfa(parse_regex("aa*"), ("a",))
        assert decide_equal(circ_a_plus(), target).equal

    def test_epsilon_operand_adds_no_words(self):
        target = regex_to_dfa(parse_regex("a*"), ("a",))
        assert decide_equal(even_a(CIRCULAR), target) == Verdict(False, 3, "a")
        assert decide_equal(even_a(CIRCULAR), regex_to_dfa(parse_regex("(aa)*"), ("a",))).equal

    def test_circular_not_equal(self):
        target = regex_to_dfa(parse_regex("a|aa"), ("a",))
        verdict = decide_equal(circ_a_plus(), target)
        assert not verdict.equal
        assert verdict.failing_inclusion == 2
        assert verdict.witness == "aaa"

    def test_two_undominated_rules(self):
        """P is the union of both rule images, closed under rotation: the
        least word of the unrotated union outside K is bbba, and its
        rotation abbb is the witness."""
        target = regex_to_dfa(parse_regex("a+|bbb"), AB)
        rules = [SplicingRule("", "a", "", ""), SplicingRule("", "", "ab", "bb")]
        assert len(_maximal(rules)) == 2
        unrotated = splice_image(dfa_without_epsilon(target), rules)
        assert difference_witness(unrotated, target) == "bbba"
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["a"]),
            rules=frozenset(rules),
            mode=CIRCULAR,
        )
        assert decide_equal(system, target) == Verdict(False, 2, "abbb")

    def test_inclusion_2_builds_no_image(self, monkeypatch):
        """Circular (2) searches the walks against K, as flat (2) does, and
        rotates only the words outside K of the walks whose least such
        word is shortest: P is not folded."""

        def union(self, maximal):
            raise AssertionError("P was folded")

        monkeypatch.setattr(_RuleImages, "union", union)
        dyck_circular = parse_system(
            "alphabet a b\ninitial finite ab\nmode circular\nsplice -#-$-#-\n"
        )
        K = conjugacy_closure(regex_to_dfa(parse_regex("ab((a|b)*a(a|b)(a|b))*"), AB))
        assert K.n_states == 82
        assert decide_equal(dyck_circular, K) == Verdict(False, 2, "aabb")
        # the least word outside K is bba, and its rotation abb is the
        # circular witness
        target = regex_to_dfa(parse_regex("a*ba*"), AB)
        for mode, witness in ((CIRCULAR, "abb"), (FLAT, "bba")):
            system = parse_system(
                f"alphabet a b\ninitial finite aab\nmode {mode}\nsplice b#-$-#a\n"
            )
            assert decide_equal(system, target) == Verdict(False, 2, witness)

    def test_unclosed_image_rotated_lazily(self, monkeypatch):
        """When P is not closed under rotation, (3) walks its rotation
        closure only as far as the witness: no automaton of it is built.
        Building one walked 78k nodes and took about 20 s."""
        rotated = []
        walk = splicelab.decider._conjugacy_walk

        def conjugacy_walk(d):
            rotated.append(walk(d))
            return rotated[-1]

        monkeypatch.setattr(splicelab.decider, "_conjugacy_walk", conjugacy_walk)
        for name in ("_reach", "_explore"):
            build = getattr(splicelab.decider, name)

            def checked(alphabet, start, step, final, build=build):
                assert all(start is not w[0] for w in rotated), "a rotation closure was built"
                return build(alphabet, start, step, final)

            monkeypatch.setattr(splicelab.decider, name, checked)
        system = parse_system(
            "alphabet a b c\nmode circular\ninitial finite bc ca\nsplice b#cb$ca#ab\n"
        )
        K = conjugacy_closure(regex_to_dfa(parse_regex("(bc|ca|b)+"), ("a", "b", "c")))
        assert K.n_states == 15
        assert decide_equal(system, K) == Verdict(False, 3, "b")
        assert len(rotated) == 1

    def test_concat_rules_unsupported(self):
        # a circular system with a concat rule is refused when it is built
        with pytest.raises(UnsupportedError):
            SplicingSystem(
                alphabet=Alphabet("a"),
                initial=InitialSet.finite(["a"]),
                rules=frozenset([SplicingRule("", "a", "a", "", usage=CONCAT)]),
                mode=CIRCULAR,
            )


class TestSpliceImage:
    def test_against_brute_force(self):
        rng = random.Random(61)
        for _ in range(40):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            letters = system.alphabet.letters
            words = [w for w in system.initial.enumerate(4) if w]
            K = dfa_from_words(letters, words)
            image = splice_image(K, system.rules)
            probe_len = 2 * max((len(w) for w in words), default=1)
            got = set(enumerate_dfa(image, probe_len))
            want = set()
            for u in words + [""] if K.accepts("") else words:
                for v in words:
                    for rule in system.rules:
                        want |= naive_apply(rule, u, v)
            assert got == want

    def test_image_is_normalized(self):
        """P is returned normalized however many walks are folded into it:
        none (the empty language), one (minimized, with no product after
        it) or more."""
        rng = random.Random(73)
        folded = {0: 0, 1: 0, "more": 0}
        for _ in range(300):
            K, rules, _ = self.random_target_and_rules(rng)
            image = splice_image(K, rules)
            assert _normalize(image.alphabet, image.transitions, image.start, image.finals) == image
            images = _RuleImages(K)
            walks = sum(len(images.image(rule)) for rule in _maximal(rules))
            folded[walks if walks < 2 else "more"] += 1
        assert min(folded.values()) >= 30, folded

    @staticmethod
    def random_target_and_rules(rng):
        letters = "abc"[: rng.randint(1, 3)]
        K = regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))
        rules = [
            random_rule(rng, letters, rng.choice((SPLICE, CONCAT)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        ]
        bound = 6 if len(letters) < 3 else 5
        return K, rules, bound

    @staticmethod
    def naive_image(K, rules, bound):
        """One-step results of every ordered pair of K-words (the empty word
        included when K has it) that fit under ``bound``."""
        words = enumerate_dfa(K, bound)
        out = set()
        for u in words:
            for v in words:
                if len(u) + len(v) <= bound:
                    for rule in rules:
                        out |= naive_apply(rule, u, v)
        return out

    def test_infinite_target_flat(self):
        rng = random.Random(63)
        infinite = 0
        for _ in range(60):
            K, rules, bound = self.random_target_and_rules(rng)
            infinite += not dfa_is_finite(K)
            want = self.naive_image(K, rules, bound)
            got = enumerate_dfa(splice_image(K, rules), bound)
            assert got == sorted(want, key=lambda w: (len(w), w)), (K, rules)
        assert infinite >= 20

    def test_infinite_target_rotate(self):
        rng = random.Random(64)
        for _ in range(40):
            K, rules, bound = self.random_target_and_rules(rng)
            want = set()
            for w in self.naive_image(K, rules, bound):
                want |= conjugates(w)
            got = set(enumerate_dfa(conjugacy_closure(splice_image(K, rules)), bound))
            assert got == want, (K, rules)

    # per usage and handle, whether a letter added at the front (True) or
    # at the back (False) lands on the handle's outer side, which makes
    # the lengthened rule match less
    OUTER_FRONT = {
        SPLICE: (True, False, False, True),
        CONCAT: (False, True, False, True),
    }

    def test_dominated_rules(self):
        """Rule sets holding rules with one handle lengthened by a letter:
        on the outer side the longer rule is dominated and may be left
        out of P, on the inner side it may not."""
        rng = random.Random(66)
        seen = {True: 0, False: 0}
        for _ in range(150):
            K, rules, bound = self.random_target_and_rules(rng)
            letters = "".join(K.alphabet)
            for rule in list(rules):
                for _ in range(rng.randint(1, 3)):
                    handles = list(rule.handles)
                    # an empty handle has no sides to tell apart
                    i = rng.choice([j for j in range(4) if handles[j]] or range(4))
                    front = rng.random() < 0.5
                    letter = rng.choice(letters)
                    handles[i] = letter + handles[i] if front else handles[i] + letter
                    rules.append(SplicingRule(*handles, usage=rule.usage))
                    seen[front == self.OUTER_FRONT[rule.usage][i]] += 1
            want = self.naive_image(K, rules, bound)
            got = enumerate_dfa(splice_image(K, rules), bound)
            assert got == sorted(want, key=lambda w: (len(w), w)), (K, rules)
            rotated = set()
            for w in want:
                rotated |= conjugates(w)
            assert set(enumerate_dfa(conjugacy_closure(splice_image(K, rules)), bound)) == rotated
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize(
        "regex, short, long",
        [
            ("(ab|b)+", SplicingRule("a", "", "a", ""), SplicingRule("ab", "", "a", "")),
            ("(a|bb)+", SplicingRule("", "b", "", "b"), SplicingRule("", "b", "", "ba")),
            (
                "a*b",
                SplicingRule("", "a", "", "", usage=CONCAT),
                SplicingRule("", "ab", "", "", usage=CONCAT),
            ),
            ("(a|bb)+", SplicingRule("", "", "b", ""), SplicingRule("", "", "", "", usage=CONCAT)),
        ],
        ids=["splice-alpha", "splice-delta", "concat-beta", "across-usages"],
    )
    def test_undominated_rule_adds_words(self, regex, short, long):
        """A handle lengthened on its inner side (splice alpha, splice
        delta, concat beta), and a rule whose handles generalize one of
        the other usage: neither is dominated, and each adds words."""
        K = regex_to_dfa(parse_regex(regex), AB)
        want = self.naive_image(K, [short, long], 6)
        assert want > self.naive_image(K, [short], 6)
        got = enumerate_dfa(splice_image(K, [short, long]), 6)
        assert got == sorted(want, key=lambda w: (len(w), w))

    def test_rotation_once_matches_per_rule_closures(self):
        """Closing the union of the images under rotation once gives the
        same normalized DFA as the union of the per-rule closures."""
        rng = random.Random(68)
        checked = nonempty = 0
        for _ in range(400):
            letters = "abc"[: rng.randint(1, 3)]
            K = regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))
            core = dfa_without_epsilon(K)
            rules = [
                random_rule(rng, letters, SPLICE, rng.randint(1, 2))
                for _ in range(rng.randint(2, 3))
            ]
            if len(_maximal(rules)) < 2:
                continue
            per_rule = dfa_none(letters)
            for rule in rules:
                per_rule = dfa_union(per_rule, conjugacy_closure(splice_image(core, [rule])))
            assert conjugacy_closure(splice_image(core, rules)) == per_rule, (K, rules)
            checked += 1
            nonempty += not dfa_empty(per_rule)
        assert checked >= 100 and nonempty >= 50, (checked, nonempty)

    def test_rotate_closes_under_conjugacy(self):
        K = dfa_from_words(AB, ["ab"])
        rule = SplicingRule("a", "b", "a", "b")
        image = conjugacy_closure(splice_image(K, [rule]))
        got = set(enumerate_dfa(image, 4))
        assert got == conjugates("aabb")

    def test_residue_matches_difference_with_image(self):
        """Subtracting the undominated rules' walks from K⁺ one at a time
        gives the normalized K⁺ − P, byte for byte, whatever the number of
        walks.  Half the targets are closed under concatenation, so that
        the images often land inside them."""
        rng = random.Random(75)
        walks = {0: 0, 1: 0, "more": 0}
        shrunk = 0
        for _ in range(300):
            letters = "ab"[: rng.randint(1, 2)]
            regex = random_regex(rng, letters)
            if rng.random() < 0.5:
                regex = f"({regex})+"
            core = dfa_without_epsilon(regex_to_dfa(parse_regex(regex), tuple(letters)))
            rules = [
                random_rule(rng, letters, rng.choice((SPLICE, CONCAT)))
                for _ in range(rng.randint(1, 3))
            ]
            images = _RuleImages(core)
            residue = images.residue(_maximal(rules))
            assert residue == dfa_difference(core, splice_image(core, rules)), (regex, rules)
            parts = sum(len(images.image(rule)) for rule in _maximal(rules))
            walks[parts if parts < 2 else "more"] += 1
            shrunk += residue != core
        assert min(walks.values()) >= 30 and shrunk >= 100, (walks, shrunk)


class TestGenerability:
    def test_a_plus(self):
        target = regex_to_dfa(parse_regex("aa*"), ("a",))
        system = alphabetic_generability(target)
        assert system is not None
        assert decide_equal(system, target).equal
        assert system.initial.words == frozenset({"a"})

    def test_even_length_a_blocks(self):
        target = regex_to_dfa(parse_regex("aa(aa)*"), ("a",))
        system = alphabetic_generability(target)
        assert system is not None
        assert decide_equal(system, target).equal

    def test_epsilon_carried_through(self):
        target = regex_to_dfa(parse_regex("(aa)*"), ("a",))
        system = alphabetic_generability(target)
        assert system is not None
        assert system.initial.had_epsilon
        assert decide_equal(system, target).equal

    def test_unreachable_states_ignored(self):
        """A hand-built DFA for a+ whose unreachable state 2 leads to an
        unreachable final: a cut there must not reject an admissible rule,
        so the answer is the one for the normalized a+."""
        K = Dfa(("a",), ((1,), (1,), (4,), (3,), (3,)), 0, frozenset({1, 4}))
        system = alphabetic_generability(K)
        assert system == alphabetic_generability(regex_to_dfa(parse_regex("a+"), ("a",)))
        assert len(system.rules) == 16
        assert system.initial.words == frozenset({"a"})

    def test_a_star_b_has_no_system(self):
        target = regex_to_dfa(parse_regex("a*b"), AB)
        assert alphabetic_generability(target) is None

    def test_admissible_rules_keep_image_inside(self):
        """The admissibility walk agrees with the determinized image."""
        rng = random.Random(65)
        found = 0
        for _ in range(30):
            K = regex_to_dfa(parse_regex(random_regex(rng, "ab")), AB)
            system = alphabetic_generability(K)
            if system is None:
                continue
            found += 1
            core = dfa_difference(K, dfa_from_words(AB, [""]))
            want = {
                r
                for r in all_alphabetic_rules(Alphabet("ab"))
                if dfa_subset(splice_image(core, [r]), core)
            }
            assert system.rules == want
            assert decide_equal(system, K).equal
        assert found >= 5

    def test_keeps_inside_matches_image(self):
        """The K-state inclusion test agrees with the determinized image on
        rules with longer handles too, empty middle languages included;
        one ``_RuleImages`` per K serves all its rules, as in generability."""
        # inserting before the a of bba leaves K, before any other a not
        core = regex_to_dfa(parse_regex("(a|bba)+"), AB)
        assert not _RuleImages(core).keeps_inside(SplicingRule("", "a", "", ""))
        rng = random.Random(67)
        outcomes = {True: 0, False: 0}
        empty_middle = 0
        for _ in range(100):
            letters = "abc"[: rng.randint(1, 3)]
            K = regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))
            core = dfa_without_epsilon(K)
            images = _RuleImages(core)
            for _ in range(4):
                rule = random_rule(rng, letters, SPLICE, rng.randint(1, 2))
                want = dfa_subset(splice_image(core, [rule]), core)
                assert images.keeps_inside(rule) == want, (K, rule)
                outcomes[want] += 1
                middle = dfa_intersect(core, pattern_dfa(letters, rule.gamma, rule.delta))
                empty_middle += dfa_empty(middle)
        assert min(outcomes.values()) >= 30, outcomes
        assert empty_middle >= 20, empty_middle

    def test_reached_against_triple_walk(self):
        """The K states the middle words lead a state to, walked over
        (K state, fitting state) pairs, are those of the walk over (K
        state, K state, pattern state) triples, for every live state and
        every pair of handles of up to 2 letters."""
        rng = random.Random(77)
        sizes = {"none": 0, "some": 0}
        for _ in range(200):
            letters = "ab"[: rng.randint(1, 2)]
            K = regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))
            images = _RuleImages(K)
            handles = ["".join(h) for n in range(3) for h in itertools.product(letters, repeat=n)]
            for state in images.live:
                for gamma, delta in itertools.product(handles, repeat=2):
                    got = images.reached(state, gamma, delta)
                    assert got == naive_reached(K, state, gamma, delta), (K, state, gamma, delta)
                    sizes["some" if got else "none"] += 1
        assert min(sizes.values()) >= 1000, sizes

    def test_includes_against_difference_witness(self):
        """State-language inclusion, walked over state pairs, agrees with
        the difference witness of K started at the two states, on raw DFAs
        with dead and unreachable states, for half the pairs of a live t
        and any k, in random order; every pair the walks memoize, asked
        for or not, holds as recorded."""
        rng = random.Random(83)
        outcomes = {True: 0, False: 0}
        unasked = not_live = 0
        for _ in range(150):
            letters = tuple("abc"[: rng.randint(1, 3)])
            n = rng.randint(1, 7)
            T = tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n))
            density = rng.random()
            F = frozenset(s for s in range(n) if rng.random() < density)
            images = _RuleImages(Dfa(letters, T, rng.randrange(n), F))

            def includes(t, k):
                return difference_witness(Dfa(letters, T, t, F), Dfa(letters, T, k, F)) is None

            pairs = [(t, k) for t in images.live for k in range(n)]
            rng.shuffle(pairs)
            del pairs[len(pairs) // 2 + 1 :]
            for t, k in pairs:
                want = includes(t, k)
                assert images.includes(t, k) == want, (T, F, t, k)
                outcomes[want] += 1
            for (t, k), held in images._includes.items():
                assert held == includes(t, k), (T, F, t, k)
            unasked += len(images._includes.keys() - pairs)
            not_live += len(images.live) < n
        assert min(outcomes.values()) >= 300, outcomes
        assert unasked >= 100, unasked
        assert not_live >= 50, not_live

    def test_admissible_rules_by_domination(self):
        """Testing only the rules with no admissible variant that has one
        handle emptied gives every admissible rule and, as the tested ones
        found admissible, exactly the undominated ones."""
        rng = random.Random(69)
        dominated = 0
        for _ in range(40):
            letters = "abc"[: rng.randint(1, 3)]
            K = regex_to_dfa(parse_regex(random_regex(rng, letters)), tuple(letters))
            images = _RuleImages(dfa_without_epsilon(K))
            alphabet = Alphabet(letters)
            admissible, maximal = _admissible(images, alphabet)
            want = {r for r in all_alphabetic_rules(alphabet) if images.keeps_inside(r)}
            assert admissible == want, K
            assert sorted(maximal) == _maximal(want), K
            dominated += len(want) > len(maximal) > 0
        assert dominated >= 10, dominated

    def test_repr_independent_of_hash_seed(self):
        """An answer's repr lists its axioms and rules sorted, not in the
        hash order of their frozensets."""
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = (
            "from splicelab.automata import parse_regex, regex_to_dfa\n"
            "from splicelab.decider import alphabetic_generability\n"
            "K = regex_to_dfa(parse_regex('(b|ab*ab*a)+'), ('a', 'b'))\n"
            "print(repr(alphabetic_generability(K)))"
        )
        texts = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                text=True,
                timeout=60,
            ).stdout
            for seed in ("0", "1")
        }
        system = alphabetic_generability(regex_to_dfa(parse_regex("(b|ab*ab*a)+"), AB))
        assert texts == {repr(system) + "\n"}
        assert "words=frozenset({'b', 'aaa'})" in repr(system)

    def test_rule_census(self):
        assert len(all_alphabetic_rules(Alphabet("a"))) == 16
        assert len(all_alphabetic_rules(Alphabet("ab"))) == 81


class TestMaximalRules:
    """A completed rule set is mostly extensions of its shortest rules,
    whose images add nothing to P."""

    @staticmethod
    def target(width):
        regex = "ab((a|b)*a" + "(a|b)" * width + ")*"
        return regex_to_dfa(parse_regex(regex), AB)

    def test_completed_dyck_builds_one_image(self, monkeypatch):
        calls = []
        image = _RuleImages.image
        monkeypatch.setattr(
            _RuleImages, "image", lambda self, rule: calls.append(rule) or image(self, rule)
        )
        system = complete_system(dyck())
        K = self.target(2)
        assert len(system.rules) == 81 and K.n_states == 11
        assert decide_equal(system, K) == Verdict(False, 2, "aabb")
        assert calls == [SplicingRule("", "", "", "")]

    def test_completed_dyck_19_states(self):
        K = self.target(3)
        assert K.n_states == 19
        assert decide_equal(complete_system(dyck()), K) == Verdict(False, 2, "aabb")

    @pytest.mark.parametrize("width, n_states", [(3, 19), (4, 35)])
    def test_completed_dyck_wide_targets_build_no_image(self, width, n_states, monkeypatch):
        """Inclusion (2) searches the rule's walks against K: no automaton
        for P is explored, and folding the 1453-state P was what made the
        35-state target slow."""
        monkeypatch.setattr(splicelab.decider, "_explore", None)
        K = self.target(width)
        assert K.n_states == n_states
        assert decide_equal(complete_system(dyck()), K) == Verdict(False, 2, "aabb")

    @staticmethod
    def counting(n, mode):
        """Words whose number of a's is a multiple of n, and a system with
        the rule -#-$-#- and axioms b and a^n that generates them."""
        K = regex_to_dfa(parse_regex("(b|a" + "b*a" * (n - 1) + ")+"), AB)
        system = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["b", "a" * n]),
            rules=frozenset([SplicingRule("", "", "", "")]),
            mode=mode,
        )
        return system, K

    @pytest.mark.parametrize("mode", [FLAT, CIRCULAR])
    def test_counting_target_folds_walks_one_at_a_time(self, mode, monkeypatch):
        """The rule -#-$-#- has a walk per resume state, and one product of
        all n walks would hold one of 2^n sets of visited resume states.
        Folded into P one walk at a time, each product is minimized before
        the next."""
        n = 12
        system, K = self.counting(n, mode)
        explored = []
        for walker in ("_explore", "_reach", "_least_word"):
            walk = getattr(splicelab.decider, walker)
            monkeypatch.setattr(
                splicelab.decider,
                walker,
                lambda alphabet, start, step, last, walk=walk: walk(
                    alphabet, start, lambda node: explored.append(node) or step(node), last
                ),
            )
        assert decide_equal(system, K).equal
        assert len(explored) < 8 * n * n
        explored.clear()
        generated = alphabetic_generability(K)
        assert generated.initial.words == frozenset(["b", "a" * n])
        assert len(explored) < 8 * n * n

    @pytest.mark.parametrize("mode", [FLAT, CIRCULAR])
    def test_counting_target_builds_no_image(self, mode, monkeypatch):
        """Inclusion (3) and generability read only the residue K⁺ − P,
        which the walks are subtracted from one at a time: P is not
        folded."""

        def union(self, maximal):
            raise AssertionError("P was folded")

        monkeypatch.setattr(_RuleImages, "union", union)
        n = 12
        system, K = self.counting(n, mode)
        assert decide_equal(system, K).equal
        assert alphabetic_generability(K).initial.words == frozenset(["b", "a" * n])

    def test_circular_counting_rotates_neither_target_nor_image(self, monkeypatch):
        """K and P are both closed under rotation, which a pair walk shows,
        so neither rotation closure is walked: building them was nearly all
        of a circular decision's time."""
        rotated = []
        walk = splicelab.decider._conjugacy_walk
        monkeypatch.setattr(
            splicelab.decider, "_conjugacy_walk", lambda d: rotated.append(d) or walk(d)
        )
        system, K = self.counting(12, CIRCULAR)
        assert decide_equal(system, K).equal
        assert rotated == []
        # a target that is not closed is rotated once, for its witness
        system, _ = self.counting(2, CIRCULAR)
        not_closed = regex_to_dfa(parse_regex("(b|ab*a)*ab"), AB)
        assert decide_equal(system, not_closed) == Verdict(False, "conjugacy", "ba")
        assert rotated == [not_closed]

    def test_maximal_against_naive(self):
        """Random rule sets of both usages, with rules lengthened by a
        letter on either side of a handle: ``_maximal`` keeps the rules
        and the order that the lookup over shortenings keeps."""
        rng = random.Random(27)
        dropped = {SPLICE: 0, CONCAT: 0}
        for _ in range(2000):
            rules = []
            for _ in range(rng.randint(1, 5)):
                rule = random_rule(rng, "ab", rng.choice((SPLICE, CONCAT)), rng.randint(1, 2))
                rules.append(rule)
                for _ in range(rng.randint(0, 2)):
                    handles = list(rule.handles)
                    i, letter = rng.randrange(4), rng.choice("ab")
                    handles[i] = letter + handles[i] if rng.random() < 0.5 else handles[i] + letter
                    rules.append(SplicingRule(*handles, usage=rule.usage))
            want = naive_maximal(rules)
            assert _maximal(rules) == want, rules
            for usage in dropped:
                dropped[usage] += len({r for r in rules if r.usage == usage}) > sum(
                    r.usage == usage for r in want
                )
        assert min(dropped.values()) >= 500, dropped

    def test_long_word_generability(self):
        word = "a" * 200
        system = alphabetic_generability(regex_to_dfa(parse_regex(word), ("a",)))
        assert system is not None
        assert system.initial.words == frozenset({word})
        assert system.rules == frozenset()


class TestDifferential:
    def test_verdicts_match_bounded_comparison(self):
        rng = random.Random(62)
        agree = 0
        for _ in range(60):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            letters = system.alphabet.letters
            regex = random_regex(rng, "".join(letters))
            K = regex_to_dfa(parse_regex(regex), letters)
            verdict = decide_equal(system, K)
            closure = set(closure_bounded(system, 8))
            if system.initial.had_epsilon:
                closure.add("")
            target_words = set(enumerate_dfa(K, 8))
            if K.accepts(""):
                target_words.add("")
            if verdict.equal:
                assert closure == target_words, (system, regex)
                agree += 1
            else:
                self.check_witness(system, K, verdict)
        assert agree >= 2

    def test_epsilon_on_both_sides(self):
        # ε-bearing regex initial sets, targets accepting ε, rules with
        # empty handles: splicing in the empty word returns the other
        # operand, so it must not count towards the image
        rng = random.Random(19)
        agree = 0
        for _ in range(80):
            letters = "ab"[: rng.randint(1, 2)]
            axioms = random_regex(rng, letters)
            regex = rng.choice([axioms, f"{axioms}|{random_regex(rng, letters)}"])
            system = SplicingSystem(
                alphabet=Alphabet(letters),
                initial=InitialSet.regular(
                    regex_to_dfa(parse_regex(f"({axioms})?"), tuple(letters))
                ),
                rules=frozenset(
                    random_rule(rng, letters, rng.choice((SPLICE, CONCAT)))
                    for _ in range(rng.randint(1, 2))
                ),
                mode=FLAT,
            )
            K = regex_to_dfa(parse_regex(f"({regex})?"), tuple(letters))
            verdict = decide_equal(system, K)
            if verdict.equal:
                closure = set(closure_bounded(system, 7)) | {""}
                assert closure == set(enumerate_dfa(K, 7)) | {""}, (system, regex)
                agree += 1
            else:
                self.check_witness(system, K, verdict)
        assert agree >= 10

    def check_witness(self, system, K, verdict):
        w = verdict.witness
        assert w is not None

        def nonempty(u):
            # splice operands are words of the language other than ε
            return u != "" and K.accepts(u)

        if verdict.failing_inclusion == 1:
            assert (w == "" and system.initial.had_epsilon) or system.initial.contains(w)
            assert not K.accepts(w)
        elif verdict.failing_inclusion == 2:
            assert in_one_step_image(nonempty, sorted(system.rules), w)
            assert not K.accepts(w)
        else:
            assert verdict.failing_inclusion == 3
            assert K.accepts(w)
            if w == "":
                assert not system.initial.had_epsilon
            else:
                assert not system.initial.contains(w)
                assert not in_one_step_image(nonempty, sorted(system.rules), w)


class TestCircularDifferential:
    """Circular systems against ground truth.  The axioms, finite or
    regular, are mostly not closed under rotation, and most targets are
    the rotations of the axioms, with or without more words.  Every EQUAL
    is checked against the linearized bounded closure, and every witness
    against the brute-force one-step image of rotations."""

    MAX_LEN = 7

    def test_verdicts_against_linearized_closure(self):
        rng = random.Random(83)
        seen = dict.fromkeys([1, 2, 3, None], 0)
        for _ in range(150):
            system = random_system(rng, mode=CIRCULAR, max_initial=3)
            letters = system.alphabet.letters
            axioms = "|".join(sorted(system.initial.words))
            if rng.random() < 0.3:
                axioms = random_regex(rng, "".join(letters))
                initial = InitialSet.regular(regex_to_dfa(parse_regex(axioms), letters))
                system = SplicingSystem(system.alphabet, initial, system.rules, CIRCULAR)
            regex = axioms
            if rng.random() < 0.3:
                regex = f"{axioms}|{random_regex(rng, ''.join(letters))}"
            K = conjugacy_closure(regex_to_dfa(parse_regex(regex), letters))
            verdict = decide_equal(system, K)
            seen[verdict.failing_inclusion] += 1
            if verdict.equal:
                language = self.linearized_closure(system, self.MAX_LEN)
                assert language == set(enumerate_dfa(K, self.MAX_LEN)), (system, regex)
            else:
                self.check_witness(system, K, verdict)
        assert seen[None] >= 40 and seen[3] >= 20, seen

    @staticmethod
    def linearized_closure(system, max_len):
        """The words of length at most ``max_len`` that some rotation of a
        generated circular word spells, with ε when it is an axiom."""
        words = {lin for w in closure_bounded(system, max_len) for lin in w.linearize()}
        return words | {""} if system.initial.had_epsilon else words

    def check_witness(self, system, K, verdict):
        w = verdict.witness
        rules = sorted(system.rules)

        def operand(u):
            # splice operands are words of the language other than ε
            return u != "" and K.accepts(u)

        def in_image(u):
            return any(in_one_step_image(operand, rules, r) for r in rotations(u))

        assert verdict.failing_inclusion != "conjugacy"  # every target is rotation-closed
        if verdict.failing_inclusion == 1:
            assert (w == "" and system.initial.had_epsilon) or system.initial.contains(w)
            assert not K.accepts(w)
        elif verdict.failing_inclusion == 2:
            assert not K.accepts(w) and in_image(w), (system, verdict)
        else:
            assert verdict.failing_inclusion == 3
            assert K.accepts(w), (system, verdict)
            if w == "":
                assert not system.initial.had_epsilon
                return
            assert not system.initial_contains(w), (system, verdict)
            assert not in_image(w), (system, verdict)
            # (1) and (2) held, so the language lies inside K and w, which
            # no splice of K-words makes, is missing from it
            assert w not in self.linearized_closure(system, len(w)), (system, verdict)


class TestImageWalkDifferential:
    """``decide_equal`` searches the rule image walks against K, and folds
    them into P only where it needs P whole.  On seeded random systems,
    flat and circular, with one- and two-letter handles and targets that
    mostly hold the axioms, every witness is checked against the
    brute-force one-step image and shown least by enumerating the smaller
    words."""

    # sha256 of the (equal, inclusion, witness) tuples, the same under
    # every hash seed; in circular mode (3) accepts a rotation of an axiom
    DIGEST = "ab26f8a454c628b45a05f9c2e08dd38c75be049d00b46fb73333037ef9bb6e48"

    @staticmethod
    def cases():
        rng = random.Random(71)
        for i in range(320):
            mode = CIRCULAR if i % 2 else FLAT
            system = random_system(
                rng,
                usages=(SPLICE,) if mode == CIRCULAR else (SPLICE, CONCAT),
                mode=mode,
                max_rules=3,
                handle_len=rng.randint(1, 2),
            )
            letters = system.alphabet.letters
            axioms = "|".join(sorted(system.initial.words))
            if rng.random() < 0.25:
                axioms = random_regex(rng, "".join(letters))
                initial = InitialSet.regular(regex_to_dfa(parse_regex(axioms), letters))
                system = SplicingSystem(system.alphabet, initial, system.rules, mode)
            regex = random_regex(rng, "".join(letters))
            if rng.random() < 0.2:
                regex = "(" + "|".join(letters) + ")+"
            if rng.random() < 0.8:
                # the target holds the axioms, so (1) passes
                regex = f"{regex}|{axioms}"
            K = regex_to_dfa(parse_regex(regex), letters)
            if mode == CIRCULAR:
                K = conjugacy_closure(K)
            if K.accepts("") and rng.random() < 0.8:
                K = dfa_without_epsilon(K)
            yield system, K

    @staticmethod
    def words(letters, n):
        """Every word of length at most n, in length-lex order."""
        for k in range(n + 1):
            yield from map("".join, itertools.product(letters, repeat=k))

    def test_witnesses_against_brute_force(self):
        digest = hashlib.sha256()
        seen = dict.fromkeys([1, 2, 3, None], 0)
        for system, K in self.cases():
            verdict = decide_equal(system, K)
            digest.update(repr((verdict.equal, verdict.failing_inclusion, verdict.witness)).encode())
            seen[verdict.failing_inclusion] += 1
            self.check(system, K, verdict)
        assert digest.hexdigest() == self.DIGEST
        assert seen[2] >= 50 and seen[3] >= 100 and seen[None] >= 30, seen

    def check(self, system, K, verdict):
        rules = sorted(system.rules)
        circular = system.mode == CIRCULAR

        def operand(u):
            # splice operands are words of the language other than ε
            return u != "" and K.accepts(u)

        def in_image(w):
            # circular P is the flat image closed under rotation
            return any(
                in_one_step_image(operand, rules, r) for r in (rotations(w) if circular else [w])
            )

        qualifies = {
            2: lambda w: not K.accepts(w) and in_image(w),
            3: lambda w: operand(w) and not system.initial_contains(w) and not in_image(w),
        }
        w, inclusion = verdict.witness, verdict.failing_inclusion
        assert inclusion != "conjugacy"  # every target is rotation-closed
        if inclusion == 1 or w == "":
            return  # settled before P is walked, as in TestDifferential

        # the same answer from P built as a normalized DFA
        core = dfa_without_epsilon(K)
        P = splice_image(core, system.rules)
        if circular:
            P = conjugacy_closure(P)
        if system.initial.kind == "finite":
            axioms = dfa_from_words(K.alphabet, system.initial.words)
        else:
            axioms = system.initial.dfa
        if circular:
            axioms = conjugacy_closure(axioms)
        w2 = difference_witness(P, K)
        w3 = difference_witness(dfa_difference(core, P), axioms) if w2 is None else None
        assert (w2, w3) == ((w, None) if inclusion == 2 else (None, w)), (system, K, verdict)

        letters = K.alphabet
        if inclusion is None:
            bad = [u for u in self.words(letters, 4) if qualifies[2](u) or qualifies[3](u)]
            assert not bad, (system, K, bad)
            return
        assert qualifies[inclusion](w), (system, K, verdict)
        smaller = [
            u
            for u in self.words(letters, len(w))
            if (len(u), u) < (len(w), w) and qualifies[inclusion](u)
        ]
        assert not smaller, (system, K, verdict, smaller)
