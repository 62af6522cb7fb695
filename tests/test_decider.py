"""Equality of splicing languages with regular languages, one-step splice
images, and the search for generating systems."""

import random

import pytest

from splicelab.automata import (
    dfa_from_words,
    dfa_shortest,
    enumerate_dfa,
    parse_regex,
    regex_to_dfa,
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
from splicelab.decider import (
    Verdict,
    all_alphabetic_rules,
    alphabetic_generability,
    decide_equal,
    splice_image,
)
from splicelab.examples import anbn, anbn_circular, concat_chain
from splicelab.grammar import finite_cfg

from helpers import in_one_step_image, random_regex, random_system

AB = ("a", "b")


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

    def test_circular_not_equal(self):
        target = regex_to_dfa(parse_regex("a|aa"), ("a",))
        verdict = decide_equal(circ_a_plus(), target)
        assert not verdict.equal
        assert verdict.failing_inclusion == 2
        assert verdict.witness == "aaa"

    def test_concat_rules_unsupported(self):
        system = SplicingSystem(
            alphabet=Alphabet("a"),
            initial=InitialSet.finite(["a"]),
            rules=frozenset([SplicingRule("", "a", "a", "", usage=CONCAT)]),
            mode=CIRCULAR,
        )
        with pytest.raises(UnsupportedError):
            decide_equal(system, regex_to_dfa(parse_regex("aa*"), ("a",)))


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
                        from helpers import naive_apply

                        want |= naive_apply(rule, u, v)
            assert got == want

    def test_rotate_closes_under_conjugacy(self):
        K = dfa_from_words(AB, ["ab"])
        rule = SplicingRule("a", "b", "a", "b")
        image = splice_image(K, [rule], rotate=True)
        got = set(enumerate_dfa(image, 4))
        assert got == conjugates("aabb")


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

    def test_a_star_b_has_no_system(self):
        target = regex_to_dfa(parse_regex("a*b"), AB)
        assert alphabetic_generability(target) is None

    def test_rule_census(self):
        assert len(all_alphabetic_rules(Alphabet("a"))) == 16
        assert len(all_alphabetic_rules(Alphabet("ab"))) == 81


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

    def check_witness(self, system, K, verdict):
        w = verdict.witness
        assert w is not None
        if verdict.failing_inclusion == 1:
            assert (w == "" and system.initial.had_epsilon) or system.initial.contains(w)
            assert not K.accepts(w)
        elif verdict.failing_inclusion == 2:
            assert in_one_step_image(K.accepts, sorted(system.rules), w)
            assert not K.accepts(w)
        else:
            assert verdict.failing_inclusion == 3
            assert K.accepts(w)
            if w == "":
                assert not system.initial.had_epsilon
            else:
                assert not system.initial.contains(w)
                assert not in_one_step_image(K.accepts, sorted(system.rules), w)


class TestLanguageWitness:
    def test_shortest_word(self):
        assert dfa_shortest(regex_to_dfa(parse_regex("a*b"), AB)) == "b"
        assert dfa_shortest(regex_to_dfa(parse_regex("a(a)*"), AB)) == "a"
