"""System rewrites: completion, insertion/concatenation splitting,
flattening circular systems, and sequence normalization."""

import random

import pytest

from splicelab.closure import closure_bounded, derivation, witness
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialRef,
    InitialSet,
    Production,
    ProductionSequence,
    SplicingRule,
    SplicingSystem,
    StepRef,
    UnsupportedError,
    replay_sequence,
)
from splicelab.examples import anbn, anbn_circular, mixed_system
from splicelab.transform import (
    circular_rule_expansion,
    circular_to_flat,
    complete,
    complete_system,
    is_complete,
    normalize_sequence,
    to_heterogeneous,
)

from helpers import naive_heterogeneous_rules, random_rule, random_system

ABC = Alphabet("abc")


class TestCompletion:
    def test_two_empty_handles_over_three_letters(self):
        rule = SplicingRule("", "b", "", "a")
        out = complete([rule], ABC)
        assert len(out) == 16
        assert rule in out
        assert SplicingRule("c", "b", "a", "a") in out

    def test_no_empty_handles_fixed_point(self):
        rule = SplicingRule("a", "b", "a", "b")
        assert complete([rule], ABC) == frozenset([rule])

    def test_idempotent(self):
        rules = [SplicingRule("", "b", "", "a"), SplicingRule("a", "", "c", "")]
        once = complete(rules, ABC)
        assert complete(once, ABC) == once
        assert is_complete(once, ABC)
        assert not is_complete(rules, ABC)

    def test_usage_carried_over(self):
        rule = SplicingRule("", "c", "", "b", usage=CONCAT)
        out = complete([rule], ABC)
        assert all(r.usage == CONCAT for r in out)

    def test_non_alphabetic_rejected(self):
        with pytest.raises(ValueError):
            complete([SplicingRule("ab", "", "", "")], ABC)

    def test_is_complete_matches_completion(self):
        # one-letter fillings decide completeness without the completion;
        # a non-alphabetic rule raises the same error as the completion
        rng = random.Random(43)
        handles = ["", "a", "b", "c", "ab"]
        seen = {True: 0, False: 0, "raise": 0}
        for i in range(400):
            rules = {
                SplicingRule(*(rng.choice(handles[:4]) for _ in range(4)), usage=rng.choice((SPLICE, CONCAT)))
                for _ in range(rng.randint(0, 4))
            }
            if i % 3 == 0:
                rules = set(complete(rules, ABC))
                if rules and rng.random() < 0.5:
                    rules.discard(rng.choice(sorted(rules)))
            if i % 7 == 0:
                rules.add(SplicingRule(*(rng.choice(handles) for _ in range(3)), "ab"))
            rules = frozenset(rules)
            try:
                expected = complete(rules, ABC) == rules
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    is_complete(rules, ABC)
                assert str(err.value) == str(exc)
                seen["raise"] += 1
                continue
            assert is_complete(rules, ABC) == expected, rules
            seen[expected] += 1
        assert min(seen.values()) >= 40, seen

    def test_language_preserved(self):
        rng = random.Random(41)
        for _ in range(40):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            done = complete_system(system)
            assert set(closure_bounded(system, 6)) == set(closure_bounded(done, 6))

    def test_complete_system_keeps_frame(self):
        system = mixed_system()
        done = complete_system(system)
        assert done.alphabet == system.alphabet
        assert done.initial == system.initial
        assert done.mode == system.mode


class TestHeterogeneousSplit:
    def test_requires_completion(self):
        with pytest.raises(ValueError):
            to_heterogeneous(mixed_system())

    def test_requires_flat(self):
        with pytest.raises(ValueError):
            to_heterogeneous(complete_system(anbn_circular()))

    def test_splice_rules_become_pure(self):
        split = to_heterogeneous(complete_system(mixed_system()))
        assert all(r.is_pure for r in split.splice_rules)
        assert split.concat_rules

    def test_concat_part_is_complete(self):
        split = to_heterogeneous(complete_system(mixed_system()))
        assert is_complete(split.concat_rules, split.alphabet)

    def test_language_preserved(self):
        rng = random.Random(42)
        for _ in range(40):
            system = complete_system(random_system(rng, usages=(SPLICE, CONCAT)))
            split = to_heterogeneous(system)
            assert set(closure_bounded(system, 7)) == set(closure_bounded(split, 7))

    @pytest.mark.parametrize("mode", [FLAT, CIRCULAR])
    def test_rules_match_recompleted_split(self, mode):
        """The split's rules are the old split's, which re-completed every
        derived concatenation rule, on complete systems of 1-4 letters with
        both usages (a circular system is flattened before completion)."""
        rng = random.Random(36)
        for _ in range(150):
            letters = "abcd"[: rng.randint(1, 4)]
            usages = (SPLICE,) if mode == CIRCULAR else (SPLICE, CONCAT)
            rules = {random_rule(rng, letters, rng.choice(usages)) for _ in range(rng.randint(1, 3))}
            system = SplicingSystem(
                alphabet=Alphabet(letters),
                initial=InitialSet.finite([letters]),
                rules=frozenset(rules),
                mode=mode,
            )
            if mode == CIRCULAR:
                system = circular_to_flat(system)
            system = complete_system(system)
            split = to_heterogeneous(system)
            assert split.rules == naive_heterogeneous_rules(system), system
            assert (split.alphabet, split.initial, split.mode) == (
                system.alphabet, system.initial, FLAT
            )

    def test_pure_system_passes_through(self):
        system = complete_system(anbn())
        split = to_heterogeneous(system)
        assert set(closure_bounded(system, 8)) == set(closure_bounded(split, 8))


class TestCircularRuleExpansion:
    def test_four_rules(self):
        out = circular_rule_expansion(SplicingRule("a", "b", "c", "d"))
        assert out == frozenset(
            [
                SplicingRule("a", "b", "c", "d", usage=SPLICE),
                SplicingRule("d", "c", "b", "a", usage=SPLICE),
                SplicingRule("b", "a", "c", "d", usage=CONCAT),
                SplicingRule("c", "d", "b", "a", usage=CONCAT),
            ]
        )

    def test_symmetric_rule_collapses(self):
        out = circular_rule_expansion(SplicingRule("a", "a", "a", "a"))
        assert len(out) == 2


class TestCircularToFlat:
    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            circular_to_flat(anbn())

    def test_initial_becomes_rotation_closed(self):
        flat = circular_to_flat(anbn_circular())
        assert flat.mode == FLAT
        assert flat.initial.words == frozenset({"ab", "ba"})

    def test_language_matches_linearization(self):
        circ = anbn_circular()
        flat = circular_to_flat(circ)
        flat_words = set(closure_bounded(flat, 8))
        rotations = set()
        for w in closure_bounded(circ, 8):
            rotations |= set(w.linearize())
        assert flat_words == rotations

    def test_random_systems_match_linearization(self):
        rng = random.Random(43)
        for _ in range(30):
            circ = random_system(rng, mode=CIRCULAR)
            flat = circular_to_flat(circ)
            flat_words = set(closure_bounded(flat, 6))
            rotations = set()
            for w in closure_bounded(circ, 6):
                rotations |= set(w.linearize())
            assert flat_words == rotations

    def test_epsilon_flag_survives_finite(self):
        circ = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet(kind="finite", words=frozenset({"ab"}), had_epsilon=True),
            rules=frozenset([SplicingRule("a", "b", "a", "b")]),
            mode=CIRCULAR,
        )
        assert circular_to_flat(circ).initial.had_epsilon

    def test_epsilon_flag_survives_regular(self):
        from splicelab.automata import parse_regex, regex_to_dfa

        dfa = regex_to_dfa(parse_regex("(ab)*"), ("a", "b"))
        circ = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.regular(dfa),
            rules=frozenset([SplicingRule("a", "b", "a", "b")]),
            mode=CIRCULAR,
        )
        assert circ.initial.had_epsilon
        assert circular_to_flat(circ).initial.had_epsilon

    def test_contextfree_initial_unsupported(self):
        from splicelab.grammar import finite_cfg

        circ = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.contextfree(finite_cfg(("a", "b"), ["ab"])),
            rules=frozenset([SplicingRule("a", "b", "a", "b")]),
            mode=CIRCULAR,
        )
        with pytest.raises(UnsupportedError):
            circular_to_flat(circ)


class TestNormalizeSequence:
    INSERT = SplicingRule("a", "b", "a", "b")
    GLUE = SplicingRule("", "b", "a", "", usage=CONCAT)
    AB = InitialRef("ab")

    def heterogeneous(self, rng):
        return to_heterogeneous(
            complete_system(random_system(rng, usages=(SPLICE, CONCAT)))
        )

    def glue_insert(self):
        """ab, inserting ab between a and b and gluing w.v for w ending in
        b and v starting with a."""
        return SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["ab"]),
            rules=frozenset([self.INSERT, self.GLUE]),
            mode=FLAT,
        )

    def normalized(self, system, seq):
        """``normalize_sequence(system, seq)``, checked to put every
        concatenation first and to replay to the input's word."""
        out = normalize_sequence(system, seq)
        usages = [s.rule.usage for s in out.steps]
        assert usages == sorted(usages, key=lambda u: u == SPLICE)
        assert replay_sequence(system, out) == replay_sequence(system, seq)
        return out

    def test_concatenations_move_first(self):
        rng = random.Random(44)
        steps_in = steps_out = 0
        for _ in range(100):
            system = self.heterogeneous(rng)
            for word in closure_bounded(system, 7)[:12]:
                for seq in (witness(system, word, 7), derivation(system, word)):
                    out = self.normalized(system, seq)
                    steps_in += len(seq.steps)
                    steps_out += len(out.steps)
        # no chain of this corpus is emitted twice
        assert steps_in == steps_out > 500

    def test_interleaved_sequence_reordered(self):
        insert = SplicingRule("a", "b", "a", "b")
        extend = SplicingRule("", "c", "", "b", usage=CONCAT)
        system = SplicingSystem(
            alphabet=Alphabet("abc"),
            initial=InitialSet.finite(["ab", "c"]),
            rules=frozenset([insert, extend]),
            mode=FLAT,
        )
        # an insertion first, then a concatenation gluing c on the left
        seq = ProductionSequence(
            (
                Production(insert, InitialRef("ab"), InitialRef("ab"), 1, "aabb"),
                Production(extend, InitialRef("c"), StepRef(0), None, "caabb"),
            )
        )
        assert replay_sequence(system, seq) == "caabb"
        out = self.normalized(system, seq)
        assert [s.rule.usage for s in out.steps] == [CONCAT, SPLICE]

    def test_long_interleaved_trace(self):
        """Each round inserts ab at cut 1 and glues ab in front: every
        insertion has to pass every later concatenation."""
        system, steps, word = self.glue_insert(), [], "ab"
        for _ in range(200):
            host = StepRef(len(steps) - 1) if steps else self.AB
            word = word[:1] + "ab" + word[1:]
            steps.append(Production(self.INSERT, host, self.AB, 1, word))
            word = "ab" + word
            steps.append(Production(self.GLUE, self.AB, StepRef(len(steps) - 1), 2, word))
        out = self.normalized(system, ProductionSequence(tuple(steps)))
        assert len(out.steps) == 400

    def test_self_concatenation_of_an_inserted_word(self):
        system = self.glue_insert()
        seq = ProductionSequence(
            (
                Production(self.INSERT, self.AB, self.AB, 1, "aabb"),
                Production(self.GLUE, StepRef(0), StepRef(0), 4, "aabbaabb"),
            )
        )
        out = self.normalized(system, seq)
        # the two skeletons are glued, then each copy takes its insertion
        assert [(s.left, s.right, s.cut, s.result) for s in out.steps] == [
            (self.AB, self.AB, 2, "abab"),
            (StepRef(0), self.AB, 1, "aabbab"),
            (StepRef(1), self.AB, 5, "aabbaabb"),
        ]

    def test_inserted_word_carries_insertions(self):
        system = self.glue_insert()
        seq = ProductionSequence(
            (
                Production(self.INSERT, self.AB, self.AB, 1, "aabb"),
                Production(self.GLUE, self.AB, self.AB, 2, "abab"),
                Production(self.INSERT, StepRef(1), StepRef(0), 3, "abaaabbb"),
                Production(self.GLUE, self.AB, StepRef(2), 2, "ababaaabbb"),
            )
        )
        out = self.normalized(system, seq)
        # aabb is built before it goes in, at cut 3 moved on by the ab glued in front
        assert [(s.left, s.right, s.cut, s.result) for s in out.steps] == [
            (self.AB, self.AB, 2, "abab"),
            (self.AB, StepRef(0), 2, "ababab"),
            (self.AB, self.AB, 1, "aabb"),
            (StepRef(1), StepRef(2), 5, "ababaaabbb"),
        ]

    def test_bare_axiom(self):
        seq = ProductionSequence((), seed="ab")
        assert normalize_sequence(self.glue_insert(), seq) == seq

    def test_rejects_circular(self):
        system = anbn_circular()
        seq = witness(system, "aabb", 6)
        with pytest.raises(UnsupportedError):
            normalize_sequence(system, seq)

    def test_rejects_impure_insertions(self):
        system = mixed_system()
        word = "cab"
        seq = witness(system, word, 4)
        if any(s.rule.usage == SPLICE and not s.rule.is_pure for s in seq.steps):
            with pytest.raises(ValueError):
                normalize_sequence(system, seq)
        else:
            pytest.skip("witness avoided the impure rule")


class TestEdgeRows:
    """Guards the other tests never reach: a flat system whose rule is not
    alphabetic."""

    SYSTEM = SplicingSystem(
        Alphabet("ab"), InitialSet.finite(["ab"]), frozenset([SplicingRule("ab", "", "", "")])
    )

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda s: to_heterogeneous(s), "heterogeneous splitting needs alphabetic rules"),
            (
                lambda s: normalize_sequence(s, ProductionSequence(seed="ab")),
                "needs an alphabetic system",
            ),
        ],
        ids=["heterogeneous", "normalize"],
    )
    def test_error_rows(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call(self.SYSTEM)
