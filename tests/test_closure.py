"""Bounded closures, membership search, and replayable derivations."""

import itertools
import random

import pytest

from splicelab.closure import closure_bounded, derivation, member, witness
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    SPLICE,
    Alphabet,
    BudgetExceededError,
    CircularWord,
    InitialSet,
    SpliceError,
    SplicingRule,
    SplicingSystem,
    canonical_rotation,
    replay_sequence,
)
from splicelab.examples import (
    anbn,
    anbn_circular,
    concat_chain,
    doubling,
    dyck,
    mixed_system,
    nested_insertions,
)
from splicelab.transform import complete_system

from helpers import (
    is_balanced,
    naive_circular_closure,
    naive_flat_closure,
    random_system,
)


class TestBoundedClosure:
    def test_block_words(self):
        got = closure_bounded(anbn(), 12)
        assert got == ["a" * n + "b" * n for n in range(1, 7)]

    def test_length_bound_inclusive(self):
        assert "aabb" in closure_bounded(anbn(), 4)
        assert "aaabbb" not in closure_bounded(anbn(), 5)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            closure_bounded(anbn(), 0)

    def test_monotone_in_bound(self):
        for system in (anbn(), dyck(), mixed_system()):
            small = set(closure_bounded(system, 5))
            large = set(closure_bounded(system, 7))
            assert small <= large

    def test_balanced_words(self):
        words = closure_bounded(dyck(), 8)
        assert all(is_balanced(w) for w in words)
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {2: 1, 4: 2, 6: 5, 8: 14}

    def test_regular_initial_enumerated(self):
        got = closure_bounded(nested_insertions(), 4)
        assert "c" in got and "ab" in got and "cab" in got and "ccab" in got

    def test_concat_rules_applied(self):
        got = closure_bounded(concat_chain(), 5)
        assert set(got) == {"c", "ab", "cab", "ccab", "cccab"}

    def test_doubling_first_powers(self):
        got = set(closure_bounded(doubling(), 14))
        assert "x0123y" in got
        assert "x01230123y" in got


class TestCircularClosure:
    def test_blocks(self):
        got = closure_bounded(anbn_circular(), 6)
        assert got == [CircularWord("ab"), CircularWord("aabb"), CircularWord("aaabbb")]

    def test_sorted_canonically(self):
        got = closure_bounded(anbn_circular(), 10)
        keys = [w.sort_key() for w in got]
        assert keys == sorted(keys)

    def test_linearize_matches_rotations(self):
        got = closure_bounded(anbn_circular(), 4)
        flat = set()
        for w in got:
            flat |= set(w.linearize())
        assert flat == {"ab", "ba", "aabb", "abba", "bbaa", "baab"}


class TestDifferential:
    def test_flat_splice_systems(self):
        rng = random.Random(91)
        for _ in range(60):
            system = random_system(rng)
            got = set(closure_bounded(system, 6))
            assert got == naive_flat_closure(system, 6)

    def test_flat_mixed_usage_systems(self):
        rng = random.Random(92)
        for _ in range(60):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            got = set(closure_bounded(system, 6))
            assert got == naive_flat_closure(system, 6)

    def test_two_letter_handles(self):
        rng = random.Random(95)
        for _ in range(300):
            system = random_system(
                rng, max_initial=3, max_rules=3, usages=(SPLICE, CONCAT), handle_len=2
            )
            got = set(closure_bounded(system, 6))
            assert got == naive_flat_closure(system, 6), system

    def test_completed_systems(self):
        rng = random.Random(96)
        for _ in range(40):
            system = complete_system(random_system(rng, usages=(SPLICE, CONCAT)))
            got = set(closure_bounded(system, 6))
            assert got == naive_flat_closure(system, 6), system

    def test_circular_systems(self):
        rng = random.Random(93)
        for _ in range(40):
            system = random_system(rng, mode=CIRCULAR)
            got = {w.representative for w in closure_bounded(system, 5)}
            want = {canonical_rotation(w) for w in naive_circular_closure(system, 5)}
            assert got == want


class TestMembership:
    def test_member_positive(self):
        assert member(anbn(), "aaabbb")

    def test_member_negative(self):
        assert not member(anbn(), "abab")
        assert not member(anbn(), "ba")

    def test_empty_word_uses_loader_flag(self):
        assert not member(anbn(), "")

    def test_circular_member_accepts_strings(self):
        assert member(anbn_circular(), "baab")
        assert not member(anbn_circular(), "abab")

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError):
            member(anbn(), "aabb", budget=0)

    def test_alien_letters_never_members(self):
        assert not member(anbn(), "xy")

    def test_long_word_within_recursion_limit(self):
        system, word = dyck(), "ab" * 1500
        assert member(system, word)
        seq = derivation(system, word)
        assert replay_sequence(system, seq) == word

    def test_block_word_within_default_budget(self):
        assert member(anbn(), "a" * 20 + "b" * 20)

    def test_every_short_word_against_naive_closure(self):
        # non-members included: every word over the alphabet up to length 6
        rng = random.Random(61)
        members = non_members = 0
        for i in range(60):
            if i % 3 == 2:
                system = random_system(rng, max_initial=3, max_rules=3, mode=CIRCULAR)
                want = naive_circular_closure(system, 6)
            else:
                system = random_system(
                    rng,
                    max_initial=3,
                    max_rules=3,
                    usages=(SPLICE, CONCAT),
                    handle_len=1 + i % 3,  # 1 or 2
                )
                want = naive_flat_closure(system, 6)
            letters = system.alphabet.letters
            for n in range(1, 7):
                for word in map("".join, itertools.product(letters, repeat=n)):
                    got = member(system, word)
                    assert got == (word in want), (system, word)
                    members += got
                    non_members += not got
        assert members > 300 and non_members > 3000


class TestDerivation:
    def test_replayable(self):
        system = anbn()
        seq = derivation(system, "aaabbb")
        assert seq is not None
        assert replay_sequence(system, seq) == "aaabbb"

    def test_axiom_gives_seed_only(self):
        system = anbn()
        seq = derivation(system, "ab")
        assert seq is not None
        assert seq.steps == ()
        assert replay_sequence(system, seq) == "ab"

    def test_none_for_non_member(self):
        assert derivation(anbn(), "abab") is None

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            derivation(anbn(), "")

    def test_circular_replay(self):
        system = anbn_circular()
        seq = derivation(system, "aabb")
        assert seq is not None
        assert replay_sequence(system, seq) == CircularWord("aabb")

    def test_concat_derivations(self):
        system = concat_chain()
        seq = derivation(system, "ccab")
        assert seq is not None
        assert replay_sequence(system, seq) == "ccab"

    def test_random_systems_round_trip(self):
        rng = random.Random(94)
        checked = 0
        for _ in range(30):
            system = random_system(rng, usages=(SPLICE, CONCAT))
            for word in sorted(naive_flat_closure(system, 5))[:4]:
                seq = derivation(system, word)
                assert seq is not None, (system, word)
                assert replay_sequence(system, seq) == word
                checked += 1
        assert checked > 20

    def test_two_letter_handles_round_trip(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            system = random_system(
                rng, max_initial=3, max_rules=3, usages=(SPLICE, CONCAT), handle_len=2
            )
            words = sorted(naive_flat_closure(system, 6), key=lambda w: (len(w), w))
            for word in words[-4:]:
                seq = derivation(system, word)
                assert seq is not None, (system, word)
                assert replay_sequence(system, seq) == word
                assert replay_sequence(system, witness(system, word, 6)) == word
                checked += 1
        assert checked > 20


class TestWitness:
    def test_from_closure_table(self):
        system = anbn()
        seq = witness(system, "aaaabbbb", 8)
        assert replay_sequence(system, seq) == "aaaabbbb"

    def test_missing_word_raises(self):
        with pytest.raises(SpliceError):
            witness(anbn(), "abab", 8)

    def test_circular_witness(self):
        system = anbn_circular()
        seq = witness(system, CircularWord("aabb"), 6)
        assert replay_sequence(system, seq) == CircularWord("aabb")

    def test_witness_accepts_strings_in_circular_mode(self):
        system = anbn_circular()
        seq = witness(system, "baab", 6)
        assert replay_sequence(system, seq) == CircularWord("aabb")
