"""Bounded closures, membership search, and replayable derivations."""

import copy
import gc
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from splicelab.automata import parse_regex, regex_to_dfa
from splicelab.closure import (
    _breaks_counts,
    _count_rows,
    _null_space,
    _rotations,
    _saturate,
    _seams,
    _Tables,
    _undo_rules,
    _Undos,
    closure_bounded,
    derivation,
    member,
    witness,
)
from splicelab.core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    BudgetExceededError,
    CircularWord,
    InitialRef,
    InitialSet,
    Production,
    ProductionSequence,
    SpliceError,
    SplicingRule,
    SplicingSystem,
    canonical_rotation,
    conjugates,
    matches_pattern,
    replay_sequence,
)
from splicelab.examples import (
    ALL_EXAMPLES,
    anbn,
    anbn_circular,
    concat_chain,
    doubling,
    dyck,
    mixed_system,
    nested_insertions,
)
from splicelab.fileformat import parse_system, serialize_system
from splicelab.grammar import Cfg, enumerate_cfg
from splicelab.transform import complete_system

from helpers import (
    is_balanced,
    naive_circular_closure,
    naive_flat_closure,
    naive_undo_rules,
    naive_undos,
    parikh_vectors,
    random_regex,
    random_system,
    random_word,
    rank,
    reference_saturate,
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

    @pytest.mark.parametrize("mode", [FLAT, CIRCULAR])
    def test_huge_bound_costs_no_table(self, mode):
        """The saturation loops keep words by length only up to the longest
        word seen, so a one-word closure at bound 10**6 peaks under 1 MB."""
        system = parse_system(f"alphabet a\nmode {mode}\ninitial finite a\n")
        closure_bounded(system, 1)  # the search tables, built outside the trace
        tracemalloc.start()
        try:
            got = closure_bounded(system, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 1
        assert peak < 1 << 20, peak


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

    def test_canonical_rotation_is_least_conjugate(self):
        for n in range(9):
            for word in map("".join, itertools.product("ab", repeat=n)):
                assert canonical_rotation(word) == min(conjugates(word)), word


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

    def test_circular_two_letter_handles(self):
        rng = random.Random(98)
        for _ in range(60):
            system = random_system(rng, max_initial=3, max_rules=3, mode=CIRCULAR, handle_len=2)
            got = {w.representative for w in closure_bounded(system, 6)}
            want = {canonical_rotation(w) for w in naive_circular_closure(system, 6)}
            assert got == want, system


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

    def test_circular_handles_fit_inside_the_rest(self):
        # splitting (abb) into u = b and v = ab would need alpha = ab and
        # beta = ab both inside the one letter of u
        system = parse_system(
            "alphabet a b\nmode circular\ninitial finite ab b\nsplice ab#ab$-#-\n"
        )
        assert not member(system, "abb")
        assert derivation(system, "abb") is None

    def test_every_short_word_against_naive_closure(self):
        # non-members included: every word over the alphabet up to length 6
        rng = random.Random(61)
        members = non_members = circular_members = 0
        for i in range(90):
            if i >= 60:
                # circular systems with 2- and 3-letter handles, drawn after
                # the first 60 systems so that their draws stay as they were
                system = random_system(
                    rng, max_initial=3, max_rules=3, mode=CIRCULAR, handle_len=2 + i % 2
                )
                want = naive_circular_closure(system, 6)
            elif i % 3 == 2:
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
                    if got and system.mode == CIRCULAR:
                        seq = derivation(system, word)
                        assert replay_sequence(system, seq) == CircularWord(word), system
                        circular_members += 1
        assert members > 300 and non_members > 3000 and circular_members > 300


def block_regex(rng: random.Random, letters: str) -> str:
    """A random regex over two blocks, random words over ``letters``: the
    counts of its words then span at most two dimensions."""
    blocks = [random_word(rng, letters) for _ in "xy"]
    text = random_regex(rng, "xy", 4)
    return text.replace("x", f"({blocks[0]})").replace("y", f"({blocks[1]})")


def count_system(rng: random.Random, i: int) -> SplicingSystem:
    """A random system whose initial set often has letter-count
    invariants: one or two short axioms, or a regex over two blocks, over
    up to three letters; flat with splice and concat rules, or circular, with
    handles of one or two letters."""
    circular = i % 3 == 2
    system = random_system(
        rng,
        max_letters=3,
        max_initial=2,
        max_rules=3,
        usages=(SPLICE,) if circular else (SPLICE, CONCAT),
        mode=CIRCULAR if circular else FLAT,
        handle_len=1 + i % 2,
    )
    if i % 2:
        letters = system.alphabet.letters
        dfa = regex_to_dfa(parse_regex(block_regex(rng, "".join(letters))), letters)
        system = replace(system, initial=InitialSet.regular(dfa))
    return system


def count_invariants(system: SplicingSystem):
    letters, rows = _count_rows(system.initial)
    return letters, _null_space(rows, len(letters))


class TestCountInvariants:
    def test_member_against_naive_closure(self):
        rng = random.Random(131)
        members = pruned = regular_pruned = circular_pruned = 0
        for i in range(72):
            system = count_system(rng, i)
            if system.mode == CIRCULAR:
                want = naive_circular_closure(system, 6)
            else:
                want = naive_flat_closure(system, 6)
            breaks = _breaks_counts(system)
            letters = system.alphabet.letters
            for n in range(1, 7):
                for word in map("".join, itertools.product(letters, repeat=n)):
                    got = member(system, word)
                    assert got == (word in want), (system, word)
                    members += got
                    if breaks is not None:
                        cut = breaks(CircularWord(word) if system.mode == CIRCULAR else word)
                        assert not (got and cut), (system, word)
                        pruned += cut
                        regular_pruned += cut and system.initial.kind == "regular"
                        circular_pruned += cut and system.mode == CIRCULAR
        assert members > 300 and pruned > 10000
        assert regular_pruned > 5000 and circular_pruned > 3000

    def test_closure_words_keep_every_invariant(self):
        rng = random.Random(137)
        checked = weighted = 0
        for i in range(150):
            system = count_system(rng, i)
            if system.mode == CIRCULAR:
                words = naive_circular_closure(system, 7)
            else:
                words = naive_flat_closure(system, 7)
            letters, basis = count_invariants(system)
            weighted += bool(basis)
            for word in words:
                assert set(word) <= set(letters), (system, word)
                counts = [word.count(a) for a in letters]
                for f in basis:
                    assert sum(x * y for x, y in zip(f, counts)) == 0, (system, word, f)
                checked += 1
        assert checked > 800 and weighted > 30

    def test_regular_invariants_are_exact(self):
        # a live transition lies on an accepted word of at most 2n - 1
        # letters, so the counts of the words up to 2n span those of all
        rng = random.Random(139)
        weighted = 0
        for _ in range(400):
            letters = ("a", "b", "c")[: rng.randint(2, 3)]
            regex = random_regex if rng.random() < 0.3 else block_regex
            dfa = regex_to_dfa(parse_regex(regex(rng, "".join(letters))), letters)
            system = SplicingSystem(Alphabet(letters), InitialSet.regular(dfa), frozenset())
            got_letters, basis = count_invariants(system)
            dfa = system.initial.dfa
            vectors = parikh_vectors(dfa, letters, 2 * dfa.n_states)
            used = tuple(a for i, a in enumerate(letters) if any(v[i] for v in vectors))
            assert got_letters == used, system
            columns = [letters.index(a) for a in used]
            rows = [[v[i] for i in columns] for v in vectors]
            assert len(basis) == len(used) - rank(rows), system
            assert rank(basis) == len(basis), system
            for f in basis:
                for row in rows:
                    assert sum(x * y for x, y in zip(f, row)) == 0, (system, f, row)
            weighted += bool(basis)
        assert weighted > 80

    def test_finite_basis_against_fractions(self):
        rng = random.Random(149)
        for _ in range(500):
            width = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rng.randint(0, 6))]
            basis = _null_space(rows, width)
            assert len(basis) == width - rank(rows), rows
            assert rank(basis) == len(basis), rows
            for f in basis:
                assert all(sum(x * y for x, y in zip(f, r)) == 0 for r in rows), (rows, f)

    def test_unbalanced_non_members_answer_at_once(self):
        # both took seconds when the search tried every undo move
        assert not member(anbn_circular(), "a" * 120 + "b" * 119 + "ab", budget=1)
        assert not member(dyck(), "aab" * 40, budget=1)

    def test_empty_initial_language_has_no_member(self):
        dfa = regex_to_dfa(parse_regex("_"), ("a", "b"))
        system = SplicingSystem(
            Alphabet("ab"),
            InitialSet.regular(dfa),
            frozenset({SplicingRule("", "", "", "")}),
        )
        assert not member(system, "ab", budget=1)


class TestContextFreeAxioms:
    """A flat system whose axioms are a^n b^n (n >= 1), given as a grammar,
    and whose rule inserts a word a…b after any b: the closure, membership
    and derivations read the axioms through the grammar, with no letter
    count invariants to prune by."""

    GRAMMAR = Cfg(("a", "b"), ("S",), [("S", ("a", "S", "b")), ("S", ("a", "b"))], "S")

    def system(self) -> SplicingSystem:
        return SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.contextfree(self.GRAMMAR),
            rules=frozenset({SplicingRule("b", "", "a", "b")}),
        )

    def test_no_count_invariants(self):
        system = self.system()
        assert _count_rows(system.initial) is None
        assert _breaks_counts(system) is None

    def test_closure_against_naive(self):
        # the naive closure starts from the axioms the grammar enumerates,
        # not from the initial set's own enumeration
        system = self.system()
        axioms = InitialSet.finite(enumerate_cfg(self.GRAMMAR, 10))
        got = closure_bounded(system, 10)
        assert set(got) == naive_flat_closure(replace(system, initial=axioms), 10)
        assert len(got) == 64
        assert {"abab", "aabbab", "abaabb"} <= set(got)

    def test_member_and_derivation(self):
        system = self.system()
        language = set(closure_bounded(system, 8))
        words = ["".join(p) for n in range(1, 9) for p in itertools.product("ab", repeat=n)]
        for w in words:
            assert member(system, w) == (w in language), w
            seq = derivation(system, w)
            assert (seq is not None) == (w in language), w
            if seq is not None:
                assert replay_sequence(system, seq) == w


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

    def test_every_closure_word_replays(self):
        # circular systems exercise the rotation lists, mixed-usage flat
        # systems the host cut lists and the concat masks
        rng = random.Random(99)
        checked = 0
        for i in range(60):
            handle_len = 1 + i % 4 // 2  # 1 or 2
            if i % 2:
                system = random_system(
                    rng, max_initial=3, max_rules=3, mode=CIRCULAR, handle_len=handle_len
                )
            else:
                system = random_system(
                    rng,
                    max_initial=3,
                    max_rules=3,
                    usages=(SPLICE, CONCAT),
                    handle_len=handle_len,
                )
            for word in closure_bounded(system, 6):
                assert replay_sequence(system, witness(system, word, 6)) == word, system
                checked += 1
        assert checked > 300


# sha256 of each fixture's closure up to CLOSURE_BOUND, one word a line: the
# fixture as given, its completion, and its circular twin.  A change to
# saturation that keeps the differentials green but moves a single word of
# a closure list fails here.
CLOSURE_BOUND = 12
CLOSURE_DIGESTS = [
    ("anbn", "given",
     "1823ab152cb8baf2e67ed7ccf8341fa35bb330b63e0df603662eed57d1150950"),
    ("anbn", "complete",
     "1823ab152cb8baf2e67ed7ccf8341fa35bb330b63e0df603662eed57d1150950"),
    ("anbn", "circular",
     "1bea7cc157d3e7e4d650b24f819d107014a7b6fed5b46a5b3c3cc88a51ba9553"),
    ("anbn_circular", "given",
     "1bea7cc157d3e7e4d650b24f819d107014a7b6fed5b46a5b3c3cc88a51ba9553"),
    ("dyck", "given",
     "4e3c8b5eff6e1ba3ad0e80b606182bfb9cccc561545f82344d6a61476f1a8566"),
    ("dyck", "complete",
     "4e3c8b5eff6e1ba3ad0e80b606182bfb9cccc561545f82344d6a61476f1a8566"),
    ("dyck", "circular",
     "644f30569739b6f88439a56e30033a044644970b5df1bdee54588cd9d7ab5c41"),
    ("nested_insertions", "given",
     "ba6cdf81fdf46ced8eaa8c02d6a30948c6bde482d35b0bb7ffb7561b84085166"),
    ("nested_insertions", "complete",
     "ba6cdf81fdf46ced8eaa8c02d6a30948c6bde482d35b0bb7ffb7561b84085166"),
    ("nested_insertions", "circular",
     "849edf3aa3bcacb48b6fa6effa4bbc10c1af8ad0e5012992de3a52c7e1ed4be6"),
    ("concat_chain", "given",
     "5fc5f21149745d9fb5213c2c498b79392c3aa0303aab3fc01130274ba47dc94e"),
    ("concat_chain", "complete",
     "5fc5f21149745d9fb5213c2c498b79392c3aa0303aab3fc01130274ba47dc94e"),
    ("mixed_system", "given",
     "d6f0b612cc786aea6a4c32c3e0060a8c4cf55dc1e3b193d3a9984fad1ec08ed6"),
    ("mixed_system", "complete",
     "d6f0b612cc786aea6a4c32c3e0060a8c4cf55dc1e3b193d3a9984fad1ec08ed6"),
    ("mixed_system", "circular",
     "1f27a036bd0106c0e1ad44d73bd65991bcc26fc45890006d35415138abb30213"),
    ("paired_concat", "given",
     "de63668639e1de55547c9e074c0835b2a31b3a52a7015e39d22601c8fdaed13f"),
    ("paired_concat", "complete",
     "de63668639e1de55547c9e074c0835b2a31b3a52a7015e39d22601c8fdaed13f"),
    ("doubling", "given",
     "cd02893785236da4c2723446a0b6ecf22636d3721c4557d55a05333a21badf34"),
    ("doubling", "circular",
     "9039bd441c28622c74fc362423f7d83ea693ecdd29a06b6cb9c6bfb9dfcb6bda"),
]


# sha256 of repr(witness(...)), one a line, for the last 8 closure words of
# each pinned fixture form: a change to saturation that keeps every closure
# list but moves one parent pointer fails here.
WITNESS_DIGEST = "c74e9897591393e3c5c0bb7b7348bc7bef86d6cad820ea6147dcfc25622f6f8c"


def fixture_form(fixture: str, form: str):
    system = ALL_EXAMPLES[fixture]()
    if form == "complete":
        return complete_system(system)
    if form == "circular":
        return replace(system, mode=CIRCULAR)
    return system


class TestClosureBytes:
    def test_every_fixture_is_pinned(self):
        pinned = {(fixture, form) for fixture, form, _ in CLOSURE_DIGESTS}
        for fixture, build in ALL_EXAMPLES.items():
            system = build()
            assert (fixture, "given") in pinned
            if system.mode == FLAT and system.is_alphabetic:
                assert (fixture, "complete") in pinned
            if system.mode == FLAT and not system.concat_rules:
                assert (fixture, "circular") in pinned

    @pytest.mark.parametrize(
        "fixture,form,digest",
        CLOSURE_DIGESTS,
        ids=[f"{fixture}-{form}" for fixture, form, _ in CLOSURE_DIGESTS],
    )
    def test_closure_digest(self, fixture, form, digest):
        words = closure_bounded(fixture_form(fixture, form), CLOSURE_BOUND)
        text = "".join(f"{w}\n" for w in words)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    def test_witness_digest(self):
        lines = []
        for fixture, form, _ in CLOSURE_DIGESTS:
            system = fixture_form(fixture, form)
            for word in closure_bounded(system, CLOSURE_BOUND)[-8:]:
                lines.append(f"{repr(witness(system, word, CLOSURE_BOUND))}\n")
        text = "".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST, text


def replay_move(system, rule, u, v, cut, result):
    """The word one production of ``rule`` on the operands u and v makes,
    replayed through ``core`` with u and v taken as axioms."""
    words = [x.representative if isinstance(x, CircularWord) else x for x in (u, v)]
    operands = replace(system, initial=InitialSet.finite(words))
    step = Production(rule, InitialRef(u), InitialRef(v), cut, result)
    return replay_sequence(operands, ProductionSequence((step,)))


def arc_text(w: CircularWord, offset: int) -> str:
    rep = w.representative
    return rep[offset:] + rep[:offset]


# sha256 of repr(derivation(...)), one a line, for the longest closure words
# of each pinned fixture form: a change to the membership search that moves
# one chosen rule, operand or cut fails here.
DERIVATION_BOUND = 10
DERIVATION_DIGEST = "11374a8c277a5cf37b908e4cacaed7ab3669a7e7c30690762afaf42d6a086bd5"


class TestUndoMoves:
    def test_against_naive_undos(self):
        rng = random.Random(113)
        flat_moves = circular_moves = 0
        for i in range(320):
            circular = i % 2 == 1
            system = random_system(
                rng,
                max_letters=3,
                max_rules=4,
                usages=(SPLICE,) if circular else (SPLICE, CONCAT),
                mode=CIRCULAR if circular else FLAT,
                handle_len=1 + i % 3,
            )
            if i % 6 in (0, 3):  # one-letter handles: complete them
                system = replace(complete_system(replace(system, mode=FLAT)), mode=system.mode)
            undos = _Undos(_Tables(system), {})
            letters = "".join(system.alphabet.letters)
            for _ in range(8):
                word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                want = naive_undos(system, word)
                if circular:
                    result = CircularWord(word)
                    got = list(undos.circular(result))
                    splits = [(arc_text(u, cut[0]), arc_text(v, cut[1])) for _, u, v, cut in got]
                    assert splits == [(u, v) for u, v, _ in want], (system, word)
                    circular_moves += len(got)
                else:
                    result = word
                    got = list(undos.flat(word))
                    assert [move[1:] for move in got] == [move[:3] for move in want], (system, word)
                    flat_moves += len(got)
                for (rule, u, v, cut), (*_, fit) in zip(got, want):
                    assert rule in fit, (system, word, rule)
                    assert replay_move(system, rule, u, v, cut, result) == result
        assert flat_moves > 3000 and circular_moves > 3000

    def test_rule_order_against_every_shortening(self):
        rng = random.Random(127)
        dropped = 0
        for i in range(1200):
            system = random_system(
                rng,
                max_letters=2,
                max_rules=7,
                usages=(SPLICE, CONCAT) if i % 4 == 0 else (SPLICE,),
                handle_len=1 + i % 3,
            )
            got = _undo_rules(system)
            assert got == naive_undo_rules(system), system
            dropped += len(system.splice_rules) - len(got)
        assert dropped > 500

    def test_derivation_digest(self):
        lines = []
        for fixture, form, _ in CLOSURE_DIGESTS:
            system = fixture_form(fixture, form)
            for word in closure_bounded(system, DERIVATION_BOUND)[-8:]:
                lines.append(f"{repr(derivation(system, word))}\n")
        text = "".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == DERIVATION_DIGEST, text


def cyclic_seams_reference(text: str, stop: int, seams) -> list:
    """``_seams(text, stop, seams, cyclic=True)`` by testing every start."""
    out = []
    for left, right in seams:
        seam = left + right
        found = [i + len(left) for i in range(stop) if text.startswith(seam, i)]
        out.append(sorted(i % stop for i in found))
    return out


class TestOccurrenceScan:
    def test_cyclic_seams_wrap_once(self):
        # the seam bab ends at position 4 of the twice-written circle ab,
        # two rounds on from 0
        assert _seams("abab", 2, [("bab", "")], cyclic=True) == [[0]]

    def test_cyclic_seams_against_reference(self):
        rng = random.Random(41)

        def word(lo, hi):
            return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))

        for _ in range(20000):
            circle = word(1, 6)
            seams = [(word(0, 8), word(0, 8)) for _ in range(rng.randint(1, 3))]
            text, stop = circle + circle, len(circle)
            got = _seams(text, stop, seams, cyclic=True)
            assert list(map(list, got)) == cyclic_seams_reference(text, stop, seams), (
                circle,
                seams,
            )

    def test_circular_pattern_offsets(self):
        # a circular word's offsets for each rule pattern, from one seam
        # scan, against a test of every rotation
        rng = random.Random(43)

        def word(lo, hi):
            return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))

        for _ in range(20000):
            rule = SplicingRule(word(0, 4), word(0, 4), word(0, 4), word(0, 4))
            system = SplicingSystem(
                Alphabet("ab"), InitialSet.finite(["a"]), frozenset([rule]), CIRCULAR
            )
            tables = _Tables(system)
            text = word(1, 8)
            rots = _rotations(text)
            offsets = tables.offsets(rots[0])
            rep = canonical_rotation(text)
            assert rots == [rep[i:] + rep[:i] for i in range(len(rep))]
            ((_, lp, rp),) = tables.circular_rules
            for at, (prefix, suffix) in ((lp, (rule.beta, rule.alpha)), (rp, (rule.gamma, rule.delta))):
                want = [i for i, r in enumerate(rots) if matches_pattern(r, prefix, suffix)]
                assert list(offsets[at]) == want, (text, prefix, suffix)


def saturation_system(rng: random.Random, i: int) -> SplicingSystem:
    """A random system for the saturation differential: flat with splice
    and concat rules or circular, with a finite or a regular initial set
    and handles of 0-2 letters."""
    circular = i % 3 == 2
    system = random_system(
        rng,
        max_letters=2 if circular else 3,
        max_initial=3,
        max_rules=4,
        usages=(SPLICE,) if circular else (SPLICE, CONCAT),
        mode=CIRCULAR if circular else FLAT,
        handle_len=1 + i % 2,
    )
    if i % 4 >= 2:
        letters = system.alphabet.letters
        dfa = regex_to_dfa(parse_regex(random_regex(rng, "".join(letters))), letters)
        system = replace(system, initial=InitialSet.regular(dfa))
    return system


class TestSaturationLoops:
    """The flat and the circular saturation loop admit every word in the
    order, and with the parent pointer, of the generic pairing in
    ``helpers.reference_saturate``."""

    def test_parents_against_reference(self):
        rng = random.Random(149)
        made = {FLAT: 0, CIRCULAR: 0, CONCAT: 0, "regular": 0}
        for i in range(450):
            system = saturation_system(rng, i)
            got = _saturate(system, 8)
            assert repr(got) == repr(reference_saturate(system, 8)), system
            steps = [p for p in got.values() if p is not None]
            made[system.mode] += len(steps)
            made[CONCAT] += sum(p[0].usage == CONCAT for p in steps)
            made["regular"] += len(steps) if system.initial.kind == "regular" else 0
        assert min(made.values()) > 500, made

    def test_fixture_parents_against_reference(self):
        for fixture, form, _ in CLOSURE_DIGESTS:
            system = fixture_form(fixture, form)
            got = _saturate(system, CLOSURE_BOUND)
            assert repr(got) == repr(reference_saturate(system, CLOSURE_BOUND)), (fixture, form)

    def test_signature_is_exact(self):
        # every word with one handle signature gets the entry of the first
        # word seen with it: the direct context table and concat masks
        rng = random.Random(151)
        no_suffix = short = 0
        for i in range(300):
            system = random_system(
                rng, max_rules=4, usages=(SPLICE, CONCAT), handle_len=1 + i % 3
            )
            tables = _Tables(system)
            p, s = tables.ends
            no_suffix += p > 0 and s == 0
            cached: dict = {}
            letters = system.alphabet.letters
            for w in short_words(letters, 6):
                masks = [
                    sum(1 << k for k, r in enumerate(tables.concat) if matches_pattern(w, *h(r)))
                    for h in (lambda r: (r.alpha, r.beta), lambda r: (r.gamma, r.delta))
                ]
                want = (tables.contexts(w), *masks)
                assert cached.setdefault(tables.signature(w), want) == want, (system, w)
                short += len(w) < p + s
            # and it is no finer than the P + S letters it reads
            long = {tables.signature(w) for w in short_words(letters, 6) if len(w) >= p + s}
            assert len(long) <= len(letters) ** (p + s), system
        assert no_suffix > 10 and short > 1000, (no_suffix, short)


def short_words(letters, max_len: int) -> list[str]:
    """Every word over ``letters`` up to ``max_len``, in length-lex order."""
    return [
        "".join(t) for n in range(1, max_len + 1) for t in itertools.product(letters, repeat=n)
    ]


def table_system(rng: random.Random, i: int) -> SplicingSystem:
    """A random system: circular, or flat with splice and concat rules,
    with handles of one or two letters."""
    if i % 3 == 2:
        return random_system(rng, max_initial=3, max_rules=3, mode=CIRCULAR, handle_len=1 + i % 2)
    return random_system(
        rng, max_initial=3, max_rules=3, usages=(SPLICE, CONCAT), handle_len=1 + i % 2
    )


def twin(system: SplicingSystem) -> SplicingSystem:
    """A new system equal to ``system``, with no search tables of its
    own yet."""
    got = parse_system(serialize_system(system))
    assert got == system
    return got


def search(system: SplicingSystem, word):
    return member(system, word), derivation(system, word)


class TestSearchTables:
    """A system's search tables are built once and read by every later
    search of it, so they must give each search what building them afresh
    would."""

    def test_tables_never_change_an_answer(self):
        rng = random.Random(137)
        systems = [table_system(rng, i) for i in range(60)]
        fresh, needed = [], 0
        for system in systems:
            words = short_words(system.alphabet.letters, 6)
            naive = naive_circular_closure if system.mode == CIRCULAR else naive_flat_closure
            closed = naive(system, 6)
            want = [search(twin(system), w) for w in words]
            assert [m for m, _ in want] == [w in closed for w in words], system
            for w, (_, seq) in zip(words, want):
                if seq is not None:
                    result = CircularWord(w) if system.mode == CIRCULAR else w
                    assert replay_sequence(system, seq) == result, (system, w)
            # one object, every word in length-lex order and then reversed
            assert [search(system, w) for w in words] == want, system
            assert [search(system, w) for w in reversed(words)] == want[::-1], system
            fresh.append((words, want))
            if len(system.rules) < 2:
                continue
            # the system without one of its rules, asked beside it
            for rule in sorted(system.rules):
                dropped = replace(system, rules=system.rules - {rule})
                closed = naive(dropped, 6)
                got = [(member(system, w), member(dropped, w)) for w in words]
                assert [m for m, _ in got] == [m for m, _ in want], system
                assert [d for _, d in got] == [w in closed for w in words], (system, rule)
                needed += sum(m and not d for m, d in got)
        assert needed > 100
        # two systems, asked in turn word by word
        asked = list(zip(systems, fresh))
        for (s1, (w1, f1)), (s2, (w2, f2)) in zip(asked[::2], asked[1::2]):
            got1, got2 = [], []
            for a, b in itertools.zip_longest(w1, w2):
                if a is not None:
                    got1.append(search(s1, a))
                if b is not None:
                    got2.append(search(s2, b))
            assert (got1, got2) == (f1, f2), (s1, s2)

    def test_dropped_rule_is_not_read_from_the_parent(self):
        # the undominated rule of the parent is -#-$-#-, which inserts ab
        # anywhere; without it only a#b$a#b is left, which makes a^n b^n
        insert = SplicingRule("a", "b", "a", "b")
        system = SplicingSystem(
            Alphabet("ab"), InitialSet.finite(["ab"]), frozenset([insert, SplicingRule("", "", "", "")])
        )
        assert member(system, "abab")
        dropped = replace(system, rules=frozenset([insert]))
        assert not member(dropped, "abab")
        assert derivation(dropped, "abab") is None
        assert member(dropped, "aabb")
        assert member(system, "abab")

    def test_closure_at_changing_bounds(self):
        rng = random.Random(139)
        for i in range(30):
            system = table_system(rng, i)
            got = [closure_bounded(system, n) for n in (6, 4, 6)]
            assert got == [closure_bounded(twin(system), n) for n in (6, 4, 6)], system

    @pytest.mark.parametrize(
        "build", [dyck, anbn_circular, nested_insertions, concat_chain, doubling]
    )
    def test_search_keeps_system_as_it_was(self, build):
        system = build()
        equal = parse_system(serialize_system(system))

        def state():
            return hash(system), repr(system), serialize_system(system), pickle.dumps(system)

        before = state()
        words = closure_bounded(system, 8)
        assert member(system, words[-1]) and derivation(system, words[-1]) is not None
        assert not member(system, system.alphabet.letters[0] * 7)
        assert witness(system, words[-1], 8) is not None
        assert state() == before and system == equal
        # no table the searches left behind points back at the system
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_searched_system_pickles_and_copies(self):
        # a searched system, copied or loaded under another hash seed, is
        # equal to and hashes as a fresh one, and searches afresh
        builds = (dyck, anbn_circular, nested_insertions, concat_chain, doubling)
        systems, cases = [build() for build in builds], []
        for system in systems:
            assert "_search_tables" not in vars(system)
            words = closure_bounded(system, 8)
            asked = words + [system.alphabet.letters[0] * 7]
            answers = [member(system, w) for w in asked]
            assert "_search_tables" in vars(system)
            cases.append((serialize_system(system), words, asked, answers))
            copied = copy.deepcopy(system)
            assert copied == system and hash(copied) == hash(system)
            assert "_search_tables" not in vars(copied)
            assert [member(copied, w) for w in asked] == answers
            assert closure_bounded(copied, 8) == words
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        child = """
import pickle, sys
from splicelab.closure import closure_bounded, member
from splicelab.fileformat import parse_system
systems, cases = pickle.loads(sys.stdin.buffer.read())
for system, (text, words, asked, answers) in zip(systems, cases):
    fresh = parse_system(text)
    assert system == fresh and hash(system) == hash(fresh), text
    assert "_search_tables" not in vars(system), text
    assert [member(system, w) for w in asked] == answers, text
    assert closure_bounded(system, 8) == words, text
    assert "_search_tables" in vars(system), text
print(hash(("a", "b")))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps((systems, cases)), capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # the child hashes strings otherwise, so a pickled hash would be wrong
        assert int(done.stdout) != hash(("a", "b"))
