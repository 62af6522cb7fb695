"""Words, rules, pattern matching, and recorded derivations."""

import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicelab.core import (
    CIRCULAR,
    CONCAT,
    SPLICE,
    Alphabet,
    CircularWord,
    InitialRef,
    InitialSet,
    Production,
    ProductionSequence,
    ReplayError,
    SplicingRule,
    SplicingSystem,
    StepRef,
    apply_concat,
    apply_splice,
    apply_splice_circular,
    canonical_rotation,
    conjugates,
    dominates,
    iter_splice_cuts,
    matches_pattern,
    replay_sequence,
    iter_circular_splices,
)
from splicelab.automata import Dfa, parse_regex, regex_to_dfa
from splicelab.grammar import Cfg, cfg_empty, enumerate_cfg

from helpers import naive_apply, random_cfg, random_regex, shortenings

WORDS = st.text(alphabet="ab", min_size=0, max_size=6)


class TestAlphabet:
    def test_sorted_and_deduplicated(self):
        assert Alphabet("bab").letters == ("a", "b")

    def test_rejects_reserved_characters(self):
        for bad in "#$-_ \tA":
            with pytest.raises(ValueError):
                Alphabet(["a", bad])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet("")

    def test_check_word(self):
        al = Alphabet("ab")
        assert al.check_word("abba") == "abba"
        with pytest.raises(ValueError):
            al.check_word("abc")


class TestCircularWords:
    def test_canonical_rotation_is_least(self):
        assert canonical_rotation("bca") == "abc"
        assert conjugates("aba") == {"aba", "baa", "aab"}

    def test_equality_is_conjugacy(self):
        assert CircularWord("abc") == CircularWord("cab")
        assert CircularWord("ab") != CircularWord("ba") or True  # same class
        assert CircularWord("ab") == CircularWord("ba")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CircularWord("")

    def test_long_word_in_linear_memory(self):
        """A least rotation and a rotation test hold one window of the
        word at a time: all 8,000 windows at once would be 64 MB."""
        import tracemalloc

        rng = random.Random(36)
        word = "".join(rng.choice("ab") for _ in range(8000))
        rotated = word[4000:] + word[:4000]
        init = InitialSet.finite(["ab", "b" * 8000, rotated])
        tracemalloc.start()
        try:
            assert CircularWord(word) == CircularWord(rotated)
            peak_word = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert init._contains_rotation(word)
            assert not init._contains_rotation(word[:-1] + "c")
            peak_rotation = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_word < 1 << 20, peak_word
        assert peak_rotation < 1 << 20, peak_rotation

    @given(WORDS.filter(bool))
    @settings(max_examples=60)
    def test_linearize_roundtrip(self, w):
        cw = CircularWord(w)
        assert w in cw.linearize()
        assert all(CircularWord(u) == cw for u in cw.linearize())


class TestRules:
    def test_notation(self):
        assert SplicingRule("a", "", "", "b").notation() == "a#-$-#b"
        assert SplicingRule("", "c", "a", "b", usage=CONCAT).notation() == "<-#c$a#b>c"

    def test_usage_validated(self):
        with pytest.raises(ValueError):
            SplicingRule("a", "b", "a", "b", usage="paste")

    def test_purity(self):
        assert SplicingRule("a", "b", "", "").is_pure
        assert not SplicingRule("a", "", "a", "b").is_pure
        assert not SplicingRule("a", "b", "a", "b", usage=CONCAT).is_pure

    def test_alphabetic(self):
        assert SplicingRule("a", "", "b", "a").is_alphabetic
        assert not SplicingRule("ab", "", "", "").is_alphabetic

    def test_dominates_against_shortenings(self):
        """``dominates`` holds exactly when the tuples differ and each
        handle of the first is among the shortenings of the second's."""
        rng = random.Random(27)
        seen = {"dominates": 0, "not": 0, "equal": 0}
        for _ in range(6000):
            usage = rng.choice((SPLICE, CONCAT))
            longer = tuple(
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 3))) for _ in range(4)
            )
            shorter = tuple(
                rng.choice(shortenings(usage, i, h))
                if rng.random() < 0.85
                else "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                for i, h in enumerate(longer)
            )
            if rng.random() < 0.05:
                shorter = longer
            expected = shorter != longer and all(
                s in shortenings(usage, i, h) for i, (s, h) in enumerate(zip(shorter, longer))
            )
            assert dominates(usage, shorter, longer) == expected, (usage, shorter, longer)
            seen["equal" if shorter == longer else "dominates" if expected else "not"] += 1
        for case, n in seen.items():
            assert n >= 200, (case, seen)


class TestPatternMatching:
    def test_both_handles_need_room(self):
        # a single letter is not in aA*a: the two handle occurrences must
        # not overlap
        assert not matches_pattern("a", "a", "a")
        assert matches_pattern("aa", "a", "a")
        assert matches_pattern("aba", "a", "a")

    def test_single_handle(self):
        assert matches_pattern("a", "", "a")
        assert matches_pattern("a", "a", "")
        assert matches_pattern("anything", "", "")

    def test_mismatch(self):
        assert not matches_pattern("ab", "b", "")
        assert not matches_pattern("ab", "", "a")


class TestFlatApplication:
    def test_worked_insertion(self):
        # babcc with a cut between ab and c, inserting aaccb
        r = SplicingRule("ab", "c", "aa", "b")
        assert apply_splice(r, "babcc", "aaccb") == {"babaaccbcc"}

    def test_single_letter_operand_needs_one_sided_pattern(self):
        tight = SplicingRule("b", "b", "a", "a")
        assert apply_splice(tight, "bb", "a") == set()
        loose = SplicingRule("b", "b", "", "a")
        assert apply_splice(loose, "bb", "a") == {"bab"}

    def test_empty_alpha_concatenates(self):
        r = SplicingRule("", "b", "a", "a")
        assert "ababbc" in apply_splice(r, "bbc", "aba")

    def test_usage_guards(self):
        with pytest.raises(ValueError):
            apply_splice(SplicingRule("", "", "", "", usage=CONCAT), "a", "b")
        with pytest.raises(ValueError):
            apply_concat(SplicingRule("", "", "", ""), "a", "b")

    def test_concat_checks_both_ends(self):
        r = SplicingRule("", "c", "a", "b", usage=CONCAT)
        assert apply_concat(r, "c", "ab") == "cab"
        assert apply_concat(r, "ca", "ab") is None
        assert apply_concat(r, "c", "ba") is None

    @given(
        st.tuples(*(st.sampled_from(["", "a", "b"]) for _ in range(4))),
        WORDS,
        WORDS,
    )
    @settings(max_examples=120)
    def test_matches_naive_application(self, handles, u, v):
        rule = SplicingRule(*handles)
        assert apply_splice(rule, u, v) == naive_apply(rule, u, v)

    def test_iter_splice_cuts_positions(self):
        r = SplicingRule("a", "b", "", "")
        assert list(iter_splice_cuts(r, "abab")) == [1, 3]


class TestCircularApplication:
    def test_rotations_explored(self):
        # u rotates to "ba" (prefix b, suffix a), v rotates to "ab";
        # the product is (baab), whose least rotation is aabb.
        r = SplicingRule("a", "b", "a", "b")
        out = apply_splice_circular(r, CircularWord("ab"), CircularWord("ab"))
        assert out == {CircularWord("aabb")}
        assert CircularWord("abab") != CircularWord("aabb")

    def test_rotation_independent(self):
        r = SplicingRule("a", "b", "a", "b")
        a = apply_splice_circular(r, CircularWord("ab"), CircularWord("ab"))
        b = apply_splice_circular(r, CircularWord("ba"), CircularWord("ba"))
        assert a == b


class TestInitialSet:
    def test_finite_rejects_epsilon(self):
        with pytest.raises(ValueError):
            InitialSet.finite(["ab", ""])

    def test_regular_strips_epsilon(self):
        from splicelab.automata import parse_regex, regex_to_dfa

        dfa = regex_to_dfa(parse_regex("(ab)*"), ("a", "b"))
        init = InitialSet.regular(dfa)
        assert init.had_epsilon
        assert not init.dfa.accepts("")
        assert init.contains("abab")
        assert not init.contains("")

    def test_contextfree_detects_epsilon(self):
        from splicelab.grammar import Cfg

        g = Cfg(("a",), ("S",), [("S", ()), ("S", ("a",))], "S")
        init = InitialSet.contextfree(g)
        assert init.had_epsilon
        assert init.contains("a")

    def test_contextfree_epsilon_against_enumeration(self):
        rng = random.Random(7)
        seen = {"epsilon": 0, "no epsilon": 0, "empty": 0}
        for _ in range(400):
            g = random_cfg(rng)
            expected = "" in enumerate_cfg(g, 0)
            assert InitialSet.contextfree(g).had_epsilon == expected, g
            seen["epsilon" if expected else "no epsilon"] += 1
            seen["empty"] += cfg_empty(g)
        for case, n in seen.items():
            assert n >= 20, (case, seen)

    def test_contextfree_epsilon_of_empty_start(self):
        # S generates nothing, though T is nullable
        g = Cfg(("a",), ("S", "T"), [("S", ("S", "a")), ("T", ())], "S")
        assert not InitialSet.contextfree(g).had_epsilon

    def test_enumerate_is_length_lex(self):
        init = InitialSet.finite(["b", "ab", "a", "aaa"])
        assert init.enumerate(2) == ["a", "b", "ab"]

    def test_rotation_against_each_rotation(self):
        """Whether some rotation is an axiom agrees with ``contains`` run
        on every rotation, for finite and context-free sets."""
        rng = random.Random(35)
        words = [w for n in range(1, 5) for w in map("".join, itertools.product("ab", repeat=n))]
        seen = dict.fromkeys(itertools.product(("finite", "contextfree"), (True, False)), 0)
        for _ in range(100):
            axioms = rng.sample(words, rng.randint(0, 4))
            for init in (InitialSet.finite(axioms), InitialSet.contextfree(random_cfg(rng))):
                for word in words:
                    want = any(init.contains(c) for c in conjugates(word))
                    assert init._contains_rotation(word) == want, (init, word)
                    seen[init.kind, want] += 1
        assert min(seen.values()) >= 100, seen


class TestSystem:
    def test_rules_partitioned_and_sorted(self):
        rules = {
            SplicingRule("a", "b", "a", "b"),
            SplicingRule("", "c", "", "b", usage=CONCAT),
        }
        s = SplicingSystem(
            alphabet=Alphabet("abc"),
            initial=InitialSet.finite(["ab"]),
            rules=frozenset(rules),
        )
        assert [r.usage for r in s.splice_rules] == [SPLICE]
        assert [r.usage for r in s.concat_rules] == [CONCAT]
        assert s.is_alphabetic

    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            SplicingSystem(
                alphabet=Alphabet("ab"),
                initial=InitialSet.finite(["abc"]),
                rules=frozenset(),
            )
        with pytest.raises(ValueError):
            SplicingSystem(
                alphabet=Alphabet("ab"),
                initial=InitialSet.finite(["ab"]),
                rules=frozenset({SplicingRule("c", "", "", "")}),
            )

    def test_initial_set_over_other_letters(self):
        from splicelab.automata import parse_regex, regex_to_dfa

        rule = frozenset({SplicingRule("b", "", "", "")})
        for letters in (("b",), ("a", "b", "c")):
            dfa = regex_to_dfa(parse_regex("b"), letters)
            with pytest.raises(ValueError, match="initial automaton"):
                SplicingSystem(Alphabet("ab"), InitialSet.regular(dfa), rule)
        dfa = regex_to_dfa(parse_regex("b"), ("a", "b"))
        assert SplicingSystem(Alphabet("ab"), InitialSet.regular(dfa), rule).initial.dfa == dfa
        g = Cfg(("a", "c"), ("S",), [("S", ("a", "c"))], "S")
        with pytest.raises(ValueError, match="not in alphabet"):
            SplicingSystem(Alphabet("ab"), InitialSet.contextfree(g), rule)
        # a grammar may use only some of the letters
        g = Cfg(("b",), ("S",), [("S", ("b",))], "S")
        assert SplicingSystem(Alphabet("ab"), InitialSet.contextfree(g), rule).initial.cfg == g

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            SplicingSystem(
                alphabet=Alphabet("ab"),
                initial=InitialSet.finite(["ab"]),
                rules=frozenset(),
                mode="spiral",
            )

    def test_circular_initial_membership_by_rotation(self):
        s = SplicingSystem(
            alphabet=Alphabet("ab"),
            initial=InitialSet.finite(["ab"]),
            rules=frozenset(),
            mode=CIRCULAR,
        )
        assert s.initial_contains("ba")
        assert s.initial_contains(CircularWord("ba"))
        assert not s.initial_contains("aa")

    def test_circular_initial_membership_against_each_rotation(self):
        # a regular set decides all rotations at once from transition maps,
        # and a context-free set enumerates once: both against running
        # InitialSet.contains on every rotation
        rng = random.Random(28)
        hits = 0
        for i in range(150):
            if i % 3:
                regex = random_regex(rng, "ab")
                initial = InitialSet.regular(regex_to_dfa(parse_regex(regex), ("a", "b")))
            else:
                initial = InitialSet.contextfree(random_cfg(rng))
            s = SplicingSystem(Alphabet("ab"), initial, frozenset(), mode=CIRCULAR)
            for _ in range(8):
                w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 9)))
                expected = any(initial.contains(c) for c in conjugates(w))
                assert s.initial_contains(w) == expected, (initial, w)
                assert s.initial_contains(CircularWord(w)) == expected
                hits += expected
        assert hits > 100

    def test_long_circular_non_member_of_a_regular_set(self):
        initial = InitialSet.regular(regex_to_dfa(parse_regex("(ab)*a"), ("a", "b")))
        s = SplicingSystem(Alphabet("ab"), initial, frozenset(), mode=CIRCULAR)
        assert not s.initial_contains("ab" * 2000 + "b")
        assert s.initial_contains("ba" * 1000 + "a" + "ba" * 1000)
        assert not s.initial_contains("abc")


def _sir_ex() -> SplicingSystem:
    return SplicingSystem(
        alphabet=Alphabet("ab"),
        initial=InitialSet.finite(["ab"]),
        rules=frozenset({SplicingRule("a", "b", "a", "b")}),
    )


INS = SplicingRule("a", "b", "a", "b")
GLUE = SplicingRule("", "b", "a", "", usage=CONCAT)
C = CircularWord
FLAT_OK = Production(INS, InitialRef("ab"), InitialRef("ab"), 1, "aabb")
CIRCULAR_OK = Production(INS, InitialRef(C("ab")), InitialRef(C("ab")), (1, 0), C("baab"))

# (mode, valid steps, corrupted step or a bare seed, 1-based step, message fragment)
CORRUPTED = [
    ("flat", (), None, 1, "empty sequence with no seed word"),
    ("flat", (), "bb", 1, "seed bb is not an axiom"),
    ("flat", (FLAT_OK,), Production(SplicingRule("b", "a", "b", "a"), StepRef(0), InitialRef("ab"), 1, "aabbab"),
     2, "is not part of the system"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(1), InitialRef("ab"), 1, "aabb"), 2, "reference to step 1 out of range"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("aa"), 2, "aaaabb"), 2, "operand aa is not an axiom"),
    ("flat", (FLAT_OK,), Production(GLUE, InitialRef("ba"), StepRef(0), 2, "baaabb"), 2, "operands do not match"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ab"), 5, "aabbab"), 2, "cut 5 out of range"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ab"), (2, 0), "aaabbb"), 2, "cut (2, 0) out of range"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ab"), 0, "abaabb"), 2, "cut 0 not preceded by 'a'"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ab"), 1, "aababb"), 2, "cut 1 not followed by 'b'"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ba"), 2, "aababb"), 2, "inserted word 'ba' does not match"),
    ("flat", (FLAT_OK,), Production(INS, StepRef(0), InitialRef("ab"), 2, "aabb"),
     2, "recorded result aabb differs from replay aaabbb"),
    ("circular", (), C("aa"), 1, "seed (aa) is not an axiom"),
    ("circular", (CIRCULAR_OK,), Production(INS, InitialRef(C("aa")), StepRef(0), (0, 0), C("aaaabb")),
     2, "operand (aa) is not an axiom"),
    ("circular", (CIRCULAR_OK,), Production(INS, InitialRef("ab"), StepRef(0), (1, 0), C("baaabb")),
     2, "circular sequences use circular words"),
    ("circular", (CIRCULAR_OK,), Production(INS, StepRef(0), InitialRef(C("ab")), 2, C("aaabbb")),
     2, "circular cut is a rotation pair"),
    ("circular", (CIRCULAR_OK,), Production(INS, StepRef(0), InitialRef(C("ab")), (4, 0), C("aaabbb")),
     2, "rotation pair (4, 0) out of range"),
    ("circular", (CIRCULAR_OK,), Production(INS, StepRef(0), InitialRef(C("ab")), (0, 0), C("aaabbb")),
     2, "rotation 'aabb' does not match"),
    ("circular", (CIRCULAR_OK,), Production(INS, StepRef(0), InitialRef(C("ab")), (2, 1), C("aaabbb")),
     2, "rotation 'ba' does not match"),
    ("circular", (CIRCULAR_OK,), Production(INS, StepRef(0), InitialRef(C("ab")), (2, 0), C("aabb")),
     2, "recorded result (aabb) differs from replay (aaabbb)"),
    ("flat", (), C("ab"), 1, "flat sequences use flat words"),
    ("flat", (FLAT_OK,), Production(INS, InitialRef(C("ab")), InitialRef("ab"), 1, "aabb"),
     2, "flat sequences use flat words"),
    ("circular", (), "ab", 1, "circular sequences use circular words"),
]


def _replay_system(mode: str) -> SplicingSystem:
    if mode == "flat":
        return SplicingSystem(Alphabet("ab"), InitialSet.finite(["ab", "ba"]), frozenset({INS, GLUE}))
    return SplicingSystem(Alphabet("ab"), InitialSet.finite(["ab"]), frozenset({INS}), mode=CIRCULAR)


class TestReplay:
    @pytest.mark.parametrize("mode, valid, last, step, fragment", CORRUPTED)
    def test_corrupted_sequence(self, mode, valid, last, step, fragment):
        system = _replay_system(mode)
        if valid:
            replay_sequence(system, ProductionSequence(valid))
            seq = ProductionSequence(valid + (last,))
        else:
            seq = ProductionSequence((), seed=last)
        with pytest.raises(ReplayError, match=re.escape(fragment)) as caught:
            replay_sequence(system, seq)
        assert caught.value.step == step
        assert str(caught.value).startswith(f"step {step}: ")

    def test_flat_replay(self):
        rule = SplicingRule("a", "b", "a", "b")
        seq = ProductionSequence(
            (
                Production(rule, InitialRef("ab"), InitialRef("ab"), 1, "aabb"),
                Production(rule, StepRef(0), InitialRef("ab"), 2, "aaabbb"),
            )
        )
        assert replay_sequence(_sir_ex(), seq) == "aaabbb"

    def test_replay_rejects_wrong_cut(self):
        rule = SplicingRule("a", "b", "a", "b")
        seq = ProductionSequence(
            (Production(rule, InitialRef("ab"), InitialRef("ab"), 0, "abab"),)
        )
        with pytest.raises(ReplayError):
            replay_sequence(_sir_ex(), seq)

    def test_replay_rejects_foreign_axiom(self):
        rule = SplicingRule("a", "b", "a", "b")
        seq = ProductionSequence(
            (Production(rule, InitialRef("aabb"), InitialRef("ab"), 2, "aaabbb"),)
        )
        with pytest.raises(ReplayError):
            replay_sequence(_sir_ex(), seq)

    def test_seed_only_sequence(self):
        seq = ProductionSequence((), seed="ab")
        assert replay_sequence(_sir_ex(), seq) == "ab"
        assert seq.result == "ab"

    def test_rule_not_in_system_rejected(self):
        other = SplicingRule("b", "a", "b", "a")
        seq = ProductionSequence(
            (Production(other, InitialRef("ab"), InitialRef("ab"), 1, "abab"),)
        )
        with pytest.raises(ReplayError):
            replay_sequence(_sir_ex(), seq)


# Builds the automaton and the grammar of TestHashedOnce, in this process
# or in another one under another hash seed.
HASHED_ONCE = """
from splicelab.automata import parse_regex, regex_to_dfa
from splicelab.grammar import Cfg

def build():
    return (
        regex_to_dfa(parse_regex("(ab)*a|ba*"), ("a", "b")),
        Cfg(("a", "b"), ("S", "T"), [("S", ("a", "T", "b")), ("T", ()), ("T", ("S",))], "S"),
    )
"""


class TestHashedOnce:
    """``Dfa`` and ``Cfg`` hash as plain frozen dataclasses, over the
    fields that take part in equality, and a pickle carries no hash: a str
    hash differs under another PYTHONHASHSEED."""

    @staticmethod
    def build():
        scope: dict = {}
        exec(HASHED_ONCE, scope)
        return scope["build"]()

    def test_equal_objects_hash_equal(self):
        for x, y in zip(self.build(), self.build()):
            assert x is not y and x == y
            assert hash(x) == hash(y) == hash(x)
            # the hash the dataclass would make, of the fields in equality
            kept = [f for f in x.__dataclass_fields__ if f not in ("letter_index", "varset")]
            assert hash(x) == hash(tuple(getattr(x, f) for f in kept))
        d, g = self.build()
        assert hash(Dfa(d.alphabet, d.transitions, d.start, d.finals)) == hash(d)
        assert hash(Cfg._trusted(g.terminals, g.variables, g.productions, g.start)) == hash(g)
        assert {d: 1, g: 2}[Dfa(d.alphabet, d.transitions, d.start, d.finals)] == 1

    def test_hash_is_not_pickled(self):
        built = self.build()
        before = pickle.dumps(built)
        list(map(hash, built))
        assert pickle.dumps(built) == before
        assert pickle.loads(before) == built

    def test_hash_after_pickle_under_another_seed(self):
        built = self.build()
        list(map(hash, built))
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        child = HASHED_ONCE + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
print([hash(x) == hash(y) for x, y in zip(loaded, build())], hash(("a", "b")))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=pickle.dumps(built), capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        same, key = done.stdout.decode().rsplit(" ", 1)
        # the child hashes strings otherwise, so a kept hash would be wrong
        assert int(key) != hash(("a", "b"))
        assert same == "[True, True]"


class TestEdgeRows:
    """Guards and edge cases the other tests never reach."""

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: Alphabet(["a", "bc"]), "letters are single characters, got 'bc'"),
            (lambda: list(iter_circular_splices(GLUE, C("ab"), C("ab"))), "splice-usage rule"),
            (lambda: ProductionSequence().result, "empty sequence with no seed word"),
        ],
        ids=["multi-letter", "circular-concat", "no-seed"],
    )
    def test_error_rows(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

    def test_alphabet_container(self):
        letters = Alphabet("ba")
        assert "a" in letters and "c" not in letters
        assert len(letters) == 2

    def test_no_rotation_of_the_empty_word(self):
        assert not InitialSet.finite(["ab"])._contains_rotation("")

    def test_sequence_result(self):
        assert ProductionSequence((FLAT_OK,)).result == "aabb"
        assert ProductionSequence(seed="ab").result == "ab"
